//! Run one child process and read its wall time and `wait4` resource
//! usage — the numbers the end-to-end metrics are made of.
//!
//! The standard library reaps children without exposing their `rusage`,
//! and the repo has no `libc` crate, so the two libc calls needed are
//! declared here. This is the only unsafe code of the driver.

use std::ffi::{c_int, c_long};
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("struct rusage below is laid out for 64-bit Linux only");

/// `struct timeval` on 64-bit Linux: `time_t` and `suseconds_t` are `long`.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on 64-bit Linux (two timevals and fourteen longs).
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn wait4(pid: c_int, wstatus: *mut c_int, options: c_int, rusage: *mut RawRusage) -> c_int;
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

/// Resource usage of a finished child (or of this process so far).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size in KiB (`ru_maxrss`).
    pub max_rss_kb: u64,
    /// Page faults served without I/O.
    pub minor_faults: u64,
}

impl From<&RawRusage> for Usage {
    fn from(r: &RawRusage) -> Self {
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        Usage {
            user_s: secs(&r.ru_utime),
            sys_s: secs(&r.ru_stime),
            max_rss_kb: r.ru_maxrss.max(0) as u64,
            minor_faults: r.ru_minflt.max(0) as u64,
        }
    }
}

/// Resource usage of the calling process so far.
pub fn self_usage() -> io::Result<Usage> {
    const RUSAGE_SELF: c_int = 0;
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` of the layout
    // getrusage(2) fills on this target (checked by the cfg above).
    if unsafe { getrusage(RUSAGE_SELF, &mut raw) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(Usage::from(&raw))
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// `exit(code)`.
    Code(i32),
    /// Killed by a signal (the OOM killer sends 9).
    Signal(i32),
}

impl Exit {
    /// Decode a `wait4` status word (`WIFEXITED` / `WIFSIGNALED`).
    pub fn from_wait_status(status: i32) -> Exit {
        match status & 0x7f {
            0 => Exit::Code((status >> 8) & 0xff),
            sig => Exit::Signal(sig),
        }
    }

    /// True for `exit(0)` only.
    pub fn success(self) -> bool {
        self == Exit::Code(0)
    }
}

/// One finished invocation.
#[derive(Debug)]
pub struct Invocation {
    /// Spawn to reaped, on the host's monotonic clock.
    pub wall_s: f64,
    /// The child's `rusage`.
    pub usage: Usage,
    /// How it ended.
    pub exit: Exit,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
}

/// Run `program args…` in `cwd` to completion: stdin closed, stdout
/// captured, stderr appended to the file `stderr_to` (a pipe nobody
/// drains could block the child), `env` added to the inherited
/// environment.
pub fn run(
    program: &Path,
    args: &[String],
    cwd: &Path,
    env: &[(&str, &Path)],
    stderr_to: &Path,
) -> io::Result<Invocation> {
    let stderr = File::options().create(true).append(true).open(stderr_to)?;
    let mut cmd = Command::new(program);
    cmd.args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let started = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);

    let pid = c_int::try_from(child.id()).expect("pids fit in c_int");
    let mut status: c_int = 0;
    let mut raw = RawRusage::default();
    loop {
        // SAFETY: `status` and `raw` are live and writable for the call,
        // `raw` has the layout wait4(2) fills on this target, and `pid`
        // is our own un-reaped child. `child` is never waited on or
        // killed through std afterwards, so the pid is reaped only here.
        let got = unsafe { wait4(pid, &mut status, 0, &mut raw) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    read?;
    Ok(Invocation {
        wall_s,
        usage: Usage::from(&raw),
        exit: Exit::from_wait_status(status),
        stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, dir: &Path) -> Invocation {
        let err = dir.join("stderr.txt");
        run(
            Path::new("/bin/sh"),
            &["-c".to_owned(), script.to_owned()],
            dir,
            &[],
            &err,
        )
        .unwrap()
    }

    /// A fresh directory under the git-ignored `benchmark/out/`.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/test")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn captures_stdout_exit_code_and_usage() {
        let dir = scratch("ok");
        let inv = sh("echo hello; echo oops >&2; exit 3", &dir);
        assert_eq!(inv.stdout, b"hello\n");
        assert_eq!(inv.exit, Exit::Code(3));
        assert!(!inv.exit.success());
        assert!(inv.wall_s > 0.0);
        assert!(inv.usage.max_rss_kb > 0, "a shell has a resident set");
        assert_eq!(
            std::fs::read_to_string(dir.join("stderr.txt")).unwrap(),
            "oops\n"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_killed_child_reports_its_signal() {
        let dir = scratch("kill");
        let inv = sh("echo partial; kill -9 $$", &dir);
        assert_eq!(inv.exit, Exit::Signal(9));
        assert!(!inv.exit.success());
        assert_eq!(inv.stdout, b"partial\n");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn env_and_cwd_reach_the_child() {
        let dir = scratch("env");
        let err = dir.join("stderr.txt");
        let inv = run(
            Path::new("/bin/sh"),
            &["-c".to_owned(), "echo $TMPDIR; pwd".to_owned()],
            &dir,
            &[("TMPDIR", Path::new("/somewhere"))],
            &err,
        )
        .unwrap();
        let out = String::from_utf8(inv.stdout).unwrap();
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("/somewhere"));
        assert_eq!(
            std::fs::canonicalize(lines.next().unwrap()).unwrap(),
            std::fs::canonicalize(&dir).unwrap()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn wait_status_decoding() {
        assert_eq!(Exit::from_wait_status(0), Exit::Code(0));
        assert_eq!(Exit::from_wait_status(2 << 8), Exit::Code(2));
        assert_eq!(Exit::from_wait_status(9), Exit::Signal(9));
        assert_eq!(
            Exit::from_wait_status(0x80 | 11),
            Exit::Signal(11),
            "core-dump bit ignored"
        );
        assert!(Exit::from_wait_status(0).success());
    }

    #[test]
    fn self_usage_reads() {
        let u = self_usage().unwrap();
        assert!(u.max_rss_kb > 0);
    }
}
