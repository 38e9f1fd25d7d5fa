//! The `repro` output lines this benchmark reads.
//!
//! Only lines `ci.sh` already pins byte-for-byte are parsed; the rest of
//! stdout is compared byte for byte, never interpreted, so report-format work cannot
//! break the driver.

/// Which pinned line a workload's stdout must contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pinned {
    /// The 16 percentage cells of Table 1.
    Table1Cells,
    /// `workload metastore hit-rate: H/T (P%)`.
    HitRate,
    /// `slo attainment: MET/TOTAL (P%)`.
    Slo,
    /// No pinned line (`fig8`): exit status and non-empty stdout decide.
    NonEmpty,
}

/// What was read from one invocation's stdout.
#[derive(Debug, Clone, PartialEq)]
pub enum PinnedValue {
    /// Table 1's cells in row order.
    Cells(Vec<String>),
    /// Numerator and denominator of a `N/M` line.
    Ratio(u64, u64),
    /// Nothing to read; stdout was non-empty.
    Present,
}

/// `prefix N/M …` → `(N, M)` from the last line starting with `prefix`.
fn ratio_line(stdout: &str, prefix: &str) -> Option<(u64, u64)> {
    let rest = stdout.lines().rev().find_map(|l| l.strip_prefix(prefix))?;
    let (num, den) = rest.split_whitespace().next()?.split_once('/')?;
    Some((num.parse().ok()?, den.parse().ok()?))
}

/// The row labels of Table 1, in order.
const TABLE1_ROWS: [&str; 4] = ["Q2", "Q8'", "Q9'", "Q10"];

/// The four percentage cells of each Table 1 row, 16 in all.
fn table1_cells(stdout: &str) -> Option<Vec<String>> {
    let mut cells = Vec::with_capacity(16);
    let mut rows = stdout.lines().skip_while(|l| !l.starts_with("Table 1"));
    for label in TABLE1_ROWS {
        let row = rows.find(|l| l.split_whitespace().next() == Some(label))?;
        let row_cells: Vec<&str> = row.split_whitespace().skip(1).collect();
        let is_pct = |c: &&str| {
            c.strip_suffix('%')
                .is_some_and(|n| n.parse::<f64>().is_ok())
        };
        if row_cells.len() != 4 || !row_cells.iter().all(is_pct) {
            return None;
        }
        cells.extend(row_cells.iter().map(|c| c.to_string()));
    }
    Some(cells)
}

impl Pinned {
    /// Read this workload's pinned line from `stdout`; `None` when it is
    /// missing or malformed, which counts the invocation as failed.
    pub fn read(self, stdout: &str) -> Option<PinnedValue> {
        match self {
            Pinned::Table1Cells => table1_cells(stdout).map(PinnedValue::Cells),
            Pinned::HitRate => ratio_line(stdout, "workload metastore hit-rate: ")
                .map(|(h, t)| PinnedValue::Ratio(h, t)),
            Pinned::Slo => {
                ratio_line(stdout, "slo attainment: ").map(|(m, t)| PinnedValue::Ratio(m, t))
            }
            Pinned::NonEmpty => (!stdout.trim().is_empty()).then_some(PinnedValue::Present),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE1: &str = "\
Table 1: Relative execution time of PILR for varying queries and scale factors
Query  SF100-ST  SF100-MT  SF300-MT  SF1000-MT
----------------------------------------------
Q2     100%      21.9%     21.9%     21.9%
Q8'    100%      13.5%     13.5%     13.5%
Q9'    100%      22.7%     22.7%     22.6%
Q10    100%      26.5%     26.7%     26.7%

";

    #[test]
    fn table1_yields_sixteen_cells_in_row_order() {
        let Some(PinnedValue::Cells(cells)) = Pinned::Table1Cells.read(TABLE1) else {
            panic!("table 1 must parse");
        };
        assert_eq!(cells.len(), 16);
        assert_eq!(&cells[..4], ["100%", "21.9%", "21.9%", "21.9%"]);
        assert_eq!(cells[15], "26.7%");
    }

    #[test]
    fn table1_with_a_missing_or_short_row_is_rejected() {
        let no_q10: String = TABLE1
            .lines()
            .filter(|l| !l.starts_with("Q10"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(Pinned::Table1Cells.read(&no_q10), None);
        let short = TABLE1.replace("22.7%     22.6%", "22.7%");
        assert_eq!(Pinned::Table1Cells.read(&short), None);
        let garbled = TABLE1.replace("13.5%", "n/a");
        assert_eq!(Pinned::Table1Cells.read(&garbled), None);
    }

    #[test]
    fn ratio_lines_parse_and_the_last_one_wins() {
        let serve =
            "== serve ==\nslo attainment: 1/2 (50.0%)\nlatency …\nslo attainment: 82/82 (100.0%)\n";
        assert_eq!(Pinned::Slo.read(serve), Some(PinnedValue::Ratio(82, 82)));
        let wl = "order: …\nworkload metastore hit-rate: 119/140 (85.0%)\n";
        assert_eq!(Pinned::HitRate.read(wl), Some(PinnedValue::Ratio(119, 140)));
    }

    #[test]
    fn a_killed_child_or_a_missing_line_reads_as_none() {
        // A child killed mid-run leaves a truncated report: the pinned
        // line is the LAST thing printed, so it is simply absent.
        let truncated = "== serve: 100 submissions ==\nadmission: 40 comple";
        assert_eq!(Pinned::Slo.read(truncated), None);
        assert_eq!(Pinned::HitRate.read(""), None);
        assert_eq!(Pinned::Slo.read("slo attainment: many/100\n"), None);
        assert_eq!(Pinned::Slo.read("slo attainment:\n"), None);
        assert_eq!(Pinned::NonEmpty.read("  \n"), None);
        assert_eq!(
            Pinned::NonEmpty.read("Figure 8\n"),
            Some(PinnedValue::Present)
        );
    }
}
