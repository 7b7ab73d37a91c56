//! Ranking suspect lines across multiple failing executions (Sec. 4.3).
//!
//! A single failing test usually pin-points the bug, but for reliability the
//! paper re-runs BugAssist with several failing traces and ranks lines by how
//! often they are reported. This module aggregates [`LocalizationReport`]s
//! into such a ranking.

use crate::localizer::LocalizationReport;
use minic::ast::Line;
use std::collections::BTreeMap;

/// A line together with the number of failing runs that blamed it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RankedLine {
    /// The source line.
    pub line: Line,
    /// In how many failing runs it appeared in some CoMSS.
    pub count: usize,
    /// Fraction of runs that blamed it (0.0 – 1.0).
    pub frequency: f64,
}

impl PartialOrd for RankedLine {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedLine {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Higher count first, then lower line number.
        other
            .count
            .cmp(&self.count)
            .then_with(|| self.line.cmp(&other.line))
    }
}

impl Eq for RankedLine {}

/// Aggregated result of localizing many failing executions.
#[derive(Clone, Debug)]
pub struct RankedReport {
    /// Lines ordered by how often they were blamed (most frequent first).
    pub ranking: Vec<RankedLine>,
    /// The per-test reports, in input order.
    pub per_test: Vec<LocalizationReport>,
    /// Number of failing tests whose report blamed the most frequent line.
    pub max_count: usize,
}

impl RankedReport {
    /// The set of lines blamed by more than half of the failing runs — the
    /// heuristic the paper uses when a single run is ambiguous.
    pub fn majority_lines(&self) -> Vec<Line> {
        let threshold = self.per_test.len().div_ceil(2);
        self.ranking
            .iter()
            .filter(|r| r.count >= threshold.max(1))
            .map(|r| r.line)
            .collect()
    }

    /// Number of failing runs whose suspect set contains the given line —
    /// the paper's "Detect#" column when `line` is the injected fault.
    pub fn detection_count(&self, line: Line) -> usize {
        self.per_test.iter().filter(|r| r.blames_line(line)).count()
    }

    /// Union of all blamed lines over all runs.
    pub fn all_blamed_lines(&self) -> Vec<Line> {
        let mut lines: Vec<Line> = self
            .per_test
            .iter()
            .flat_map(|r| r.suspect_lines.iter().copied())
            .collect();
        lines.sort();
        lines.dedup();
        lines
    }

    /// Aggregates per-test localization reports into the Sec. 4.3 frequency
    /// ranking: the merge step of
    /// [`Localizer::localize_batch`](crate::Localizer::localize_batch), and of any
    /// caller that localizes its failing tests one by one.
    pub fn from_reports(per_test: Vec<LocalizationReport>) -> RankedReport {
        let mut counts: BTreeMap<Line, usize> = BTreeMap::new();
        for report in &per_test {
            for &line in &report.suspect_lines {
                *counts.entry(line).or_insert(0) += 1;
            }
        }
        let total = per_test.len().max(1);
        let mut ranking: Vec<RankedLine> = counts
            .into_iter()
            .map(|(line, count)| RankedLine {
                line,
                count,
                frequency: count as f64 / total as f64,
            })
            .collect();
        ranking.sort();
        let max_count = ranking.first().map_or(0, |r| r.count);
        RankedReport {
            ranking,
            per_test,
            max_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localizer::{Localizer, LocalizerConfig};
    use bmc::{EncodeConfig, Spec};
    use minic::parse_program;

    fn config8() -> LocalizerConfig {
        LocalizerConfig {
            encode: EncodeConfig {
                width: 8,
                ..EncodeConfig::default()
            },
            ..LocalizerConfig::default()
        }
    }

    #[test]
    fn faulty_line_dominates_the_ranking() {
        // Golden function is x + 1; the fault is the constant 3 on line 2.
        let program =
            parse_program("int main(int x) {\nint y = x + 3;\nint z = y;\nreturn z;\n}").unwrap();
        // Build one localizer per expected output (the golden output differs
        // per input, like the TCAS golden outputs do).
        let mut reports = Vec::new();
        for x in [1i64, 2, 5] {
            let localizer =
                Localizer::new(&program, "main", &Spec::ReturnEquals(x + 1), &config8()).unwrap();
            reports.push(localizer.localize(&[x]).unwrap());
        }
        // Aggregate manually (the helper needs a single spec; this mirrors
        // what the TCAS harness does per failing vector).
        let mut counts: BTreeMap<Line, usize> = BTreeMap::new();
        for report in &reports {
            for &line in &report.suspect_lines {
                *counts.entry(line).or_insert(0) += 1;
            }
        }
        assert_eq!(
            counts[&Line(2)],
            3,
            "the faulty line is blamed in every run"
        );
    }

    #[test]
    fn ranked_report_helpers() {
        let program = parse_program("int main(int x) {\nint y = x + 2;\nreturn y;\n}").unwrap();
        let localizer =
            Localizer::new(&program, "main", &Spec::ReturnEquals(4), &config8()).unwrap();
        // Only x = 3 should return 4; anything else is a failing test.
        let ranked = RankedReport::from_reports(vec![
            localizer.localize(&[5]).unwrap(),
            localizer.localize(&[6]).unwrap(),
        ]);
        assert_eq!(ranked.per_test.len(), 2);
        assert!(ranked.max_count >= 1);
        assert!(!ranked.all_blamed_lines().is_empty());
        assert!(ranked.detection_count(Line(2)) >= 1);
        let ordered: Vec<usize> = ranked.ranking.iter().map(|r| r.count).collect();
        let mut sorted = ordered.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(ordered, sorted, "ranking is sorted by count descending");
    }
}
