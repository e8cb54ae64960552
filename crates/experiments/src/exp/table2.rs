//! Table 2: the impact of the current-window size relative to the MPL
//! (Section 4.2).
//!
//! For every benchmark, trailing-window strategy, and CW size, the
//! best score across all model/analyzer combinations is extracted;
//! part (a) reports the average percent improvement of choosing a CW
//! smaller than (or equal to) the MPL over choosing one larger than
//! the MPL, and part (b) the average best scores for the
//! smaller/equal/half-MPL categories.

use core::fmt;

use crate::exp::{avg, best_scores, pct_improvement, ExpOptions, Grid};
use crate::grid::{policy_grid, TwKind, CW_SIZES, MPLS_TABLE1};
use crate::report::{fmt_pct, fmt_score, Table};
use crate::runner::{prepare_all, ConfigRun};

/// Improvements for one benchmark under one TW strategy (part (a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprovementCell {
    /// Avg % improvement of best(CW < MPL) over best(CW > MPL).
    pub smaller: f64,
    /// Avg % improvement of best(CW = MPL) over best(CW > MPL).
    pub equal: f64,
}

/// One benchmark row of Table 2(a): improvements per strategy.
#[derive(Debug, Clone)]
pub struct BenchImprovements {
    /// Workload name.
    pub name: &'static str,
    /// One cell per [`TwKind`], in `TwKind::ALL` order.
    pub per_kind: Vec<ImprovementCell>,
}

/// One strategy row of Table 2(b): average best scores by CW category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryScores {
    /// The trailing-window strategy.
    pub kind: TwKind,
    /// Average best score with CW smaller than the MPL.
    pub smaller: f64,
    /// Average best score with CW equal to the MPL.
    pub equal: f64,
    /// Average best score with CW at most half the MPL.
    pub half_mpl: f64,
}

/// The regenerated Table 2.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Part (a): per-benchmark improvements.
    pub improvements: Vec<BenchImprovements>,
    /// Part (a) bottom row: averages across benchmarks.
    pub average: Vec<ImprovementCell>,
    /// Part (b): category scores per strategy.
    pub categories: Vec<CategoryScores>,
}

/// Runs the Table 2 experiment.
///
/// # Panics
///
/// Panics if `opts.workloads` is empty.
#[must_use]
pub fn run(opts: &ExpOptions) -> Table2Result {
    assert!(!opts.workloads.is_empty(), "need at least one workload");
    let prepared = prepare_all(&opts.workloads, opts.scale, &MPLS_TABLE1, opts.fuel);

    // best[workload][kind * CW_SIZES.len() + cw_idx][mpl_idx] = best
    // combined score, from one sweep over every (kind, cw) grid.
    let grids: Vec<Grid> = TwKind::ALL
        .iter()
        .flat_map(|&kind| CW_SIZES.map(|cw| (policy_grid(kind, cw), MPLS_TABLE1.to_vec())))
        .collect();
    let best = best_scores(&prepared, &grids, opts.threads, ConfigRun::score);
    let per_cw = |wi: usize, ki: usize| &best[wi][ki * CW_SIZES.len()..][..CW_SIZES.len()];

    // Part (a): improvements of smaller/equal over larger, averaged
    // over the MPL values that have CW sizes on both sides.
    let improvements: Vec<BenchImprovements> = prepared
        .iter()
        .enumerate()
        .map(|(wi, p)| BenchImprovements {
            name: p.workload().name(),
            per_kind: (0..TwKind::ALL.len())
                .map(|ki| improvement_cell(per_cw(wi, ki)))
                .collect(),
        })
        .collect();
    let average: Vec<ImprovementCell> = (0..TwKind::ALL.len())
        .map(|ki| ImprovementCell {
            smaller: avg(improvements.iter().map(|b| b.per_kind[ki].smaller)),
            equal: avg(improvements.iter().map(|b| b.per_kind[ki].equal)),
        })
        .collect();

    // Part (b): average of best scores per CW category, across
    // benchmarks and MPL values.
    let categories = TwKind::ALL
        .iter()
        .enumerate()
        .map(|(ki, &kind)| {
            let mut smaller = Vec::new();
            let mut equal = Vec::new();
            let mut half = Vec::new();
            for wi in 0..best.len() {
                let per_cw = per_cw(wi, ki);
                for (mi, &mpl) in MPLS_TABLE1.iter().enumerate() {
                    if let Some(v) = category_best(per_cw, mi, |cw| (cw as u64) < mpl) {
                        smaller.push(v);
                    }
                    if let Some(v) = category_best(per_cw, mi, |cw| cw as u64 == mpl) {
                        equal.push(v);
                    }
                    if let Some(v) = category_best(per_cw, mi, |cw| (cw as u64) <= mpl / 2) {
                        half.push(v);
                    }
                }
            }
            CategoryScores {
                kind,
                smaller: avg(smaller),
                equal: avg(equal),
                half_mpl: avg(half),
            }
        })
        .collect();

    Table2Result {
        improvements,
        average,
        categories,
    }
}

/// Best score among CW sizes selected by `pred`, for one MPL column.
fn category_best(per_cw: &[Vec<f64>], mpl_idx: usize, pred: impl Fn(usize) -> bool) -> Option<f64> {
    CW_SIZES
        .iter()
        .enumerate()
        .filter(|&(_, &cw)| pred(cw))
        .map(|(ci, _)| per_cw[ci][mpl_idx])
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Improvements averaged over the MPL values that have CW sizes both
/// above and below them.
fn improvement_cell(per_cw: &[Vec<f64>]) -> ImprovementCell {
    let mut smaller = Vec::new();
    let mut equal = Vec::new();
    for (mi, &mpl) in MPLS_TABLE1.iter().enumerate() {
        let larger = category_best(per_cw, mi, |cw| (cw as u64) > mpl);
        let Some(larger) = larger else { continue };
        if let Some(s) = category_best(per_cw, mi, |cw| (cw as u64) < mpl) {
            smaller.push(pct_improvement(s, larger));
        }
        if let Some(e) = category_best(per_cw, mi, |cw| cw as u64 == mpl) {
            equal.push(pct_improvement(e, larger));
        }
    }
    ImprovementCell {
        smaller: avg(smaller),
        equal: avg(equal),
    }
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut a = Table::new(
            "Table 2(a): % improvement in best score, CW smaller/equal vs larger than MPL",
            &[
                "Benchmark",
                "Adaptive smaller",
                "Adaptive equal",
                "Constant smaller",
                "Constant equal",
                "FixedInt smaller",
                "FixedInt equal",
            ],
        );
        for r in &self.improvements {
            let mut cells = vec![r.name.to_owned()];
            for c in &r.per_kind {
                cells.push(fmt_pct(c.smaller));
                cells.push(fmt_pct(c.equal));
            }
            a.row(cells);
        }
        let mut cells = vec!["Average".to_owned()];
        for c in &self.average {
            cells.push(fmt_pct(c.smaller));
            cells.push(fmt_pct(c.equal));
        }
        a.row(cells);
        writeln!(f, "{a}")?;

        let mut b = Table::new(
            "Table 2(b): average of best scores by CW category",
            &["Policy", "Smaller", "Equal", "1/2 MPL"],
        );
        for c in &self.categories {
            b.row(vec![
                c.kind.label().to_owned(),
                fmt_score(c.smaller),
                fmt_score(c.equal),
                fmt_score(c.half_mpl),
            ]);
        }
        write!(f, "{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::workloads::Workload;

    #[test]
    fn small_run_has_expected_shape() {
        let opts = ExpOptions {
            workloads: vec![Workload::Lexgen],
            fuel: 40_000,
            threads: 4,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.improvements.len(), 1);
        assert_eq!(result.improvements[0].per_kind.len(), 3);
        assert_eq!(result.categories.len(), 3);
        for c in &result.categories {
            for v in [c.smaller, c.equal, c.half_mpl] {
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
        }
        let text = result.to_string();
        assert!(text.contains("Table 2(a)"), "{text}");
        assert!(text.contains("Average"), "{text}");
    }

    #[test]
    fn category_best_respects_predicate() {
        let mut per_cw = vec![vec![0.0; MPLS_TABLE1.len()]; CW_SIZES.len()];
        per_cw[0][0] = 0.3; // cw=500
        per_cw[2][0] = 0.9; // cw=5000
        let best_small = category_best(&per_cw, 0, |cw| cw < 1_000).unwrap();
        assert_eq!(best_small, 0.3);
        let best_all = category_best(&per_cw, 0, |_| true).unwrap();
        assert_eq!(best_all, 0.9);
        assert!(category_best(&per_cw, 0, |_| false).is_none());
    }
}
