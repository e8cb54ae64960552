//! Extension study: related-work detectors against the framework.
//!
//! Section 6 of the paper argues that the detectors of Dhodapkar &
//! Smith (fixed interval, unweighted, threshold 0.5), Lu et al. (PC
//! sample-range test), and Das et al. (Pearson coefficient) are all
//! (near-)instantiations of the framework. This experiment runs each
//! against the same oracles as the paper's own detectors:
//!
//! * `framework best` — best score across the paper's Constant/
//!   Adaptive grids at CW = ½·MPL;
//! * `dhodapkar-smith` — fixed interval, CW = TW = skip = 100K-scaled
//!   window, unweighted model, threshold 0.5 (their published
//!   parameters, window scaled to MPL);
//! * `pearson` — the framework with the Pearson model (Das et al.),
//!   best across analyzers;
//! * `pc-range` — Lu et al.'s detector with a window of ½·MPL.

use core::fmt;

use opd_core::{run_online, AnalyzerPolicy, DetectorConfig, ModelPolicy, PcRangeDetector};
use opd_scoring::score_intervals;
use opd_trace::intervals_of;

use crate::exp::{avg, best_scores, ExpOptions};
use crate::grid::{config_for, half_mpl_cw, paper_analyzers, policy_grid, TwKind, MPLS_MAIN};
use crate::report::{fmt_mpl, fmt_score, Table};
use crate::runner::{prepare_all, ConfigRun, PreparedWorkload};

/// Scores for one MPL value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelatedRow {
    /// The minimum phase length.
    pub mpl: u64,
    /// Best framework score (Constant + Adaptive grids).
    pub framework: f64,
    /// Dhodapkar & Smith's published configuration.
    pub dhodapkar_smith: f64,
    /// Framework with the Pearson model (Das et al.), best analyzer.
    pub pearson: f64,
    /// Lu et al.'s PC-range detector.
    pub pc_range: f64,
}

/// The extension-study result.
#[derive(Debug, Clone)]
pub struct RelatedResult {
    /// One row per MPL value.
    pub rows: Vec<RelatedRow>,
}

impl RelatedResult {
    /// `true` if the framework's best detector beats every
    /// related-work detector at every MPL.
    #[must_use]
    pub fn framework_wins(&self) -> bool {
        self.rows.iter().all(|r| {
            r.framework >= r.dhodapkar_smith
                && r.framework >= r.pearson
                && r.framework >= r.pc_range
        })
    }
}

fn pc_range_score(p: &PreparedWorkload, mpl: u64, window: usize) -> f64 {
    // The PC-range detector consumes raw element values (its "sampled
    // PCs"), not interned ids.
    let mut det = PcRangeDetector::new(window.max(1), 2.0).expect("valid parameters");
    let states = run_online(&mut det, p.branches());
    score_intervals(&intervals_of(&states), p.oracle(mpl)).combined()
}

/// Runs the extension study.
#[must_use]
pub fn run(opts: &ExpOptions) -> RelatedResult {
    let prepared = prepare_all(&opts.workloads, opts.scale, &MPLS_MAIN, opts.fuel);
    // Per MPL: the framework grid, the Dhodapkar-Smith point, and the
    // Pearson grid.
    let mut grids = Vec::new();
    for &mpl in &MPLS_MAIN {
        let cw = half_mpl_cw(mpl);
        let mut framework = policy_grid(TwKind::Constant, cw);
        framework.extend(policy_grid(TwKind::Adaptive, cw));
        let ds_config = DetectorConfig::fixed_interval(
            cw,
            ModelPolicy::UnweightedSet,
            AnalyzerPolicy::Threshold(0.5),
        )
        .expect("valid config");
        let pearson = paper_analyzers()
            .into_iter()
            .map(|a| config_for(TwKind::Constant, cw, ModelPolicy::Pearson, a))
            .collect::<Result<Vec<_>, _>>()
            .expect("valid config");
        grids.extend([framework, vec![ds_config], pearson].map(|g| (g, vec![mpl])));
    }
    let best = best_scores(&prepared, &grids, opts.threads, ConfigRun::score);
    let rows = MPLS_MAIN
        .iter()
        .enumerate()
        .map(|(mi, &mpl)| {
            let score = |k: usize| avg(best.iter().map(|w| w[mi * 3 + k][0]));
            RelatedRow {
                mpl,
                framework: score(0),
                dhodapkar_smith: score(1),
                pearson: score(2),
                pc_range: avg(prepared
                    .iter()
                    .map(|p| pc_range_score(p, mpl, half_mpl_cw(mpl)))),
            }
        })
        .collect();
    RelatedResult { rows }
}

impl fmt::Display for RelatedResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Extension study: the framework vs related-work detectors (average score)",
            &[
                "MPL",
                "Framework best",
                "Dhodapkar-Smith",
                "Pearson (Das)",
                "PC-range (Lu)",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_mpl(r.mpl),
                fmt_score(r.framework),
                fmt_score(r.dhodapkar_smith),
                fmt_score(r.pearson),
                fmt_score(r.pc_range),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::workloads::Workload;

    #[test]
    fn small_run_shapes() {
        let opts = ExpOptions {
            workloads: vec![Workload::Lexgen],
            fuel: 30_000,
            threads: 2,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 4);
        for r in &result.rows {
            for v in [r.framework, r.dhodapkar_smith, r.pearson, r.pc_range] {
                assert!((0.0..=1.0).contains(&v), "{r:?}");
            }
            // The full grid subsumes the Dhodapkar-Smith point, so the
            // framework's best can never be worse than... their skip
            // factor differs (fixed interval), so only sanity-check
            // both are valid scores here; the ordering claim is
            // checked on full traces in the integration tests.
        }
        assert!(result.to_string().contains("PC-range"));
    }
}

#[cfg(test)]
mod result_tests {
    use super::*;

    #[test]
    fn framework_wins_requires_every_row() {
        let mk = |fw: f64| RelatedRow {
            mpl: 1_000,
            framework: fw,
            dhodapkar_smith: 0.5,
            pearson: 0.5,
            pc_range: 0.4,
        };
        assert!(RelatedResult {
            rows: vec![mk(0.6), mk(0.9)]
        }
        .framework_wins());
        assert!(!RelatedResult {
            rows: vec![mk(0.6), mk(0.45)]
        }
        .framework_wins());
    }
}
