//! Figure 7: window resizing and anchoring at phase starts
//! (Section 5): Slide versus Move (a) and RN versus LNN (b).

use core::fmt;

use opd_core::{AnchorPolicy, ResizePolicy};

use crate::exp::{avg, best_scores, pct_improvement, ExpOptions, Grid};
use crate::grid::{adaptive_grid, half_mpl_cw, MPLS_TABLE1};
use crate::report::{fmt_mpl, fmt_pct, Table};
use crate::runner::{prepare_all, ConfigRun};

/// Improvements for one MPL value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// The minimum phase length.
    pub mpl: u64,
    /// Percent improvement of Slide over Move resizing (RN anchor).
    pub slide_over_move: f64,
    /// Percent improvement of RN over LNN anchoring (Slide resizing).
    pub rn_over_lnn: f64,
}

/// The regenerated Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// One row per MPL value.
    pub rows: Vec<Fig7Row>,
}

impl Fig7Result {
    /// Average improvement of Slide over Move across MPL values.
    #[must_use]
    pub fn average_slide_improvement(&self) -> f64 {
        avg(self.rows.iter().map(|r| r.slide_over_move))
    }

    /// Average improvement of RN over LNN across MPL values.
    #[must_use]
    pub fn average_rn_improvement(&self) -> f64 {
        avg(self.rows.iter().map(|r| r.rn_over_lnn))
    }
}

/// Runs the Figure 7 experiment.
#[must_use]
pub fn run(opts: &ExpOptions) -> Fig7Result {
    let prepared = prepare_all(&opts.workloads, opts.scale, &MPLS_TABLE1, opts.fuel);
    let variants = [
        (AnchorPolicy::RightmostNoisy, ResizePolicy::Slide),
        (AnchorPolicy::RightmostNoisy, ResizePolicy::Move),
        (AnchorPolicy::LeftmostNonNoisy, ResizePolicy::Slide),
    ];
    let grids: Vec<Grid> = MPLS_TABLE1
        .iter()
        .flat_map(|&mpl| {
            variants.map(|(anchor, resize)| {
                (adaptive_grid(half_mpl_cw(mpl), anchor, resize), vec![mpl])
            })
        })
        .collect();
    let best = best_scores(&prepared, &grids, opts.threads, ConfigRun::score);
    let rows = MPLS_TABLE1
        .iter()
        .enumerate()
        .map(|(mi, &mpl)| {
            // Average of best scores per variant across benchmarks.
            let scores: [f64; 3] =
                std::array::from_fn(|vi| avg(best.iter().map(|w| w[mi * variants.len() + vi][0])));
            Fig7Row {
                mpl,
                slide_over_move: pct_improvement(scores[0], scores[1]),
                rn_over_lnn: pct_improvement(scores[0], scores[2]),
            }
        })
        .collect();
    Fig7Result { rows }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Figure 7: % improvement from resize and anchor policies (Adaptive TW)",
            &["MPL", "(a) Slide vs Move (RN)", "(b) RN vs LNN (Slide)"],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_mpl(r.mpl),
                fmt_pct(r.slide_over_move),
                fmt_pct(r.rn_over_lnn),
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
            workloads: vec![Workload::Ruleng],
            fuel: 25_000,
            threads: 4,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 6);
        for r in &result.rows {
            assert!(r.slide_over_move.is_finite());
            assert!(r.rn_over_lnn.is_finite());
        }
        let _ = result.average_slide_improvement();
        let _ = result.average_rn_improvement();
        assert!(result.to_string().contains("Slide vs Move"));
    }
}
