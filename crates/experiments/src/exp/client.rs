//! Phase-aware optimization study: how detector accuracy translates
//! into client benefit (the paper's Section 7 future work #3).
//!
//! Three clients with different economics each derive their MPL from
//! their cost model ([`opd_client::recommended_mpl`]); for every
//! workload we compare the net benefit of optimizing
//!
//! * the **oracle**'s phases (the offline upper bound),
//! * the phases of the best framework detector (best accuracy score
//!   among the Constant + Adaptive grids at CW = ½·MPL),
//! * the phases of the prior-art fixed-interval detector.

use core::fmt;
use core::ops::Range;

use opd_client::{recommended_mpl, simulate_intervals, CostModel};
use opd_core::KernelKind;

use crate::exp::{avg, ExpOptions};
use crate::grid::{half_mpl_cw, policy_grid, TwKind};
use crate::report::{fmt_pct, Table};
use crate::runner::{prepare_all, run_detector, sweep_many_with_kernel};

/// One client's aggregate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRow {
    /// Human label of the client.
    pub client: &'static str,
    /// The MPL the client derived from its cost model.
    pub mpl: u64,
    /// Average net benefit (% of baseline cost) optimizing the
    /// oracle's phases.
    pub oracle_benefit: f64,
    /// Average net benefit using the best framework detector.
    pub detector_benefit: f64,
    /// Average net benefit using the fixed-interval detector.
    pub fixed_benefit: f64,
}

impl ClientRow {
    /// Fraction of the oracle's benefit the framework detector
    /// captures (0 when the oracle itself gains nothing).
    #[must_use]
    pub fn capture_ratio(&self) -> f64 {
        if self.oracle_benefit <= 0.0 {
            0.0
        } else {
            self.detector_benefit / self.oracle_benefit
        }
    }
}

/// The client study result.
#[derive(Debug, Clone)]
pub struct ClientResult {
    /// One row per client economics.
    pub rows: Vec<ClientRow>,
}

/// The three clients studied: (label, apply cost, speedup, revert
/// cost).
#[must_use]
pub fn client_models() -> Vec<(&'static str, CostModel)> {
    vec![
        (
            "lightweight (0.5K apply, 1.2x)",
            CostModel::new(500, 1.2, 50).expect("valid model"),
        ),
        (
            "moderate (5K apply, 1.3x)",
            CostModel::new(5_000, 1.3, 500).expect("valid model"),
        ),
        (
            "heavyweight (20K apply, 1.5x)",
            CostModel::new(20_000, 1.5, 2_000).expect("valid model"),
        ),
    ]
}

/// Index of the best-scoring config in `range`; the last one among
/// equal scores.
fn best_in(scores: &[f64], range: Range<usize>) -> Option<usize> {
    range.max_by(|&a, &b| scores[a].total_cmp(&scores[b]))
}

/// Runs the client study.
#[must_use]
pub fn run(opts: &ExpOptions) -> ClientResult {
    let models = client_models();
    let mpls: Vec<u64> = models.iter().map(|(_, m)| recommended_mpl(m)).collect();
    let prepared = prepare_all(&opts.workloads, opts.scale, &mpls, opts.fuel);

    // Per client: the framework grid (Constant + Adaptive) and the
    // fixed-interval grid, all scored in one sweep; only the winners
    // are re-run for their phases.
    let mut configs = Vec::new();
    let mut grids = Vec::new();
    let mut config_mpl = Vec::new();
    for &mpl in &mpls {
        let cw = half_mpl_cw(mpl);
        let mut detector = policy_grid(TwKind::Constant, cw);
        detector.extend(policy_grid(TwKind::Adaptive, cw));
        for grid in [detector, policy_grid(TwKind::FixedInterval, cw)] {
            grids.push(configs.len()..configs.len() + grid.len());
            configs.extend(grid);
            config_mpl.resize(configs.len(), mpl);
        }
    }
    let kernel = KernelKind::default();
    let scores = sweep_many_with_kernel(&prepared, &configs, opts.threads, kernel, |p, ci, run| {
        run.score(p.oracle(config_mpl[ci])).combined()
    });

    let rows = models
        .into_iter()
        .zip(mpls)
        .enumerate()
        .map(|(mi, ((client, model), mpl))| {
            let mut oracle_b = Vec::new();
            let mut detector_b = Vec::new();
            let mut fixed_b = Vec::new();
            for (p, scores) in prepared.iter().zip(&scores) {
                let truth = p.oracle(mpl).phases();
                let total = p.total_elements();
                let benefit = |ci: usize| {
                    let detected = run_detector(configs[ci], p.interned()).detected;
                    simulate_intervals(&detected, truth, total, &model).net_benefit_pct()
                };
                oracle_b.push(simulate_intervals(truth, truth, total, &model).net_benefit_pct());
                detector_b.extend(best_in(scores, grids[2 * mi].clone()).map(benefit));
                fixed_b.extend(best_in(scores, grids[2 * mi + 1].clone()).map(benefit));
            }
            ClientRow {
                client,
                mpl,
                oracle_benefit: avg(oracle_b),
                detector_benefit: avg(detector_b),
                fixed_benefit: avg(fixed_b),
            }
        })
        .collect();
    ClientResult { rows }
}

impl fmt::Display for ClientResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Phase-aware optimization: net benefit (% of baseline cost)",
            &[
                "Client",
                "MPL",
                "Oracle",
                "Best detector",
                "Fixed interval",
                "Capture",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.client.to_owned(),
                crate::report::fmt_mpl(r.mpl),
                fmt_pct(r.oracle_benefit),
                fmt_pct(r.detector_benefit),
                fmt_pct(r.fixed_benefit),
                format!("{:.0}%", 100.0 * r.capture_ratio()),
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
            workloads: vec![Workload::Parsegen],
            fuel: 60_000,
            threads: 2,
            ..ExpOptions::default()
        };
        let result = run(&opts);
        assert_eq!(result.rows.len(), 3);
        for r in &result.rows {
            // The oracle never loses: it only optimizes phases that
            // satisfy an MPL beyond the client's break-even length.
            assert!(r.oracle_benefit >= 0.0, "{r:?}");
            assert!(r.capture_ratio().is_finite());
        }
        assert!(result.to_string().contains("Oracle"));
    }

    #[test]
    fn clients_have_distinct_mpls() {
        let mpls: Vec<u64> = client_models()
            .iter()
            .map(|(_, m)| recommended_mpl(m))
            .collect();
        assert!(mpls[0] < mpls[1] && mpls[1] < mpls[2], "{mpls:?}");
    }
}
