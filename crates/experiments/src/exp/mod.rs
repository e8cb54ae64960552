//! One module per paper artifact: Table 1, Table 2, Figures 4–8.
//!
//! Every module exposes `run(&ExpOptions) -> …Result`; results carry
//! the structured data and render the paper-style table via
//! `Display`. A sweeping artifact declares all its grids up front and
//! runs them as one scheduled sweep ([`sweep_many_with_kernel`]),
//! scored in the workers.

use opd_baseline::BaselineSolution;
use opd_core::{DetectorConfig, KernelKind};
use opd_microvm::workloads::Workload;
use opd_scoring::AccuracyScore;

use crate::runner::{default_threads, sweep_many_with_kernel, ConfigRun, PreparedWorkload};

pub mod client;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod inputs;
pub mod overhead;
pub mod related;
pub mod sampling;
pub mod scaling;
pub mod table1;
pub mod table2;

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Workload scale factor.
    pub scale: u32,
    /// Worker threads for the configuration sweeps.
    pub threads: usize,
    /// Which workloads to evaluate (default: all eight).
    pub workloads: Vec<Workload>,
    /// Optional cap on trace length (branches); `u64::MAX` runs the
    /// workloads to completion. Used by tests and benches.
    pub fuel: u64,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 1,
            threads: default_threads(),
            workloads: Workload::ALL.to_vec(),
            fuel: u64::MAX,
        }
    }
}

impl ExpOptions {
    /// Options from command-line flags.
    #[must_use]
    pub fn from_cli(cli: crate::cli::CliOpts) -> Self {
        ExpOptions {
            scale: cli.scale,
            threads: cli.threads,
            ..ExpOptions::default()
        }
    }
}

/// One grid of an artifact's study: configs scored against the oracle
/// of every listed MPL.
pub(crate) type Grid = (Vec<DetectorConfig>, Vec<u64>);

/// Runs every grid over every prepared workload as one scheduled
/// sweep, scoring each run with `score` (on detected or anchored phase
/// starts) in the worker that produced it, and returns
/// `best[workload][grid][mpl]`: the best combined score among the
/// grid's configs against that MPL's oracle (0 for an empty grid).
pub(crate) fn best_scores(
    prepared: &[PreparedWorkload],
    grids: &[Grid],
    threads: usize,
    score: fn(&ConfigRun, &BaselineSolution) -> AccuracyScore,
) -> Vec<Vec<Vec<f64>>> {
    let mut configs = Vec::new();
    let mut owner = Vec::new();
    for (gi, (grid, _)) in grids.iter().enumerate() {
        configs.extend_from_slice(grid);
        owner.resize(configs.len(), gi);
    }
    let kernel = KernelKind::default();
    let scores = sweep_many_with_kernel(prepared, &configs, threads, kernel, |p, ci, run| {
        let mpls = &grids[owner[ci]].1;
        let best = |&mpl: &u64| score(&run, p.oracle(mpl)).combined();
        mpls.iter().map(best).collect::<Vec<f64>>()
    });
    scores
        .into_iter()
        .map(|per_config| {
            let mut best: Vec<Vec<f64>> = grids.iter().map(|g| vec![0.0; g.1.len()]).collect();
            for (ci, s) in per_config.into_iter().enumerate() {
                for (b, v) in best[owner[ci]].iter_mut().zip(s) {
                    *b = b.max(v);
                }
            }
            best
        })
        .collect()
}

/// Arithmetic mean; 0 for an empty iterator.
pub(crate) fn avg(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// Percent improvement of `new` over `base`; 0 when `base` is 0.
pub(crate) fn pct_improvement(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_and_improvement() {
        assert_eq!(avg([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(avg(std::iter::empty()), 0.0);
        assert!((pct_improvement(1.2, 1.0) - 20.0).abs() < 1e-12);
        assert_eq!(pct_improvement(1.0, 0.0), 0.0);
    }

    #[test]
    fn default_options_cover_all_workloads() {
        let o = ExpOptions::default();
        assert_eq!(o.workloads.len(), 8);
        assert_eq!(o.scale, 1);
        assert_eq!(o.fuel, u64::MAX);
    }
}
