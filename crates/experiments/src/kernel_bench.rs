//! The window-kernel benchmark behind `BENCH_kernel.json`: one full
//! grid swept on both kernels (the SWAR default and the scalar
//! reference), timed separately from preparation, diffed
//! configuration-by-configuration, and rendered as the committed
//! artifact.
//!
//! The artifact records the acceptance line for the kernel rewrite:
//! the SWAR sweep of the full 13,230-configuration grid must finish
//! under [`SWAR_BUDGET_SECONDS`] and beat the pre-rewrite baseline
//! ([`BASELINE_SWEEP_SECONDS`], measured on the same machine, same
//! grid, same workload, one thread) by at least
//! [`MIN_BASELINE_SPEEDUP`]×. The timing fields are machine-dependent
//! — the artifact test re-checks the committed numbers against the
//! acceptance lines and regenerates only the deterministic fields.

use std::time::Instant;

use opd_core::{DetectorConfig, KernelKind};

use crate::runner::{sweep_many_with_kernel, ConfigRun, PreparedWorkload};

/// Sweep-only wall-clock of the pre-rewrite engine on this grid and
/// workload (one thread), measured immediately before the kernel
/// rewrite landed. The artifact's speedup lines are relative to this.
pub const BASELINE_SWEEP_SECONDS: f64 = 108.8;

/// The acceptance budget for the SWAR sweep (sweep only, one thread).
pub const SWAR_BUDGET_SECONDS: f64 = 20.0;

/// Minimum accepted speedup of the SWAR sweep over the baseline.
pub const MIN_BASELINE_SPEEDUP: f64 = 5.0;

/// One kernel's timed sweep of the benchmark grid.
#[derive(Debug, Clone, Copy)]
pub struct KernelTiming {
    /// Which kernel ran.
    pub kernel: KernelKind,
    /// Sweep-only wall-clock, excluding preparation and scoring.
    pub sweep_seconds: f64,
}

impl KernelTiming {
    /// Speedup over the recorded pre-rewrite baseline.
    #[must_use]
    pub fn speedup_vs_baseline(&self) -> f64 {
        if self.sweep_seconds == 0.0 {
            return 0.0;
        }
        BASELINE_SWEEP_SECONDS / self.sweep_seconds
    }
}

/// The full benchmark: both kernels timed over one prepared workload
/// and grid, plus the result diff.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// Workload name.
    pub workload: &'static str,
    /// Workload scale.
    pub scale: u32,
    /// Worker threads the sweeps ran on.
    pub threads: usize,
    /// Configurations in the swept grid.
    pub grid_configs: usize,
    /// Profile elements in the trace.
    pub trace_elements: u64,
    /// Distinct profile elements in the trace.
    pub trace_distinct: u32,
    /// Wall-clock of workload preparation (execution, interning,
    /// oracles) — reported so the sweep numbers are visibly
    /// sweep-only.
    pub prepare_seconds: f64,
    /// The SWAR (default) kernel's timing, then the scalar
    /// reference's.
    pub kernels: [KernelTiming; 2],
    /// Whether the two kernels produced bit-identical detected and
    /// anchored intervals for every configuration.
    pub results_identical: bool,
}

impl KernelBenchReport {
    /// The SWAR sweep's timing.
    #[must_use]
    pub fn swar(&self) -> KernelTiming {
        self.kernels[0]
    }

    /// The scalar reference sweep's timing.
    #[must_use]
    pub fn scalar(&self) -> KernelTiming {
        self.kernels[1]
    }

    /// SWAR speedup over the scalar reference, same machine, same run.
    #[must_use]
    pub fn swar_speedup_vs_scalar(&self) -> f64 {
        if self.swar().sweep_seconds == 0.0 {
            return 0.0;
        }
        self.scalar().sweep_seconds / self.swar().sweep_seconds
    }

    /// Renders `BENCH_kernel.json` (hand-built; the vendored
    /// serde_json is an inert shim).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"opd-bench-kernel-v1\",\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"grid_configs\": {},\n", self.grid_configs));
        out.push_str(&format!("  \"trace_elements\": {},\n", self.trace_elements));
        out.push_str(&format!("  \"trace_distinct\": {},\n", self.trace_distinct));
        out.push_str(&format!(
            "  \"prepare_seconds\": {:.3},\n",
            self.prepare_seconds
        ));
        out.push_str(&format!(
            "  \"baseline_sweep_seconds\": {BASELINE_SWEEP_SECONDS:.1},\n"
        ));
        out.push_str("  \"kernels\": [\n");
        for (i, t) in self.kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"sweep_seconds\": {:.3}, \
                 \"speedup_vs_baseline\": {:.2}}}{}\n",
                t.kernel.as_str(),
                t.sweep_seconds,
                t.speedup_vs_baseline(),
                if i + 1 == self.kernels.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"swar_speedup_vs_scalar\": {:.2},\n",
            self.swar_speedup_vs_scalar()
        ));
        out.push_str(&format!(
            "  \"results_identical\": {}\n",
            self.results_identical
        ));
        out.push_str("}\n");
        out
    }
}

fn runs_identical(a: &[ConfigRun], b: &[ConfigRun]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.detected == y.detected && x.anchored == y.anchored)
}

/// Sweeps `configs` over `prepared` on both kernels, timing each
/// sweep (and only the sweep), and diffs the results. `prepare_seconds`
/// is the caller's measured preparation time, recorded verbatim.
#[must_use]
pub fn run_kernel_bench(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    threads: usize,
    prepare_seconds: f64,
) -> KernelBenchReport {
    let mut kernels = [KernelTiming {
        kernel: KernelKind::Swar,
        sweep_seconds: 0.0,
    }; 2];
    let mut runs: Vec<Vec<ConfigRun>> = Vec::with_capacity(2);
    for (slot, kernel) in [KernelKind::Swar, KernelKind::Scalar]
        .into_iter()
        .enumerate()
    {
        let started = Instant::now();
        let prepared = std::slice::from_ref(prepared);
        runs.extend(sweep_many_with_kernel(
            prepared,
            configs,
            threads,
            kernel,
            |_, _, r| r,
        ));
        kernels[slot] = KernelTiming {
            kernel,
            sweep_seconds: started.elapsed().as_secs_f64(),
        };
    }
    KernelBenchReport {
        workload: prepared.workload().name(),
        scale: 1,
        threads,
        grid_configs: configs.len(),
        trace_elements: prepared.total_elements(),
        trace_distinct: prepared.interned().distinct_count(),
        prepare_seconds,
        kernels,
        results_identical: runs_identical(&runs[0], &runs[1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{policy_grid, TwKind};
    use opd_microvm::workloads::Workload;

    #[test]
    fn report_json_is_structurally_complete_and_kernels_agree() {
        let prepared = PreparedWorkload::prepare_with_fuel(Workload::Lexgen, 1, &[1_000], 20_000);
        let configs = policy_grid(TwKind::Constant, 500);
        let report = run_kernel_bench(&prepared, &configs, 1, 0.5);
        assert!(report.results_identical);
        assert_eq!(report.swar().kernel, KernelKind::Swar);
        assert_eq!(report.scalar().kernel, KernelKind::Scalar);
        assert_eq!(report.grid_configs, configs.len());
        assert_eq!(report.trace_elements, 20_000);
        let json = report.to_json();
        for key in [
            "\"schema\": \"opd-bench-kernel-v1\"",
            "\"workload\": \"lexgen\"",
            "\"baseline_sweep_seconds\": 108.8",
            "\"kernel\": \"swar\"",
            "\"kernel\": \"scalar\"",
            "\"swar_speedup_vs_scalar\"",
            "\"results_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn speedup_lines_divide_the_right_way() {
        let t = KernelTiming {
            kernel: KernelKind::Swar,
            sweep_seconds: BASELINE_SWEEP_SECONDS / 8.0,
        };
        assert!((t.speedup_vs_baseline() - 8.0).abs() < 1e-9);
        let report = KernelBenchReport {
            workload: "ruleng",
            scale: 1,
            threads: 1,
            grid_configs: 2,
            trace_elements: 10,
            trace_distinct: 3,
            prepare_seconds: 1.0,
            kernels: [
                KernelTiming {
                    kernel: KernelKind::Swar,
                    sweep_seconds: 2.0,
                },
                KernelTiming {
                    kernel: KernelKind::Scalar,
                    sweep_seconds: 12.0,
                },
            ],
            results_identical: true,
        };
        assert!((report.swar_speedup_vs_scalar() - 6.0).abs() < 1e-9);
    }
}
