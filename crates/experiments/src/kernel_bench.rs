//! The window-kernel benchmark behind `BENCH_kernel.json`: one full
//! grid swept [`KERNEL_SAMPLES`] times over one prepared workload, each
//! sweep timed separately from preparation, every sample's results
//! diffed against the first's, and the artifact rendered.
//!
//! The artifact records the acceptance line for the kernel rewrite:
//! the median sweep of the full 13,230-configuration grid must finish
//! under [`SWAR_BUDGET_SECONDS`] and beat the pre-rewrite baseline
//! ([`BASELINE_SWEEP_SECONDS`], a historical constant measured on the
//! same machine, same grid, same workload, one thread) by at least
//! [`MIN_BASELINE_SPEEDUP`]×. One timed sweep is a noisy draw on a
//! shared machine (two back-to-back runs of one binary have read
//! 13.5 s and 16.7 s), so the artifact keeps every sample with its
//! min, median and max, and the acceptance lines read the median. The
//! timing fields are machine-dependent — the artifact test re-checks
//! the committed numbers against the acceptance lines and regenerates
//! only the deterministic fields.

use std::time::Instant;

use opd_core::DetectorConfig;

use crate::runner::{sweep_many, ConfigRun, PreparedWorkload};

/// Sweep-only wall-clock of the pre-rewrite engine on this grid and
/// workload (one thread), measured immediately before the kernel
/// rewrite landed. The artifact's speedup line is relative to this.
pub const BASELINE_SWEEP_SECONDS: f64 = 108.8;

/// The acceptance budget for the median sweep (sweep only, one
/// thread).
pub const SWAR_BUDGET_SECONDS: f64 = 20.0;

/// Minimum accepted speedup of the median sweep over the baseline.
pub const MIN_BASELINE_SPEEDUP: f64 = 5.0;

/// Timed sweeps per benchmark run.
pub const KERNEL_SAMPLES: usize = 3;

/// The full benchmark: [`KERNEL_SAMPLES`] timed sweeps of one grid
/// over one prepared workload, plus the sample-to-sample result diff.
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
    /// Sweep-only wall-clock of each sample, in run order, excluding
    /// preparation and scoring.
    pub samples: Vec<f64>,
    /// Whether every sample produced the first sample's detected and
    /// anchored intervals for every configuration.
    pub samples_identical: bool,
}

impl KernelBenchReport {
    fn sorted_samples(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The fastest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted_samples().first().copied().unwrap_or(0.0)
    }

    /// The median sample (the mean of the middle two for an even
    /// count).
    #[must_use]
    pub fn median(&self) -> f64 {
        let sorted = self.sorted_samples();
        let n = sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        }
    }

    /// The slowest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.sorted_samples().last().copied().unwrap_or(0.0)
    }

    /// Speedup of the median sample over the recorded pre-rewrite
    /// baseline.
    #[must_use]
    pub fn speedup_vs_baseline(&self) -> f64 {
        let median = self.median();
        if median == 0.0 {
            return 0.0;
        }
        BASELINE_SWEEP_SECONDS / median
    }

    /// Renders `BENCH_kernel.json` (hand-built; the vendored
    /// serde_json is an inert shim).
    #[must_use]
    pub fn to_json(&self) -> String {
        let samples: Vec<String> = self.samples.iter().map(|s| format!("{s:.3}")).collect();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"opd-bench-kernel-v2\",\n");
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
        out.push_str(&format!(
            "  \"sweep_seconds\": {{\"samples\": [{}], \"min\": {:.3}, \"median\": {:.3}, \
             \"max\": {:.3}}},\n",
            samples.join(", "),
            self.min(),
            self.median(),
            self.max(),
        ));
        out.push_str(&format!(
            "  \"speedup_vs_baseline\": {:.2},\n",
            self.speedup_vs_baseline()
        ));
        out.push_str(&format!(
            "  \"samples_identical\": {}\n",
            self.samples_identical
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

/// Sweeps `configs` over `prepared` `samples` times, timing each sweep
/// (and only the sweep), and diffs every sample's results against the
/// first's. `prepare_seconds` is the caller's measured preparation
/// time, recorded verbatim.
#[must_use]
pub fn run_kernel_bench(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    threads: usize,
    samples: usize,
    prepare_seconds: f64,
) -> KernelBenchReport {
    let prepared_slice = std::slice::from_ref(prepared);
    let mut seconds = Vec::with_capacity(samples);
    let mut first: Option<Vec<ConfigRun>> = None;
    let mut samples_identical = true;
    for _ in 0..samples {
        let started = Instant::now();
        let runs = sweep_many(prepared_slice, configs, threads)
            .pop()
            .expect("one workload in, one out");
        seconds.push(started.elapsed().as_secs_f64());
        match &first {
            Some(first) => samples_identical &= runs_identical(first, &runs),
            None => first = Some(runs),
        }
    }
    KernelBenchReport {
        workload: prepared.workload().name(),
        scale: 1,
        threads,
        grid_configs: configs.len(),
        trace_elements: prepared.total_elements(),
        trace_distinct: prepared.interned().distinct_count(),
        prepare_seconds,
        samples: seconds,
        samples_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{policy_grid, TwKind};
    use opd_microvm::workloads::Workload;

    #[test]
    fn report_json_is_structurally_complete_and_samples_agree() {
        let prepared = PreparedWorkload::prepare_with_fuel(Workload::Lexgen, 1, &[1_000], 20_000);
        let configs = policy_grid(TwKind::Constant, 500);
        let report = run_kernel_bench(&prepared, &configs, 1, 2, 0.5);
        assert!(report.samples_identical);
        assert_eq!(report.samples.len(), 2);
        assert_eq!(report.grid_configs, configs.len());
        assert_eq!(report.trace_elements, 20_000);
        let json = report.to_json();
        for key in [
            "\"schema\": \"opd-bench-kernel-v2\"",
            "\"workload\": \"lexgen\"",
            "\"baseline_sweep_seconds\": 108.8",
            "\"sweep_seconds\": {\"samples\": [",
            "\"median\"",
            "\"speedup_vs_baseline\"",
            "\"samples_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn summary_statistics_and_speedup_read_the_median() {
        let mut report = KernelBenchReport {
            workload: "ruleng",
            scale: 1,
            threads: 1,
            grid_configs: 2,
            trace_elements: 10,
            trace_distinct: 3,
            prepare_seconds: 1.0,
            samples: vec![15.0, BASELINE_SWEEP_SECONDS / 8.0, 12.0],
            samples_identical: true,
        };
        assert_eq!(report.min(), 12.0);
        assert_eq!(report.median(), BASELINE_SWEEP_SECONDS / 8.0);
        assert_eq!(report.max(), 15.0);
        assert!((report.speedup_vs_baseline() - 8.0).abs() < 1e-9);
        report.samples.push(20.0);
        assert_eq!(report.median(), (BASELINE_SWEEP_SECONDS / 8.0 + 15.0) / 2.0);
    }
}
