//! Sweep self-profiling: metered sweeps, the per-bucket profile, and
//! the NullObserver overhead benchmark behind `BENCH_obs.json`.
//!
//! [`sweep_many_profiled`] is [`crate::runner::sweep_many`] with the
//! meter on: every `(workload, engine unit)` bucket runs through
//! [`SweepEngine::run_unit_metered`], recording scans, steps, judged
//! steps, comparison ops, elements, and wall-clock into a lock-free
//! [`MetricsRegistry`] shared by the workers. The per-bucket numbers
//! are cross-checked at runtime against PR 3's static cost model:
//! scans and steps are predicted exactly, comparison ops are bounded
//! above (see `counter_bounds.rs` in the test suite).
//!
//! [`null_observer_overhead`] is the measurement behind the
//! zero-overhead-when-off claim: the observed detector entry point run
//! with [`opd_obs::NullObserver`] against the plain
//! `run_interned_phases_only` (itself that same body's `NullObserver`
//! instantiation), interleaved samples, median of each.

use std::time::Instant;

use opd_analyze::ConfigCost;
use opd_core::{DetectorConfig, PhaseDetector, SweepEngine, SweepScratch};
use opd_obs::{MetricsRegistry, MetricsSnapshot, NullObserver, UnitMetrics};

use crate::report::Table;
use crate::runner::{calibrated_unit_cost, config_run, lpt_plan, ConfigRun, PreparedWorkload};

/// The window kernel's name in the profile table and in BENCH_obs's
/// `kernel` fields. One kernel remains; the fields keep the artifact's
/// columns stable.
pub const KERNEL: &str = "swar";

/// Fuel for the overhead benchmark's workload trace.
pub const OBS_FUEL: u64 = 60_000;
/// Timing samples per arm of the overhead benchmark.
pub const OBS_SAMPLES: usize = 5;

/// What one `(workload, engine unit)` bucket actually did.
#[derive(Debug, Clone)]
pub struct BucketProfile {
    /// Workload name.
    pub workload: &'static str,
    /// Index into the prepared-workload slice.
    pub workload_index: usize,
    /// Index into the engine's unit list.
    pub unit_index: usize,
    /// Whether the unit ran one shared scan for all members.
    pub shared: bool,
    /// Member configs in the unit.
    pub members: usize,
    /// Runtime accounting from the metered engine.
    pub metrics: UnitMetrics,
    /// The calibrated cost model's LPT weight for this bucket.
    pub static_cost: u64,
    /// Static upper bound on the bucket's comparison ops (`None` if
    /// the checked arithmetic overflowed).
    pub static_compare_bound: Option<u64>,
    /// Wall-clock spent running the bucket.
    pub wall_nanos: u64,
}

impl BucketProfile {
    /// Measured comparison-op throughput (ops/second) of this bucket.
    /// `0.0` if the bucket ran too fast to time.
    #[must_use]
    pub fn compare_ops_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.metrics.compare_ops as f64 * 1e9 / self.wall_nanos as f64
    }
}

/// The profile of one metered sweep: per-bucket accounting plus the
/// registry snapshot and per-worker busy time.
#[derive(Debug, Clone)]
pub struct SweepProfile {
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// End-to-end wall-clock of the sweep.
    pub wall_nanos: u64,
    /// Busy wall-clock per worker (bucket run time, excluding joins) —
    /// the measured counterpart of the LPT plan's load estimate.
    pub thread_busy_nanos: Vec<u64>,
    /// One entry per `(workload, unit)` bucket, in deterministic
    /// `(workload, unit)` order.
    pub buckets: Vec<BucketProfile>,
    /// The metrics registry's post-join snapshot.
    pub snapshot: MetricsSnapshot,
}

impl SweepProfile {
    /// Sums every bucket's runtime accounting.
    #[must_use]
    pub fn totals(&self) -> UnitMetrics {
        let mut total = UnitMetrics::new();
        for b in &self.buckets {
            total.merge(&b.metrics);
        }
        total
    }

    /// Static upper bound on total comparison ops (`None` on
    /// overflow in any bucket).
    #[must_use]
    pub fn static_compare_bound(&self) -> Option<u64> {
        self.buckets
            .iter()
            .try_fold(0u64, |acc, b| acc.checked_add(b.static_compare_bound?))
    }

    /// Measured LPT imbalance: the busiest worker's share over the
    /// mean (1.0 = perfectly even; 0.0 if nothing ran).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self.thread_busy_nanos.clone();
        if busy.is_empty() || busy.iter().all(|&b| b == 0) {
            return 0.0;
        }
        let max = *busy.iter().max().expect("non-empty") as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        max / mean
    }

    /// The per-bucket profile as a printable table (the body of
    /// `opd sweep --stats`).
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Sweep profile (per bucket)",
            &[
                "workload", "unit", "kernel", "kind", "members", "scans", "steps", "judged",
                "cmp ops", "bound", "cmp/s", "wall ms",
            ],
        );
        for b in &self.buckets {
            t.row(vec![
                b.workload.to_owned(),
                b.unit_index.to_string(),
                KERNEL.to_owned(),
                if b.shared { "shared" } else { "private" }.to_owned(),
                b.members.to_string(),
                b.metrics.scans.to_string(),
                b.metrics.steps.to_string(),
                b.metrics.judged_steps.to_string(),
                b.metrics.compare_ops.to_string(),
                b.static_compare_bound
                    .map_or_else(|| "overflow".to_owned(), |v| v.to_string()),
                format!("{:.3e}", b.compare_ops_per_sec()),
                format!("{:.2}", b.wall_nanos as f64 / 1e6),
            ]);
        }
        t
    }
}

/// [`crate::runner::sweep_many`] with the meter on: identical results
/// (metered and plain units run the same generic scan body, at a
/// `MeterObserver` and a `NullObserver` respectively), plus a
/// [`SweepProfile`] of what every bucket did.
#[must_use]
pub fn sweep_many_profiled(
    prepared: &[PreparedWorkload],
    configs: &[DetectorConfig],
    threads: usize,
) -> (Vec<Vec<ConfigRun>>, SweepProfile) {
    let engine = SweepEngine::new(configs);
    let started = Instant::now();

    let mut registry = MetricsRegistry::for_host();
    let c_scans = registry.counter("sweep.scans");
    let c_steps = registry.counter("sweep.steps");
    let c_judged = registry.counter("sweep.judged_steps");
    let c_compare = registry.counter("sweep.compare_ops");
    let c_elements = registry.counter("sweep.elements");
    let h_wall = registry.histogram("sweep.bucket_wall_us");
    let h_compare = registry.histogram("sweep.bucket_compare_ops");
    let registry = &registry;

    let mut items: Vec<(usize, usize, u64)> =
        Vec::with_capacity(prepared.len() * engine.units().len());
    for (wi, p) in prepared.iter().enumerate() {
        for (ui, unit) in engine.units().iter().enumerate() {
            items.push((wi, ui, calibrated_unit_cost(configs, unit, p)));
        }
    }
    let threads = threads.max(1).min(items.len().max(1));
    let site_capacity = prepared
        .iter()
        .map(PreparedWorkload::site_capacity)
        .max()
        .unwrap_or(0);

    // One worker's run of one bucket: metered engine call, registry
    // recording, and the per-bucket profile entry.
    let run_bucket = |wi: usize,
                      ui: usize,
                      static_cost: u64,
                      scratch: &mut SweepScratch|
     -> (Vec<(usize, usize, ConfigRun)>, BucketProfile) {
        let p = &prepared[wi];
        let unit = &engine.units()[ui];
        let total = p.interned().len() as u64;
        let mut metrics = UnitMetrics::new();
        let bucket_start = Instant::now();
        let runs = engine.run_unit_metered(ui, p.interned(), scratch, &mut metrics);
        let wall_nanos = u64::try_from(bucket_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        registry.add(c_scans, metrics.scans);
        registry.add(c_steps, metrics.steps);
        registry.add(c_judged, metrics.judged_steps);
        registry.add(c_compare, metrics.compare_ops);
        registry.add(c_elements, metrics.elements);
        registry.record(h_wall, wall_nanos / 1_000);
        registry.record(h_compare, metrics.compare_ops);
        let static_compare_bound = unit.config_indices().iter().try_fold(0u64, |acc, &ci| {
            acc.checked_add(
                ConfigCost::of(&configs[ci], p.total_elements(), p.site_capacity() as u64)
                    .compare_ops()?,
            )
        });
        let profile = BucketProfile {
            workload: p.workload().name(),
            workload_index: wi,
            unit_index: ui,
            shared: unit.is_shared(),
            members: unit.config_indices().len(),
            metrics,
            static_cost,
            static_compare_bound,
            wall_nanos,
        };
        let local = runs
            .into_iter()
            .map(|(ci, phases)| (wi, ci, config_run(configs[ci], &phases, total)))
            .collect();
        (local, profile)
    };

    let mut out: Vec<Vec<Option<ConfigRun>>> = prepared
        .iter()
        .map(|_| configs.iter().map(|_| None).collect())
        .collect();
    let mut buckets: Vec<BucketProfile> = Vec::with_capacity(items.len());
    let mut thread_busy_nanos = vec![0u64; threads];

    if threads <= 1 {
        let mut scratch = SweepScratch::with_site_capacity(site_capacity);
        for &(wi, ui, cost) in &items {
            let (local, profile) = run_bucket(wi, ui, cost, &mut scratch);
            thread_busy_nanos[0] += profile.wall_nanos;
            buckets.push(profile);
            for (wi, ci, run) in local {
                out[wi][ci] = Some(run);
            }
        }
    } else {
        let costs: Vec<u64> = items.iter().map(|&(_, _, c)| c).collect();
        let plan: Vec<Vec<(usize, usize, u64)>> = lpt_plan(&costs, threads)
            .into_iter()
            .map(|bucket| bucket.into_iter().map(|i| items[i]).collect())
            .collect();
        let run_bucket = &run_bucket;
        type WorkerOut = (Vec<(usize, usize, ConfigRun)>, Vec<BucketProfile>, u64);
        let filled: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .into_iter()
                .map(|assigned| {
                    s.spawn(move || {
                        let mut scratch = SweepScratch::with_site_capacity(site_capacity);
                        let mut local = Vec::new();
                        let mut profiles = Vec::new();
                        let mut busy = 0u64;
                        for (wi, ui, cost) in assigned {
                            let (runs, profile) = run_bucket(wi, ui, cost, &mut scratch);
                            busy += profile.wall_nanos;
                            local.extend(runs);
                            profiles.push(profile);
                        }
                        (local, profiles, busy)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("profiled sweep worker panicked"))
                .collect()
        });
        for (t, (local, profiles, busy)) in filled.into_iter().enumerate() {
            thread_busy_nanos[t] = busy;
            buckets.extend(profiles);
            for (wi, ci, run) in local {
                out[wi][ci] = Some(run);
            }
        }
    }
    buckets.sort_by_key(|b| (b.workload_index, b.unit_index));

    let profile = SweepProfile {
        threads,
        wall_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        thread_busy_nanos,
        buckets,
        snapshot: registry.snapshot(),
    };
    let out = out
        .into_iter()
        .map(|w| {
            w.into_iter()
                .map(|o| o.expect("every (workload, config) cell filled"))
                .collect()
        })
        .collect();
    (out, profile)
}

/// The two arms of the overhead benchmark.
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Samples per arm.
    pub samples: usize,
    /// Median wall-clock of the uninstrumented sweep arm.
    pub plain_nanos: u64,
    /// Median wall-clock of the NullObserver-instrumented arm.
    pub instrumented_nanos: u64,
}

impl OverheadReport {
    /// Instrumented over plain (1.0 = no overhead).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.plain_nanos == 0 {
            return 1.0;
        }
        self.instrumented_nanos as f64 / self.plain_nanos as f64
    }
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Measures the NullObserver arm against the uninstrumented arm:
/// every config in `configs` run over `prepared`'s trace through one
/// reused detector, `samples` interleaved samples per arm, median of
/// each. With a correctly monomorphized observer layer the ratio is
/// noise around 1.0; the committed `BENCH_obs.json` records it and the
/// artifact test holds it under the 2% acceptance line.
#[must_use]
pub fn null_observer_overhead(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    samples: usize,
) -> OverheadReport {
    let samples = samples.max(1);
    let trace = prepared.interned();
    let mut detector = PhaseDetector::new(configs[0]);
    detector.reserve_sites(prepared.site_capacity());

    // Warm both paths once (page in code and site tables) before
    // timing anything.
    for &config in configs {
        detector.reconfigure(config);
        let _ = detector.run_interned_phases_only(trace);
        detector.reconfigure(config);
        let _ = detector.run_interned_phases_observed(trace, &mut NullObserver);
    }

    let mut plain = Vec::with_capacity(samples);
    let mut instrumented = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for &config in configs {
            detector.reconfigure(config);
            let _ = detector.run_interned_phases_only(trace);
        }
        plain.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));

        let t = Instant::now();
        for &config in configs {
            detector.reconfigure(config);
            let _ = detector.run_interned_phases_observed(trace, &mut NullObserver);
        }
        instrumented.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    OverheadReport {
        samples,
        plain_nanos: median(plain),
        instrumented_nanos: median(instrumented),
    }
}

/// Renders `BENCH_obs.json`: the overhead measurement plus the sweep
/// profile, hand-built (the vendored serde_json is an inert shim).
#[must_use]
pub fn obs_json(
    scale: u32,
    fuel: u64,
    grid_configs: usize,
    overhead: &OverheadReport,
    profile: &SweepProfile,
) -> String {
    let totals = profile.totals();
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"opd-bench-obs-v2\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"fuel\": {fuel},\n"));
    out.push_str(&format!("  \"kernel\": \"{KERNEL}\",\n"));
    out.push_str(&format!("  \"threads\": {},\n", profile.threads));
    out.push_str(&format!("  \"grid_configs\": {grid_configs},\n"));
    out.push_str("  \"overhead\": {\n");
    out.push_str(&format!("    \"samples\": {},\n", overhead.samples));
    out.push_str(&format!("    \"plain_nanos\": {},\n", overhead.plain_nanos));
    out.push_str(&format!(
        "    \"instrumented_nanos\": {},\n",
        overhead.instrumented_nanos
    ));
    out.push_str(&format!("    \"ratio\": {:.4}\n", overhead.ratio()));
    out.push_str("  },\n");
    out.push_str("  \"totals\": {\n");
    out.push_str(&format!("    \"scans\": {},\n", totals.scans));
    out.push_str(&format!("    \"steps\": {},\n", totals.steps));
    out.push_str(&format!("    \"judged_steps\": {},\n", totals.judged_steps));
    out.push_str(&format!("    \"compare_ops\": {},\n", totals.compare_ops));
    out.push_str(&format!("    \"elements\": {},\n", totals.elements));
    out.push_str(&format!(
        "    \"static_compare_bound\": {}\n",
        profile
            .static_compare_bound()
            .map_or_else(|| "null".to_owned(), |v| v.to_string())
    ));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"lpt_imbalance\": {:.4},\n",
        profile.imbalance()
    ));
    out.push_str("  \"buckets\": [\n");
    for (i, b) in profile.buckets.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"unit\": {}, \"kernel\": \"{}\", \"shared\": {}, \
             \"members\": {}, \"scans\": {}, \"steps\": {}, \"judged_steps\": {}, \
             \"compare_ops\": {}, \"elements\": {}, \"static_compare_bound\": {}, \
             \"compare_ops_per_sec\": {:.1}, \"wall_nanos\": {}}}{}\n",
            b.workload,
            b.unit_index,
            KERNEL,
            b.shared,
            b.members,
            b.metrics.scans,
            b.metrics.steps,
            b.metrics.judged_steps,
            b.metrics.compare_ops,
            b.metrics.elements,
            b.static_compare_bound
                .map_or_else(|| "null".to_owned(), |v| v.to_string()),
            b.compare_ops_per_sec(),
            b.wall_nanos,
            if i + 1 == profile.buckets.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::default_plan_grid;
    use crate::runner::{prepare_all, sweep_many};
    use opd_microvm::workloads::Workload;

    #[test]
    fn profiled_sweep_matches_unprofiled_results() {
        let prepared = prepare_all(
            &[Workload::Lexgen, Workload::Blockcomp],
            1,
            &[1_000],
            30_000,
        );
        let configs = default_plan_grid();
        let reference = sweep_many(&prepared, &configs, 2);
        for threads in [1, 3] {
            let (runs, profile) = sweep_many_profiled(&prepared, &configs, threads);
            assert_eq!(runs.len(), reference.len());
            for (w_ref, w_prof) in reference.iter().zip(&runs) {
                for (a, b) in w_ref.iter().zip(w_prof) {
                    assert_eq!(a.detected, b.detected);
                    assert_eq!(a.anchored, b.anchored);
                }
            }
            // One shared bucket per workload on the default plan grid.
            assert_eq!(profile.buckets.len(), 2);
            let totals = profile.totals();
            assert_eq!(totals.scans, 2);
            assert_eq!(totals.elements, 2 * 30_000);
            assert!(totals.judged_steps > 0);
            // The registry agrees with the per-bucket accounting.
            assert_eq!(profile.snapshot.counter("sweep.scans"), Some(totals.scans));
            assert_eq!(
                profile.snapshot.counter("sweep.compare_ops"),
                Some(totals.compare_ops)
            );
            assert_eq!(
                profile
                    .snapshot
                    .histogram("sweep.bucket_wall_us")
                    .expect("registered")
                    .count(),
                2
            );
            assert!(profile.table().to_string().contains("lexgen"));
        }
    }

    #[test]
    fn overhead_report_is_sane() {
        let prepared = &prepare_all(&[Workload::Lexgen], 1, &[1_000], 10_000)[0];
        let configs = &default_plan_grid()[..4];
        let report = null_observer_overhead(prepared, configs, 3);
        assert_eq!(report.samples, 3);
        assert!(report.plain_nanos > 0);
        assert!(report.instrumented_nanos > 0);
        // Loose sanity bound (the committed artifact holds the strict
        // 2% line; this in-test check only guards against gross
        // monomorphization failures without being timing-flaky).
        assert!(report.ratio() < 1.5, "ratio {}", report.ratio());
    }

    #[test]
    fn obs_json_is_structurally_complete() {
        let prepared = prepare_all(&[Workload::Lexgen], 1, &[1_000], 10_000);
        let configs = default_plan_grid();
        let (_, profile) = sweep_many_profiled(&prepared, &configs, 1);
        let overhead = OverheadReport {
            samples: 3,
            plain_nanos: 100,
            instrumented_nanos: 101,
        };
        let json = obs_json(1, 10_000, configs.len(), &overhead, &profile);
        for key in [
            "\"schema\": \"opd-bench-obs-v2\"",
            "\"kernel\": \"swar\"",
            "\"overhead\"",
            "\"ratio\"",
            "\"totals\"",
            "\"static_compare_bound\"",
            "\"compare_ops_per_sec\"",
            "\"lpt_imbalance\"",
            "\"buckets\"",
            "\"workload\": \"lexgen\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!((overhead.ratio() - 1.01).abs() < 1e-9);
    }
}
