//! Workload preparation and the parallel configuration sweep.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use opd_analyze::{AbsInt, Analysis, ResourceCertificate};
use opd_baseline::{BaselineSolution, CallLoopForest};
use opd_core::{
    anchored_intervals, detected_intervals, DetectedPhase, DetectorConfig, InternedTrace,
    PhaseDetector, SweepEngine, SweepScratch, SweepUnit,
};
use opd_microvm::workloads::Workload;
use opd_scoring::{score_intervals, AccuracyScore};
use opd_trace::{BranchTrace, PhaseInterval, TraceStats};

/// One workload executed, interned, and solved for a set of MPL
/// values — everything a sweep needs, computed once.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    workload: Workload,
    stats: TraceStats,
    branches: BranchTrace,
    interned: InternedTrace,
    total: u64,
    oracles: BTreeMap<u64, BaselineSolution>,
    analysis: Analysis,
    absint: AbsInt,
    fuel: u64,
    probe_density: f64,
}

/// The detector configuration one calibration probe runs at prepare
/// time: the default shape of the shared plan grid, so the measured
/// judged-step density reflects the sweeps it will price.
fn probe_config() -> DetectorConfig {
    DetectorConfig::builder()
        .current_window(500)
        .build()
        .expect("probe config is valid")
}

/// Measured judged-step density of `trace`: the fraction of detector
/// steps the probe config actually judged (windows warm and refilled).
/// The static cost model assumes every step is judged; this one cheap
/// metered run at prepare time tells the LPT scheduler how far below
/// that ceiling the workload really sits. Falls back to `1.0`
/// (worst case) for degenerate traces.
fn measure_probe_density(trace: &InternedTrace) -> f64 {
    let mut detector = PhaseDetector::new(probe_config());
    let mut meter = opd_obs::MeterObserver::new();
    let _ = detector.run_interned_phases_observed(trace, &mut meter);
    let m = &meter.metrics;
    if m.steps == 0 {
        return 1.0;
    }
    (m.judged_steps as f64 / m.steps as f64).clamp(0.0, 1.0)
}

impl PreparedWorkload {
    /// Executes `workload` at `scale`, interns its branch trace, and
    /// computes the baseline solution for every MPL in `mpls`.
    ///
    /// # Panics
    ///
    /// Panics if the workload trace is malformed, which would be a bug
    /// in the MicroVM (covered by its tests).
    #[must_use]
    pub fn prepare(workload: Workload, scale: u32, mpls: &[u64]) -> Self {
        Self::prepare_with_fuel(workload, scale, mpls, u64::MAX)
    }

    /// Like [`prepare`](PreparedWorkload::prepare) but truncates the
    /// execution after `fuel` branches — used by the benchmark suite to
    /// keep iterations short.
    ///
    /// # Panics
    ///
    /// Panics if the workload trace is malformed.
    #[must_use]
    pub fn prepare_with_fuel(workload: Workload, scale: u32, mpls: &[u64], fuel: u64) -> Self {
        let program = workload.program(scale);
        let analysis = Analysis::of(&program);
        let absint = AbsInt::of(&program);
        let mut trace = opd_trace::ExecutionTrace::new();
        opd_microvm::Interpreter::new(&program, workload.default_seed())
            .with_fuel(fuel)
            .run(&mut trace)
            .expect("workload programs terminate");
        let stats = TraceStats::measure(&trace);
        let forest = CallLoopForest::build(&trace).expect("workload traces are well nested");
        let oracles = mpls.iter().map(|&mpl| (mpl, forest.solve(mpl))).collect();
        // The static alphabet bound pre-sizes the intern table so
        // interning never rehashes; it is an upper bound on the
        // distinct-element count by the soundness property the
        // differential tests check.
        let interned = InternedTrace::from_elements_with_capacity(
            trace.branches().iter().copied(),
            analysis.flow().alphabet_bound() as usize,
        );
        debug_assert!(u64::from(interned.distinct_count()) <= analysis.flow().alphabet_bound());
        let probe_density = measure_probe_density(&interned);
        let total = trace.branches().len() as u64;
        let (branches, _) = trace.into_parts();
        PreparedWorkload {
            workload,
            stats,
            branches,
            interned,
            total,
            oracles,
            analysis,
            absint,
            fuel,
            probe_density,
        }
    }

    /// The workload this data came from.
    #[must_use]
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The trace's dynamic execution characteristics (Table 1(a)).
    #[must_use]
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// The interned branch trace.
    #[must_use]
    pub fn interned(&self) -> &InternedTrace {
        &self.interned
    }

    /// The raw branch trace (for detectors that need the packed
    /// element values rather than interned ids).
    #[must_use]
    pub fn branches(&self) -> &BranchTrace {
        &self.branches
    }

    /// Number of profile elements in the trace.
    #[must_use]
    pub fn total_elements(&self) -> u64 {
        self.total
    }

    /// The baseline solution for one of the prepared MPL values.
    ///
    /// # Panics
    ///
    /// Panics if `mpl` was not in the list passed to `prepare`.
    #[must_use]
    pub fn oracle(&self, mpl: u64) -> &BaselineSolution {
        self.oracles
            .get(&mpl)
            .unwrap_or_else(|| panic!("MPL {mpl} was not prepared"))
    }

    /// All prepared MPL values, ascending.
    #[must_use]
    pub fn mpls(&self) -> Vec<u64> {
        self.oracles.keys().copied().collect()
    }

    /// The static analysis of the workload's program: lint findings,
    /// call graph, nesting tree, and worst-case bounds.
    #[must_use]
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The static alphabet bound, as a site-table capacity: no trace
    /// of this program has more distinct profile elements than this.
    #[must_use]
    pub fn site_capacity(&self) -> usize {
        self.analysis.flow().alphabet_bound() as usize
    }

    /// Measured judged-step density (judged steps / total steps) of
    /// the calibration probe run over this trace, in `0.0..=1.0`. The
    /// sweep scheduler scales the static comparison-op bound by this
    /// factor when pricing LPT buckets.
    #[must_use]
    pub fn probe_density(&self) -> f64 {
        self.probe_density
    }

    /// The fuel limit the trace was prepared under (`u64::MAX` =
    /// complete run).
    #[must_use]
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Issues one [`ResourceCertificate`] per config for this
    /// prepared workload (at the preparation fuel), or `None` if any
    /// certificate is vacuous — callers then fall back to measured
    /// calibration.
    #[must_use]
    pub fn certificates(&self, configs: &[DetectorConfig]) -> Option<Vec<ResourceCertificate>> {
        let flow = self.analysis.flow();
        let certs: Vec<ResourceCertificate> = configs
            .iter()
            .map(|c| ResourceCertificate::from_parts(&self.absint, flow, c, self.fuel))
            .collect();
        if certs.iter().any(ResourceCertificate::vacuous) {
            None
        } else {
            Some(certs)
        }
    }
}

/// The calibrated LPT price of one sweep unit on one prepared
/// workload: the static window-maintenance part at face value (every
/// element is always consumed) plus the static comparison part scaled
/// by the workload's measured judged-step density. Uses the *measured*
/// distinct-site count — not the static alphabet bound — so two
/// workloads with identical bounds but different live alphabets price
/// differently.
#[must_use]
pub fn calibrated_unit_cost(
    configs: &[DetectorConfig],
    unit: &SweepUnit,
    prepared: &PreparedWorkload,
) -> u64 {
    let (window, compare) = opd_analyze::unit_cost_parts(
        configs,
        unit,
        prepared.total_elements(),
        u64::from(prepared.interned().distinct_count()),
    );
    let scaled = (compare as f64 * prepared.probe_density()).round() as u64;
    window.saturating_add(scaled)
}

/// The certificate-priced LPT cost of one sweep unit: the static
/// window-maintenance part at face value plus the static comparison
/// part scaled by the unit's *certified* judged-step density — the
/// midpoint of each member's judged-step interval over the midpoint
/// of its step interval. Replaces the probe-measured density with a
/// statically derived one when certificates are available (they are
/// for every built-in workload), making LPT pricing independent of
/// the calibration run.
#[must_use]
pub fn certified_unit_cost(
    configs: &[DetectorConfig],
    unit: &SweepUnit,
    prepared: &PreparedWorkload,
    certs: &[ResourceCertificate],
) -> u64 {
    let (window, compare) = opd_analyze::unit_cost_parts(
        configs,
        unit,
        prepared.total_elements(),
        u64::from(prepared.interned().distinct_count()),
    );
    let mut judged: u128 = 0;
    let mut steps: u128 = 0;
    for &i in unit.config_indices() {
        judged += u128::from(certs[i].judged_steps().midpoint());
        steps += u128::from(certs[i].steps().midpoint());
    }
    if steps == 0 {
        return window.saturating_add(compare);
    }
    // judged <= steps per certificate, so the scaled part never
    // exceeds the raw bound and the u128 product cannot overflow.
    let scaled = (u128::from(compare) * judged / steps) as u64;
    window.saturating_add(scaled)
}

/// Prepares several workloads in parallel (one thread each). `fuel`
/// caps every trace's length; pass `u64::MAX` for complete runs.
#[must_use]
pub fn prepare_all(
    workloads: &[Workload],
    scale: u32,
    mpls: &[u64],
    fuel: u64,
) -> Vec<PreparedWorkload> {
    let mut out: Vec<Option<PreparedWorkload>> = workloads.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, &w) in out.iter_mut().zip(workloads) {
            s.spawn(move || {
                *slot = Some(PreparedWorkload::prepare_with_fuel(w, scale, mpls, fuel));
            });
        }
    });
    out.into_iter().map(|o| o.expect("slot filled")).collect()
}

/// The MPL-independent outcome of running one detector configuration
/// over one trace: the detected phase intervals, both as detected and
/// with anchored (retroactive) starts.
#[derive(Debug, Clone)]
pub struct ConfigRun {
    /// The configuration that produced this run.
    pub config: DetectorConfig,
    /// Phases with detection-point starts.
    pub detected: Vec<PhaseInterval>,
    /// Phases with anchored starts (Figure 8).
    pub anchored: Vec<PhaseInterval>,
}

impl ConfigRun {
    /// Scores this run against an oracle, using detection-point
    /// boundaries.
    #[must_use]
    pub fn score(&self, oracle: &BaselineSolution) -> AccuracyScore {
        score_intervals(&self.detected, oracle)
    }

    /// Scores this run using anchored phase-start boundaries.
    #[must_use]
    pub fn anchored_score(&self, oracle: &BaselineSolution) -> AccuracyScore {
        score_intervals(&self.anchored, oracle)
    }
}

/// Runs one detector over a prepared trace. The detector run itself
/// allocates nothing per element: phases accumulate in the detector
/// and the interval views are built once at the end.
#[must_use]
pub fn run_detector(config: DetectorConfig, trace: &InternedTrace) -> ConfigRun {
    let mut detector = PhaseDetector::new(config);
    let _ = detector.run_interned_phases_only(trace);
    config_run(config, &detector.take_phases(), trace.len() as u64)
}

/// Builds interval views from one config's detected phases.
pub(crate) fn config_run(
    config: DetectorConfig,
    phases: &[DetectedPhase],
    total: u64,
) -> ConfigRun {
    ConfigRun {
        config,
        detected: detected_intervals(phases, total),
        anchored: anchored_intervals(phases, total),
    }
}

/// Runs many configurations over one prepared workload through the
/// [`SweepEngine`] (same-shape Constant-TW configs share one trace
/// scan), spreading engine units over `threads` threads. Results are
/// in `configs` order and bit-identical to sequential
/// [`run_detector`] calls.
#[must_use]
pub fn sweep(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    threads: usize,
) -> Vec<ConfigRun> {
    let mut per_workload = sweep_many(std::slice::from_ref(prepared), configs, threads);
    per_workload.pop().expect("one workload in, one out")
}

/// Runs many configurations over many prepared workloads, distributing
/// `(workload × engine unit)` work items over `threads` threads.
/// Returns one `configs`-ordered vector per workload, in `prepared`
/// order.
#[must_use]
pub fn sweep_many(
    prepared: &[PreparedWorkload],
    configs: &[DetectorConfig],
    threads: usize,
) -> Vec<Vec<ConfigRun>> {
    sweep_many_with(prepared, configs, threads, |_, _, run| run)
}

/// [`sweep_many`] with every run reduced inside the worker that
/// produced it: `reduce(workload, config_index, run)` typically scores
/// the run against the workload's oracles, so its phase intervals are
/// dropped at once instead of being held for the whole sweep. Each `(workload, unit)` item is priced by the
/// static window-maintenance and comparison-op bounds of the unit's
/// members, with the comparison part scaled by a judged-step density:
/// the certificate midpoints when every member certifies
/// non-vacuously (the normal case), else the measured probe density.
#[must_use]
pub fn sweep_many_with<T, R>(
    prepared: &[PreparedWorkload],
    configs: &[DetectorConfig],
    threads: usize,
    reduce: R,
) -> Vec<Vec<T>>
where
    T: Send,
    R: Fn(&PreparedWorkload, usize, ConfigRun) -> T + Sync,
{
    let engine = SweepEngine::new(configs);
    let mut prices = Vec::with_capacity(prepared.len() * engine.units().len());
    for p in prepared {
        let certs = p.certificates(configs);
        prices.extend(engine.units().iter().map(|unit| match &certs {
            Some(certs) => certified_unit_cost(configs, unit, p, certs),
            None => calibrated_unit_cost(configs, unit, p),
        }));
    }
    sweep_priced(prepared, &engine, &prices, threads, reduce)
}

/// The sweep body, on caller-supplied LPT prices: one per `(workload,
/// unit)` item, workload-major. Workers claim the next item, heaviest
/// first, from a shared atomic cursor, so a worker that drew cheap
/// items keeps claiming instead of idling behind a static bucket. Each
/// worker fills only its own local results and carries a
/// [`SweepScratch`] reused across its units; the locals merge into
/// keyed slots after the join. Prices therefore steer the claim order
/// only: results never depend on them or on the thread count.
///
/// # Panics
///
/// Panics if `prices` does not hold one price per item.
#[must_use]
pub fn sweep_priced<T, R>(
    prepared: &[PreparedWorkload],
    engine: &SweepEngine<'_>,
    prices: &[u64],
    threads: usize,
    reduce: R,
) -> Vec<Vec<T>>
where
    T: Send,
    R: Fn(&PreparedWorkload, usize, ConfigRun) -> T + Sync,
{
    let units = engine.units().len();
    assert_eq!(prices.len(), prepared.len() * units, "one price per item");
    let order = lpt_order(prices);
    let configs = engine.configs();
    // Pre-size every worker's detector site tables to the largest
    // static alphabet bound, so no unit run grows them mid-scan.
    let site_capacity = prepared
        .iter()
        .map(PreparedWorkload::site_capacity)
        .max()
        .unwrap_or(0);
    // `Relaxed` suffices: the cursor publishes no data (the RMW alone
    // makes each claim unique), and the join orders the merge.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut scratch = SweepScratch::with_site_capacity(site_capacity);
        let mut local = Vec::new();
        while let Some(&item) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let (wi, ui) = (item / units, item % units);
            let p = &prepared[wi];
            let total = p.interned().len() as u64;
            for (ci, phases) in engine.run_unit(ui, p.interned(), &mut scratch) {
                let run = config_run(configs[ci], &phases, total);
                local.push((wi, ci, reduce(p, ci, run)));
            }
        }
        local
    };
    let threads = threads.clamp(1, order.len().max(1));
    let filled: Vec<Vec<(usize, usize, T)>> = if threads == 1 {
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };

    let mut out: Vec<Vec<Option<T>>> = prepared
        .iter()
        .map(|_| configs.iter().map(|_| None).collect())
        .collect();
    for (wi, ci, value) in filled.into_iter().flatten() {
        out[wi][ci] = Some(value);
    }
    out.into_iter()
        .map(|w| {
            w.into_iter()
                .map(|o| o.expect("every (workload, config) cell filled"))
                .collect()
        })
        .collect()
}

/// Longest-processing-time-first order: item indices heaviest first,
/// index-stable among ties. [`sweep_many`] workers claim items in this
/// order.
fn lpt_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    order
}

/// Longest-processing-time-first planning: places each item (in the
/// order [`sweep_many`] workers claim them) onto the least-loaded
/// bucket. Returns the item
/// indices per bucket; the checkpointed and profiled sweeps schedule
/// from this static plan, and the scheduling regression tests measure
/// its load imbalance.
///
/// # Panics
///
/// Panics if `buckets` is zero.
#[must_use]
pub fn lpt_plan(costs: &[u64], buckets: usize) -> Vec<Vec<usize>> {
    assert!(buckets > 0, "at least one bucket");
    let mut plan: Vec<Vec<usize>> = vec![Vec::new(); buckets];
    let mut loads = vec![0u64; buckets];
    for i in lpt_order(costs) {
        let t = (0..buckets)
            .min_by_key(|&t| loads[t])
            .expect("at least one bucket");
        loads[t] = loads[t].saturating_add(costs[i]);
        plan[t].push(i);
    }
    plan
}

/// The best combined score among `runs` against one oracle.
#[must_use]
pub fn best_combined(runs: &[ConfigRun], oracle: &BaselineSolution) -> f64 {
    runs.iter()
        .map(|r| r.score(oracle).combined())
        .fold(0.0, f64::max)
}

/// A sensible default worker count: the machine's available
/// parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{policy_grid, TwKind};

    fn small_prepared() -> PreparedWorkload {
        PreparedWorkload::prepare_with_fuel(Workload::Lexgen, 1, &[1_000, 10_000], 60_000)
    }

    #[test]
    fn prepare_computes_oracles_per_mpl() {
        let p = small_prepared();
        assert_eq!(p.mpls(), vec![1_000, 10_000]);
        assert_eq!(p.total_elements(), 60_000);
        assert!(p.oracle(1_000).phase_count() >= p.oracle(10_000).phase_count());
        assert_eq!(p.stats().dynamic_branches, 60_000);
        assert_eq!(p.workload(), Workload::Lexgen);
    }

    #[test]
    fn static_analysis_rides_along_and_bounds_the_alphabet() {
        let p = small_prepared();
        assert!(p.analysis().is_clean());
        assert!(p.interned().distinct_count() as usize <= p.site_capacity());
        assert!(p.analysis().bounds().branches() >= p.total_elements());
    }

    #[test]
    fn probe_density_is_a_measured_fraction() {
        let p = small_prepared();
        let d = p.probe_density();
        assert!((0.0..=1.0).contains(&d), "{d}");
        // A real trace at 60k elements warms the probe's windows and
        // judges at least some steps.
        assert!(d > 0.0, "{d}");
    }

    #[test]
    #[should_panic(expected = "was not prepared")]
    fn missing_mpl_panics() {
        let p = small_prepared();
        let _ = p.oracle(77);
    }

    #[test]
    fn sweep_matches_sequential_runs() {
        let p = small_prepared();
        let configs = policy_grid(TwKind::Constant, 500);
        let parallel = sweep(&p, &configs, 4);
        let sequential: Vec<ConfigRun> = configs
            .iter()
            .map(|&c| run_detector(c, p.interned()))
            .collect();
        assert_eq!(parallel.len(), sequential.len());
        for (a, b) in parallel.iter().zip(&sequential) {
            assert_eq!(a.detected, b.detected);
            assert_eq!(a.anchored, b.anchored);
        }
    }

    #[test]
    fn scores_are_in_range() {
        let p = small_prepared();
        let configs = policy_grid(TwKind::Adaptive, 500);
        let runs = sweep(&p, &configs, 2);
        let oracle = p.oracle(1_000);
        for r in &runs {
            let s = r.score(oracle).combined();
            assert!((0.0..=1.0).contains(&s), "{s}");
            let a = r.anchored_score(oracle).combined();
            assert!((0.0..=1.0).contains(&a), "{a}");
        }
        assert!(best_combined(&runs, oracle) > 0.0);
    }

    #[test]
    fn sweep_many_matches_per_workload_sweeps() {
        let ws = [Workload::Lexgen, Workload::Blockcomp];
        let prepared = prepare_all(&ws, 1, &[1_000], 50_000);
        // A grid mixing shared-eligible and private configs.
        let mut configs = policy_grid(TwKind::Constant, 500);
        configs.extend(policy_grid(TwKind::Adaptive, 250));
        let many = sweep_many(&prepared, &configs, 3);
        assert_eq!(many.len(), prepared.len());
        for (p, runs) in prepared.iter().zip(&many) {
            assert_eq!(runs.len(), configs.len());
            for (run, &config) in runs.iter().zip(&configs) {
                let expected = run_detector(config, p.interned());
                assert_eq!(run.detected, expected.detected, "{config:?}");
                assert_eq!(run.anchored, expected.anchored, "{config:?}");
            }
        }
    }

    #[test]
    fn prepare_all_is_order_preserving() {
        let ws = [Workload::Lexgen, Workload::Blockcomp];
        let prepared = prepare_all(&ws, 1, &[10_000], 80_000);
        assert_eq!(prepared[0].workload(), Workload::Lexgen);
        assert_eq!(prepared[1].workload(), Workload::Blockcomp);
    }

    /// Per-bucket loads of `plan`, weighing item `i` by `weights[i]`.
    fn bucket_loads(plan: &[Vec<usize>], weights: &[u64]) -> Vec<u64> {
        plan.iter()
            .map(|bucket| bucket.iter().map(|&i| weights[i]).sum())
            .collect()
    }

    /// The heaviest bucket's excess over the mean bucket, as a ratio.
    fn max_over_mean(loads: &[u64]) -> f64 {
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        *loads.iter().max().unwrap() as f64 / mean
    }

    /// What each `(workload, unit)` item of `configs` really costs:
    /// metered comparison ops plus the static window-maintenance part.
    fn measured_costs(prepared: &[PreparedWorkload], configs: &[DetectorConfig]) -> Vec<u64> {
        let engine = SweepEngine::new(configs);
        let mut measured = Vec::new();
        for p in prepared {
            for (ui, unit) in engine.units().iter().enumerate() {
                let mut scratch = SweepScratch::with_site_capacity(p.site_capacity());
                let mut metrics = opd_obs::UnitMetrics::new();
                let _ = engine.run_unit_metered(ui, p.interned(), &mut scratch, &mut metrics);
                let (window, _) = opd_analyze::unit_cost_parts(
                    configs,
                    unit,
                    p.total_elements(),
                    u64::from(p.interned().distinct_count()),
                );
                measured.push(window + metrics.compare_ops);
            }
        }
        measured
    }

    /// Plans 4 buckets from `prices` and re-weighs them with what the
    /// items really cost: the heaviest bucket may exceed the mean by at
    /// most 20%, and the heaviest bucket of a plan built directly from
    /// the measured costs by at most 20% too.
    fn assert_prices_track_measured_load(prices: &[u64], measured: &[u64], what: &str) {
        let loads = bucket_loads(&lpt_plan(prices, 4), measured);
        let ratio = max_over_mean(&loads);
        assert!(
            ratio <= 1.20,
            "{what} LPT imbalance {:.1}% exceeds 20% (loads {loads:?})",
            (ratio - 1.0) * 100.0
        );
        let max = *loads.iter().max().unwrap() as f64;
        let ideal = bucket_loads(&lpt_plan(measured, 4), measured);
        let ideal_max = *ideal.iter().max().unwrap() as f64;
        assert!(
            max <= ideal_max * 1.20,
            "{what} plan max {max} vs measured-optimal max {ideal_max}"
        );
    }

    #[test]
    fn lpt_imbalance_stays_small_on_the_plan_grid() {
        // The static-cost LPT plan for (8 workloads × the 28-config
        // shared-scan grid) must spread load evenly: the heaviest
        // bucket may exceed the mean by at most 15%.
        let prepared = prepare_all(&Workload::ALL, 1, &[1_000], 60_000);
        let configs = crate::grid::default_plan_grid();
        let engine = SweepEngine::new(&configs);
        let mut costs = Vec::new();
        for p in &prepared {
            let (n, sites) = (p.total_elements(), p.site_capacity() as u64);
            for unit in engine.units() {
                costs.push(opd_analyze::unit_cost(&configs, unit, n, sites));
            }
        }
        assert_eq!(costs.len(), 8, "one shared unit per workload");
        let loads = bucket_loads(&lpt_plan(&costs, 4), &costs);
        let ratio = max_over_mean(&loads);
        assert!(
            ratio <= 1.15,
            "LPT imbalance {:.1}% exceeds 15% (loads {loads:?})",
            (ratio - 1.0) * 100.0
        );
    }

    #[test]
    fn calibrated_lpt_imbalance_stays_small_under_measured_load() {
        // Satellite check for the calibrated scheduler: plan from the
        // *calibrated* unit prices (static bounds × measured
        // judged-step density, measured alphabet) and re-weigh with
        // what the units actually cost. The uncalibrated static plan
        // fails this measure (BENCH_obs recorded 1.28 before
        // calibration).
        let prepared = prepare_all(&Workload::ALL, 1, &[1_000], 60_000);
        let configs = crate::grid::default_plan_grid();
        let engine = SweepEngine::new(&configs);
        let mut calibrated = Vec::new();
        for p in &prepared {
            for unit in engine.units() {
                calibrated.push(calibrated_unit_cost(&configs, unit, p));
            }
        }
        assert_eq!(calibrated.len(), 8, "one shared unit per workload");
        let measured = measured_costs(&prepared, &configs);
        assert_prices_track_measured_load(&calibrated, &measured, "calibrated");
    }

    #[test]
    fn certificates_issue_for_every_workload_and_price_the_sweep() {
        // Certificate-midpoint LPT pricing (the density the parallel
        // sweep claims by) must track the measured load as well as the
        // probe calibration does.
        let prepared = prepare_all(&Workload::ALL, 1, &[1_000], 60_000);
        let configs = crate::grid::default_plan_grid();
        let engine = SweepEngine::new(&configs);
        let mut certified = Vec::new();
        for p in &prepared {
            let certs = p
                .certificates(&configs)
                .expect("workload certificates are never vacuous");
            assert_eq!(certs.len(), configs.len());
            for cert in &certs {
                assert!(!cert.truncated() || p.fuel() < u64::MAX);
                assert!(cert.judged_steps().hi() <= cert.steps().hi());
            }
            for unit in engine.units() {
                certified.push(certified_unit_cost(&configs, unit, p, &certs));
            }
        }
        let measured = measured_costs(&prepared, &configs);
        assert_prices_track_measured_load(&certified, &measured, "certified");
    }

    #[test]
    fn lpt_plan_covers_every_item_once() {
        let costs = [5u64, 3, 8, 1, 1, 6];
        let plan = lpt_plan(&costs, 3);
        let mut seen: Vec<usize> = plan.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        // The heaviest item goes to an otherwise-light bucket: no
        // bucket holds both of the two heaviest items.
        for bucket in &plan {
            assert!(!(bucket.contains(&2) && bucket.contains(&5)));
        }
    }

    #[test]
    fn detected_and_anchored_differ_for_adaptive() {
        let p = small_prepared();
        let cfg = policy_grid(TwKind::Adaptive, 500)[0];
        let run = run_detector(cfg, p.interned());
        if !run.detected.is_empty() {
            // Anchored starts never come after detected starts.
            for (d, a) in run.detected.iter().zip(&run.anchored) {
                assert!(a.start() <= d.start());
            }
        }
    }
}
