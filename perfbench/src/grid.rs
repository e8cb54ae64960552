//! `grid`: the full 13,230-config grid on the first 100,000 elements of
//! `ruleng`'s trace, scored against the six Table-1 MPL oracles with the
//! top-10 tables rendered, as the `sweep` binary does. Bound by the
//! window kernel. (The full 429,025-element trace takes ~10 s a sample
//! on a 2-core box, too few samples per run for a steady median.)
//!
//! The traced run re-enacts `PreparedWorkload::prepare` and the
//! `sweep_many` unit loop from their public pieces, timing each call
//! from outside, and checks by digest that the re-enactment produced
//! the same interned trace, oracles and runs.

use std::hint::black_box;
use std::time::Instant;

use opd_analyze::{AbsInt, Analysis};
use opd_baseline::CallLoopForest;
use opd_core::{
    anchored_intervals, detected_intervals, DetectorConfig, InternedTrace, PhaseDetector,
    SweepEngine, SweepScratch,
};
use opd_experiments::grid::{full_grid, MPLS_TABLE1};
use opd_experiments::report::{fmt_mpl, fmt_score, Table};
use opd_experiments::runner::{
    calibrated_unit_cost, certified_unit_cost, lpt_plan, sweep_many, ConfigRun, PreparedWorkload,
};
use opd_microvm::workloads::Workload;
use opd_obs::{MeterObserver, UnitMetrics};
use opd_trace::{ExecutionTrace, TraceStats};

use crate::out::Obj;
use crate::{
    for_seconds, process_cpu_s, secs, timed, Args, Checks, Digest, Layers, Samples, THREADS,
};

const WORKLOAD: Workload = Workload::Ruleng;
/// Interpreter fuel: the trace's length in branches.
const FUEL: u64 = 100_000;
const TINY_FUEL: u64 = 5_000;

/// Combined score of every run against each Table-1 oracle, per MPL.
fn score_all(prepared: &PreparedWorkload, runs: &[ConfigRun]) -> Vec<Vec<f64>> {
    MPLS_TABLE1
        .iter()
        .map(|&mpl| {
            let oracle = prepared.oracle(mpl);
            runs.iter().map(|r| r.score(oracle).combined()).collect()
        })
        .collect()
}

/// The ten most accurate detectors per MPL, rendered as the `sweep`
/// binary prints them.
fn render(runs: &[ConfigRun], scores: &[Vec<f64>]) -> String {
    let mut text = String::new();
    for (&mpl, scores) in MPLS_TABLE1.iter().zip(scores) {
        let mut scored: Vec<(f64, String)> = scores
            .iter()
            .zip(runs)
            .map(|(&s, r)| (s, r.config.to_string()))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut t = Table::new(
            &format!("Top detectors for {WORKLOAD}, MPL {}", fmt_mpl(mpl)),
            &["Score", "Configuration"],
        );
        for (score, config) in scored.into_iter().take(10) {
            t.row(vec![fmt_score(score), config]);
        }
        text.push_str(&format!("{t}\n"));
    }
    text
}

/// Digest of every run's detected and anchored intervals.
fn runs_digest(runs: &[ConfigRun]) -> Digest {
    let mut d = Digest::default();
    for r in runs {
        for intervals in [&r.detected, &r.anchored] {
            d.word(intervals.len() as u64);
            for i in intervals.iter() {
                d.word(i.start());
                d.word(i.end());
            }
        }
    }
    d
}

fn output_digest(runs: &[ConfigRun], text: &str) -> String {
    let mut d = runs_digest(runs);
    d.bytes(text.as_bytes());
    d.hex()
}

/// The untraced sample: sweep, score, render.
fn sample(prepared: &PreparedWorkload, configs: &[DetectorConfig]) -> (Vec<ConfigRun>, String) {
    let runs = sweep_many(std::slice::from_ref(prepared), configs, THREADS)
        .pop()
        .expect("one workload in, one out");
    let scores = score_all(prepared, &runs);
    let text = render(&runs, &scores);
    (runs, text)
}

pub fn run(args: &Args, obj: &mut Obj) -> Result<(), String> {
    let fuel = if args.tiny { TINY_FUEL } else { FUEL };
    let set_up = || timed(|| PreparedWorkload::prepare_with_fuel(WORKLOAD, 1, &MPLS_TABLE1, fuel));
    let configs = full_grid();
    let (prepared, _) = set_up();
    let steps = configs.len() as f64 * prepared.total_elements() as f64;
    let ((runs, text), warmup_s) = timed(|| sample(&prepared, &configs));
    let warm = output_digest(&runs, &text);
    drop(runs);

    let mut samples = Samples::default();
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    for_seconds(args.seconds, || {
        let (prepared, setup) = set_up();
        let cpu = process_cpu_s();
        let ((runs, text), wall) = timed(|| sample(&prepared, &configs));
        let cpu = process_cpu_s() - cpu;
        let digest = output_digest(&runs, &text);
        let runs_only = runs_digest(&runs).hex();
        drop(runs);
        samples.push(setup, wall, steps, 0.0, digest.clone());
        if args.trace {
            layers.push("runner.cores_busy", cpu / wall);
            reenact_prepare(&prepared, fuel, &mut layers, &mut checks);
            let (traced, traced_wall) = traced_sample(&prepared, &configs, &mut layers);
            layers.push("tracing.overhead_s", traced_wall - wall);
            checks.record("fidelity.runs", traced == digest);
            let metered = metered_sweep(&prepared, &configs, &mut layers);
            checks.record("fidelity.metered_runs", metered == runs_only);
        }
        Ok(())
    })?;

    checks.record("warmup_output", warm == samples.first_digest());
    obj.num("warmup_s", warmup_s);
    samples.write(obj);
    obj.str("work_unit", "config_steps");
    obj.int("configs", configs.len() as u64);
    obj.int("trace_elements", prepared.total_elements());
    obj.obj("checks", checks.finish());
    if args.trace {
        obj.obj("layers", layers.finish());
    }
    Ok(())
}

/// `PreparedWorkload::prepare`'s steps, called in its order through the
/// same public pieces and timed one by one.
fn reenact_prepare(
    prepared: &PreparedWorkload,
    fuel: u64,
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let program = WORKLOAD.program(1);
    let ((analysis, _absint), s) = timed(|| (Analysis::of(&program), AbsInt::of(&program)));
    layers.push("analyze.static_s", s);
    let (trace, s) = timed(|| {
        let mut trace = ExecutionTrace::new();
        opd_microvm::Interpreter::new(&program, WORKLOAD.default_seed())
            .with_fuel(fuel)
            .run(&mut trace)
            .expect("workload programs terminate");
        trace
    });
    layers.push("microvm.interpret_s", s);
    black_box(TraceStats::measure(&trace));
    let (forest, s) =
        timed(|| CallLoopForest::build(&trace).expect("workload traces are well nested"));
    layers.push("baseline.forest_s", s);
    let (oracles, s) = timed(|| MPLS_TABLE1.map(|mpl| forest.solve(mpl)));
    layers.push("baseline.solve_s", s);
    layers.push("baseline.solves", oracles.len() as f64);
    let (interned, s) = timed(|| {
        InternedTrace::from_elements_with_capacity(
            trace.branches().iter().copied(),
            analysis.flow().alphabet_bound() as usize,
        )
    });
    layers.push("core.intern_s", s);
    let (_, s) = timed(|| {
        let probe = DetectorConfig::builder()
            .current_window(500)
            .build()
            .expect("probe config is valid");
        let mut meter = MeterObserver::new();
        black_box(PhaseDetector::new(probe).run_interned_phases_observed(&interned, &mut meter));
    });
    layers.push("core.probe_s", s);

    let ids = |ids: &[u32]| {
        let mut d = Digest::default();
        ids.iter().for_each(|&id| d.word(u64::from(id)));
        d.hex()
    };
    checks.record(
        "fidelity.interned",
        ids(interned.ids()) == ids(prepared.interned().ids()),
    );
    let oracle_digest = |phases: &mut dyn Iterator<Item = &[opd_trace::PhaseInterval]>| {
        let mut d = Digest::default();
        for p in phases {
            d.word(p.len() as u64);
            p.iter().for_each(|i| {
                d.word(i.start());
                d.word(i.end());
            });
        }
        d.hex()
    };
    checks.record(
        "fidelity.oracles",
        oracle_digest(&mut oracles.iter().map(|o| o.phases()))
            == oracle_digest(&mut MPLS_TABLE1.iter().map(|&m| prepared.oracle(m).phases())),
    );
}

/// The LPT plan `sweep_many` schedules one workload's units by, with
/// the seconds spent issuing the certificates that price the units.
fn unit_plan(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    engine: &SweepEngine<'_>,
) -> (Vec<Vec<usize>>, f64) {
    let (certs, cert_s) = timed(|| prepared.certificates(configs));
    let costs: Vec<u64> = engine
        .units()
        .iter()
        .map(|unit| match &certs {
            Some(certs) => certified_unit_cost(configs, unit, prepared, certs),
            None => calibrated_unit_cost(configs, unit, prepared),
        })
        .collect();
    (lpt_plan(&costs, THREADS), cert_s)
}

/// Runs every bucket of `plan` on its own thread through `run_unit`,
/// returning `configs`-ordered runs and each bucket's busy seconds.
fn run_plan(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    plan: &[Vec<usize>],
    run_unit: impl Fn(usize, &mut SweepScratch) -> Vec<(usize, Vec<opd_core::DetectedPhase>)> + Sync,
) -> (Vec<ConfigRun>, Vec<f64>) {
    let total = prepared.interned().len() as u64;
    let run_unit = &run_unit;
    let buckets: Vec<(Vec<(usize, ConfigRun)>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|bucket| {
                s.spawn(move || {
                    let mut scratch = SweepScratch::with_site_capacity(prepared.site_capacity());
                    let (mut local, mut busy) = (Vec::new(), 0.0);
                    for &unit in bucket {
                        let (results, s) = timed(|| run_unit(unit, &mut scratch));
                        busy += s;
                        for (ci, phases) in results {
                            let run = ConfigRun {
                                config: configs[ci],
                                detected: detected_intervals(&phases, total),
                                anchored: anchored_intervals(&phases, total),
                            };
                            local.push((ci, run));
                        }
                    }
                    (local, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut runs: Vec<Option<ConfigRun>> = configs.iter().map(|_| None).collect();
    let mut busy = Vec::new();
    for (local, b) in buckets {
        busy.push(b);
        for (ci, run) in local {
            runs[ci] = Some(run);
        }
    }
    let runs = runs
        .into_iter()
        .map(|r| r.expect("every config planned"))
        .collect();
    (runs, busy)
}

/// The traced sample: the unit loop re-enacted with `lpt_plan`, then
/// scoring and rendering, each timed. Returns the output digest and the
/// sample's wall time.
fn traced_sample(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    layers: &mut Layers,
) -> (String, f64) {
    let started = Instant::now();
    let engine = SweepEngine::new(configs);
    let (plan, cert_s) = unit_plan(prepared, configs, &engine);
    layers.push("analyze.cert_s", cert_s);
    let loop_started = Instant::now();
    let (runs, busy) = run_plan(prepared, configs, &plan, |unit, scratch| {
        engine.run_unit(unit, prepared.interned(), scratch)
    });
    let loop_wall = secs(loop_started);
    let (scores, s) = timed(|| score_all(prepared, &runs));
    layers.push("scoring.busy_s", s);
    layers.push("scoring.calls", (scores.len() * runs.len()) as f64);
    let (text, s) = timed(|| render(&runs, &scores));
    layers.push("report.render_s", s);
    let wall = secs(started);

    let busy_s: f64 = busy.iter().sum();
    let mean = busy_s / busy.len() as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    layers.push("core.sweep.busy_s", busy_s);
    layers.push("core.sweep.units", engine.units().len() as f64);
    layers.push(
        "core.sweep.configs_per_unit",
        configs.len() as f64 / engine.total_scans() as f64,
    );
    layers.push(
        "runner.lpt_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
    );
    layers.push(
        "runner.idle_s",
        busy.iter().map(|b| loop_wall - b).sum::<f64>(),
    );
    (output_digest(&runs, &text), wall)
}

/// The unit loop once more through `run_unit_metered`, for exact
/// judged-step and comparison-op counts. Returns the runs' digest.
fn metered_sweep(
    prepared: &PreparedWorkload,
    configs: &[DetectorConfig],
    layers: &mut Layers,
) -> String {
    let engine = SweepEngine::new(configs);
    let (plan, _) = unit_plan(prepared, configs, &engine);
    let metrics = std::sync::Mutex::new(UnitMetrics::new());
    let (runs, _) = run_plan(prepared, configs, &plan, |unit, scratch| {
        let mut m = UnitMetrics::new();
        let results = engine.run_unit_metered(unit, prepared.interned(), scratch, &mut m);
        metrics.lock().expect("no panics while metering").merge(&m);
        results
    });
    let m = metrics.into_inner().expect("no panics while metering");
    layers.push("core.sweep.judged_steps", m.judged_steps as f64);
    layers.push("core.sweep.compare_ops", m.compare_ops as f64);
    runs_digest(&runs).hex()
}
