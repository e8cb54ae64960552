//! Component throughput: detector element rate per model and window
//! policy, baseline forest construction and MPL solving, and the
//! scoring metric.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use opd_baseline::CallLoopForest;
use opd_core::{
    AnalyzerPolicy, DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector, TwPolicy,
};
use opd_microvm::workloads::Workload;
use opd_microvm::Interpreter;
use opd_scoring::score_intervals;
use opd_trace::ExecutionTrace;

const TRACE_LEN: u64 = 50_000;

fn truncated_trace(w: Workload) -> ExecutionTrace {
    let program = w.program(1);
    let mut trace = ExecutionTrace::new();
    Interpreter::new(&program, w.default_seed())
        .with_fuel(TRACE_LEN)
        .run(&mut trace)
        .expect("workloads terminate");
    trace
}

fn bench_detector(c: &mut Criterion) {
    let trace = truncated_trace(Workload::Ruleng);
    let interned = InternedTrace::from(trace.branches());
    let mut group = c.benchmark_group("detector");
    group.throughput(Throughput::Elements(TRACE_LEN));
    for (name, model, tw) in [
        (
            "unweighted_constant",
            ModelPolicy::UnweightedSet,
            TwPolicy::Constant,
        ),
        (
            "weighted_constant",
            ModelPolicy::WeightedSet,
            TwPolicy::Constant,
        ),
        (
            "unweighted_adaptive",
            ModelPolicy::UnweightedSet,
            TwPolicy::Adaptive,
        ),
        (
            "weighted_adaptive",
            ModelPolicy::WeightedSet,
            TwPolicy::Adaptive,
        ),
    ] {
        let config = DetectorConfig::builder()
            .current_window(1_000)
            .tw_policy(tw)
            .model(model)
            .analyzer(AnalyzerPolicy::Threshold(0.6))
            .build()
            .expect("valid config");
        group.bench_function(name, |b| {
            b.iter_batched(
                || PhaseDetector::new(config),
                |mut d| black_box(d.run_interned(&interned)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_interning(c: &mut Criterion) {
    let trace = truncated_trace(Workload::Ruleng);
    let mut group = c.benchmark_group("interning");
    group.throughput(Throughput::Elements(TRACE_LEN));
    group.bench_function("intern_trace", |b| {
        b.iter(|| black_box(InternedTrace::from(trace.branches())));
    });
    group.finish();
}

fn bench_baseline(c: &mut Criterion) {
    let trace = truncated_trace(Workload::Srccomp);
    let mut group = c.benchmark_group("baseline");
    group.throughput(Throughput::Elements(TRACE_LEN));
    group.bench_function("forest_build", |b| {
        b.iter(|| black_box(CallLoopForest::build(&trace).expect("well nested")));
    });
    let forest = CallLoopForest::build(&trace).expect("well nested");
    group.bench_function("solve_mpl_1k", |b| {
        b.iter(|| black_box(forest.solve(1_000)));
    });
    group.bench_function("solve_mpl_100k", |b| {
        b.iter(|| black_box(forest.solve(100_000)));
    });
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let trace = truncated_trace(Workload::Audiodec);
    let forest = CallLoopForest::build(&trace).expect("well nested");
    let oracle = forest.solve(1_000);
    let interned = InternedTrace::from(trace.branches());
    let config = DetectorConfig::builder()
        .current_window(500)
        .build()
        .expect("valid");
    let mut detector = PhaseDetector::new(config);
    let _ = detector.run_interned(&interned);
    let detected = opd_core::detected_intervals(detector.detected_phases(), TRACE_LEN);
    let mut group = c.benchmark_group("scoring");
    group.bench_function("score_intervals", |b| {
        b.iter(|| black_box(score_intervals(&detected, &oracle)));
    });
    group.finish();
}

fn bench_detector_per_workload(c: &mut Criterion) {
    // The default detector across every workload's first 50K branches:
    // how trace character (working-set size, phase churn) moves the
    // per-element cost.
    let config = DetectorConfig::builder()
        .current_window(1_000)
        .build()
        .expect("valid config");
    let mut group = c.benchmark_group("detector_per_workload");
    group.throughput(Throughput::Elements(TRACE_LEN));
    for w in Workload::ALL {
        let trace = truncated_trace(w);
        let interned = InternedTrace::from(trace.branches());
        group.bench_function(w.name(), |b| {
            b.iter_batched(
                || PhaseDetector::new(config),
                |mut d| black_box(d.run_interned(&interned)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_microvm(c: &mut Criterion) {
    let mut group = c.benchmark_group("microvm");
    group.throughput(Throughput::Elements(TRACE_LEN));
    group.bench_function("interpret_ruleng", |b| {
        b.iter(|| black_box(truncated_trace(Workload::Ruleng)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_detector,
    bench_interning,
    bench_baseline,
    bench_scoring,
    bench_detector_per_workload,
    bench_microvm
);
criterion_main!(benches);
