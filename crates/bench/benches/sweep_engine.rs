//! Sweep engine: naive per-config scans versus the single-pass
//! shared-window engine, on a same-shape Constant-TW grid.
//!
//! Besides the Criterion report, the bench records a machine-readable
//! summary (median times and the speedup) in `BENCH_sweep.json` at the
//! repository root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use opd_core::{DetectorConfig, InternedTrace, PhaseDetector, SweepEngine};
use opd_experiments::grid::default_plan_grid;
use opd_microvm::workloads::Workload;
use opd_microvm::Interpreter;
use opd_trace::ExecutionTrace;

const TRACE_LEN: u64 = 60_000;
const CW: usize = 500;
const JSON_SAMPLES: usize = 7;

fn lexgen_trace() -> InternedTrace {
    let program = Workload::Lexgen.program(1);
    let mut trace = ExecutionTrace::new();
    Interpreter::new(&program, Workload::Lexgen.default_seed())
        .with_fuel(TRACE_LEN)
        .run(&mut trace)
        .expect("workloads terminate");
    InternedTrace::from(trace.branches())
}

fn naive_pass(configs: &[DetectorConfig], trace: &InternedTrace) -> usize {
    let mut phases = 0;
    for &config in configs {
        let mut detector = PhaseDetector::new(config);
        phases += detector.run_interned_phases_only(trace).len();
    }
    phases
}

fn engine_pass(engine: &SweepEngine<'_>, trace: &InternedTrace) -> usize {
    engine.run_all(trace).iter().map(Vec::len).sum()
}

fn median_millis(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..JSON_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

fn write_summary(configs: usize, trace_len: usize, naive_ms: f64, engine_ms: f64) {
    let speedup = naive_ms / engine_ms;
    let json = format!(
        "{{\n  \"schema\": \"opd-bench-sweep-v1\",\n  \"bench\": \"sweep_engine\",\n  \"workload\": \"lexgen\",\n  \"trace_len\": {trace_len},\n  \"configs\": {configs},\n  \"shape\": {{ \"cw\": {CW}, \"tw\": {CW}, \"skip\": 1 }},\n  \"scans\": {{ \"naive\": {configs}, \"engine\": 1 }},\n  \"samples\": {JSON_SAMPLES},\n  \"naive_ms\": {naive_ms:.3},\n  \"engine_ms\": {engine_ms:.3},\n  \"speedup\": {speedup:.2}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, &json).expect("write BENCH_sweep.json");
    println!("sweep_engine: naive {naive_ms:.1} ms, engine {engine_ms:.1} ms, speedup {speedup:.2}x -> {path}");
}

fn bench_sweep_engine(c: &mut Criterion) {
    let trace = lexgen_trace();
    // 28 Constant-TW configs, all with shape (500, 500, 1) — the same
    // grid `opd plan` analyzes by default.
    let configs = default_plan_grid();
    assert!(configs.len() >= 28, "grid too small: {}", configs.len());
    let engine = SweepEngine::new(&configs);
    assert_eq!(engine.total_scans(), 1, "grid must share one scan");
    // Both passes must agree before being compared for speed.
    assert_eq!(naive_pass(&configs, &trace), engine_pass(&engine, &trace));

    let mut group = c.benchmark_group("sweep_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TRACE_LEN * configs.len() as u64));
    group.bench_function("naive_28_configs", |b| {
        b.iter(|| black_box(naive_pass(&configs, &trace)));
    });
    group.bench_function("shared_pass_28_configs", |b| {
        b.iter(|| black_box(engine_pass(&engine, &trace)));
    });
    group.finish();

    let naive_ms = median_millis(|| {
        black_box(naive_pass(&configs, &trace));
    });
    let engine_ms = median_millis(|| {
        black_box(engine_pass(&engine, &trace));
    });
    write_summary(configs.len(), trace.len(), naive_ms, engine_ms);
}

criterion_group!(benches, bench_sweep_engine);
criterion_main!(benches);
