//! The committed `BENCH_kernel.json` artifact: structural validity,
//! the kernel-rewrite acceptance lines on the median of the recorded
//! samples (full-grid sweep under budget and at least the minimum
//! speedup over the pre-rewrite baseline, identical results in every
//! sample), and freshness of every deterministic field — the grid size
//! and trace shape are regenerated and must match exactly (only the
//! wall-clock timings are machine-dependent).

mod common;

use common::{parse_json, Json};

use opd_experiments::grid::full_grid;
use opd_experiments::kernel_bench::{
    BASELINE_SWEEP_SECONDS, KERNEL_SAMPLES, MIN_BASELINE_SPEEDUP, SWAR_BUDGET_SECONDS,
};
use opd_experiments::runner::PreparedWorkload;
use opd_microvm::workloads::Workload;

fn committed() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_kernel.json"))
        .expect("BENCH_kernel.json is committed at the repository root");
    parse_json(&text).expect("BENCH_kernel.json parses as one JSON document")
}

#[test]
fn committed_artifact_meets_the_acceptance_lines() {
    let doc = committed();
    assert_eq!(doc.get("schema").str(), "opd-bench-kernel-v2");
    assert_eq!(doc.get("workload").str(), "ruleng");
    assert_eq!(
        doc.get("baseline_sweep_seconds").num(),
        BASELINE_SWEEP_SECONDS
    );
    assert!(doc.get("threads").as_u64() >= 1);

    // The summary must be the recorded samples' own, not hand-edited
    // numbers (three decimals of rounding slack).
    let sweep = doc.get("sweep_seconds");
    let mut samples: Vec<f64> = sweep.get("samples").arr().iter().map(Json::num).collect();
    assert_eq!(samples.len(), KERNEL_SAMPLES);
    assert!(samples.iter().all(|&s| s > 0.0));
    samples.sort_by(f64::total_cmp);
    let median = sweep.get("median").num();
    assert!((sweep.get("min").num() - samples[0]).abs() < 1e-3);
    // An odd sample count: the median is the middle sample.
    assert!((median - samples[KERNEL_SAMPLES / 2]).abs() < 1e-3);
    assert!((sweep.get("max").num() - samples[KERNEL_SAMPLES - 1]).abs() < 1e-3);

    assert!(
        median < SWAR_BUDGET_SECONDS,
        "recorded median sweep {median:.1}s exceeds the {SWAR_BUDGET_SECONDS:.0}s budget; \
         regenerate with `cargo run --release -p opd-experiments --bin sweep -- --write-bench`"
    );
    let speedup = doc.get("speedup_vs_baseline").num();
    assert!(
        speedup >= MIN_BASELINE_SPEEDUP,
        "recorded median speedup {speedup:.2}x is below the {MIN_BASELINE_SPEEDUP:.0}x line"
    );
    // The recorded speedup must be the recorded division, not a
    // hand-edited number (two decimals of rounding slack).
    assert!((speedup - BASELINE_SWEEP_SECONDS / median).abs() < 0.01);

    assert!(
        doc.get("samples_identical").boolean(),
        "the committed benchmark saw repeated sweeps diverge"
    );
}

#[test]
fn committed_artifact_is_fresh_for_the_current_grid_and_workload() {
    // Regenerate the deterministic fields: the swept grid and the
    // benchmark trace must be the ones the committed timings measured.
    let doc = committed();
    assert_eq!(doc.get("grid_configs").as_u64(), full_grid().len() as u64);
    let scale = doc.get("scale").as_u64() as u32;
    let prepared = PreparedWorkload::prepare(Workload::Ruleng, scale, &[]);
    assert_eq!(
        doc.get("trace_elements").as_u64(),
        prepared.total_elements(),
        "stale trace_elements; regenerate with \
         `cargo run --release -p opd-experiments --bin sweep -- --write-bench`"
    );
    assert_eq!(
        doc.get("trace_distinct").as_u64(),
        u64::from(prepared.interned().distinct_count())
    );
}
