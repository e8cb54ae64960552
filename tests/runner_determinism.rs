//! Thread-count independence of the sweep: results, in-worker scores
//! and the deterministic BENCH-artifact fields must be bit-identical
//! across `--threads 1`, `2`, and `8`. This is the regression test
//! backing the claim the concurrency audit verifies in the model —
//! workers claim each `(workload, unit)` item exactly once from the
//! shared cursor, keep their results local, and every item's content
//! depends only on its inputs, so neither the thread count nor the
//! claim order (the LPT prices) can leak into the output.

use opd_core::{DetectorConfig, SweepEngine};
use opd_experiments::checkpoint::{run_fingerprint, sweep_many_checkpointed};
use opd_experiments::grid::{policy_grid, TwKind};
use opd_experiments::obs::sweep_many_profiled;
use opd_experiments::runner::{
    calibrated_unit_cost, prepare_all, sweep_many, sweep_many_with, sweep_priced, ConfigRun,
};
use opd_microvm::workloads::Workload;

const THREADS: [usize; 3] = [1, 2, 8];

fn grid() -> Vec<DetectorConfig> {
    // Mixes shared-eligible Constant-TW configs with private adaptive
    // ones, so both engine paths cross thread boundaries.
    let mut configs = policy_grid(TwKind::Constant, 500);
    configs.extend(policy_grid(TwKind::Adaptive, 250));
    configs
}

fn assert_runs_identical(a: &[Vec<ConfigRun>], b: &[Vec<ConfigRun>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: workload count");
    for (wa, wb) in a.iter().zip(b) {
        assert_eq!(wa.len(), wb.len(), "{what}: config count");
        for (ra, rb) in wa.iter().zip(wb) {
            assert_eq!(ra.detected, rb.detected, "{what}: {:?}", ra.config);
            assert_eq!(ra.anchored, rb.anchored, "{what}: {:?}", ra.config);
        }
    }
}

#[test]
fn sweep_results_are_bit_identical_across_thread_counts() {
    let ws = [Workload::Lexgen, Workload::Blockcomp];
    let prepared = prepare_all(&ws, 1, &[1_000], 50_000);
    let configs = grid();
    let baseline = sweep_many(&prepared, &configs, THREADS[0]);
    for &threads in &THREADS[1..] {
        let runs = sweep_many(&prepared, &configs, threads);
        assert_runs_identical(&baseline, &runs, &format!("threads={threads}"));
    }
}

#[test]
fn in_worker_scores_are_bit_identical_across_thread_counts() {
    // The scored path every paper artifact runs on: each run reduced
    // to its score bits at two MPLs, inside the worker.
    let ws = [Workload::Lexgen, Workload::Blockcomp];
    let mpls = [1_000, 10_000];
    let prepared = prepare_all(&ws, 1, &mpls, 50_000);
    let configs = grid();
    let scored = |threads| {
        sweep_many_with(&prepared, &configs, threads, |p, _, run| {
            mpls.map(|mpl| {
                let oracle = p.oracle(mpl);
                let detected = run.score(oracle).combined().to_bits();
                (detected, run.anchored_score(oracle).combined().to_bits())
            })
        })
    };
    let baseline = scored(THREADS[0]);
    // In-worker scoring must agree with scoring the kept runs.
    let runs = sweep_many(&prepared, &configs, 2);
    for ((p, scores), runs) in prepared.iter().zip(&baseline).zip(&runs) {
        for (s, run) in scores.iter().zip(runs) {
            assert_eq!(s[0].0, run.score(p.oracle(1_000)).combined().to_bits());
        }
    }
    for &threads in &THREADS[1..] {
        assert_eq!(
            scored(threads),
            baseline,
            "threads={threads}: scores drifted"
        );
    }
}

#[test]
fn mispriced_claim_order_changes_speed_only() {
    // Deliberately wrong LPT prices — the calibrated prices inverted,
    // so workers claim the cheapest items first — must reorder the
    // claims without changing a single result, at any thread count.
    let ws = [Workload::Lexgen, Workload::Blockcomp];
    let prepared = prepare_all(&ws, 1, &[1_000], 50_000);
    let configs = grid();
    let engine = SweepEngine::new(&configs);
    let inverted: Vec<u64> = prepared
        .iter()
        .flat_map(|p| {
            engine
                .units()
                .iter()
                .map(|unit| u64::MAX - calibrated_unit_cost(&configs, unit, p))
        })
        .collect();
    assert!(inverted.len() > 2, "the grid spreads over several items");
    let baseline = sweep_many(&prepared, &configs, 1);
    for &threads in &THREADS {
        let runs = sweep_priced(&prepared, &engine, &inverted, threads, |_, _, run| run);
        assert_runs_identical(&baseline, &runs, &format!("mispriced threads={threads}"));
    }
}

#[test]
fn profiled_sweep_artifact_fields_are_thread_count_independent() {
    // The deterministic BENCH_obs.json fields: per-bucket and total
    // counters must not depend on which worker ran which bucket.
    let ws = [Workload::Lexgen];
    let prepared = prepare_all(&ws, 1, &[1_000], 50_000);
    let configs = grid();
    let (base_runs, base_profile) = sweep_many_profiled(&prepared, &configs, THREADS[0]);
    for &threads in &THREADS[1..] {
        let (runs, profile) = sweep_many_profiled(&prepared, &configs, threads);
        assert_runs_identical(&base_runs, &runs, &format!("profiled threads={threads}"));
        assert_eq!(profile.buckets.len(), base_profile.buckets.len());
        for (b, base) in profile.buckets.iter().zip(&base_profile.buckets) {
            assert_eq!(b.workload, base.workload);
            assert_eq!(b.unit_index, base.unit_index);
            assert_eq!(b.shared, base.shared);
            assert_eq!(b.members, base.members);
            for (key, got, want) in [
                ("scans", b.metrics.scans, base.metrics.scans),
                ("steps", b.metrics.steps, base.metrics.steps),
                (
                    "judged_steps",
                    b.metrics.judged_steps,
                    base.metrics.judged_steps,
                ),
                (
                    "compare_ops",
                    b.metrics.compare_ops,
                    base.metrics.compare_ops,
                ),
                ("elements", b.metrics.elements, base.metrics.elements),
            ] {
                assert_eq!(
                    got, want,
                    "threads={threads}: `{key}` drifted for {} unit {}",
                    b.workload, b.unit_index
                );
            }
            assert_eq!(b.static_compare_bound, base.static_compare_bound);
        }
        let (t, bt) = (profile.totals(), base_profile.totals());
        assert_eq!(
            (t.scans, t.steps, t.judged_steps, t.compare_ops, t.elements),
            (
                bt.scans,
                bt.steps,
                bt.judged_steps,
                bt.compare_ops,
                bt.elements
            ),
            "threads={threads}: sweep totals drifted"
        );
    }
}

#[test]
fn checkpointed_sweep_is_thread_count_independent_and_resumable_across_counts() {
    let dir = std::env::temp_dir().join(format!("opd_runner_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let ws = [Workload::Lexgen];
    let prepared = prepare_all(&ws, 1, &[1_000], 50_000);
    let configs = grid();
    let fingerprint = run_fingerprint(&configs, &ws, 1, 50_000);
    let baseline = sweep_many(&prepared, &configs, 1);

    for &threads in &THREADS {
        let path = dir.join(format!("sweep_t{threads}.ckpt"));
        let (runs, summary) =
            sweep_many_checkpointed(&prepared, &configs, threads, &path, fingerprint, false)
                .expect("checkpointed sweep succeeds");
        assert_runs_identical(&baseline, &runs, &format!("checkpoint threads={threads}"));
        assert_eq!(summary.restored_buckets, 0);
        assert!(summary.computed_buckets > 0);

        // A checkpoint written at one thread count restores bit-identical
        // results at another: record order in the file may differ, but
        // bucket content cannot.
        let resume_threads = THREADS[(THREADS.iter().position(|&t| t == threads).unwrap() + 1) % 3];
        let (restored, summary) = sweep_many_checkpointed(
            &prepared,
            &configs,
            resume_threads,
            &path,
            fingerprint,
            true,
        )
        .expect("resume succeeds");
        assert_runs_identical(
            &baseline,
            &restored,
            &format!("resume threads={threads}->{resume_threads}"),
        );
        assert_eq!(summary.computed_buckets, 0, "everything restores");
        assert_eq!(summary.damaged_tail_bytes, 0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
