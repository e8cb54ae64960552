//! Explorer correctness: schedule counts on toy models, DPOR/naive
//! agreement, replay determinism, and the seeded-bug mutants each
//! caught with the specific expected witness.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use opd_sched::{check, models, thread, Explorer, FindingKind, SyncAtomicU64, SyncCell};

/// Two threads doing one independent (distinct-object) write each:
/// naive DFS sees both interleavings, DPOR sees the operations
/// commute and explores just one.
#[test]
fn dpor_prunes_independent_writes() {
    let model = || {
        let a = Arc::new(SyncAtomicU64::labeled(0, "a"));
        let b = Arc::new(SyncAtomicU64::labeled(0, "b"));
        let ta = {
            let a = Arc::clone(&a);
            thread::spawn(move || {
                a.store(1, Ordering::Relaxed);
            })
        };
        let tb = {
            let b = Arc::clone(&b);
            thread::spawn(move || {
                b.store(1, Ordering::Relaxed);
            })
        };
        ta.join();
        tb.join();
    };
    let naive = Explorer::new().naive().explore(model);
    let dpor = Explorer::new().explore(model);
    assert!(naive.is_clean(), "{:?}", naive.finding);
    assert!(dpor.is_clean(), "{:?}", dpor.finding);
    // Naive DFS interleaves the stores with the spawn/join points
    // too; DPOR sees that nothing conflicts and runs one schedule.
    assert_eq!(naive.executions, 5);
    assert_eq!(dpor.executions, 1, "independent stores commute");
}

/// Conflicting accesses cannot be pruned: two unordered RMWs on one
/// atomic must still be explored in both orders.
#[test]
fn dpor_keeps_conflicting_orders() {
    let model = || {
        let a = Arc::new(SyncAtomicU64::labeled(0, "a"));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let a = Arc::clone(&a);
                thread::spawn(move || {
                    a.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        check(a.load(Ordering::Relaxed) == 2, "both increments landed");
    };
    let naive = Explorer::new().naive().explore(model);
    let dpor = Explorer::new().explore(model);
    assert!(naive.is_clean(), "{:?}", naive.finding);
    assert!(dpor.is_clean(), "{:?}", dpor.finding);
    assert_eq!(naive.executions, 5);
    assert_eq!(dpor.executions, 2, "conflicting RMWs do not commute");
    let site = dpor.profile.site("a").expect("profiled");
    assert!(site.concurrent_rw, "the RMWs are concurrent");
}

/// The seed permutes search order but never the explored set or the
/// verdict; replaying a witness reproduces the same finding.
#[test]
fn seeds_agree_and_witnesses_replay() {
    let reports: Vec<_> = [0u64, 1, 42]
        .into_iter()
        .map(|seed| {
            let mut e = Explorer::new();
            e.seed = seed;
            e.explore(models::metrics_lost_update)
        })
        .collect();
    for r in &reports {
        let finding = r.finding.as_ref().expect("lost update must be found");
        assert!(
            matches!(&finding.kind, FindingKind::LostUpdate { object, .. } if object == "hits"),
            "unexpected finding: {}",
            finding.kind
        );
        // Replay is deterministic: the recorded schedule reproduces
        // the exact same finding kind and trace.
        let replayed =
            Explorer::new().replay(models::metrics_lost_update, &finding.witness.choices);
        assert_eq!(replayed.executions, 1);
        let again = replayed.finding.expect("replay reproduces the finding");
        assert_eq!(again.witness.trace, finding.witness.trace);
    }
}

/// Preemption bounding restricts the explored set (and finds nothing
/// on a clean model).
#[test]
fn preemption_bound_restricts_search() {
    let unbounded = Explorer::new().explore(models::runner_claim_cursor);
    let mut bounded = Explorer::new();
    bounded.preemption_bound = Some(0);
    let bounded = bounded.explore(models::runner_claim_cursor);
    assert!(unbounded.is_clean(), "{:?}", unbounded.finding);
    assert!(bounded.finding.is_none(), "{:?}", bounded.finding);
    assert!(
        bounded.executions <= unbounded.executions,
        "bounding never enlarges the search ({} > {})",
        bounded.executions,
        unbounded.executions
    );
}

/// A deadlock (join cycle via a never-satisfied guard) is reported,
/// not hung. Modeled as a thread joining itself indirectly: t1 waits
/// on a flag only t1 would set after the join.
#[test]
fn check_failure_carries_trace_witness() {
    let report = Explorer::new().explore(|| {
        let flag = Arc::new(SyncAtomicU64::labeled(0, "flag"));
        let t = {
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                flag.store(1, Ordering::Release);
            })
        };
        t.join();
        check(flag.load(Ordering::Acquire) == 2, "flag is two");
    });
    let finding = report.finding.expect("check must fail");
    assert!(
        matches!(&finding.kind, FindingKind::CheckFailed { message } if message == "flag is two")
    );
    let rendered = finding.to_string();
    assert!(
        rendered.contains("store(1, Release) flag"),
        "witness trace shows the store: {rendered}"
    );
    assert!(rendered.contains("check failed"), "{rendered}");
}

// -- clean subsystem models --

#[test]
fn runner_model_explores_clean() {
    let report = Explorer::new().explore(models::runner_claim_cursor);
    assert!(report.is_clean(), "{:?}", report.finding);
    for label in models::runner_expected_objects() {
        assert!(
            report.profile.site(&label).is_some(),
            "expected object `{label}` unexplored"
        );
    }
    // The Relaxed cursor is genuinely concurrent — that is the
    // documented contract, not a bug: its RMWs are what make claims
    // unique.
    assert!(report.profile.site("cursor").unwrap().concurrent_rw);
    // Each item's run counter and each worker's local results are
    // touched by one worker (and the post-join merge) only.
    assert!(!report.profile.site("runs[0]").unwrap().concurrent_rw);
    assert!(!report.profile.site("local[0]").unwrap().concurrent_rw);
    // Claims race in every order: more than one schedule survives
    // partial-order reduction.
    assert!(report.executions > 1);
}

#[test]
fn checkpoint_model_explores_clean() {
    let report = Explorer::new().explore(models::checkpoint_writer_reader);
    assert!(report.is_clean(), "{:?}", report.finding);
    // One schedule per observable prefix (0, 1, 2 records): the
    // reads-from edge between the Release publish and the Acquire
    // snapshot must not suppress its own reversal.
    assert_eq!(report.executions, 3);
    for label in models::checkpoint_expected_objects() {
        assert!(
            report.profile.site(&label).is_some(),
            "expected object `{label}` unexplored"
        );
    }
}

// -- seeded-bug mutants: the detector is not vacuous --

#[test]
fn mutant_lost_update_is_caught() {
    let report = Explorer::new().explore(models::metrics_lost_update);
    let finding = report.finding.expect("mutant must be caught");
    assert!(
        matches!(&finding.kind, FindingKind::LostUpdate { object, .. } if object == "hits"),
        "wrong finding: {}",
        finding.kind
    );
    assert!(!finding.witness.choices.is_empty());
}

#[test]
fn mutant_racy_claim_is_caught_as_a_double_claim() {
    let report = Explorer::new().explore(models::runner_racy_claim);
    let finding = report.finding.expect("mutant must be caught");
    assert!(
        matches!(&finding.kind, FindingKind::CheckFailed { message }
            if message == "runs[2] claimed twice"),
        "wrong finding: {}",
        finding.kind
    );
    // The witness replays to the same double claim: both workers load
    // the cursor before either stores it.
    let replayed = Explorer::new().replay(models::runner_racy_claim, &finding.witness.choices);
    let again = replayed.finding.expect("replay reproduces the finding");
    assert_eq!(again.witness.trace, finding.witness.trace);
    let rendered = finding.to_string();
    for worker in ["t1", "t2"] {
        assert!(
            rendered.contains(&format!("{worker} load(Relaxed) cursor -> 2")),
            "{rendered}"
        );
    }
}

#[test]
fn mutant_dropped_join_is_caught() {
    let report = Explorer::new().explore(models::runner_dropped_join);
    let finding = report.finding.expect("mutant must be caught");
    assert!(
        matches!(&finding.kind, FindingKind::DataRace { object, .. } if object == "results[0]"),
        "wrong finding: {}",
        finding.kind
    );
}

#[test]
fn mutant_relaxed_publish_is_caught() {
    let report = Explorer::new().explore(models::checkpoint_relaxed_publish);
    let finding = report.finding.expect("mutant must be caught");
    assert!(
        matches!(&finding.kind, FindingKind::DataRace { object, .. } if object == "record[0]"),
        "wrong finding: {}",
        finding.kind
    );
    // The profile exposes the R202 shape: Relaxed RMW writes paired
    // with Acquire reads on the publication flag.
    let site = report.profile.site("committed").expect("profiled");
    assert!(site.has_relaxed_rmw_write());
    assert!(site.has_acquire_read());
}

/// Outside an exploration the sync layer is plain std behavior.
#[test]
fn plain_mode_falls_through() {
    let a = SyncAtomicU64::new(5);
    assert_eq!(a.fetch_add(2, Ordering::SeqCst), 5);
    assert_eq!(a.load(Ordering::SeqCst), 7);
    a.store(1, Ordering::SeqCst);
    assert_eq!(a.load(Ordering::SeqCst), 1);
    let c = SyncCell::new(9u64);
    assert_eq!(c.read(), 9);
    c.write(3);
    assert_eq!(c.read(), 3);
    assert!(opd_sched::current_thread_index().is_none());
}
