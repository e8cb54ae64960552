//! Exploration models of the repository's concurrent subsystems, plus
//! the seeded-bug mutants that prove the auditor is not vacuous.
//!
//! Each model is a closure suitable for [`crate::Explorer::explore`]:
//! it builds its shared state fresh, runs a small but schedule-complete
//! instance of the real protocol on the instrumented sync layer, and
//! asserts the protocol's invariant with [`crate::check`]. The model
//! for the metrics registry lives in `opd-obs` (behind its `sched`
//! feature) because it drives the *real* `MetricsRegistry` — the two
//! models here abstract protocols whose real implementations are
//! structurally tied to files and OS threads.
//!
//! Sizes are chosen so exhaustive DPOR exploration stays in the
//! thousands of schedules: 2 worker threads and 2–3 shared slots
//! already cover every ordering class of each protocol (every pair of
//! operations that *can* commute or conflict does so somewhere in the
//! state space).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{check, thread, SyncAtomicU64, SyncCell};

/// Model of the sweep runner's claim-cursor protocol
/// (`crates/experiments/src/runner.rs`): workers claim item indices
/// from a shared atomic cursor with a `Relaxed` `fetch_add` until it
/// passes the item count, record what they ran in worker-local
/// results, and the main thread merges those results after joining.
/// A ghost run counter per item checks at claim time that no item is
/// claimed twice. The invariant: after the joins, every item ran
/// exactly once and merged exactly once. The `fetch_add`'s atomicity is
/// the only synchronization the claims need; the joins order the merge.
pub fn runner_claim_cursor() {
    claim_sweep(|cursor, runs| {
        let item = cursor.fetch_add(1, Ordering::Relaxed);
        note_claim(runs, item);
        item
    });
}

/// Items in the claim-cursor models.
const CLAIM_ITEMS: usize = 3;

/// Records a claim of `item` in its ghost run counter the moment the
/// index is read; a second claim of the same item fails the check.
fn note_claim(runs: &[SyncAtomicU64], item: u64) {
    if let Some(run) = runs.get(item as usize) {
        if run.fetch_add(1, Ordering::Relaxed) != 0 {
            check(false, &format!("runs[{item}] claimed twice"));
        }
    }
}

/// The claim-cursor protocol with `claim(cursor, runs)` as the claim
/// step.
fn claim_sweep(claim: fn(&SyncAtomicU64, &[SyncAtomicU64]) -> u64) {
    let cursor = Arc::new(SyncAtomicU64::labeled(0, "cursor"));
    let runs: Arc<Vec<SyncAtomicU64>> = Arc::new(
        (0..CLAIM_ITEMS)
            .map(|i| SyncAtomicU64::labeled(0, format!("runs[{i}]")))
            .collect(),
    );
    let locals: Arc<Vec<SyncCell<u64>>> = Arc::new(
        (0..2)
            .map(|w| SyncCell::labeled(0u64, format!("local[{w}]")))
            .collect(),
    );
    let workers: Vec<thread::JoinHandle> = (0..2)
        .map(|w| {
            let cursor = Arc::clone(&cursor);
            let runs = Arc::clone(&runs);
            let locals = Arc::clone(&locals);
            thread::spawn(move || {
                // Worker-local results: one bit per item this worker ran.
                let mut ran = 0u64;
                loop {
                    let item = claim(&cursor, &runs) as usize;
                    if item >= CLAIM_ITEMS {
                        break;
                    }
                    ran |= 1 << item;
                }
                locals[w].write(ran);
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
    let mut merged = 0u64;
    for local in locals.iter() {
        let ran = local.read();
        check(merged & ran == 0, "item merged twice");
        merged |= ran;
    }
    check(merged == (1 << CLAIM_ITEMS) - 1, "every item merged");
    for r in runs.iter() {
        check(
            r.load(Ordering::Relaxed) == 1,
            "every item ran exactly once",
        );
    }
}

/// Model of the checkpoint append/flush/longest-valid-prefix protocol
/// (`crates/experiments/src/checkpoint.rs`): a writer appends record
/// payloads and then publishes the new valid-prefix length with a
/// `Release` store; a concurrent reader takes an `Acquire` snapshot of
/// the length and must see fully written payloads for the whole
/// prefix — the in-memory analogue of "a record's bytes and checksum
/// are durable before the reader can parse them".
pub fn checkpoint_writer_reader() {
    const RECORDS: u64 = 2;
    let payload: Arc<Vec<SyncCell<u64>>> = Arc::new(
        (0..RECORDS)
            .map(|i| SyncCell::labeled(0u64, format!("record[{i}]")))
            .collect(),
    );
    let committed = Arc::new(SyncAtomicU64::labeled(0, "committed"));
    let writer = {
        let payload = Arc::clone(&payload);
        let committed = Arc::clone(&committed);
        thread::spawn(move || {
            for i in 0..RECORDS {
                payload[i as usize].write(100 + i);
                committed.store(i + 1, Ordering::Release);
            }
        })
    };
    let reader = {
        let payload = Arc::clone(&payload);
        let committed = Arc::clone(&committed);
        thread::spawn(move || {
            let prefix = committed.load(Ordering::Acquire);
            check(prefix <= RECORDS, "prefix never exceeds written records");
            for i in 0..prefix {
                check(
                    payload[i as usize].read() == 100 + i,
                    "committed prefix is fully written",
                );
            }
        })
    };
    writer.join();
    reader.join();
}

/// Seeded bug: a metrics-style counter updated with `load` + `store`
/// instead of `fetch_add`. Two writers each "increment" once; one
/// increment can vanish. The auditor reports a
/// [`crate::FindingKind::LostUpdate`] on `hits` — the exact failure
/// `fetch_add` exists to prevent.
pub fn metrics_lost_update() {
    let hits = Arc::new(SyncAtomicU64::labeled(0, "hits"));
    let workers: Vec<thread::JoinHandle> = (0..2)
        .map(|_| {
            let hits = Arc::clone(&hits);
            thread::spawn(move || {
                let v = hits.load(Ordering::Relaxed);
                hits.store(v + 1, Ordering::Relaxed);
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
}

/// Seeded bug: the claim is a `load` followed by a `store` (past the
/// last item, the worker stops without storing) instead of one
/// `fetch_add`. Two workers can load the same index before either
/// stores, and both run that item. The auditor reports the
/// double-claimed item as a [`crate::FindingKind::CheckFailed`]
/// (`runs[2] claimed twice`) with the interleaving as witness — the
/// failure the cursor's atomic claim exists to prevent. (The second
/// store would also be a lost update on `cursor`, but every double
/// claim is noted before its store, so the claim is what is reported.)
pub fn runner_racy_claim() {
    claim_sweep(|cursor, runs| {
        let item = cursor.load(Ordering::Relaxed);
        note_claim(runs, item);
        if (item as usize) < CLAIM_ITEMS {
            cursor.store(item + 1, Ordering::Relaxed);
        }
        item
    });
}

/// Seeded bug: the main thread reads result slots *before* joining
/// the worker. Without the join edge the reads race the worker's
/// writes — a [`crate::FindingKind::DataRace`] on `results[0]`.
pub fn runner_dropped_join() {
    let slots: Arc<Vec<SyncCell<u64>>> = Arc::new(vec![SyncCell::labeled(0u64, "results[0]")]);
    let worker = {
        let slots = Arc::clone(&slots);
        thread::spawn(move || {
            slots[0].write(10);
        })
    };
    let _ = slots[0].read();
    worker.join();
}

/// Seeded bug: the checkpoint writer publishes the prefix length with
/// a `Relaxed` read-modify-write. No happens-before edge covers the
/// payload, so the reader's payload access races the writer's — a
/// [`crate::FindingKind::DataRace`] on `record[0]`, and the site
/// profile shows exactly the weakened publication shape the
/// `OPD-R202` lint flags (Relaxed RMW writes, Acquire reads).
pub fn checkpoint_relaxed_publish() {
    let payload = Arc::new(SyncCell::labeled(0u64, "record[0]"));
    let committed = Arc::new(SyncAtomicU64::labeled(0, "committed"));
    let writer = {
        let payload = Arc::clone(&payload);
        let committed = Arc::clone(&committed);
        thread::spawn(move || {
            payload.write(100);
            committed.fetch_add(1, Ordering::Relaxed);
        })
    };
    let reader = {
        let payload = Arc::clone(&payload);
        let committed = Arc::clone(&committed);
        thread::spawn(move || {
            if committed.load(Ordering::Acquire) == 1 {
                check(payload.read() == 100, "published record is written");
            }
        })
    };
    writer.join();
    reader.join();
}

/// The shared-object labels each clean model is expected to touch —
/// the ground truth for the `OPD-R201` (unexplored atomic) lint.
#[must_use]
pub fn runner_expected_objects() -> Vec<String> {
    let mut v = vec!["cursor".to_owned()];
    v.extend((0..CLAIM_ITEMS).map(|i| format!("runs[{i}]")));
    v.extend((0..2).map(|w| format!("local[{w}]")));
    v
}

/// Expected objects of [`checkpoint_writer_reader`].
#[must_use]
pub fn checkpoint_expected_objects() -> Vec<String> {
    vec![
        "record[0]".to_owned(),
        "record[1]".to_owned(),
        "committed".to_owned(),
    ]
}
