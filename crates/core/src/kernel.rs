//! The window kernel: the structure-of-arrays / bitset (SWAR)
//! representation of the CW/TW pair every detector and sweep runs on.
//!
//! [`SwarWindows`] serves batch runs over a pre-interned trace and
//! streaming input alike. It never materializes a window buffer at
//! all: because every window operation (push, phase-end flush with CW
//! re-seeding, anchor-and-resize) preserves the invariant that *the
//! buffered elements are one contiguous run of the trace*, the whole
//! window state is three indices `a ≤ b ≤ c` with TW = `trace[a..b)`
//! and CW = `trace[b..c)`. Advancing by a step moves the three indices
//! by closed forms and touches only the per-site counts of the at most
//! `3 · step` *dirty* sites in the spans the indices moved over —
//! O(dirty) incremental updates instead of per-element deque traffic.
//! Per-site membership is additionally packed into `u64` bit lanes
//! (bit = "count > 0", maintained branchlessly), so the unweighted and
//! Pearson set reductions are popcount passes over `lanes =
//! ⌈sites/64⌉` words instead of per-site scalar loops.
//!
//! A streaming detector ([`PhaseDetector::process`]
//! (crate::PhaseDetector::process)) cannot know the trace up front,
//! so it keeps its own id log and [`resume`](SwarWindows::resume)s a
//! dense-mode run over it each step from the [`SwarCursor`] the
//! previous step saved. The log prefix before `a` is dead, so the
//! detector compacts it away and records how many elements it dropped
//! as the run's *origin*: run indices stay log-relative while
//! reported offsets stay global.
//!
//! For large skip factors even O(step) per-element work dominates:
//! a config judging every `skip ≥ `[`RANK_MODE_MIN_SKIP`] elements
//! reads window *counts* far more rarely than it crosses elements. In
//! that regime the kernel switches to *rank mode*: a per-trace
//! [`SiteIndex`] answers "how many of `trace[..x]` are site `s`" in
//! O(1), so both windows' count vectors fall out of rank differences
//! at the three run endpoints and an advance costs nothing at all —
//! the kernel pays O(sites) per *judge* instead of O(step) per
//! *advance*. Rank mode needs the whole trace, so streaming runs stay
//! dense.
//!
//! Both modes reduce their state to the same exact integer quantities
//! and share the floating-point tail in [`crate::model::exact`], so
//! their similarity streams are bit-identical by construction. The
//! reference the kernel is checked against is not a second kernel but
//! an executable specification of the paper's Figure 3
//! (`tests/common/spec.rs`): plain queues, per-site counts changed only
//! by push and evict, and a full O(sites) similarity pass per judged
//! step. `tests/kernel_equivalence.rs`, `tests/streaming_equivalence.rs`
//! and `tests/window_props.rs` lock the kernel to it differentially.

use std::borrow::BorrowMut;

use crate::config::{AnchorPolicy, ResizePolicy};
use crate::intern::{InternedTrace, SiteIndex};
use crate::model::{exact, ModelPolicy};

/// Smallest skip factor for which the SWAR kernel prefers rank mode
/// (see the module docs): below this, dense per-element maintenance
/// is cheaper than an O(sites) rank pass per judge. The static cost
/// model in `opd-analyze` mirrors this cutoff.
pub const RANK_MODE_MIN_SKIP: usize = 32;

/// The SWAR kernel's owned scratch: per-site count columns, the
/// membership bit lanes, and the rank-mode anchor rebuild buffer.
/// Allocations persist across runs (the sweep engine keeps one per
/// worker), so the steady state is allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct SwarKernelState {
    cw_counts: Vec<u32>,
    tw_counts: Vec<u32>,
    cw_bits: Vec<u64>,
    tw_bits: Vec<u64>,
    /// Rank mode has no materialized counts; anchor scans rebuild the
    /// CW counts here (once per phase start).
    anchor_counts: Vec<u32>,
}

impl SwarKernelState {
    /// Zeroes every count and bit lane (the columns keep their
    /// length), so a new run may start over any prefix of them.
    pub(crate) fn clear(&mut self) {
        self.cw_counts.fill(0);
        self.tw_counts.fill(0);
        self.cw_bits.fill(0);
        self.tw_bits.fill(0);
    }

    /// Grows every per-site column to cover ids `0..n_sites`.
    pub(crate) fn ensure_sites(&mut self, n_sites: usize) {
        if self.cw_counts.len() < n_sites {
            self.cw_counts.resize(n_sites, 0);
            self.tw_counts.resize(n_sites, 0);
            self.anchor_counts.resize(n_sites, 0);
            let lanes = n_sites.div_ceil(64);
            self.cw_bits.resize(lanes, 0);
            self.tw_bits.resize(lanes, 0);
        }
    }

    /// Bytes of per-site storage currently held (the high-water mark:
    /// `ensure_sites` never shrinks).
    pub(crate) fn footprint_bytes(&self) -> u64 {
        let counts = (self.cw_counts.len() + self.tw_counts.len() + self.anchor_counts.len())
            as u64
            * core::mem::size_of::<u32>() as u64;
        let lanes =
            (self.cw_bits.len() + self.tw_bits.len()) as u64 * core::mem::size_of::<u64>() as u64;
        counts + lanes
    }
}

/// Bytes of per-site storage the SWAR kernel allocates for a trace
/// with `n_sites` distinct interned sites: three `u32` count columns
/// (CW, TW, anchor rebuild) plus two `u64` membership bit-lane arrays
/// of `ceil(n_sites / 64)` lanes each. This is the closed form of
/// `SwarKernelState::ensure_sites`'s allocation, exported so the
/// static certifier (`opd-analyze`) can bound detector memory without
/// constructing a kernel.
#[must_use]
pub fn swar_footprint_bytes(n_sites: u64) -> u64 {
    let lanes = n_sites.div_ceil(64);
    3 * core::mem::size_of::<u32>() as u64 * n_sites
        + 2 * core::mem::size_of::<u64>() as u64 * lanes
}

/// Where a SWAR run stands: the three run indices and the sticky warm
/// flag — everything a streaming detector saves between steps to
/// [`resume`](SwarWindows::resume) the run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SwarCursor {
    a: usize,
    b: usize,
    c: usize,
    warm: bool,
}

impl SwarCursor {
    /// Index of the first live element: everything before it has left
    /// both windows.
    pub(crate) fn front(&self) -> usize {
        self.a
    }

    /// Rebases the indices after the first `dead ≤ front()` elements
    /// were dropped from the run's id log.
    pub(crate) fn rebase(&mut self, dead: usize) {
        debug_assert!(dead <= self.a, "only dead elements may be dropped");
        self.a -= dead;
        self.b -= dead;
        self.c -= dead;
    }
}

/// One SWAR-kernel run over a pre-interned trace (or a streaming
/// detector's id log): the three run indices plus the count/bit state
/// (see the module docs).
///
/// The state storage is generic: the engine-driven run borrows the
/// per-thread scratch (`S = &mut SwarKernelState`, the default), while
/// a [`fork`](SwarWindows::fork) owns a snapshot
/// (`S = SwarKernelState`) so phase-entering sweep members can evolve
/// their windows independently of the shared FIFO they forked from.
pub(crate) struct SwarWindows<'a, S = &'a mut SwarKernelState>
where
    S: BorrowMut<SwarKernelState>,
{
    ids: &'a [u32],
    /// `Some` in rank mode; `None` in dense mode.
    index: Option<&'a SiteIndex>,
    st: S,
    /// Global offset of `ids[0]`: the elements a streaming detector
    /// has compacted out of its log (zero for batch runs).
    origin: u64,
    n_sites: usize,
    lanes: usize,
    cw_cap: usize,
    tw_cap: usize,
    /// TW = `ids[a..b)`, CW = `ids[b..c)`; `a` is the front offset.
    a: usize,
    b: usize,
    c: usize,
    warm: bool,
}

impl<'a> SwarWindows<'a> {
    /// Starts a run of `trace` with the given window capacities.
    /// `skip` selects rank mode (when eligible) per
    /// [`RANK_MODE_MIN_SKIP`].
    pub(crate) fn begin(
        st: &'a mut SwarKernelState,
        trace: &'a InternedTrace,
        skip: usize,
        cw_cap: usize,
        tw_cap: usize,
    ) -> SwarWindows<'a> {
        let n_sites = trace.distinct_count() as usize;
        let lanes = n_sites.div_ceil(64);
        let index = if skip >= RANK_MODE_MIN_SKIP {
            trace.try_site_index()
        } else {
            None
        };
        st.ensure_sites(n_sites);
        if index.is_none() {
            st.cw_counts[..n_sites].fill(0);
            st.tw_counts[..n_sites].fill(0);
            st.cw_bits[..lanes].fill(0);
            st.tw_bits[..lanes].fill(0);
        }
        SwarWindows {
            ids: trace.ids(),
            index,
            st,
            origin: 0,
            n_sites,
            lanes,
            cw_cap,
            tw_cap,
            a: 0,
            b: 0,
            c: 0,
            warm: false,
        }
    }

    /// Resumes a dense-mode run over a streaming id log at `cursor`.
    /// `st` must hold exactly the counts of the windows `cursor`
    /// describes (all zero for a fresh run) and cover `n_sites` sites;
    /// `ids[0]` is the stream's element `origin`.
    pub(crate) fn resume(
        st: &'a mut SwarKernelState,
        ids: &'a [u32],
        origin: u64,
        n_sites: usize,
        cursor: SwarCursor,
        cw_cap: usize,
        tw_cap: usize,
    ) -> SwarWindows<'a> {
        debug_assert!(cursor.c <= ids.len() && st.cw_counts.len() >= n_sites);
        SwarWindows {
            ids,
            index: None,
            st,
            origin,
            n_sites,
            lanes: n_sites.div_ceil(64),
            cw_cap,
            tw_cap,
            a: cursor.a,
            b: cursor.b,
            c: cursor.c,
            warm: cursor.warm,
        }
    }

    /// The run's position, for a later [`resume`](Self::resume).
    pub(crate) fn cursor(&self) -> SwarCursor {
        SwarCursor {
            a: self.a,
            b: self.b,
            c: self.c,
            warm: self.warm,
        }
    }

    /// Snapshots the current window state into an owned, independently
    /// evolving copy — the primitive behind the sweep engine's
    /// *forking* shared scan for adaptive-TW groups: members entering a
    /// phase fork the shared FIFO windows, apply their anchor and
    /// resize there, and let the copy grow its TW privately while the
    /// FIFO scans on for the members still in transition.
    pub(crate) fn fork(&self) -> SwarWindows<'a, SwarKernelState> {
        SwarWindows {
            ids: self.ids,
            index: self.index,
            st: (*self.st).clone(),
            origin: self.origin,
            n_sites: self.n_sites,
            lanes: self.lanes,
            cw_cap: self.cw_cap,
            tw_cap: self.tw_cap,
            a: self.a,
            b: self.b,
            c: self.c,
            warm: self.warm,
        }
    }
}

impl<'a, S: BorrowMut<SwarKernelState>> SwarWindows<'a, S> {
    /// Adds `ids[lo..hi)` to the CW counts (incoming elements).
    fn dense_add_cw(&mut self, lo: usize, hi: usize) {
        let ids = self.ids;
        let st = self.st.borrow_mut();
        for &s in &ids[lo..hi] {
            let s = s as usize;
            st.cw_counts[s] += 1;
            st.cw_bits[s >> 6] |= 1u64 << (s & 63);
        }
    }

    /// Transfers `ids[lo..hi)` from the CW to the TW. The membership
    /// bit is cleared branchlessly when a count reaches zero.
    fn dense_cw_to_tw(&mut self, lo: usize, hi: usize) {
        let ids = self.ids;
        let st = self.st.borrow_mut();
        for &s in &ids[lo..hi] {
            let s = s as usize;
            let count = st.cw_counts[s] - 1;
            st.cw_counts[s] = count;
            st.cw_bits[s >> 6] &= !(u64::from(count == 0) << (s & 63));
            st.tw_counts[s] += 1;
            st.tw_bits[s >> 6] |= 1u64 << (s & 63);
        }
    }

    /// Evicts `ids[lo..hi)` from the TW.
    fn dense_evict_tw(&mut self, lo: usize, hi: usize) {
        let ids = self.ids;
        let st = self.st.borrow_mut();
        for &s in &ids[lo..hi] {
            let s = s as usize;
            let count = st.tw_counts[s] - 1;
            st.tw_counts[s] = count;
            st.tw_bits[s >> 6] &= !(u64::from(count == 0) << (s & 63));
        }
    }

    fn dense_similarity(&self, model: ModelPolicy, cw_len: usize, tw_len: usize) -> f64 {
        let st = self.st.borrow();
        match model {
            ModelPolicy::UnweightedSet => {
                let (mut distinct, mut shared) = (0u64, 0u64);
                for (cw, tw) in st.cw_bits[..self.lanes]
                    .iter()
                    .zip(&st.tw_bits[..self.lanes])
                {
                    distinct += u64::from(cw.count_ones());
                    shared += u64::from((cw & tw).count_ones());
                }
                exact::unweighted(shared, distinct)
            }
            ModelPolicy::WeightedSet => {
                let (t, c) = (tw_len as u64, cw_len as u64);
                let mut sum = 0u64;
                for (cwc, twc) in st.cw_counts[..self.n_sites]
                    .iter()
                    .zip(&st.tw_counts[..self.n_sites])
                {
                    sum += (u64::from(*cwc) * t).min(u64::from(*twc) * c);
                }
                exact::weighted(sum, cw_len, tw_len)
            }
            ModelPolicy::Pearson => {
                let (mut n, mut shared) = (0u64, 0u64);
                for (cw, tw) in st.cw_bits[..self.lanes]
                    .iter()
                    .zip(&st.tw_bits[..self.lanes])
                {
                    n += u64::from((cw | tw).count_ones());
                    shared += u64::from((cw & tw).count_ones());
                }
                let mut sums = exact::PearsonSums::default();
                for (cwc, twc) in st.cw_counts[..self.n_sites]
                    .iter()
                    .zip(&st.tw_counts[..self.n_sites])
                {
                    sums.add(*cwc, *twc);
                }
                exact::pearson(n, sums, shared)
            }
        }
    }

    fn rank_similarity(
        &self,
        index: &SiteIndex,
        model: ModelPolicy,
        cw_len: usize,
        tw_len: usize,
    ) -> f64 {
        let ra = index.ranker(self.a);
        let rb = index.ranker(self.b);
        let rc = index.ranker(self.c);
        match model {
            ModelPolicy::UnweightedSet => {
                let (mut distinct, mut shared) = (0u64, 0u64);
                for s in 0..self.n_sites {
                    let rbs = rb.rank(s);
                    let cw = rc.rank(s) - rbs;
                    let tw = rbs - ra.rank(s);
                    distinct += u64::from(cw > 0);
                    shared += u64::from(cw > 0 && tw > 0);
                }
                exact::unweighted(shared, distinct)
            }
            ModelPolicy::WeightedSet => {
                let (t, c) = (tw_len as u64, cw_len as u64);
                let mut sum = 0u64;
                for s in 0..self.n_sites {
                    let rbs = rb.rank(s);
                    let cw = rc.rank(s) - rbs;
                    let tw = rbs - ra.rank(s);
                    sum += (u64::from(cw) * t).min(u64::from(tw) * c);
                }
                exact::weighted(sum, cw_len, tw_len)
            }
            ModelPolicy::Pearson => {
                let (mut n, mut shared) = (0u64, 0u64);
                let mut sums = exact::PearsonSums::default();
                for s in 0..self.n_sites {
                    let rbs = rb.rank(s);
                    let cw = rc.rank(s) - rbs;
                    let tw = rbs - ra.rank(s);
                    n += u64::from(cw > 0 || tw > 0);
                    shared += u64::from(cw > 0 && tw > 0);
                    sums.add(cw, tw);
                }
                exact::pearson(n, sums, shared)
            }
        }
    }

    /// Consumes one step of `chunk.len()` elements; `chunk` must be
    /// the next contiguous run of the trace the kernel was started on.
    /// `tw_grows` suppresses TW eviction (adaptive TW, in phase).
    pub(crate) fn advance(&mut self, chunk: &[u32], tw_grows: bool) {
        debug_assert!(
            core::ptr::eq(chunk.as_ptr(), self.ids[self.c..].as_ptr()),
            "SWAR kernel must be fed the trace's own chunks in order"
        );
        let k = chunk.len();
        let c2 = self.c + k;
        // Closed forms of the per-element loop. The CW does at most
        // one CW→TW transfer per push (an over-full CW — a phase-end
        // flush can keep more than `cw_cap` — drains by exactly its
        // intake), the TW eviction drain runs to quiescence:
        let cw0 = self.c - self.b;
        let cw2 = if cw0 >= self.cw_cap {
            cw0
        } else {
            (cw0 + k).min(self.cw_cap)
        };
        let b2 = c2 - cw2;
        let a2 = if tw_grows {
            self.a
        } else {
            self.a.max(b2.saturating_sub(self.tw_cap))
        };
        if self.index.is_none() {
            // Dirty-site updates, in dependency order: elements enter
            // the CW before the transfer span may re-move them, and
            // enter the TW before the eviction span may drop them.
            self.dense_add_cw(self.c, c2);
            self.dense_cw_to_tw(self.b, b2);
            self.dense_evict_tw(self.a, a2);
        }
        self.a = a2;
        self.b = b2;
        self.c = c2;
        // Both warm conditions are monotone within one advance, so
        // the per-push sticky check of Figure 3 reduces to one
        // end-of-step check.
        if !self.warm && b2 - a2 >= self.tw_cap && cw2 >= self.cw_cap {
            self.warm = true;
        }
    }

    /// `true` once both windows have filled since the last flush.
    pub(crate) fn is_warm(&self) -> bool {
        self.warm
    }

    /// Current-window length.
    pub(crate) fn cw_len(&self) -> usize {
        self.c - self.b
    }

    /// Trailing-window length.
    pub(crate) fn tw_len(&self) -> usize {
        self.b - self.a
    }

    /// The similarity of the two windows under `model`; empty
    /// windows yield `0`.
    pub(crate) fn similarity(&self, model: ModelPolicy) -> f64 {
        let cw_len = self.c - self.b;
        let tw_len = self.b - self.a;
        if cw_len == 0 || tw_len == 0 {
            return 0.0;
        }
        match self.index {
            None => self.dense_similarity(model, cw_len, tw_len),
            Some(index) => self.rank_similarity(index, model, cw_len, tw_len),
        }
    }

    /// The anchor index (relative to the TW front) per `policy`:
    /// one right of the rightmost TW element absent from the CW (RN,
    /// `0` when there is none), or the leftmost TW element present in
    /// the CW (LNN, `tw_len` when there is none).
    pub(crate) fn anchor_index(&mut self, policy: AnchorPolicy) -> usize {
        let ids = self.ids;
        let tw = &ids[self.a..self.b];
        let st = self.st.borrow_mut();
        let counts: &[u32] = match self.index {
            None => &st.cw_counts,
            Some(index) => {
                // Rank mode keeps no materialized counts; rebuild the
                // CW's once per phase start.
                let rb = index.ranker(self.b);
                let rc = index.ranker(self.c);
                for (s, count) in st.anchor_counts[..self.n_sites].iter_mut().enumerate() {
                    *count = rc.rank(s) - rb.rank(s);
                }
                &st.anchor_counts
            }
        };
        match policy {
            AnchorPolicy::RightmostNoisy => {
                for j in (0..tw.len()).rev() {
                    if counts[tw[j] as usize] == 0 {
                        return j + 1;
                    }
                }
                0
            }
            AnchorPolicy::LeftmostNonNoisy => {
                for j in 0..tw.len() {
                    if counts[tw[j] as usize] > 0 {
                        return j;
                    }
                }
                tw.len()
            }
        }
    }

    /// Global element offset of a TW-relative index.
    pub(crate) fn offset_of_index(&self, index: usize) -> u64 {
        self.origin + (self.a + index) as u64
    }

    /// Applies the anchor and resize policies at a phase start: drops
    /// the TW prefix before `anchor_idx`, then either slides the TW
    /// right (restoring its capacity at the CW's expense) or merely
    /// moves its left boundary. Returns the global offset of the
    /// anchor element.
    pub(crate) fn anchor_and_resize(&mut self, anchor_idx: usize, resize: ResizePolicy) -> u64 {
        let anchor_offset = self.offset_of_index(anchor_idx);
        let tw_len = self.b - self.a;
        let a2 = self.a + anchor_idx.min(tw_len);
        // Slide extends the TW into the CW up to its capacity,
        // leaving at least one CW element — the closed form of the
        // per-element shift loop (a no-op whenever the TW already
        // meets its capacity or the CW is down to one element).
        let b2 = if resize == ResizePolicy::Slide {
            self.b.max((a2 + self.tw_cap).min(self.c.saturating_sub(1)))
        } else {
            self.b
        };
        if self.index.is_none() {
            self.dense_evict_tw(self.a, a2);
            self.dense_cw_to_tw(self.b, b2);
        }
        self.a = a2;
        self.b = b2;
        anchor_offset
    }

    /// Flushes both windows, keeping the most recent `keep` elements
    /// as the new (partial) CW — the paper's `clearWindows` plus CW
    /// re-seeding.
    pub(crate) fn clear_keep_last(&mut self, keep: usize) {
        let kept = keep.min(self.c - self.a);
        let front = self.c - kept;
        self.a = front;
        self.b = front;
        if self.index.is_none() {
            // O(sites) reset plus O(kept) re-seed beats walking the
            // whole (possibly phase-length) buffered run backward.
            let st = self.st.borrow_mut();
            st.cw_counts[..self.n_sites].fill(0);
            st.tw_counts[..self.n_sites].fill(0);
            st.cw_bits[..self.lanes].fill(0);
            st.tw_bits[..self.lanes].fill(0);
            self.dense_add_cw(front, self.c);
        }
        self.warm = false;
    }

    /// Comparison ops one judged step costs under `model`, mirroring
    /// the static cost model's accounting against the actual kernel
    /// state.
    pub(crate) fn judge_ops(&self, model: ModelPolicy) -> u64 {
        let n = self.n_sites as u64;
        if self.index.is_some() {
            // Three rank lookups and a reduction per site.
            return 4 * n + 2;
        }
        let lanes = self.lanes as u64;
        match model {
            ModelPolicy::UnweightedSet => lanes + 2,
            ModelPolicy::WeightedSet => n + 2,
            ModelPolicy::Pearson => n + lanes + 2,
        }
    }
}
