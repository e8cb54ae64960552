//! An executable specification of the paper's Figure 3: the trailing
//! and current windows, the three similarity models, and the
//! `processProfile` state machine, written to be obviously right
//! rather than fast. The differential suites run the detector's window
//! kernel against it.
//!
//! * The TW and CW are plain queues of interned ids. Per-site counts
//!   change only in the four push/evict primitives.
//! * Every judged step recomputes its similarity with one full pass
//!   over those counts: no incremental distinct count, min-sum or bit
//!   lane.
//! * Each model's float tail is written out here in the same operation
//!   order as the kernel's, so equal windows give bit-identical values.
//! * The state machine is the spec's own: warm-up, RN/LNN anchoring,
//!   Slide/Move resizing, `resetStats`, and the phase-end flush that
//!   re-seeds the CW with the last `skip` elements. Only the public
//!   [`Analyzer`] and the config types are borrowed from the crate.

use std::collections::VecDeque;

use opd_core::{
    Analyzer, AnchorPolicy, DetectedPhase, DetectorConfig, ModelPolicy, ResizePolicy, TwPolicy,
};
use opd_trace::{PhaseState, StateSeq};

/// The CW/TW pair over interned ids.
#[derive(Debug, Clone)]
pub struct SpecWindows {
    /// Oldest element first.
    pub tw: VecDeque<u32>,
    /// Oldest element first; the newest element is the CW's back.
    pub cw: VecDeque<u32>,
    cw_cap: usize,
    tw_cap: usize,
    /// `(CW count, TW count)` per site id.
    counts: Vec<(u64, u64)>,
    /// Elements pushed so far: the global offset one past the CW.
    end: u64,
    /// Both windows have filled since the last flush.
    pub warm: bool,
}

impl SpecWindows {
    pub fn new(cw_cap: usize, tw_cap: usize) -> Self {
        SpecWindows {
            tw: VecDeque::new(),
            cw: VecDeque::new(),
            cw_cap,
            tw_cap,
            counts: Vec::new(),
            end: 0,
            warm: false,
        }
    }

    // The four primitives: the only places a count changes.

    fn cw_push(&mut self, id: u32) {
        let site = id as usize;
        if site >= self.counts.len() {
            self.counts.resize(site + 1, (0, 0));
        }
        self.cw.push_back(id);
        self.counts[site].0 += 1;
    }

    fn cw_evict(&mut self) -> u32 {
        let id = self.cw.pop_front().expect("CW is not empty");
        self.counts[id as usize].0 -= 1;
        id
    }

    fn tw_push(&mut self, id: u32) {
        self.tw.push_back(id);
        self.counts[id as usize].1 += 1;
    }

    fn tw_evict(&mut self) -> u32 {
        let id = self.tw.pop_front().expect("TW is not empty");
        self.counts[id as usize].1 -= 1;
        id
    }

    pub fn cw_count(&self, id: u32) -> u64 {
        self.counts.get(id as usize).map_or(0, |c| c.0)
    }

    pub fn tw_count(&self, id: u32) -> u64 {
        self.counts.get(id as usize).map_or(0, |c| c.1)
    }

    /// Consumes one element: it enters the CW, the CW's oldest element
    /// moves to the TW once the CW is over capacity, and the TW evicts
    /// its oldest elements down to capacity unless `tw_grows` (an
    /// adaptive TW in phase).
    pub fn push(&mut self, id: u32, tw_grows: bool) {
        self.end += 1;
        self.cw_push(id);
        if self.cw.len() > self.cw_cap {
            let moved = self.cw_evict();
            self.tw_push(moved);
        }
        if !tw_grows {
            while self.tw.len() > self.tw_cap {
                self.tw_evict();
            }
        }
        if self.tw.len() >= self.tw_cap && self.cw.len() >= self.cw_cap {
            self.warm = true;
        }
    }

    /// Global offset of the TW element at `index`: the windows always
    /// hold the last `tw + cw` elements pushed.
    pub fn offset_of(&self, index: usize) -> u64 {
        self.end - (self.tw.len() + self.cw.len()) as u64 + index as u64
    }

    /// RN: one right of the rightmost TW element absent from the CW
    /// (0 if none is). LNN: the leftmost TW element present in the CW
    /// (the TW length if none is).
    pub fn anchor_index(&self, policy: AnchorPolicy) -> usize {
        let noisy = |j: usize| self.cw_count(self.tw[j]) == 0;
        match policy {
            AnchorPolicy::RightmostNoisy => (0..self.tw.len())
                .rev()
                .find(|&j| noisy(j))
                .map_or(0, |j| j + 1),
            AnchorPolicy::LeftmostNonNoisy => (0..self.tw.len())
                .find(|&j| !noisy(j))
                .unwrap_or(self.tw.len()),
        }
    }

    /// Drops the TW elements before `anchor`; Slide then refills the TW
    /// from the CW's oldest elements up to its capacity, keeping at
    /// least one CW element, while Move leaves the CW alone. Returns
    /// the anchor's global offset.
    pub fn anchor_and_resize(&mut self, anchor: usize, resize: ResizePolicy) -> u64 {
        let offset = self.offset_of(anchor);
        for _ in 0..anchor.min(self.tw.len()) {
            self.tw_evict();
        }
        if resize == ResizePolicy::Slide {
            while self.tw.len() < self.tw_cap && self.cw.len() > 1 {
                let moved = self.cw_evict();
                self.tw_push(moved);
            }
        }
        offset
    }

    /// `clearWindows`, then re-seeds the CW with the last `keep`
    /// elements the windows held, oldest first.
    pub fn clear_keep_last(&mut self, keep: usize) {
        let held: Vec<u32> = self.tw.iter().chain(&self.cw).copied().collect();
        while !self.tw.is_empty() {
            self.tw_evict();
        }
        while !self.cw.is_empty() {
            self.cw_evict();
        }
        for &id in &held[held.len().saturating_sub(keep)..] {
            self.cw_push(id);
        }
        self.warm = false;
    }

    /// The similarity of the two windows under `model`: one pass over
    /// every site's counts.
    pub fn similarity(&self, model: ModelPolicy) -> f64 {
        let (c, t) = (self.cw.len() as u64, self.tw.len() as u64);
        if c == 0 || t == 0 {
            return 0.0;
        }
        let sites = self.counts.iter();
        match model {
            ModelPolicy::UnweightedSet => {
                // Distinct CW sites, and those also in the TW.
                let (mut distinct, mut shared) = (0u64, 0u64);
                for &(cw, tw) in sites {
                    distinct += (cw > 0) as u64;
                    shared += (cw > 0 && tw > 0) as u64;
                }
                if distinct == 0 {
                    0.0
                } else {
                    shared as f64 / distinct as f64
                }
            }
            ModelPolicy::WeightedSet => {
                // Σ min(cw/c, tw/t), scaled by c·t to stay in integers.
                let min_sum: u64 = sites.map(|&(cw, tw)| (cw * t).min(tw * c)).sum();
                min_sum as f64 / (c * t) as f64
            }
            ModelPolicy::Pearson => {
                let (mut n, mut shared) = (0u64, 0u64);
                let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0u64, 0u64, 0u64, 0u64, 0u64);
                for &(a, b) in sites {
                    n += (a > 0 || b > 0) as u64;
                    shared += (a > 0 && b > 0) as u64;
                    sa += a;
                    sb += b;
                    saa += a * a;
                    sbb += b * b;
                    sab += a * b;
                }
                pearson(n, [sa, sb, saa, sbb, sab], shared)
            }
        }
    }
}

/// Pearson's r over the union of the supports (`n` sites, `shared` of
/// them in both windows), clamped to `[0, 1]`; zero variance counts as
/// similar only when the supports coincide.
fn pearson(n: u64, [sa, sb, saa, sbb, sab]: [u64; 5], shared: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = u128::from(n);
    let (sa, sb) = (u128::from(sa), u128::from(sb));
    let var_a = n * u128::from(saa) - sa * sa;
    let var_b = n * u128::from(sbb) - sb * sb;
    if var_a == 0 || var_b == 0 {
        return if u128::from(shared) == n { 1.0 } else { 0.0 };
    }
    let cov = (n * u128::from(sab)) as i128 - (sa * sb) as i128;
    let r = cov as f64 / ((var_a as f64).sqrt() * (var_b as f64).sqrt());
    r.clamp(0.0, 1.0)
}

/// Figure 3's `processProfile` over an id stream, one step at a time.
#[derive(Debug, Clone)]
pub struct SpecDetector {
    config: DetectorConfig,
    pub windows: SpecWindows,
    analyzer: Analyzer,
    pub state: PhaseState,
    pub consumed: u64,
    pub phases: Vec<DetectedPhase>,
    /// `(step, similarity)` of every judged step, in order.
    pub similarities: Vec<(u64, f64)>,
    steps: u64,
}

impl SpecDetector {
    pub fn new(config: DetectorConfig) -> Self {
        SpecDetector {
            windows: SpecWindows::new(config.current_window(), config.trailing_window()),
            analyzer: Analyzer::new(config.analyzer()),
            state: PhaseState::Transition,
            consumed: 0,
            phases: Vec::new(),
            similarities: Vec::new(),
            steps: 0,
            config,
        }
    }

    /// Runs over `ids` in `skip_factor`-sized steps and closes a phase
    /// still open at the end, returning the per-element states.
    pub fn run(config: DetectorConfig, ids: &[u32]) -> (Self, StateSeq) {
        let mut spec = SpecDetector::new(config);
        let mut states = StateSeq::with_capacity(ids.len());
        for step in ids.chunks(config.skip_factor()) {
            states.push_n(spec.step(step), step.len());
        }
        spec.finish();
        (spec, states)
    }

    /// The similarity of the most recent judged step.
    pub fn last_similarity(&self) -> Option<f64> {
        self.similarities.last().map(|&(_, sim)| sim)
    }

    /// Consumes one step of elements and returns its state.
    pub fn step(&mut self, ids: &[u32]) -> PhaseState {
        let adaptive = self.config.tw_policy() == TwPolicy::Adaptive;
        let tw_grows = adaptive && self.state.is_phase();
        for &id in ids {
            self.windows.push(id, tw_grows);
        }
        let start = self.consumed;
        self.consumed += ids.len() as u64;

        let new_state = if self.windows.warm {
            let sim = self.windows.similarity(self.config.model());
            self.similarities.push((self.steps, sim));
            self.analyzer.judge(sim)
        } else {
            PhaseState::Transition
        };
        match (self.state, new_state) {
            (PhaseState::Transition, PhaseState::Phase) => {
                let anchor = self.windows.anchor_index(self.config.anchor());
                let anchored_start = if adaptive {
                    self.windows.anchor_and_resize(anchor, self.config.resize())
                } else {
                    self.windows.offset_of(anchor)
                };
                self.analyzer.reset();
                self.phases.push(DetectedPhase {
                    start,
                    anchored_start,
                    end: None,
                });
            }
            (PhaseState::Phase, PhaseState::Transition) => {
                self.windows.clear_keep_last(self.config.skip_factor());
                self.phases.last_mut().expect("a phase is open").end = Some(start);
            }
            (PhaseState::Phase, PhaseState::Phase) => {
                let sim = self.last_similarity().expect("a phase step is judged");
                self.analyzer.update(sim);
            }
            (PhaseState::Transition, PhaseState::Transition) => {}
        }
        self.state = new_state;
        self.steps += 1;
        new_state
    }

    /// Closes a phase still open at the end of the stream.
    pub fn finish(&mut self) {
        if let Some(open) = self.phases.last_mut() {
            open.end.get_or_insert(self.consumed);
        }
    }
}
