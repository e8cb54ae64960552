//! The single-pass shared-window sweep engine.
//!
//! A parameter sweep runs many [`DetectorConfig`]s over one interned
//! trace. The expensive part of each run is *window maintenance* —
//! the per-site counts and membership lanes the window kernel updates
//! as elements enter the CW, move to the TW and are evicted — and it
//! depends only on the window **shape** `(cw, tw, skip)`, never on the
//! model, analyzer, or anchor policy. The engine therefore groups a
//! config grid by shape and, per Constant-TW group, makes **one** scan
//! of the trace: the shared windows advance once per step while each
//! member config evaluates only its cheap residue (memoized model
//! similarity, analyzer judgment, anchor bookkeeping, phase
//! boundaries).
//!
//! # Why sharing is exact (shape-group invariants)
//!
//! With a Constant trailing window and `skip ≤ cw`, window evolution is
//! a pure FIFO over the element stream: once `cw + tw` elements have
//! been consumed, the buffer holds *exactly the last `cw + tw`
//! elements*, independent of any per-config state. A private detector
//! differs from that saturated FIFO in exactly one way: at each phase
//! end it flushes its windows, keeping the last `skip` elements (Figure
//! 3's `clearWindows` with CW re-seeding). But a flushed detector is
//! not *warm* again until its buffer refills to `cw + tw` — which takes
//! `cw + tw − skip` further elements — and a non-warm detector reads
//! nothing from its windows (it reports `T` unconditionally). Once
//! refilled, its buffer again holds exactly the last `cw + tw` stream
//! elements at the same global offset, i.e. it is bit-identical to the
//! never-flushed shared window. So the engine tracks, per member, only
//! the element count at which the member becomes warm again
//! (`warm_from`), and the flush itself never has to happen.
//!
//! The `skip ≤ cw` restriction exists because a push transfers at most
//! one element from the CW to the TW: re-seeding the CW with `skip >
//! cw` elements would leave the CW over capacity while the TW refills,
//! so the private buffer would transiently hold *more* than `cw + tw`
//! elements at warm-up — a state the shared window never visits. Such
//! configs (rare: `full_grid` uses `skip ∈ {1, cw/10, cw}`) simply run
//! on the private path.
//!
//! # Adaptive-TW groups: the forking shared scan
//!
//! An Adaptive-TW config's windows deviate from the pure FIFO only
//! *while the config is inside a phase*: at phase entry it mutates the
//! windows (anchor and resize) and while in phase it suppresses TW
//! eviction, so in-phase window contents depend on the config's own
//! detection history. But outside a phase the same FIFO argument as
//! above applies — in Transition the TW policy never fires (`tw_grows`
//! is false), and after the phase-exit flush the refill path is
//! push-for-push identical to a Constant-TW refill, so the refilled
//! state is again bit-identical to the never-flushed FIFO at the same
//! offset. The engine therefore runs one shared FIFO per adaptive shape
//! group too, and handles phases by **forking**: at a member's phase
//! entry the FIFO state is snapshotted (forked), the anchor and resize
//! policies are applied to the snapshot, and the member judges that
//! *phase class* (advanced with TW growth each step) until its phase
//! ends — at which point the member records its refill point and
//! rejoins the FIFO pool, exactly like a Constant-TW flush.
//!
//! A class is identified by its **window boundaries**, not by the step
//! it was forked on. The windows are always contiguous trace slices:
//! TW = `trace[a..b)` and CW = `trace[b..c)`, where the end `c` is the
//! scan's element count and so common to every class. Two classes with
//! equal `(a, b)` therefore hold bit-identical windows, and their
//! members share one class:
//!
//! * **Join at entry.** An entering member computes the boundaries its
//!   anchor and resize policies would produce in closed form, before
//!   forking, and joins any live class with those boundaries. This
//!   covers same-step entrants — the four `(anchor, resize)` pairs
//!   routinely degenerate to one fork (both anchors return index 0
//!   when every TW site also occurs in the CW; Slide equals Move when
//!   the anchored TW is at capacity) — and members whose analyzers
//!   fire steps apart but anchor on the same phase start.
//! * **Merge at refill.** When a class's CW refills to capacity, it is
//!   merged into any live class with equal boundaries: its members are
//!   re-pointed, and its slot is freed.
//!
//! Together the two are complete: live classes never share
//! boundaries. In phase `a` is fixed, `b = c − cw_len`, and every
//! class's CW grows by the same step size until it reaches capacity.
//! Two classes with the same `a` but different CW lengths keep that
//! difference until the lagging one refills, so they can first
//! coincide only at an entry or at that refill step. On the `ruleng`
//! 100k-element full grid this cuts the live class-steps the
//! adaptive units advance and judge from 54.1M to 23.5M (2.30×).
//!
//! A class is freed as soon as its last member leaves, and freed
//! slots are recycled. In the worst case — every member permanently
//! in a phase of its own — this degrades to one windows-advance per
//! member per step, i.e. parity with private runs; in practice
//! members cluster into few classes and the shared FIFO carries all
//! Transition time.
//!
//! Only `skip > cw` configs keep fully private windows (with scratch
//! reuse), for the over-full-CW reason above; they run through the
//! same engine and its work distribution.
//!
//! Mixed-model groups are also exact: a model's similarity is a pure
//! function of the window contents, memoized once per step per model
//! and judged by every member that uses it.
//!
//! # Example
//!
//! ```
//! use opd_core::{DetectorConfig, InternedTrace, SweepEngine};
//! use opd_trace::{MethodId, ProfileElement};
//!
//! let elements: Vec<ProfileElement> = (0..600)
//!     .map(|i| ProfileElement::new(MethodId::new(0), i / 150, true))
//!     .collect();
//! let trace = InternedTrace::from_elements(elements.iter().copied());
//! // Two configs sharing one window shape: one shared scan.
//! let configs = vec![
//!     DetectorConfig::builder().current_window(40).build()?,
//!     DetectorConfig::builder()
//!         .current_window(40)
//!         .model(opd_core::ModelPolicy::WeightedSet)
//!         .build()?,
//! ];
//! let engine = SweepEngine::new(&configs);
//! assert_eq!(engine.units().len(), 1);
//! assert_eq!(engine.total_scans(), 1);
//! let phases = engine.run_all(&trace);
//! assert_eq!(phases.len(), configs.len());
//! # Ok::<(), opd_core::ConfigError>(())
//! ```

use std::borrow::BorrowMut;
use std::collections::HashMap;

use opd_trace::{DetectorEvent, DetectorObserver, NullObserver, PhaseState};

use crate::analyzer::Analyzer;
use crate::boundary::DetectedPhase;
use crate::config::{AnchorPolicy, ConfigShape, DetectorConfig, ResizePolicy};
use crate::detector::PhaseDetector;
use crate::intern::InternedTrace;
use crate::kernel::{SwarKernelState, SwarWindows};
use crate::model::ModelPolicy;

/// Error from the fallible sweep entry points
/// ([`SweepEngine::try_run_unit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepError {
    /// The requested unit index does not exist in this plan.
    UnitOutOfRange {
        /// The index the caller asked for.
        unit_index: usize,
        /// How many units the plan actually has.
        units: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SweepError::UnitOutOfRange { unit_index, units } => write!(
                f,
                "sweep unit index {unit_index} out of range: plan has {units} unit(s)"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// How a planned [`SweepUnit`] scans the trace (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// A same-shape Constant-TW group: one shared FIFO scan.
    SharedConstant,
    /// A same-shape Adaptive-TW group: one shared FIFO scan with
    /// copy-on-phase-entry forks.
    SharedAdaptive,
    /// One private detector run per config (`skip > cw`).
    Private,
}

/// One schedulable piece of a sweep: either a shape group that scans
/// the trace once for all members, or a single private-window config.
#[derive(Debug, Clone)]
pub struct SweepUnit {
    config_indices: Vec<usize>,
    kind: UnitKind,
}

impl SweepUnit {
    /// Indices (into the engine's config slice) this unit covers.
    #[must_use]
    pub fn config_indices(&self) -> &[usize] {
        &self.config_indices
    }

    /// How this unit scans the trace.
    #[must_use]
    pub fn kind(&self) -> UnitKind {
        self.kind
    }

    /// `true` if this unit advances one shared window for all members.
    #[must_use]
    pub fn is_shared(&self) -> bool {
        self.kind != UnitKind::Private
    }

    /// Trace scans this unit performs (1 for shared groups).
    #[must_use]
    pub fn scans(&self) -> usize {
        if self.is_shared() {
            1
        } else {
            self.config_indices.len()
        }
    }
}

/// Per-thread reusable state: one [`PhaseDetector`] for private-path
/// runs and one kernel state for shared scans, whose per-site tables
/// are sized once per trace and reused across configs and units.
#[derive(Debug, Default)]
pub struct SweepScratch {
    detector: Option<PhaseDetector>,
    /// SWAR-kernel state for the shared scan path (the private path's
    /// lives inside `detector`); like the detector, its per-site
    /// allocations persist across units.
    shared_swar: SwarKernelState,
    site_capacity: usize,
}

impl SweepScratch {
    /// An empty scratch; allocations build up on first use.
    #[must_use]
    pub fn new() -> Self {
        SweepScratch::default()
    }

    /// A scratch whose window tables are pre-sized for `n_sites`
    /// distinct elements (typically a static alphabet bound from
    /// `opd-analyze`), so runs over traces with at most that many
    /// sites never grow them mid-scan.
    #[must_use]
    pub fn with_site_capacity(n_sites: usize) -> Self {
        SweepScratch {
            detector: None,
            shared_swar: SwarKernelState::default(),
            site_capacity: n_sites,
        }
    }

    fn detector_for(&mut self, config: DetectorConfig) -> &mut PhaseDetector {
        let detector = match &mut self.detector {
            Some(d) => {
                d.reconfigure(config);
                d
            }
            slot @ None => slot.insert(PhaseDetector::new(config)),
        };
        detector.reserve_sites(self.site_capacity);
        detector
    }
}

/// A planned sweep of one config grid: shape groups for Constant-TW
/// configs, private units for the rest (see module docs).
///
/// The engine is scan-order deterministic: results depend only on the
/// configs and the trace, never on unit scheduling, so callers may run
/// units across threads (each unit's results carry config indices).
#[derive(Debug)]
pub struct SweepEngine<'a> {
    configs: &'a [DetectorConfig],
    units: Vec<SweepUnit>,
}

impl<'a> SweepEngine<'a> {
    /// Plans a sweep over `configs`: groups shareable configs by
    /// window shape (first-seen order) and gives every other config a
    /// private unit.
    #[must_use]
    pub fn new(configs: &'a [DetectorConfig]) -> Self {
        // Constant-TW and Adaptive-TW groups are keyed separately:
        // identical shapes under different TW policies cannot share a
        // scan (the adaptive scan forks, the constant one never does).
        let mut constant_group: HashMap<ConfigShape, usize> = HashMap::new();
        let mut adaptive_group: HashMap<ConfigShape, usize> = HashMap::new();
        let mut units: Vec<SweepUnit> = Vec::new();
        for (i, config) in configs.iter().enumerate() {
            let group = if config.shares_windows() {
                Some((&mut constant_group, UnitKind::SharedConstant))
            } else if config.shares_windows_adaptively() {
                Some((&mut adaptive_group, UnitKind::SharedAdaptive))
            } else {
                None
            };
            match group {
                Some((group_of, kind)) => {
                    let unit = *group_of.entry(config.shape()).or_insert_with(|| {
                        units.push(SweepUnit {
                            config_indices: Vec::new(),
                            kind,
                        });
                        units.len() - 1
                    });
                    units[unit].config_indices.push(i);
                }
                None => units.push(SweepUnit {
                    config_indices: vec![i],
                    kind: UnitKind::Private,
                }),
            }
        }
        SweepEngine { configs, units }
    }

    /// The configs this engine plans over.
    #[must_use]
    pub fn configs(&self) -> &'a [DetectorConfig] {
        self.configs
    }

    /// The planned units, in deterministic planning order.
    #[must_use]
    pub fn units(&self) -> &[SweepUnit] {
        &self.units
    }

    /// Total trace scans the plan performs; a naive sweep performs
    /// one per config.
    #[must_use]
    pub fn total_scans(&self) -> usize {
        self.units.iter().map(SweepUnit::scans).sum()
    }

    /// Runs one planned unit over `trace`, returning `(config index,
    /// detected phases)` per member. `scratch` carries reusable
    /// allocations across calls on the same thread.
    ///
    /// # Panics
    ///
    /// Panics if `unit_index` is out of range;
    /// [`Self::try_run_unit`] is the non-panicking form.
    #[must_use]
    pub fn run_unit(
        &self,
        unit_index: usize,
        trace: &InternedTrace,
        scratch: &mut SweepScratch,
    ) -> Vec<(usize, Vec<DetectedPhase>)> {
        match self.try_run_unit(unit_index, trace, scratch) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs one planned unit over `trace`, returning
    /// [`SweepError::UnitOutOfRange`] instead of panicking when
    /// `unit_index` does not name a planned unit — the entry point
    /// for callers driving the engine from external indices
    /// (checkpoint resume, work queues).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::UnitOutOfRange`] if `unit_index >=
    /// self.units().len()`.
    pub fn try_run_unit(
        &self,
        unit_index: usize,
        trace: &InternedTrace,
        scratch: &mut SweepScratch,
    ) -> Result<Vec<(usize, Vec<DetectedPhase>)>, SweepError> {
        let unit = self
            .units
            .get(unit_index)
            .ok_or(SweepError::UnitOutOfRange {
                unit_index,
                units: self.units.len(),
            })?;
        Ok(self.run_unit_observed(unit, trace, scratch, &mut NullObserver))
    }

    /// The one unit body behind [`run_unit`](Self::run_unit) (the
    /// [`NullObserver`] instantiation) and the metered path. Shared
    /// scans emit one `Step` event per step and one `Similarity` event
    /// per judged member; private members emit their detector's full
    /// event stream.
    fn run_unit_observed<O: DetectorObserver>(
        &self,
        unit: &SweepUnit,
        trace: &InternedTrace,
        scratch: &mut SweepScratch,
        observer: &mut O,
    ) -> Vec<(usize, Vec<DetectedPhase>)> {
        match unit.kind {
            UnitKind::SharedConstant | UnitKind::SharedAdaptive => {
                run_shared_unit(self.configs, unit, trace, scratch, observer)
            }
            UnitKind::Private => unit
                .config_indices
                .iter()
                .map(|&i| {
                    let detector = scratch.detector_for(self.configs[i]);
                    let _ = detector.run_interned_phases_observed(trace, observer);
                    (i, detector.take_phases())
                })
                .collect(),
        }
    }

    /// Runs the whole plan sequentially, returning phases in config
    /// order.
    #[must_use]
    pub fn run_all(&self, trace: &InternedTrace) -> Vec<Vec<DetectedPhase>> {
        let mut scratch = SweepScratch::new();
        let mut out: Vec<Vec<DetectedPhase>> = vec![Vec::new(); self.configs.len()];
        for unit_index in 0..self.units.len() {
            for (config_index, phases) in self.run_unit(unit_index, trace, &mut scratch) {
                out[config_index] = phases;
            }
        }
        out
    }
}

/// The metered sweep entry point, available with the `obs` feature.
#[cfg(feature = "obs")]
impl SweepEngine<'_> {
    /// [`run_unit`](Self::run_unit) plus accounting: accumulates what
    /// the unit actually did (scans, steps, judged steps, comparison
    /// ops, elements) into `metrics`, for cross-checking against the
    /// static cost model's bounds. Results are identical to
    /// `run_unit`'s: both run the same body, here with a
    /// [`MeterObserver`](opd_obs::MeterObserver) in place of the null
    /// observer.
    ///
    /// # Panics
    ///
    /// Panics if `unit_index` is out of range.
    #[must_use]
    pub fn run_unit_metered(
        &self,
        unit_index: usize,
        trace: &InternedTrace,
        scratch: &mut SweepScratch,
        metrics: &mut opd_obs::UnitMetrics,
    ) -> Vec<(usize, Vec<DetectedPhase>)> {
        let unit = &self.units[unit_index];
        let mut meter = opd_obs::MeterObserver::new();
        let results = self.run_unit_observed(unit, trace, scratch, &mut meter);
        let scans = unit.scans() as u64;
        metrics.scans += scans;
        metrics.elements += scans * trace.len() as u64;
        metrics.merge(&meter.metrics);
        results
    }
}

/// Comparison ops a shared-scan member pays when it judges a similarity
/// another member already computed this step: only the analyzer's
/// fixed judge overhead.
const MEMO_HIT_OPS: u64 = 2;

/// Emits a shared-scan member's `Similarity` event. A fresh model-slot
/// computation charges the kernel's full runtime comparison cost; a
/// memo hit charges [`MEMO_HIT_OPS`]. Each fresh computation is
/// attributable to the distinct member that triggered it (a member
/// judges exactly one window state per step), so shared-scan
/// comparison ops stay at or below the static per-member bound.
#[inline(always)]
fn observe_similarity<O: DetectorObserver, S: BorrowMut<SwarKernelState>>(
    observer: &mut O,
    windows: &SwarWindows<'_, S>,
    member: &Member,
    step: u64,
    value: f64,
    fresh: bool,
) {
    if O::ACTIVE {
        observer.on_event(&DetectorEvent::Similarity {
            step,
            value,
            threshold: member.analyzer.effective_threshold(),
            ops: if fresh {
                windows.judge_ops(member.config.model())
            } else {
                MEMO_HIT_OPS
            },
        });
    }
}

/// Emits a shared scan's per-step `Step` event.
#[inline(always)]
fn observe_step<O: DetectorObserver>(
    observer: &mut O,
    step: u64,
    start: u64,
    len: usize,
    warm: bool,
) {
    if O::ACTIVE {
        observer.on_event(&DetectorEvent::Step {
            step,
            start,
            len: len as u32,
            warm,
        });
    }
}

fn model_slot(model: ModelPolicy) -> usize {
    match model {
        ModelPolicy::UnweightedSet => 0,
        ModelPolicy::WeightedSet => 1,
        ModelPolicy::Pearson => 2,
    }
}

/// A member's slot when it currently judges the shared windows (not a
/// phase class).
const NO_CLASS: usize = usize::MAX;

/// A member config's cheap residue state within a shared scan.
struct Member {
    config_index: usize,
    config: DetectorConfig,
    analyzer: Analyzer,
    state: PhaseState,
    /// In a forking (Adaptive-TW) scan: index into the scan's class
    /// table while in Phase, [`NO_CLASS`] while in Transition (judging
    /// the shared FIFO). Constant-TW scans never fork and leave it at
    /// [`NO_CLASS`].
    class: usize,
    /// Element count from which this member's (virtual) private
    /// windows are full again after its last flush; warm iff the
    /// shared windows are warm and `consumed >= warm_from`.
    warm_from: u64,
    phases: Vec<DetectedPhase>,
}

impl Member {
    /// Member `config_index` at the start of a scan: in Transition,
    /// judging the shared windows.
    fn new(config_index: usize, config: DetectorConfig) -> Self {
        Member {
            config_index,
            config,
            analyzer: Analyzer::new(config.analyzer()),
            state: PhaseState::Transition,
            class: NO_CLASS,
            warm_from: 0,
            phases: Vec::new(),
        }
    }
}

/// One scan of `trace` evaluating every member of a shared unit: a
/// Constant-TW group against shared windows, or an Adaptive-TW group
/// against a shared FIFO with copy-on-phase-entry forks. See the
/// module docs for the exactness argument; the debug checks below are
/// its preconditions (the
/// planner only groups configs shareable under the unit's TW policy
/// and of identical shape, and sharing is exact only when a flush's
/// kept elements fit in the CW, `skip <= cw`).
fn run_shared_unit<O: DetectorObserver>(
    configs: &[DetectorConfig],
    unit: &SweepUnit,
    trace: &InternedTrace,
    scratch: &mut SweepScratch,
    observer: &mut O,
) -> Vec<(usize, Vec<DetectedPhase>)> {
    let member_indices = &unit.config_indices;
    let adaptive = unit.kind == UnitKind::SharedAdaptive;
    let first = &configs[member_indices[0]];
    let (cw, tw, skip) = (
        first.current_window(),
        first.trailing_window(),
        first.skip_factor(),
    );
    debug_assert!(skip >= 1 && cw >= 1 && tw >= 1, "windows have capacity");
    debug_assert!(skip <= cw, "shared scan requires skip <= cw");
    debug_assert!(
        member_indices.iter().all(|&i| {
            let shareable = if adaptive {
                configs[i].shares_windows_adaptively()
            } else {
                configs[i].shares_windows()
            };
            shareable && configs[i].shape() == first.shape()
        }),
        "shared unit members must be shareable under the unit's TW policy and same-shape"
    );
    let members: Vec<Member> = member_indices
        .iter()
        .map(|&i| Member::new(i, configs[i]))
        .collect();
    let sites = (trace.distinct_count() as usize).max(scratch.site_capacity);
    scratch.shared_swar.ensure_sites(sites);
    let mut windows = SwarWindows::begin(&mut scratch.shared_swar, trace, skip, cw, tw);
    if adaptive {
        let mut classes = PhaseClasses::new();
        run_shared_adaptive_scan(members, trace, skip, &mut windows, &mut classes, observer)
    } else {
        run_shared_group_scan(members, trace, skip, &mut windows, observer)
    }
}

/// Closes every member's phase still open at the end of a scan of
/// `consumed` elements and returns `(config index, phases)` per member.
fn close_members(members: Vec<Member>, consumed: u64) -> Vec<(usize, Vec<DetectedPhase>)> {
    members
        .into_iter()
        .map(|mut m| {
            if let Some(open) = m.phases.last_mut() {
                if open.end.is_none() {
                    open.end = Some(consumed);
                }
            }
            (m.config_index, m.phases)
        })
        .collect()
}

/// The Constant-TW shared scan loop: one window advance per step,
/// every member evaluating only its cheap residue against the memoized
/// per-model similarities.
fn run_shared_group_scan<O: DetectorObserver>(
    mut members: Vec<Member>,
    trace: &InternedTrace,
    skip: usize,
    windows: &mut SwarWindows<'_>,
    observer: &mut O,
) -> Vec<(usize, Vec<DetectedPhase>)> {
    let first = &members[0].config;
    // After a flush keeps `skip` elements, a private window is full
    // (warm) again `cw + tw - skip` elements later.
    let refill = (first.current_window() + first.trailing_window() - skip) as u64;
    let mut consumed = 0u64;
    // Per-step memo of each distinct model's similarity against the
    // shared windows: computed once per step, judged by every member.
    let mut sims = [0.0f64; 3];
    for (step, chunk) in (0u64..).zip(trace.ids().chunks(skip)) {
        windows.advance(chunk, false);
        let step_start = consumed;
        consumed += chunk.len() as u64;
        let shared_warm = windows.is_warm();
        observe_step(observer, step, step_start, chunk.len(), shared_warm);
        let mut have = [false; 3];
        for m in &mut members {
            let (new_state, sim) = if shared_warm && consumed >= m.warm_from {
                let slot = model_slot(m.config.model());
                let fresh = !have[slot];
                if fresh {
                    sims[slot] = windows.similarity(m.config.model());
                    have[slot] = true;
                }
                observe_similarity(observer, windows, m, step, sims[slot], fresh);
                (m.analyzer.judge(sims[slot]), sims[slot])
            } else {
                (PhaseState::Transition, 0.0)
            };
            match (m.state, new_state) {
                (PhaseState::Transition, PhaseState::Phase) => {
                    // Phase start: anchor against the shared windows
                    // (Constant TW never resizes) and reset stats.
                    let anchor_idx = windows.anchor_index(m.config.anchor());
                    m.analyzer.reset();
                    m.phases.push(DetectedPhase {
                        start: step_start,
                        anchored_start: windows.offset_of_index(anchor_idx),
                        end: None,
                    });
                }
                (PhaseState::Phase, PhaseState::Transition) => {
                    // Phase end: a private detector would flush its
                    // windows here; tracking the refill point is
                    // equivalent and keeps the scan shared.
                    m.warm_from = consumed + refill;
                    if let Some(open) = m.phases.last_mut() {
                        open.end = Some(step_start);
                    }
                }
                (PhaseState::Phase, PhaseState::Phase) => {
                    m.analyzer.update(sim);
                }
                (PhaseState::Transition, PhaseState::Transition) => {}
            }
            m.state = new_state;
        }
    }
    close_members(members, consumed)
}

/// One forked window state, shared by every in-phase member whose
/// windows have the same boundaries (see the module docs).
struct PhaseClass<'a> {
    windows: SwarWindows<'a, SwarKernelState>,
    members: usize,
    /// Per-model similarity memo against `windows`, reset each step.
    sims: [f64; 3],
    have: [bool; 3],
}

/// A window state's boundaries `(a, b)`: TW = `trace[a..b)` and CW =
/// `trace[b..c)`, where the end `c` is the scan's element count and so
/// common to every class. Equal boundaries mean bit-identical windows.
fn boundaries<S: BorrowMut<SwarKernelState>>(windows: &SwarWindows<'_, S>) -> (u64, u64) {
    let a = windows.offset_of_index(0);
    (a, a + windows.tw_len() as u64)
}

/// A class-table event, logged by the unit tests to pin that joins,
/// merges and slot recycling actually happen.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClassEvent {
    Fork { slot: usize, step: u64 },
    Join { slot: usize, step: u64 },
    Merge { from: usize, into: usize },
}

/// The live phase classes of one forking scan, at most one per
/// boundary pair. Freed slots are recycled, so the table stays at the
/// peak number of *live* classes.
struct PhaseClasses<'a> {
    slots: Vec<PhaseClass<'a>>,
    free: Vec<usize>,
    /// Slots whose CW filled to capacity during this step's advance:
    /// the only classes that can have converged onto another.
    refilled: Vec<usize>,
    #[cfg(test)]
    log: Vec<ClassEvent>,
}

impl<'a> PhaseClasses<'a> {
    fn new() -> Self {
        PhaseClasses {
            slots: Vec::new(),
            free: Vec::new(),
            refilled: Vec::new(),
            #[cfg(test)]
            log: Vec::new(),
        }
    }

    /// Advances every live class by one step with TW growth, noting
    /// the classes whose CW this step filled to `cw_cap`.
    fn advance(&mut self, chunk: &[u32], cw_cap: usize) {
        for (slot, class) in self.slots.iter_mut().enumerate() {
            if class.members > 0 {
                let was_full = class.windows.cw_len() == cw_cap;
                class.windows.advance(chunk, true);
                class.have = [false; 3];
                if !was_full && class.windows.cw_len() == cw_cap {
                    self.refilled.push(slot);
                }
            }
        }
    }

    /// The live class, other than slot `except`, whose windows have
    /// boundaries `key`.
    fn find(&self, key: (u64, u64), except: usize) -> Option<usize> {
        (0..self.slots.len()).find(|&slot| {
            let class = &self.slots[slot];
            slot != except && class.members > 0 && boundaries(&class.windows) == key
        })
    }

    /// Merges every class refilled this step into the live class with
    /// equal boundaries, if there is one, re-pointing its members.
    fn merge_refilled(&mut self, members: &mut [Member]) {
        for k in 0..self.refilled.len() {
            let from = self.refilled[k];
            let Some(into) = self.find(boundaries(&self.slots[from].windows), from) else {
                continue;
            };
            self.slots[into].members += std::mem::take(&mut self.slots[from].members);
            self.free.push(from);
            for m in members.iter_mut().filter(|m| m.class == from) {
                m.class = into;
            }
            #[cfg(test)]
            self.log.push(ClassEvent::Merge { from, into });
        }
        self.refilled.clear();
    }

    /// Stores a freshly forked window state in a free slot.
    fn insert(&mut self, windows: SwarWindows<'a, SwarKernelState>) -> usize {
        let class = PhaseClass {
            windows,
            members: 0,
            sims: [0.0; 3],
            have: [false; 3],
        };
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = class;
                slot
            }
            None => {
                self.slots.push(class);
                self.slots.len() - 1
            }
        }
    }

    /// Removes one member from `slot`, freeing the slot when it empties.
    fn leave(&mut self, slot: usize) {
        let class = &mut self.slots[slot];
        class.members -= 1;
        if class.members == 0 {
            self.free.push(slot);
        }
    }
}

fn anchor_slot(policy: AnchorPolicy) -> usize {
    match policy {
        AnchorPolicy::RightmostNoisy => 0,
        AnchorPolicy::LeftmostNonNoisy => 1,
    }
}

/// The forking scan loop: one FIFO advance plus one advance per live
/// phase class per step, every member judging either the memoized FIFO
/// similarities (in Transition) or its class's (in Phase).
fn run_shared_adaptive_scan<'a, O: DetectorObserver>(
    mut members: Vec<Member>,
    trace: &InternedTrace,
    skip: usize,
    fifo: &mut SwarWindows<'a>,
    classes: &mut PhaseClasses<'a>,
    observer: &mut O,
) -> Vec<(usize, Vec<DetectedPhase>)> {
    let first = &members[0].config;
    let refill = (first.current_window() + first.trailing_window() - skip) as u64;
    let cw_cap = first.current_window();
    let tw_cap = first.trailing_window() as u64;
    let mut consumed = 0u64;
    let mut fifo_sims = [0.0f64; 3];
    for (step, chunk) in (0u64..).zip(trace.ids().chunks(skip)) {
        // Members still in a phase pushed this step's elements with
        // TW growth (they were in Phase when the step began); the
        // class advance must precede the member loop for the same
        // reason the FIFO advance does. A class whose CW just refilled
        // may have converged onto another; merging it now lets the
        // member loop judge one class where it would have judged two.
        fifo.advance(chunk, false);
        classes.advance(chunk, cw_cap);
        classes.merge_refilled(&mut members);
        let step_start = consumed;
        consumed += chunk.len() as u64;
        let fifo_warm = fifo.is_warm();
        observe_step(observer, step, step_start, chunk.len(), fifo_warm);
        let mut fifo_have = [false; 3];
        // Per-step memo of the FIFO anchor index per anchor policy.
        let mut anchor_memo: [Option<usize>; 2] = [None; 2];
        for m in &mut members {
            if m.state == PhaseState::Phase {
                // In Phase the member's windows are its class's fork.
                let class = &mut classes.slots[m.class];
                let slot = model_slot(m.config.model());
                let fresh = !class.have[slot];
                if fresh {
                    class.sims[slot] = class.windows.similarity(m.config.model());
                    class.have[slot] = true;
                }
                let sim = class.sims[slot];
                observe_similarity(observer, &class.windows, m, step, sim, fresh);
                let new_state = m.analyzer.judge(sim);
                if new_state == PhaseState::Phase {
                    m.analyzer.update(sim);
                } else {
                    // Phase end: a private detector would flush its
                    // windows here; the member leaves its class and
                    // tracks the refill point instead.
                    classes.leave(m.class);
                    m.class = NO_CLASS;
                    m.warm_from = consumed + refill;
                    if let Some(open) = m.phases.last_mut() {
                        open.end = Some(step_start);
                    }
                }
                m.state = new_state;
            } else {
                // In Transition the member's (virtual) private
                // windows coincide with the shared FIFO once
                // refilled, exactly as in the Constant-TW scan.
                let new_state = if fifo_warm && consumed >= m.warm_from {
                    let slot = model_slot(m.config.model());
                    let fresh = !fifo_have[slot];
                    if fresh {
                        fifo_sims[slot] = fifo.similarity(m.config.model());
                        fifo_have[slot] = true;
                    }
                    observe_similarity(observer, fifo, m, step, fifo_sims[slot], fresh);
                    m.analyzer.judge(fifo_sims[slot])
                } else {
                    PhaseState::Transition
                };
                if new_state == PhaseState::Phase {
                    // Phase start: join the live class whose windows
                    // have the boundaries this member's anchor and
                    // resize would produce, computed here in closed
                    // form, or fork the FIFO if there is none. The
                    // anchor pops `anchor_idx` elements from the TW
                    // front; Slide then tops the TW back up from the
                    // CW, whose last element (offset `consumed - 1`)
                    // never moves.
                    let a_slot = anchor_slot(m.config.anchor());
                    let anchor_idx = *anchor_memo[a_slot]
                        .get_or_insert_with(|| fifo.anchor_index(m.config.anchor()));
                    let a0 = fifo.offset_of_index(0);
                    let b0 = a0 + fifo.tw_len() as u64;
                    let a2 = a0 + anchor_idx as u64;
                    let b2 = if m.config.resize() == ResizePolicy::Slide {
                        b0.max((a2 + tw_cap).min(consumed - 1))
                    } else {
                        b0
                    };
                    let class_idx = match classes.find((a2, b2), NO_CLASS) {
                        Some(slot) => {
                            #[cfg(test)]
                            classes.log.push(ClassEvent::Join { slot, step });
                            slot
                        }
                        None => {
                            let mut windows = fifo.fork();
                            let anchored_start =
                                windows.anchor_and_resize(anchor_idx, m.config.resize());
                            debug_assert_eq!(anchored_start, a2);
                            debug_assert_eq!(boundaries(&windows), (a2, b2));
                            let slot = classes.insert(windows);
                            #[cfg(test)]
                            classes.log.push(ClassEvent::Fork { slot, step });
                            slot
                        }
                    };
                    classes.slots[class_idx].members += 1;
                    m.class = class_idx;
                    m.analyzer.reset();
                    m.phases.push(DetectedPhase {
                        start: step_start,
                        anchored_start: a2,
                        end: None,
                    });
                }
                m.state = new_state;
            }
        }
    }
    close_members(members, consumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalyzerPolicy;
    use crate::boundary::{anchored_intervals, detected_intervals};
    use crate::config::TwPolicy;
    use opd_trace::{MethodId, ProfileElement};

    fn block_trace(blocks: u32, block_len: u32, sites_per_block: u32) -> InternedTrace {
        let elements = (0..blocks).flat_map(move |b| {
            (0..block_len).map(move |i| {
                ProfileElement::new(
                    MethodId::new(0),
                    b * sites_per_block + i % sites_per_block,
                    true,
                )
            })
        });
        InternedTrace::from_elements(elements)
    }

    fn reference(config: DetectorConfig, trace: &InternedTrace) -> Vec<DetectedPhase> {
        let mut d = PhaseDetector::new(config);
        let _ = d.run_interned(trace);
        d.take_phases()
    }

    fn mixed_grid() -> Vec<DetectorConfig> {
        let mut configs = Vec::new();
        for cw in [8usize, 16] {
            for skip in [1usize, 3, 8] {
                for model in ModelPolicy::ALL_EXTENDED {
                    for analyzer in [
                        AnalyzerPolicy::Threshold(0.5),
                        AnalyzerPolicy::Threshold(0.9),
                        AnalyzerPolicy::Average { delta: 0.2 },
                    ] {
                        configs.push(
                            DetectorConfig::builder()
                                .current_window(cw)
                                .trailing_window(cw)
                                .skip_factor(skip)
                                .model(model)
                                .analyzer(analyzer)
                                .build()
                                .unwrap(),
                        );
                    }
                }
            }
        }
        // Adaptive configs: the forking shared-scan path. Spreading
        // models, analyzers, and both policy pairs makes members
        // enter and leave phases on different steps, exercising
        // class sharing, divergent class evolution, class retirement,
        // and slot recycling.
        for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy] {
            for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
                for model in ModelPolicy::ALL_EXTENDED {
                    for analyzer in [
                        AnalyzerPolicy::Threshold(0.3),
                        AnalyzerPolicy::Threshold(0.7),
                        AnalyzerPolicy::Average { delta: 0.2 },
                    ] {
                        configs.push(
                            DetectorConfig::builder()
                                .current_window(12)
                                .tw_policy(TwPolicy::Adaptive)
                                .anchor(anchor)
                                .resize(resize)
                                .model(model)
                                .analyzer(analyzer)
                                .build()
                                .unwrap(),
                        );
                    }
                }
            }
        }
        // A second adaptive shape, with skip > 1.
        configs.push(
            DetectorConfig::builder()
                .current_window(8)
                .trailing_window(6)
                .skip_factor(3)
                .tw_policy(TwPolicy::Adaptive)
                .build()
                .unwrap(),
        );
        // A skip > cw config: shareable() must route it privately.
        configs.push(
            DetectorConfig::builder()
                .current_window(4)
                .trailing_window(8)
                .skip_factor(9)
                .build()
                .unwrap(),
        );
        configs
    }

    #[test]
    fn plan_groups_by_shape() {
        let configs = mixed_grid();
        let engine = SweepEngine::new(&configs);
        // 2 cw × 3 skip constant groups + 2 adaptive shape groups
        // + 1 private skip>cw.
        assert_eq!(engine.units().len(), 6 + 2 + 1);
        assert_eq!(engine.total_scans(), 6 + 2 + 1);
        assert!(engine.total_scans() < configs.len());
        let covered: usize = engine
            .units()
            .iter()
            .map(|u| u.config_indices().len())
            .sum();
        assert_eq!(covered, configs.len());
        for unit in engine.units() {
            assert!(unit.scans() > 0);
            assert_eq!(unit.is_shared(), unit.kind() != UnitKind::Private);
            if unit.is_shared() {
                let shape = configs[unit.config_indices()[0]].shape();
                for &i in unit.config_indices() {
                    assert_eq!(configs[i].shape(), shape);
                    match unit.kind() {
                        UnitKind::SharedConstant => assert!(configs[i].shares_windows()),
                        UnitKind::SharedAdaptive => {
                            assert!(configs[i].shares_windows_adaptively());
                        }
                        UnitKind::Private => unreachable!(),
                    }
                }
            }
        }
    }

    #[test]
    fn engine_matches_sequential_detectors_exactly() {
        let configs = mixed_grid();
        let engine = SweepEngine::new(&configs);
        for trace in [
            block_trace(3, 120, 4),
            block_trace(1, 50, 2),
            block_trace(5, 37, 6),
        ] {
            let all = engine.run_all(&trace);
            for (i, config) in configs.iter().enumerate() {
                let expected = reference(*config, &trace);
                assert_eq!(all[i], expected, "config {i}: {config:?}");
                // Interval views are derived data, but compare them
                // too: they are what sweeps ultimately score.
                let total = trace.len() as u64;
                assert_eq!(
                    detected_intervals(&all[i], total),
                    detected_intervals(&expected, total)
                );
                assert_eq!(
                    anchored_intervals(&all[i], total),
                    anchored_intervals(&expected, total)
                );
            }
        }
    }

    #[test]
    fn engine_handles_empty_and_short_traces() {
        let configs = vec![DetectorConfig::builder().current_window(8).build().unwrap()];
        let engine = SweepEngine::new(&configs);
        let empty = InternedTrace::from_elements(std::iter::empty());
        assert_eq!(engine.run_all(&empty), vec![Vec::new()]);
        // Shorter than cw + tw: never warm, no phases.
        let short = block_trace(1, 10, 2);
        assert_eq!(engine.run_all(&short), vec![Vec::new()]);
    }

    #[test]
    fn out_of_range_unit_is_a_typed_error() {
        let configs = vec![DetectorConfig::builder().current_window(8).build().unwrap()];
        let engine = SweepEngine::new(&configs);
        let trace = block_trace(1, 40, 2);
        let mut scratch = SweepScratch::new();
        let err = engine.try_run_unit(7, &trace, &mut scratch).unwrap_err();
        assert_eq!(
            err,
            SweepError::UnitOutOfRange {
                unit_index: 7,
                units: 1
            }
        );
        assert!(err.to_string().contains("out of range"));
        // In-range requests still succeed through the fallible path.
        let ok = engine.try_run_unit(0, &trace, &mut scratch).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn metered_units_match_unmetered_results() {
        let configs = mixed_grid();
        let trace = block_trace(3, 120, 4);
        let engine = SweepEngine::new(&configs);
        let mut scratch = SweepScratch::new();
        let mut metrics = opd_obs::UnitMetrics::new();
        for unit_index in 0..engine.units().len() {
            let plain = engine.run_unit(unit_index, &trace, &mut scratch);
            let metered = engine.run_unit_metered(unit_index, &trace, &mut scratch, &mut metrics);
            assert_eq!(plain, metered, "unit {unit_index}");
        }
        assert_eq!(metrics.scans as usize, engine.total_scans());
        assert_eq!(
            metrics.elements,
            engine.total_scans() as u64 * trace.len() as u64
        );
        assert!(metrics.judged_steps <= metrics.steps * configs.len() as u64);
        assert!(metrics.compare_ops >= 2 * metrics.judged_steps);
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_detectors() {
        let trace = block_trace(4, 90, 5);
        let mut scratch = SweepScratch::new();
        let configs: Vec<DetectorConfig> = [
            (8usize, TwPolicy::Adaptive),
            (16, TwPolicy::Adaptive),
            (8, TwPolicy::Constant),
        ]
        .iter()
        .map(|&(cw, twp)| {
            DetectorConfig::builder()
                .current_window(cw)
                .tw_policy(twp)
                .build()
                .unwrap()
        })
        .collect();
        for config in configs {
            let d = scratch.detector_for(config);
            let _ = d.run_interned_phases_only(&trace);
            let reused = d.take_phases();
            assert_eq!(reused, reference(config, &trace), "{config:?}");
        }
    }

    /// Runs the forking scan over `trace` and returns its class-table
    /// log, checking every member's phases against a sequential
    /// detector.
    fn adaptive_class_log(configs: &[DetectorConfig], trace: &InternedTrace) -> Vec<ClassEvent> {
        let first = configs[0];
        let members = (0..configs.len())
            .map(|i| Member::new(i, configs[i]))
            .collect();
        let (cw, tw, skip) = (
            first.current_window(),
            first.trailing_window(),
            first.skip_factor(),
        );
        let mut state = SwarKernelState::default();
        let mut fifo = SwarWindows::begin(&mut state, trace, skip, cw, tw);
        let mut classes = PhaseClasses::new();
        let results = run_shared_adaptive_scan(
            members,
            trace,
            skip,
            &mut fifo,
            &mut classes,
            &mut NullObserver,
        );
        for (i, phases) in results {
            assert_eq!(phases, reference(configs[i], trace), "{:?}", configs[i]);
        }
        classes.log
    }

    #[test]
    fn converged_classes_join_across_steps_merge_at_refill_and_recycle_slots() {
        // One adaptive shape; the analyzers fire on different steps
        // after each block change, but the anchors land on the same
        // block start, so classes converge.
        let mut configs = Vec::new();
        for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy] {
            for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
                for analyzer in [
                    AnalyzerPolicy::Threshold(0.3),
                    AnalyzerPolicy::Threshold(0.5),
                    AnalyzerPolicy::Threshold(0.7),
                    AnalyzerPolicy::Threshold(0.9),
                    AnalyzerPolicy::Average { delta: 0.1 },
                ] {
                    configs.push(
                        DetectorConfig::builder()
                            .current_window(12)
                            .tw_policy(TwPolicy::Adaptive)
                            .anchor(anchor)
                            .resize(resize)
                            .model(ModelPolicy::WeightedSet)
                            .analyzer(analyzer)
                            .build()
                            .unwrap(),
                    );
                }
            }
        }
        // Blocks of four cycling sites, each after a run of one-off
        // noise sites: the FIFO's similarity climbs gradually as a
        // block enters the TW, so the thresholds fire on different
        // steps, and both anchors land on the block's first element.
        let mut fresh_site = 100;
        let mut elements = Vec::new();
        for block in 0..4 {
            for _ in 0..60 {
                fresh_site += 1;
                elements.push(ProfileElement::new(MethodId::new(0), fresh_site, true));
            }
            for i in 0..120 {
                elements.push(ProfileElement::new(
                    MethodId::new(0),
                    4 * block + i % 4,
                    true,
                ));
            }
        }
        let trace = InternedTrace::from_elements(elements);
        let log = adaptive_class_log(&configs, &trace);
        let mut forked_at: HashMap<usize, u64> = HashMap::new();
        let mut freed_by_merge: Vec<usize> = Vec::new();
        let (mut forks, mut cross_step_joins, mut merges, mut recycled) = (0, 0, 0, 0);
        for event in &log {
            match *event {
                ClassEvent::Fork { slot, step } => {
                    forks += 1;
                    forked_at.insert(slot, step);
                    if let Some(k) = freed_by_merge.iter().position(|&s| s == slot) {
                        freed_by_merge.swap_remove(k);
                        recycled += 1;
                    }
                }
                ClassEvent::Join { slot, step } => {
                    // A join into a class forked on an earlier step.
                    if forked_at[&slot] < step {
                        cross_step_joins += 1;
                    }
                }
                ClassEvent::Merge { from, into } => {
                    assert_ne!(from, into);
                    merges += 1;
                    freed_by_merge.push(from);
                }
            }
        }
        assert!(cross_step_joins > 0, "no cross-step join: {log:?}");
        assert!(merges > 0, "no refill merge: {log:?}");
        assert!(recycled > 0, "no slot freed by a merge was reused: {log:?}");
        assert!(forks > 0);
    }
}
