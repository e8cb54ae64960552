//! The structured event vocabulary of a detector run and the
//! observer trait that receives it.
//!
//! Both live here, below `opd-core` and `opd-obs` in the dependency
//! order, so the detector and sweep loops can be generic over an
//! observer without `opd-core` depending on `opd-obs`.

use core::fmt;

use crate::PhaseState;

/// How an adaptive trailing window was resized at a phase start —
/// mirrors `opd-core`'s `ResizePolicy` without depending on it (this
/// crate sits below `opd-core` in the dependency order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeKind {
    /// The trailing window slid to absorb current-window elements.
    Slide,
    /// The trailing window moved to the anchor, keeping its length.
    Move,
}

impl fmt::Display for ResizeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResizeKind::Slide => "slide",
            ResizeKind::Move => "move",
        })
    }
}

/// One event of a detector run, in emission order:
///
/// * every step emits [`Step`](DetectorEvent::Step), then (once the
///   windows are warm) [`Similarity`](DetectorEvent::Similarity), then
///   [`Decision`](DetectorEvent::Decision);
/// * a `T → P` edge adds [`PhaseStart`](DetectorEvent::PhaseStart)
///   (preceded by [`WindowResize`](DetectorEvent::WindowResize) under
///   an adaptive trailing window);
/// * a `P → T` edge adds [`PhaseEnd`](DetectorEvent::PhaseEnd) and
///   [`WindowFlush`](DetectorEvent::WindowFlush);
/// * a phase still open at end-of-trace is closed by a final
///   [`PhaseEnd`](DetectorEvent::PhaseEnd).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorEvent {
    /// One detector step consumed `len` profile elements starting at
    /// trace offset `start`.
    Step {
        /// Step index (0-based).
        step: u64,
        /// Trace offset of the step's first element.
        start: u64,
        /// Elements consumed by this step.
        len: u32,
        /// Whether both windows were full when the step was judged.
        warm: bool,
    },
    /// The model similarity computed at a warm step.
    Similarity {
        /// Step index.
        step: u64,
        /// Similarity in `[0, 1]`.
        value: f64,
        /// The analyzer's effective threshold at this step.
        threshold: f64,
        /// Comparison ops this judged step cost (the runtime
        /// counterpart of the static cost model's per-step bound).
        ops: u64,
    },
    /// The analyzer's verdict for a step.
    Decision {
        /// Step index.
        step: u64,
        /// State before this step.
        prev: PhaseState,
        /// State after this step.
        state: PhaseState,
    },
    /// A `T → P` edge: a phase began.
    PhaseStart {
        /// Step index.
        step: u64,
        /// Detection-point start offset.
        start: u64,
        /// Anchored (retroactive) start offset.
        anchored_start: u64,
    },
    /// A `P → T` edge or end-of-trace close: a phase ended.
    PhaseEnd {
        /// Step index.
        step: u64,
        /// End offset (exclusive).
        end: u64,
    },
    /// An adaptive trailing window was resized at a phase start.
    WindowResize {
        /// Step index.
        step: u64,
        /// The resize policy applied.
        kind: ResizeKind,
        /// Trailing-window length after the resize.
        tw_len: u64,
    },
    /// The windows were flushed at a phase end, re-seeded with the
    /// last `kept` elements.
    WindowFlush {
        /// Step index.
        step: u64,
        /// Elements kept to re-seed the current window.
        kept: u32,
    },
}

fn letter(state: PhaseState) -> char {
    if state.is_phase() {
        'P'
    } else {
        'T'
    }
}

impl DetectorEvent {
    /// The event's step index.
    #[must_use]
    pub fn step(&self) -> u64 {
        match *self {
            DetectorEvent::Step { step, .. }
            | DetectorEvent::Similarity { step, .. }
            | DetectorEvent::Decision { step, .. }
            | DetectorEvent::PhaseStart { step, .. }
            | DetectorEvent::PhaseEnd { step, .. }
            | DetectorEvent::WindowResize { step, .. }
            | DetectorEvent::WindowFlush { step, .. } => step,
        }
    }

    /// A short machine-stable tag for the event kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DetectorEvent::Step { .. } => "step",
            DetectorEvent::Similarity { .. } => "similarity",
            DetectorEvent::Decision { .. } => "decision",
            DetectorEvent::PhaseStart { .. } => "phase_start",
            DetectorEvent::PhaseEnd { .. } => "phase_end",
            DetectorEvent::WindowResize { .. } => "window_resize",
            DetectorEvent::WindowFlush { .. } => "window_flush",
        }
    }

    /// Renders the event as one JSON object (hand-rolled — the
    /// workspace's `serde_json` resolves to an offline stub).
    #[must_use]
    pub fn to_json(&self) -> String {
        match *self {
            DetectorEvent::Step {
                step,
                start,
                len,
                warm,
            } => format!(
                "{{\"type\": \"step\", \"step\": {step}, \"start\": {start}, \
                 \"len\": {len}, \"warm\": {warm}}}"
            ),
            DetectorEvent::Similarity {
                step,
                value,
                threshold,
                ops,
            } => format!(
                "{{\"type\": \"similarity\", \"step\": {step}, \"value\": {value:.6}, \
                 \"threshold\": {threshold:.6}, \"ops\": {ops}}}"
            ),
            DetectorEvent::Decision { step, prev, state } => format!(
                "{{\"type\": \"decision\", \"step\": {step}, \"prev\": \"{}\", \
                 \"state\": \"{}\"}}",
                letter(prev),
                letter(state),
            ),
            DetectorEvent::PhaseStart {
                step,
                start,
                anchored_start,
            } => format!(
                "{{\"type\": \"phase_start\", \"step\": {step}, \"start\": {start}, \
                 \"anchored_start\": {anchored_start}}}"
            ),
            DetectorEvent::PhaseEnd { step, end } => {
                format!("{{\"type\": \"phase_end\", \"step\": {step}, \"end\": {end}}}")
            }
            DetectorEvent::WindowResize { step, kind, tw_len } => format!(
                "{{\"type\": \"window_resize\", \"step\": {step}, \"kind\": \"{kind}\", \
                 \"tw_len\": {tw_len}}}"
            ),
            DetectorEvent::WindowFlush { step, kept } => {
                format!("{{\"type\": \"window_flush\", \"step\": {step}, \"kept\": {kept}}}")
            }
        }
    }
}

impl fmt::Display for DetectorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DetectorEvent::Step {
                step,
                start,
                len,
                warm,
            } => write!(
                f,
                "step {step:>6} @{start:<9} len={len}{}",
                if warm { "" } else { " (warming)" }
            ),
            DetectorEvent::Similarity {
                step,
                value,
                threshold,
                ops,
            } => write!(
                f,
                "  similarity {value:.4} (threshold {threshold:.4}, ops {ops}) at step {step}"
            ),
            DetectorEvent::Decision { step, prev, state } => {
                write!(
                    f,
                    "  decision {} -> {} at step {step}",
                    letter(prev),
                    letter(state)
                )
            }
            DetectorEvent::PhaseStart {
                step,
                start,
                anchored_start,
            } => write!(
                f,
                "PHASE START at step {step}: detected @{start}, anchored @{anchored_start}"
            ),
            DetectorEvent::PhaseEnd { step, end } => {
                write!(f, "PHASE END   at step {step}: @{end}")
            }
            DetectorEvent::WindowResize { step, kind, tw_len } => write!(
                f,
                "  window resize ({kind}) at step {step}: tw_len={tw_len}"
            ),
            DetectorEvent::WindowFlush { step, kept } => {
                write!(f, "  window flush at step {step}: kept {kept} element(s)")
            }
        }
    }
}

/// Receives the structured event stream of a detector run.
///
/// The associated `ACTIVE` constant is the zero-overhead-when-off
/// switch: the run loops guard every event construction with
/// `if O::ACTIVE { ... }`, so an observer with `ACTIVE = false`
/// ([`NullObserver`]) compiles the one generic loop body down to the
/// plain machine code — no event is ever built, no call is ever made.
pub trait DetectorObserver {
    /// Whether this observer wants events at all. Leave at the default
    /// (`true`) for any observer that reads events.
    const ACTIVE: bool = true;

    /// Called once per emitted event, in emission order.
    fn on_event(&mut self, event: &DetectorEvent);
}

/// The do-nothing observer: `ACTIVE = false`. The plain detector and
/// sweep entry points are the loops instantiated at this observer (the
/// repository's observer-equivalence suite asserts bit-identical
/// results and an allocation-free steady state).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl DetectorObserver for NullObserver {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _event: &DetectorEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_kind_renders_both_ways() {
        let events = [
            DetectorEvent::Step {
                step: 1,
                start: 500,
                len: 500,
                warm: true,
            },
            DetectorEvent::Similarity {
                step: 1,
                value: 0.75,
                threshold: 0.5,
                ops: 2,
            },
            DetectorEvent::Decision {
                step: 1,
                prev: PhaseState::Transition,
                state: PhaseState::Phase,
            },
            DetectorEvent::PhaseStart {
                step: 1,
                start: 500,
                anchored_start: 250,
            },
            DetectorEvent::PhaseEnd { step: 9, end: 4500 },
            DetectorEvent::WindowResize {
                step: 1,
                kind: ResizeKind::Slide,
                tw_len: 900,
            },
            DetectorEvent::WindowFlush { step: 9, kept: 1 },
        ];
        for e in &events {
            assert_eq!(
                e.step(),
                if e.kind().starts_with("phase_end") {
                    9
                } else {
                    e.step()
                }
            );
            let json = e.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains(e.kind()), "{json}");
            assert!(!e.to_string().is_empty());
        }
        assert_eq!(ResizeKind::Move.to_string(), "move");
    }

    #[test]
    fn decision_letters_match_states() {
        let e = DetectorEvent::Decision {
            step: 0,
            prev: PhaseState::Phase,
            state: PhaseState::Transition,
        };
        assert!(e.to_json().contains("\"prev\": \"P\""));
        assert!(e.to_json().contains("\"state\": \"T\""));
    }
}
