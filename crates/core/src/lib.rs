//! The online phase detection framework of *Online Phase Detection
//! Algorithms* (CGO 2006, Section 2).
//!
//! A phase detector is an instantiation of the framework along three
//! orthogonal axes:
//!
//! * **window policy** — sizes of the current window (CW) and trailing
//!   window (TW), the skip factor, the trailing-window management
//!   ([`TwPolicy`]: constant or adaptive), and for the adaptive policy
//!   the [`AnchorPolicy`] and [`ResizePolicy`] of Section 5;
//! * **model policy** — how similarity between the two windows is
//!   computed ([`ModelPolicy`]: unweighted/asymmetric or
//!   weighted/symmetric sets);
//! * **analyzer policy** — how a similarity value is mapped to a phase
//!   (`P`) or transition (`T`) state ([`AnalyzerPolicy`]: fixed
//!   threshold or adaptive running average).
//!
//! [`DetectorConfig`] captures one choice of all parameters;
//! [`PhaseDetector`] is the runtime of Figure 3 of the paper.
//!
//! # Examples
//!
//! ```
//! use opd_core::{DetectorConfig, PhaseDetector};
//! use opd_trace::{MethodId, ProfileElement};
//!
//! let config = DetectorConfig::builder()
//!     .current_window(4)
//!     .trailing_window(4)
//!     .build()?;
//! let mut detector = PhaseDetector::new(config);
//!
//! // A stream that repeats one branch site forever is one long phase.
//! let e = ProfileElement::new(MethodId::new(0), 0, true);
//! let mut last = opd_trace::PhaseState::Transition;
//! for _ in 0..32 {
//!     last = detector.process(&[e]);
//! }
//! assert!(last.is_phase());
//! # Ok::<(), opd_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod analyzer;
mod boundary;
mod config;
mod detector;
mod intern;
mod kernel;
mod model;
mod predict;
mod recur;
mod related;
mod sweep;

pub use analyzer::{Analyzer, AnalyzerPolicy};
pub use boundary::{anchored_intervals, detected_intervals, DetectedPhase};
pub use config::{
    AnchorPolicy, ConfigError, ConfigShape, DetectorConfig, DetectorConfigBuilder, ResizePolicy,
    TwPolicy,
};
pub use detector::{DetectorError, NullSink, PhaseDetector, StateSink};
pub use intern::InternedTrace;
pub use kernel::{swar_footprint_bytes, RANK_MODE_MIN_SKIP};
pub use model::ModelPolicy;
pub use predict::{PhasePredictor, Prediction};
pub use recur::{PhaseId, PhaseRegistry, PhaseSignature, RecurringPhase, RecurringPhaseDetector};
pub use related::{run_online, OnlineDetector, PcRangeDetector};
pub use sweep::{SweepEngine, SweepError, SweepScratch, SweepUnit, UnitKind};
