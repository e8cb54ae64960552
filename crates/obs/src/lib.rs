//! Observability for the phase-detection stack: structured detector
//! events, a lock-free metrics registry, and per-unit sweep profiling.
//!
//! This crate is a *leaf*: it depends only on `opd-trace`, so
//! `opd-core` can depend on it **optionally** (behind its `obs`
//! feature) without a cycle. The contract is zero overhead when off,
//! twice over:
//!
//! * **Compile-time off** — `opd-core` built without `obs` does not
//!   link this crate at all (`scripts/check.sh` guards the dependency
//!   edge with `cargo tree`).
//! * **Runtime off** — the [`DetectorObserver`] trait carries a
//!   `const ACTIVE: bool`; the detector and sweep loops guard every
//!   event construction with `if O::ACTIVE`, so their plain entry
//!   points are simply the [`NullObserver`] instantiation of the one
//!   generic body (asserted allocation-free and within noise of an
//!   active meter by the repository's observer suite and
//!   `BENCH_obs.json`).
//!
//! The trait, [`NullObserver`], and the event vocabulary live in
//! `opd-trace` (so `opd-core` can be generic over observers without
//! depending on this crate) and are re-exported here under their
//! historical paths. [`DetectorEvent`] is the event vocabulary (window slides/moves,
//! similarity scores, analyzer decisions, phase transitions);
//! [`MetricsRegistry`] is the sharded counter/histogram registry the
//! sweep paths record into; [`UnitMetrics`] is the plain per-unit
//! accumulator cross-checked against the static cost model. [`Span`]
//! and [`SpanRecorder`] extend the same discipline to *causal*
//! tracing — virtual-time spans with parent ids, recorded through the
//! identical `const ACTIVE` guard — and [`FlightRing`] is the
//! fixed-capacity recent-span buffer behind per-session post-mortems.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod metrics;
mod observer;
#[cfg(feature = "sched")]
pub mod sched_model;
mod span;

pub use metrics::{
    CounterId, HistogramId, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, UnitMetrics,
    HISTOGRAM_BUCKETS,
};
pub use observer::{FnObserver, MeterObserver, RecordedPhase, RecordingObserver};
pub use opd_trace::{DetectorEvent, DetectorObserver, NullObserver, ResizeKind};
pub use span::{
    parse_span_log, render_span_log, FlightRing, NullSpanRecorder, Span, SpanKind, SpanLog,
    SpanRecorder, SPAN_LOG_HEADER,
};
