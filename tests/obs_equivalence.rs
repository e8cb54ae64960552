//! The observer-equivalence suite: for every workload and every
//! default-grid config (plus adaptive-TW extras), the one generic
//! detector body must (a) run bit-identically through its plain entry
//! points and its observed ones under a `NullObserver`, and (b) emit an
//! event stream from which an external observer reconstructs exactly
//! the phase transitions the detector reports, with every `similarity`
//! event carrying the value the executable Figure 3 specification
//! (`common::spec`) computes at that step — the guard that event
//! emission never perturbs the state machine it reports on.

use opd_core::{DetectorConfig, InternedTrace, PhaseDetector};
use opd_experiments::grid::{default_plan_grid, policy_grid, TwKind};
use opd_microvm::workloads::Workload;
use opd_obs::{DetectorEvent, NullObserver, RecordingObserver};

mod common;

use common::spec::SpecDetector;

const FUEL: u64 = 12_000;

fn interned(workload: Workload) -> InternedTrace {
    let program = workload.program(1);
    let mut execution = opd_trace::ExecutionTrace::new();
    opd_microvm::Interpreter::new(&program, workload.default_seed())
        .with_fuel(FUEL)
        .run(&mut execution)
        .expect("workload executes");
    InternedTrace::from_elements(execution.branches().iter().copied())
}

/// The default 28-config sweep grid plus adaptive-TW extras, so both
/// the shared-window and the private resize/flush paths are covered.
fn configs_under_test() -> Vec<DetectorConfig> {
    let mut configs = default_plan_grid();
    configs.extend(policy_grid(TwKind::Adaptive, 400));
    configs
}

#[test]
fn null_observed_runs_are_bit_identical_to_uninstrumented() {
    let configs = configs_under_test();
    for &workload in &Workload::ALL {
        let trace = interned(workload);
        for &config in &configs {
            let mut plain = PhaseDetector::new(config);
            let _ = plain.run_interned_phases_only(&trace);

            let mut observed = PhaseDetector::new(config);
            let _ = observed.run_interned_phases_observed(&trace, &mut NullObserver);

            let case = format!("{workload:?} {config:?}");
            assert_eq!(
                plain.detected_phases(),
                observed.detected_phases(),
                "{case}"
            );
            assert_eq!(plain.state(), observed.state(), "{case}");
            assert_eq!(
                plain.last_similarity(),
                observed.last_similarity(),
                "{case}"
            );
            assert_eq!(
                plain.elements_consumed(),
                observed.elements_consumed(),
                "{case}"
            );
        }
    }
}

#[test]
fn recorded_events_reconstruct_the_detector_phases() {
    let configs = configs_under_test();
    for &workload in &Workload::ALL {
        let trace = interned(workload);
        for &config in &configs {
            let mut detector = PhaseDetector::new(config);
            let mut recorder = RecordingObserver::new();
            let _ = detector.run_interned_phases_observed(&trace, &mut recorder);

            // Every judged step's similarity, bit for bit, against the
            // spec's.
            let (spec, _) = SpecDetector::run(config, trace.ids());
            let recorded_sims: Vec<(u64, u64)> = recorder
                .events
                .iter()
                .filter_map(|event| match *event {
                    DetectorEvent::Similarity { step, value, .. } => Some((step, value.to_bits())),
                    _ => None,
                })
                .collect();
            let spec_sims: Vec<(u64, u64)> = spec
                .similarities
                .iter()
                .map(|&(step, value)| (step, value.to_bits()))
                .collect();
            assert_eq!(
                recorded_sims, spec_sims,
                "{workload:?} {config:?}: similarities"
            );
            assert_eq!(
                detector.detected_phases(),
                spec.phases,
                "{workload:?} {config:?}"
            );

            let recorded = recorder.phases();
            let actual = detector.detected_phases();
            assert_eq!(
                recorded.len(),
                actual.len(),
                "{workload:?} {config:?}: phase count"
            );
            for (r, p) in recorded.iter().zip(actual) {
                assert_eq!(r.start, p.start, "{workload:?} {config:?}");
                assert_eq!(
                    r.anchored_start, p.anchored_start,
                    "{workload:?} {config:?}"
                );
                // The run emits a final phase_end for a trace-end open
                // phase, so every recorded end must be present and
                // match the (closed) detector record.
                assert_eq!(r.end, p.end, "{workload:?} {config:?}");
                assert!(
                    r.end.is_some(),
                    "{workload:?} {config:?}: open recorded end"
                );
            }
        }
    }
}

#[test]
fn decision_events_match_the_per_element_state_sequence() {
    // The per-step decision stream must agree with the per-element
    // labels the uninstrumented `run_interned` produces: every element
    // of step i carries the state of decision i.
    let configs = default_plan_grid();
    for &workload in &[Workload::Lexgen, Workload::Querydb] {
        let trace = interned(workload);
        for &config in &configs {
            let seq = PhaseDetector::new(config).run_interned(&trace);

            let mut detector = PhaseDetector::new(config);
            let mut recorder = RecordingObserver::new();
            let _ = detector.run_interned_phases_observed(&trace, &mut recorder);

            let skip = config.skip_factor();
            let steps = trace.len().div_ceil(skip);
            let decisions = recorder.decisions();
            assert_eq!(decisions.len(), steps, "{workload:?} {config:?}");
            for (i, &(step, is_phase)) in decisions.iter().enumerate() {
                assert_eq!(step, i as u64);
                let element_state = seq.get(i * skip).expect("chunk start is labelled");
                assert_eq!(
                    is_phase,
                    element_state.is_phase(),
                    "{workload:?} {config:?} step {i}"
                );
            }
        }
    }
}

#[test]
fn event_stream_is_well_ordered() {
    // Structural invariants of the stream itself: steps are dense and
    // monotone, similarity/decision events follow their step, and
    // phase starts/ends alternate.
    let trace = interned(Workload::Lexgen);
    let config = default_plan_grid()[0];
    let mut detector = PhaseDetector::new(config);
    let mut recorder = RecordingObserver::new();
    let _ = detector.run_interned_phases_observed(&trace, &mut recorder);

    let mut current_step = None::<u64>;
    let mut open_phase = false;
    for event in &recorder.events {
        match *event {
            DetectorEvent::Step { step, .. } => {
                let expected = current_step.map_or(0, |s| s + 1);
                assert_eq!(step, expected, "steps are dense and monotone");
                current_step = Some(step);
            }
            DetectorEvent::Similarity { step, .. } | DetectorEvent::Decision { step, .. } => {
                assert_eq!(Some(step), current_step, "event outside its step");
            }
            DetectorEvent::PhaseStart { .. } => {
                assert!(!open_phase, "phase started twice");
                open_phase = true;
            }
            DetectorEvent::PhaseEnd { .. } => {
                assert!(open_phase, "phase ended without a start");
                open_phase = false;
            }
            DetectorEvent::WindowResize { .. } | DetectorEvent::WindowFlush { .. } => {}
        }
    }
    assert!(!open_phase, "trace-end phase_end missing");
    assert!(recorder.events.iter().any(|e| e.kind() == "similarity"));
}
