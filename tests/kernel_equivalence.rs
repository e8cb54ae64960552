//! The kernel-differential suite: a detector run on the window kernel
//! must be bit-identical to the executable Figure 3 specification
//! (`common::spec`) — same similarity at every judged step, same
//! per-element state sequence, same detected and anchored phases, same
//! final state — on every MicroVM workload and on arbitrary traces.
//! The grids cross all three similarity models with both TW policies,
//! both anchors, both resize policies, and skip factors on both sides
//! of the rank-mode cutoff, so the dense incremental path, the
//! rank-index path, phase-end flushes with CW re-seeding, and adaptive
//! TW growth are all exercised against the specification.

use proptest::prelude::*;

use opd_core::{
    AnalyzerPolicy, AnchorPolicy, DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector,
    ResizePolicy, TwPolicy, RANK_MODE_MIN_SKIP,
};
use opd_microvm::workloads::Workload;
use opd_obs::{DetectorEvent, RecordingObserver};
use opd_trace::{BranchTrace, MethodId, ProfileElement, StateSeq};

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

/// Every policy axis crossed, with skip factors below and above the
/// rank-mode cutoff.
fn differential_grid() -> Vec<DetectorConfig> {
    let mut configs = Vec::new();
    for model in ModelPolicy::ALL_EXTENDED {
        for tw_policy in [TwPolicy::Constant, TwPolicy::Adaptive] {
            for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy] {
                for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
                    for skip in [1, 7, RANK_MODE_MIN_SKIP, 50] {
                        configs.push(
                            DetectorConfig::builder()
                                .current_window(400)
                                .trailing_window(300)
                                .skip_factor(skip)
                                .tw_policy(tw_policy)
                                .anchor(anchor)
                                .resize(resize)
                                .model(model)
                                .build()
                                .expect("valid config"),
                        );
                    }
                }
            }
        }
    }
    configs
}

/// `(step, similarity bits)` of every judged step: bit-for-bit, not
/// merely `==` (which would equate `0.0` and `-0.0`).
fn judged(similarities: impl IntoIterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
    similarities
        .into_iter()
        .map(|(step, value)| (step, value.to_bits()))
        .collect()
}

/// Runs `config` over `trace` on the detector and on the spec, and
/// asserts they agree step by step.
fn assert_kernels_agree(trace: &InternedTrace, config: DetectorConfig, context: &str) {
    let mut detector = PhaseDetector::new(config);
    let mut states = StateSeq::with_capacity(trace.len());
    let mut recorder = RecordingObserver::new();
    detector.run_interned_with_observer(trace, &mut states, &mut recorder);
    let (spec, spec_states) = SpecDetector::run(config, trace.ids());

    let detector_sims = recorder.events.iter().filter_map(|event| match *event {
        DetectorEvent::Similarity { step, value, .. } => Some((step, value)),
        _ => None,
    });
    assert_eq!(
        judged(detector_sims),
        judged(spec.similarities.iter().copied()),
        "{context}: judged similarities"
    );
    assert_eq!(states, spec_states, "{context}: state sequence");
    assert_eq!(detector.detected_phases(), spec.phases, "{context}: phases");
    assert_eq!(
        detector.last_similarity(),
        spec.last_similarity(),
        "{context}: last similarity"
    );
    assert_eq!(detector.state(), spec.state, "{context}: final state");
}

#[test]
fn kernels_agree_on_every_workload() {
    let configs = differential_grid();
    for &workload in &Workload::ALL {
        let trace = interned(workload);
        for &config in &configs {
            assert_kernels_agree(&trace, config, &format!("{workload:?} {config:?}"));
        }
    }
}

#[test]
fn kernels_agree_on_degenerate_traces() {
    let config = differential_grid()[0];
    // Empty trace, single element, single repeated site.
    let e = |o| ProfileElement::new(MethodId::new(0), o, false);
    for elements in [
        vec![],
        vec![e(0)],
        vec![e(0); 1_000],
        (0..700u32).map(|i| e(i % 3)).collect(),
    ] {
        let trace = InternedTrace::from_elements(elements);
        for &cfg in &[config, differential_grid()[47]] {
            assert_kernels_agree(&trace, cfg, &format!("degenerate {cfg:?}"));
        }
    }
}

fn arb_element() -> impl Strategy<Value = ProfileElement> {
    // 13 methods × 10 offsets × taken-bit: up to 260 distinct sites,
    // comfortably crossing the 64-site lane boundary (and a second
    // one) so multi-lane bitset handling is exercised.
    (0u32..13, 0u32..10, any::<bool>())
        .prop_map(|(m, o, t)| ProfileElement::new(MethodId::new(m), o, t))
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = BranchTrace> {
    prop::collection::vec(arb_element(), 0..max_len).prop_map(BranchTrace::from)
}

fn arb_config() -> impl Strategy<Value = DetectorConfig> {
    (
        1usize..50,
        1usize..50,
        // Crosses RANK_MODE_MIN_SKIP so both judging modes appear.
        1usize..48,
        prop_oneof![Just(TwPolicy::Constant), Just(TwPolicy::Adaptive)],
        prop_oneof![
            Just(AnchorPolicy::RightmostNoisy),
            Just(AnchorPolicy::LeftmostNonNoisy)
        ],
        prop_oneof![Just(ResizePolicy::Slide), Just(ResizePolicy::Move)],
        prop_oneof![
            Just(ModelPolicy::UnweightedSet),
            Just(ModelPolicy::WeightedSet),
            Just(ModelPolicy::Pearson)
        ],
        prop_oneof![
            (0.0f64..=1.0).prop_map(AnalyzerPolicy::Threshold),
            (0.0f64..=1.0).prop_map(|delta| AnalyzerPolicy::Average { delta }),
        ],
    )
        .prop_map(|(cw, tw, skip, twp, anchor, resize, model, analyzer)| {
            DetectorConfig::builder()
                .current_window(cw)
                .trailing_window(tw)
                .skip_factor(skip)
                .tw_policy(twp)
                .anchor(anchor)
                .resize(resize)
                .model(model)
                .analyzer(analyzer)
                .build()
                .expect("generated parameters are valid")
        })
}

proptest! {
    #[test]
    fn kernels_agree_on_arbitrary_traces(
        trace in arb_trace(600),
        config in arb_config(),
    ) {
        let interned = InternedTrace::from_elements(trace.iter().copied());
        assert_kernels_agree(&interned, config, &format!("{config:?}"));
    }
}
