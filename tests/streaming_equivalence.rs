//! The streaming-differential suite: feeding a detector step by step
//! through `process` must match the executable Figure 3 specification
//! (`common::spec`) fed the same steps — same state, window lengths
//! and similarity after every step, same detected and anchored phases
//! — and be bit-identical to a batch `run_interned` over the same
//! elements. The streaming kernel resumes its run over an owned id log
//! each step and compacts the log's dead prefix, so the grids here
//! cover every workload under the default plan grid, the adaptive
//! anchor/resize cross, and the serve configs, each in all three
//! similarity models; a long stream crosses many compactions and a
//! `reconfigure`; and a proptest covers arbitrary traces, configs and
//! step partitions.

use proptest::prelude::*;

use opd_core::{
    AnalyzerPolicy, AnchorPolicy, DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector,
    ResizePolicy, TwPolicy,
};
use opd_experiments::grid::default_plan_grid;
use opd_experiments::serve::serve_configs;
use opd_microvm::workloads::Workload;
use opd_trace::{MethodId, ProfileElement, StateSeq};

mod common;

use common::spec::SpecDetector;

const FUEL: u64 = 8_000;

fn workload_elements(workload: Workload) -> Vec<ProfileElement> {
    let program = workload.program(1);
    let mut execution = opd_trace::ExecutionTrace::new();
    opd_microvm::Interpreter::new(&program, workload.default_seed())
        .with_fuel(FUEL)
        .run(&mut execution)
        .expect("workload executes");
    execution.branches().iter().copied().collect()
}

/// `config` with its similarity model replaced.
fn with_model(config: DetectorConfig, model: ModelPolicy) -> DetectorConfig {
    DetectorConfig::builder()
        .current_window(config.current_window())
        .trailing_window(config.trailing_window())
        .skip_factor(config.skip_factor())
        .tw_policy(config.tw_policy())
        .anchor(config.anchor())
        .resize(config.resize())
        .analyzer(config.analyzer())
        .model(model)
        .build()
        .expect("valid config")
}

/// The default plan grid, adaptive Slide/Move × RN/LNN, and the serve
/// configs, each in all three models.
fn differential_grid() -> Vec<DetectorConfig> {
    let mut base = default_plan_grid();
    for anchor in [AnchorPolicy::RightmostNoisy, AnchorPolicy::LeftmostNonNoisy] {
        for resize in [ResizePolicy::Slide, ResizePolicy::Move] {
            base.push(
                DetectorConfig::builder()
                    .current_window(200)
                    .trailing_window(150)
                    .skip_factor(5)
                    .tw_policy(TwPolicy::Adaptive)
                    .anchor(anchor)
                    .resize(resize)
                    .build()
                    .expect("valid config"),
            );
        }
    }
    base.extend(serve_configs());
    let mut configs = Vec::new();
    for config in base {
        for model in ModelPolicy::ALL_EXTENDED {
            let config = with_model(config, model);
            if !configs.contains(&config) {
                configs.push(config);
            }
        }
    }
    configs
}

/// Streams `elements` through `detector`, and their ids through the
/// spec, in the given step lengths (cycled), checking the state, the
/// window lengths and the similarity after every step and the phases
/// at the end, where the open phase is closed as a batch run does.
fn stream(
    detector: &mut PhaseDetector,
    elements: &[ProfileElement],
    steps: &[usize],
    ctx: &str,
) -> StateSeq {
    let interned = InternedTrace::from_elements(elements.iter().copied());
    let ids = interned.ids();
    let mut spec = SpecDetector::new(*detector.config());
    let mut seq = StateSeq::with_capacity(elements.len());
    let mut at = 0;
    for &len in steps.iter().cycle() {
        if at == elements.len() {
            break;
        }
        let end = elements.len().min(at + len);
        let state = detector.process(&elements[at..end]);
        assert_eq!(
            state,
            spec.step(&ids[at..end]),
            "{ctx}: state of the step ending at element {end}"
        );
        assert_eq!(
            (detector.cw_len(), detector.tw_len()),
            (spec.windows.cw.len(), spec.windows.tw.len()),
            "{ctx}: window lengths after element {end}"
        );
        assert_eq!(
            detector.last_similarity().map(f64::to_bits),
            spec.last_similarity().map(f64::to_bits),
            "{ctx}: similarity after element {end}"
        );
        seq.push_n(state, end - at);
        at = end;
    }
    detector.close_open_phase();
    spec.finish();
    assert_eq!(detector.detected_phases(), spec.phases, "{ctx}: phases");
    seq
}

/// Streams `elements` in skip-sized steps against the spec and checks
/// the stream against a batch run.
fn assert_stream_matches_batch(elements: &[ProfileElement], config: DetectorConfig, ctx: &str) {
    let interned = InternedTrace::from_elements(elements.iter().copied());
    let mut batch = PhaseDetector::new(config);
    let batch_seq = batch.run_interned(&interned);
    let mut streamed = PhaseDetector::new(config);
    let seq = stream(&mut streamed, elements, &[config.skip_factor()], ctx);
    assert_same_run(&streamed, &seq, &batch, &batch_seq, ctx);
}

fn assert_same_run(
    a: &PhaseDetector,
    a_seq: &StateSeq,
    b: &PhaseDetector,
    b_seq: &StateSeq,
    ctx: &str,
) {
    assert_eq!(a_seq, b_seq, "{ctx}: state sequence");
    assert_eq!(a.detected_phases(), b.detected_phases(), "{ctx}: phases");
    assert_eq!(
        a.last_similarity(),
        b.last_similarity(),
        "{ctx}: last similarity"
    );
    assert_eq!(a.state(), b.state(), "{ctx}: final state");
    assert_eq!(
        a.elements_consumed(),
        b.elements_consumed(),
        "{ctx}: consumed"
    );
}

#[test]
fn streaming_matches_batch_on_every_workload() {
    let configs = differential_grid();
    for &workload in &Workload::ALL {
        let elements = workload_elements(workload);
        for &config in &configs {
            assert_stream_matches_batch(&elements, config, &format!("{workload:?} {config:?}"));
        }
    }
}

/// Four disjoint-site blocks repeated: a phase per block, so a long
/// stream keeps opening and flushing phases.
fn block_stream(len: usize) -> Vec<ProfileElement> {
    (0..len as u32)
        .map(|i| {
            let block = (i / 1_500) % 4;
            ProfileElement::new(MethodId::new(block), i % (3 + block), i % 5 == 0)
        })
        .collect()
}

#[test]
fn long_streams_cross_compactions_and_survive_reconfigure() {
    // Window sizes of a few dozen elements over a 120k-element stream:
    // the id log compacts its dead prefix thousands of times, so every
    // phase offset below is reported through a moved origin.
    let elements = block_stream(120_000);
    let configs: Vec<DetectorConfig> = [TwPolicy::Constant, TwPolicy::Adaptive]
        .into_iter()
        .flat_map(|tw_policy| {
            ModelPolicy::ALL_EXTENDED.map(|model| {
                DetectorConfig::builder()
                    .current_window(40)
                    .trailing_window(24)
                    .skip_factor(3)
                    .tw_policy(tw_policy)
                    .model(model)
                    .build()
                    .expect("valid config")
            })
        })
        .collect();
    for &config in &configs {
        assert_stream_matches_batch(&elements, config, &format!("long {config:?}"));
    }

    // One detector, reconfigured between streams, must match the spec
    // and a fresh detector every time, across config changes.
    let mut reused = PhaseDetector::new(configs[0]);
    for (round, &config) in configs.iter().chain(configs.iter().rev()).enumerate() {
        let ctx = format!("round {round} {config:?}");
        reused.reconfigure(config);
        let skip = [config.skip_factor()];
        let reused_seq = stream(&mut reused, &elements, &skip, &ctx);
        let mut fresh = PhaseDetector::new(config);
        let fresh_seq = stream(&mut fresh, &elements, &skip, &ctx);
        assert!(reused.detected_phases().len() > 10, "phases keep coming");
        assert_same_run(&reused, &reused_seq, &fresh, &fresh_seq, &ctx);
    }
}

fn arb_element() -> impl Strategy<Value = ProfileElement> {
    // Up to 260 distinct sites: streams cross the 64-site lane
    // boundary mid-run, growing the SWAR columns as sites appear.
    (0u32..13, 0u32..10, any::<bool>())
        .prop_map(|(m, o, t)| ProfileElement::new(MethodId::new(m), o, t))
}

fn arb_config() -> impl Strategy<Value = DetectorConfig> {
    (
        1usize..50,
        1usize..50,
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
    fn streaming_matches_batch_on_arbitrary_traces(
        elements in prop::collection::vec(arb_element(), 0..800),
        config in arb_config(),
    ) {
        assert_stream_matches_batch(&elements, config, &format!("{config:?}"));
    }

    #[test]
    fn kernels_agree_on_arbitrary_step_partitions(
        elements in prop::collection::vec(arb_element(), 0..800),
        config in arb_config(),
        steps in prop::collection::vec(1usize..90, 1..12),
    ) {
        // Steps of any length, not just `skip_factor`: the kernel's
        // closed forms must match the spec's per-element pushes for
        // every advance size.
        let mut detector = PhaseDetector::new(config);
        let _ = stream(&mut detector, &elements, &steps, &format!("{config:?} {steps:?}"));
    }
}
