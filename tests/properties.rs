//! Property-based tests over the core data structures and invariants,
//! using arbitrary element streams and interval sets.

use proptest::prelude::*;

use opd::baseline::CallLoopForest;
use opd::core::{
    AnalyzerPolicy, AnchorPolicy, DetectorConfig, ModelPolicy, PhaseDetector, ResizePolicy,
    TwPolicy,
};
use opd::microvm::{ArgExpr, Interpreter, ProgramBuilder, TakenDist, Trip};
use opd::scoring::{correlation, match_phases, score_intervals};
use opd::trace::{
    boundaries_of, decode_trace, decode_trace_resync, encode_trace, intervals_of,
    states_from_intervals, BranchTrace, ExecutionTrace, MethodId, PhaseInterval, PhaseState,
    ProfileElement, StateSeq, TraceSink, BRANCH_RECORD_LEN,
};

mod common;

use common::spec::SpecWindows;

/// The profile element of branch site `site`.
fn site_element(site: u32) -> ProfileElement {
    ProfileElement::new(MethodId::new(0), site, true)
}

fn arb_element() -> impl Strategy<Value = ProfileElement> {
    (0u32..8, 0u32..6, any::<bool>())
        .prop_map(|(m, o, t)| ProfileElement::new(MethodId::new(m), o, t))
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = BranchTrace> {
    prop::collection::vec(arb_element(), 0..max_len).prop_map(BranchTrace::from)
}

fn arb_config() -> impl Strategy<Value = DetectorConfig> {
    (
        1usize..40,
        1usize..40,
        1usize..20,
        prop_oneof![Just(TwPolicy::Constant), Just(TwPolicy::Adaptive)],
        prop_oneof![
            Just(AnchorPolicy::RightmostNoisy),
            Just(AnchorPolicy::LeftmostNonNoisy)
        ],
        prop_oneof![Just(ResizePolicy::Slide), Just(ResizePolicy::Move)],
        prop_oneof![
            Just(ModelPolicy::UnweightedSet),
            Just(ModelPolicy::WeightedSet)
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

/// Sorted, disjoint intervals within [0, total).
fn arb_intervals(total: u64) -> impl Strategy<Value = Vec<PhaseInterval>> {
    prop::collection::vec((0u64..total, 1u64..20), 0..12).prop_map(move |raw| {
        let mut out: Vec<PhaseInterval> = Vec::new();
        let mut cursor = 0u64;
        for (gap, len) in raw {
            let start = cursor + gap % 17 + 1;
            let end = (start + len).min(total);
            if start < end {
                out.push(PhaseInterval::new(start, end));
                cursor = end;
            }
        }
        out
    })
}

/// A trace length together with one interval set inside it.
fn arb_sized_intervals() -> impl Strategy<Value = (u64, Vec<PhaseInterval>)> {
    (50u64..400).prop_flat_map(|total| (Just(total), arb_intervals(total)))
}

/// A trace length together with two independent interval sets.
fn arb_interval_pair() -> impl Strategy<Value = (u64, Vec<PhaseInterval>, Vec<PhaseInterval>)> {
    (50u64..400).prop_flat_map(|total| (Just(total), arb_intervals(total), arb_intervals(total)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn detector_never_panics_and_labels_everything(
        trace in arb_trace(600),
        config in arb_config(),
    ) {
        let mut detector = PhaseDetector::new(config);
        let states = detector.run(&trace);
        prop_assert_eq!(states.len(), trace.len());
        // Detected phases are sorted, disjoint, and within bounds.
        let phases = opd::core::detected_intervals(
            detector.detected_phases(), trace.len() as u64);
        for w in phases.windows(2) {
            prop_assert!(w[0].end() <= w[1].start());
        }
        for p in &phases {
            prop_assert!(p.end() <= trace.len() as u64);
        }
    }

    #[test]
    fn similarity_values_are_bounded(
        sites in prop::collection::vec(0u32..12, 1..400),
        cw in 1usize..20,
        tw in 1usize..20,
    ) {
        // The spec's windows, with the TW growing on every third push.
        let mut w = SpecWindows::new(cw, tw);
        for (i, &s) in sites.iter().enumerate() {
            w.push(s, i % 3 == 0);
            for model in ModelPolicy::ALL_EXTENDED {
                let sim = w.similarity(model);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&sim), "{model}: {sim}");
            }
        }
        // Every similarity a detector judges over the same sites.
        for model in ModelPolicy::ALL_EXTENDED {
            let config = DetectorConfig::builder()
                .current_window(cw)
                .trailing_window(tw)
                .model(model)
                .build()
                .expect("valid config");
            let mut detector = PhaseDetector::new(config);
            for &s in &sites {
                detector.process(&[site_element(s)]);
                if let Some(sim) = detector.last_similarity() {
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&sim), "{model}: {sim}");
                }
            }
        }
    }

    #[test]
    fn unweighted_is_one_when_cw_subset_of_tw(
        sites in prop::collection::vec(0u32..4, 40..80),
    ) {
        // Push enough elements that every site occurs in both windows.
        let mut w = SpecWindows::new(8, 8);
        for _ in 0..4 {
            for &s in &sites {
                w.push(s, false);
            }
        }
        let distinct_cw = (0..4).filter(|&s| w.cw_count(s) > 0).count();
        let in_tw = (0..4).filter(|&s| w.tw_count(s) > 0 && w.cw_count(s) > 0).count();
        let spec = w.similarity(ModelPolicy::UnweightedSet);
        if in_tw == distinct_cw {
            prop_assert!((spec - 1.0).abs() < 1e-9);
        }
        // A detector whose analyzer always fires never flushes, so its
        // windows end as the same FIFO and judge the same value.
        let config = DetectorConfig::builder()
            .current_window(8)
            .trailing_window(8)
            .analyzer(AnalyzerPolicy::Threshold(0.0))
            .build()
            .expect("valid config");
        let mut detector = PhaseDetector::new(config);
        for _ in 0..4 {
            for &s in &sites {
                detector.process(&[site_element(s)]);
            }
        }
        prop_assert_eq!(detector.last_similarity(), Some(spec));
    }

    #[test]
    fn states_intervals_roundtrip(states in prop::collection::vec(
        prop_oneof![Just(PhaseState::Phase), Just(PhaseState::Transition)], 0..200)) {
        let seq: StateSeq = states.into_iter().collect();
        let intervals = intervals_of(&seq);
        let back = states_from_intervals(&intervals, seq.len() as u64);
        prop_assert_eq!(back, seq);
    }

    #[test]
    fn boundaries_count_is_twice_intervals((_total, intervals) in arb_sized_intervals()) {
        prop_assert_eq!(boundaries_of(&intervals).len(), intervals.len() * 2);
    }

    #[test]
    fn correlation_is_symmetric_and_bounded(
        (total, a, b) in arb_interval_pair(),
    ) {
        let ab = correlation(&a, &b, total);
        let ba = correlation(&b, &a, total);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((correlation(&a, &a, total) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matching_respects_the_papers_constraints(
        (_total, detected, baseline) in arb_interval_pair(),
    ) {
        let outcome = match_phases(&detected, &baseline);
        for &(di, bi) in &outcome.pairs {
            let d = detected[di];
            let b = baseline[bi];
            // Constraint 1: start within the baseline phase.
            prop_assert!(b.start() <= d.start() && d.start() < b.end());
            // Constraint 2: end at/after the baseline end, before the
            // next baseline phase.
            prop_assert!(d.end() >= b.end());
            if let Some(next) = baseline.get(bi + 1) {
                prop_assert!(d.end() < next.start());
            }
        }
        // At most one match per baseline phase and per detected phase.
        let mut bs: Vec<_> = outcome.pairs.iter().map(|p| p.1).collect();
        bs.sort_unstable();
        bs.dedup();
        prop_assert_eq!(bs.len(), outcome.pairs.len());
    }

    #[test]
    fn scores_are_always_in_unit_range(
        (total, detected, baseline_iv) in arb_interval_pair(),
    ) {
        // Build a real BaselineSolution through a synthetic trace.
        let mut t = ExecutionTrace::new();
        let mut off = 0u64;
        for (i, p) in baseline_iv.iter().enumerate() {
            while off < p.start() {
                t.record_branch(ProfileElement::new(MethodId::new(0), (off % 7) as u32, true));
                off += 1;
            }
            t.record_loop_enter(opd::trace::LoopId::new(i as u32));
            while off < p.end() {
                t.record_branch(ProfileElement::new(MethodId::new(0), (off % 7) as u32, true));
                off += 1;
            }
            t.record_loop_exit(opd::trace::LoopId::new(i as u32));
        }
        while off < total {
            t.record_branch(ProfileElement::new(MethodId::new(0), (off % 7) as u32, true));
            off += 1;
        }
        let oracle = opd::baseline::BaselineSolution::compute(&t, 1).expect("well nested");
        let score = score_intervals(&detected, &oracle);
        prop_assert!((0.0..=1.0).contains(&score.combined()), "{}", score);
        prop_assert!((0.0..=1.0).contains(&score.correlation));
        prop_assert!((0.0..=1.0).contains(&score.sensitivity));
        prop_assert!((0.0..=1.0).contains(&score.false_positives));
    }

    #[test]
    fn codec_roundtrips_arbitrary_traces(trace in arb_trace(300)) {
        let mut t = ExecutionTrace::new();
        for e in &trace {
            t.record_branch(*e);
        }
        let bytes = encode_trace(&t);
        prop_assert_eq!(decode_trace(&bytes).expect("round trip"), t);
    }

    #[test]
    fn microvm_traces_always_balance(
        trips in prop::collection::vec(1u32..6, 1..5),
        depth in 0u32..6,
        fuel in 1u64..2_000,
        seed in 0u64..100,
    ) {
        let mut b = ProgramBuilder::new();
        let rec = b.declare("rec");
        let main = b.declare("main");
        b.define(rec, |f| {
            f.branch(TakenDist::Bernoulli(0.5));
            f.if_arg_positive(|g| {
                g.call(rec, ArgExpr::Dec);
            });
        });
        b.define(main, |f| {
            for &n in &trips {
                f.repeat(Trip::Fixed(n), |l| {
                    l.branches(2, TakenDist::Alternating);
                    l.call(rec, ArgExpr::Const(depth));
                });
            }
        });
        b.entry(main);
        let program = b.build().expect("valid program");
        let mut trace = ExecutionTrace::new();
        Interpreter::new(&program, seed)
            .with_fuel(fuel)
            .run(&mut trace)
            .expect("bounded recursion");
        // Balanced events: the forest builds without error even for
        // fuel-truncated traces.
        let forest = CallLoopForest::build(&trace).expect("balanced");
        prop_assert_eq!(forest.total_branches(), trace.branches().len() as u64);
        // Labels from any MPL cover only in-phase elements.
        let sol = forest.solve(10);
        prop_assert!(sol.in_phase_elements() <= sol.total_elements());
    }
}

// Panic-freedom over untrusted input: the trace decoders and the
// MicroVM program parser must reject (or lossily recover from)
// arbitrary bytes with typed results, never a panic. These run at a
// much higher case count than the structural properties above —
// they are the regression net for the error-handling paths.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn trace_decoders_never_panic_on_byte_soup(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Strict decoding: typed error or success, never a panic.
        let strict = decode_trace(&bytes);
        // Lossy decoding: always yields a trace plus a report.
        let (decoded, report) = decode_trace_resync(&bytes);
        if report.is_clean() {
            // A clean report promises the strict decoder agrees.
            prop_assert_eq!(strict.expect("clean input"), decoded);
        } else {
            prop_assert!(strict.is_err());
        }
    }

    #[test]
    fn resync_never_panics_on_corrupted_encodings(
        trace in arb_trace(64),
        corruptions in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        let mut t = ExecutionTrace::new();
        for e in &trace {
            t.record_branch(*e);
        }
        let mut bytes = encode_trace(&t).to_vec();
        for (pos, mask) in corruptions {
            if !bytes.is_empty() {
                let i = pos as usize % bytes.len();
                bytes[i] ^= mask;
            }
        }
        let (decoded, _report) = decode_trace_resync(&bytes);
        // Every decoded branch record consumed 8 bytes of input (a
        // corrupt header count cannot conjure records from nothing).
        prop_assert!(decoded.branches().len() * BRANCH_RECORD_LEN <= bytes.len());
    }

    #[test]
    fn microvm_parser_never_panics_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = opd::microvm::parse_program(&text);
    }

    #[test]
    fn microvm_parser_never_panics_on_keyword_soup(
        fragments in prop::collection::vec(
            prop_oneof![
                Just("fn "), Just("main"), Just("(f0)"), Just("// entry"),
                Just("{"), Just("}"), Just("\n"), Just(" "),
                Just("branch @"), Just("p="), Just("0.5"), Just("call "),
                Just("repeat "), Just("x"), Just("7"), Just("-1"),
            ],
            0..64,
        ),
    ) {
        // Near-miss programs built from real grammar tokens reach much
        // deeper into the parser than raw byte soup does.
        let text: String = fragments.concat();
        let _ = opd::microvm::parse_program(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn corruption_is_confined_to_the_corrupted_session(
        streams in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(arb_element(), 10..80), 2..4),
            2..5,
        ),
        victim_seed in proptest::prelude::any::<u32>(),
        corruptions in prop::collection::vec(
            (proptest::prelude::any::<u16>(), proptest::prelude::any::<u16>(), 1u8..=255),
            1..16,
        ),
    ) {
        use opd::serve::{run_service, MemorySource, SeededHazards, ServeConfig, ServiceOptions};

        // Two identical multi-tenant sources, except one client's
        // frames are arbitrarily corrupted in the second. Corruption
        // must degrade only that session: every other session's
        // terminal report (including its phase-stream digest) must be
        // bit-identical — even with supervised crash/restart hazards
        // firing across the fleet.
        let config = DetectorConfig::builder()
            .current_window(16)
            .trailing_window(16)
            .skip_factor(4)
            .build()
            .expect("static test config is valid");
        let victim = victim_seed as usize % streams.len();
        let mut clean = MemorySource::new();
        let mut dirty = MemorySource::new();
        for (c, frame_elements) in streams.iter().enumerate() {
            let frames: Vec<Vec<u8>> = frame_elements
                .iter()
                .map(|elements| {
                    let mut t = ExecutionTrace::new();
                    for e in elements {
                        t.record_branch(*e);
                    }
                    encode_trace(&t).to_vec()
                })
                .collect();
            clean.push_client(config, frames.clone());
            let frames = if c == victim {
                let count = frames.len();
                frames
                    .into_iter()
                    .enumerate()
                    .map(|(f, mut buf)| {
                        for &(frame_sel, pos, mask) in &corruptions {
                            if frame_sel as usize % count == f && !buf.is_empty() {
                                let i = pos as usize % buf.len();
                                buf[i] ^= mask;
                            }
                        }
                        buf
                    })
                    .collect()
            } else {
                frames
            };
            dirty.push_client(config, frames);
        }

        let serve_config = ServeConfig {
            vshards: 2,
            hazards: SeededHazards {
                seed: 0xBAD_F00D,
                kill_rate: 0.05,
                wedge_rate: 0.02,
                poison_rate: 0.0,
            },
            ..ServeConfig::default()
        };
        let options = ServiceOptions::default();
        let clean_report = run_service(&serve_config, &clean, &options)
            .expect("clean fleet runs");
        let dirty_report = run_service(&serve_config, &dirty, &options)
            .expect("corrupted fleet runs");
        prop_assert_eq!(clean_report.sessions.len(), dirty_report.sessions.len());
        for (a, b) in clean_report.sessions.iter().zip(&dirty_report.sessions) {
            prop_assert_eq!(a.client, b.client);
            if a.client as usize != victim {
                prop_assert_eq!(
                    a, b,
                    "client {}'s session changed when client {} was corrupted",
                    a.client, victim
                );
            }
        }
        // And the corrupted fleet still upholds the global invariants.
        prop_assert_eq!(dirty_report.verify_failures(), 0);
        prop_assert!(dirty_report.conservation_holds());
    }
}
