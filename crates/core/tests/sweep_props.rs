//! Property tests: for random traces and random config grids, the
//! sweep engine's phases are bit-identical to a fresh sequential
//! [`PhaseDetector`] per config — across both trailing-window
//! policies, all models and analyzers, and skip factors larger than
//! the current window (which must route to the private path).
//!
//! Random grids rarely put more than a few configs in one Adaptive-TW
//! shape group, so a second property runs one shape with sixteen
//! members over block-structured traces: enough members entering
//! phases near each other for the forking scan to fork, join live
//! classes across steps, and merge classes whose windows converge.

use opd_core::{
    AnalyzerPolicy, AnchorPolicy, DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector,
    ResizePolicy, SweepEngine, TwPolicy, UnitKind,
};
use opd_trace::{MethodId, ProfileElement};
use proptest::prelude::*;

fn interned(sites: &[u32]) -> InternedTrace {
    InternedTrace::from_elements(
        sites
            .iter()
            .map(|&s| ProfileElement::new(MethodId::new(0), s, true)),
    )
}

/// Decodes one packed parameter tuple into a detector config. `flags`
/// packs tw-policy, anchor, resize, and analyzer-kind choices.
fn decode(cw: usize, tw: usize, skip: usize, flags: u8, model: u8, x: f64) -> DetectorConfig {
    let model = match model {
        0 => ModelPolicy::UnweightedSet,
        1 => ModelPolicy::WeightedSet,
        _ => ModelPolicy::Pearson,
    };
    let analyzer = if flags & 8 == 0 {
        AnalyzerPolicy::Threshold(x)
    } else {
        AnalyzerPolicy::Average { delta: x / 2.0 }
    };
    DetectorConfig::builder()
        .current_window(cw)
        .trailing_window(tw)
        .skip_factor(skip)
        .tw_policy(if flags & 1 == 0 {
            TwPolicy::Constant
        } else {
            TwPolicy::Adaptive
        })
        .anchor(if flags & 2 == 0 {
            AnchorPolicy::RightmostNoisy
        } else {
            AnchorPolicy::LeftmostNonNoisy
        })
        .resize(if flags & 4 == 0 {
            ResizePolicy::Slide
        } else {
            ResizePolicy::Move
        })
        .model(model)
        .analyzer(analyzer)
        .build()
        .expect("generated parameters are valid")
}

/// A block-structured trace: per block, `noise` one-off sites, then
/// `len` elements cycling over `sites` block-private sites with a
/// one-off site in place of every `spike`-th element (0: none).
fn block_trace(blocks: &[(usize, u32, usize, usize)]) -> InternedTrace {
    let mut fresh = 1_000u32;
    let mut sites = Vec::new();
    for (b, &(len, n, noise, spike)) in (0u32..).zip(blocks) {
        for _ in 0..noise {
            fresh += 1;
            sites.push(fresh);
        }
        for i in 0..len {
            if spike > 0 && i % spike == spike - 1 {
                fresh += 1;
                sites.push(fresh);
            } else {
                sites.push(8 * b + i as u32 % n);
            }
        }
    }
    interned(&sites)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adaptive_shape_group_is_bit_identical_to_sequential_detectors(
        blocks in prop::collection::vec((10usize..160, 1u32..7, 0usize..40, 0usize..12), 1..6),
        (cw, tw, skip) in (2usize..16, 2usize..16, 1usize..4),
        models in prop::collection::vec(0u8..3, 16..17),
        xs in prop::collection::vec(0.05f64..0.95, 16..17),
    ) {
        let trace = block_trace(&blocks);
        // Member k: anchor from bit 0, resize from bit 1, Threshold
        // or Average from bit 2 of `flags`, always Adaptive TW.
        let configs: Vec<DetectorConfig> = (0..16u8)
            .map(|k| {
                let flags = 1 | ((k & 1) << 1) | ((k & 2) << 1) | ((k & 4) << 1);
                let k = usize::from(k);
                decode(cw, tw, skip.min(cw), flags, models[k], xs[k])
            })
            .collect();
        let engine = SweepEngine::new(&configs);
        prop_assert_eq!(engine.units().len(), 1);
        prop_assert_eq!(engine.units()[0].kind(), UnitKind::SharedAdaptive);
        let all = engine.run_all(&trace);
        for (i, &config) in configs.iter().enumerate() {
            let mut detector = PhaseDetector::new(config);
            let _ = detector.run_interned(&trace);
            prop_assert_eq!(
                all[i].as_slice(),
                detector.detected_phases(),
                "config {}: {:?}",
                i,
                config
            );
        }
    }

    #[test]
    fn engine_is_bit_identical_to_sequential_detectors(
        sites in prop::collection::vec(0u32..10, 0..500),
        params in prop::collection::vec(
            (1usize..24, 1usize..24, 1usize..32, 0u8..16, 0u8..3, 0.05f64..0.95),
            1..10,
        ),
    ) {
        let trace = interned(&sites);
        let configs: Vec<DetectorConfig> = params
            .iter()
            .map(|&(cw, tw, skip, flags, model, x)| decode(cw, tw, skip, flags, model, x))
            .collect();
        let engine = SweepEngine::new(&configs);
        let covered: usize = engine
            .units()
            .iter()
            .map(|u| u.config_indices().len())
            .sum();
        prop_assert_eq!(covered, configs.len());
        let all = engine.run_all(&trace);
        for (i, &config) in configs.iter().enumerate() {
            let mut detector = PhaseDetector::new(config);
            let _ = detector.run_interned(&trace);
            prop_assert_eq!(
                all[i].as_slice(),
                detector.detected_phases(),
                "config {}: {:?}",
                i,
                config
            );
        }
    }

    #[test]
    fn shared_scan_count_never_exceeds_config_count(
        params in prop::collection::vec(
            (1usize..24, 1usize..24, 1usize..32, 0u8..16, 0u8..3, 0.05f64..0.95),
            1..16,
        ),
    ) {
        let configs: Vec<DetectorConfig> = params
            .iter()
            .map(|&(cw, tw, skip, flags, model, x)| decode(cw, tw, skip, flags, model, x))
            .collect();
        let engine = SweepEngine::new(&configs);
        prop_assert!(engine.total_scans() <= configs.len());
        for unit in engine.units() {
            if unit.is_shared() {
                let first = configs[unit.config_indices()[0]];
                // Both TW policies share scans now; only skip > cw
                // routes privately.
                prop_assert!(first.skip_factor() <= first.current_window());
                let shape = first.shape();
                for &i in unit.config_indices() {
                    prop_assert_eq!(configs[i].tw_policy(), first.tw_policy());
                    prop_assert_eq!(configs[i].shape(), shape);
                }
            } else {
                let first = configs[unit.config_indices()[0]];
                prop_assert!(first.skip_factor() > first.current_window());
                prop_assert_eq!(unit.config_indices().len(), 1);
            }
        }
    }
}
