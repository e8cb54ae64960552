//! The window layer of Figure 3: the specification's windows
//! (`common::spec`) on the paper's worked examples, its incremental
//! per-site counts against a recount from plain vectors, and the
//! detector's window kernel against the specification step by step at
//! tiny window sizes, where every edge case (a one-element CW after a
//! Slide, an all-noise TW, a flush keeping more than it holds) is
//! common.

use proptest::prelude::*;

use opd_core::{
    AnalyzerPolicy, AnchorPolicy, DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector,
    ResizePolicy, TwPolicy,
};
use opd_trace::{MethodId, ProfileElement};

mod common;

use common::spec::{SpecDetector, SpecWindows};

/// Spec windows holding exactly `tw` then `cw`, at those capacities.
fn holding(tw: &[u32], cw: &[u32]) -> SpecWindows {
    let mut w = SpecWindows::new(cw.len(), tw.len());
    for &id in tw.iter().chain(cw) {
        w.push(id, false);
    }
    assert_eq!((w.tw.len(), w.cw.len()), (tw.len(), cw.len()));
    w
}

fn assert_close(actual: f64, expected: f64, what: &str) {
    assert!(
        (actual - expected).abs() < 1e-12,
        "{what}: {actual} vs {expected}"
    );
}

fn all_models(w: &SpecWindows) -> [f64; 3] {
    ModelPolicy::ALL_EXTENDED.map(|m| w.similarity(m))
}

#[test]
fn fifo_flow_fills_the_cw_then_the_tw_and_evicts_at_capacity() {
    let mut w = SpecWindows::new(2, 3);
    for site in 0..5 {
        w.push(site, false);
        assert!(w.cw.len() <= 2);
    }
    // CW = [3, 4], TW = [0, 1, 2].
    assert_eq!((w.cw.len(), w.tw.len()), (2, 3));
    assert!(w.warm);
    assert_eq!((w.cw_count(4), w.tw_count(0)), (1, 1));

    let mut w = SpecWindows::new(2, 3);
    for site in 0..20 {
        w.push(site % 4, false);
    }
    assert_eq!((w.cw.len(), w.tw.len()), (2, 3));
    let total: u64 = (0..4).map(|s| w.cw_count(s) + w.tw_count(s)).sum();
    assert_eq!(total, 5);
    // 20 pushed, 5 held: the front is element 15.
    assert_eq!(w.offset_of(0), 15);

    // An adaptive TW in phase grows instead of evicting.
    let mut w = SpecWindows::new(2, 3);
    for site in 0..10 {
        w.push(site, true);
    }
    assert_eq!((w.cw.len(), w.tw.len()), (2, 8));
}

#[test]
fn paper_similarity_examples() {
    // Unweighted: CW {a, b}, TW {a, c} -> 0.5 regardless of frequency.
    let w = holding(&[0, 2], &[0, 1]);
    assert_close(w.similarity(ModelPolicy::UnweightedSet), 0.5, "unweighted");
    // CW {a, a, c}, TW {a, b, c}: every distinct CW site is in the TW.
    let w = holding(&[0, 1, 2], &[0, 0, 2]);
    assert_close(
        w.similarity(ModelPolicy::UnweightedSet),
        1.0,
        "frequency-blind",
    );

    // Weighted: CW {(a,5),(b,3),(c,2)}, TW {(a,25),(b,15),(c,10),(d,50)}.
    let repeat = |site, n| std::iter::repeat(site).take(n);
    let tw: Vec<u32> = repeat(0, 25)
        .chain(repeat(1, 15))
        .chain(repeat(2, 10))
        .chain(repeat(3, 50))
        .collect();
    let cw: Vec<u32> = repeat(0, 5)
        .chain(repeat(1, 3))
        .chain(repeat(2, 2))
        .collect();
    let w = holding(&tw, &cw);
    assert_close(w.similarity(ModelPolicy::WeightedSet), 0.5, "weighted");

    // Same site sets, shifted frequencies: the unweighted model is
    // blind to it, the weighted one is not (Figure 5's compress case).
    let tw: Vec<u32> = repeat(0, 90).chain(repeat(1, 10)).collect();
    let cw: Vec<u32> = repeat(0, 10).chain(repeat(1, 90)).collect();
    let w = holding(&tw, &cw);
    assert_close(
        w.similarity(ModelPolicy::UnweightedSet),
        1.0,
        "shift, unweighted",
    );
    assert_close(
        w.similarity(ModelPolicy::WeightedSet),
        0.2,
        "shift, weighted",
    );
}

#[test]
fn model_edge_cases() {
    assert_eq!(
        all_models(&SpecWindows::new(4, 4)),
        [0.0; 3],
        "empty windows"
    );
    let w = holding(&[0, 1, 2], &[3, 4, 5]);
    assert_eq!(all_models(&w), [0.0; 3], "disjoint windows");
    let w = holding(&[1, 2, 3], &[1, 2, 3]);
    for (sim, model) in all_models(&w).into_iter().zip(ModelPolicy::ALL_EXTENDED) {
        assert_close(sim, 1.0, &format!("identical windows, {model}"));
    }
    // Extra TW-only sites do not lower the unweighted similarity...
    let w = holding(&[0, 1, 2, 3, 4, 5], &[0, 1]);
    assert_close(w.similarity(ModelPolicy::UnweightedSet), 1.0, "asymmetric");
    // ...but TW mass on sites missing from the CW is lost from the
    // weighted sum: min(1, 0.25).
    let w = holding(&[0, 9, 9, 9], &[0, 0, 0, 0]);
    assert_close(w.similarity(ModelPolicy::WeightedSet), 0.25, "TW-only mass");
    for (tw, cw) in [
        (&[0][..], &[0][..]),
        (&[0, 1, 0, 1], &[1, 1, 1, 1]),
        (&[5, 5, 5], &[5, 6, 7]),
    ] {
        for sim in all_models(&holding(tw, cw)) {
            assert!((0.0..=1.0).contains(&sim), "{tw:?} / {cw:?}: {sim}");
        }
    }
}

#[test]
fn pearson_cases() {
    let pearson = |tw: &[u32], cw: &[u32]| holding(tw, cw).similarity(ModelPolicy::Pearson);
    assert_close(
        pearson(&[0, 1, 1, 2], &[0, 1, 1, 2]),
        1.0,
        "identical counts",
    );
    assert_eq!(
        pearson(&[0, 0, 1], &[2, 3, 3]),
        0.0,
        "anti-correlated, clamped"
    );
    // Shape, not magnitude: a TW twice as long with the same mix.
    let tw = [0, 0, 0, 1, 2, 0, 0, 0, 1, 2];
    assert_close(pearson(&tw, &[0, 0, 0, 1, 2]), 1.0, "scale invariant");
    // Zero variance on one shared site: full support overlap.
    assert_eq!(pearson(&[5, 5], &[5, 5]), 1.0, "zero variance");
}

#[test]
fn anchor_examples() {
    // TW = [a, b, c], CW = [a, a, c]; b is noisy. RN anchors one right
    // of b (index 2), LNN at the leftmost non-noisy element (index 0).
    let w = holding(&[0, 1, 2], &[0, 0, 2]);
    assert_eq!(w.anchor_index(AnchorPolicy::RightmostNoisy), 2);
    assert_eq!(w.anchor_index(AnchorPolicy::LeftmostNonNoisy), 0);
    // No noise: both anchor at the TW front.
    let w = holding(&[0, 1], &[0, 1]);
    assert_eq!(w.anchor_index(AnchorPolicy::RightmostNoisy), 0);
    assert_eq!(w.anchor_index(AnchorPolicy::LeftmostNonNoisy), 0);
    // All noise: both anchor past the TW's end.
    let w = holding(&[5, 6], &[0, 1]);
    assert_eq!(w.anchor_index(AnchorPolicy::RightmostNoisy), 2);
    assert_eq!(w.anchor_index(AnchorPolicy::LeftmostNonNoisy), 2);
}

#[test]
fn slide_and_move_resize_examples() {
    // Slide drops the noisy front element, then refills the TW to its
    // capacity from the CW.
    let mut w = holding(&[9, 0, 1, 2], &[0, 1, 2, 3]);
    let anchor = w.anchor_index(AnchorPolicy::RightmostNoisy);
    assert_eq!(anchor, 1);
    assert_eq!(w.anchor_and_resize(anchor, ResizePolicy::Slide), 1);
    assert_eq!((w.tw.len(), w.cw.len()), (4, 3));
    // Move only drops the prefix.
    let mut w = holding(&[9, 0, 1, 2], &[0, 1, 2, 3]);
    assert_eq!(w.anchor_and_resize(1, ResizePolicy::Move), 1);
    assert_eq!((w.tw.len(), w.cw.len()), (3, 4));
    // Dropping the whole TW and sliding keeps one CW element.
    let mut w = holding(&[1, 2, 3, 4], &[5]);
    let _ = w.anchor_and_resize(4, ResizePolicy::Slide);
    assert_eq!((w.tw.len(), w.cw.len()), (0, 1));
}

#[test]
fn flush_reseeds_the_cw_with_the_last_elements() {
    let mut w = SpecWindows::new(3, 3);
    for site in 0..9 {
        w.push(site, false);
    }
    w.clear_keep_last(2);
    assert_eq!((w.cw.len(), w.tw.len()), (2, 0));
    assert!(!w.warm);
    // Kept the most recent two elements, 7 and 8, at their offsets.
    assert_eq!(Vec::from(w.cw.clone()), [7, 8]);
    assert_eq!((w.cw_count(7), w.cw_count(8), w.cw_count(6)), (1, 1, 0));
    assert_eq!(w.offset_of(0), 7);
    // Keeping more than the windows hold keeps everything.
    let mut w = SpecWindows::new(3, 3);
    w.push(1, false);
    w.clear_keep_last(10);
    assert_eq!((w.cw.len(), w.tw.len()), (1, 0));
}

/// The reference model: the same FIFO semantics over plain vectors,
/// recounting every site from scratch.
#[derive(Debug, Clone)]
struct NaiveWindows {
    tw: Vec<u32>,
    cw: Vec<u32>,
    cw_cap: usize,
    tw_cap: usize,
}

impl NaiveWindows {
    fn new(cw_cap: usize, tw_cap: usize) -> Self {
        NaiveWindows {
            tw: Vec::new(),
            cw: Vec::new(),
            cw_cap,
            tw_cap,
        }
    }

    fn push(&mut self, site: u32, tw_grows: bool) {
        self.cw.push(site);
        if self.cw.len() > self.cw_cap {
            let moved = self.cw.remove(0);
            self.tw.push(moved);
        }
        if !tw_grows {
            while self.tw.len() > self.tw_cap {
                self.tw.remove(0);
            }
        }
    }

    fn clear_keep_last(&mut self, keep: usize) {
        let mut all = self.tw.clone();
        all.extend(&self.cw);
        let start = all.len().saturating_sub(keep);
        self.cw = all[start..].to_vec();
        self.tw.clear();
    }

    fn count(v: &[u32], site: u32) -> u64 {
        v.iter().filter(|&&s| s == site).count() as u64
    }

    fn unweighted(&self) -> f64 {
        let mut distinct: Vec<u32> = self.cw.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.is_empty() {
            return 0.0;
        }
        let shared = distinct
            .iter()
            .filter(|&&s| Self::count(&self.tw, s) > 0)
            .count();
        shared as f64 / distinct.len() as f64
    }

    fn weighted(&self) -> f64 {
        if self.cw.is_empty() || self.tw.is_empty() {
            return 0.0;
        }
        let mut distinct: Vec<u32> = self.cw.clone();
        distinct.sort_unstable();
        distinct.dedup();
        distinct
            .iter()
            .map(|&s| {
                let wc = Self::count(&self.cw, s) as f64 / self.cw.len() as f64;
                let wt = Self::count(&self.tw, s) as f64 / self.tw.len() as f64;
                wc.min(wt)
            })
            .sum()
    }

    fn anchor_rn(&self) -> usize {
        for j in (0..self.tw.len()).rev() {
            if Self::count(&self.cw, self.tw[j]) == 0 {
                return j + 1;
            }
        }
        0
    }

    fn anchor_lnn(&self) -> usize {
        for (j, &site) in self.tw.iter().enumerate() {
            if Self::count(&self.cw, site) > 0 {
                return j;
            }
        }
        self.tw.len()
    }
}

/// An operation on the window pair.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32, bool),
    Clear(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            8 => (0u32..12, any::<bool>()).prop_map(|(s, g)| Op::Push(s, g)),
            1 => (0usize..6).prop_map(Op::Clear),
        ],
        1..300,
    )
}

fn arb_small_config() -> impl Strategy<Value = DetectorConfig> {
    (
        1usize..12,
        1usize..12,
        1usize..5,
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
        (0.0f64..=1.0).prop_map(AnalyzerPolicy::Threshold),
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn windows_match_naive_model(
        cw_cap in 1usize..12,
        tw_cap in 1usize..12,
        ops in arb_ops(),
    ) {
        let mut fast = SpecWindows::new(cw_cap, tw_cap);
        let mut slow = NaiveWindows::new(cw_cap, tw_cap);
        for op in ops {
            match op {
                Op::Push(site, grows) => {
                    fast.push(site, grows);
                    slow.push(site, grows);
                }
                Op::Clear(keep) => {
                    fast.clear_keep_last(keep);
                    slow.clear_keep_last(keep);
                }
            }
            prop_assert_eq!(Vec::from(fast.cw.clone()), slow.cw.clone());
            prop_assert_eq!(Vec::from(fast.tw.clone()), slow.tw.clone());
            for s in 0..12 {
                prop_assert_eq!(fast.cw_count(s), NaiveWindows::count(&slow.cw, s), "cw {}", s);
                prop_assert_eq!(fast.tw_count(s), NaiveWindows::count(&slow.tw, s), "tw {}", s);
            }
            let (fu, su) = (fast.similarity(ModelPolicy::UnweightedSet), slow.unweighted());
            prop_assert!((fu - su).abs() < 1e-9, "unweighted {fu} vs {su}");
            let (fw, sw) = (fast.similarity(ModelPolicy::WeightedSet), slow.weighted());
            prop_assert!((fw - sw).abs() < 1e-9, "weighted {fw} vs {sw}");
            prop_assert_eq!(
                fast.anchor_index(AnchorPolicy::RightmostNoisy),
                slow.anchor_rn()
            );
            prop_assert_eq!(
                fast.anchor_index(AnchorPolicy::LeftmostNonNoisy),
                slow.anchor_lnn()
            );
        }
    }

    #[test]
    fn pearson_is_bounded_and_symmetric_in_support(
        cw_cap in 1usize..10,
        tw_cap in 1usize..10,
        sites in prop::collection::vec(0u32..8, 1..120),
    ) {
        let mut w = SpecWindows::new(cw_cap, tw_cap);
        for s in sites {
            w.push(s, false);
            let p = w.similarity(ModelPolicy::Pearson);
            prop_assert!((0.0..=1.0).contains(&p), "{p}");
        }
    }

    #[test]
    fn detector_windows_match_the_spec_step_by_step(
        config in arb_small_config(),
        sites in prop::collection::vec(0u32..12, 1..300),
    ) {
        let elements: Vec<ProfileElement> = sites
            .iter()
            .map(|&s| ProfileElement::new(MethodId::new(0), s, true))
            .collect();
        let interned = InternedTrace::from_elements(elements.iter().copied());
        let mut detector = PhaseDetector::new(config);
        let mut spec = SpecDetector::new(config);
        let skip = config.skip_factor();
        for (step, (chunk, ids)) in elements.chunks(skip).zip(interned.ids().chunks(skip)).enumerate() {
            prop_assert_eq!(detector.process(chunk), spec.step(ids), "step {}", step);
            prop_assert_eq!(
                (detector.cw_len(), detector.tw_len()),
                (spec.windows.cw.len(), spec.windows.tw.len()),
                "step {} window lengths", step
            );
            prop_assert_eq!(
                detector.last_similarity().map(f64::to_bits),
                spec.last_similarity().map(f64::to_bits),
                "step {} similarity", step
            );
        }
        prop_assert_eq!(detector.detected_phases(), &spec.phases[..]);
    }
}
