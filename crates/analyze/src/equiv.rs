//! The configuration equivalence prover.
//!
//! Two detector configurations are *equivalent* when they produce
//! bit-identical `DetectedPhase` streams on **every** trace. The
//! prover establishes equivalence by canonicalization: each config is
//! rewritten by semantics-preserving rules into a canonical form, and
//! configs with equal canonical forms are declared equivalent.
//! Because every rule preserves output exactly, equality of canonical
//! forms composes transitively and the resulting partition is a true
//! equivalence relation. The rules (worked proof sketches live in
//! DESIGN.md §13):
//!
//! * **Dead resize** — under a constant trailing window the resize
//!   policy is never consulted (windows are resized only on the
//!   Adaptive phase-start path; a Constant-TW phase start only reads
//!   the anchor offset), so `Move` and `Slide` coincide; the canonical
//!   form uses `Slide`.
//! * **Always-fire analyzer** — a `Threshold(t ≤ 0)` analyzer, or an
//!   `Average { delta: 1.0 }` analyzer whose similarities provably
//!   never exceed `1.0`, judges *Phase* at every warm step. Such a
//!   detector emits exactly one phase, from the first warm step to
//!   trace end, and never flushes — so the model, TW policy, and
//!   resize policy are unobservable and collapse; only the window
//!   shape and the anchor policy survive into the canonical form.
//! * **Threshold snapping** — unweighted similarities are exactly
//!   `fl(k/n)` for integers `0 ≤ k ≤ n ≤ cw` (the distinct-site
//!   counts never exceed the CW capacity when `skip ≤ cw`), and
//!   weighted similarities under a constant TW are exactly
//!   `fl(m/(cw·tw))`. Two thresholds with no achievable value between
//!   them make identical decisions everywhere, so each threshold
//!   snaps to the smallest achievable value at or above it. The
//!   search is exact: fractions are compared against the threshold's
//!   dyadic decomposition in integer arithmetic (no float round-off),
//!   and the float the detector would actually compute is re-derived
//!   with the same `as f64` division the window code performs.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

use opd_core::{AnalyzerPolicy, DetectorConfig, ModelPolicy, ResizePolicy, TwPolicy};

/// Largest denominator bound the exact fraction search supports.
/// Beyond this the Farey gaps approach the rounding error of `f64`
/// division and snapping is conservatively disabled.
const MAX_SNAP_DENOM: u64 = 1 << 20;

/// Largest fixed denominator (`cw·tw`) the weighted snap supports.
const MAX_FIXED_DENOM: u64 = 1 << 40;

/// A canonicalization rule of the equivalence prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum EquivRule {
    /// Resize policy is dead under a constant trailing window.
    DeadResize,
    /// The analyzer fires at every warm step; model, TW policy, and
    /// resize are unobservable.
    AlwaysFire,
    /// No achievable similarity separates the threshold from its
    /// snapped value.
    ThresholdSnap,
}

impl EquivRule {
    /// Stable short name, used in reports and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EquivRule::DeadResize => "dead-resize",
            EquivRule::AlwaysFire => "always-fire",
            EquivRule::ThresholdSnap => "threshold-snap",
        }
    }

    /// One-sentence proof sketch of why the rule is sound.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            EquivRule::DeadResize => {
                "a constant trailing window never reaches the resize path \
                 (windows are resized only on the Adaptive phase-start path), \
                 so Slide and Move produce identical windows forever"
            }
            EquivRule::AlwaysFire => {
                "the analyzer judges Phase at every warm step (similarities are \
                 always within its firing range), so the detector emits exactly one \
                 phase from the first warm step to trace end and never flushes; the \
                 model, TW policy, and resize policy are never observable"
            }
            EquivRule::ThresholdSnap => {
                "similarities are quotients of bounded integer counts, so no \
                 achievable value lies between the original threshold and its snapped \
                 value; every judge call decides identically under either"
            }
        }
    }
}

impl fmt::Display for EquivRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `t` as an exact dyadic rational `m · 2^e` (requires `t > 0`,
/// finite).
fn dyadic(t: f64) -> Option<(u64, i32)> {
    if !t.is_finite() || t <= 0.0 {
        return None;
    }
    let bits = t.to_bits();
    let exp_field = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    if exp_field == 0 {
        Some((frac, -1074))
    } else {
        Some((frac | (1 << 52), exp_field - 1075))
    }
}

/// The Farey bracket of `t` at denominator bound `max_denom`:
/// `(prev, next)` with `prev < t ≤ next`, `prev` the largest such
/// fraction and `next` the smallest, both in lowest terms with
/// denominators ≤ `max_denom`. Requires `0 < t ≤ 1`.
///
/// The walk is a run-compressed Stern–Brocot descent; every
/// comparison is exact integer arithmetic against the dyadic form of
/// `t`, so no float round-off can misclassify a fraction.
fn farey_bracket(t: f64, max_denom: u64) -> Option<((u64, u64), (u64, u64))> {
    if max_denom == 0 || max_denom > MAX_SNAP_DENOM {
        return None;
    }
    if !t.is_finite() || t <= 0.0 || t > 1.0 {
        return None;
    }
    let (m, e) = dyadic(t)?;
    let s = u32::try_from(-e).ok()?;
    if s > 100 {
        // t below ~2^-48: the shifted numerator would overflow u128.
        return None;
    }
    // value(k/n) vs t, exactly: k·2^s vs m·n.
    let cmp = |k: u64, n: u64| -> Ordering {
        ((u128::from(k)) << s).cmp(&(u128::from(m) * u128::from(n)))
    };
    let mut lo = (0u64, 1u64);
    let mut hi = (1u64, 1u64);
    // Invariant: lo < t ≤ hi, both in lowest terms, and every
    // fraction strictly between them has denominator > lo.1 + hi.1 - 1.
    loop {
        if lo.1 + hi.1 > max_denom {
            break;
        }
        if cmp(lo.0 + hi.0, lo.1 + hi.1) == Ordering::Less {
            // Mediant still below t: advance lo by the largest run
            // lo + j·hi that stays below t within the denominator cap.
            let j_cap = (max_denom - lo.1) / hi.1;
            let (mut a, mut b) = (1u64, j_cap);
            while a < b {
                let mid = (a + b).div_ceil(2);
                if cmp(lo.0 + mid * hi.0, lo.1 + mid * hi.1) == Ordering::Less {
                    a = mid;
                } else {
                    b = mid - 1;
                }
            }
            lo = (lo.0 + a * hi.0, lo.1 + a * hi.1);
        } else {
            // Mediant at or above t: advance hi symmetrically.
            let j_cap = (max_denom - hi.1) / lo.1;
            let (mut a, mut b) = (1u64, j_cap);
            while a < b {
                let mid = (a + b).div_ceil(2);
                if cmp(hi.0 + mid * lo.0, hi.1 + mid * lo.1) != Ordering::Less {
                    a = mid;
                } else {
                    b = mid - 1;
                }
            }
            hi = (hi.0 + a * lo.0, hi.1 + a * lo.1);
        }
    }
    Some((lo, hi))
}

/// The smallest value `fl(k/n)` with `n ≤ max_denom` that is ≥ `t`,
/// i.e. the lowest similarity an unweighted detector with CW capacity
/// `max_denom` can produce that still clears threshold `t`.
///
/// Returns the exact `f64` the detector's division would yield, so a
/// config whose threshold is replaced by the snapped value makes
/// identical decisions on every achievable similarity. Returns `None`
/// when snapping is unsupported (`t` outside `(0, 1]`, or bounds too
/// large for exact arithmetic) — callers must then leave the
/// threshold untouched.
#[must_use]
pub fn snap_threshold(t: f64, max_denom: u64) -> Option<f64> {
    snap_fraction(t, max_denom).map(|(k, n)| k as f64 / n as f64)
}

/// The fraction `(k, n)` whose `f64` division is [`snap_threshold`]'s
/// result — used by the plan witness probes to engineer traces whose
/// similarity lands exactly on a decision boundary.
pub(crate) fn snap_fraction(t: f64, max_denom: u64) -> Option<(u64, u64)> {
    let (prev, next) = farey_bracket(t, max_denom)?;
    // The largest fraction below t may round *up* to ≥ t under f64
    // division; it is then the smallest achievable value clearing t
    // (Farey gaps at this denominator bound exceed one ulp, so no
    // earlier fraction can also cross).
    if prev.0 as f64 / prev.1 as f64 >= t {
        Some(prev)
    } else {
        Some(next)
    }
}

/// The smallest value `fl(m/denom)` that is ≥ `t`: the weighted-model
/// analogue of [`snap_threshold`] for the fixed denominator
/// `cw·tw` a warm constant-TW weighted window divides by.
#[must_use]
pub fn snap_threshold_fixed(t: f64, denom: u64) -> Option<f64> {
    if denom == 0 || denom > MAX_FIXED_DENOM {
        return None;
    }
    if !t.is_finite() || t <= 0.0 || t > 1.0 {
        return None;
    }
    let (m, e) = dyadic(t)?;
    let s = u32::try_from(-e).ok()?;
    if s > 80 {
        return None;
    }
    // ceil(t·denom) in exact integer arithmetic.
    let prod = u128::from(m) * u128::from(denom);
    let m0 = ((prod + ((1u128 << s) - 1)) >> s) as u64;
    debug_assert!((1..=denom).contains(&m0));
    let prev = (m0 - 1) as f64 / denom as f64;
    if prev >= t {
        Some(prev)
    } else {
        Some(m0 as f64 / denom as f64)
    }
}

/// Whether `config`'s analyzer provably judges *Phase* at every warm
/// step, on every trace.
///
/// `Threshold(t ≤ 0)` always fires because every similarity model
/// returns values ≥ 0. `Average { delta: 1.0 }` always fires when
/// similarities provably never exceed `1.0` — true for the unweighted
/// model (exact quotients `k/n ≤ 1`), Pearson (clamped), and the
/// weighted model under a constant TW (integer fast path `m/(cw·tw)`
/// with `m ≤ cw·tw`). The weighted model under an *adaptive* TW is
/// excluded: its over-capacity slow path sums rounded per-site
/// quotients, which can exceed `1.0` by an ulp and leave the running
/// average above `1.0`.
#[must_use]
pub fn always_fires(config: &DetectorConfig) -> bool {
    match config.analyzer() {
        AnalyzerPolicy::Threshold(t) => t <= 0.0,
        AnalyzerPolicy::Average { delta } => {
            delta >= 1.0
                && (config.model() != ModelPolicy::WeightedSet
                    || config.tw_policy() == TwPolicy::Constant)
        }
    }
}

/// Hashable encoding of a canonical form (`DetectorConfig` itself has
/// float fields and no `Hash`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CanonKey {
    cw: usize,
    tw: usize,
    skip: usize,
    tw_policy: u8,
    anchor: u8,
    resize: u8,
    model: u8,
    analyzer_tag: u8,
    param_bits: u64,
}

impl CanonKey {
    fn of(c: &DetectorConfig) -> Self {
        let (analyzer_tag, param_bits) = match c.analyzer() {
            AnalyzerPolicy::Threshold(t) => (0, t.to_bits()),
            AnalyzerPolicy::Average { delta } => (1, delta.to_bits()),
        };
        CanonKey {
            cw: c.current_window(),
            tw: c.trailing_window(),
            skip: c.skip_factor(),
            tw_policy: matches!(c.tw_policy(), TwPolicy::Adaptive).into(),
            anchor: matches!(c.anchor(), opd_core::AnchorPolicy::LeftmostNonNoisy).into(),
            resize: matches!(c.resize(), ResizePolicy::Move).into(),
            model: match c.model() {
                ModelPolicy::UnweightedSet => 0,
                ModelPolicy::WeightedSet => 1,
                ModelPolicy::Pearson => 2,
            },
            analyzer_tag,
            param_bits,
        }
    }
}

/// Canonicalizes one configuration: returns the canonical form and
/// the rules that fired (empty when the config is already canonical).
#[must_use]
pub fn canonicalize(config: &DetectorConfig) -> (DetectorConfig, Vec<EquivRule>) {
    let mut rules = Vec::new();
    let mut resize = config.resize();
    let mut model = config.model();
    let mut tw_policy = config.tw_policy();
    let mut analyzer = config.analyzer();

    if tw_policy == TwPolicy::Constant && resize != ResizePolicy::Slide {
        resize = ResizePolicy::Slide;
        rules.push(EquivRule::DeadResize);
    }

    if always_fires(config) {
        let already = matches!(analyzer, AnalyzerPolicy::Threshold(t) if t.to_bits() == 0)
            && model == ModelPolicy::UnweightedSet
            && tw_policy == TwPolicy::Constant
            && resize == ResizePolicy::Slide;
        if !already {
            rules.push(EquivRule::AlwaysFire);
        }
        analyzer = AnalyzerPolicy::Threshold(0.0);
        model = ModelPolicy::UnweightedSet;
        tw_policy = TwPolicy::Constant;
        resize = ResizePolicy::Slide;
    } else if let AnalyzerPolicy::Threshold(t) = analyzer {
        // Distinct-site counts stay within the CW capacity only when
        // a phase-end flush fits in the CW; over-capacity transients
        // (skip > cw) void the denominator bound.
        if config.skip_factor() <= config.current_window() {
            let snapped = match (model, tw_policy) {
                (ModelPolicy::UnweightedSet, _) => {
                    snap_threshold(t, config.current_window() as u64)
                }
                (ModelPolicy::WeightedSet, TwPolicy::Constant) => (config.current_window() as u64)
                    .checked_mul(config.trailing_window() as u64)
                    .and_then(|d| snap_threshold_fixed(t, d)),
                _ => None,
            };
            if let Some(snap) = snapped {
                if snap.to_bits() != t.to_bits() {
                    analyzer = AnalyzerPolicy::Threshold(snap);
                    rules.push(EquivRule::ThresholdSnap);
                }
            }
        }
    }

    let canon = DetectorConfig::builder()
        .current_window(config.current_window())
        .trailing_window(config.trailing_window())
        .skip_factor(config.skip_factor())
        .tw_policy(tw_policy)
        .anchor(config.anchor())
        .resize(resize)
        .model(model)
        .analyzer(analyzer)
        .build()
        .expect("canonical form of a valid config is valid");
    (canon, rules)
}

/// One class of provably equivalent grid entries.
#[derive(Debug, Clone)]
pub struct EquivClass {
    representative: usize,
    members: Vec<usize>,
    rules: Vec<EquivRule>,
    canonical: DetectorConfig,
}

impl EquivClass {
    /// Index (into the analyzed grid) of the class representative —
    /// the first member in grid order. Running only the
    /// representative reproduces every member's output exactly.
    #[must_use]
    pub fn representative(&self) -> usize {
        self.representative
    }

    /// All member indices, ascending (the representative included).
    #[must_use]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Rules that fired across the members' canonicalizations, in
    /// rule order, deduplicated. Empty for a trivial (singleton,
    /// already-canonical) class.
    #[must_use]
    pub fn rules(&self) -> &[EquivRule] {
        &self.rules
    }

    /// The shared canonical form.
    #[must_use]
    pub fn canonical(&self) -> &DetectorConfig {
        &self.canonical
    }

    /// `true` when the class merges at least two grid entries.
    #[must_use]
    pub fn is_nontrivial(&self) -> bool {
        self.members.len() > 1
    }

    /// The witness backing the class: which rules prove each member
    /// equal to the canonical form, with their proof sketches.
    #[must_use]
    pub fn proof(&self) -> String {
        if self.members.len() == 1 && self.rules.is_empty() {
            return "singleton class: no other grid entry shares this canonical form".into();
        }
        let mut out = format!(
            "members {:?} share canonical form `{}` via: ",
            self.members, self.canonical
        );
        if self.rules.is_empty() {
            out.push_str("textual identity (exact duplicates)");
        } else {
            for (i, rule) in self.rules.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                out.push_str(rule.as_str());
                out.push_str(" (");
                out.push_str(rule.explain());
                out.push(')');
            }
        }
        out
    }
}

/// Partitions `configs` into provable-equivalence classes, in
/// first-seen order of their representatives.
#[must_use]
pub fn equivalence_classes(configs: &[DetectorConfig]) -> Vec<EquivClass> {
    let mut class_of_key: HashMap<CanonKey, usize> = HashMap::new();
    let mut classes: Vec<EquivClass> = Vec::new();
    for (i, config) in configs.iter().enumerate() {
        let (canon, rules) = canonicalize(config);
        let key = CanonKey::of(&canon);
        let class_index = *class_of_key.entry(key).or_insert_with(|| {
            classes.push(EquivClass {
                representative: i,
                members: Vec::new(),
                rules: Vec::new(),
                canonical: canon,
            });
            classes.len() - 1
        });
        let class = &mut classes[class_index];
        class.members.push(i);
        for rule in rules {
            if !class.rules.contains(&rule) {
                class.rules.push(rule);
            }
        }
        class.rules.sort_unstable();
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_core::AnchorPolicy;

    fn config(
        model: ModelPolicy,
        analyzer: AnalyzerPolicy,
        tw_policy: TwPolicy,
        resize: ResizePolicy,
    ) -> DetectorConfig {
        DetectorConfig::builder()
            .current_window(8)
            .trailing_window(8)
            .model(model)
            .analyzer(analyzer)
            .tw_policy(tw_policy)
            .resize(resize)
            .build()
            .unwrap()
    }

    #[test]
    fn farey_bracket_is_exact() {
        // Smallest fraction ≥ 0.51 with denominator ≤ 8 is 4/7; the
        // largest below is 1/2.
        assert_eq!(farey_bracket(0.51, 8), Some(((1, 2), (4, 7))));
        // 0.5 is itself achievable: bracket pins next to 1/2.
        assert_eq!(farey_bracket(0.5, 8), Some(((3, 7), (1, 2))));
        assert_eq!(farey_bracket(1.0, 5), Some(((4, 5), (1, 1))));
        assert_eq!(farey_bracket(0.0, 8), None);
        assert_eq!(farey_bracket(1.5, 8), None);
    }

    #[test]
    fn snap_threshold_picks_smallest_achievable_value() {
        assert_eq!(snap_threshold(0.5, 8), Some(0.5));
        assert_eq!(snap_threshold(0.51, 8), Some(4.0 / 7.0));
        // No fraction with denominator ≤ 8 lies in [0.88, 0.98): both
        // snap to 1.0 and are therefore equivalent thresholds.
        assert_eq!(snap_threshold(0.88, 8), Some(1.0));
        assert_eq!(snap_threshold(0.98, 8), Some(1.0));
        // Dense denominators leave fine thresholds alone only when a
        // fraction sits between them.
        assert_ne!(snap_threshold(0.55, 500), snap_threshold(0.56, 500));
    }

    #[test]
    fn snap_threshold_exhaustive_small_denominators() {
        // Brute-force cross-check: for every float t drawn from a
        // fine lattice, the snap must equal the minimum fl(k/n) ≥ t.
        let denom = 12u64;
        let mut achievable: Vec<f64> = Vec::new();
        for n in 1..=denom {
            for k in 0..=n {
                achievable.push(k as f64 / n as f64);
            }
        }
        achievable.sort_by(f64::total_cmp);
        for i in 0..=1000 {
            let t = f64::from(i) / 1000.0;
            if t <= 0.0 {
                continue;
            }
            let expected = achievable.iter().copied().find(|&v| v >= t);
            assert_eq!(snap_threshold(t, denom), expected, "t={t}");
        }
    }

    #[test]
    fn snap_threshold_fixed_matches_scan() {
        let denom = 64u64 * 48;
        for &t in &[0.1, 0.35, 0.5, 0.665, 0.9, 1.0] {
            let expected = (0..=denom)
                .map(|m| m as f64 / denom as f64)
                .find(|&v| v >= t);
            assert_eq!(snap_threshold_fixed(t, denom), expected, "t={t}");
        }
        assert_eq!(snap_threshold_fixed(0.5, 0), None);
        assert_eq!(snap_threshold_fixed(0.5, MAX_FIXED_DENOM + 1), None);
    }

    #[test]
    fn always_fire_classification() {
        let af =
            |model, analyzer, twp| always_fires(&config(model, analyzer, twp, ResizePolicy::Slide));
        let thr0 = AnalyzerPolicy::Threshold(0.0);
        let avg1 = AnalyzerPolicy::Average { delta: 1.0 };
        assert!(af(ModelPolicy::UnweightedSet, thr0, TwPolicy::Constant));
        assert!(af(ModelPolicy::WeightedSet, thr0, TwPolicy::Adaptive));
        assert!(af(ModelPolicy::UnweightedSet, avg1, TwPolicy::Adaptive));
        assert!(af(ModelPolicy::WeightedSet, avg1, TwPolicy::Constant));
        // Weighted + adaptive sums rounded quotients: avg may exceed
        // 1.0 by an ulp, so the rule conservatively refuses.
        assert!(!af(ModelPolicy::WeightedSet, avg1, TwPolicy::Adaptive));
        assert!(!af(
            ModelPolicy::UnweightedSet,
            AnalyzerPolicy::Threshold(0.1),
            TwPolicy::Constant
        ));
        assert!(!af(
            ModelPolicy::UnweightedSet,
            AnalyzerPolicy::Average { delta: 0.4 },
            TwPolicy::Constant
        ));
    }

    #[test]
    fn dead_resize_and_always_fire_collapse_classes() {
        let thr = AnalyzerPolicy::Threshold(0.5);
        let grid = vec![
            config(
                ModelPolicy::UnweightedSet,
                thr,
                TwPolicy::Constant,
                ResizePolicy::Slide,
            ),
            config(
                ModelPolicy::UnweightedSet,
                thr,
                TwPolicy::Constant,
                ResizePolicy::Move,
            ),
            // Always-fire: model and TW policy collapse too.
            config(
                ModelPolicy::Pearson,
                AnalyzerPolicy::Threshold(0.0),
                TwPolicy::Adaptive,
                ResizePolicy::Move,
            ),
            config(
                ModelPolicy::WeightedSet,
                AnalyzerPolicy::Average { delta: 1.0 },
                TwPolicy::Constant,
                ResizePolicy::Slide,
            ),
            // Distinct: adaptive keeps its resize axis alive.
            config(
                ModelPolicy::UnweightedSet,
                thr,
                TwPolicy::Adaptive,
                ResizePolicy::Slide,
            ),
            config(
                ModelPolicy::UnweightedSet,
                thr,
                TwPolicy::Adaptive,
                ResizePolicy::Move,
            ),
        ];
        let classes = equivalence_classes(&grid);
        assert_eq!(classes.len(), 4);
        assert_eq!(classes[0].members(), &[0, 1]);
        assert_eq!(classes[0].rules(), &[EquivRule::DeadResize]);
        assert_eq!(classes[1].members(), &[2, 3]);
        assert!(classes[1].rules().contains(&EquivRule::AlwaysFire));
        assert_eq!(classes[2].members(), &[4]);
        assert_eq!(classes[3].members(), &[5]);
        assert!(classes[0].proof().contains("dead-resize"));
        assert!(classes[2].proof().contains("singleton"));
    }

    #[test]
    fn threshold_snapping_merges_unachievably_close_thresholds() {
        let mk = |t| {
            config(
                ModelPolicy::UnweightedSet,
                AnalyzerPolicy::Threshold(t),
                TwPolicy::Constant,
                ResizePolicy::Slide,
            )
        };
        // cw = 8: no fraction with denominator ≤ 8 lies in [0.88, 0.98).
        let classes = equivalence_classes(&[mk(0.88), mk(0.98), mk(0.5), mk(0.52)]);
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].members(), &[0, 1]);
        assert_eq!(classes[0].rules(), &[EquivRule::ThresholdSnap]);
        // 0.5 is achievable (4/8): 0.5 and 0.52 straddle it vs 4/7.
        assert_eq!(classes[1].members(), &[2]);
        assert_eq!(classes[2].members(), &[3]);
    }

    #[test]
    fn exact_duplicates_merge_with_no_rules() {
        let c = config(
            ModelPolicy::Pearson,
            AnalyzerPolicy::Average { delta: 0.2 },
            TwPolicy::Adaptive,
            ResizePolicy::Move,
        );
        let classes = equivalence_classes(&[c, c]);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].members(), &[0, 1]);
        assert!(classes[0].rules().is_empty());
        assert!(classes[0].proof().contains("exact duplicates"));
    }

    #[test]
    fn anchor_survives_always_fire_collapse() {
        let mk = |anchor| {
            DetectorConfig::builder()
                .current_window(8)
                .anchor(anchor)
                .analyzer(AnalyzerPolicy::Threshold(0.0))
                .build()
                .unwrap()
        };
        let classes = equivalence_classes(&[
            mk(AnchorPolicy::RightmostNoisy),
            mk(AnchorPolicy::LeftmostNonNoisy),
        ]);
        assert_eq!(classes.len(), 2, "anchor affects anchored_start");
    }

    // ------------------------------------------------------------------
    // Overflow hardening: the u128 cross-multiplications at the extreme
    // ends of the supported ranges. `farey_bracket` compares
    // `k·2^s` against `m·n` with `k, n ≤ MAX_SNAP_DENOM = 2^20`,
    // `m < 2^53`, `s ≤ 100`; `snap_threshold_fixed` forms
    // `m·denom + 2^s − 1` with `denom ≤ MAX_FIXED_DENOM = 2^40`,
    // `s ≤ 80`. Worst cases (2^120 and ~2^93) must stay below 2^128,
    // and the s-guards must reject exactly the inputs beyond that.
    // ------------------------------------------------------------------

    /// Exact rational comparison of `a/b` vs `c/d` without overflow
    /// concerns — the reference the snap arithmetic must agree with.
    fn frac_cmp(a: u64, b: u64, c: u64, d: u64) -> Ordering {
        (u128::from(a) * u128::from(d)).cmp(&(u128::from(c) * u128::from(b)))
    }

    #[test]
    fn farey_bracket_survives_the_extreme_denominator() {
        // The smallest and largest achievable fractions at the maximum
        // supported denominator: if any intermediate `k << s`
        // overflowed u128, these brackets would come back wrong.
        let d = MAX_SNAP_DENOM;
        let tiny = 1.0 / d as f64;
        let ((pl, pd), (nl, nd)) = farey_bracket(tiny, d).expect("supported");
        assert_eq!((pl, pd), (0, 1));
        assert_eq!((nl, nd), (1, d));

        let near_one = (d - 1) as f64 / d as f64;
        let ((pl, pd), (nl, nd)) = farey_bracket(near_one, d).expect("supported");
        assert_eq!((nl, nd), (d - 1, d), "achievable values bracket themselves");
        assert_eq!(frac_cmp(pl, pd, nl, nd), Ordering::Less);

        // One past the cap is conservatively unsupported, never wrong.
        assert_eq!(farey_bracket(0.5, d + 1), None);
    }

    #[test]
    fn farey_bracket_invariants_hold_exhaustively_at_max_denominator() {
        // Bounded-exhaustive: for every t = fl(k/n) with n ≤ 17, the
        // bracket at denominator MAX_SNAP_DENOM must satisfy
        // prev < t ≤ next (compared EXACTLY, via t's own dyadic form —
        // fl(k/n) is rarely k/n itself) with nothing of denominator
        // ≤ MAX_SNAP_DENOM strictly between. Any u128 slip in the
        // `k·2^s` vs `m·n` comparison would misplace at least one.
        let d = MAX_SNAP_DENOM;
        for n in 1..=17u64 {
            for k in 1..=n {
                let t = k as f64 / n as f64;
                let (m, e) = dyadic(t).expect("positive finite");
                let s = u32::try_from(-e).expect("t ≤ 1");
                // frac vs t, exactly: a·2^s vs m·b.
                let vs_t =
                    |a: u64, b: u64| (u128::from(a) << s).cmp(&(u128::from(m) * u128::from(b)));
                let ((pl, pd), (nl, nd)) = farey_bracket(t, d).expect("supported");
                assert!(nd <= d && pd <= d);
                assert_eq!(vs_t(pl, pd), Ordering::Less, "k={k} n={n}: prev < t");
                assert_ne!(vs_t(nl, nd), Ordering::Less, "k={k} n={n}: next ≥ t");
                assert_eq!(frac_cmp(pl, pd, nl, nd), Ordering::Less, "k={k} n={n}");
                // Farey neighbours: nothing with denominator ≤ d fits
                // strictly between; mediant denominators certify it.
                assert!(pd + nd > d, "k={k} n={n}: a fraction fits between");
            }
        }
    }

    #[test]
    fn farey_s_guard_accepts_2_pow_minus_48_and_rejects_beyond() {
        // s = 1075 − exp_field ≤ 100 ⟺ t ≥ 2^−48. At the boundary the
        // shifted numerator is 2^20 · 2^100 = 2^120 < 2^128: supported.
        let boundary = (2.0f64).powi(-48);
        let ((_, _), (nl, nd)) = farey_bracket(boundary, MAX_SNAP_DENOM).expect("s = 100 fits");
        // 2^−48 < 1/2^20, so the smallest achievable fraction is next.
        assert_eq!((nl, nd), (1, MAX_SNAP_DENOM));

        // One exponent further the guard must refuse (s = 101 would
        // need k·2^101 at k up to 2^20: past 2^121, headroom gone at
        // the next cap doubling — the guard is the documented line).
        assert_eq!(farey_bracket((2.0f64).powi(-49), MAX_SNAP_DENOM), None);
        // Subnormals sit far below the guard.
        assert_eq!(farey_bracket(f64::MIN_POSITIVE / 2.0, MAX_SNAP_DENOM), None);
    }

    #[test]
    fn snap_fixed_survives_the_extreme_denominator() {
        let d = MAX_FIXED_DENOM;
        // t = 1.0 at the maximum denominator: m·d ≈ 2^92·2 is the
        // largest product the routine ever forms.
        assert_eq!(snap_threshold_fixed(1.0, d), Some(1.0));
        // The smallest supported threshold at the maximum denominator
        // snaps to an exact 1/2^k fraction (d is a power of two), so
        // the equality is exact, not approximate.
        let boundary = (2.0f64).powi(-28);
        assert_eq!(snap_threshold_fixed(boundary, d), Some(boundary));
        // Guards: s = 81 and denominators past the cap refuse.
        assert_eq!(snap_threshold_fixed((2.0f64).powi(-29), d), None);
        assert_eq!(snap_threshold_fixed(0.5, d + 1), None);
        assert_eq!(snap_threshold_fixed(0.5, 0), None);
    }

    #[test]
    fn snap_fixed_matches_exact_rational_ceil_exhaustively() {
        // Bounded-exhaustive at a denominator big enough that
        // `m·denom` needs ~93 bits: every t on a lattice straddling
        // the achievable grid must snap to ceil(t·denom)/denom
        // computed by exact rational arithmetic.
        let d = MAX_FIXED_DENOM;
        for i in 1..=512u64 {
            let t = i as f64 / 512.0;
            let snapped = snap_threshold_fixed(t, d).expect("supported");
            // 512 divides d, so every lattice point is achievable and
            // must snap to itself.
            assert_eq!(snapped, t, "t={t}");
        }
        for i in 0..256u64 {
            // Off-lattice: an odd numerator over 2^41 falls exactly
            // between adjacent multiples of 1/2^40; the snap must
            // round up by half a grid cell. The 2^13 offset keeps the
            // dyadic shift at the s = 80 guard boundary — these are
            // the largest shifted products the routine ever forms.
            let num = (1u64 << 13) + 2 * i + 1;
            let t = num as f64 / (2.0f64).powi(41);
            let snapped = snap_threshold_fixed(t, d).expect("supported at s = 80");
            let expected = ((num >> 1) + 1) as f64 / d as f64;
            assert_eq!(snapped, expected, "i={i}");
        }
    }
}
