//! The committed analysis artifacts (`BENCH_static_bounds.json`,
//! `BENCH_plan.json`).
//!
//! PR 1's sweep benchmark records its machine-readable summary in
//! `BENCH_sweep.json`; this module renders the companion artifacts so
//! future changes to the workloads or the analyzer regress-check the
//! pre-sizing bounds the runtime relies on and the sweep-plan
//! analysis of the default grid.

use opd_analyze::{Analysis, PlanAnalysis, PlanWorkload};
use opd_microvm::workloads::Workload;

/// Renders every built-in workload's static analysis as one JSON
/// object, keyed by workload name in table order.
///
/// The output is deterministic (no timestamps, no host data), so the
/// committed artifact can be compared byte-for-byte by tests.
///
/// # Examples
///
/// ```
/// let json = opd_experiments::analysis::static_bounds_json(1);
/// assert!(json.contains("\"lexgen\""));
/// assert!(json.contains("\"alphabet_bound\""));
/// ```
#[must_use]
pub fn static_bounds_json(scale: u32) -> String {
    let entries: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "  \"{}\": {}",
                w.name(),
                Analysis::of(&w.program(scale)).to_json()
            )
        })
        .collect();
    format!(
        "{{\n \"schema\": \"opd-bench-static-bounds-v1\",\n \"scale\": {scale},\n \"workloads\": {{\n{}\n }}\n}}\n",
        entries.join(",\n")
    )
}

/// One [`PlanWorkload`] per built-in workload at `scale`, carrying the
/// static element and alphabet bounds the plan lints and the cost
/// model consume.
#[must_use]
pub fn plan_workloads(scale: u32) -> Vec<PlanWorkload> {
    Workload::ALL
        .iter()
        .map(|w| {
            let a = Analysis::of(&w.program(scale));
            PlanWorkload {
                name: w.name().to_string(),
                elements: a.bounds().branches(),
                alphabet: a.flow().alphabet_bound(),
            }
        })
        .collect()
}

/// Analyzes the default 28-config plan grid against every workload's
/// static bounds at `scale`.
#[must_use]
pub fn default_plan(scale: u32) -> PlanAnalysis {
    PlanAnalysis::of(&crate::grid::default_plan_grid(), &plan_workloads(scale))
}

/// Renders the sweep-plan analysis of the default grid as one JSON
/// object (`BENCH_plan.json`): grid size, pruned size, class count,
/// predicted scan totals, and the full per-class detail.
///
/// Deterministic (no timestamps, no host data), so the committed
/// artifact can be compared byte-for-byte by tests.
///
/// # Examples
///
/// ```
/// let json = opd_experiments::analysis::plan_json(1);
/// assert!(json.contains("\"grid\":28"));
/// ```
#[must_use]
pub fn plan_json(scale: u32) -> String {
    let plan = default_plan(scale);
    format!(
        "{{\n \"schema\": \"opd-bench-plan-v1\",\n \"scale\": {scale},\n \"equivalence_classes\": {},\n \"plan\": {}\n}}\n",
        plan.classes().len(),
        plan.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_lists_every_workload_and_no_findings() {
        let json = static_bounds_json(1);
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"{}\"", w.name())), "{w}");
        }
        // The workloads lint clean, so every diagnostics array is
        // empty in the committed artifact.
        assert!(!json.contains("\"diagnostics\":[{"));
        assert_eq!(json.matches("\"diagnostics\":[]").count(), 8);
    }

    #[test]
    fn artifact_is_deterministic() {
        assert_eq!(static_bounds_json(1), static_bounds_json(1));
    }

    #[test]
    fn plan_artifact_covers_the_default_grid() {
        let json = plan_json(1);
        assert!(json.contains("\"grid\":28"), "{json}");
        assert!(json.contains("\"predicted_scans_full\":"));
        assert_eq!(plan_json(1), json);
    }
}
