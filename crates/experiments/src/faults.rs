//! The fault-injection degradation study behind `opd faults` and the
//! committed `BENCH_faults.json` artifact.
//!
//! For each built-in workload, each studied [`FaultKind`], and each
//! rate in [`STUDY_RATES`], the study corrupts the workload's clean
//! trace with a seeded injector, runs the default 28-config sweep grid
//! over the degraded trace, and scores every config against the
//! *clean-trace* oracle. The reported cell value is the mean combined
//! accuracy over the grid; the per-kind curve is the mean over all
//! workloads.
//!
//! Because every injector draws per candidate site independently of
//! the rate (see `opd-faults`), the faults at a low rate nest inside
//! those at a higher rate under the study's fixed seeds — the
//! accuracy-degradation curves are monotone in the injected-fault set,
//! and empirically monotone in score (asserted by the artifact's
//! regression test).

use opd_baseline::{BaselineSolution, CallLoopForest};
use opd_core::{detected_intervals, DetectorConfig, InternedTrace, SweepEngine, SweepScratch};
use opd_faults::FaultKind;
use opd_microvm::workloads::Workload;
use opd_scoring::score_intervals;
use opd_trace::ExecutionTrace;

/// Fault rates swept by the study, ascending.
pub const STUDY_RATES: [f64; 4] = [0.0, 0.02, 0.1, 0.4];

/// Fault kinds swept by the study: two byte-level corruptions routed
/// through the resynchronizing decoder and two stream-level losses.
pub const STUDY_KINDS: [FaultKind; 4] = [
    FaultKind::BitFlip,
    FaultKind::Truncate,
    FaultKind::DropBranch,
    FaultKind::Burst,
];

/// Trace-length cap used by the committed artifact (kept short enough
/// that the freshness test regenerates the artifact from scratch).
pub const STUDY_FUEL: u64 = 30_000;

/// MPL of the clean-trace oracle every degraded run is scored against.
pub const STUDY_MPL: u64 = 1_000;

/// One `(kind, rate)` cell of the study.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// The injected fault family.
    pub kind: FaultKind,
    /// The injection rate.
    pub rate: f64,
    /// Mean combined accuracy per workload, in [`Workload::ALL`]
    /// order.
    pub per_workload: Vec<f64>,
    /// Total faults injected across all workloads (from the exact
    /// ledgers).
    pub faults_injected: u64,
}

impl FaultCell {
    /// Mean of the per-workload scores: one point of the kind's
    /// degradation curve.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.per_workload.is_empty() {
            return 0.0;
        }
        self.per_workload.iter().sum::<f64>() / self.per_workload.len() as f64
    }
}

/// The full study: every kind × rate cell over all workloads.
#[derive(Debug, Clone)]
pub struct FaultStudy {
    /// All cells, kind-major then rate-ascending.
    pub cells: Vec<FaultCell>,
}

impl FaultStudy {
    /// The degradation curve (mean accuracy per rate, ascending rate)
    /// for one kind.
    #[must_use]
    pub fn curve(&self, kind: FaultKind) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| c.kind == kind)
            .map(FaultCell::mean)
            .collect()
    }
}

/// The fixed per-(workload, kind) injection seed. Rates share the
/// seed so their fault sets nest.
fn study_seed(workload_index: usize, kind_index: usize) -> u64 {
    0x0BD0_0000 + (workload_index as u64) * 64 + kind_index as u64
}

/// Executes one workload and returns its clean trace plus the
/// clean-trace oracle.
fn clean_run(workload: Workload, scale: u32, fuel: u64) -> (ExecutionTrace, BaselineSolution) {
    let program = workload.program(scale);
    let mut trace = ExecutionTrace::new();
    opd_microvm::Interpreter::new(&program, workload.default_seed())
        .with_fuel(fuel)
        .run(&mut trace)
        .expect("workload programs terminate");
    let oracle = CallLoopForest::build(&trace)
        .expect("workload traces are well nested")
        .solve(STUDY_MPL);
    (trace, oracle)
}

/// Mean combined accuracy of the whole grid over one (possibly
/// degraded) trace, scored against the clean-trace oracle.
fn mean_grid_score(
    configs: &[DetectorConfig],
    engine: &SweepEngine<'_>,
    scratch: &mut SweepScratch,
    trace: &ExecutionTrace,
    oracle: &BaselineSolution,
) -> f64 {
    let interned = InternedTrace::from_elements(trace.branches().iter().copied());
    let total = interned.len() as u64;
    // Duplication faults make the degraded trace longer than the clean
    // one; the scorer's timeline is the oracle's, so clamp detected
    // intervals onto it.
    let horizon = oracle.total_elements();
    let mut sum = 0.0;
    let mut n = 0usize;
    for ui in 0..engine.units().len() {
        for (_ci, phases) in engine.run_unit(ui, &interned, scratch) {
            let intervals: Vec<_> = detected_intervals(&phases, total)
                .into_iter()
                .filter(|iv| iv.start() < horizon)
                .map(|iv| opd_trace::PhaseInterval::new(iv.start(), iv.end().min(horizon)))
                .collect();
            sum += score_intervals(&intervals, oracle).combined();
            n += 1;
        }
    }
    debug_assert_eq!(n, configs.len(), "one score per grid config");
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs the full degradation study.
#[must_use]
pub fn fault_study(scale: u32, fuel: u64) -> FaultStudy {
    let configs = crate::grid::default_plan_grid();
    let engine = SweepEngine::new(&configs);
    let mut scratch = SweepScratch::with_site_capacity(0);

    let runs: Vec<(ExecutionTrace, BaselineSolution)> = Workload::ALL
        .iter()
        .map(|&w| clean_run(w, scale, fuel))
        .collect();

    let mut cells = Vec::with_capacity(STUDY_KINDS.len() * STUDY_RATES.len());
    for (ki, &kind) in STUDY_KINDS.iter().enumerate() {
        for &rate in &STUDY_RATES {
            let mut per_workload = Vec::with_capacity(runs.len());
            let mut faults_injected = 0u64;
            for (wi, (clean, oracle)) in runs.iter().enumerate() {
                let outcome = kind.apply(clean, rate, study_seed(wi, ki));
                faults_injected += outcome.ledger.total();
                per_workload.push(mean_grid_score(
                    &configs,
                    &engine,
                    &mut scratch,
                    &outcome.trace,
                    oracle,
                ));
            }
            cells.push(FaultCell {
                kind,
                rate,
                per_workload,
                faults_injected,
            });
        }
    }
    FaultStudy { cells }
}

/// Renders the study as the deterministic `BENCH_faults.json`
/// artifact (no timestamps, no host data — byte-comparable by the
/// freshness test).
#[must_use]
pub fn faults_json(scale: u32) -> String {
    let study = fault_study(scale, STUDY_FUEL);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(" \"schema\": \"opd-bench-faults-v1\",\n");
    out.push_str(&format!(" \"scale\": {scale},\n"));
    out.push_str(&format!(" \"fuel\": {STUDY_FUEL},\n"));
    out.push_str(&format!(" \"mpl\": {STUDY_MPL},\n"));
    out.push_str(&format!(
        " \"grid\": {},\n",
        crate::grid::default_plan_grid().len()
    ));
    out.push_str(&format!(
        " \"rates\": [{}],\n",
        STUDY_RATES
            .iter()
            .map(|r| format!("{r:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        " \"workloads\": [{}],\n",
        Workload::ALL
            .iter()
            .map(|w| format!("\"{}\"", w.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(" \"cells\": [\n");
    let cells: Vec<String> = study
        .cells
        .iter()
        .map(|c| {
            format!(
                "  {{\"kind\": \"{}\", \"rate\": {:?}, \"faults\": {}, \"mean\": {:.6}, \
                 \"per_workload\": [{}]}}",
                c.kind,
                c.rate,
                c.faults_injected,
                c.mean(),
                c.per_workload
                    .iter()
                    .map(|s| format!("{s:.6}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    out.push_str(&cells.join(",\n"));
    out.push_str("\n ],\n");
    out.push_str(" \"curves\": {\n");
    let curves: Vec<String> = STUDY_KINDS
        .iter()
        .map(|&k| {
            format!(
                "  \"{k}\": [{}]",
                study
                    .curve(k)
                    .iter()
                    .map(|s| format!("{s:.6}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    out.push_str(&curves.join(",\n"));
    out.push_str("\n }\n}\n");
    out
}

/// A fast end-to-end exercise of the fault pipeline for CI: two
/// workloads, every fault kind, one aggressive rate — asserting the
/// decoder's corruption reports agree with the injector ledgers and
/// that nothing panics. Returns a human-readable summary.
#[must_use]
pub fn smoke(scale: u32) -> String {
    let mut lines = Vec::new();
    for &workload in &[Workload::Lexgen, Workload::Blockcomp] {
        let (clean, oracle) = clean_run(workload, scale, 8_000);
        let configs = crate::grid::default_plan_grid();
        let engine = SweepEngine::new(&configs);
        let mut scratch = SweepScratch::with_site_capacity(0);
        for kind in FaultKind::ALL {
            let outcome = kind.apply(&clean, 0.25, 7);
            if let Some(report) = &outcome.report {
                // The exactness contract, checked on every smoke run.
                assert_eq!(
                    report.bad_elements,
                    outcome.ledger.detectable_element_flips
                        + outcome.ledger.corrupted_burst_records,
                    "{workload:?}/{kind}: decoder and ledger disagree"
                );
                assert_eq!(
                    report.out_of_order_events, outcome.ledger.order_breaking_swaps,
                    "{workload:?}/{kind}: decoder and ledger disagree on swaps"
                );
            }
            let score = mean_grid_score(&configs, &engine, &mut scratch, &outcome.trace, &oracle);
            lines.push(format!(
                "{} {kind}: {} fault(s), mean accuracy {score:.3}",
                workload.name(),
                outcome.ledger.total(),
            ));
        }
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_covers_every_kind_without_panicking() {
        let summary = smoke(1);
        for kind in FaultKind::ALL {
            assert!(summary.contains(&kind.to_string()), "{summary}");
        }
    }

    #[test]
    fn study_cells_cover_the_kind_rate_grid() {
        // A reduced-fuel study: shape and basic sanity only (the
        // committed artifact's values are covered by the freshness
        // test at full study fuel).
        let study = fault_study(1, 4_000);
        assert_eq!(study.cells.len(), STUDY_KINDS.len() * STUDY_RATES.len());
        for cell in &study.cells {
            assert_eq!(cell.per_workload.len(), Workload::ALL.len());
            for &s in &cell.per_workload {
                assert!((0.0..=1.0).contains(&s), "{s}");
            }
            if cell.rate == 0.0 {
                assert_eq!(cell.faults_injected, 0, "{:?}", cell.kind);
            } else {
                assert!(cell.faults_injected > 0, "{:?}", cell.kind);
            }
        }
    }
}
