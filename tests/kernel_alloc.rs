//! Allocation discipline of the window kernel: a steady-state
//! detector run allocates nothing for any model, nor does a
//! steady-state stream, and pre-sizing the site tables from the static
//! alphabet bound (`reserve_sites`) moves every site-table growth out
//! of the first run. The shared counting allocator counts per thread,
//! and every measured run happens on the test's own thread, so the
//! tests stay exact while the harness runs them in parallel.

use opd_core::{DetectorConfig, InternedTrace, ModelPolicy, PhaseDetector};
use opd_microvm::workloads::Workload;

mod common;

use common::alloc::{allocations_during, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn workload_branches(fuel: u64) -> opd_trace::BranchTrace {
    let workload = Workload::Lexgen;
    let program = workload.program(1);
    let mut execution = opd_trace::ExecutionTrace::new();
    opd_microvm::Interpreter::new(&program, workload.default_seed())
        .with_fuel(fuel)
        .run(&mut execution)
        .expect("workload executes");
    let (branches, _) = execution.into_parts();
    branches
}

fn workload_trace(fuel: u64) -> InternedTrace {
    InternedTrace::from_elements(workload_branches(fuel).iter().copied())
}

fn config_for(model: ModelPolicy) -> DetectorConfig {
    DetectorConfig::builder()
        .current_window(500)
        .model(model)
        .build()
        .expect("valid config")
}

#[test]
fn swar_steady_state_allocates_nothing_for_every_model() {
    let trace = workload_trace(20_000);
    for model in ModelPolicy::ALL_EXTENDED {
        let config = config_for(model);
        let mut detector = PhaseDetector::new(config);
        // Warm-up sizes the SWAR count/bit lanes and the phase buffer;
        // `reconfigure` clears state but keeps every capacity.
        let _ = detector.run_interned_phases_only(&trace);
        detector.reconfigure(config);
        let (_, steady) = allocations_during(|| {
            let _ = detector.run_interned_phases_only(&trace);
        });
        assert_eq!(steady, 0, "{model:?}: SWAR steady state allocated");
    }
}

/// Streams `branches` through `detector` in skip-sized steps.
fn stream(detector: &mut PhaseDetector, branches: &opd_trace::BranchTrace) {
    for chunk in branches.as_slice().chunks(detector.config().skip_factor()) {
        detector.process(chunk);
    }
    detector.close_open_phase();
}

#[test]
fn swar_streaming_steady_state_allocates_nothing_for_set_models() {
    // The streaming SWAR path keeps its interner, id log, count/bit
    // columns and phase buffer across `reconfigure`, and the log's
    // compaction never outgrows the capacity one warm run reached.
    let branches = workload_branches(20_000);
    for model in [ModelPolicy::UnweightedSet, ModelPolicy::WeightedSet] {
        let config = config_for(model);
        let mut detector = PhaseDetector::new(config);
        stream(&mut detector, &branches);
        detector.reconfigure(config);
        let (_, steady) = allocations_during(|| stream(&mut detector, &branches));
        assert_eq!(
            steady, 0,
            "{model:?}: SWAR streaming steady state allocated"
        );
    }
}

#[test]
fn reserving_sites_up_front_moves_growth_out_of_the_first_streaming_run() {
    // The streaming path interns sites one at a time, so an
    // unreserved detector grows its site tables incrementally as new
    // sites appear mid-trace. `reserve_sites` pre-sizes them in one
    // shot; both arms still pay the same interner and state-sequence
    // allocations.
    let branches = workload_branches(20_000);
    let distinct = workload_trace(20_000).distinct_count() as usize;
    let config = config_for(ModelPolicy::WeightedSet);
    let (_, cold) = allocations_during(|| {
        let mut detector = PhaseDetector::new(config);
        let _ = detector.run(&branches);
    });
    let (_, presized) = allocations_during(|| {
        let mut detector = PhaseDetector::new(config);
        detector.reserve_sites(distinct);
        let _ = detector.run(&branches);
    });
    assert!(
        presized < cold,
        "pre-sizing did not remove first-run growth (cold {cold}, presized {presized})"
    );
}

#[test]
fn interned_first_runs_size_their_tables_in_one_shot() {
    // The interned path pre-sizes from the trace's distinct count on
    // entry (count columns and bit lanes), so even a cold first run
    // performs a small constant number of allocations — table sizing
    // plus the phase buffer — never per-site growth.
    let trace = workload_trace(20_000);
    let config = config_for(ModelPolicy::WeightedSet);
    let (_, cold) = allocations_during(|| {
        let mut detector = PhaseDetector::new(config);
        let _ = detector.run_interned_phases_only(&trace);
    });
    assert!(
        cold <= 16,
        "cold interned run allocated {cold} times; site tables are growing incrementally"
    );
}
