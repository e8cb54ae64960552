//! The allocation half of the zero-overhead-when-off claim for
//! causal spans: the traced service engine monomorphized over
//! `NullSpanRecorder` must allocate exactly as often as the plain
//! engine — the `R::ACTIVE` guards compile every span construction,
//! flight-ring push, and post-mortem dump out of the disabled path.
//! The service runs on worker threads, so this gate reads the shared
//! counting allocator's process-wide tally; the file holds a single
//! test so no concurrent test case can perturb it.

use opd_experiments::dash::{dash_config, dash_source};
use opd_obs::NullSpanRecorder;
use opd_serve::{run_service, run_service_traced, NullSubscriber, ServiceOptions, TraceConfig};

mod common;

use common::alloc::{process_allocations_during, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn null_span_traced_service_allocates_exactly_like_plain() {
    let source = dash_source(1, 96);
    let config = dash_config();
    let options = ServiceOptions {
        threads: 1,
        ..ServiceOptions::default()
    };
    let traced = || {
        run_service_traced::<NullSpanRecorder>(
            &config,
            &source,
            &options,
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("traced soak runs")
        .0
    };

    // Warm both arms, then pin the plain engine's run-to-run
    // allocation determinism before comparing against it.
    let _ = run_service(&config, &source, &options).expect("plain soak runs");
    let _ = traced();
    let (plain_report, plain) = process_allocations_during(|| {
        run_service(&config, &source, &options).expect("plain soak runs")
    });
    let (_, plain_again) = process_allocations_during(|| {
        run_service(&config, &source, &options).expect("plain soak runs")
    });
    assert_eq!(
        plain, plain_again,
        "the plain engine must allocate deterministically for this gate to mean anything"
    );

    let (traced_report, instrumented) = process_allocations_during(traced);
    assert_eq!(
        plain_report, traced_report,
        "traced-null and plain runs must be bit-identical"
    );
    // `run_service` is itself the `NullSpanRecorder` instantiation, so
    // the two counts coincide; what the gate forbids is any span-layer
    // allocation on top of the plain engine.
    assert!(
        instrumented <= plain,
        "the NullSpanRecorder path must not allocate beyond the plain engine \
         (plain {plain}, traced-null {instrumented})"
    );
}
