#!/usr/bin/env bash
# The full local gate: release build, every workspace test suite, warning-free clippy across the
# whole workspace, formatting, warning-free rustdoc, a deny-warnings
# static lint of every built-in workload, an `opd plan` smoke run on
# the default grid, the fault-injection smoke pass (injector ledgers
# vs decoder reports), an `opd trace` smoke run, an `opd audit` smoke
# run (DPOR exploration + mutant suite + OPD-R lints), an
# `opd serve` smoke run (supervised multi-tenant streaming under
# aggressive hazards), an observability smoke pass (`opd top`,
# `opd metrics-dump`, and the traced-serve → `opd flight` loop), an
# `opd certify` smoke run (resource certificates + OPD-A30x lints +
# BENCH_cert.json freshness), release-mode kernel-, window-, engine-,
# sweep-property-, streaming- and study-equivalence smokes, the BENCH_kernel.json
# acceptance/freshness tests, an opd-core test run with `obs` off
# (the null-observer-only build of the detector and sweep loops), the
# feature-gate guards keeping opd-core free of opd-obs when `obs` is
# off and opd-obs free of opd-sched when `sched` is off, plus an
# optional ThreadSanitizer pass when a nightly toolchain is available.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
RUST_BACKTRACE=1 cargo test -q --workspace
# The workspace run unifies opd-core's `obs` feature on; test opd-core
# alone too, so the build where only the null-observer instantiations
# of the detector and sweep loops exist compiles and passes.
RUST_BACKTRACE=1 cargo test -q -p opd-core
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Rustdoc is part of the API surface: broken intra-doc links and bad
# code fences fail the gate, not just clutter the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
cargo run --release -q --bin opd -- lint --deny-warnings
cargo run --release -q --bin opd -- plan --json > /dev/null
cargo run --release -q --bin opd -- faults --smoke > /dev/null
cargo run --release -q --bin opd -- trace lexgen --limit 5 --fuel 20000 > /dev/null
# Serve smoke: the multi-tenant streaming layer under aggressive
# hazards — restarts, timeouts, poison quarantine, and shedding all
# fire, frames are conserved, and every completed session's phase
# stream is bit-identical to the offline detector. (The
# BENCH_serve.json freshness test runs in the workspace suite above.)
cargo run --release -q --bin opd -- serve --smoke > /dev/null
# Observability smoke: the dashboard renders one service view with
# every SLO met (exit 0), the Prometheus exposition emits, and a
# traced smoke soak dumps post-mortems that `opd flight` replays.
# (BENCH_dash.json freshness, the null-span allocation gate, and the
# span-log thread-invariance tests run in the workspace suite above.)
cargo run --release -q --bin opd -- top --once --json > /dev/null
cargo run --release -q --bin opd -- metrics-dump --clients 48 > /dev/null
flight_dir="$(mktemp -d)"
cargo run --release -q --bin opd -- serve --smoke --postmortem-dir "$flight_dir" > /dev/null
# `sed -n 1p` reads all of sort's output: `head -n 1` could exit first
# and SIGPIPE sort, which `pipefail` turns into a spurious failure.
first_pm="$(find "$flight_dir" -name '*.pm' | sort | sed -n 1p)"
cargo run --release -q --bin opd -- flight "$first_pm" > /dev/null
rm -rf "$flight_dir"
# Concurrency audit smoke: every modeled subsystem explores clean,
# every seeded mutant is caught, and no OPD-R lint fires. (The
# BENCH_sched.json freshness test runs in the workspace suite above.)
cargo run --release -q --bin opd -- audit --deny-warnings > /dev/null
# Certificate smoke: every (config × workload) pair of the default
# grid certifies without a single OPD-A30x finding at the full static
# bound. (The BENCH_cert.json byte-for-byte freshness test and the
# 224-pair differential soundness suite run in the workspace tests.)
cargo run --release -q --bin opd -- certify --deny-warnings > /dev/null
RUST_BACKTRACE=1 cargo test -q -p opd --test cert_artifact
# Kernel equivalence smoke: the window kernel must agree bit-for-bit
# with the executable Figure 3 spec (tests/common/spec.rs) under
# release codegen too (the workspace run above exercises the same
# differential + proptest suites in debug; release is where the SWAR
# closed forms actually vectorise). The window suite checks the spec's
# paper examples and runs the kernel against it step by step at tiny
# window sizes.
RUST_BACKTRACE=1 cargo test -q --release -p opd --test kernel_equivalence kernels_agree
RUST_BACKTRACE=1 cargo test -q --release -p opd --test window_props
# Engine equivalence under release codegen: the shared Constant-TW
# scan and the forking Adaptive-TW scan (classes joined across steps
# and merged at CW refill) must match sequential detectors bit for
# bit, on the workload grids and on the property-tested shape groups.
RUST_BACKTRACE=1 cargo test -q --release -p opd --test engine_equivalence
RUST_BACKTRACE=1 cargo test -q --release -p opd-core --test sweep_props
# Streaming equivalence under release codegen: `process` in
# skip-sized and arbitrary steps must match the spec step by step and
# a batch `run_interned` bit for bit, across compactions of the
# streaming id log and a `reconfigure`.
RUST_BACKTRACE=1 cargo test -q --release -p opd --test streaming_equivalence
# Study equivalence under release codegen: every paper artifact and
# extension study renders its pinned text, identically at 1 and 2
# threads, through the one-sweep-per-artifact scored path.
RUST_BACKTRACE=1 cargo test -q --release -p opd --test study_equivalence
# The committed kernel benchmark artifact must be structurally valid,
# meet the acceptance lines on its median sample (budget, speedup,
# identical results across samples), and be fresh for the current
# grid and workload.
RUST_BACKTRACE=1 cargo test -q -p opd --test kernel_artifact
# Zero-overhead-when-off also means zero-dependency-when-off: opd-core
# without its `obs` feature must not pull in opd-obs at all. (The
# BENCH_obs.json freshness/overhead acceptance tests run in the
# workspace test suite above.)
if (cd crates/core && cargo tree -e features) | grep -q "opd-obs"; then
    echo "check.sh: opd-core depends on opd-obs without the obs feature" >&2
    exit 1
fi
# Same discipline for the sched instrumentation: opd-obs without its
# `sched` feature must not pull in opd-sched, so release binaries
# carry plain std atomics and zero model-checking code.
if (cd crates/obs && cargo tree -e features) | grep -q "opd-sched"; then
    echo "check.sh: opd-obs depends on opd-sched without the sched feature" >&2
    exit 1
fi
# Optional: cross-check the model-level audit with ThreadSanitizer on
# the real std-atomics build. Needs a nightly toolchain with -Z
# sanitizer support; skip gracefully when it (or the network) is
# absent.
if rustup toolchain list 2>/dev/null | grep -q nightly; then
    if RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=1 \
        cargo +nightly test -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
        -q -p opd-obs metrics 2>/dev/null; then
        echo "check.sh: ThreadSanitizer pass ok"
    else
        echo "check.sh: ThreadSanitizer pass unavailable (offline or no -Zbuild-std); skipped" >&2
    fi
else
    echo "check.sh: no nightly toolchain; ThreadSanitizer pass skipped" >&2
fi
echo "check.sh: all gates passed"
