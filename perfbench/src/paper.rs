//! `paper`: the seven paper artifacts (Table 1, Table 2, Figures 4–8),
//! each through its `exp::*::run` entry point on all eight MicroVM
//! workloads at scale 1 under a 20,000-branch fuel cap. Bound by
//! orchestration: every artifact prepares its own inputs and sweeps small
//! grids one workload at a time.

use std::hint::black_box;

use opd_experiments::exp::{fig4, fig5, fig6, fig7, fig8, table1, table2, ExpOptions};
use opd_experiments::grid::{MPLS_FIG4, MPLS_MAIN, MPLS_TABLE1};
use opd_experiments::runner::prepare_all;
use opd_microvm::workloads::Workload;

use crate::out::Obj;
use crate::{for_seconds, process_cpu_s, timed, Args, Checks, Digest, Layers, Samples, THREADS};

/// Interpreter fuel per workload trace (branches).
const FUEL: u64 = 20_000;
const TINY_FUEL: u64 = 4_000;

/// Harness start-ups per set-up: one is too short for the clock to time
/// alone, so a set-up reports the mean over a batch.
const SETUP_BATCH: u32 = 1_000;

type Artifact = fn(&ExpOptions) -> String;

/// Every artifact with the layer name its traced time is reported
/// under and the MPL set its own `prepare_all` call uses.
const ARTIFACTS: [(&str, Artifact, &[u64]); 7] = [
    ("exp.table1_s", |o| table1::run(o).to_string(), &MPLS_TABLE1),
    ("exp.table2_s", |o| table2::run(o).to_string(), &MPLS_TABLE1),
    ("exp.fig4_s", |o| fig4::run(o).to_string(), &MPLS_FIG4),
    ("exp.fig5_s", |o| fig5::run(o).to_string(), &MPLS_MAIN),
    ("exp.fig6_s", |o| fig6::run(o).to_string(), &MPLS_MAIN),
    ("exp.fig7_s", |o| fig7::run(o).to_string(), &MPLS_TABLE1),
    ("exp.fig8_s", |o| fig8::run(o).to_string(), &MPLS_FIG4),
];

/// The harness start-up: the options every artifact runs under (the
/// thread count is fixed, so no parallelism probe runs).
fn options(fuel: u64) -> ExpOptions {
    ExpOptions {
        scale: 1,
        threads: THREADS,
        workloads: Workload::ALL.to_vec(),
        fuel,
    }
}

/// One set-up: the harness start-up, with its mean seconds.
fn set_up(fuel: u64) -> (ExpOptions, f64) {
    let (opts, s) = timed(|| {
        (1..SETUP_BATCH).for_each(|_| drop(black_box(options(fuel))));
        black_box(options(fuel))
    });
    (opts, s / f64::from(SETUP_BATCH))
}

fn sample(opts: &ExpOptions) -> Vec<String> {
    ARTIFACTS.iter().map(|a| a.1(opts)).collect()
}

fn digest(texts: &[String]) -> String {
    let mut d = Digest::default();
    for t in texts {
        d.word(t.len() as u64);
        d.bytes(t.as_bytes());
    }
    d.hex()
}

pub fn run(args: &Args, obj: &mut Obj) -> Result<(), String> {
    let fuel = if args.tiny { TINY_FUEL } else { FUEL };
    let (opts, _) = set_up(fuel);
    let (warm, warmup_s) = timed(|| sample(&opts));
    let warm = digest(&warm);

    let mut samples = Samples::default();
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    for_seconds(args.seconds, || {
        let (opts, setup) = set_up(fuel);
        let cpu = process_cpu_s();
        let (texts, wall) = timed(|| sample(&opts));
        let cpu = process_cpu_s() - cpu;
        let sample_digest = digest(&texts);
        samples.push(
            setup,
            wall,
            ARTIFACTS.len() as f64,
            0.0,
            sample_digest.clone(),
        );
        if !args.trace {
            return Ok(());
        }
        layers.push("runner.cores_busy", cpu / wall);
        let mut texts = Vec::new();
        let mut traced = 0.0;
        for (name, artifact, _) in ARTIFACTS {
            let (text, s) = timed(|| artifact(&opts));
            layers.push(name, s);
            traced += s;
            texts.push(text);
        }
        layers.push("tracing.overhead_s", traced - wall);
        checks.record("traced_output", digest(&texts) == sample_digest);
        let workloads = &opts.workloads;
        let (_, once) = timed(|| black_box(prepare_all(workloads, 1, &MPLS_FIG4, fuel)));
        layers.push("exp.prepare_once_s", once);
        let (_, each) = timed(|| {
            for (_, _, mpls) in ARTIFACTS {
                black_box(prepare_all(workloads, 1, mpls, fuel));
            }
        });
        layers.push("exp.prepare_per_artifact_s", each);
        Ok(())
    })?;

    checks.record("warmup_output", warm == samples.first_digest());
    obj.num("warmup_s", warmup_s);
    samples.write(obj);
    obj.str("work_unit", "artifacts");
    obj.int("fuel", fuel);
    obj.obj("checks", checks.finish());
    if args.trace {
        obj.obj("layers", layers.finish());
    }
    Ok(())
}
