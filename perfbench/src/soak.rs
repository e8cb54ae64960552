//! `soak`: the committed fault-injected serve soak (`soak_source` /
//! `soak_config` shape) at 50,000 clients: 4 frames of 96
//! elements per client, 8% corrupt frames, kill/wedge/poison hazards,
//! verify on, checkpoint streamed to a temp file. Never touches the
//! sweep engine: many short sessions doing resync decode, per-session
//! detector set-up, verify replay and checkpointing.
//!
//! Load model: clients arrive on the engine's virtual-time schedule
//! (2 arrivals per tick); in wall-clock time the soak is one run as
//! fast as the threads allow, so the end-to-end figure is throughput
//! (frames per second) at the stated client count.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use opd_analyze::ResourceCertificate;
use opd_core::{DetectorConfig, PhaseDetector};
use opd_experiments::serve::{
    soak_config, WorkloadSource, SERVE_SEED, SOAK_FAULT_RATE, SOAK_FRAMES, SOAK_FRAME_ELEMENTS,
};
use opd_serve::{run_service, FrameSource, ServeConfig, ServiceOptions, ServiceReport};
use opd_trace::decode_trace_resync;

use crate::out::Obj;
use crate::{for_seconds, process_cpu_s, secs, timed, Args, Checks, Layers, Samples, THREADS};

const CLIENTS: u32 = 50_000;
const TINY_CLIENTS: u32 = 400;

fn build_source(clients: u32, seed: u64) -> WorkloadSource {
    WorkloadSource::build(
        1,
        clients,
        SOAK_FRAMES,
        SOAK_FRAME_ELEMENTS,
        SOAK_FAULT_RATE,
        seed,
    )
}

/// The soak configuration with the run's seed driving the hazards.
fn config(seed: u64, verify: bool) -> ServeConfig {
    let mut c = soak_config();
    c.hazards.seed = seed;
    c.verify = verify;
    c
}

/// One service run to completion, starting from an empty checkpoint.
fn serve(
    config: &ServeConfig,
    source: &dyn FrameSource,
    threads: usize,
    checkpoint: Option<&Path>,
) -> Result<(ServiceReport, f64), String> {
    if let Some(path) = checkpoint {
        let _ = std::fs::remove_file(path);
    }
    let options = ServiceOptions {
        threads,
        checkpoint: checkpoint.map(Path::to_path_buf),
        resume: false,
    };
    let (report, wall) = timed(|| run_service(config, source, &options));
    Ok((report.map_err(|e| format!("soak failed: {e}"))?, wall))
}

fn digest(report: &ServiceReport) -> String {
    format!("{:016x}", report.aggregate_digest())
}

/// A [`FrameSource`] that times and counts every frame the engine pulls.
struct TimedSource<'a> {
    inner: &'a WorkloadSource,
    nanos: AtomicU64,
    fetched: AtomicU64,
}

impl FrameSource for TimedSource<'_> {
    fn clients(&self) -> u32 {
        self.inner.clients()
    }

    fn frames(&self, client: u32) -> u32 {
        self.inner.frames(client)
    }

    fn frame(&self, client: u32, index: u32) -> Vec<u8> {
        let t = Instant::now();
        let bytes = self.inner.frame(client, index);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.fetched.fetch_add(1, Ordering::Relaxed);
        bytes
    }

    fn detector_config(&self, client: u32) -> DetectorConfig {
        self.inner.detector_config(client)
    }

    fn certificate(&self, client: u32) -> Option<&ResourceCertificate> {
        self.inner.certificate(client)
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

/// Replays every client's stream outside the engine: resync decode of
/// each frame, then a fresh detector over the decoded elements in
/// `skip_factor` steps, as a session feeds it.
fn replay(source: &WorkloadSource, layers: &mut Layers) {
    let (mut decode_s, mut detect_s, mut lost) = (0.0, 0.0, 0u64);
    for client in 0..source.clients() {
        let frames: Vec<Vec<u8>> = (0..source.frames(client))
            .map(|i| source.frame(client, i))
            .collect();
        let t = Instant::now();
        let mut accepted = Vec::new();
        for bytes in &frames {
            let (trace, report) = decode_trace_resync(bytes);
            lost += report.records_lost();
            accepted.extend_from_slice(trace.branches().as_slice());
        }
        decode_s += secs(t);
        let config = source.detector_config(client);
        let t = Instant::now();
        let mut detector = PhaseDetector::new(config);
        for chunk in accepted.chunks_exact(config.skip_factor()) {
            detector.process(chunk);
        }
        black_box(detector.detected_phases());
        detect_s += secs(t);
    }
    layers.push("trace.decode_s", decode_s);
    layers.push("trace.records_lost", lost as f64);
    layers.push("serve.detect_s", detect_s);
}

pub fn run(args: &Args, obj: &mut Obj) -> Result<(), String> {
    let clients = if args.tiny { TINY_CLIENTS } else { CLIENTS };
    let seed = args.seed.unwrap_or(SERVE_SEED);
    let offered = u64::from(clients) * u64::from(SOAK_FRAMES);
    std::fs::create_dir_all(&args.tmp).map_err(|e| format!("cannot create temp dir: {e}"))?;
    let ckpt: PathBuf = args.tmp.join("soak.ckpt");
    let verified = config(seed, true);
    let source = build_source(clients, seed);
    let (warm, warmup_s) = serve(&verified, &source, THREADS, Some(&ckpt))?;
    let warm = digest(&warm);

    let mut samples = Samples::default();
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    for_seconds(args.seconds, || {
        let (source, setup) = timed(|| build_source(clients, seed));
        let cpu = process_cpu_s();
        let (report, wall) = serve(&verified, &source, THREADS, Some(&ckpt))?;
        let cpu = process_cpu_s() - cpu;
        let processed = report.frames_processed();
        let fail = if report.verify_failures() == 0 && report.conservation_holds() {
            1.0 - processed as f64 / offered as f64
        } else {
            1.0
        };
        samples.push(setup, wall, processed as f64, fail, digest(&report));
        if args.trace {
            layers.push("runner.cores_busy", cpu / wall);
            traced_round(
                &source,
                &verified,
                &ckpt,
                &report,
                wall,
                &mut layers,
                &mut checks,
            )?;
        }
        Ok(())
    })?;
    if args.cross_check {
        let (report, _) = serve(&verified, &source, 1, None)?;
        checks.record("threads1_digest", digest(&report) == samples.first_digest());
    }
    let _ = std::fs::remove_file(&ckpt);

    checks.record("warmup_output", warm == samples.first_digest());
    obj.num("warmup_s", warmup_s);
    samples.write(obj);
    obj.str("work_unit", "frames");
    obj.int("seed", seed);
    obj.int("clients", u64::from(clients));
    obj.int("frames_offered", offered);
    obj.obj("checks", checks.finish());
    if args.trace {
        obj.obj("layers", layers.finish());
    }
    Ok(())
}

/// The traced part of a round, after its untraced sample (`report`,
/// `wall`): the comparison runs (verify off, no checkpoint), the run
/// through the timed source, and the decode/detect replay.
fn traced_round(
    source: &WorkloadSource,
    verified: &ServeConfig,
    ckpt: &Path,
    report: &ServiceReport,
    wall: f64,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<(), String> {
    let bytes = std::fs::metadata(ckpt).map_or(0, |m| m.len());
    let offered_frames = u64::from(source.clients()) * u64::from(SOAK_FRAMES);
    layers.push("serve.checkpoint_bytes", bytes as f64);
    layers.push("serve.restarts", report.restarts() as f64);
    layers.push("serve.elements_accepted", report.elements_accepted() as f64);
    layers.push(
        "serve.accept_ratio",
        report.elements_accepted() as f64
            / (offered_frames as f64 * f64::from(SOAK_FRAME_ELEMENTS)),
    );

    let (unverified, off) = serve(
        &config(verified.hazards.seed, false),
        source,
        THREADS,
        Some(ckpt),
    )?;
    layers.push("serve.verify_s", wall - off);
    checks.record("verify_off_streams", digest(&unverified) == digest(report));
    let (_, no_ckpt) = serve(verified, source, THREADS, None)?;
    layers.push("serve.checkpoint_s", wall - no_ckpt);

    let timed_source = TimedSource {
        inner: source,
        nanos: AtomicU64::new(0),
        fetched: AtomicU64::new(0),
    };
    let (traced, traced_wall) = serve(verified, &timed_source, THREADS, Some(ckpt))?;
    let fetched = timed_source.fetched.load(Ordering::Relaxed);
    layers.push("tracing.overhead_s", traced_wall - wall);
    layers.push(
        "source.frame_s",
        timed_source.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
    );
    layers.push("source.frames_fetched", fetched as f64);
    layers.push(
        "source.refetch_ratio",
        fetched as f64 / offered_frames as f64,
    );
    checks.record("traced_streams", digest(&traced) == digest(report));
    replay(source, layers);
    Ok(())
}
