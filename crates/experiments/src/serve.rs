//! The multi-tenant streaming study behind `opd serve` /
//! `opd loadgen` and the committed `BENCH_serve.json` artifact.
//!
//! [`WorkloadSource`] turns the eight MicroVM workloads into a
//! frame-at-a-time ingest feed for thousands of simulated clients:
//! each client is pinned to one workload, starts at a keyed offset
//! into its trace, rotates through a small set of detector
//! configurations, and carries a resource certificate for admission
//! control. A seeded fraction of frames is corrupted in flight —
//! byte-level bit flips, truncation, and burst damage exercising the
//! resynchronizing decoder, plus stream-level bounded reordering
//! ([`opd_faults::FaultKind::Reorder`]).
//!
//! On top of the source sit three studies:
//!
//! * [`soak`] — the ~10k-client fault-injected soak with session
//!   kills, wedges, and poison frames: zero panics, exact frame
//!   conservation, and every surviving session's phase stream
//!   bit-identical to the offline detector on the same post-fault
//!   input;
//! * [`shed_study`] — load-shedding curves over queue capacities ×
//!   all three [`BackpressureMode`]s;
//! * [`admission_study`] — certificate admission counts over a
//!   data-derived budget sweep.
//!
//! Everything is a deterministic virtual-time simulation (throughput
//! is frames per kilotick, not wall-clock), so `BENCH_serve.json` is
//! regenerated byte-for-byte by its freshness test
//! (`tests/serve_artifact.rs`).

use opd_analyze::{AbsInt, FlowInfo, ResourceCertificate};
use opd_core::DetectorConfig;
use opd_faults::DEFAULT_REORDER_DELAY;
use opd_microvm::workloads::Workload;
use opd_obs::{NullSpanRecorder, SpanLog, SpanRecorder};
use opd_serve::{
    keyed_hash, run_service, run_service_traced, BackpressureMode, FrameSource, IngestPolicy,
    NullSubscriber, SeededHazards, ServeConfig, ServeError, ServiceOptions, ServiceReport,
    ServiceTrace, SupervisionPolicy, TraceConfig,
};
use opd_trace::{encode_trace, ExecutionTrace, ProfileElement, TraceSink};

/// The study's master seed: every keyed draw (offsets, fault
/// placement, hazards) derives from it.
pub const SERVE_SEED: u64 = 0x5E12_7E06;

/// Clients in the committed soak.
pub const SOAK_CLIENTS: u32 = 10_000;

/// Frames per client in the soak.
pub const SOAK_FRAMES: u32 = 4;

/// Branch elements per frame in the soak.
pub const SOAK_FRAME_ELEMENTS: u32 = 96;

/// Fraction of frames corrupted in flight during the soak.
pub const SOAK_FAULT_RATE: f64 = 0.08;

/// Interpreter fuel for the workload trace templates (the same cap
/// the fault study uses, so the templates are the familiar traces).
pub const SERVE_FUEL: u64 = 30_000;

/// Clients in each shed-curve cell.
pub const SHED_CLIENTS: u32 = 240;

/// Frames per client in the shed study (long streams, so queues
/// actually saturate).
pub const SHED_FRAMES: u32 = 24;

/// Branch elements per frame in the shed study.
pub const SHED_FRAME_ELEMENTS: u32 = 48;

/// Queue capacities swept by the shed study, ascending.
pub const SHED_CAPACITIES: [usize; 4] = [2, 4, 8, 16];

/// The detector configurations clients rotate through.
#[must_use]
pub fn serve_configs() -> Vec<DetectorConfig> {
    [(32, 32, 4), (24, 24, 6), (48, 48, 8), (16, 48, 4)]
        .into_iter()
        .map(|(cw, tw, skip)| {
            DetectorConfig::builder()
                .current_window(cw)
                .trailing_window(tw)
                .skip_factor(skip)
                .build()
                .expect("static serve configs are valid")
        })
        .collect()
}

/// Hash-derived unit float in `[0, 1)`, mirroring the serve crate's
/// hazard draws.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`FrameSource`] over the eight MicroVM workloads.
///
/// Pure by construction: every frame is re-derived from the immutable
/// trace templates and keyed draws, so retried and resumed runs fetch
/// identical bytes.
#[derive(Debug)]
pub struct WorkloadSource {
    templates: Vec<Vec<ProfileElement>>,
    configs: Vec<DetectorConfig>,
    /// `certs[workload][config]`, for admission control.
    certs: Vec<Vec<ResourceCertificate>>,
    clients: u32,
    frames_per_client: u32,
    frame_elements: u32,
    fault_rate: f64,
    seed: u64,
    fingerprint: u64,
}

impl WorkloadSource {
    /// Executes every workload once and builds the per-client feed.
    #[must_use]
    pub fn build(
        scale: u32,
        clients: u32,
        frames_per_client: u32,
        frame_elements: u32,
        fault_rate: f64,
        seed: u64,
    ) -> WorkloadSource {
        let configs = serve_configs();
        let mut templates = Vec::with_capacity(Workload::ALL.len());
        let mut certs = Vec::with_capacity(Workload::ALL.len());
        for &workload in &Workload::ALL {
            let program = workload.program(scale);
            let mut trace = ExecutionTrace::new();
            opd_microvm::Interpreter::new(&program, workload.default_seed())
                .with_fuel(SERVE_FUEL)
                .run(&mut trace)
                .expect("workload programs terminate");
            templates.push(trace.branches().as_slice().to_vec());
            let absint = AbsInt::of(&program);
            let flow = FlowInfo::compute(&program);
            certs.push(
                configs
                    .iter()
                    .map(|c| ResourceCertificate::from_parts(&absint, &flow, c, SERVE_FUEL))
                    .collect(),
            );
        }
        let mut words = vec![
            seed,
            u64::from(clients),
            u64::from(frames_per_client),
            u64::from(frame_elements),
            fault_rate.to_bits(),
            u64::from(scale),
        ];
        words.extend(templates.iter().map(|t| t.len() as u64));
        let fingerprint = keyed_hash(&words);
        WorkloadSource {
            templates,
            configs,
            certs,
            clients,
            frames_per_client,
            frame_elements,
            fault_rate,
            seed,
            fingerprint,
        }
    }

    fn workload_index(&self, client: u32) -> usize {
        client as usize % self.templates.len()
    }

    /// Decorrelated from the workload index (which is `client % 8`).
    fn config_index(&self, client: u32) -> usize {
        (client as usize / self.templates.len()) % self.configs.len()
    }

    /// The clean decoded trace of one frame: a wrapped slice of the
    /// client's workload template, starting at a keyed offset.
    fn clean_frame_trace(&self, client: u32, index: u32) -> ExecutionTrace {
        let template = &self.templates[self.workload_index(client)];
        let offset =
            (keyed_hash(&[self.seed, 1, u64::from(client)]) % template.len() as u64) as usize;
        let base = offset + index as usize * self.frame_elements as usize;
        let mut t = ExecutionTrace::new();
        for k in 0..self.frame_elements as usize {
            t.record_branch(template[(base + k) % template.len()]);
        }
        t
    }
}

impl FrameSource for WorkloadSource {
    fn clients(&self) -> u32 {
        self.clients
    }

    fn frames(&self, _client: u32) -> u32 {
        self.frames_per_client
    }

    fn frame(&self, client: u32, index: u32) -> Vec<u8> {
        let clean = self.clean_frame_trace(client, index);
        let c = u64::from(client);
        let f = u64::from(index);
        if unit(keyed_hash(&[self.seed, 0xFA, c, f])) >= self.fault_rate {
            return encode_trace(&clean).to_vec();
        }
        let fault_seed = keyed_hash(&[self.seed, 0xF5, c, f]);
        match keyed_hash(&[self.seed, 0xF1, c, f]) % 4 {
            0 => {
                let mut buf = encode_trace(&clean).to_vec();
                opd_faults::bytes::flip_element_bits(&mut buf, 0.02, fault_seed);
                buf
            }
            1 => {
                let mut buf = encode_trace(&clean).to_vec();
                opd_faults::bytes::truncate_tail(&mut buf, 0.3);
                buf
            }
            2 => {
                let mut buf = encode_trace(&clean).to_vec();
                opd_faults::bytes::corrupt_burst(
                    &mut buf,
                    0.05,
                    fault_seed,
                    opd_faults::DEFAULT_BURST_LEN,
                );
                buf
            }
            _ => {
                let (reordered, _) = opd_faults::stream::reorder_branches(
                    &clean,
                    0.25,
                    fault_seed,
                    DEFAULT_REORDER_DELAY,
                );
                encode_trace(&reordered).to_vec()
            }
        }
    }

    fn detector_config(&self, client: u32) -> DetectorConfig {
        self.configs[self.config_index(client)]
    }

    fn certificate(&self, client: u32) -> Option<&ResourceCertificate> {
        Some(&self.certs[self.workload_index(client)][self.config_index(client)])
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The soak's source at the committed shape.
#[must_use]
pub fn soak_source(scale: u32, clients: u32) -> WorkloadSource {
    WorkloadSource::build(
        scale,
        clients,
        SOAK_FRAMES,
        SOAK_FRAME_ELEMENTS,
        SOAK_FAULT_RATE,
        SERVE_SEED,
    )
}

/// The soak's service configuration: moderate queues, real hazard
/// rates, immediate quarantine of poison frames, full verification.
#[must_use]
pub fn soak_config() -> ServeConfig {
    ServeConfig {
        ingest: IngestPolicy {
            queue_capacity: 4,
            mode: BackpressureMode::Block,
            arrivals_per_tick: 2,
        },
        supervision: SupervisionPolicy {
            // One poison frame is enough to quarantine a session —
            // the soak measures the quarantine path, not tolerance.
            max_poison_frames: 0,
            ..SupervisionPolicy::default()
        },
        hazards: SeededHazards {
            seed: SERVE_SEED,
            kill_rate: 0.01,
            wedge_rate: 0.003,
            poison_rate: 0.001,
        },
        admission_budget_bytes: None,
        vshards: 256,
        verify: true,
    }
}

/// Runs the fault-injected soak.
///
/// # Errors
///
/// Returns [`ServeError`] if the engine refuses the configuration or
/// a shard stalls; neither happens for the committed parameters.
pub fn soak(scale: u32, clients: u32, threads: usize) -> Result<ServiceReport, ServeError> {
    let source = soak_source(scale, clients);
    run_service(
        &soak_config(),
        &source,
        &ServiceOptions {
            threads,
            ..ServiceOptions::default()
        },
    )
}

/// One cell of the shed-curve sweep.
#[derive(Debug, Clone)]
pub struct ShedCell {
    /// Backpressure discipline under test.
    pub mode: BackpressureMode,
    /// Queue capacity, in frames.
    pub capacity: usize,
    /// Frames offered across all sessions.
    pub frames_total: u64,
    /// Frames that reached a detector.
    pub frames_processed: u64,
    /// Frames evicted from queue fronts.
    pub shed_oldest: u64,
    /// Frames refused at full queues.
    pub rejected: u64,
    /// Producer ticks spent stalled.
    pub blocked_ticks: u64,
    /// Sessions that drained their stream.
    pub completed: u64,
    /// The run's aggregate phase-stream digest.
    pub digest: u64,
}

/// Sweeps queue capacity × backpressure mode under sustained
/// overload (arrivals outpace service 3:1), no hazards.
///
/// # Errors
///
/// Returns [`ServeError`] if any cell's run fails (none does for the
/// committed parameters).
pub fn shed_study(scale: u32, threads: usize) -> Result<Vec<ShedCell>, ServeError> {
    let source = WorkloadSource::build(
        scale,
        SHED_CLIENTS,
        SHED_FRAMES,
        SHED_FRAME_ELEMENTS,
        0.0,
        SERVE_SEED ^ 0x5EED,
    );
    let mut cells = Vec::with_capacity(BackpressureMode::ALL.len() * SHED_CAPACITIES.len());
    for mode in BackpressureMode::ALL {
        for &capacity in &SHED_CAPACITIES {
            let config = ServeConfig {
                ingest: IngestPolicy {
                    queue_capacity: capacity,
                    mode,
                    arrivals_per_tick: 3,
                },
                hazards: SeededHazards::none(SERVE_SEED),
                vshards: 64,
                ..ServeConfig::default()
            };
            let report = run_service(
                &config,
                &source,
                &ServiceOptions {
                    threads,
                    ..ServiceOptions::default()
                },
            )?;
            debug_assert_eq!(report.verify_failures(), 0);
            debug_assert!(report.conservation_holds());
            let shed = report.shed();
            cells.push(ShedCell {
                mode,
                capacity,
                frames_total: report.sessions.iter().map(|r| r.stats.frames_total).sum(),
                frames_processed: report.frames_processed(),
                shed_oldest: shed.shed_oldest_frames,
                rejected: shed.rejected_frames,
                blocked_ticks: shed.blocked_ticks,
                completed: report.completed(),
                digest: report.aggregate_digest(),
            });
        }
    }
    Ok(cells)
}

/// One point of the admission sweep.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionCell {
    /// Per-session certified-memory budget, in bytes.
    pub budget_bytes: u64,
    /// Clients whose certificate fits the budget.
    pub admitted: u64,
    /// Clients refused before consuming anything.
    pub rejected: u64,
}

/// Certificate admission counts over a data-derived budget sweep:
/// the minimum, midpoint, and maximum certified memory high-water
/// mark across the source's (workload × config) table, so the curve
/// spans "tightest budget that admits anyone" to "admits everyone".
#[must_use]
pub fn admission_study(source: &WorkloadSource) -> Vec<AdmissionCell> {
    let bounds: Vec<u64> = source
        .certs
        .iter()
        .flatten()
        .map(|c| c.memory_bytes().hi())
        .collect();
    let lo = bounds.iter().copied().min().unwrap_or(0);
    let hi = bounds.iter().copied().max().unwrap_or(0);
    [lo, lo + (hi - lo) / 2, hi]
        .into_iter()
        .map(|budget_bytes| {
            let admitted = (0..source.clients())
                .filter(|&c| {
                    source
                        .certificate(c)
                        .is_some_and(|cert| cert.admits(budget_bytes))
                })
                .count() as u64;
            AdmissionCell {
                budget_bytes,
                admitted,
                rejected: u64::from(source.clients()) - admitted,
            }
        })
        .collect()
}

/// Renders the whole study as the deterministic `BENCH_serve.json`
/// artifact (virtual-time throughput only — no wall-clock, no host
/// data — byte-comparable by the freshness test).
#[must_use]
pub fn serve_json(scale: u32) -> String {
    let source = soak_source(scale, SOAK_CLIENTS);
    let config = soak_config();
    let report = run_service(&config, &source, &ServiceOptions::default()).expect("soak runs");
    assert_eq!(report.verify_failures(), 0, "soak bit-identity violated");
    assert!(report.conservation_holds(), "soak lost frames untracked");
    let shed = report.shed();
    let ticks = report
        .sessions
        .iter()
        .map(|r| r.stats.ticks)
        .max()
        .unwrap_or(0);
    let frames_per_kilotick = if ticks == 0 {
        0.0
    } else {
        report.frames_processed() as f64 * 1_000.0 / ticks as f64
    };
    let admission = admission_study(&source);
    let cells = shed_study(scale, 0).expect("shed study runs");

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(" \"schema\": \"opd-bench-serve-v1\",\n");
    out.push_str(&format!(" \"scale\": {scale},\n"));
    out.push_str(&format!(" \"fuel\": {SERVE_FUEL},\n"));
    out.push_str(" \"soak\": {\n");
    out.push_str(&format!(
        "  \"clients\": {SOAK_CLIENTS}, \"frames_per_client\": {SOAK_FRAMES}, \
         \"frame_elements\": {SOAK_FRAME_ELEMENTS}, \"fault_rate\": {SOAK_FAULT_RATE:?},\n"
    ));
    out.push_str(&format!(
        "  \"hazards\": {{\"kill\": {:?}, \"wedge\": {:?}, \"poison\": {:?}}},\n",
        config.hazards.kill_rate, config.hazards.wedge_rate, config.hazards.poison_rate,
    ));
    out.push_str(&format!(
        "  \"completed\": {}, \"quarantined\": {}, \"rejected\": {},\n",
        report.completed(),
        report.quarantined(),
        report.rejected(),
    ));
    out.push_str(&format!(
        "  \"restarts\": {}, \"timeouts\": {}, \"crashes\": {},\n",
        report.restarts(),
        report.timeouts(),
        report.crashes(),
    ));
    out.push_str(&format!(
        "  \"frames_processed\": {}, \"elements_accepted\": {},\n",
        report.frames_processed(),
        report.elements_accepted(),
    ));
    out.push_str(&format!(
        "  \"corrupt_frames\": {}, \"corrupt_records_lost\": {},\n",
        report.corrupt_frames(),
        report.corrupt_records_lost(),
    ));
    out.push_str(&format!(
        "  \"phases\": {}, \"verify_failures\": {},\n",
        report.phases(),
        report.verify_failures(),
    ));
    out.push_str(&format!(
        "  \"shed\": {{\"shed_oldest\": {}, \"rejected\": {}, \"blocked_ticks\": {}, \
         \"quarantined_frames\": {}, \"undelivered\": {}}},\n",
        shed.shed_oldest_frames,
        shed.rejected_frames,
        shed.blocked_ticks,
        shed.quarantined_frames,
        shed.undelivered_frames,
    ));
    out.push_str(&format!(
        "  \"ticks\": {ticks}, \"frames_per_kilotick\": {frames_per_kilotick:.3},\n"
    ));
    out.push_str(&format!(
        "  \"digest\": \"{:#018x}\"\n",
        report.aggregate_digest()
    ));
    out.push_str(" },\n");
    out.push_str(" \"admission\": [\n");
    let admission_lines: Vec<String> = admission
        .iter()
        .map(|a| {
            format!(
                "  {{\"budget_bytes\": {}, \"admitted\": {}, \"rejected\": {}}}",
                a.budget_bytes, a.admitted, a.rejected
            )
        })
        .collect();
    out.push_str(&admission_lines.join(",\n"));
    out.push_str("\n ],\n");
    out.push_str(" \"shed_curves\": [\n");
    let cell_lines: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "  {{\"mode\": \"{}\", \"capacity\": {}, \"frames\": {}, \"processed\": {}, \
                 \"shed_oldest\": {}, \"rejected\": {}, \"blocked_ticks\": {}, \
                 \"completed\": {}, \"digest\": \"{:#018x}\"}}",
                c.mode,
                c.capacity,
                c.frames_total,
                c.frames_processed,
                c.shed_oldest,
                c.rejected,
                c.blocked_ticks,
                c.completed,
                c.digest,
            )
        })
        .collect();
    out.push_str(&cell_lines.join(",\n"));
    out.push_str("\n ]\n}\n");
    out
}

/// The smoke pass's aggressive configuration: a small shedding queue,
/// no poison allowance, and kill, wedge and poison hazards all on.
fn smoke_config() -> ServeConfig {
    ServeConfig {
        ingest: IngestPolicy {
            queue_capacity: 3,
            mode: BackpressureMode::ShedOldest,
            arrivals_per_tick: 3,
        },
        supervision: SupervisionPolicy {
            max_poison_frames: 0,
            ..SupervisionPolicy::default()
        },
        hazards: SeededHazards {
            seed: SERVE_SEED,
            kill_rate: 0.05,
            wedge_rate: 0.02,
            poison_rate: 0.02,
        },
        admission_budget_bytes: None,
        vshards: 32,
        verify: true,
    }
}

/// The smoke soak through the engine at span recorder `R`, asserting
/// every robustness invariant the big soak relies on, and that an
/// untraced rerun reproduces its digest.
fn smoke_run<R: SpanRecorder + Default>(scale: u32) -> (ServiceReport, ServiceTrace) {
    let source = WorkloadSource::build(scale, 400, 6, 48, 0.25, SERVE_SEED);
    let config = smoke_config();
    let options = ServiceOptions::default();
    let trace_config = TraceConfig::default();
    let (report, trace) = run_service_traced::<R>(
        &config,
        &source,
        &options,
        &NullSubscriber,
        None,
        &trace_config,
    )
    .expect("smoke soak runs");
    assert!(report.restarts() > 0, "kills must fire");
    assert!(report.timeouts() > 0, "wedges must hit the deadline");
    assert!(report.quarantined() > 0, "poison frames must quarantine");
    assert!(
        report.shed().shed_oldest_frames > 0,
        "overload must shed frames"
    );
    assert_eq!(
        report.verify_failures(),
        0,
        "every completed session must match the offline detector"
    );
    assert!(report.conservation_holds(), "frames must be conserved");
    if R::ACTIVE {
        assert!(
            !trace.postmortems.is_empty(),
            "kills and quarantines must dump post-mortems"
        );
    }
    let again = run_service(&config, &source, &options).expect("smoke rerun");
    assert_eq!(
        report.aggregate_digest(),
        again.aggregate_digest(),
        "the soak must be reproducible"
    );
    (report, trace)
}

/// A fast end-to-end exercise of the serve pipeline for CI: a few
/// hundred clients under aggressive hazards and a small shedding
/// queue, asserting every robustness invariant the big soak relies
/// on. Returns a human-readable summary.
///
/// # Panics
///
/// Panics if any invariant fails — that is the point of a smoke gate.
#[must_use]
pub fn smoke(scale: u32) -> String {
    let (report, _) = smoke_run::<NullSpanRecorder>(scale);
    format!(
        "serve smoke: {} session(s): {} completed, {} quarantined; {} restart(s), \
         {} timeout(s), {} crash(es); {} frame(s) shed; {} corrupt frame(s); \
         digest {:#018x}",
        report.sessions.len(),
        report.completed(),
        report.quarantined(),
        report.restarts(),
        report.timeouts(),
        report.crashes(),
        report.shed().shed_oldest_frames,
        report.corrupt_frames(),
        report.aggregate_digest(),
    )
}

/// [`smoke`], recording spans: the same run and invariants, plus the
/// full causal-span trace and every post-mortem the run dumped — the
/// engine behind `opd serve --smoke --postmortem-dir`.
///
/// # Panics
///
/// Panics if any smoke invariant fails.
#[must_use]
pub fn smoke_with_trace(scale: u32) -> (String, ServiceTrace) {
    let (report, trace) = smoke_run::<SpanLog>(scale);
    let summary = format!(
        "serve smoke (traced): {} session(s): {} completed, {} quarantined; \
         {} restart(s), {} timeout(s), {} crash(es); {} span(s), {} post-mortem(s); \
         digest {:#018x}",
        report.sessions.len(),
        report.completed(),
        report.quarantined(),
        report.restarts(),
        report.timeouts(),
        report.crashes(),
        trace.spans.len(),
        trace.postmortems.len(),
        report.aggregate_digest(),
    );
    (summary, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_and_reports() {
        let summary = smoke(1);
        assert!(summary.contains("completed"), "{summary}");
        assert!(summary.contains("digest"), "{summary}");
    }

    #[test]
    fn workload_source_is_pure() {
        let source = WorkloadSource::build(1, 16, 3, 40, 0.5, 9);
        for client in 0..16 {
            for frame in 0..3 {
                assert_eq!(
                    source.frame(client, frame),
                    source.frame(client, frame),
                    "client {client} frame {frame} must refetch identically"
                );
            }
        }
    }

    #[test]
    fn shed_curves_relax_with_capacity() {
        let cells = shed_study(1, 0).expect("study runs");
        assert_eq!(
            cells.len(),
            BackpressureMode::ALL.len() * SHED_CAPACITIES.len()
        );
        for mode in BackpressureMode::ALL {
            let loss: Vec<u64> = cells
                .iter()
                .filter(|c| c.mode == mode)
                .map(|c| match mode {
                    BackpressureMode::Block => c.blocked_ticks,
                    BackpressureMode::ShedOldest => c.shed_oldest,
                    BackpressureMode::Reject => c.rejected,
                })
                .collect();
            assert!(
                loss[0] > 0,
                "{mode}: the tightest queue must actually overload"
            );
            for w in loss.windows(2) {
                assert!(
                    w[1] <= w[0],
                    "{mode}: pressure must relax with capacity: {loss:?}"
                );
            }
        }
        // Block never loses a frame; the lossy modes must process
        // everything they did not explicitly account as lost.
        for c in &cells {
            match c.mode {
                BackpressureMode::Block => {
                    assert_eq!(c.frames_processed, c.frames_total);
                    assert_eq!(c.shed_oldest + c.rejected, 0);
                }
                BackpressureMode::ShedOldest => {
                    assert_eq!(c.frames_processed + c.shed_oldest, c.frames_total);
                }
                BackpressureMode::Reject => {
                    assert_eq!(c.frames_processed + c.rejected, c.frames_total);
                }
            }
            assert_eq!(c.completed, u64::from(SHED_CLIENTS));
        }
    }

    #[test]
    fn admission_budgets_span_none_to_all() {
        let source = soak_source(1, 64);
        let cells = admission_study(&source);
        assert_eq!(cells.len(), 3);
        assert!(
            cells[0].admitted > 0,
            "the minimum budget admits the cheapest pair"
        );
        assert_eq!(
            cells[2].admitted, 64,
            "the maximum budget admits every client"
        );
        for w in cells.windows(2) {
            assert!(w[0].admitted <= w[1].admitted, "admission is monotone");
        }
    }
}
