//! The flight-recorder contract, from the traced engine to the CLI:
//! post-mortem dumps are deterministic under seeded hazards,
//! round-trip through their text format, and the
//! `opd serve --smoke --postmortem-dir` → `opd flight` walkthrough
//! documented in the README works end to end, and tracing composes
//! with `--checkpoint`/`--resume`.

mod common;

use common::{opd, parse_json};

use opd_experiments::dash::{dash_config, dash_source};
use opd_obs::SpanLog;
use opd_serve::{
    run_service_traced, NullSubscriber, Postmortem, ServiceOptions, TraceConfig, POSTMORTEM_HEADER,
};

#[test]
fn postmortem_dumps_are_deterministic_under_seeded_hazards() {
    let source = dash_source(1, 180);
    let config = dash_config();
    let run = || {
        run_service_traced::<SpanLog>(
            &config,
            &source,
            &ServiceOptions::default(),
            &NullSubscriber,
            None,
            &TraceConfig::default(),
        )
        .expect("traced soak runs")
        .1
    };
    let (one, two) = (run(), run());
    assert!(!one.postmortems.is_empty(), "seeded hazards must kill");
    assert_eq!(one.postmortems, two.postmortems);

    for pm in &one.postmortems {
        // Each dump is a self-contained document: header, one kill
        // line, one counter line, the ring's spans — and it parses
        // back to exactly the in-memory record.
        let rendered = pm.render();
        assert!(rendered.starts_with(POSTMORTEM_HEADER));
        let parsed = Postmortem::parse(&rendered).expect("post-mortem round-trips");
        assert_eq!(&parsed, pm);
        assert!(pm.recent.len() as u64 <= pm.spans_recorded);
        for s in &pm.recent {
            assert_eq!(s.client, pm.client, "ring spans belong to the session");
        }
    }
}

#[test]
fn serve_postmortem_dir_to_flight_walkthrough() {
    let dir = std::env::temp_dir().join(format!("opd_flight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().expect("utf-8 temp path");

    let out = opd(&["serve", "--smoke", "--postmortem-dir", dir_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("post-mortem(s) to"), "{stdout}");

    let mut dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("post-mortem dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    dumps.sort();
    assert!(!dumps.is_empty(), "the smoke soak must dump post-mortems");
    let first = dumps[0].to_str().expect("utf-8 path");

    let human = opd(&["flight", first]);
    assert!(
        human.status.success(),
        "{}",
        String::from_utf8_lossy(&human.stderr)
    );
    let text = String::from_utf8_lossy(&human.stdout);
    assert!(text.contains("post-mortem: client"), "{text}");
    assert!(text.contains("flight ring:"), "{text}");

    let json = opd(&["flight", first, "--json"]);
    assert!(json.status.success());
    let doc = parse_json(&String::from_utf8_lossy(&json.stdout))
        .expect("flight --json emits one JSON document");
    assert_eq!(doc.get("schema").str(), "opd-postmortem-v1");
    assert!(!doc.get("reason").str().is_empty());

    // A readable file that is not a post-mortem is an input error.
    let junk = dir.join("junk.pm");
    std::fs::write(&junk, "not a post-mortem").expect("write junk");
    let bad = opd(&["flight", junk.to_str().expect("utf-8 path")]);
    assert_eq!(bad.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spans_out_round_trips_through_opd_trace() {
    let path = std::env::temp_dir().join(format!("opd_spans_{}.log", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");

    let out = opd(&["serve", "--smoke", "--spans-out", path_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The span log replays through `opd trace`, filtered by kind and
    // session, as one JSON document.
    let traced = opd(&[
        "trace",
        path_str,
        "--kind",
        "quarantine",
        "--json",
        "--limit",
        "5",
    ]);
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    let doc = parse_json(&String::from_utf8_lossy(&traced.stdout))
        .expect("trace --json emits one JSON document");
    assert!(doc.get("summary").get("matched").as_u64() > 0);
    for span in doc.get("spans").arr() {
        assert_eq!(span.get("kind").str(), "quarantine");
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn serve_tracing_composes_with_checkpoints() {
    let dir = std::env::temp_dir().join(format!("opd_traced_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_owned();
    let (ckpt, plain_log, ckpt_log, resumed_log) = (
        path("serve.opdk"),
        path("plain.log"),
        path("ckpt.log"),
        path("resumed.log"),
    );
    let serve = |extra: &[&str]| {
        let mut args = vec!["serve", "--clients", "64", "--json"];
        args.extend_from_slice(extra);
        let out = opd(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        parse_json(&String::from_utf8_lossy(&out.stdout)).expect("serve --json is one document")
    };

    // Checkpointing a traced run changes neither its report nor its
    // span log.
    let plain = serve(&["--spans-out", &plain_log]);
    let checkpointed = serve(&["--spans-out", &ckpt_log, "--checkpoint", &ckpt]);
    assert_eq!(plain.get("digest").str(), checkpointed.get("digest").str());
    let read = |p: &str| std::fs::read_to_string(p).expect("span log written");
    assert_eq!(read(&plain_log), read(&ckpt_log));

    // Resuming the complete checkpoint restores every vshard: the same
    // outcome, and no spans, because nothing was recomputed.
    let resumed = serve(&[
        "--spans-out",
        &resumed_log,
        "--checkpoint",
        &ckpt,
        "--resume",
    ]);
    assert_eq!(plain.get("digest").str(), resumed.get("digest").str());
    assert!(resumed.get("restored_vshards").as_u64() > 0);
    assert_eq!(read(&resumed_log).lines().count(), 1, "header only");

    let _ = std::fs::remove_dir_all(&dir);
}
