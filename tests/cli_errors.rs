//! The `opd` CLI error and exit-code contract, end to end:
//!
//! * 0 — clean run;
//! * 1 — findings at the failing severity (lint/audit/certify);
//! * 2 — malformed command line (every `CliError` variant) or
//!   unreadable input.
//!
//! Every stderr message below is the typed
//! [`opd_experiments::cli::CliError`] rendering, so these tests pin
//! both the codes and the wording.

use std::process::Command;

fn opd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_opd"))
        .args(args)
        .output()
        .expect("opd binary runs")
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    let out = opd(&["explode"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown subcommand `explode`"), "{err}");
    assert!(err.contains("usage: opd"), "{err}");
}

#[test]
fn unknown_flags_exit_2_on_every_subcommand() {
    for sub in [
        "lint",
        "plan",
        "faults",
        "sweep",
        "audit",
        "certify",
        "trace",
        "serve",
        "loadgen",
        "top",
        "flight",
        "metrics-dump",
    ] {
        let out = opd(&[sub, "--frobnicate"]);
        assert_eq!(out.status.code(), Some(2), "{sub}");
        assert!(
            stderr_of(&out).contains("unknown flag `--frobnicate`"),
            "{sub}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn missing_values_exit_2() {
    for args in [
        &["lint", "--scale"][..],
        &["plan", "--scale"],
        &["sweep", "--fuel"],
        &["sweep", "--checkpoint"],
        &["certify", "--budget"],
        &["trace", "lexgen", "--limit"],
        &["serve", "--clients"],
        &["serve", "--capacity"],
        &["serve", "--postmortem-dir"],
        &["serve", "--spans-out"],
        &["loadgen", "--scale"],
        &["trace", "lexgen", "--kind"],
        &["trace", "lexgen", "--session"],
        &["top", "--clients"],
        &["top", "--slo-p99"],
        &["metrics-dump", "--scale"],
    ] {
        let out = opd(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr_of(&out).contains("missing value for --"),
            "{args:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn invalid_values_exit_2_and_name_the_flag() {
    let out = opd(&["certify", "--fuel", "lots"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("bad --fuel `lots`"),
        "{}",
        stderr_of(&out)
    );

    let out = opd(&["lint", "--scale", "-1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("bad --scale `-1`"),
        "{}",
        stderr_of(&out)
    );

    let out = opd(&["top", "--slo-shed", "lots"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("bad --slo-shed `lots`"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn trace_rejects_unknown_kinds_at_parse_time() {
    // `--kind` is validated against the union of event and span kinds
    // before any work runs, so a typo fails the same way on workload
    // and span-log targets alike.
    let out = opd(&["trace", "lexgen", "--kind", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown kind `bogus`"), "{err}");
    assert!(err.contains("phase_start"), "{err}");
    assert!(err.contains("quarantine"), "{err}");
}

#[test]
fn flag_conflicts_exit_2() {
    let out = opd(&["sweep", "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("--resume requires --checkpoint PATH"),
        "{}",
        stderr_of(&out)
    );

    let out = opd(&["sweep", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("sweep --json/--write require --stats"),
        "{}",
        stderr_of(&out)
    );

    // --session only filters span-log replays, not live workloads.
    let out = opd(&["trace", "lexgen", "--session", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("--session applies only to span-log targets"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn bad_positionals_exit_2() {
    let out = opd(&["trace"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("trace requires a TARGET"),
        "{}",
        stderr_of(&out)
    );

    let out = opd(&["trace", "lexgen", "extra"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("unexpected trace argument `extra`"),
        "{}",
        stderr_of(&out)
    );

    let out = opd(&["audit", "extra"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("unexpected audit argument `extra`"),
        "{}",
        stderr_of(&out)
    );

    assert_eq!(opd(&["bounds", "--write", "extra"]).status.code(), Some(2));

    let out = opd(&["flight"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("flight requires a post-mortem FILE"),
        "{}",
        stderr_of(&out)
    );

    let out = opd(&["flight", "/nonexistent/dir/pm-000001.pm"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("cannot read"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn help_and_clean_runs_exit_0() {
    let out = opd(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: opd"));

    // The default grid certifies clean even under --deny-warnings
    // (unlimited fuel: no truncation, nothing vacuous, no budget).
    let out = opd(&["certify", "--deny-warnings"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("224 certificate(s), 224 tighter"),
        "{stdout}"
    );
    assert!(stdout.contains(": ok"), "{stdout}");
}

#[test]
fn certify_findings_exit_1() {
    // A zero budget makes every pair fail admission: OPD-A303 is an
    // error, so the run exits 1 (not 2 — the command line is fine).
    let out = opd(&["certify", "--budget", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("OPD-A303"), "{stdout}");
    assert!(stdout.contains("224 error(s)"), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");

    // A finite fuel truncates: OPD-A304 warnings pass by default and
    // fail only under --deny-warnings.
    let out = opd(&["certify", "--fuel", "12000"]);
    assert_eq!(out.status.code(), Some(0));
    let out = opd(&["certify", "--fuel", "12000", "--deny-warnings"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("OPD-A304"), "{stdout}");
}

#[test]
fn certify_json_stdout_is_one_document() {
    let out = opd(&["certify", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with('{'), "{stdout}");
    assert!(stdout.trim_end().ends_with('}'), "{stdout}");
    assert!(stdout.contains("\"schema\": \"opd-bench-cert-v1\""));
}

#[test]
fn unreadable_and_unparsable_inputs_exit_2() {
    // `src` exists but is a directory: the read itself fails. Input
    // errors are exit 2, same as a malformed command line — 1 is
    // reserved for findings at a failing severity.
    let out = opd(&["lint", "src"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("cannot read `src`"),
        "{}",
        stderr_of(&out)
    );

    // A readable file that is not a program parses to a typed error.
    let path = std::env::temp_dir().join(format!("opd_cli_errors_{}.opd", std::process::id()));
    std::fs::write(&path, "definitely not a program {{{").expect("write temp file");
    let target = path.to_str().expect("utf-8 temp path");
    let out = opd(&["trace", target]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("cannot parse"),
        "{}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_file(&path);

    // Neither a built-in workload nor an existing file.
    let out = opd(&["trace", "no_such_workload"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("neither a built-in workload nor an existing file"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn serve_checkpoint_io_errors_exit_2() {
    // Checkpoint creation happens before any shard work, so an
    // unwritable path fails fast with the typed serve error.
    let out = opd(&[
        "serve",
        "--clients",
        "4",
        "--checkpoint",
        "/nonexistent/dir/serve.opdk",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("error: serve:"),
        "{}",
        stderr_of(&out)
    );
}
