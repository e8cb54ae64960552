//! Pinned rendered output of every study built on the sweep runner:
//! the seven paper artifacts (Table 1, Table 2, Figures 4–8) plus the
//! `related`, `scaling` and `client` extension studies, each run on
//! three workloads at a small fuel cap. The digests are FNV-1a over the
//! exact rendered text, so any change in which configs an artifact
//! sweeps, how it scores them, or how it reduces the scores shows up
//! here as a mismatch — while the runner's scheduling (thread count,
//! claim order) must not. Regenerate a digest only for a deliberate
//! change to an artifact's content.

use opd_experiments::checkpoint::fnv64;
use opd_experiments::exp::{
    client, fig4, fig5, fig6, fig7, fig8, related, scaling, table1, table2, ExpOptions,
};
use opd_microvm::workloads::Workload;

const FUEL: u64 = 20_000;

fn options(threads: usize) -> ExpOptions {
    ExpOptions {
        scale: 1,
        threads,
        workloads: vec![Workload::Lexgen, Workload::Blockcomp, Workload::Ruleng],
        fuel: FUEL,
    }
}

/// Renders `artifact` at 1 and 2 threads, asserts the two texts are
/// identical, and checks the digest against the pinned value.
fn assert_pinned(name: &str, artifact: fn(&ExpOptions) -> String, pinned: u64) {
    let text = artifact(&options(2));
    assert_eq!(
        text,
        artifact(&options(1)),
        "{name}: rendered text depends on the thread count"
    );
    let digest = fnv64(text.as_bytes());
    assert_eq!(
        digest, pinned,
        "{name}: rendered text changed (digest {digest:#018x}):\n{text}"
    );
}

#[test]
fn table1_is_pinned() {
    assert_pinned(
        "table1",
        |o| table1::run(o).to_string(),
        0x6bd2_ab56_cc7d_7c5b,
    );
}

#[test]
fn table2_is_pinned() {
    assert_pinned(
        "table2",
        |o| table2::run(o).to_string(),
        0x8057_3732_e9c6_b9d9,
    );
}

#[test]
fn fig4_is_pinned() {
    assert_pinned("fig4", |o| fig4::run(o).to_string(), 0xc312_74d6_93ca_5928);
}

#[test]
fn fig5_is_pinned() {
    assert_pinned("fig5", |o| fig5::run(o).to_string(), 0xcad9_0f55_68bb_8525);
}

#[test]
fn fig6_is_pinned() {
    assert_pinned("fig6", |o| fig6::run(o).to_string(), 0x8f59_c397_74fa_b082);
}

#[test]
fn fig7_is_pinned() {
    assert_pinned("fig7", |o| fig7::run(o).to_string(), 0xed93_356a_bafa_db41);
}

#[test]
fn fig8_is_pinned() {
    assert_pinned("fig8", |o| fig8::run(o).to_string(), 0x0ea6_47f5_10b9_098a);
}

#[test]
fn related_is_pinned() {
    assert_pinned(
        "related",
        |o| related::run(o).to_string(),
        0xb953_9b6d_6fe1_c78f,
    );
}

#[test]
fn scaling_is_pinned() {
    assert_pinned(
        "scaling",
        |o| scaling::run(o).to_string(),
        0xf076_2a67_2118_0dca,
    );
}

#[test]
fn client_is_pinned() {
    assert_pinned(
        "client",
        |o| client::run(o).to_string(),
        0xeada_019e_fa0c_9d36,
    );
}
