//! Smoke tests: every figure/table harness must run to completion at a
//! tiny workload and print its table. Guards the whole experiment
//! matrix against bit-rot.

use std::process::Command;

fn run(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .env("TLC_N", "65536")
        .env("TLC_SF", "0.002")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("=="),
        "{bin} printed no table"
    );
}

#[test]
fn sec4_opts() {
    run(env!("CARGO_BIN_EXE_sec4_opts"), &[]);
}

#[test]
fn fig5_d_sweep() {
    run(env!("CARGO_BIN_EXE_fig5_d_sweep"), &[]);
}

#[test]
fn sec43_simdbp128() {
    run(env!("CARGO_BIN_EXE_sec43_simdbp128"), &[]);
}

#[test]
fn sec43_nominiblock() {
    run(env!("CARGO_BIN_EXE_sec43_nominiblock"), &[]);
}

#[test]
fn fig7_bitwidths() {
    run(env!("CARGO_BIN_EXE_fig7_bitwidths"), &[]);
}

#[test]
fn fig8_distributions() {
    // One distribution per invocation keeps the smoke run fast.
    run(env!("CARGO_BIN_EXE_fig8_distributions"), &["d1"]);
    run(env!("CARGO_BIN_EXE_fig8_distributions"), &["d3"]);
}

#[test]
fn fig9_ssb_sizes() {
    run(env!("CARGO_BIN_EXE_fig9_ssb_sizes"), &[]);
}

#[test]
fn fig10_decompression() {
    run(env!("CARGO_BIN_EXE_fig10_decompression"), &[]);
}

#[test]
fn fig11_ssb_queries() {
    run(env!("CARGO_BIN_EXE_fig11_ssb_queries"), &[]);
}

#[test]
fn fig12_coprocessor() {
    run(env!("CARGO_BIN_EXE_fig12_coprocessor"), &[]);
}

#[test]
fn sec8_random_access() {
    run(env!("CARGO_BIN_EXE_sec8_random_access"), &[]);
}

#[test]
fn sec8_compression_speed() {
    run(env!("CARGO_BIN_EXE_sec8_compression_speed"), &[]);
}

#[test]
fn ablation_dfor_depth() {
    run(env!("CARGO_BIN_EXE_ablation_dfor_depth"), &[]);
}

#[test]
fn ablation_model() {
    run(env!("CARGO_BIN_EXE_ablation_model"), &[]);
}

#[test]
fn ext_multi_gpu() {
    run(env!("CARGO_BIN_EXE_ext_multi_gpu"), &[]);
}
