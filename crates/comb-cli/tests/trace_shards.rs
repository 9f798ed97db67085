//! Tracing records on the serial kernel only, so asking for more than one
//! shard alongside `comb sweep --trace` or `comb trace` — by flag or by
//! environment — is a usage error (exit code 1, the CLI's usage contract)
//! rather than a silently serial run.

use std::process::{Command, Output};

fn sweep(extra: &[&str], shards_env: Option<&str>) -> Output {
    let trace =
        std::env::temp_dir().join(format!("comb_cli_trace_shards_{}.json", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_comb"));
    cmd.args([
        "sweep",
        "polling",
        "--range",
        "1000:1000:1",
        "--no-cache",
        "--trace",
    ])
    .arg(&trace)
    .args(extra)
    .env_remove("COMB_SHARDS");
    if let Some(v) = shards_env {
        cmd.env("COMB_SHARDS", v);
    }
    let out = cmd.output().expect("run comb sweep");
    let _ = std::fs::remove_file(&trace);
    out
}

fn trace(shards_env: &str) -> Output {
    let out = std::env::temp_dir().join(format!(
        "comb_cli_trace_cmd_shards_{}_{shards_env}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_comb"))
        .args(["trace", "--cycles", "2", "--out"])
        .arg(&out)
        .env("COMB_SHARDS", shards_env)
        .output()
        .expect("run comb trace");
    let _ = std::fs::remove_file(&out);
    output
}

fn assert_rejected(out: &Output) {
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected a usage error: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[usage]") && stderr.contains("--trace") && stderr.contains("shards"),
        "stderr should name both knobs: {stderr}"
    );
}

#[test]
fn trace_with_shards_flag_is_a_usage_error() {
    assert_rejected(&sweep(&["--shards", "2"], None));
}

#[test]
fn trace_with_shards_env_is_a_usage_error() {
    assert_rejected(&sweep(&[], Some("2")));
}

#[test]
fn trace_with_one_shard_still_runs() {
    let out = sweep(&["--shards", "1"], Some("4"));
    assert!(
        out.status.success(),
        "one shard by flag must trace: {out:?}"
    );
}

#[test]
fn trace_command_with_shards_env_is_a_usage_error() {
    assert_rejected(&trace("2"));
}

#[test]
fn trace_command_with_one_shard_runs() {
    let out = trace("1");
    assert!(out.status.success(), "one shard must trace: {out:?}");
}
