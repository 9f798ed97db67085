//! Inputs the CLI cannot run are usage errors (exit code 1, `[usage]` on
//! stderr) that run nothing: no cache entry and no output file is written.
//!
//! `--resume` is gone: an interrupted run resumes by rerunning it against
//! the cell cache. Every command that used to take the flag rejects it
//! with a message that explains the migration and names the cache
//! directory. `comb serve --journal` is gone the same way: a restarted
//! server replays a resent request's stored cells from the cell cache, so
//! the flag is rejected, naming that cache directory, before anything is
//! bound. Both errors are raised once the whole argument list is parsed,
//! so a `--cache-dir` after the removed flag is the directory named.
//! `sweep` and `trace` reject the range and the zero knobs that
//! `comb serve` rejects in a sweep request, and `soak` rejects the zero
//! attempt and client counts its library would quietly raise to one.
//!
//! An environment default (`COMB_JOBS`, `COMB_SHARDS`) that does not parse
//! is a usage error naming the variable, in the commands that take the
//! option; the others never read it.

use std::process::Command;

/// Environment variables set for one row, beside `COMB_CACHE_DIR`.
type Env<'a> = &'a [(&'a str, &'a str)];

#[test]
fn unrunnable_inputs_are_usage_errors_that_run_nothing() {
    let dir = std::env::temp_dir().join(format!("comb_cli_usage_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cells");
    let output = dir.join("x");
    let cache_dir = cache.display().to_string();
    // A `--cache-dir` on either side of a removed flag is the directory
    // its message names.
    let other = dir.join("elsewhere");
    let other_dir = other.display().to_string();
    let resume: &[&str] = &["--resume was removed", "rerun", &cache_dir];
    let journal_gone: &[&str] = &["--journal was removed", "resend", &cache_dir, "--no-cache"];
    let resume_other: &[&str] = &["--resume was removed", "rerun", &other_dir];
    let journal_other: &[&str] = &["--journal was removed", "resend", &other_dir];
    let bad_range: &[&str] = &["range needs 1 <= lo <= hi and per_decade >= 1"];
    let table: [(Env, &[&str], &[&str]); 24] = [
        (&[], &["all", "--resume", "x"], resume),
        (&[], &["figure", "fig08", "--resume", "x"], resume),
        (&[], &["report", "--resume", "x"], resume),
        (&[], &["sweep", "polling", "--resume", "x"], resume),
        (&[], &["serve", "--journal", "x"], journal_gone),
        (
            &[],
            &["all", "--resume", "--cache-dir", &other_dir],
            resume_other,
        ),
        (
            &[],
            &["all", "--cache-dir", &other_dir, "--resume"],
            resume_other,
        ),
        (
            &[],
            &["serve", "--journal", "x", "--cache-dir", &other_dir],
            journal_other,
        ),
        (
            &[],
            &["serve", "--cache-dir", &other_dir, "--journal", "x"],
            journal_other,
        ),
        (
            &[],
            &["sweep", "polling", "--range", "1000:100:1"],
            bad_range,
        ),
        (
            &[],
            &["sweep", "polling", "--range", "1000:100000:0"],
            bad_range,
        ),
        (&[], &["sweep", "polling", "--range", "0:1000:1"], bad_range),
        (
            &[],
            &["sweep", "pww", "--range", "1000:1000:1", "--batch", "0"],
            &["--batch must be >= 1"],
        ),
        (
            &[],
            &["sweep", "pww", "--range", "1000:1000:1", "--cycles", "0"],
            &["--cycles must be >= 1"],
        ),
        (
            &[],
            &["sweep", "--range", "1000:1000:1", "--size", "0"],
            &["--size must be >= 1"],
        ),
        (
            &[],
            &["sweep", "--range", "1000:1000:1", "--queue", "0"],
            &["--queue must be >= 1"],
        ),
        (
            &[],
            &["trace", "--batch", "0", "--out", "x"],
            &["--batch must be >= 1"],
        ),
        (
            &[],
            &["trace", "--size", "0", "--out", "x"],
            &["--size must be >= 1"],
        ),
        (
            &[],
            &["trace", "--method", "polling", "--queue", "0", "--out", "x"],
            &["--queue must be >= 1"],
        ),
        (
            &[("COMB_JOBS", "banana")],
            &["sweep", "polling", "--range", "1000:1000:1"],
            &["COMB_JOBS", "banana", "--jobs"],
        ),
        (
            &[("COMB_JOBS", "-1")],
            &["all", "--smoke"],
            &["COMB_JOBS", "-1"],
        ),
        (
            &[("COMB_SHARDS", "x")],
            &["latency"],
            &["COMB_SHARDS", "--shards"],
        ),
        (
            &[],
            &["soak", "--attempts", "0"],
            &["--attempts", "must be >= 1"],
        ),
        (
            &[],
            &["soak", "--serve", "--clients", "0"],
            &["--clients", "must be >= 1"],
        ),
    ];
    for (env, args, fragments) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_comb"))
            .args(args)
            .env_remove("COMB_JOBS")
            .env_remove("COMB_SHARDS")
            .env("COMB_CACHE_DIR", &cache)
            .envs(env.iter().copied())
            .current_dir(&dir)
            .output()
            .expect("run comb");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("[usage]") && fragments.iter().all(|f| stderr.contains(f)),
            "{args:?} should be a usage error saying {fragments:?}: {stderr}"
        );
        assert!(!output.exists(), "{args:?} created its output file");
        assert!(!cache.exists(), "{args:?} ran despite the usage error");
        assert!(!other.exists(), "{args:?} ran despite the usage error");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commands_without_the_option_ignore_its_variable() {
    let out = Command::new(env!("CARGO_BIN_EXE_comb"))
        .arg("list")
        .env("COMB_JOBS", "banana")
        .env("COMB_SHARDS", "x")
        .output()
        .expect("run comb");
    assert!(out.status.success(), "{out:?}");
}
