//! `--resume` is gone: an interrupted run resumes by rerunning it against
//! the cell cache. Every command that used to take the flag rejects it as
//! a usage error (exit code 1) that explains the migration and names the
//! cache directory, and never creates the file it was given.

use std::process::Command;

#[test]
fn resume_flag_is_a_usage_error_naming_the_cache() {
    let dir = std::env::temp_dir().join(format!("comb_cli_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cells");
    let journal = dir.join("x");
    for args in [
        &["all"][..],
        &["figure", "fig08"],
        &["report"],
        &["sweep", "polling"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_comb"))
            .args(args)
            .args(["--resume", "x"])
            .env("COMB_CACHE_DIR", &cache)
            .current_dir(&dir)
            .output()
            .expect("run comb");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--resume was removed")
                && stderr.contains("rerun")
                && stderr.contains(&cache.display().to_string()),
            "{args:?} should explain resume-by-rerun and name the cache: {stderr}"
        );
        assert!(!journal.exists(), "{args:?} created the --resume file");
        assert!(!cache.exists(), "{args:?} ran despite the usage error");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
