//! Resume determinism: a campaign interrupted after K cells and rerun
//! against its cell cache must produce CSV exports byte-identical to an
//! uninterrupted run — at any worker count, including interrupting at one
//! `--jobs` value and resuming at another. The cell cache is the only
//! resume mechanism: every cell is stored as it finishes, so a rerun
//! replays the finished cells as disk hits and computes only the rest.

mod common;

use comb::core::cache::verify_store;
use comb::core::{CacheMode, CacheStats, CellCache, ErrorKind};
use comb::report::{run_figures_cached, Campaigns, Fidelity, FigureId, FigureReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ID: FigureId = FigureId::Fig08;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comb_resume_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn csv_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(format!("{ID}.csv"))).unwrap()
}

/// Interrupt a Fig08 campaign after `stop_after` fresh cells, storing
/// what finished in `store`.
fn interrupt(store: &Path, fidelity: Fidelity, stop_after: usize) {
    let cache = Arc::new(CellCache::new(store, CacheMode::ReadWrite));
    let mut campaigns = Campaigns::new(fidelity);
    campaigns.set_cache(Arc::clone(&cache));
    campaigns.set_budget(stop_after);
    let err = campaigns.prepare(&[ID]).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Interrupted, "{err}");
    assert_eq!(
        cache.stats().stored as usize,
        stop_after,
        "exactly K cells are persisted"
    );
}

/// Run Fig08 to completion against `store` with a fresh cache instance
/// (so nothing is served from memory), writing the CSV into `out`.
fn rerun(store: &Path, fidelity: Fidelity, out: &Path) -> (Vec<FigureReport>, CacheStats) {
    let cache = Arc::new(CellCache::new(store, CacheMode::ReadWrite));
    let reports = run_figures_cached(&[ID], fidelity, Some(out), Some(Arc::clone(&cache))).unwrap();
    (reports, cache.stats())
}

/// Interrupt a Fig08 campaign after `stop_after` fresh cells at
/// `interrupt_jobs`, then rerun it at `resume_jobs`; the resulting CSV
/// must equal the uninterrupted baseline byte for byte.
fn interrupted_run_matches_baseline(
    name: &str,
    stop_after: usize,
    interrupt_jobs: usize,
    resume_jobs: usize,
) {
    let base_dir = fresh_dir(&format!("{name}_base"));
    let baseline = run_figures_cached(
        &[ID],
        Fidelity::smoke().with_jobs(resume_jobs),
        Some(&base_dir),
        None,
    )
    .unwrap();

    let store = fresh_dir(&format!("{name}_store"));
    let out = fresh_dir(&format!("{name}_out"));
    interrupt(
        &store,
        Fidelity::smoke().with_jobs(interrupt_jobs),
        stop_after,
    );
    let (reports, stats) = rerun(&store, Fidelity::smoke().with_jobs(resume_jobs), &out);
    assert_eq!(
        stats.hits_disk as usize, stop_after,
        "the K finished cells replay from disk"
    );
    assert!(stats.misses > 0, "the interruption left work to do");

    assert_eq!(
        csv_bytes(&out),
        csv_bytes(&base_dir),
        "resumed export must be byte-identical to an uninterrupted run"
    );
    assert_eq!(reports.len(), baseline.len());
    for (r, b) in reports.iter().zip(&baseline) {
        assert_eq!(r.checks.len(), b.checks.len());
        for (rc, bc) in r.checks.iter().zip(&b.checks) {
            assert_eq!(
                rc.pass, bc.pass,
                "check '{}' diverged after resume",
                rc.name
            );
        }
    }

    for dir in [base_dir, store, out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn resume_is_byte_identical_serial() {
    interrupted_run_matches_baseline("serial", 5, 1, 1);
}

#[test]
fn resume_is_byte_identical_parallel() {
    interrupted_run_matches_baseline("parallel", 5, 4, 4);
}

#[test]
fn resume_crosses_job_counts() {
    // Interrupt at --jobs 4, resume at --jobs 1: worker count is excluded
    // from the cache key because it never affects results.
    interrupted_run_matches_baseline("cross", 7, 4, 1);
}

#[test]
fn completed_run_reruns_with_zero_misses() {
    let store = fresh_dir("complete_store");
    let out = fresh_dir("complete_out");
    let (first, stats1) = rerun(&store, Fidelity::smoke(), &out);
    assert_eq!(stats1.hits_disk, 0);
    let bytes1 = csv_bytes(&out);

    // A second run against the same store computes nothing.
    let (second, stats2) = rerun(&store, Fidelity::smoke(), &out);
    assert_eq!(stats2.misses, 0, "everything replays from the store");
    assert_eq!(stats2.hits_disk, stats1.stored);
    assert_eq!(csv_bytes(&out), bytes1);
    assert_eq!(first.len(), second.len());
    for dir in [store, out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn resume_at_other_fidelity_misses_every_cell() {
    // Every knob that changes a result is in the cache key, so cells
    // stored at one fidelity can never stand in for another's: a rerun at
    // a different fidelity computes everything afresh and matches an
    // uninterrupted run at that fidelity.
    let base_dir = fresh_dir("fidmix_base");
    run_figures_cached(&[ID], Fidelity::quick(), Some(&base_dir), None).unwrap();

    let store = fresh_dir("fidmix_store");
    let out = fresh_dir("fidmix_out");
    interrupt(&store, Fidelity::smoke().with_jobs(2), 5);
    let (_, stats) = rerun(&store, Fidelity::quick(), &out);
    assert_eq!(stats.hits(), 0, "no smoke cell may answer for a quick one");
    assert_eq!(stats.misses, stats.lookups());
    assert_eq!(csv_bytes(&out), csv_bytes(&base_dir));
    for dir in [base_dir, store, out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn store_is_identical_across_job_counts() {
    let mut stores = Vec::new();
    for jobs in [1usize, 4] {
        let store = fresh_dir(&format!("jobs{jobs}_store"));
        let out = fresh_dir(&format!("jobs{jobs}_out"));
        rerun(&store, Fidelity::smoke().with_jobs(jobs), &out);
        stores.push(common::store_files(&store));
        for dir in [store, out] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    assert!(!stores[0].is_empty());
    assert_eq!(
        stores[0].keys().collect::<Vec<_>>(),
        stores[1].keys().collect::<Vec<_>>(),
        "the same cells must be stored at --jobs 1 and 4"
    );
    assert!(
        stores[0] == stores[1],
        "store entries differ between --jobs 1 and 4"
    );
}

#[test]
fn torn_entry_is_recomputed_on_resume() {
    let base_dir = fresh_dir("torn_base");
    run_figures_cached(&[ID], Fidelity::smoke(), Some(&base_dir), None).unwrap();

    let store = fresh_dir("torn_store");
    let out = fresh_dir("torn_out");
    interrupt(&store, Fidelity::smoke().with_jobs(2), 6);
    // A crash mid-write: cut one stored entry short.
    let (torn, bytes) = common::store_files(&store).into_iter().next().unwrap();
    std::fs::write(store.join(&torn), &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(verify_store(&store).invalid, 1);

    let (_, stats) = rerun(&store, Fidelity::smoke(), &out);
    assert_eq!(stats.invalid, 1, "the torn entry is detected");
    assert_eq!(stats.hits_disk, 5, "the intact entries replay");
    let report = verify_store(&store);
    assert_eq!(report.invalid, 0, "the torn entry is rewritten");
    assert_eq!(report.entries, stats.stored + 5);
    assert_eq!(csv_bytes(&out), csv_bytes(&base_dir));
    for dir in [base_dir, store, out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
