//! Adaptive replicate campaigns, end to end: byte-identity across worker
//! counts and across interrupt/resume, early stopping under the CI
//! target, warm cache replay of every replicate, and a golden CI-band
//! CSV snapshot.
//!
//! The determinism bar is the same as everywhere else in this repo: the
//! exports AND the cell-cache store must match byte for byte, at any
//! `--jobs`, interrupted or not. Bless the golden snapshot with
//! `COMB_BLESS=1 cargo test --test adaptive`.

mod common;

use comb::core::{AdaptiveParams, AdaptiveStats, CacheMode, CellCache, CombError, ErrorKind};
use comb::report::{run_campaigns, Campaigns, Fidelity, FigureId, FigureReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comb_adaptive_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The campaign all determinism tests run: a low enough CI target that
/// some cells converge before the cap while others hit it.
fn params() -> AdaptiveParams {
    let mut p = AdaptiveParams::new(4);
    p.ci_target = 0.10;
    p.perturb_seed = 2112;
    p
}

fn fidelity(jobs: usize) -> Fidelity {
    Fidelity::smoke().with_jobs(jobs).with_adaptive(params())
}

fn csv_bytes(dir: &Path, id: FigureId) -> Vec<u8> {
    std::fs::read(dir.join(format!("{id}.csv"))).unwrap()
}

/// Run `ids` as `comb figure` does, writing CSVs to `out`; `stop_after`
/// interrupts the pass after that many fresh replicates.
fn run_adaptive(
    ids: &[FigureId],
    fidelity: Fidelity,
    out: Option<&Path>,
    cache: Option<Arc<CellCache>>,
    stop_after: Option<usize>,
) -> Result<(Vec<FigureReport>, AdaptiveStats), CombError> {
    let mut campaigns = Campaigns::new(fidelity);
    if let Some(c) = cache {
        campaigns.set_cache(c);
    }
    if let Some(n) = stop_after {
        campaigns.set_budget(n);
    }
    run_campaigns(&mut campaigns, ids, out)
}

/// A fresh cache instance over `store`: nothing is served from memory.
fn cache(store: &Path) -> Arc<CellCache> {
    Arc::new(CellCache::new(store, CacheMode::ReadWrite))
}

#[test]
fn adaptive_campaign_is_byte_identical_across_job_counts() {
    let id = FigureId::Fig08;
    let mut outputs = Vec::new();
    for jobs in [1usize, 4] {
        let dir = fresh_dir(&format!("jobs{jobs}"));
        let store = dir.join("cells");
        let (reports, stats) =
            run_adaptive(&[id], fidelity(jobs), Some(&dir), Some(cache(&store)), None).unwrap();
        assert!(reports[0].all_pass(), "{:#?}", reports[0].checks);
        outputs.push((csv_bytes(&dir, id), common::store_files(&store), stats));
    }
    let (csv1, store1, stats1) = &outputs[0];
    let (csv4, store4, stats4) = &outputs[1];
    assert_eq!(csv1, csv4, "CSV exports differ between --jobs 1 and 4");
    assert_eq!(
        store1.keys().collect::<Vec<_>>(),
        store4.keys().collect::<Vec<_>>(),
        "the same replicates must be stored at --jobs 1 and 4"
    );
    assert!(
        store1 == store4,
        "replicate entries differ between --jobs 1 and 4"
    );
    assert_eq!(stats1, stats4);
    // The CSV actually carries the CI-band columns.
    let text = String::from_utf8(csv1.clone()).unwrap();
    assert!(text.contains("series,x,y,y_lo,y_hi,n"), "{text}");
}

#[test]
fn interrupted_adaptive_campaign_resumes_byte_identically() {
    let id = FigureId::Fig08;

    // Uninterrupted baseline at --jobs 1, no cache.
    let base_dir = fresh_dir("resume_base");
    let (_, base_stats) = run_adaptive(&[id], fidelity(1), Some(&base_dir), None, None).unwrap();
    assert!(base_stats.replicates > 3);

    // Interrupt after 3 fresh replicates at --jobs 4...
    let dir = fresh_dir("resume_run");
    let store = dir.join("cells");
    let interrupted = cache(&store);
    let err = match run_adaptive(
        &[id],
        fidelity(4),
        Some(&dir),
        Some(Arc::clone(&interrupted)),
        Some(3),
    ) {
        Err(e) => e,
        Ok(_) => panic!("interrupting after 3 fresh replicates must fail"),
    };
    assert_eq!(err.kind, ErrorKind::Interrupted, "{err}");
    assert_eq!(
        interrupted.stats().stored,
        3,
        "exactly 3 replicates persist"
    );

    // ...then rerun at --jobs 1: the 3 replay from disk, same CSV.
    let resumed = cache(&store);
    let (_, stats) = run_adaptive(
        &[id],
        fidelity(1),
        Some(&dir),
        Some(Arc::clone(&resumed)),
        None,
    )
    .unwrap();
    let s = resumed.stats();
    assert_eq!(s.hits_disk, 3, "the interrupted replicates replay");
    assert_eq!(s.misses as usize, base_stats.replicates - 3);
    assert_eq!(stats, base_stats);
    assert_eq!(csv_bytes(&dir, id), csv_bytes(&base_dir, id));

    // A rerun of the finished campaign computes nothing.
    let again_dir = fresh_dir("resume_again");
    let again = cache(&store);
    let (_, stats) = run_adaptive(
        &[id],
        fidelity(4),
        Some(&again_dir),
        Some(Arc::clone(&again)),
        None,
    )
    .unwrap();
    assert_eq!(again.stats().misses, 0, "nothing left to simulate");
    assert_eq!(again.stats().hits_disk as usize, base_stats.replicates);
    assert_eq!(stats, base_stats);
    assert_eq!(csv_bytes(&again_dir, id), csv_bytes(&base_dir, id));
}

#[test]
fn stopping_rule_saves_replicates_while_meeting_the_target() {
    // A loose target: most cells should settle before the cap.
    let mut p = AdaptiveParams::new(5);
    p.ci_target = 0.30;
    let (_, stats) = run_adaptive(
        &[FigureId::Fig13],
        Fidelity::smoke().with_adaptive(p),
        None,
        None,
        None,
    )
    .unwrap();
    assert_eq!(stats.converged + stats.capped, stats.cells);
    assert!(stats.converged > 0, "{stats:?}");
    assert!(
        stats.replicates < stats.cells * 5,
        "adaptive sampling should stop early somewhere: {stats:?}"
    );
    assert!(
        stats.replicates >= stats.cells * 2,
        "every cell needs at least the two-replicate floor: {stats:?}"
    );
}

#[test]
fn warm_cache_replays_every_replicate() {
    let id = FigureId::Fig13;
    let store = fresh_dir("cache_store");

    let cold = Arc::new(CellCache::new(store.clone(), CacheMode::ReadWrite));
    let cold_out = fresh_dir("cache_cold");
    let (_, cold_stats) = run_adaptive(
        &[id],
        fidelity(0),
        Some(&cold_out),
        Some(Arc::clone(&cold)),
        None,
    )
    .unwrap();
    let s = cold.stats();
    assert_eq!(s.hits(), 0, "fresh store cannot hit");
    assert_eq!(s.misses as usize, cold_stats.replicates);
    // Every (cell, replicate) pair keys its own entry: the perturbed
    // hardware is part of the content address, so replicates of one cell
    // never collide.
    let report = comb::core::cache::verify_store(&store);
    assert_eq!(report.entries as usize, cold_stats.replicates);
    assert_eq!(report.invalid, 0);

    // A fresh CellCache instance defeats the in-memory tier: the warm
    // pass must serve every replicate from disk, byte-identically.
    let warm = Arc::new(CellCache::new(store.clone(), CacheMode::ReadWrite));
    let warm_out = fresh_dir("cache_warm");
    let (_, warm_stats) = run_adaptive(
        &[id],
        fidelity(0),
        Some(&warm_out),
        Some(Arc::clone(&warm)),
        None,
    )
    .unwrap();
    let s = warm.stats();
    assert_eq!(s.misses, 0, "warm adaptive rerun must be 100% hits");
    assert_eq!(s.hits() as usize, warm_stats.replicates);
    assert_eq!(warm_stats, cold_stats);
    assert_eq!(csv_bytes(&warm_out, id), csv_bytes(&cold_out, id));
}

/// Figures that cover both methods, both platforms and the modified PWW.
const MIXED: [FigureId; 3] = [FigureId::Fig08, FigureId::Fig13, FigureId::Fig17];

#[test]
fn one_replicate_campaign_writes_the_plain_bytes() {
    let plain = fresh_dir("one_rep_plain");
    let one = fresh_dir("one_rep");
    run_adaptive(&MIXED, Fidelity::smoke(), Some(&plain), None, None).unwrap();
    let one_rep = Fidelity::smoke().with_adaptive(AdaptiveParams::new(1));
    let (_, stats) = run_adaptive(&MIXED, one_rep, Some(&one), None, None).unwrap();
    assert_eq!(stats.replicates, stats.cells, "one replicate per cell");
    for id in MIXED {
        assert_eq!(csv_bytes(&one, id), csv_bytes(&plain, id), "{id} differs");
    }
}

#[test]
fn plain_pass_over_an_adaptive_store_is_all_disk_hits() {
    let store = fresh_dir("plain_over_store");
    let plain = fresh_dir("plain_over_plain");
    let out = fresh_dir("plain_over_out");
    let mut p = AdaptiveParams::new(3);
    p.ci_target = 0.25;
    let adaptive = Fidelity::smoke().with_adaptive(p);
    run_adaptive(&MIXED, adaptive, None, Some(cache(&store)), None).unwrap();

    // Replicate 0 is the unperturbed cell under the plain cell key, so
    // the adaptive pass stored every cell a plain pass needs.
    run_adaptive(&MIXED, Fidelity::smoke(), Some(&plain), None, None).unwrap();
    let warm = cache(&store);
    let (reports, stats) = run_adaptive(
        &MIXED,
        Fidelity::smoke(),
        Some(&out),
        Some(Arc::clone(&warm)),
        None,
    )
    .unwrap();
    let s = warm.stats();
    assert_eq!(
        s.misses, 0,
        "a plain pass over an adaptive store computes nothing"
    );
    assert_eq!(s.hits_disk as usize, stats.cells);
    let fig08 = reports[0].cache.unwrap();
    assert_eq!((fig08.hits, fig08.misses), (2 * 8, 0), "per-figure tallies");
    for id in MIXED {
        assert_eq!(csv_bytes(&out, id), csv_bytes(&plain, id), "{id} differs");
    }
}

/// Golden snapshot of a CI-band CSV export. Any change to the
/// perturbation model, the stopping rule, the Welford estimator or the
/// t-quantile table that moves a single byte fails here — regenerate
/// with `COMB_BLESS=1 cargo test --test adaptive` and review the diff.
#[test]
fn adaptive_ci_band_csv_matches_golden() {
    let dir = fresh_dir("golden");
    let (reports, _) =
        run_adaptive(&[FigureId::Fig13], fidelity(0), Some(&dir), None, None).unwrap();
    assert!(reports[0].all_pass(), "{:#?}", reports[0].checks);
    let rendered = String::from_utf8(csv_bytes(&dir, FigureId::Fig13)).unwrap();

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig13_adaptive_smoke.csv");
    if std::env::var("COMB_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with COMB_BLESS=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == rendered,
        "fig13 adaptive CSV drifted from its golden snapshot.\n\
         If the change is intentional, regenerate with COMB_BLESS=1 and review.\n\
         --- expected ---\n{expected}\n--- actual ---\n{rendered}"
    );
}
