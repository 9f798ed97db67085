//! The full evaluation: regenerate every figure, write CSVs, render ASCII
//! plots, and run the shape checks. Drives the CLI and the EXPERIMENTS.md
//! record.

use crate::ascii;
use crate::expect::{check_figure, Check};
use crate::figures::{generate, CacheCounts, Campaigns, Fidelity, FigureId};
use crate::series::Dataset;
use comb_core::{AdaptiveStats, CellCache, CombError};
use comb_trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Result of regenerating one figure.
pub struct FigureReport {
    /// Which figure.
    pub id: FigureId,
    /// The regenerated data.
    pub dataset: Dataset,
    /// Shape checks against the paper's claims.
    pub checks: Vec<Check>,
    /// Where the CSV was written, if requested.
    pub csv_path: Option<PathBuf>,
    /// Cell-cache activity attributed to this figure (None when the run
    /// had no cache).
    pub cache: Option<CacheCounts>,
}

impl FigureReport {
    /// True if every shape check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Render the figure as an ASCII plot.
    pub fn plot(&self, width: usize, height: usize) -> String {
        ascii::render(&self.dataset, width, height)
    }

    /// One-line summary: id, pass/fail counts.
    pub fn summary(&self) -> String {
        let passed = self.checks.iter().filter(|c| c.pass).count();
        format!(
            "{}  [{}/{} checks]  {}",
            self.id,
            passed,
            self.checks.len(),
            self.id.title()
        )
    }
}

/// Regenerate the given figures at the given fidelity, optionally writing
/// CSVs to `out_dir`. Sweeps are shared across figures and all their
/// points are executed up front through the shared worker pool
/// ([`Fidelity::jobs`], `0` = auto).
pub fn run_figures(
    ids: &[FigureId],
    fidelity: Fidelity,
    out_dir: Option<&Path>,
) -> Result<Vec<FigureReport>, CombError> {
    run_figures_cached(ids, fidelity, out_dir, None)
}

/// [`run_figures`] with an optional content-addressed cell cache: every
/// campaign cell resolves through the cache (results are byte-identical
/// either way) and each report carries its cache tallies.
pub fn run_figures_cached(
    ids: &[FigureId],
    fidelity: Fidelity,
    out_dir: Option<&Path>,
    cache: Option<Arc<CellCache>>,
) -> Result<Vec<FigureReport>, CombError> {
    let mut campaigns = Campaigns::new(fidelity);
    if let Some(c) = cache {
        campaigns.set_cache(c);
    }
    campaigns.prepare(ids).map_err(CombError::from)?;
    render_reports(ids, &mut campaigns, out_dir)
}

/// [`run_figures`] with adaptive replicate sampling
/// ([`Fidelity::adaptive`] must be set): every campaign cell is repeated
/// under seeded perturbation until its CI target is met or the replicate
/// cap stops it, figures plot per-cell means, and CSV exports carry
/// `y_lo,y_hi,n` CI-band columns.
///
/// With a `cache`, every replicate is stored as it finishes and a rerun
/// of an interrupted campaign resumes byte-identically from the store;
/// `stop_after` caps fresh replicates for the interrupt/resume tests.
/// `tracer` receives the replicate-level trace events (pass
/// `&Tracer::default()` to discard them).
pub fn run_figures_adaptive(
    ids: &[FigureId],
    fidelity: Fidelity,
    out_dir: Option<&Path>,
    cache: Option<Arc<CellCache>>,
    tracer: &Tracer,
    stop_after: Option<usize>,
) -> Result<(Vec<FigureReport>, AdaptiveStats), CombError> {
    let mut campaigns = Campaigns::new(fidelity);
    if let Some(c) = cache {
        campaigns.set_cache(c);
    }
    let stats = campaigns.prepare_adaptive(ids, tracer, stop_after)?;
    let reports = render_reports(ids, &mut campaigns, out_dir)?;
    Ok((reports, stats))
}

fn render_reports(
    ids: &[FigureId],
    campaigns: &mut Campaigns,
    out_dir: Option<&Path>,
) -> Result<Vec<FigureReport>, CombError> {
    let mut reports = Vec::with_capacity(ids.len());
    for &id in ids {
        let dataset = generate(id, campaigns).map_err(CombError::from)?;
        let checks = check_figure(id, &dataset);
        let csv_path = match out_dir {
            Some(dir) => Some(
                dataset
                    .write_csv(dir)
                    .map_err(|e| CombError::io(format!("writing {id}.csv"), &e))?,
            ),
            None => None,
        };
        reports.push(FigureReport {
            id,
            dataset,
            checks,
            csv_path,
            cache: campaigns.figure_cache_counts(id),
        });
    }
    Ok(reports)
}

/// Regenerate the whole evaluation (all 14 data figures).
pub fn run_all(fidelity: Fidelity, out_dir: Option<&Path>) -> Result<Vec<FigureReport>, CombError> {
    run_figures(&FigureId::ALL, fidelity, out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_figure_report_has_checks_and_csv() {
        let dir = std::env::temp_dir().join("comb_report_experiments_test");
        let reports =
            run_figures(&[FigureId::Fig13], Fidelity::quick(), Some(&dir)).expect("fig13 runs");
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(!r.checks.is_empty());
        assert!(r.all_pass(), "{:#?}", r.checks);
        assert!(r.csv_path.as_ref().unwrap().exists());
        assert!(r.summary().contains("fig13"));
        assert!(r.plot(60, 14).contains("Work Only"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Render a markdown record of the given figure reports — the
/// machine-generated companion to EXPERIMENTS.md.
pub fn markdown_report(reports: &[FigureReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total: usize = reports.iter().map(|r| r.checks.len()).sum();
    let passed: usize = reports
        .iter()
        .map(|r| r.checks.iter().filter(|c| c.pass).count())
        .sum();
    let _ = writeln!(out, "# COMB evaluation record\n");
    let _ = writeln!(
        out,
        "{passed}/{total} shape checks passed across {} figures.\n",
        reports.len()
    );
    for r in reports {
        let _ = writeln!(out, "## {} — {}\n", r.id, r.id.title());
        let _ = writeln!(out, "{}\n", r.id.description());
        let _ = writeln!(out, "| check | result | evidence |");
        let _ = writeln!(out, "|---|---|---|");
        for c in &r.checks {
            let _ = writeln!(
                out,
                "| {} | {} | {} |",
                c.name,
                if c.pass { "PASS" } else { "**FAIL**" },
                c.detail
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "Series maxima:");
        for s in &r.dataset.series {
            let _ = writeln!(out, "* {}: max y = {:.3}", s.label, s.y_max());
        }
        if let Some(c) = &r.cache {
            let _ = writeln!(
                out,
                "\nCell cache: {} hits, {} misses, {} joined in-flight",
                c.hits, c.misses, c.joined
            );
        }
        if let Some(p) = &r.csv_path {
            let _ = writeln!(out, "\nData: `{}`", p.display());
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod markdown_tests {
    use super::*;

    #[test]
    fn markdown_report_includes_all_sections() {
        let reports = run_figures(&[FigureId::Fig13], Fidelity::quick(), None).expect("fig13 runs");
        let md = markdown_report(&reports);
        assert!(md.contains("# COMB evaluation record"));
        assert!(md.contains("## fig13"));
        assert!(md.contains("| check | result |"));
        assert!(md.contains("PASS"));
        assert!(md.contains("Work with MH"));
    }
}
