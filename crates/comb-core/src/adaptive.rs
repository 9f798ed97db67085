//! Adaptive replicate execution: run each sweep cell until its confidence
//! interval is tight enough, deterministically.
//!
//! A fixed replicate count wastes work on quiet cells and under-samples
//! noisy ones. The adaptive executor instead runs cells in *rounds*: every
//! round adds one replicate to every cell whose availability estimate has
//! not yet met the [`StoppingRule`] (relative CI half-width under the
//! target, between a floor of two replicates and a hard cap). Because the
//! decision for round `k+1` is a pure function of the samples from rounds
//! `0..=k` — and every replicate's result is a pure function of
//! `(cell, perturbation plan, replicate index)` via
//! [`comb_hw::PerturbPlan`] — the whole campaign is deterministic: same
//! inputs, same replicate schedule, same bytes, at any `--jobs`.
//!
//! Three properties the rest of the repo depends on:
//!
//! * **Cache keys are free.** Replicate `r` runs on
//!   [`PerturbPlan::hw_for_replicate`]`(base, r)`, whose `Debug` rendering
//!   differs per replicate, so the content-addressed cell cache
//!   automatically keys each `(cell, r)` distinctly — a warm rerun replays
//!   every replicate as a hit and never collapses two replicates into one
//!   entry.
//! * **Resuming is a warm rerun.** Every replicate is stored in the cell
//!   cache as it finishes. Because the schedule is a pure function of the
//!   samples, rerunning an interrupted campaign replays its finished
//!   replicates as hits, makes the same stopping decisions, and computes
//!   only the replicates that never finished.
//! * **Errors are deterministic.** Within a round, the lowest-input-index
//!   failure wins regardless of worker scheduling.
//!
//! It is the only executor of figure campaigns: a plain campaign is the
//! one-replicate case, replicate 0 under a cap of one, which runs the
//! unperturbed hardware under the cell key a plain run has always had.

use crate::cache::{run_cell_cached, CacheCounts, CampaignDesc, CellCache, CellMethod};
use crate::codec::PointSample;
use crate::error::CombError;
use crate::runner::pool::run_ordered;
use crate::stats::{StopDecision, StoppingRule, Welford};
use crate::sweep::MethodConfig;
use comb_hw::{HwConfig, PerturbPlan};
use std::borrow::Cow;
use std::sync::atomic::AtomicUsize;

/// The user-facing knobs of an adaptive campaign, as one value so the CLI
/// and the executor cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveParams {
    /// Hard cap on replicates per cell (the fixed-N budget the adaptive
    /// rule tries to beat).
    pub replicates: u32,
    /// Relative CI half-width target (e.g. `0.02` = ±2% of the mean).
    pub ci_target: f64,
    /// Root seed of the perturbation model.
    pub perturb_seed: u64,
}

// `ci_target` comes from CLI parsing which rejects non-finite values, so
// reflexivity holds and params can key derived-Eq containers.
impl Eq for AdaptiveParams {}

impl AdaptiveParams {
    /// Standard params: cap at `replicates`, stop at ±2% of the mean.
    pub fn new(replicates: u32) -> AdaptiveParams {
        AdaptiveParams {
            replicates,
            ci_target: 0.02,
            perturb_seed: comb_hw::DEFAULT_PERTURB_SEED,
        }
    }

    /// The stopping rule these params describe.
    pub fn rule(&self) -> StoppingRule {
        StoppingRule::new(self.replicates, self.ci_target)
    }

    /// The perturbation model these params describe.
    pub fn perturb(&self) -> PerturbPlan {
        PerturbPlan::new(self.perturb_seed)
    }
}

/// One campaign of an adaptive pass: the cells of one method on one
/// resolved hardware and config, one cell per x value. `hw` must be the
/// caller-resolved hardware (fault plan applied), exactly as
/// [`run_cell_cached`] expects.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec<'a> {
    /// Resolved base hardware (replicate 0 runs on exactly this).
    pub hw: &'a HwConfig,
    /// Method configuration of the campaign's sweep.
    pub cfg: &'a MethodConfig,
    /// Which method the cells run.
    pub method: CellMethod,
    /// The cells' x-axis values (poll or work intervals), in order.
    pub xs: &'a [u64],
}

/// One campaign's finished cells, in x order, and how the cell cache
/// answered its replicates.
#[derive(Debug, Clone)]
pub struct CampaignEstimate {
    /// One list of replicate samples per x value; sample `r` of a cell is
    /// its replicate `r`.
    pub cells: Vec<Vec<PointSample>>,
    /// Cache outcomes of every replicate of the campaign (all misses
    /// without a cache).
    pub cache: CacheCounts,
}

/// What an adaptive pass did, for progress lines and the savings report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Cells in the campaign.
    pub cells: usize,
    /// Total replicates across all cells. The cell cache's counters say
    /// how many of them were replayed rather than simulated.
    pub replicates: usize,
    /// Cells that met the CI target before the cap.
    pub converged: usize,
    /// Cells stopped by the replicate cap with the target unmet.
    pub capped: usize,
}

/// Run the cells of `campaigns` under the stopping rule of `params`,
/// returning one [`CampaignEstimate`] per campaign (input order) and the
/// pass's [`AdaptiveStats`]. Cells of every campaign share each round's
/// pool pass. With a cap of one replicate this is a plain campaign: each
/// cell runs once, unperturbed, under the key a plain run gives it.
///
/// The first failing cell of a round (lowest index) fails the pass, and
/// the round's unstarted cells are skipped. Above a cap of one the error
/// names the cell and replicate. `budget`, when set, is the number of
/// fresh cells left: past it the pass returns
/// [`crate::ErrorKind::Interrupted`] with every finished replicate already
/// in `cache` (the deterministic interruption hook of the resume tests,
/// see [`run_cell_cached`]).
pub fn run_adaptive_cells(
    jobs: usize,
    campaigns: &[CampaignSpec<'_>],
    params: AdaptiveParams,
    cache: Option<&CellCache>,
    budget: Option<&AtomicUsize>,
) -> Result<(Vec<CampaignEstimate>, AdaptiveStats), CombError> {
    let rule = params.rule();
    let perturb = params.perturb();
    // Every campaign's cells, campaign by campaign: cell `ci` is
    // `(campaign, x)`.
    let cells: Vec<(usize, u64)> = campaigns
        .iter()
        .enumerate()
        .flat_map(|(c, spec)| spec.xs.iter().map(move |&x| (c, x)))
        .collect();
    let n = cells.len();

    let mut acc: Vec<Welford> = vec![Welford::new(); n];
    let mut samples: Vec<Vec<PointSample>> = vec![Vec::new(); n];
    let mut tallies = vec![CacheCounts::default(); campaigns.len()];
    let mut stats = AdaptiveStats {
        cells: n,
        ..AdaptiveStats::default()
    };

    // Rounds are indexed globally: replicate `r` of every open cell runs
    // in round `r`. Every cell is open in round 0; after each replicate
    // the stopping rule settles the cell or keeps it open.
    let mut work: Vec<usize> = (0..n).collect();
    let mut round: u32 = 0;
    while !work.is_empty() {
        // This round's hardware for each campaign with open cells (the
        // base itself in round 0) and, only when a cache will hash it, the
        // description part its cells share: rendered once per campaign
        // and replicate.
        let mut shared: Vec<Option<(Cow<HwConfig>, Option<CampaignDesc>)>> =
            campaigns.iter().map(|_| None).collect();
        for &ci in &work {
            let c = cells[ci].0;
            shared[c].get_or_insert_with(|| {
                let hw = match round {
                    0 => Cow::Borrowed(campaigns[c].hw),
                    r => Cow::Owned(perturb.hw_for_replicate(campaigns[c].hw, r)),
                };
                let desc = cache.map(|_| CampaignDesc::new(&hw, campaigns[c].cfg));
                (hw, desc)
            });
        }
        let results = run_ordered(jobs, &work, |&ci| {
            let (c, x) = cells[ci];
            let spec = &campaigns[c];
            let (hw, desc) = shared[c]
                .as_ref()
                .unwrap_or_else(|| unreachable!("every campaign with work is rendered"));
            let ident = desc.as_ref().map(|d| d.ident(spec.method, x));
            let ident = ident.as_ref().map(|(desc, key)| (desc.as_str(), key));
            run_cell_cached(cache, hw, spec.cfg, spec.method, x, budget, ident).map_err(|e| {
                let e = CombError::from(e);
                if rule.max_replicates > 1 {
                    e.with_cell(format!("cell {ci} @ x={x} r{round}"))
                } else {
                    e
                }
            })
        })?;

        let mut open = Vec::new();
        for (&ci, (value, outcome)) in work.iter().zip(results) {
            stats.replicates += 1;
            tallies[cells[ci].0].record(outcome);
            acc[ci].push(value.availability());
            samples[ci].push(value);
            match rule.decide(&acc[ci]) {
                StopDecision::Continue => open.push(ci),
                StopDecision::Converged => stats.converged += 1,
                StopDecision::CapReached => stats.capped += 1,
            }
        }
        work = open;
        round += 1;
    }

    let mut samples = samples.into_iter();
    let campaigns = campaigns
        .iter()
        .zip(tallies)
        .map(|(spec, cache)| CampaignEstimate {
            cells: samples.by_ref().take(spec.xs.len()).collect(),
            cache,
        })
        .collect();
    Ok((campaigns, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheMode;
    use crate::runner::RunSpec;
    use crate::sweep::Transport;

    fn smoke_cfg(transport: Transport) -> MethodConfig {
        let mut cfg = MethodConfig::new(transport, 100 * 1024);
        cfg.cycles = 2;
        cfg.target_iters = 500_000;
        cfg.max_intervals = 1_000;
        cfg
    }

    /// One polling cell of a campaign of its own.
    struct Cell {
        hw: HwConfig,
        cfg: MethodConfig,
        xs: [u64; 1],
    }

    fn cell(transport: Transport, x: u64) -> Cell {
        let cfg = smoke_cfg(transport);
        Cell {
            hw: cfg.resolved_hw(),
            cfg,
            xs: [x],
        }
    }

    fn run(
        jobs: usize,
        cells: &[Cell],
        params: AdaptiveParams,
        cache: Option<&CellCache>,
        stop_after: Option<usize>,
    ) -> Result<(Vec<Vec<PointSample>>, AdaptiveStats), CombError> {
        let campaigns: Vec<CampaignSpec> = cells
            .iter()
            .map(|c| CampaignSpec {
                hw: &c.hw,
                cfg: &c.cfg,
                method: CellMethod::Polling,
                xs: &c.xs,
            })
            .collect();
        let budget = stop_after.map(AtomicUsize::new);
        let (campaigns, stats) =
            run_adaptive_cells(jobs, &campaigns, params, cache, budget.as_ref())?;
        Ok((campaigns.into_iter().flat_map(|c| c.cells).collect(), stats))
    }

    #[test]
    fn adaptive_campaign_is_identical_across_job_counts() {
        let cells = [cell(Transport::Gm, 10_000), cell(Transport::Portals, 1_000)];
        let params = AdaptiveParams {
            replicates: 4,
            ci_target: 0.05,
            perturb_seed: 11,
        };
        let (e1, s1) = run(1, &cells, params, None, None).unwrap();
        let (e4, s4) = run(4, &cells, params, None, None).unwrap();
        assert_eq!(s1, s4);
        assert_eq!(e1, e4);
    }

    #[test]
    fn stopping_rule_bounds_replicates_and_identity_replicate_leads() {
        let cells = [cell(Transport::Gm, 100_000)];
        let params = AdaptiveParams {
            replicates: 6,
            ci_target: 0.5, // loose: two replicates should settle it
            perturb_seed: 3,
        };
        let (est, stats) = run(0, &cells, params, None, None).unwrap();
        assert_eq!(est[0].len(), 2, "loose target stops at the floor");
        assert_eq!((stats.converged, stats.capped), (1, 0));
        // Replicate 0 is the unperturbed cell: same sample a plain sweep
        // produces.
        let (plain, _) = run_cell_cached(
            None,
            &cells[0].hw,
            &cells[0].cfg,
            CellMethod::Polling,
            100_000,
            None,
            None,
        )
        .unwrap();
        assert_eq!(est[0][0], plain);

        // An unreachable target runs to the cap instead (on a cell whose
        // availability actually varies under perturbation: a short poll
        // interval keeps the worker timing-sensitive).
        let cells = [cell(Transport::Portals, 1_000)];
        let capped = AdaptiveParams {
            ci_target: 0.0,
            ..params
        };
        let (est, stats) = run(0, &cells, capped, None, None).unwrap();
        assert_eq!(est[0].len(), 6);
        assert_eq!((stats.converged, stats.capped), (0, 1));
    }

    #[test]
    fn a_cap_of_one_is_the_plain_campaign() {
        let cells = [cell(Transport::Gm, 10_000), cell(Transport::Portals, 1_000)];
        let (est, stats) = run(2, &cells, AdaptiveParams::new(1), None, None).unwrap();
        assert_eq!((stats.replicates, stats.capped), (2, 2));
        for (e, c) in est.iter().zip(&cells) {
            let plain = CellMethod::Polling.run(&c.cfg, c.xs[0], &RunSpec::of(&c.cfg));
            assert_eq!(*e, [plain.unwrap().sample]);
        }
        // A plain campaign's error carries no cell or replicate tag.
        let err = run(2, &cells, AdaptiveParams::new(1), None, Some(0)).unwrap_err();
        assert_eq!(err.cell, None, "{err}");
        let err = run(2, &cells, AdaptiveParams::new(2), None, Some(0)).unwrap_err();
        assert_eq!(err.cell.as_deref(), Some("cell 0 @ x=10000 r0"), "{err}");
    }

    #[test]
    fn interrupt_and_rerun_replays_the_same_replicates() {
        let cells = [cell(Transport::Gm, 10_000), cell(Transport::Portals, 1_000)];
        let params = AdaptiveParams {
            replicates: 4,
            ci_target: 0.0, // force the cap: 8 replicates total
            perturb_seed: 7,
        };
        let (full, full_stats) = run(0, &cells, params, None, None).unwrap();
        assert_eq!(full_stats.replicates, 8);

        // Interrupt after 3 fresh replicates…
        let dir = std::env::temp_dir().join("comb_adaptive_unit_resume");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::new(&dir, CacheMode::ReadWrite);
        let err = run(2, &cells, params, Some(&cache), Some(3)).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::Interrupted);
        assert_eq!(cache.stats().stored, 3);

        // …then rerun against the same store: the 3 replay from disk.
        let cache = CellCache::new(&dir, CacheMode::ReadWrite);
        let (est, stats) = run(0, &cells, params, Some(&cache), None).unwrap();
        assert_eq!(
            cache.stats().hits_disk,
            3,
            "finished replicates are not re-run"
        );
        assert_eq!(cache.stats().misses, 5);
        assert_eq!(stats, full_stats);
        assert_eq!(est, full);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
