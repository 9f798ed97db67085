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

use crate::cache::{run_cell_cached, CellCache, CellMethod};
use crate::codec::PointSample;
use crate::error::CombError;
use crate::runner::pool::{run_cells, CellOutcome, RetryPolicy};
use crate::stats::{StopDecision, StoppingRule, Welford};
use crate::sweep::MethodConfig;
use comb_hw::{HwConfig, PerturbPlan};
use comb_sim::SimTime;
use comb_trace::{Comp, TraceEvent, Tracer};
use std::sync::atomic::AtomicUsize;
use std::time::Instant;

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

/// One sweep cell of an adaptive campaign: everything needed to run any
/// replicate of it. `hw` must be the caller-resolved hardware (fault plan
/// applied), exactly as [`run_cell_cached`] expects.
#[derive(Debug, Clone)]
pub struct AdaptiveCell {
    /// Resolved base hardware (replicate 0 runs on exactly this).
    pub hw: HwConfig,
    /// Method configuration of the cell's sweep.
    pub cfg: MethodConfig,
    /// Which method the cell runs.
    pub method: CellMethod,
    /// The cell's x-axis value (poll interval or work interval).
    pub x: u64,
}

/// One cell's finished estimate: every replicate sample in replicate
/// order, plus how the stopping rule settled it.
#[derive(Debug, Clone)]
pub struct CellEstimate {
    /// Replicate samples, index `r` produced by replicate `r`.
    pub samples: Vec<PointSample>,
    /// True if the CI target was met; false if the replicate cap stopped
    /// the cell first.
    pub converged: bool,
}

impl CellEstimate {
    /// Streaming accumulator over a derived metric of the samples, for
    /// interval estimation (`welford(|s| s.availability())`).
    pub fn welford(&self, metric: impl Fn(&PointSample) -> f64) -> Welford {
        let mut w = Welford::new();
        for s in &self.samples {
            w.push(metric(s));
        }
        w
    }
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

/// Run an adaptive campaign over `cells`, returning one [`CellEstimate`]
/// per cell (input order) and the pass's [`AdaptiveStats`].
///
/// `stop_after` caps the replicates this pass may compute fresh; past it
/// the pass returns [`crate::ErrorKind::Interrupted`] with every finished
/// replicate already in `cache` (the deterministic interruption hook of
/// the resume tests, see [`run_cell_cached`]). `None` runs to completion.
pub fn run_adaptive_cells(
    jobs: usize,
    cells: &[AdaptiveCell],
    params: AdaptiveParams,
    cache: Option<&CellCache>,
    tracer: &Tracer,
    policy: RetryPolicy,
    stop_after: Option<usize>,
) -> Result<(Vec<CellEstimate>, AdaptiveStats), CombError> {
    let rule = params.rule();
    let perturb = params.perturb();
    let budget = stop_after.map(AtomicUsize::new);
    let n = cells.len();
    // Replicate trace events carry wall-clock-offset times like the cell
    // cache's do: these are campaign-level events, not simulation events.
    let epoch = Instant::now();
    let now = |epoch: &Instant| {
        SimTime::from_nanos(epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    };

    let mut acc: Vec<Welford> = vec![Welford::new(); n];
    let mut samples: Vec<Vec<PointSample>> = vec![Vec::new(); n];
    // `Some(converged)` once the stopping rule has settled the cell.
    let mut settled: Vec<Option<bool>> = vec![None; n];
    let mut stats = AdaptiveStats {
        cells: n,
        ..AdaptiveStats::default()
    };

    // Rounds are indexed globally: replicate `r` of every open cell runs
    // in round `r`.
    let mut round: u32 = 0;
    loop {
        // Settle what the rule has decided; collect this round's
        // replicates, in input order.
        let mut work: Vec<usize> = Vec::new();
        for ci in 0..n {
            if settled[ci].is_some() {
                continue;
            }
            match rule.decide(&acc[ci]) {
                StopDecision::Continue => work.push(ci),
                decision => {
                    let converged = decision == StopDecision::Converged;
                    settled[ci] = Some(converged);
                    if converged {
                        stats.converged += 1;
                    } else {
                        stats.capped += 1;
                    }
                    tracer.emit(now(&epoch), Comp::Adaptive, || TraceEvent::CellSettled {
                        replicates: samples[ci].len() as u32,
                        converged,
                    });
                }
            }
        }
        if work.is_empty() {
            break;
        }

        let outcomes = run_cells(jobs, &work, policy, |&ci, attempt| {
            let cell = &cells[ci];
            // Retries reseed the fault plan (the established per-attempt
            // idiom) *before* perturbation, so the replicate's noise spec
            // survives and the cache key covers the reseeded plan.
            let mut cfg = cell.cfg.clone();
            let mut base = cell.hw.clone();
            if attempt > 0 {
                cfg.fault = cfg.fault.for_attempt(attempt);
                cfg.fault.apply_to(&mut base);
            }
            let hw = perturb.hw_for_replicate(&base, round);
            let (sample, _) =
                run_cell_cached(cache, &hw, &cfg, cell.method, cell.x, budget.as_ref(), None)
                    .map_err(|e| {
                        CombError::from(e).with_cell(format!("cell {ci} @ x={} r{round}", cell.x))
                    })?;
            Ok(sample)
        });

        // Coordinator-ordered fold: the first failure by input index is
        // returned, whatever the worker scheduling.
        for (&ci, outcome) in work.iter().zip(outcomes) {
            match outcome {
                CellOutcome::Done { value, .. } => {
                    stats.replicates += 1;
                    tracer.emit(now(&epoch), Comp::Adaptive, || TraceEvent::ReplicateDone {
                        replicate: round,
                    });
                    acc[ci].push(value.availability());
                    samples[ci].push(value);
                }
                CellOutcome::Failed { error, .. } => return Err(error),
            }
        }
        round += 1;
    }

    let estimates = samples
        .into_iter()
        .zip(settled)
        .map(|(samples, s)| CellEstimate {
            samples,
            converged: s.unwrap_or_else(|| unreachable!("loop exits only when all cells settle")),
        })
        .collect();
    Ok((estimates, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheMode;
    use crate::sweep::Transport;

    fn smoke_cfg(transport: Transport) -> MethodConfig {
        let mut cfg = MethodConfig::new(transport, 100 * 1024);
        cfg.cycles = 2;
        cfg.target_iters = 500_000;
        cfg.max_intervals = 1_000;
        cfg
    }

    fn cell(transport: Transport, x: u64) -> AdaptiveCell {
        let cfg = smoke_cfg(transport);
        AdaptiveCell {
            hw: cfg.resolved_hw(),
            cfg,
            method: CellMethod::Polling,
            x,
        }
    }

    fn run(
        jobs: usize,
        cells: &[AdaptiveCell],
        params: AdaptiveParams,
        cache: Option<&CellCache>,
        stop_after: Option<usize>,
    ) -> Result<(Vec<CellEstimate>, AdaptiveStats), CombError> {
        run_adaptive_cells(
            jobs,
            cells,
            params,
            cache,
            &Tracer::default(),
            RetryPolicy::none(),
            stop_after,
        )
    }

    fn assert_same(a: &[CellEstimate], b: &[CellEstimate]) {
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(b) {
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.converged, b.converged);
        }
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
        assert_same(&e1, &e4);
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
        assert_eq!(est[0].samples.len(), 2, "loose target stops at the floor");
        assert!(est[0].converged);
        assert_eq!(stats.converged, 1);
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
        assert_eq!(est[0].samples[0], plain);

        // An unreachable target runs to the cap instead (on a cell whose
        // availability actually varies under perturbation: a short poll
        // interval keeps the worker timing-sensitive).
        let cells = [cell(Transport::Portals, 1_000)];
        let capped = AdaptiveParams {
            ci_target: 0.0,
            ..params
        };
        let (est, stats) = run(0, &cells, capped, None, None).unwrap();
        assert_eq!(est[0].samples.len(), 6);
        assert!(!est[0].converged);
        assert_eq!(stats.capped, 1);
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
        assert_same(&est, &full);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
