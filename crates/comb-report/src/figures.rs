//! Definitions of every data figure in the paper's evaluation (Figures
//! 4–17; Figures 1–3 are method diagrams) and the code that regenerates
//! them on the simulated platforms.

use crate::series::{CiBand, Dataset, Series};
pub use comb_core::CacheCounts;
use comb_core::{
    lin_spaced, log_spaced, mean_ci, run_adaptive_cells, AdaptiveParams, AdaptiveStats,
    CampaignDesc, CampaignSpec, CellCache, CellMethod, CombError, MethodConfig, PointSample,
    PollingSample, PwwSample, Transport, Welford, PAPER_SIZES,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// The paper's data figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum FigureId {
    Fig04,
    Fig05,
    Fig06,
    Fig07,
    Fig08,
    Fig09,
    Fig10,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Fig17,
}

impl FigureId {
    /// All data figures, in paper order.
    pub const ALL: [FigureId; 14] = [
        FigureId::Fig04,
        FigureId::Fig05,
        FigureId::Fig06,
        FigureId::Fig07,
        FigureId::Fig08,
        FigureId::Fig09,
        FigureId::Fig10,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
        FigureId::Fig14,
        FigureId::Fig15,
        FigureId::Fig16,
        FigureId::Fig17,
    ];

    /// The paper's caption, abbreviated.
    pub fn title(self) -> &'static str {
        match self {
            FigureId::Fig04 => "Polling Method: CPU Availability (Portals)",
            FigureId::Fig05 => "Polling Method: Bandwidth (Portals)",
            FigureId::Fig06 => "PWW Method: CPU Availability (Portals)",
            FigureId::Fig07 => "PWW Method: Bandwidth (Portals)",
            FigureId::Fig08 => "Polling Method: Bandwidth for GM and Portals",
            FigureId::Fig09 => "PWW Method: Bandwidth for GM and Portals",
            FigureId::Fig10 => "PWW Method: Average Post Time (100 KB)",
            FigureId::Fig11 => "PWW Method: Average Wait Time (100 KB)",
            FigureId::Fig12 => "PWW Method: CPU Overhead for Portals",
            FigureId::Fig13 => "PWW Method: CPU Overhead for GM",
            FigureId::Fig14 => "Polling Method: Bandwidth vs CPU Availability (GM)",
            FigureId::Fig15 => "Polling Method: Bandwidth vs CPU Availability (Portals)",
            FigureId::Fig16 => "Polling and PWW Methods: Bandwidth vs Availability (GM)",
            FigureId::Fig17 => "Polling and Modified PWW: Bandwidth vs Availability (GM)",
        }
    }

    /// What the figure demonstrates (paper Section 4).
    pub fn description(self) -> &'static str {
        match self {
            FigureId::Fig04 => {
                "Availability stays low while interrupts process messages, then rises \
                 steeply once the poll interval is long enough to stall the flow."
            }
            FigureId::Fig05 => {
                "Bandwidth plateaus at the sustained maximum, then declines steeply when \
                 all in-flight messages complete within one poll interval."
            }
            FigureId::Fig06 => {
                "No initial plateau: the PWW wait-regardless semantics suppress apparent \
                 availability until the work interval fills the delay."
            }
            FigureId::Fig07 => "Bandwidth declines more gradually with work interval than polling.",
            FigureId::Fig08 => "GM's OS-bypass beats interrupt-driven Portals on raw bandwidth.",
            FigureId::Fig09 => "GM also wins under PWW at small work intervals.",
            FigureId::Fig10 => {
                "Posting is far cheaper on GM than through Portals' kernel crossing."
            }
            FigureId::Fig11 => {
                "The application-offload detector: Portals' wait vanishes for long work \
                 intervals; GM's wait stays at the transfer time."
            }
            FigureId::Fig12 => {
                "Portals: work with message handling exceeds work alone — interrupt \
                 overhead dilates the work phase."
            }
            FigureId::Fig13 => "GM: no overhead — the two work curves coincide.",
            FigureId::Fig14 => {
                "GM sustains peak bandwidth at high availability (true overlap), except \
                 the 10 KB curve, dragged down by the 45 us small-message send path."
            }
            FigureId::Fig15 => "Portals only reaches peak bandwidth at low availability.",
            FigureId::Fig16 => {
                "Under PWW, GM loses bandwidth at much lower availability than under \
                 polling — library progress needs the application's calls."
            }
            FigureId::Fig17 => {
                "One MPI_Test inside the work phase extends GM's PWW bandwidth into \
                 higher availability."
            }
        }
    }

    /// Stable lowercase id ("fig04").
    pub fn id(self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for FigureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = match self {
            FigureId::Fig04 => 4,
            FigureId::Fig05 => 5,
            FigureId::Fig06 => 6,
            FigureId::Fig07 => 7,
            FigureId::Fig08 => 8,
            FigureId::Fig09 => 9,
            FigureId::Fig10 => 10,
            FigureId::Fig11 => 11,
            FigureId::Fig12 => 12,
            FigureId::Fig13 => 13,
            FigureId::Fig14 => 14,
            FigureId::Fig15 => 15,
            FigureId::Fig16 => 16,
            FigureId::Fig17 => 17,
        };
        write!(f, "fig{n:02}")
    }
}

impl FromStr for FigureId {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_lowercase();
        let norm = norm
            .strip_prefix("fig")
            .or_else(|| norm.strip_prefix("figure"))
            .unwrap_or(&norm)
            .trim_matches(|c: char| !c.is_ascii_digit());
        let n: u32 = norm.parse().map_err(|_| format!("unknown figure '{s}'"))?;
        FigureId::ALL
            .iter()
            .copied()
            .find(|f| f.id() == format!("fig{n:02}"))
            .ok_or_else(|| format!("no data figure {n} (the paper's data figures are 4..17)"))
    }
}

/// Sweep density / run length, trading accuracy for wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fidelity {
    /// Sweep points per decade of the x axis.
    pub per_decade: u32,
    /// PWW cycles averaged per point.
    pub cycles: u64,
    /// Polling: target total work iterations per point.
    pub target_iters: u64,
    /// Polling: cap on poll intervals per point.
    pub max_intervals: u64,
    /// Worker threads for campaign execution (`0` = auto: the available
    /// parallelism). Does not affect results, only wall time.
    pub jobs: usize,
    /// Kernel shards per simulation (`0` and `1` both mean the serial
    /// kernel). Like `jobs` this cannot affect results — the
    /// sharded kernel's epoch merge reproduces the serial event order —
    /// so it is excluded from cache identity.
    pub shards: usize,
    /// Adaptive replicate sampling: when set, campaigns run each cell
    /// until the CI target is met (or the cap), and exports carry CI
    /// bands. `None` (the default) runs each cell once, as replicate 0
    /// under a cap of one: the same bytes and cache entries as a cap of
    /// one. Replicates past the first run perturbed hardware, so they
    /// have cache keys of their own.
    pub adaptive: Option<AdaptiveParams>,
}

impl Fidelity {
    /// Minimal preset for CI and byte-identity checks (coarsest sweeps
    /// that still exercise every figure's code path).
    pub fn smoke() -> Fidelity {
        Fidelity {
            per_decade: 1,
            cycles: 2,
            target_iters: 500_000,
            max_intervals: 1_000,
            jobs: 0,
            shards: 0,
            adaptive: None,
        }
    }

    /// Fast preset for tests and smoke runs (a full evaluation in seconds).
    pub fn quick() -> Fidelity {
        Fidelity {
            per_decade: 2,
            cycles: 6,
            target_iters: 2_000_000,
            max_intervals: 4_000,
            jobs: 0,
            shards: 0,
            adaptive: None,
        }
    }

    /// Paper-density preset (a full evaluation in a couple of minutes).
    pub fn paper() -> Fidelity {
        Fidelity {
            per_decade: 3,
            cycles: 12,
            target_iters: 8_000_000,
            max_intervals: 20_000,
            jobs: 0,
            shards: 0,
            adaptive: None,
        }
    }

    /// This fidelity with a specific worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Fidelity {
        self.jobs = jobs;
        self
    }

    /// This fidelity with a specific kernel shard count.
    pub fn with_shards(mut self, shards: usize) -> Fidelity {
        self.shards = shards;
        self
    }

    /// This fidelity with adaptive replicate sampling enabled.
    pub fn with_adaptive(mut self, params: AdaptiveParams) -> Fidelity {
        self.adaptive = Some(params);
        self
    }

    fn method_config(&self, transport: Transport, size: u64) -> MethodConfig {
        let mut cfg = MethodConfig::new(transport, size);
        cfg.cycles = self.cycles;
        cfg.target_iters = self.target_iters;
        cfg.max_intervals = self.max_intervals;
        cfg.jobs = self.jobs;
        cfg.shards = self.shards;
        cfg
    }
}

/// The paper's x-axis ranges, in loop iterations.
const POLL_RANGE: (u64, u64) = (10, 100_000_000);
const PWW_RANGE: (u64, u64) = (10_000, 10_000_000);
/// Figures 12/13 use a linear axis to 500k iterations.
const OVERHEAD_RANGE: (u64, u64) = (25_000, 500_000);
const OVERHEAD_POINTS: usize = 8;

/// One sweep campaign a figure depends on. Several figures share a
/// campaign (e.g. Figures 4, 5 and 15 all need the Portals polling sweep),
/// so planning dedups on this key before any simulation runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CampaignKey {
    /// Polling-method sweep over the poll interval.
    Polling {
        /// Platform name (campaigns are keyed by resolved platform).
        platform: String,
        /// Message size in bytes.
        msg_bytes: u64,
    },
    /// PWW-method sweep over the work interval.
    Pww {
        /// Platform name.
        platform: String,
        /// Message size in bytes.
        msg_bytes: u64,
        /// Section 4.3 modified variant (one `MPI_Test` in the work phase).
        test_in_work: bool,
    },
    /// Figures 12/13 linear-axis overhead sweep (PWW at 100 KB).
    Overhead {
        /// Platform name.
        platform: String,
    },
}

/// The campaigns a figure's data comes from.
pub fn required_campaigns(id: FigureId) -> Vec<CampaignKey> {
    let kb100 = 100 * 1024;
    let polling = |t: &Transport, size| CampaignKey::Polling {
        platform: t.name(),
        msg_bytes: size,
    };
    let pww = |t: &Transport, size, test| CampaignKey::Pww {
        platform: t.name(),
        msg_bytes: size,
        test_in_work: test,
    };
    match id {
        FigureId::Fig04 | FigureId::Fig05 => PAPER_SIZES
            .iter()
            .map(|&s| polling(&Transport::Portals, s))
            .collect(),
        FigureId::Fig06 | FigureId::Fig07 => PAPER_SIZES
            .iter()
            .map(|&s| pww(&Transport::Portals, s, false))
            .collect(),
        FigureId::Fig08 => vec![
            polling(&Transport::Gm, kb100),
            polling(&Transport::Portals, kb100),
        ],
        FigureId::Fig09 | FigureId::Fig10 | FigureId::Fig11 => vec![
            pww(&Transport::Gm, kb100, false),
            pww(&Transport::Portals, kb100, false),
        ],
        FigureId::Fig12 => vec![CampaignKey::Overhead {
            platform: Transport::Portals.name(),
        }],
        FigureId::Fig13 => vec![CampaignKey::Overhead {
            platform: Transport::Gm.name(),
        }],
        FigureId::Fig14 => PAPER_SIZES
            .iter()
            .map(|&s| polling(&Transport::Gm, s))
            .collect(),
        FigureId::Fig15 => PAPER_SIZES
            .iter()
            .map(|&s| polling(&Transport::Portals, s))
            .collect(),
        FigureId::Fig16 => vec![
            polling(&Transport::Gm, kb100),
            pww(&Transport::Gm, kb100, false),
        ],
        FigureId::Fig17 => vec![
            polling(&Transport::Gm, kb100),
            pww(&Transport::Gm, kb100, true),
            pww(&Transport::Gm, kb100, false),
        ],
    }
}

/// Resolve a campaign key's platform name back to a preset transport.
/// Custom transports never appear in figure campaigns, so presets suffice.
fn preset_transport(platform: &str) -> Transport {
    match platform {
        "GM" => Transport::Gm,
        "Portals" => Transport::Portals,
        "EMP" => Transport::Emp,
        other => unreachable!("figure campaigns only use preset platforms, got {other}"),
    }
}

/// A planned campaign: its config resolved once, its x axis materialized.
struct PlannedCampaign {
    key: CampaignKey,
    cfg: MethodConfig,
    hw: comb_hw::HwConfig,
    xs: Vec<u64>,
}

impl PlannedCampaign {
    /// The cell-cache method tag for this campaign's points.
    fn cell_method(&self) -> CellMethod {
        match self.key {
            CampaignKey::Polling { .. } => CellMethod::Polling,
            CampaignKey::Pww { test_in_work, .. } => CellMethod::Pww { test_in_work },
            CampaignKey::Overhead { .. } => CellMethod::Pww {
                test_in_work: false,
            },
        }
    }
}

/// Caches sweep results so figures sharing a campaign run it once.
///
/// Two ways to fill the cache:
/// * [`Campaigns::prepare`] — the plan → execute path: collect every
///   campaign the requested figures need, dedup, and run all their cells
///   through one pool pass of [`run_adaptive_cells`]. This keeps all
///   cores busy across campaign boundaries instead of parallelizing (or
///   serializing) one sweep at a time.
/// * [`generate`] itself — it prepares whatever campaigns its figure
///   still needs through the same path, so it works standalone too.
pub struct Campaigns {
    fidelity: Fidelity,
    // Each campaign is a Vec over x-axis points; each point a Vec over
    // replicates. A plain campaign stores singletons: it is the
    // one-replicate case of the adaptive one.
    done: HashMap<CampaignKey, Vec<Vec<PointSample>>>,
    /// Optional content-addressed cell cache; when set, every cell
    /// resolves through it (identical cells dedup in-process via
    /// single-flight and across runs via the disk store).
    cell_cache: Option<Arc<CellCache>>,
    /// Cache activity per campaign, accumulated by the prepare passes.
    cache_log: HashMap<CampaignKey, CacheCounts>,
    /// Fresh cells the passes may still compute; `None` is unlimited.
    budget: Option<AtomicUsize>,
}

impl Campaigns {
    /// Empty cache at the given fidelity.
    pub fn new(fidelity: Fidelity) -> Campaigns {
        Campaigns {
            fidelity,
            done: HashMap::new(),
            cell_cache: None,
            cache_log: HashMap::new(),
            budget: None,
        }
    }

    /// Let the prepare passes compute at most `fresh_cells` cells, then
    /// fail with [`comb_core::ErrorKind::Interrupted`]. Every cell is
    /// stored in the cell cache as it finishes, so exactly that many
    /// entries are persisted and rerunning resumes from them: the
    /// deterministic interruption hook of the resume tests.
    #[doc(hidden)]
    pub fn set_budget(&mut self, fresh_cells: usize) {
        self.budget = Some(AtomicUsize::new(fresh_cells));
    }

    /// Route every prepared cell through a content-addressed cache.
    /// Results are unchanged — cached campaigns export byte-identically —
    /// only wall time and the per-figure cache tallies differ.
    pub fn set_cache(&mut self, cache: Arc<CellCache>) {
        self.cell_cache = Some(cache);
    }

    /// Cache activity attributed to one figure: the sum over its required
    /// campaigns of the tallies recorded while preparing them. `None`
    /// when no cache is attached; campaigns shared between figures count
    /// toward each figure that needs them.
    pub fn figure_cache_counts(&self, id: FigureId) -> Option<CacheCounts> {
        self.cell_cache.as_ref()?;
        let mut total = CacheCounts::default();
        for key in required_campaigns(id) {
            if let Some(c) = self.cache_log.get(&key) {
                total.add(*c);
            }
        }
        Some(total)
    }

    /// The campaigns `ids` need that are not in the cache yet, deduped,
    /// in first-need order.
    pub fn plan(&self, ids: &[FigureId]) -> Vec<CampaignKey> {
        let mut seen = HashSet::new();
        let mut ordered = Vec::new();
        for &id in ids {
            for key in required_campaigns(id) {
                if self.done.contains_key(&key) || !seen.insert(key.clone()) {
                    continue;
                }
                ordered.push(key);
            }
        }
        ordered
    }

    /// The canonical description of every cell [`Campaigns::prepare`]
    /// would resolve for `ids`, in plan order: what their cache keys hash.
    pub fn cell_descs(&self, ids: &[FigureId]) -> Vec<String> {
        let mut descs = Vec::new();
        for key in self.plan(ids) {
            let pc = self.plan_campaign(key);
            let (shared, method) = (CampaignDesc::new(&pc.hw, &pc.cfg), pc.cell_method());
            descs.extend(pc.xs.iter().map(|&x| shared.cell(method, x)));
        }
        descs
    }

    fn plan_campaign(&self, key: CampaignKey) -> PlannedCampaign {
        let f = &self.fidelity;
        let (cfg, xs) = match &key {
            CampaignKey::Polling {
                platform,
                msg_bytes,
            } => (
                f.method_config(preset_transport(platform), *msg_bytes),
                log_spaced(POLL_RANGE.0, POLL_RANGE.1, f.per_decade),
            ),
            CampaignKey::Pww {
                platform,
                msg_bytes,
                ..
            } => (
                f.method_config(preset_transport(platform), *msg_bytes),
                log_spaced(PWW_RANGE.0, PWW_RANGE.1, f.per_decade),
            ),
            CampaignKey::Overhead { platform } => (
                f.method_config(preset_transport(platform), 100 * 1024),
                lin_spaced(OVERHEAD_RANGE.0, OVERHEAD_RANGE.1, OVERHEAD_POINTS),
            ),
        };
        let hw = cfg.transport.config();
        PlannedCampaign { key, cfg, hw, xs }
    }

    /// Plan → execute: sweep every campaign the given figures need that is
    /// not already cached, running *all* of their cells through one
    /// shared worker pool ([`Fidelity::jobs`] workers, `0` = auto) under
    /// the stopping rule of [`Fidelity::adaptive`]; without it each cell
    /// runs once. Each cell's replicate list feeds the CI band its series
    /// point gets.
    ///
    /// Results land in per-campaign input order, so datasets are
    /// byte-identical whichever figures were prepared together and at any
    /// job count.
    pub fn prepare(&mut self, ids: &[FigureId]) -> Result<AdaptiveStats, CombError> {
        let plan: Vec<PlannedCampaign> = self
            .plan(ids)
            .into_iter()
            .map(|key| self.plan_campaign(key))
            .collect();
        let specs: Vec<CampaignSpec> = plan
            .iter()
            .map(|pc| CampaignSpec {
                hw: &pc.hw,
                cfg: &pc.cfg,
                method: pc.cell_method(),
                xs: &pc.xs,
            })
            .collect();
        // A plain campaign is replicate 0 under a cap of one.
        let params = self.fidelity.adaptive.unwrap_or(AdaptiveParams::new(1));
        let (estimates, stats) = run_adaptive_cells(
            self.fidelity.jobs,
            &specs,
            params,
            self.cell_cache.as_deref(),
            self.budget.as_ref(),
        )?;
        for (pc, est) in plan.into_iter().zip(estimates) {
            self.cache_log
                .entry(pc.key.clone())
                .or_default()
                .add(est.cache);
            self.done.insert(pc.key, est.cells);
        }
        Ok(stats)
    }

    fn polling(&self, t: &Transport, size: u64) -> &[Vec<PointSample>] {
        &self.done[&CampaignKey::Polling {
            platform: t.name(),
            msg_bytes: size,
        }]
    }

    fn pww(&self, t: &Transport, size: u64, test_in_work: bool) -> &[Vec<PointSample>] {
        &self.done[&CampaignKey::Pww {
            platform: t.name(),
            msg_bytes: size,
            test_in_work,
        }]
    }

    fn overhead(&self, t: &Transport) -> &[Vec<PointSample>] {
        &self.done[&CampaignKey::Overhead { platform: t.name() }]
    }
}

fn size_label(size: u64) -> String {
    format!("{} KB", size / 1024)
}

/// Confidence level of the CI bands attached to replicate campaigns.
const BAND_CONFIDENCE: f64 = 0.95;

/// Build one series from replicate lists: each point's coordinates are
/// the means of `x`/`y` over that cell's replicates, and when *every*
/// cell has at least two replicates (an adaptive campaign above a cap of
/// one — the floor is then two) the series carries a 95% CI band on y. A
/// single-replicate cell feeds the mean untouched ([`Welford`] with
/// `n = 1` is bit-exact), so plain campaigns produce byte-identical
/// series with no bands.
fn replicate_series<T>(
    label: &str,
    cells: &[Vec<T>],
    x: impl Fn(&T) -> f64,
    y: impl Fn(&T) -> f64,
) -> Series {
    let mut s = Series::new(label, std::iter::empty::<(f64, f64)>());
    let banded = !cells.is_empty() && cells.iter().all(|reps| reps.len() >= 2);
    for reps in cells {
        let mut wx = Welford::new();
        let mut wy = Welford::new();
        for r in reps {
            wx.push(x(r));
            wy.push(y(r));
        }
        s.points.push(crate::series::Point {
            x: wx.mean(),
            y: wy.mean(),
        });
        if banded {
            if let Some(ci) = mean_ci(&wy, BAND_CONFIDENCE) {
                s.bands.push(CiBand {
                    lo: ci.lo(),
                    hi: ci.hi(),
                    n: ci.n,
                });
            }
        }
    }
    // A band for every point or none at all — a partially banded series
    // would desynchronize the CSV columns.
    if s.bands.len() != s.points.len() {
        s.bands.clear();
    }
    s
}

fn as_polling(p: &PointSample) -> &PollingSample {
    match p {
        PointSample::Polling(s) => s,
        PointSample::Pww(_) => unreachable!("polling campaign"),
    }
}

fn as_pww(p: &PointSample) -> &PwwSample {
    match p {
        PointSample::Pww(s) => s,
        PointSample::Polling(_) => unreachable!("pww campaign"),
    }
}

fn polling_series(
    label: &str,
    s: &[Vec<PointSample>],
    y: impl Fn(&PollingSample) -> f64,
) -> Series {
    replicate_series(
        label,
        s,
        |p| as_polling(p).poll_interval as f64,
        |p| y(as_polling(p)),
    )
}

fn pww_series(label: &str, s: &[Vec<PointSample>], y: impl Fn(&PwwSample) -> f64) -> Series {
    replicate_series(
        label,
        s,
        |p| as_pww(p).work_interval as f64,
        |p| y(as_pww(p)),
    )
}

fn avail_vs_bw_series(label: &str, s: &[Vec<PointSample>]) -> Series {
    replicate_series(
        label,
        s,
        PointSample::availability,
        PointSample::bandwidth_mbs,
    )
}

/// Regenerate one figure, reusing any sweeps already in `campaigns` and
/// preparing the rest.
pub fn generate(id: FigureId, campaigns: &mut Campaigns) -> Result<Dataset, CombError> {
    campaigns.prepare(&[id])?;
    let mut ds = Dataset {
        id: id.id(),
        title: id.title().to_string(),
        x_label: "Poll Interval (loop iterations)".into(),
        y_label: String::new(),
        log_x: true,
        series: Vec::new(),
    };
    let kb100 = 100 * 1024;
    match id {
        FigureId::Fig04 | FigureId::Fig05 => {
            ds.y_label = if id == FigureId::Fig04 {
                "CPU Availability (fraction to user)".into()
            } else {
                "Bandwidth (MB/s)".into()
            };
            for &size in &PAPER_SIZES {
                let s = campaigns.polling(&Transport::Portals, size);
                ds.series.push(if id == FigureId::Fig04 {
                    polling_series(&size_label(size), s, |p| p.availability)
                } else {
                    polling_series(&size_label(size), s, |p| p.bandwidth_mbs)
                });
            }
        }
        FigureId::Fig06 | FigureId::Fig07 => {
            ds.x_label = "Work Interval (loop iterations)".into();
            ds.y_label = if id == FigureId::Fig06 {
                "CPU Availability (fraction to user)".into()
            } else {
                "Bandwidth (MB/s)".into()
            };
            for &size in &PAPER_SIZES {
                let s = campaigns.pww(&Transport::Portals, size, false);
                ds.series.push(if id == FigureId::Fig06 {
                    pww_series(&size_label(size), s, |p| p.availability)
                } else {
                    pww_series(&size_label(size), s, |p| p.bandwidth_mbs)
                });
            }
        }
        FigureId::Fig08 => {
            ds.y_label = "Bandwidth (MB/s)".into();
            for t in [Transport::Gm, Transport::Portals] {
                let name = t.name();
                let s = campaigns.polling(&t, kb100);
                ds.series
                    .push(polling_series(&name, s, |p| p.bandwidth_mbs));
            }
        }
        FigureId::Fig09 | FigureId::Fig10 | FigureId::Fig11 => {
            ds.x_label = "Work Interval (loop iterations)".into();
            ds.y_label = match id {
                FigureId::Fig09 => "Bandwidth (MB/s)".into(),
                FigureId::Fig10 => "Time to Post (us)".into(),
                _ => "Time Per Message (us)".into(),
            };
            for t in [Transport::Gm, Transport::Portals] {
                let name = t.name();
                let s = campaigns.pww(&t, kb100, false);
                ds.series.push(match id {
                    FigureId::Fig09 => pww_series(&name, s, |p| p.bandwidth_mbs),
                    FigureId::Fig10 => pww_series(&name, s, |p| p.post_per_msg.as_micros_f64()),
                    _ => pww_series(&name, s, |p| p.wait_per_msg.as_micros_f64()),
                });
            }
        }
        FigureId::Fig12 | FigureId::Fig13 => {
            ds.x_label = "Work Interval (loop iterations)".into();
            ds.y_label = "Average Time Per Cycle (us)".into();
            ds.log_x = false;
            let t = if id == FigureId::Fig12 {
                Transport::Portals
            } else {
                Transport::Gm
            };
            let s = campaigns.overhead(&t);
            ds.series.push(pww_series("Work with MH", s, |p| {
                p.work_with_mh.as_micros_f64()
            }));
            ds.series
                .push(pww_series("Work Only", s, |p| p.work_only.as_micros_f64()));
        }
        FigureId::Fig14 | FigureId::Fig15 => {
            ds.x_label = "CPU Available to User (fraction of time)".into();
            ds.y_label = "Bandwidth (MB/s)".into();
            ds.log_x = false;
            let t = if id == FigureId::Fig14 {
                Transport::Gm
            } else {
                Transport::Portals
            };
            for &size in &PAPER_SIZES {
                let s = campaigns.polling(&t, size);
                ds.series.push(avail_vs_bw_series(&size_label(size), s));
            }
        }
        FigureId::Fig16 | FigureId::Fig17 => {
            ds.x_label = "CPU Available to User (fraction of time)".into();
            ds.y_label = "Bandwidth (MB/s)".into();
            ds.log_x = false;
            let poll = campaigns.polling(&Transport::Gm, kb100);
            ds.series.push(avail_vs_bw_series("Poll", poll));
            if id == FigureId::Fig17 {
                let tested = campaigns.pww(&Transport::Gm, kb100, true);
                ds.series.push(avail_vs_bw_series("PWW + Test", tested));
            }
            let pww = campaigns.pww(&Transport::Gm, kb100, false);
            ds.series.push(avail_vs_bw_series("PWW", pww));
        }
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_roundtrip_through_strings() {
        for id in FigureId::ALL {
            let s = id.id();
            assert_eq!(s.parse::<FigureId>().unwrap(), id);
        }
        assert_eq!("Figure 11".parse::<FigureId>().unwrap(), FigureId::Fig11);
        assert_eq!("5".parse::<FigureId>().unwrap(), FigureId::Fig05);
        assert!("fig03".parse::<FigureId>().is_err());
        assert!("banana".parse::<FigureId>().is_err());
    }

    #[test]
    fn titles_and_descriptions_are_nonempty() {
        for id in FigureId::ALL {
            assert!(!id.title().is_empty());
            assert!(!id.description().is_empty());
        }
    }

    #[test]
    fn fig12_generates_two_series_linear_axis() {
        let mut c = Campaigns::new(Fidelity::quick());
        let ds = generate(FigureId::Fig12, &mut c).unwrap();
        assert_eq!(ds.series.len(), 2);
        assert!(!ds.log_x);
        assert_eq!(ds.series[0].label, "Work with MH");
        assert!(ds.point_count() > 0);
    }

    #[test]
    fn campaigns_cache_is_shared_across_figures() {
        let mut c = Campaigns::new(Fidelity::quick());
        // Fig 13 and Fig 16 both need GM sweeps; fig13's overhead campaign
        // is distinct, but the polling campaign must be computed once.
        let _ = generate(FigureId::Fig13, &mut c).unwrap();
        let overhead_gm = CampaignKey::Overhead {
            platform: "GM".into(),
        };
        assert_eq!(c.done.keys().collect::<Vec<_>>(), [&overhead_gm]);
    }

    #[test]
    fn plan_dedups_campaigns_across_figures() {
        let c = Campaigns::new(Fidelity::smoke());
        // Figures 4 and 5 share all four Portals polling campaigns; 15
        // shares them too.
        let plan = c.plan(&[FigureId::Fig04, FigureId::Fig05, FigureId::Fig15]);
        assert_eq!(plan.len(), PAPER_SIZES.len());
        // The whole paper needs exactly these campaigns:
        // polling: Portals x4 sizes + GM x4 sizes (figs 8/16/17 reuse 100 KB)
        // pww: Portals x4 sizes + GM 100 KB plain + GM 100 KB test-in-work
        //      (fig 9-11's Portals 100 KB is one of the four sizes)
        // overhead: Portals, GM
        let full = c.plan(&FigureId::ALL);
        assert_eq!(full.len(), 8 + 6 + 2, "campaign plan: {full:?}");
    }

    #[test]
    fn prepare_fills_cache_and_generate_uses_it() {
        let mut c = Campaigns::new(Fidelity::smoke());
        c.prepare(&[FigureId::Fig12]).unwrap();
        let overhead_portals = CampaignKey::Overhead {
            platform: "Portals".into(),
        };
        assert_eq!(c.done.keys().collect::<Vec<_>>(), [&overhead_portals]);
        // Generating now must not add campaigns — the data is cached.
        let ds = generate(FigureId::Fig12, &mut c).unwrap();
        assert_eq!(ds.series.len(), 2);
        assert_eq!(c.done.keys().collect::<Vec<_>>(), [&overhead_portals]);
        // Re-planning the same figure is now a no-op.
        assert!(c.plan(&[FigureId::Fig12]).is_empty());
    }

    #[test]
    fn cached_prepare_is_byte_identical_and_warms() {
        let dir = std::env::temp_dir().join("comb_figures_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let ids = [FigureId::Fig13];

        let mut plain = Campaigns::new(Fidelity::smoke());
        plain.prepare(&ids).unwrap();
        let plain_csv = generate(FigureId::Fig13, &mut plain).unwrap().to_csv();
        assert!(
            plain.figure_cache_counts(FigureId::Fig13).is_none(),
            "no cache attached, no tallies"
        );

        let mut cold = Campaigns::new(Fidelity::smoke());
        cold.set_cache(Arc::new(CellCache::new(
            &dir,
            comb_core::CacheMode::ReadWrite,
        )));
        cold.prepare(&ids).unwrap();
        let cold_csv = generate(FigureId::Fig13, &mut cold).unwrap().to_csv();
        assert_eq!(plain_csv, cold_csv, "cached run must be byte-identical");
        let cold_counts = cold.figure_cache_counts(FigureId::Fig13).unwrap();
        assert_eq!(cold_counts.hits, 0);
        assert!(cold_counts.misses > 0);

        // A fresh process warms entirely from disk, byte-identically.
        let mut warm = Campaigns::new(Fidelity::smoke());
        warm.set_cache(Arc::new(CellCache::new(
            &dir,
            comb_core::CacheMode::ReadWrite,
        )));
        warm.prepare(&ids).unwrap();
        let warm_csv = generate(FigureId::Fig13, &mut warm).unwrap().to_csv();
        assert_eq!(plain_csv, warm_csv, "warm run must be byte-identical");
        let warm_counts = warm.figure_cache_counts(FigureId::Fig13).unwrap();
        assert_eq!(warm_counts.misses, 0, "fully warm");
        assert_eq!(warm_counts.hits, cold_counts.misses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_prepare_attaches_bands_and_stops_early() {
        let params = AdaptiveParams {
            replicates: 5,
            ci_target: 0.25,
            perturb_seed: 77,
        };
        let mut c = Campaigns::new(Fidelity::smoke().with_adaptive(params));
        let stats = c.prepare(&[FigureId::Fig13]).unwrap();
        assert!(stats.replicates >= 2 * stats.cells, "two-replicate floor");
        assert!(
            stats.replicates < 5 * stats.cells,
            "a loose CI target must settle some cells below the cap \
             ({} replicates over {} cells)",
            stats.replicates,
            stats.cells,
        );
        assert_eq!(stats.converged + stats.capped, stats.cells);
        let ds = generate(FigureId::Fig13, &mut c).unwrap();
        for s in &ds.series {
            assert_eq!(s.bands.len(), s.points.len(), "every point gets a band");
            for (p, b) in s.points.iter().zip(&s.bands) {
                assert!(b.lo <= p.y && p.y <= b.hi);
                assert!(b.n >= 2);
            }
        }
        assert!(ds.to_csv().starts_with("# fig13"));
        assert!(ds.to_csv().contains("series,x,y,y_lo,y_hi,n"));
    }

    #[test]
    fn standalone_generation_matches_prepared_generation() {
        let ids = [FigureId::Fig16, FigureId::Fig17];
        let mut standalone = Campaigns::new(Fidelity::smoke().with_jobs(1));
        let standalone_ds: Vec<_> = ids
            .iter()
            .map(|&i| generate(i, &mut standalone).unwrap())
            .collect();
        let mut prepped = Campaigns::new(Fidelity::smoke());
        prepped.prepare(&ids).unwrap();
        let prep_ds: Vec<_> = ids
            .iter()
            .map(|&i| generate(i, &mut prepped).unwrap())
            .collect();
        for (a, b) in standalone_ds.iter().zip(&prep_ds) {
            assert_eq!(a.to_csv(), b.to_csv(), "datasets diverge for {}", a.id);
        }
    }
}
