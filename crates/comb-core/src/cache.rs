//! Content-addressed sweep-cell result cache with single-flight
//! memoization.
//!
//! Every COMB sweep cell is a pure function of its simulated inputs: the
//! resolved hardware description, the method knobs, the fault plan (seed
//! included), the method variant, and the x value. [`cell_desc`] renders
//! those inputs as one canonical line, [`CellKey`] is its SHA-256
//! (`crate::sha256`, on the CPU's SHA instructions where it has them), and
//! [`CellCache`] memoizes cell results under that key in two tiers:
//!
//! * **In-process map with single-flight dedup** — the first request for
//!   a key computes (the *leader*); concurrent requests for the same key
//!   block on the leader's slot and join its result instead of
//!   recomputing. Completed results stay in the map, so repeated lookups
//!   within one campaign are O(1).
//! * **On-disk content-addressed store** — sharded `aa/bb/<hash>`
//!   entries under the cache directory, written through
//!   [`comb_trace::atomic_write_unsynced`]: a temp file with a name unique
//!   to the write (`.<hash>.<pid>.<n>.tmp`), renamed over the entry, with
//!   no fsync. Concurrent readers and writers, in one process or several,
//!   see an entry whole or not at all; a machine crash may lose or tear an
//!   unsynced entry, and that reads as a miss. Each entry carries a
//!   versioned header, the full canonical description, and an FNV-1a
//!   checksum of the payload; *any* mismatch (magic, version, key,
//!   description, checksum, parse, truncation) makes the entry a miss —
//!   the cell is recomputed and the entry atomically re-healed, never
//!   trusted and never fatal.
//!
//! Results are serialized through the exact-bit [`crate::codec`], so a
//! cache-restored sample is `==` to a recomputed one and cached campaigns
//! export byte-identically.
//!
//! The store is also how an interrupted campaign resumes: every cell is
//! written as it finishes, so rerunning the same command replays the
//! finished cells as disk hits and computes only the rest. Mixing runs at
//! different fidelities cannot happen, because every knob that changes a
//! result is part of the key.
//!
//! What the key deliberately **excludes**: `jobs` (worker count never
//! affects results) and the watchdog (supervision observes a run without
//! perturbing it).
//! Faulted retries key on the hardware the caller actually resolved, so
//! `FaultPlan::for_attempt` reseeding produces distinct keys per attempt.

use crate::codec::{self, PointSample};
use crate::polling::PollingParams;
use crate::pww::PwwParams;
use crate::runner::{run, RunError, RunSpec, TracedRun};
use crate::sha256::sha256_hex;
use crate::sweep::MethodConfig;
use comb_hw::HwConfig;
use comb_sim::SimTime;
use comb_trace::{atomic_write_unsynced, Comp, TraceEvent, Tracer};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Magic + version line opening every on-disk entry. Bump the version to
/// invalidate every existing entry (readers treat old versions as
/// misses).
const ENTRY_MAGIC: &str = "comb-cellcache v1";

/// Version token inside [`cell_desc`]; bump when the meaning of any
/// described field changes without its rendering changing.
const DESC_VERSION: &str = "comb-cell v1";

// --- canonical cell identity -------------------------------------------

/// Which benchmark method a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMethod {
    /// The polling method (x = poll interval).
    Polling,
    /// The post-work-wait method (x = work interval).
    Pww {
        /// The Section 4.3 modified variant with one `MPI_Test` in the
        /// work phase.
        test_in_work: bool,
    },
}

impl CellMethod {
    /// Run this method's point of `cfg` at `x`.
    pub fn run(
        self,
        cfg: &MethodConfig,
        x: u64,
        spec: &RunSpec,
    ) -> Result<TracedRun<PointSample>, RunError> {
        Ok(match self {
            CellMethod::Polling => {
                run(&PollingParams::new(cfg, x), spec)?.map(PointSample::Polling)
            }
            CellMethod::Pww { test_in_work } => {
                run(&PwwParams::new(cfg, x, test_in_work), spec)?.map(PointSample::Pww)
            }
        })
    }
}

impl fmt::Display for CellMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellMethod::Polling => f.write_str("polling"),
            CellMethod::Pww {
                test_in_work: false,
            } => f.write_str("pww"),
            CellMethod::Pww { test_in_work: true } => f.write_str("pww+test"),
        }
    }
}

/// Render a cell's exact simulated inputs as one canonical line.
///
/// The hardware description is the one the caller actually passes to the
/// runner (faults resolved, per-attempt reseeding applied), rendered via
/// `Debug` — any change to the hardware model's fields automatically
/// changes the description and therefore invalidates stale entries.
/// `jobs` and the watchdog are excluded on purpose (see module docs).
/// A caller describing many cells of one (hw, cfg) renders a
/// [`CampaignDesc`] once instead.
pub fn cell_desc(hw: &HwConfig, cfg: &MethodConfig, method: CellMethod, x: u64) -> String {
    CampaignDesc::new(hw, cfg).cell(method, x)
}

/// The part of [`cell_desc`] that every cell of one (hw, cfg) shares: the
/// method knobs, the fault plan and the hardware, which are most of the
/// line. Render it once per campaign; each cell then adds only its method
/// and x in front.
#[derive(Debug)]
pub struct CampaignDesc {
    tail: String,
}

impl CampaignDesc {
    /// Render the shared part for cells of `cfg` on `hw`.
    pub fn new(hw: &HwConfig, cfg: &MethodConfig) -> Self {
        CampaignDesc {
            tail: format!(
                " msg_bytes={} queue_depth={} batch={} cycles={} target_iters={} \
                 min_intervals={} max_intervals={} fault={:?} hw={:?}",
                cfg.msg_bytes,
                cfg.queue_depth,
                cfg.batch,
                cfg.cycles,
                cfg.target_iters,
                cfg.min_intervals,
                cfg.max_intervals,
                cfg.fault,
                hw,
            ),
        }
    }

    /// The canonical description of the cell at `x` run with `method`.
    pub fn cell(&self, method: CellMethod, x: u64) -> String {
        use std::fmt::Write;
        // The prefix is at most 51 bytes: `method=pww+test` and a
        // 20-digit x.
        let mut desc = String::with_capacity(64 + self.tail.len());
        let _ = write!(desc, "{DESC_VERSION} method={method} x={x}");
        desc.push_str(&self.tail);
        desc
    }

    /// The cell's description and its key, as [`run_cell_cached`] takes
    /// them.
    pub fn ident(&self, method: CellMethod, x: u64) -> (String, CellKey) {
        let desc = self.cell(method, x);
        let key = CellKey::from_desc(&desc);
        (desc, key)
    }
}

/// Content address of one sweep cell: the SHA-256 of its canonical
/// description, in lowercase hex.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    hex: String,
}

impl CellKey {
    /// Hash a canonical description produced by [`cell_desc`].
    pub fn from_desc(desc: &str) -> Self {
        CellKey {
            hex: sha256_hex(desc.as_bytes()),
        }
    }

    /// The 64-char lowercase hex digest.
    pub fn hex(&self) -> &str {
        &self.hex
    }

    /// The sharded on-disk path of this key's entry under `dir`:
    /// `dir/aa/bb/<hash>` where `aa`/`bb` are the first two hash bytes.
    pub fn entry_path(&self, dir: &Path) -> PathBuf {
        dir.join(&self.hex[0..2])
            .join(&self.hex[2..4])
            .join(&self.hex)
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex)
    }
}

// --- cache -------------------------------------------------------------

/// How the cache treats the disk tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Normal operation: read entries, write back misses.
    ReadWrite,
    /// `--cache-refresh`: never read, recompute every cell and overwrite
    /// its entry (repairs a store suspected stale without clearing it).
    Refresh,
}

/// How one cell request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Computed fresh (and written back).
    Miss,
    /// Served from the in-process map.
    HitMem,
    /// Served from the on-disk store.
    HitDisk,
    /// Joined an identical computation already in flight.
    Joined,
    /// No cache was configured for this run.
    Uncached,
}

impl CacheOutcome {
    /// True for both hit tiers.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::HitMem | CacheOutcome::HitDisk)
    }
}

/// Snapshot of a cache's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the in-process map.
    pub hits_mem: u64,
    /// Requests served from the on-disk store.
    pub hits_disk: u64,
    /// Requests computed fresh.
    pub misses: u64,
    /// Requests that joined an in-flight computation.
    pub joined: u64,
    /// Entries written to disk.
    pub stored: u64,
    /// Corrupt / version-skewed entries encountered (each also counted
    /// as a miss once recomputed).
    pub invalid: u64,
    /// Disk writes that failed (the result is still returned; the entry
    /// is simply not persisted).
    pub write_errors: u64,
}

impl CacheStats {
    /// Total requests resolved.
    pub fn lookups(&self) -> u64 {
        self.hits_mem + self.hits_disk + self.misses + self.joined
    }

    /// Requests served without a fresh simulation.
    pub fn hits(&self) -> u64 {
        self.hits_mem + self.hits_disk + self.joined
    }

    /// Fraction of requests served without a fresh simulation
    /// (1.0 for an idle cache, so an empty campaign reads as fully warm).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            1.0
        } else {
            self.hits() as f64 / n as f64
        }
    }
}

#[derive(Default)]
struct Counters {
    hits_mem: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    joined: AtomicU64,
    stored: AtomicU64,
    invalid: AtomicU64,
    write_errors: AtomicU64,
}

/// The longest a leader waits for its join quorum
/// ([`CellCache::set_join_quorum`]) before it goes ahead alone.
const JOIN_QUORUM_WAIT: std::time::Duration = std::time::Duration::from_secs(60);

// One slot exists per distinct in-flight or completed cell; the sample
// payload dominating the enum size is the point of the memo map, so the
// indirection a box would add buys nothing.
#[allow(clippy::large_enum_variant)]
enum SlotState {
    InFlight,
    Ready(PointSample),
    Failed,
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Callers that found this cell in flight and wait for it; changed
    /// only under `state`'s lock.
    joiners: AtomicUsize,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::InFlight),
            cv: Condvar::new(),
            joiners: AtomicUsize::new(0),
        }
    }
}

/// The two-tier memoization layer. Shared by reference across pool
/// workers; all methods take `&self`.
pub struct CellCache {
    dir: PathBuf,
    mode: CacheMode,
    inflight: Mutex<HashMap<String, Arc<Slot>>>,
    counters: Counters,
    tracer: Tracer,
    epoch: Instant,
    /// See [`CellCache::set_join_quorum`]; 0 when off.
    join_quorum: usize,
}

impl fmt::Debug for CellCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellCache")
            .field("dir", &self.dir)
            .field("mode", &self.mode)
            .field("stats", &self.stats())
            .finish()
    }
}

impl CellCache {
    /// A cache over the store at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        CellCache {
            dir: dir.into(),
            mode,
            inflight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            tracer: Tracer::new(),
            epoch: Instant::now(),
            join_quorum: 0,
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The disk-tier mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Attach a tracer; every resolved request then emits a
    /// [`TraceEvent::CacheLookup`] on the [`Comp::Cache`] lane,
    /// timestamped with the wall-clock offset from cache creation.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Make every leader wait, before it computes or reads its cell, until
    /// `n` other callers have joined it, or a minute passes.
    /// A test hook: it makes single-flight overlap deterministic however
    /// fast the cell computes. `0` (the default) turns it off.
    #[doc(hidden)]
    pub fn set_join_quorum(&mut self, n: usize) {
        self.join_quorum = n;
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            hits_mem: c.hits_mem.load(Ordering::Relaxed),
            hits_disk: c.hits_disk.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            joined: c.joined.load(Ordering::Relaxed),
            stored: c.stored.load(Ordering::Relaxed),
            invalid: c.invalid.load(Ordering::Relaxed),
            write_errors: c.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Cheap saturation-time probe: would this cell resolve without a
    /// fresh simulation? True when the in-process map holds a `Ready`
    /// result or an entry file exists on disk. Existence only — the disk
    /// entry is still fully validated at read time, so a corrupt entry
    /// probed as present simply becomes a miss later. Overload shedding
    /// uses this to prefer cached-hit requests without committing pool
    /// capacity.
    pub fn probe(&self, key: &CellKey) -> bool {
        {
            let map = self.inflight.lock().expect("cache map poisoned");
            if let Some(slot) = map.get(key.hex()) {
                if matches!(
                    &*slot.state.lock().expect("cache slot poisoned"),
                    SlotState::Ready(_)
                ) {
                    return true;
                }
            }
        }
        self.mode == CacheMode::ReadWrite && key.entry_path(&self.dir).exists()
    }

    /// Resolve one cell: return the cached result, join an identical
    /// in-flight computation, or run `compute` and persist its result.
    ///
    /// Errors are never cached: a failed leader wakes its waiters, the
    /// first of which retries as the new leader with its own `compute`.
    pub fn get_or_compute<F>(
        &self,
        desc: &str,
        key: &CellKey,
        compute: F,
    ) -> Result<(PointSample, CacheOutcome), RunError>
    where
        F: FnOnce() -> Result<PointSample, RunError>,
    {
        let mut compute = Some(compute);
        loop {
            let (slot, leader) = {
                let mut map = self.inflight.lock().expect("cache map poisoned");
                match map.get(key.hex()) {
                    Some(slot) => (Arc::clone(slot), false),
                    None => {
                        let slot = Arc::new(Slot::new());
                        map.insert(key.hex().to_string(), Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };

            if !leader {
                let mut waited = false;
                let mut state = slot.state.lock().expect("cache slot poisoned");
                loop {
                    match &*state {
                        SlotState::InFlight => {
                            if !waited {
                                waited = true;
                                slot.joiners.fetch_add(1, Ordering::Relaxed);
                                // Wake a leader waiting for its quorum.
                                slot.cv.notify_all();
                            }
                            state = slot.cv.wait(state).expect("cache slot poisoned");
                        }
                        SlotState::Ready(sample) => {
                            let sample = sample.clone();
                            drop(state);
                            let outcome = if waited {
                                CacheOutcome::Joined
                            } else {
                                CacheOutcome::HitMem
                            };
                            return Ok((sample, self.note(outcome)));
                        }
                        // The leader failed and removed the slot from the
                        // map; go around and race to become the new leader.
                        SlotState::Failed => break,
                    }
                }
                continue;
            }

            let compute = compute.take().expect("a caller leads at most once");
            self.await_join_quorum(&slot);
            return match self.lead(desc, key, compute) {
                Ok((sample, outcome)) => {
                    *slot.state.lock().expect("cache slot poisoned") =
                        SlotState::Ready(sample.clone());
                    self.cv_wake(&slot);
                    Ok((sample, self.note(outcome)))
                }
                Err(e) => {
                    self.inflight
                        .lock()
                        .expect("cache map poisoned")
                        .remove(key.hex());
                    *slot.state.lock().expect("cache slot poisoned") = SlotState::Failed;
                    self.cv_wake(&slot);
                    Err(e)
                }
            };
        }
    }

    fn await_join_quorum(&self, slot: &Slot) {
        if self.join_quorum == 0 {
            return;
        }
        let state = slot.state.lock().expect("cache slot poisoned");
        let _ = slot
            .cv
            .wait_timeout_while(state, JOIN_QUORUM_WAIT, |_| {
                slot.joiners.load(Ordering::Relaxed) < self.join_quorum
            })
            .expect("cache slot poisoned");
    }

    fn cv_wake(&self, slot: &Slot) {
        slot.cv.notify_all();
    }

    /// The leader's path: consult the disk tier, else compute and
    /// write back.
    fn lead<F>(
        &self,
        desc: &str,
        key: &CellKey,
        compute: F,
    ) -> Result<(PointSample, CacheOutcome), RunError>
    where
        F: FnOnce() -> Result<PointSample, RunError>,
    {
        if self.mode == CacheMode::ReadWrite {
            match read_entry(&key.entry_path(&self.dir), desc) {
                ReadEntry::Ok(sample) => return Ok((sample, CacheOutcome::HitDisk)),
                ReadEntry::Invalid => {
                    self.counters.invalid.fetch_add(1, Ordering::Relaxed);
                }
                ReadEntry::Missing => {}
            }
        }
        let sample = compute()?;
        match atomic_write_unsynced(
            &key.entry_path(&self.dir),
            encode_entry(key, desc, &sample).as_bytes(),
        ) {
            Ok(()) => {
                self.counters.stored.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // A result we cannot persist is still a result; the next
                // campaign recomputes this cell.
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok((sample, CacheOutcome::Miss))
    }

    /// Count the outcome and emit its trace event.
    fn note(&self, outcome: CacheOutcome) -> CacheOutcome {
        let c = &self.counters;
        match outcome {
            CacheOutcome::Miss => c.misses.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::HitMem => c.hits_mem.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::HitDisk => c.hits_disk.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::Joined => c.joined.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::Uncached => 0,
        };
        let t = SimTime::from_nanos(self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        self.tracer
            .emit(t, Comp::Cache, || TraceEvent::CacheLookup {
                hit: outcome.is_hit(),
                joined: outcome == CacheOutcome::Joined,
            });
        outcome
    }
}

/// Run one sweep cell through the cache (when one is configured), or
/// directly. This is the executor campaign planners and sweeps share:
/// `hw` must be the hardware the caller resolved (fault plan applied,
/// per-attempt reseeding included) so the key covers the exact inputs.
///
/// `budget` is the deterministic interruption hook: each fresh
/// computation first takes one unit from it, and a cell that finds it
/// empty fails with [`RunError::Interrupted`] without computing. Cache
/// hits spend nothing, so a campaign interrupted after K computations has
/// exactly K entries in the store and a rerun resumes from them.
///
/// `ident` is the cell's [`cell_desc`] and its [`CellKey`] when the
/// caller already made them, from a [`CampaignDesc`] rendered once for
/// many cells (a server also needs the key to quarantine a cell); with
/// `None` they are made here, and only when a cache is configured, so an
/// uncached run renders and hashes nothing.
pub fn run_cell_cached(
    cache: Option<&CellCache>,
    hw: &HwConfig,
    cfg: &MethodConfig,
    method: CellMethod,
    x: u64,
    budget: Option<&AtomicUsize>,
    ident: Option<(&str, &CellKey)>,
) -> Result<(PointSample, CacheOutcome), RunError> {
    let compute = || {
        if let Some(b) = budget {
            b.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .map_err(|_| RunError::Interrupted)?;
        }
        let spec = RunSpec {
            shards: cfg.shards,
            watchdog: cfg.watchdog,
            ..RunSpec::new(hw.clone())
        };
        Ok(method.run(cfg, x, &spec)?.sample)
    };
    match (cache, ident) {
        (None, _) => Ok((compute()?, CacheOutcome::Uncached)),
        (Some(c), Some((desc, key))) => c.get_or_compute(desc, key, compute),
        (Some(c), None) => {
            let desc = cell_desc(hw, cfg, method, x);
            c.get_or_compute(&desc, &CellKey::from_desc(&desc), compute)
        }
    }
}

// --- on-disk entry format ----------------------------------------------
//
//   comb-cellcache v1
//   key <64-hex sha256 of desc>
//   sum <16-hex fnv1a-64 of the payload fragment>
//   desc <canonical cell description>
//   data polling|pww <exact-bit fields...>

fn encode_entry(key: &CellKey, desc: &str, sample: &PointSample) -> String {
    let payload = codec::encode_sample(sample);
    format!(
        "{ENTRY_MAGIC}\nkey {}\nsum {:016x}\ndesc {desc}\ndata {payload}\n",
        key.hex(),
        fnv1a64(payload.as_bytes()),
    )
}

// Short-lived return value of one disk probe — never stored in bulk.
#[allow(clippy::large_enum_variant)]
enum ReadEntry {
    /// Entry validated end to end.
    Ok(PointSample),
    /// No entry on disk.
    Missing,
    /// An entry exists but failed any validation step.
    Invalid,
}

fn read_entry(path: &Path, want_desc: &str) -> ReadEntry {
    let text = match read_entry_text(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return ReadEntry::Missing,
        Err(_) => return ReadEntry::Invalid,
    };
    match parse_entry(&text, Some(want_desc)) {
        Some(sample) => ReadEntry::Ok(sample),
        None => ReadEntry::Invalid,
    }
}

/// Bytes asked for per read while loading an entry. Entries are 1.4–1.5 KB
/// (a ~1.2 KB description and the payload), so one read takes one whole.
const ENTRY_READ_CHUNK: usize = 4096;

/// The entry file at `path` as text: an open and, for an entry shorter
/// than [`ENTRY_READ_CHUNK`], one read. Unlike `fs::read_to_string` it
/// neither stats the file to size its buffer nor reads again to find the
/// end. A read of a regular file comes back short only at the end of the
/// file; were one to come back short anywhere else, the text would read
/// as a torn entry, which validation turns into a recompute.
fn read_entry_text(path: &Path) -> std::io::Result<String> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; ENTRY_READ_CHUNK];
    let mut len = 0;
    loop {
        match file.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if len < buf.len() {
                    break;
                }
                buf.resize(len + ENTRY_READ_CHUNK, 0);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf.truncate(len);
    String::from_utf8(buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Validate and decode one entry. With `want_desc`, the stored
/// description must match the requested one exactly; without it (store
/// verification), the key is recomputed from the stored description
/// instead.
fn parse_entry(text: &str, want_desc: Option<&str>) -> Option<PointSample> {
    let mut lines = text.lines();
    if lines.next()? != ENTRY_MAGIC {
        return None;
    }
    let key = lines.next()?.strip_prefix("key ")?;
    let sum = u64::from_str_radix(lines.next()?.strip_prefix("sum ")?, 16).ok()?;
    let desc = lines.next()?.strip_prefix("desc ")?;
    let payload = lines.next()?.strip_prefix("data ")?;
    if lines.next().is_some() {
        return None;
    }
    match want_desc {
        Some(want) => {
            if desc != want {
                return None;
            }
        }
        None => {
            if sha256_hex(desc.as_bytes()) != key {
                return None;
            }
        }
    }
    if fnv1a64(payload.as_bytes()) != sum {
        return None;
    }
    codec::decode_sample(payload)
}

// --- store maintenance (`comb cache ...`) ------------------------------

/// Result of scanning a store directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Valid entries seen (or, for `clear`/`gc`, entries kept).
    pub entries: u64,
    /// Bytes across the entries seen/kept.
    pub bytes: u64,
    /// Entries that failed validation.
    pub invalid: u64,
    /// Files removed (gc/clear only).
    pub removed: u64,
    /// Valid entries removed because they exceeded the gc age limit.
    pub expired: u64,
}

fn walk_entries(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(shards) = std::fs::read_dir(dir) else {
        return out;
    };
    for shard in shards.flatten() {
        let Ok(subs) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for sub in subs.flatten() {
            let Ok(files) = std::fs::read_dir(sub.path()) else {
                continue;
            };
            for f in files.flatten() {
                out.push(f.path());
            }
        }
    }
    out.sort();
    out
}

fn looks_like_entry(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.len() == 64 && n.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// Count entries and bytes without validating payloads.
pub fn store_stats(dir: &Path) -> StoreReport {
    let mut r = StoreReport::default();
    for path in walk_entries(dir) {
        if !looks_like_entry(&path) {
            continue;
        }
        r.entries += 1;
        r.bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    }
    r
}

/// Validate every entry end to end (magic, key↔description hash,
/// payload checksum, exact-bit decode).
pub fn verify_store(dir: &Path) -> StoreReport {
    let mut r = StoreReport::default();
    for path in walk_entries(dir) {
        if !looks_like_entry(&path) {
            continue;
        }
        let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let ok = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| {
                let key_from_name = path.file_name()?.to_str()?.to_string();
                let sample = parse_entry(&t, None)?;
                // The filename must also be the content address.
                t.lines()
                    .nth(1)?
                    .strip_prefix("key ")
                    .filter(|k| *k == key_from_name)?;
                Some(sample)
            })
            .is_some();
        if ok {
            r.entries += 1;
            r.bytes += len;
        } else {
            r.invalid += 1;
        }
    }
    r
}

/// Remove invalid entries, stray temp files, and anything that is not a
/// content-addressed entry; keep valid entries.
pub fn gc_store(dir: &Path) -> StoreReport {
    gc_store_with_max_age(dir, None)
}

/// [`gc_store`], additionally evicting valid entries whose file
/// modification time is older than `max_age` (serve workloads accrete
/// entries indefinitely; age-based eviction bounds the store without
/// nuking warm results). `None` keeps every valid entry.
pub fn gc_store_with_max_age(dir: &Path, max_age: Option<std::time::Duration>) -> StoreReport {
    let now = std::time::SystemTime::now();
    let mut r = StoreReport::default();
    for path in walk_entries(dir) {
        let valid = looks_like_entry(&path)
            && std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| parse_entry(&t, None))
                .is_some();
        if !valid {
            r.invalid += 1;
            if std::fs::remove_file(&path).is_ok() {
                r.removed += 1;
            }
            continue;
        }
        let age = std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok());
        // An unreadable mtime counts as age zero: never evict on doubt.
        let too_old = match (max_age, age) {
            (Some(limit), Some(age)) => age > limit,
            _ => false,
        };
        if too_old {
            r.expired += 1;
            if std::fs::remove_file(&path).is_ok() {
                r.removed += 1;
            }
        } else {
            r.entries += 1;
            r.bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
    }
    r
}

/// Delete the entire store directory.
pub fn clear_store(dir: &Path) -> StoreReport {
    let mut r = StoreReport::default();
    for path in walk_entries(dir) {
        if std::fs::remove_file(&path).is_ok() {
            r.removed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    r
}

// --- hashing -----------------------------------------------------------

/// FNV-1a 64-bit, used as the entry payload checksum (fast, no
/// cryptographic requirement — corruption detection only).
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FaultCounters, PollingSample};
    use crate::sweep::Transport;
    use comb_sim::SimDuration;
    use std::sync::atomic::AtomicUsize;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("comb_cellcache_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(x: u64) -> PointSample {
        PointSample::Polling(PollingSample {
            poll_interval: x,
            msg_bytes: 102_400,
            total_iters: 500_000,
            warmup_polls: 4,
            work_only: SimDuration::from_nanos(123),
            elapsed: SimDuration::from_nanos(456),
            availability: 0.1 + 0.2,
            bandwidth_mbs: 87.5,
            messages_received: 9,
            stolen: SimDuration::from_nanos(7),
            faults: FaultCounters::default(),
        })
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn keys_separate_every_described_input() {
        let cfg = MethodConfig::new(Transport::Gm, 102_400);
        let hw = cfg.resolved_hw();
        let base = cell_desc(&hw, &cfg, CellMethod::Polling, 1000);
        let k = |d: &str| CellKey::from_desc(d).hex().to_string();

        // Same inputs → same key.
        assert_eq!(
            k(&base),
            k(&cell_desc(&hw, &cfg, CellMethod::Polling, 1000))
        );

        // x, method, and every config knob must separate.
        assert_ne!(
            k(&base),
            k(&cell_desc(&hw, &cfg, CellMethod::Polling, 1001))
        );
        assert_ne!(
            k(&base),
            k(&cell_desc(
                &hw,
                &cfg,
                CellMethod::Pww {
                    test_in_work: false
                },
                1000
            ))
        );
        let mut other = cfg.clone();
        other.target_iters += 1;
        assert_ne!(
            k(&base),
            k(&cell_desc(&hw, &other, CellMethod::Polling, 1000))
        );

        // jobs, shards and watchdog are excluded on purpose: none of them
        // can change a sample, only wall-clock time.
        let mut jobs = cfg.clone();
        jobs.jobs = 7;
        assert_eq!(
            k(&base),
            k(&cell_desc(&hw, &jobs, CellMethod::Polling, 1000))
        );
        let mut shards = cfg.clone();
        shards.shards = 4;
        assert_eq!(
            k(&base),
            k(&cell_desc(&hw, &shards, CellMethod::Polling, 1000))
        );

        // A different transport separates through the hw description.
        let portals = MethodConfig::new(Transport::Portals, 102_400);
        assert_ne!(
            k(&base),
            k(&cell_desc(
                &portals.resolved_hw(),
                &cfg,
                CellMethod::Polling,
                1000
            ))
        );
    }

    #[test]
    fn fault_reseeding_separates_attempt_keys() {
        let mut cfg = MethodConfig::new(Transport::Gm, 102_400);
        cfg.fault = comb_hw::FaultPlan::from_specs(&["loss=uniform:0.01"], Some(42)).unwrap();
        let hw0: HwConfig = {
            let mut c = cfg.clone();
            c.fault = c.fault.for_attempt(0);
            c.resolved_hw()
        };
        let hw1: HwConfig = {
            let mut c = cfg.clone();
            c.fault = c.fault.for_attempt(1);
            c.resolved_hw()
        };
        let d0 = cell_desc(&hw0, &cfg, CellMethod::Polling, 10);
        let d1 = cell_desc(&hw1, &cfg, CellMethod::Polling, 10);
        assert_ne!(
            CellKey::from_desc(&d0),
            CellKey::from_desc(&d1),
            "reseeded attempts must be distinct cells"
        );
    }

    #[test]
    fn disk_roundtrip_and_cross_instance_hit() {
        let dir = scratch("roundtrip");
        let want = sample(1000);
        let desc = "comb-cell v1 test-entry";
        let key = CellKey::from_desc(desc);

        let cold = CellCache::new(&dir, CacheMode::ReadWrite);
        let (got, outcome) = cold
            .get_or_compute(desc, &key, || Ok(want.clone()))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(got, want);
        assert_eq!(cold.stats().stored, 1);

        // Same instance: memory tier.
        let (_, outcome) = cold
            .get_or_compute(desc, &key, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::HitMem);

        // Fresh instance (fresh process, conceptually): disk tier,
        // bit-exact.
        let warm = CellCache::new(&dir, CacheMode::ReadWrite);
        let (got, outcome) = warm
            .get_or_compute(desc, &key, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::HitDisk);
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_sees_memory_and_disk_tiers_without_computing() {
        let dir = scratch("probe");
        let desc = "comb-cell v1 probe-entry";
        let key = CellKey::from_desc(desc);

        let cache = CellCache::new(&dir, CacheMode::ReadWrite);
        assert!(!cache.probe(&key), "empty cache must probe false");

        cache.get_or_compute(desc, &key, || Ok(sample(3))).unwrap();
        assert!(cache.probe(&key), "memory tier must probe true");

        // Fresh instance over the same dir: disk tier only.
        let warm = CellCache::new(&dir, CacheMode::ReadWrite);
        assert!(warm.probe(&key), "disk tier must probe true");

        // probe never computes, so stats are untouched by the probes above.
        assert_eq!(warm.stats().hits_disk, 0);
        assert_eq!(warm.stats().misses, 0);

        // Refresh mode never reads, so a probe must not promise a hit.
        let refresh = CellCache::new(&dir, CacheMode::Refresh);
        assert!(!refresh.probe(&key), "Refresh mode must probe false");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_mode_recomputes_and_overwrites() {
        let dir = scratch("refresh");
        let desc = "comb-cell v1 refresh-entry";
        let key = CellKey::from_desc(desc);
        CellCache::new(&dir, CacheMode::ReadWrite)
            .get_or_compute(desc, &key, || Ok(sample(1)))
            .unwrap();

        let refresh = CellCache::new(&dir, CacheMode::Refresh);
        let (got, outcome) = refresh
            .get_or_compute(desc, &key, || Ok(sample(2)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "refresh never reads");
        assert_eq!(got, sample(2));

        // The overwrite is visible to a normal reader.
        let (got, outcome) = CellCache::new(&dir, CacheMode::ReadWrite)
            .get_or_compute(desc, &key, || panic!("must hit"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::HitDisk);
        assert_eq!(got, sample(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_fall_back_to_recompute_and_reheal() {
        let dir = scratch("corrupt");
        let desc = "comb-cell v1 corrupt-entry";
        let key = CellKey::from_desc(desc);
        let path = key.entry_path(&dir);
        CellCache::new(&dir, CacheMode::ReadWrite)
            .get_or_compute(desc, &key, || Ok(sample(5)))
            .unwrap();
        let pristine = std::fs::read_to_string(&path).unwrap();

        let corruptions: Vec<(&str, String)> = vec![
            ("truncated", pristine[..pristine.len() / 2].to_string()),
            (
                "bit-flipped payload",
                pristine.replacen("data polling", "data pollinh", 1),
            ),
            (
                "version skew",
                pristine.replacen("comb-cellcache v1", "comb-cellcache v0", 1),
            ),
            ("empty", String::new()),
            ("garbage", "not an entry at all\n".to_string()),
        ];
        for (label, text) in corruptions {
            std::fs::write(&path, &text).unwrap();
            let c = CellCache::new(&dir, CacheMode::ReadWrite);
            let (got, outcome) = c
                .get_or_compute(desc, &key, || Ok(sample(5)))
                .unwrap_or_else(|e| panic!("{label}: cache must never fail: {e}"));
            assert_eq!(outcome, CacheOutcome::Miss, "{label} must miss");
            assert_eq!(got, sample(5), "{label}");
            assert_eq!(c.stats().invalid, 1, "{label} must be counted");
            // The store re-healed: the entry is pristine again.
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                pristine,
                "{label} must re-heal"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn desc_mismatch_under_same_path_is_invalid() {
        // Paranoia: an entry whose stored desc differs from the requested
        // one (hand-edited store) is rejected even if checksums hold.
        let dir = scratch("desc-mismatch");
        let desc = "comb-cell v1 original";
        let key = CellKey::from_desc(desc);
        CellCache::new(&dir, CacheMode::ReadWrite)
            .get_or_compute(desc, &key, || Ok(sample(5)))
            .unwrap();
        let path = key.entry_path(&dir);
        let edited = std::fs::read_to_string(&path)
            .unwrap()
            .replacen("original", "tampered", 1);
        std::fs::write(&path, edited).unwrap();
        let c = CellCache::new(&dir, CacheMode::ReadWrite);
        let (_, outcome) = c.get_or_compute(desc, &key, || Ok(sample(5))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_flight_computes_once_and_joins_waiters() {
        let dir = scratch("single-flight");
        let cache = Arc::new(CellCache::new(&dir, CacheMode::ReadWrite));
        let desc = "comb-cell v1 single-flight";
        let key = CellKey::from_desc(desc);
        let computes = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::new();
        for _ in 0..8 {
            let (cache, key, computes) = (Arc::clone(&cache), key.clone(), Arc::clone(&computes));
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_compute(desc, &key, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        Ok(sample(7))
                    })
                    .unwrap()
            }));
        }
        let results: Vec<(PointSample, CacheOutcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one leader");
        for (s, _) in &results {
            assert_eq!(*s, sample(7));
        }
        let st = cache.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.joined + st.hits_mem, 7, "everyone else joined or hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_instances_race_writes_without_corruption() {
        // Two `CellCache` instances over one store directory model two
        // comb processes sharing a cache. Single-flight dedup is
        // per-process, so both sides compute the same cells and race
        // their writes; the atomic tmp+rename protocol means the last
        // rename wins, every entry stays valid, and a later reader gets
        // bit-exact results.
        let dir = scratch("write-race");
        let left = Arc::new(CellCache::new(&dir, CacheMode::ReadWrite));
        let right = Arc::new(CellCache::new(&dir, CacheMode::ReadWrite));

        const CELLS: u64 = 16;
        let mut handles = Vec::new();
        for instance in [&left, &right] {
            for _ in 0..2 {
                let cache = Arc::clone(instance);
                handles.push(std::thread::spawn(move || {
                    (0..CELLS)
                        .map(|x| {
                            let desc = format!("comb-cell v1 race-{x}");
                            let key = CellKey::from_desc(&desc);
                            let (s, _) =
                                cache.get_or_compute(&desc, &key, || Ok(sample(x))).unwrap();
                            s
                        })
                        .collect::<Vec<_>>()
                }));
            }
        }
        for h in handles {
            for (x, s) in h.join().unwrap().into_iter().enumerate() {
                assert_eq!(s, sample(x as u64));
            }
        }

        // Every entry on disk is valid despite the racing renames, and
        // no stray temp files survive.
        let report = verify_store(&dir);
        assert_eq!(report.entries, 16);
        assert_eq!(report.invalid, 0);

        // A third "process" reads everything back from disk, bit-exact.
        let reader = CellCache::new(&dir, CacheMode::ReadWrite);
        for x in 0..CELLS {
            let desc = format!("comb-cell v1 race-{x}");
            let key = CellKey::from_desc(&desc);
            let (s, outcome) = reader
                .get_or_compute(&desc, &key, || panic!("must not recompute"))
                .unwrap();
            assert_eq!(outcome, CacheOutcome::HitDisk);
            assert_eq!(s, sample(x));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_leader_does_not_poison_the_key() {
        let dir = scratch("failure");
        let cache = CellCache::new(&dir, CacheMode::ReadWrite);
        let desc = "comb-cell v1 failing";
        let key = CellKey::from_desc(desc);
        let err = cache
            .get_or_compute(desc, &key, || Err(RunError::NoResult))
            .unwrap_err();
        assert!(matches!(err, RunError::NoResult));
        // The key is free again: a later request computes fresh.
        let (got, outcome) = cache.get_or_compute(desc, &key, || Ok(sample(3))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(got, sample(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_maintenance_counts_verifies_and_collects() {
        let dir = scratch("maintenance");
        let cache = CellCache::new(&dir, CacheMode::ReadWrite);
        for x in [1u64, 2, 3] {
            let desc = format!("comb-cell v1 maint-{x}");
            let key = CellKey::from_desc(&desc);
            cache.get_or_compute(&desc, &key, || Ok(sample(x))).unwrap();
        }
        let st = store_stats(&dir);
        assert_eq!(st.entries, 3);
        assert!(st.bytes > 0);
        assert_eq!(verify_store(&dir).entries, 3);
        assert_eq!(verify_store(&dir).invalid, 0);

        // Corrupt one entry and drop a stray temp file; gc removes both.
        let victim_desc = "comb-cell v1 maint-1";
        let victim = CellKey::from_desc(victim_desc).entry_path(&dir);
        std::fs::write(&victim, "garbage").unwrap();
        // A temp file named as a writer names it, left by a killed one.
        let stray = victim.with_file_name(format!(
            ".{}.4242.7.tmp",
            CellKey::from_desc(victim_desc).hex()
        ));
        std::fs::write(&stray, "tmp").unwrap();
        assert_eq!(verify_store(&dir).invalid, 1);
        let gc = gc_store(&dir);
        assert_eq!(gc.entries, 2);
        assert_eq!(gc.removed, 2, "corrupt entry + stray tmp");
        assert!(!victim.exists());
        assert!(!stray.exists());

        let cleared = clear_store(&dir);
        assert_eq!(cleared.removed, 2);
        assert!(!dir.exists());
        assert_eq!(store_stats(&dir).entries, 0, "missing store reads as empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_max_age_evicts_only_stale_entries() {
        let dir = scratch("max-age");
        let cache = CellCache::new(&dir, CacheMode::ReadWrite);
        for x in [1u64, 2, 3] {
            let desc = format!("comb-cell v1 age-{x}");
            let key = CellKey::from_desc(&desc);
            cache.get_or_compute(&desc, &key, || Ok(sample(x))).unwrap();
        }
        // Backdate one entry two hours into the past.
        let old = CellKey::from_desc("comb-cell v1 age-2").entry_path(&dir);
        let then = std::time::SystemTime::now() - std::time::Duration::from_secs(7200);
        let f = std::fs::File::options().write(true).open(&old).unwrap();
        f.set_modified(then).unwrap();
        drop(f);

        // A generous limit keeps everything.
        let keep = gc_store_with_max_age(&dir, Some(std::time::Duration::from_secs(86_400)));
        assert_eq!((keep.entries, keep.expired, keep.removed), (3, 0, 0));

        // A one-hour limit evicts exactly the backdated entry.
        let gc = gc_store_with_max_age(&dir, Some(std::time::Duration::from_secs(3600)));
        assert_eq!((gc.entries, gc.expired, gc.removed), (2, 1, 1));
        assert!(!old.exists());
        assert_eq!(verify_store(&dir).entries, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn executor_runs_real_cells_identically_with_and_without_cache() {
        let dir = scratch("executor");
        let mut cfg = MethodConfig::new(Transport::Gm, 10 * 1024);
        cfg.target_iters = 200_000;
        cfg.max_intervals = 300;
        cfg.cycles = 2;
        let hw = cfg.resolved_hw();

        let (plain, outcome) =
            run_cell_cached(None, &hw, &cfg, CellMethod::Polling, 10_000, None, None).unwrap();
        assert_eq!(outcome, CacheOutcome::Uncached);

        let cache = CellCache::new(&dir, CacheMode::ReadWrite);
        let (cold, outcome) = run_cell_cached(
            Some(&cache),
            &hw,
            &cfg,
            CellMethod::Polling,
            10_000,
            None,
            None,
        )
        .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cold, plain, "cached compute must equal direct compute");

        // A fresh instance restores the identical sample from disk, also
        // under a description and key the caller made; a hit spends no
        // interruption budget, so even an empty one is fine.
        let warm = CellCache::new(&dir, CacheMode::ReadWrite);
        let empty = AtomicUsize::new(0);
        let desc = cell_desc(&hw, &cfg, CellMethod::Polling, 10_000);
        let (restored, outcome) = run_cell_cached(
            Some(&warm),
            &hw,
            &cfg,
            CellMethod::Polling,
            10_000,
            Some(&empty),
            Some((&desc, &CellKey::from_desc(&desc))),
        )
        .unwrap();
        assert_eq!(outcome, CacheOutcome::HitDisk);
        assert_eq!(restored, plain, "disk restore must be bit-exact");

        // PWW goes through the same path. A budget of one computes one
        // fresh cell, then refuses the next before it computes.
        let pww = CellMethod::Pww { test_in_work: true };
        let budget = AtomicUsize::new(1);
        let (a, _) =
            run_cell_cached(Some(&warm), &hw, &cfg, pww, 50_000, Some(&budget), None).unwrap();
        let (b, o) =
            run_cell_cached(Some(&warm), &hw, &cfg, pww, 50_000, Some(&budget), None).unwrap();
        assert_eq!(o, CacheOutcome::HitMem);
        assert_eq!(a, b);
        let refused = run_cell_cached(Some(&warm), &hw, &cfg, pww, 60_000, Some(&budget), None);
        assert!(matches!(refused, Err(RunError::Interrupted)));
        assert_eq!(warm.stats().stored, 1, "the refused cell wrote nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracer_sees_lookup_events() {
        let dir = scratch("traced");
        let mut cache = CellCache::new(&dir, CacheMode::ReadWrite);
        let tracer = Tracer::enabled();
        cache.set_tracer(tracer.clone());
        let desc = "comb-cell v1 traced";
        let key = CellKey::from_desc(desc);
        cache.get_or_compute(desc, &key, || Ok(sample(1))).unwrap();
        cache.get_or_compute(desc, &key, || panic!("hit")).unwrap();
        let kinds: Vec<&str> = tracer.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, vec!["cache_miss", "cache_hit"]);
        assert!(tracer.records().iter().all(|r| r.comp == Comp::Cache));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
