//! Canonical sweep-request decoding and execution.
//!
//! The JSON body accepted by `POST /v1/sweep`:
//!
//! ```json
//! {
//!   "method": "polling" | "pww",          // default "polling"
//!   "transport": "gm" | "portals" | "emp",// default "gm"
//!   "msg_bytes": 102400,                  // default 100 KiB
//!   "queue_depth": 4, "batch": 1, "cycles": 12,
//!   "target_iters": 8000000, "max_intervals": 20000,
//!   "test_in_work": false,                // pww only
//!   "xs": [1000, 10000],                  // explicit points, or:
//!   "range": {"lo": 1000, "hi": 100000000, "per_decade": 2}
//! }
//! ```
//!
//! Every field is re-derived into a [`MethodConfig`] — the same struct the
//! CLI builds — so the cache key and the rendered bytes are identical to a
//! `comb sweep` run with the equivalent flags, regardless of JSON key
//! order or whitespace.

use crate::jobs::Job;
use crate::json::Json;
use crate::overload::Quarantine;
use comb_core::{
    log_spaced, run_cell_cached, run_ordered, CampaignDesc, CellCache, CellMethod, MethodConfig,
    RunError, Transport,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Most cells one request may ask for (bounds per-request memory and
/// keeps a single client from monopolizing the pool).
pub const MAX_CELLS: usize = 512;

/// A decoded, validated sweep request.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The derived configuration (fault-free; serving faulted sweeps is
    /// not part of the API).
    pub cfg: MethodConfig,
    /// Which COMB method to run.
    pub method: CellMethod,
    /// The x-axis points to compute.
    pub xs: Vec<u64>,
    /// Client-requested deadline in milliseconds (`deadline_ms` field);
    /// the server clamps it to its own configured maximum. `None` = use
    /// the server default.
    pub deadline_ms: Option<u64>,
}

impl SweepRequest {
    /// Decode and validate a JSON body.
    pub fn parse(body: &str) -> Result<SweepRequest, String> {
        let v = Json::parse(body)?;
        if !matches!(v, Json::Obj(_)) {
            return Err("body must be a JSON object".to_string());
        }

        let get_u64 = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
            }
        };

        let method_name = match v.get("method") {
            None => "polling",
            Some(m) => m.as_str().ok_or("'method' must be a string")?,
        };
        let transport = match v.get("transport") {
            None => Transport::Gm,
            Some(t) => match t.as_str().ok_or("'transport' must be a string")? {
                "gm" => Transport::Gm,
                "portals" => Transport::Portals,
                "emp" => Transport::Emp,
                other => return Err(format!("unknown transport '{other}'")),
            },
        };
        let msg_bytes = get_u64("msg_bytes")?.unwrap_or(100 * 1024);
        if msg_bytes == 0 {
            return Err("'msg_bytes' must be >= 1".to_string());
        }
        let mut cfg = MethodConfig::new(transport, msg_bytes);
        if let Some(q) = get_u64("queue_depth")? {
            if q == 0 {
                return Err("'queue_depth' must be >= 1".to_string());
            }
            cfg.queue_depth = q as usize;
        }
        if let Some(b) = get_u64("batch")? {
            if b == 0 {
                return Err("'batch' must be >= 1".to_string());
            }
            cfg.batch = b as usize;
        }
        if let Some(c) = get_u64("cycles")? {
            if c == 0 {
                return Err("'cycles' must be >= 1".to_string());
            }
            cfg.cycles = c;
        }
        if let Some(t) = get_u64("target_iters")? {
            cfg.target_iters = t;
        }
        if let Some(m) = get_u64("max_intervals")? {
            if m == 0 {
                return Err("'max_intervals' must be >= 1".to_string());
            }
            cfg.max_intervals = m;
        }
        let test_in_work = match v.get("test_in_work") {
            None => false,
            Some(b) => b.as_bool().ok_or("'test_in_work' must be a boolean")?,
        };
        let method = match method_name {
            "polling" => CellMethod::Polling,
            "pww" => CellMethod::Pww { test_in_work },
            other => return Err(format!("unknown method '{other}'")),
        };

        let xs: Vec<u64> = match (v.get("xs"), v.get("range")) {
            (Some(_), Some(_)) => return Err("give either 'xs' or 'range', not both".to_string()),
            (Some(arr), None) => {
                let items = arr.as_arr().ok_or("'xs' must be an array")?;
                let mut xs = Vec::with_capacity(items.len());
                for item in items {
                    let x = item
                        .as_u64()
                        .filter(|&x| x >= 1)
                        .ok_or("'xs' entries must be integers >= 1")?;
                    xs.push(x);
                }
                xs
            }
            (None, range) => {
                // The CLI's default sweep range.
                let (mut lo, mut hi, mut per_decade) = (1_000u64, 100_000_000u64, 2u32);
                if let Some(r) = range {
                    let ru64 = |key: &str| -> Result<Option<u64>, String> {
                        match r.get(key) {
                            None | Some(Json::Null) => Ok(None),
                            Some(x) => x
                                .as_u64()
                                .map(Some)
                                .ok_or_else(|| format!("'range.{key}' must be an integer")),
                        }
                    };
                    if let Some(v) = ru64("lo")? {
                        lo = v;
                    }
                    if let Some(v) = ru64("hi")? {
                        hi = v;
                    }
                    if let Some(v) = ru64("per_decade")? {
                        per_decade = v.min(u32::MAX as u64) as u32;
                    }
                }
                if lo < 1 || hi < lo || per_decade < 1 {
                    return Err("range needs 1 <= lo <= hi and per_decade >= 1".to_string());
                }
                log_spaced(lo, hi, per_decade)
            }
        };
        if xs.is_empty() {
            return Err("sweep has no points".to_string());
        }
        if xs.len() > MAX_CELLS {
            return Err(format!("sweep has {} points (max {MAX_CELLS})", xs.len()));
        }
        let deadline_ms = get_u64("deadline_ms")?.filter(|&d| d > 0);

        Ok(SweepRequest {
            cfg,
            method,
            xs,
            deadline_ms,
        })
    }

    /// Execute on the shared pool under the server's guards (per-cell
    /// deadline checks, the poison-cell quarantine and the poison test
    /// hook), resolving every cell through the cache (the cache's
    /// single-flight map joins identical concurrent requests), and render
    /// the canonical sweep text — byte-identical to the stdout of the
    /// equivalent `comb sweep` run.
    pub fn run(&self, ctx: &SweepRunCtx<'_>, job: &Job) -> Result<String, SweepRunError> {
        let mut cfg = self.cfg.clone();
        cfg.jobs = ctx.jobs;
        let hw = cfg.resolved_hw();
        let shared = CampaignDesc::new(&hw, &cfg);
        // run_ordered reports only the first generic error; the guard
        // records the first *special* outcome (deadline/quarantine/panic
        // with its cell key) on the side so the server can answer with
        // the right status and structured body.
        let special: Mutex<Option<SweepRunError>> = Mutex::new(None);
        let note_special = |e: SweepRunError| {
            let mut s = special.lock().unwrap_or_else(|p| p.into_inner());
            s.get_or_insert(e);
        };
        let results = run_ordered(cfg.jobs, &self.xs, |&x| {
            if Instant::now() >= ctx.deadline {
                note_special(SweepRunError::DeadlineExpired);
                job.push_event(format!("cell x={x} skipped: deadline expired"));
                return Err(RunError::NoResult);
            }
            let (desc, key) = shared.ident(self.method, x);
            if ctx.quarantine.is_quarantined(key.hex()) {
                note_special(SweepRunError::Quarantined {
                    key: key.hex().to_string(),
                    x,
                });
                job.push_event(format!("cell x={x} refused: quarantined"));
                return Err(RunError::NoResult);
            }
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if ctx.poison_x == Some(x) {
                    panic!("injected poison cell x={x}");
                }
                run_cell_cached(
                    ctx.cache,
                    &hw,
                    &cfg,
                    self.method,
                    x,
                    None,
                    Some((&desc, &key)),
                )
            }));
            let r = match attempt {
                Ok(r) => r,
                Err(panic) => {
                    let message = if let Some(s) = panic.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = panic.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "worker panic".to_string()
                    };
                    let quarantined = ctx.quarantine.note_panic(key.hex()).is_some();
                    note_special(SweepRunError::Panicked {
                        key: key.hex().to_string(),
                        x,
                        message: message.clone(),
                        quarantined,
                    });
                    Err(RunError::WorkerPanic { message })
                }
            };
            match &r {
                Ok((_, outcome)) => job.advance(format!("cell x={x} outcome={outcome:?}")),
                Err(e) => job.push_event(format!("cell x={x} error={e}")),
            }
            r
        });
        let results = match results {
            Ok(r) => r,
            Err(run_err) => {
                let s = special.lock().unwrap_or_else(|p| p.into_inner()).take();
                return Err(s.unwrap_or(SweepRunError::Run(run_err)));
            }
        };

        let samples = results.into_iter().map(|(sample, _)| sample).collect();
        Ok(comb_report::render_sweep(&cfg, self.method, samples))
    }
}

/// Execution context for [`SweepRequest::run`].
pub struct SweepRunCtx<'a> {
    /// Pool width (`0` = auto).
    pub jobs: usize,
    /// Shared cell cache.
    pub cache: Option<&'a CellCache>,
    /// Poison-cell quarantine (panic bookkeeping + refusal).
    pub quarantine: &'a Quarantine,
    /// Absolute wall-clock deadline; cells not started by then are
    /// skipped and the request fails with
    /// [`SweepRunError::DeadlineExpired`].
    pub deadline: Instant,
    /// Test hook: deterministically panic while computing this x.
    pub poison_x: Option<u64>,
}

/// Why a guarded sweep run failed.
#[derive(Debug)]
pub enum SweepRunError {
    /// The request deadline expired before every cell could start.
    DeadlineExpired,
    /// A cell was refused because it is quarantined.
    Quarantined {
        /// The quarantined cell's key (hex).
        key: String,
        /// Its x value.
        x: u64,
    },
    /// A worker panicked computing a cell.
    Panicked {
        /// The panicking cell's key (hex).
        key: String,
        /// Its x value.
        x: u64,
        /// The panic message.
        message: String,
        /// True when this panic crossed the quarantine threshold.
        quarantined: bool,
    },
    /// Any other pool error (sim failure, watchdog, ...).
    Run(RunError),
}

impl std::fmt::Display for SweepRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepRunError::DeadlineExpired => f.write_str("request deadline expired"),
            SweepRunError::Quarantined { key, x } => {
                write!(f, "cell x={x} is quarantined (key {key})")
            }
            SweepRunError::Panicked {
                key, x, message, ..
            } => write!(f, "worker panicked on cell x={x} (key {key}): {message}"),
            SweepRunError::Run(e) => write!(f, "{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_explicit_points_with_defaults() {
        let r = SweepRequest::parse(r#"{"xs":[1000,5000]}"#).unwrap();
        assert_eq!(r.xs, vec![1000, 5000]);
        assert!(matches!(r.method, CellMethod::Polling));
        assert_eq!(r.cfg.msg_bytes, 100 * 1024);
        assert_eq!(r.cfg.queue_depth, 4);
    }

    #[test]
    fn key_order_yields_identical_requests() {
        let a = SweepRequest::parse(r#"{"method":"pww","msg_bytes":4096,"xs":[100],"cycles":3}"#)
            .unwrap();
        let b = SweepRequest::parse(
            r#"{ "cycles": 3, "xs": [100], "msg_bytes": 4096, "method": "pww" }"#,
        )
        .unwrap();
        assert_eq!(a.cfg, b.cfg);
        assert_eq!(a.xs, b.xs);
    }

    #[test]
    fn range_matches_cli_log_spacing() {
        let r = SweepRequest::parse(r#"{"range":{"lo":1000,"hi":100000,"per_decade":2}}"#).unwrap();
        assert_eq!(r.xs, log_spaced(1000, 100_000, 2));
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"method":"nope","xs":[1]}"#,
            r#"{"transport":"tofu","xs":[1]}"#,
            r#"{"xs":[]}"#,
            r#"{"xs":[0]}"#,
            r#"{"xs":[1],"range":{"lo":1,"hi":2}}"#,
            r#"{"range":{"lo":5,"hi":2}}"#,
            r#"{"msg_bytes":0,"xs":[1]}"#,
        ] {
            assert!(SweepRequest::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
