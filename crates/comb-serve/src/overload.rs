//! Overload-robustness state: the worker-panic circuit breaker and the
//! poison-cell quarantine.
//!
//! Both exist to turn "a cell panics the worker" from a crash loop into a
//! bounded, observable degradation: the quarantine stops re-running a
//! specific poison cell after `threshold` panics, and the breaker stops
//! admitting *any* campaign work for a cooldown after repeated panics
//! across cells, probing with a single request (half-open) before closing
//! again. Everything here is process-local, lock-cheap, and surfaced in
//! `/metrics` (`breaker_state`, `breaker_opens_total`,
//! `quarantined_cells`) and `Comp::Serve` trace events.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker admission decision for one campaign request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Closed: run normally.
    Allow,
    /// Half-open: run, but this request is the probe — its outcome
    /// decides whether the breaker closes or re-opens.
    AllowProbe,
    /// Open: reject with 503 and a Retry-After of the remaining cooldown.
    Reject {
        /// Seconds until the breaker will allow a probe.
        retry_after_secs: u64,
    },
}

#[derive(Debug)]
enum BreakerState {
    Closed { strikes: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// Half-open circuit breaker over worker panics: `threshold` consecutive
/// panics open it; after `cooldown` one probe request is admitted; a
/// clean probe closes it, a panicking probe re-opens it.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: Mutex<BreakerState>,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive panics and
    /// cooling down for `cooldown` before probing. `threshold` is clamped
    /// to at least 1.
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            state: Mutex::new(BreakerState::Closed { strikes: 0 }),
        }
    }

    /// Admission check for one campaign request. Returns what to do and,
    /// via [`BreakerDecision::AllowProbe`], marks the half-open probe.
    pub fn try_acquire(&self) -> BreakerDecision {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match &*st {
            BreakerState::Closed { .. } => BreakerDecision::Allow,
            BreakerState::HalfOpen => {
                // One probe is already in flight; hold everyone else off
                // for a short beat rather than stampeding the worker.
                BreakerDecision::Reject {
                    retry_after_secs: 1,
                }
            }
            BreakerState::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= self.cooldown {
                    *st = BreakerState::HalfOpen;
                    BreakerDecision::AllowProbe
                } else {
                    let left = self.cooldown - elapsed;
                    BreakerDecision::Reject {
                        retry_after_secs: left.as_secs().max(1),
                    }
                }
            }
        }
    }

    /// Record a worker panic. Returns true when this panic tripped the
    /// breaker open (the caller emits the trace event and counter).
    pub fn on_panic(&self) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match &mut *st {
            BreakerState::Closed { strikes } => {
                *strikes += 1;
                if *strikes >= self.threshold {
                    *st = BreakerState::Open {
                        since: Instant::now(),
                    };
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                // The probe panicked: straight back to open, full cooldown.
                *st = BreakerState::Open {
                    since: Instant::now(),
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Record a clean campaign completion. Returns true when this was the
    /// half-open probe closing the breaker.
    pub fn on_success(&self) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match &*st {
            BreakerState::HalfOpen => {
                *st = BreakerState::Closed { strikes: 0 };
                true
            }
            BreakerState::Closed { .. } => {
                *st = BreakerState::Closed { strikes: 0 };
                false
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Numeric gauge for `/metrics`: 0 = closed, 1 = open, 2 = half-open.
    pub fn state_gauge(&self) -> u64 {
        match &*self.state.lock().unwrap_or_else(|p| p.into_inner()) {
            BreakerState::Closed { .. } => 0,
            BreakerState::Open { .. } => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

impl Default for CircuitBreaker {
    /// Threshold 3, cooldown 2 s — the serving defaults.
    fn default() -> Self {
        CircuitBreaker::new(3, Duration::from_secs(2))
    }
}

/// Poison-cell quarantine: after `threshold` panics attributed to one
/// cell key, the cell is quarantined and every later request for it gets
/// a structured error instead of a recompute. Keys are the cache's
/// `CellKey` hex. The quarantine lives in process: a restarted server
/// starts with it empty.
#[derive(Debug)]
pub struct Quarantine {
    threshold: u32,
    panics: Mutex<HashMap<String, u32>>,
}

impl Quarantine {
    /// A quarantine tripping after `threshold` panics per cell (clamped
    /// to at least 1).
    pub fn new(threshold: u32) -> Quarantine {
        Quarantine {
            threshold: threshold.max(1),
            panics: Mutex::new(HashMap::new()),
        }
    }

    /// Record one panic against `key`. Returns `Some(total_panics)` when
    /// this panic crossed the threshold and quarantined the cell.
    pub fn note_panic(&self, key: &str) -> Option<u32> {
        let mut map = self.panics.lock().unwrap_or_else(|p| p.into_inner());
        let n = map.entry(key.to_string()).or_insert(0);
        *n += 1;
        if *n == self.threshold {
            Some(*n)
        } else {
            None
        }
    }

    /// Whether `key` is quarantined.
    pub fn is_quarantined(&self, key: &str) -> bool {
        self.panics
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(key)
            .is_some_and(|n| *n >= self.threshold)
    }

    /// Number of quarantined cells (the `/metrics` gauge).
    pub fn len(&self) -> usize {
        self.panics
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .filter(|n| **n >= self.threshold)
            .count()
    }

    /// True when no cell is quarantined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Quarantine {
    /// Threshold 3 — the serving default.
    fn default() -> Self {
        Quarantine::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_cools_probes_and_closes() {
        let b = CircuitBreaker::new(2, Duration::from_millis(50));
        assert_eq!(b.try_acquire(), BreakerDecision::Allow);
        assert!(!b.on_panic(), "first strike must not trip");
        assert!(b.on_panic(), "second strike trips");
        assert_eq!(b.state_gauge(), 1);
        match b.try_acquire() {
            BreakerDecision::Reject { retry_after_secs } => assert!(retry_after_secs >= 1),
            other => panic!("open breaker must reject, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(b.try_acquire(), BreakerDecision::AllowProbe);
        assert_eq!(b.state_gauge(), 2);
        // Second caller during the probe is held off.
        assert!(matches!(b.try_acquire(), BreakerDecision::Reject { .. }));
        assert!(b.on_success(), "clean probe closes the breaker");
        assert_eq!(b.state_gauge(), 0);
        assert_eq!(b.try_acquire(), BreakerDecision::Allow);
    }

    #[test]
    fn panicking_probe_reopens_with_full_cooldown() {
        let b = CircuitBreaker::new(1, Duration::from_millis(40));
        assert!(b.on_panic());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(b.try_acquire(), BreakerDecision::AllowProbe);
        assert!(b.on_panic(), "probe panic re-trips");
        assert_eq!(b.state_gauge(), 1);
        assert!(matches!(b.try_acquire(), BreakerDecision::Reject { .. }));
    }

    #[test]
    fn success_resets_accumulated_strikes() {
        let b = CircuitBreaker::new(3, Duration::from_secs(10));
        assert!(!b.on_panic());
        assert!(!b.on_panic());
        b.on_success();
        // Strikes were consecutive-only: two more panics still don't trip.
        assert!(!b.on_panic());
        assert!(!b.on_panic());
        assert!(b.on_panic());
    }

    #[test]
    fn quarantine_trips_per_cell_at_threshold() {
        let q = Quarantine::new(2);
        assert!(q.is_empty());
        assert_eq!(q.note_panic("aa"), None);
        assert!(!q.is_quarantined("aa"));
        assert_eq!(q.note_panic("aa"), Some(2), "threshold crossing reports");
        assert!(q.is_quarantined("aa"));
        assert!(!q.is_quarantined("bb"));
        // Extra panics past the threshold don't re-report the crossing.
        assert_eq!(q.note_panic("aa"), None);
        assert_eq!(q.len(), 1);
    }
}
