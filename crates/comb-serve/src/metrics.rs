//! Serving metrics — request counters plus latency quantiles, rendered as
//! plain `name value` lines for `GET /metrics`.

use comb_core::QuantileWindow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared counters for one server.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Requests fully parsed and dispatched.
    pub requests: AtomicU64,
    /// Requests currently being handled.
    pub in_flight: AtomicU64,
    /// Connections rejected at admission (429).
    pub rejected: AtomicU64,
    /// Requests cut off at the per-request deadline (408).
    pub request_timeouts: AtomicU64,
    /// Saturation-lane requests the priority policy still answered.
    pub shed_served: AtomicU64,
    /// Saturation-lane requests shed with a derived `Retry-After` (429).
    pub shed_rejected: AtomicU64,
    /// Times the worker-panic circuit breaker tripped open.
    pub breaker_opens: AtomicU64,
    /// Campaign requests refused because their deadline expired before or
    /// during execution (503).
    pub deadline_expired: AtomicU64,
    latency_us: Mutex<QuantileWindow>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Fresh zeroed metrics with a 4096-observation latency window.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            requests: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            request_timeouts: AtomicU64::new(0),
            shed_served: AtomicU64::new(0),
            shed_rejected: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            latency_us: Mutex::new(QuantileWindow::new(4096)),
        }
    }

    /// Derive a `Retry-After` hint (whole seconds) from how much work is
    /// ahead of a newly rejected request and how long requests have been
    /// taking: `ceil((queued + in_flight) × p50)`, clamped to `[1, 60]`.
    /// With no latency observations yet the floor of 1 s applies — the
    /// documented contract is "never zero, never silent".
    pub fn retry_after_secs(&self, queued: usize, in_flight: usize) -> u64 {
        let p50_s = self
            .latency_quantile_us(0.50)
            .map(|us| us / 1e6)
            .unwrap_or(0.0);
        let ahead = (queued + in_flight) as f64;
        let secs = (ahead * p50_s).ceil();
        if secs.is_finite() {
            (secs as u64).clamp(1, 60)
        } else {
            60
        }
    }

    /// Record one request's wall-clock latency in microseconds.
    pub fn record_latency_us(&self, us: f64) {
        self.latency_us
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record(us);
    }

    /// Latency quantile in microseconds over the recent window.
    pub fn latency_quantile_us(&self, q: f64) -> Option<f64> {
        self.latency_us
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .quantile(q)
    }

    /// Render the `/metrics` body. Cache counters come from the server's
    /// shared [`comb_core::CellCache`]; queue and worker gauges from the
    /// acceptor; `extra` carries caller-owned gauges (breaker state,
    /// quarantine size, transport-fault counters) as additional
    /// `comb_serve_<name>` lines.
    pub fn render(
        &self,
        cache: Option<comb_core::CacheStats>,
        queue_depth: usize,
        queue_capacity: usize,
        workers: usize,
        extra: &[(&str, u64)],
    ) -> String {
        let mut out = String::new();
        let mut line = |name: &str, v: String| {
            out.push_str("comb_serve_");
            out.push_str(name);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        line(
            "requests_total",
            self.requests.load(Ordering::Relaxed).to_string(),
        );
        line(
            "in_flight",
            self.in_flight.load(Ordering::Relaxed).to_string(),
        );
        line(
            "rejected_total",
            self.rejected.load(Ordering::Relaxed).to_string(),
        );
        line(
            "request_timeouts_total",
            self.request_timeouts.load(Ordering::Relaxed).to_string(),
        );
        line(
            "shed_served_total",
            self.shed_served.load(Ordering::Relaxed).to_string(),
        );
        line(
            "shed_rejected_total",
            self.shed_rejected.load(Ordering::Relaxed).to_string(),
        );
        line(
            "breaker_opens_total",
            self.breaker_opens.load(Ordering::Relaxed).to_string(),
        );
        line(
            "deadline_expired_total",
            self.deadline_expired.load(Ordering::Relaxed).to_string(),
        );
        line("queue_depth", queue_depth.to_string());
        line("queue_capacity", queue_capacity.to_string());
        line("workers", workers.to_string());
        for (name, v) in extra {
            line(name, v.to_string());
        }
        let c = cache.unwrap_or_default();
        line("cache_hits_mem", c.hits_mem.to_string());
        line("cache_hits_disk", c.hits_disk.to_string());
        line("cache_misses", c.misses.to_string());
        line("cache_joined", c.joined.to_string());
        line("cache_stored", c.stored.to_string());
        let fmt_us = |q: Option<f64>| match q {
            Some(v) => format!("{v:.0}"),
            None => "0".to_string(),
        };
        line("latency_p50_us", fmt_us(self.latency_quantile_us(0.50)));
        line("latency_p99_us", fmt_us(self.latency_quantile_us(0.99)));
        out
    }
}

/// Parse one gauge back out of a rendered `/metrics` body (used by tests
/// and the serving bench).
pub fn metric_value(body: &str, name: &str) -> Option<f64> {
    let prefix = format!("comb_serve_{name} ");
    body.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_quantiles() {
        let m = ServeMetrics::new();
        m.requests.store(5, Ordering::Relaxed);
        m.rejected.store(2, Ordering::Relaxed);
        for us in [100.0, 200.0, 300.0, 400.0] {
            m.record_latency_us(us);
        }
        let body = m.render(None, 1, 8, 4, &[("breaker_state", 2)]);
        assert_eq!(metric_value(&body, "requests_total"), Some(5.0));
        assert_eq!(metric_value(&body, "rejected_total"), Some(2.0));
        assert_eq!(metric_value(&body, "queue_depth"), Some(1.0));
        assert_eq!(metric_value(&body, "queue_capacity"), Some(8.0));
        assert_eq!(metric_value(&body, "workers"), Some(4.0));
        assert_eq!(metric_value(&body, "latency_p50_us"), Some(200.0));
        assert_eq!(metric_value(&body, "latency_p99_us"), Some(400.0));
        assert_eq!(metric_value(&body, "cache_misses"), Some(0.0));
        assert_eq!(metric_value(&body, "request_timeouts_total"), Some(0.0));
        assert_eq!(metric_value(&body, "shed_served_total"), Some(0.0));
        assert_eq!(metric_value(&body, "breaker_state"), Some(2.0));
        assert_eq!(metric_value(&body, "no_such_metric"), None);
    }

    #[test]
    fn empty_latency_window_reports_zero_not_nan() {
        // Satellite regression: an idle server's /metrics must say 0, not
        // NaN, for its latency quantiles.
        let m = ServeMetrics::new();
        let body = m.render(None, 0, 8, 4, &[]);
        assert_eq!(metric_value(&body, "latency_p50_us"), Some(0.0));
        assert_eq!(metric_value(&body, "latency_p99_us"), Some(0.0));
        assert!(!body.contains("NaN"), "{body}");
    }

    #[test]
    fn retry_after_scales_with_backlog_and_latency() {
        let m = ServeMetrics::new();
        // No observations: documented floor of 1 s.
        assert_eq!(m.retry_after_secs(10, 4), 1);
        // p50 = 0.5 s; 8 requests ahead → ceil(4.0) = 4 s.
        for _ in 0..16 {
            m.record_latency_us(500_000.0);
        }
        assert_eq!(m.retry_after_secs(4, 4), 4);
        // Clamped at 60 s no matter how deep the backlog looks.
        assert_eq!(m.retry_after_secs(100_000, 4), 60);
        // Never zero, even with a healthy fast server and empty queue.
        let fast = ServeMetrics::new();
        fast.record_latency_us(50.0);
        assert_eq!(fast.retry_after_secs(0, 0), 1);
    }
}
