//! Canonical text rendering of sweep results — the single source of the
//! bytes `comb sweep` prints.
//!
//! Both the CLI and the `comb serve` HTTP front end render through these
//! functions, so an HTTP `POST /v1/sweep` response body is byte-identical
//! to the stdout of the equivalent `comb sweep` invocation — the serving
//! API's reproducibility contract is checked by diffing the two.
//!
//! Two shapes, matching the CLI's long-standing behaviour:
//!
//! * **Faulted sweeps** render as CSV with the fault plan in a `#` header,
//!   so two runs of the same seeded plan can be diffed byte-for-byte.
//! * **Plain sweeps** render as a right-aligned human table.

use comb_core::{CellMethod, MethodConfig, PointSample, PollingSample, PwwSample};
use std::fmt::Write;

/// Render a sweep of `method` cells exactly as `comb sweep` prints it:
/// [`render_polling_sweep`] or [`render_pww_sweep`].
pub fn render_sweep(cfg: &MethodConfig, method: CellMethod, samples: Vec<PointSample>) -> String {
    let mut poll = Vec::new();
    let mut pww = Vec::new();
    for sample in samples {
        match sample {
            PointSample::Polling(s) => poll.push(s),
            PointSample::Pww(s) => pww.push(s),
        }
    }
    match method {
        CellMethod::Polling => render_polling_sweep(cfg, &poll),
        CellMethod::Pww { .. } => render_pww_sweep(cfg, &pww),
    }
}

/// Render a polling sweep exactly as `comb sweep polling` prints it
/// (faulted CSV when `cfg.fault` is active, plain table otherwise).
/// The returned string ends with a newline.
pub fn render_polling_sweep(cfg: &MethodConfig, samples: &[PollingSample]) -> String {
    let mut out = String::new();
    if !cfg.fault.is_none() {
        push_fault_header(&mut out, "polling", cfg);
        let _ = writeln!(
            out,
            "poll_interval,bandwidth_mbs,availability,messages,\
             lost_packets,retransmissions,ctl_dropped,storm_interrupts,rndv_retries"
        );
        for s in samples {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                s.poll_interval,
                s.bandwidth_mbs,
                s.availability,
                s.messages_received,
                s.faults.lost_packets,
                s.faults.retransmissions,
                s.faults.ctl_dropped,
                s.faults.storm_interrupts,
                s.faults.rndv_retries
            );
        }
        return out;
    }
    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>10} {:>8} {:>12} {:>12}",
        "poll_iters", "bw_MB/s", "avail", "msgs", "elapsed", "stolen"
    );
    for s in samples {
        let _ = writeln!(
            out,
            "{:>12} {:>12.2} {:>10.4} {:>8} {:>12} {:>12}",
            s.poll_interval,
            s.bandwidth_mbs,
            s.availability,
            s.messages_received,
            s.elapsed.to_string(),
            s.stolen.to_string()
        );
    }
    out
}

/// Render a post-work-wait sweep exactly as `comb sweep pww` prints it.
/// The returned string ends with a newline.
pub fn render_pww_sweep(cfg: &MethodConfig, samples: &[PwwSample]) -> String {
    let mut out = String::new();
    if !cfg.fault.is_none() {
        push_fault_header(&mut out, "pww", cfg);
        let _ = writeln!(
            out,
            "work_interval,bandwidth_mbs,availability,post_per_msg_ns,wait_per_msg_ns,\
             lost_packets,retransmissions,ctl_dropped,storm_interrupts,rndv_retries"
        );
        for s in samples {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{}",
                s.work_interval,
                s.bandwidth_mbs,
                s.availability,
                s.post_per_msg.as_nanos(),
                s.wait_per_msg.as_nanos(),
                s.faults.lost_packets,
                s.faults.retransmissions,
                s.faults.ctl_dropped,
                s.faults.storm_interrupts,
                s.faults.rndv_retries
            );
        }
        return out;
    }
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "work_iters", "bw_MB/s", "avail", "post/msg", "wait/msg", "work+MH", "work_only"
    );
    for s in samples {
        let _ = writeln!(
            out,
            "{:>12} {:>10.2} {:>8.4} {:>12} {:>12} {:>12} {:>12}",
            s.work_interval,
            s.bandwidth_mbs,
            s.availability,
            s.post_per_msg.to_string(),
            s.wait_per_msg.to_string(),
            s.work_with_mh.to_string(),
            s.work_only.to_string()
        );
    }
    out
}

fn push_fault_header(out: &mut String, method: &str, cfg: &MethodConfig) {
    let _ = writeln!(
        out,
        "# comb sweep {} | platform: {} | msg_bytes: {}",
        method,
        cfg.transport.name(),
        cfg.msg_bytes
    );
    let _ = writeln!(out, "# fault: {}", cfg.fault);
}

#[cfg(test)]
mod tests {
    use super::*;
    use comb_core::{run_sweep, PollingParams, PwwParams, Transport};

    fn small_cfg() -> MethodConfig {
        let mut cfg = MethodConfig::new(Transport::Gm, 10 * 1024);
        cfg.cycles = 2;
        cfg.target_iters = 200_000;
        cfg.max_intervals = 300;
        cfg.jobs = 1;
        cfg
    }

    #[test]
    fn polling_table_shape() {
        let cfg = small_cfg();
        let samples = run_sweep(&cfg, &[10_000, 100_000], |x| PollingParams::new(&cfg, x)).unwrap();
        let text = render_polling_sweep(&cfg, &samples);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per sample");
        assert!(lines[0].contains("poll_iters"));
        assert!(lines[0].contains("bw_MB/s"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn pww_table_shape() {
        let cfg = small_cfg();
        let samples = run_sweep(&cfg, &[10_000], |x| PwwParams::new(&cfg, x, false)).unwrap();
        let text = render_pww_sweep(&cfg, &samples);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("work_iters"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn faulted_sweep_renders_csv_with_plan_header() {
        let mut cfg = small_cfg();
        cfg.fault = comb_hw::fault::FaultPlan::from_specs(&["loss=uniform:0.01"], Some(7)).unwrap();
        let samples = run_sweep(&cfg, &[10_000], |x| PollingParams::new(&cfg, x)).unwrap();
        let text = render_polling_sweep(&cfg, &samples);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("# comb sweep polling | platform: "));
        assert!(lines[1].starts_with("# fault: "));
        assert!(lines[2].starts_with("poll_interval,bandwidth_mbs,"));
        assert_eq!(lines.len(), 4);
    }
}
