//! Exact-bit serialization of sweep-cell results.
//!
//! The content-addressed cell cache in [`crate::cache`] persists samples
//! through this codec. Samples are serialized **exactly**: every `f64` as
//! its IEEE-754 bit pattern in hex, durations as nanoseconds, histograms
//! as raw bucket vectors. A restored sample is therefore `==` to the
//! sample a re-run would produce, which is what makes cached (and so
//! resumed) and freshly computed campaign exports byte-identical.

use crate::metrics::{FaultCounters, PollingSample, PwwSample};
use comb_sim::stats::DurationHistogram;
use comb_sim::SimDuration;
use std::fmt::Write as _;

/// One finished sweep cell's result, either method.
#[derive(Debug, Clone, PartialEq)]
pub enum PointSample {
    /// A polling-method cell.
    Polling(PollingSample),
    /// A PWW-method cell (also used by the overhead campaigns).
    Pww(PwwSample),
}

impl PointSample {
    /// CPU availability, the metric both methods report and the one the
    /// adaptive stopping rule converges on.
    pub fn availability(&self) -> f64 {
        match self {
            PointSample::Polling(s) => s.availability,
            PointSample::Pww(s) => s.availability,
        }
    }

    /// Delivered bandwidth in MB/s (both methods report it).
    pub fn bandwidth_mbs(&self) -> f64 {
        match self {
            PointSample::Polling(s) => s.bandwidth_mbs,
            PointSample::Pww(s) => s.bandwidth_mbs,
        }
    }
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Whitespace-token cursor over one encoded line.
struct Fields<'a>(std::str::SplitWhitespace<'a>);

impl<'a> Fields<'a> {
    fn u64(&mut self) -> Option<u64> {
        self.0.next()?.parse().ok()
    }

    fn u128(&mut self) -> Option<u128> {
        self.0.next()?.parse().ok()
    }

    fn f64(&mut self) -> Option<f64> {
        let tok = self.0.next()?;
        if tok.len() != 16 {
            return None;
        }
        u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
    }

    fn dur(&mut self) -> Option<SimDuration> {
        self.u64().map(SimDuration::from_nanos)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.0.next()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }

    fn buckets(&mut self) -> Option<Vec<u64>> {
        let tok = self.0.next()?;
        if tok == "-" {
            return Some(Vec::new());
        }
        tok.split(',').map(|b| b.parse().ok()).collect()
    }

    fn done(mut self) -> Option<()> {
        match self.0.next() {
            None => Some(()),
            Some(_) => None,
        }
    }
}

fn push_faults(out: &mut String, f: &FaultCounters) {
    let _ = write!(
        out,
        " {} {} {} {} {}",
        f.lost_packets, f.retransmissions, f.ctl_dropped, f.storm_interrupts, f.rndv_retries
    );
}

fn read_faults(f: &mut Fields) -> Option<FaultCounters> {
    Some(FaultCounters {
        lost_packets: f.u64()?,
        retransmissions: f.u64()?,
        ctl_dropped: f.u64()?,
        storm_interrupts: f.u64()?,
        rndv_retries: f.u64()?,
    })
}

/// Encode one sample as a single line fragment: `polling <fields…>` or
/// `pww <fields…>` (no trailing newline).
pub fn encode_sample(sample: &PointSample) -> String {
    let mut out = String::new();
    match sample {
        PointSample::Polling(s) => {
            let _ = write!(
                out,
                "polling {} {} {} {} {} {} {} {} {} {}",
                s.poll_interval,
                s.msg_bytes,
                s.total_iters,
                s.warmup_polls,
                s.work_only.as_nanos(),
                s.elapsed.as_nanos(),
                f64_hex(s.availability),
                f64_hex(s.bandwidth_mbs),
                s.messages_received,
                s.stolen.as_nanos(),
            );
            push_faults(&mut out, &s.faults);
        }
        PointSample::Pww(s) => {
            let _ = write!(
                out,
                "pww {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                s.work_interval,
                s.msg_bytes,
                s.cycles,
                s.batch,
                u8::from(s.test_in_work),
                s.post_phase.as_nanos(),
                s.post_per_msg.as_nanos(),
                s.work_with_mh.as_nanos(),
                s.work_only.as_nanos(),
                s.wait_phase.as_nanos(),
                s.wait_per_msg.as_nanos(),
                f64_hex(s.availability),
                f64_hex(s.bandwidth_mbs),
                s.stolen.as_nanos(),
            );
            let buckets = s.wait_histogram.raw_buckets();
            if buckets.is_empty() {
                out.push_str(" -");
            } else {
                out.push(' ');
                for (i, b) in buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{b}");
                }
            }
            let _ = write!(out, " {}", s.wait_histogram.sum_nanos());
            push_faults(&mut out, &s.faults);
        }
    }
    out
}

/// Decode a fragment produced by [`encode_sample`]. Trailing tokens are
/// an error: a line with extra fields is corrupt, not forward-compatible.
pub fn decode_sample(fragment: &str) -> Option<PointSample> {
    let mut f = Fields(fragment.split_whitespace());
    let sample = match f.0.next()? {
        "polling" => {
            let s = PollingSample {
                poll_interval: f.u64()?,
                msg_bytes: f.u64()?,
                total_iters: f.u64()?,
                warmup_polls: f.u64()?,
                work_only: f.dur()?,
                elapsed: f.dur()?,
                availability: f.f64()?,
                bandwidth_mbs: f.f64()?,
                messages_received: f.u64()?,
                stolen: f.dur()?,
                faults: read_faults(&mut f)?,
            };
            PointSample::Polling(s)
        }
        "pww" => {
            let s = PwwSample {
                work_interval: f.u64()?,
                msg_bytes: f.u64()?,
                cycles: f.u64()?,
                batch: f.u64()?,
                test_in_work: f.bool()?,
                post_phase: f.dur()?,
                post_per_msg: f.dur()?,
                work_with_mh: f.dur()?,
                work_only: f.dur()?,
                wait_phase: f.dur()?,
                wait_per_msg: f.dur()?,
                availability: f.f64()?,
                bandwidth_mbs: f.f64()?,
                stolen: f.dur()?,
                wait_histogram: {
                    let buckets = f.buckets()?;
                    let sum = f.u128()?;
                    DurationHistogram::from_raw(buckets, sum)
                },
                faults: read_faults(&mut f)?,
            };
            PointSample::Pww(s)
        }
        _ => return None,
    };
    f.done()?;
    Some(sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn polling_sample() -> PollingSample {
        PollingSample {
            poll_interval: 1000,
            msg_bytes: 102_400,
            total_iters: 500_000,
            warmup_polls: 4,
            work_only: SimDuration::from_nanos(123_456_789),
            elapsed: SimDuration::from_nanos(987_654_321),
            availability: 0.1 + 0.2, // deliberately not exactly 0.3
            bandwidth_mbs: 87.300_000_000_000_01,
            messages_received: 42,
            stolen: SimDuration::from_nanos(555),
            faults: FaultCounters {
                lost_packets: 1,
                retransmissions: 2,
                ctl_dropped: 3,
                storm_interrupts: 4,
                rndv_retries: 5,
            },
        }
    }

    fn pww_sample() -> PwwSample {
        let mut hist = DurationHistogram::new();
        hist.record(SimDuration::from_micros(3));
        hist.record(SimDuration::from_nanos(700));
        PwwSample {
            work_interval: 10_000,
            msg_bytes: 102_400,
            cycles: 12,
            batch: 1,
            test_in_work: true,
            post_phase: SimDuration::from_nanos(11),
            post_per_msg: SimDuration::from_nanos(12),
            work_with_mh: SimDuration::from_nanos(13),
            work_only: SimDuration::from_nanos(14),
            wait_phase: SimDuration::from_nanos(15),
            wait_per_msg: SimDuration::from_nanos(16),
            availability: f64::MIN_POSITIVE, // subnormal-adjacent edge
            bandwidth_mbs: 1.0 / 3.0,
            stolen: SimDuration::ZERO,
            wait_histogram: hist,
            faults: FaultCounters::default(),
        }
    }

    #[test]
    fn sample_fragments_roundtrip_exactly() {
        for sample in [
            PointSample::Polling(polling_sample()),
            PointSample::Pww(pww_sample()),
        ] {
            let frag = encode_sample(&sample);
            assert!(!frag.starts_with(' ') && !frag.ends_with('\n'), "{frag:?}");
            let got = decode_sample(&frag).expect("fragment must parse");
            assert_eq!(got, sample, "restore must be bit-exact");
        }
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        let frag = encode_sample(&PointSample::Polling(polling_sample()));
        assert!(decode_sample(&format!("{frag} 7")).is_none());
        assert!(
            decode_sample(&frag[..frag.len() - 2]).is_none(),
            "truncated"
        );
        assert!(decode_sample("neither 1 2 3").is_none());
    }
}
