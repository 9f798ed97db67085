//! A fixed unit of reference work, timed between measured slices so that a
//! run can state its times at a fixed host speed.
//!
//! The benchmark's host is a shared VM whose speed drifts by up to 2x over
//! minutes as neighbours load the machine. The drift slows the reference
//! work as much as the library: across runs of every workload, run medians
//! of operation time and of this unit correlate at 0.84-0.99. Dividing one
//! by the other removes most of the drift; see README.md for the data.
//!
//! The unit does what the library spends its time on: hand-offs between two
//! threads (every simulated process is a thread) and allocation-heavy work
//! on data larger than the caches. It calls no code of the library, so no
//! change to the library can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::sync_channel;
use std::time::Instant;

/// Host milliseconds of one unit on the host the benchmark was defined on
/// (2-core x86-64 VM, quiet periods): the speed scaled times are stated at.
pub const NOMINAL_MS: f64 = 20.0;

/// Units timed back to back each time the reference is sampled: one unit
/// is noisy, and a run of long operations samples it only a few times.
const UNITS_PER_SAMPLE: usize = 3;

/// Round trips between two threads over a rendezvous channel.
const HANDOFFS: u32 = 1_000;
/// Rounds of building, sorting and indexing `SORT_LEN` integers.
const SORT_ROUNDS: u64 = 4;
const SORT_LEN: u64 = 100_000;

/// Time [`UNITS_PER_SAMPLE`] units, appending each one's milliseconds.
pub fn sample(refs: &mut Vec<f64>) {
    refs.extend((0..UNITS_PER_SAMPLE).map(|_| unit_ms()));
}

/// Host milliseconds of one unit of reference work.
fn unit_ms() -> f64 {
    let t0 = Instant::now();
    let (to_echo, echo_in) = sync_channel::<u32>(0);
    let (echo_out, from_echo) = sync_channel::<u32>(0);
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in echo_in {
                if echo_out.send(v).is_err() {
                    break;
                }
            }
        });
        for i in 0..HANDOFFS {
            to_echo
                .send(i)
                .expect("the echo thread runs until its input closes");
            black_box(from_echo.recv().expect("the echo thread answers"));
        }
        drop(to_echo);
    });
    let mut total = 0u64;
    for round in 0..SORT_ROUNDS {
        let mut v: Vec<u64> = (0..SORT_LEN)
            .map(|i| (i ^ round).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        v.sort_unstable();
        let index: BTreeMap<u64, u64> = v.iter().step_by(16).map(|&x| (x, x)).collect();
        total = total.wrapping_add(index.len() as u64 + v[v.len() / 2]);
    }
    black_box(total);
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_times_several_units() {
        let mut refs = vec![1.0];
        sample(&mut refs);
        assert_eq!(refs.len(), 1 + UNITS_PER_SAMPLE);
        assert!(
            refs[1..].iter().all(|&ms| ms.is_finite() && ms > 0.0),
            "{refs:?}"
        );
    }
}
