//! Campaign resilience: a panicking worker or a watchdog-aborted
//! (livelocked / over-deadline) point must never take down the rest of
//! the campaign. Each cell returns its outcome as a value, with its panic
//! caught, so the pool keeps draining, the failure is recorded against
//! its cell, and every other cell still produces its sample.

use comb::core::{
    catch_worker_panic, run_ordered, run_polling_point, CombError, ErrorKind, MethodConfig,
    PollingSample, Transport,
};
use comb::sim::{SimTime, WatchdogConfig};

/// A small, fast polling configuration for integration points.
fn small_cfg() -> MethodConfig {
    let mut cfg = MethodConfig::new(Transport::Gm, 10 * 1024);
    cfg.target_iters = 200_000;
    cfg.max_intervals = 50;
    cfg
}

/// Every cell's outcome, in input order, on `jobs` workers.
fn outcomes(
    jobs: usize,
    xs: &[u64],
    cell: impl Fn(u64) -> Result<PollingSample, CombError> + Sync,
) -> Vec<Result<PollingSample, CombError>> {
    run_ordered(jobs, xs, |&x| {
        Ok::<_, CombError>(catch_worker_panic(|| cell(x)))
    })
    .unwrap()
}

#[test]
fn panicking_worker_cannot_take_down_a_campaign() {
    let cfg = small_cfg();
    let xs: Vec<u64> = vec![1_000, 10_000, 100_000, 1_000_000];
    for jobs in [1usize, 4] {
        let outcomes = outcomes(jobs, &xs, |x| {
            if x == 10_000 {
                panic!("worker bug at x={x}");
            }
            run_polling_point(&cfg, x).map_err(CombError::from)
        });
        assert_eq!(outcomes.len(), xs.len());
        for (&x, outcome) in xs.iter().zip(&outcomes) {
            match outcome {
                Err(error) => {
                    assert_eq!(x, 10_000, "only the panicking cell may fail (jobs={jobs})");
                    assert_eq!(error.kind, ErrorKind::WorkerPanic);
                    assert!(error.message.contains("worker bug at x=10000"));
                }
                Ok(sample) => {
                    assert_ne!(x, 10_000);
                    assert!(
                        sample.messages_received > 0,
                        "surviving cells ran (jobs={jobs})"
                    );
                }
            }
        }
    }
}

#[test]
fn watchdog_aborted_point_leaves_the_campaign_running() {
    // The middle point runs under an absurdly tight virtual deadline and
    // must be aborted by the watchdog; its neighbours run unwatched.
    let cfg = small_cfg();
    let mut doomed = cfg.clone();
    doomed.watchdog = Some(WatchdogConfig::lenient().with_deadline(SimTime::from_nanos(1_000)));
    let xs: Vec<u64> = vec![1_000, 10_000, 100_000];
    for jobs in [1usize, 4] {
        let outcomes = outcomes(jobs, &xs, |x| {
            let cfg = if x == 10_000 { &doomed } else { &cfg };
            run_polling_point(cfg, x).map_err(CombError::from)
        });
        let mut failed = 0;
        for (&x, outcome) in xs.iter().zip(&outcomes) {
            match outcome {
                Err(error) => {
                    failed += 1;
                    assert_eq!(x, 10_000);
                    assert_eq!(error.kind, ErrorKind::Watchdog, "jobs={jobs}: {error}");
                    assert_eq!(error.exit_code(), 3, "watchdog aborts map to exit 3");
                }
                Ok(_) => assert_ne!(x, 10_000),
            }
        }
        assert_eq!(failed, 1, "exactly the watched cell fails (jobs={jobs})");
    }
}
