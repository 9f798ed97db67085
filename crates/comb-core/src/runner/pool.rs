//! Bounded worker pool executing independent sweep points in parallel
//! while preserving input order.
//!
//! Every COMB data point is an independent, bit-for-bit deterministic
//! simulation (a fresh cluster per point, exactly as the paper restarts
//! the benchmark per configuration), so points can run on any thread in
//! any order — the only requirement for byte-identical output is that
//! results are reassembled **in input order**, which this pool
//! guarantees by writing each result into its item's slot.
//!
//! The calling thread is one of the workers: `jobs` workers spawn
//! `jobs − 1` scoped threads, and a single worker spawns none.
//! Scheduling is a shared atomic cursor: idle workers steal the next
//! unclaimed item, so long points (small poll intervals simulate many
//! more events) do not leave the other workers idle behind a static
//! partition. A worker panic or point error aborts the remaining work
//! and is reported as a [`RunError`] instead of hanging the pool. A caller
//! that wants every item's outcome (the chaos soak) returns each outcome
//! as a value and catches its own panics with [`catch_worker_panic`], so
//! nothing aborts the drain.

use crate::runner::RunError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers the platform supports (`available_parallelism`,
/// falling back to 1 when unknown).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a requested job count to an actual worker count: `0` means
/// *auto*, [`available_jobs`]; any positive request is used as given. The
/// library reads no environment: a front end that offers an environment
/// default (the CLI's `COMB_JOBS`) resolves it before calling in.
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        available_jobs()
    }
}

/// Claim the indices `0..n` from one shared cursor on `jobs` workers: the
/// calling thread and `jobs − 1` scoped threads. Once `work` returns false
/// for an index, no worker claims another.
fn drain(jobs: usize, n: usize, work: impl Fn(usize) -> bool + Sync) {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = || {
        while !stop.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if !work(i) {
                stop.store(true, Ordering::Relaxed);
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(worker);
        }
        worker();
    });
}

/// One result slot per item, filled by whichever worker ran the item.
fn slots<T>(n: usize) -> Vec<Mutex<Option<T>>> {
    (0..n).map(|_| Mutex::new(None)).collect()
}

fn fill<T>(slot: &Mutex<Option<T>>, value: T) {
    *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(value);
}

fn take<T>(slot: Mutex<Option<T>>) -> Option<T> {
    slot.into_inner().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` over every item on up to `jobs` workers (`0` = auto, see
/// [`effective_jobs`]) and return the results **in input order**. The
/// calling thread is one of the workers, so `jobs` workers spawn
/// `jobs − 1` threads and one worker spawns none.
///
/// The first failing item's error is returned (lowest index wins, so
/// the error is deterministic too); a panicking item, on any worker, is
/// converted into [`RunError::WorkerPanic`]. After any failure the
/// remaining unstarted items are skipped.
pub fn run_ordered<I, T, E>(
    jobs: usize,
    items: &[I],
    f: impl Fn(&I) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    I: Sync,
    T: Send,
    E: Send + From<RunError>,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    let slots = slots(items.len());
    drain(jobs, items.len(), |i| {
        let result = catch_worker_panic(|| f(&items[i]));
        let ok = result.is_ok();
        fill(&slots[i], result);
        ok
    });

    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        match take(slot) {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // Skipped after an abort; the error lives in an earlier or
            // later slot. Keep scanning for it.
            None => {}
        }
    }
    if out.len() == items.len() {
        Ok(out)
    } else {
        // Every missing slot means some slot held an error; if we get
        // here without having returned one, a later-indexed worker
        // failed first. Scan order above guarantees we returned the
        // lowest-indexed error, so reaching this point with no error is
        // a harness bug.
        Err(E::from(RunError::NoResult))
    }
}

/// Run `f`, converting a panic inside it into
/// [`RunError::WorkerPanic`] carrying the panic message. [`run_ordered`]
/// wraps every item in it; a closure that returns each item's outcome as a
/// value wraps its own work in it so a panic is that item's outcome.
pub fn catch_worker_panic<T, E: From<RunError>>(f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(E::from(RunError::WorkerPanic {
            message: panic_message(payload.as_ref()),
        }))
    })
}

/// Bounded admission control in front of a campaign pool.
///
/// A front end (e.g. `comb serve`) holds one [`AdmissionGate`] per pool
/// and calls [`try_enter`](AdmissionGate::try_enter) before enqueueing a
/// campaign. When all slots are taken the caller gets `None` immediately
/// — the non-blocking answer that lets an HTTP acceptor turn saturation
/// into `429 + Retry-After` instead of unbounded queue growth. Slots are
/// released by dropping the returned [`AdmissionPermit`], so a panicking
/// request path can never leak capacity. The gate is cheaply cloneable
/// (clones share the same slots) and permits are owned values, so a
/// permit can ride along with its connection through a queue and across
/// threads.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    inner: std::sync::Arc<GateInner>,
}

#[derive(Debug)]
struct GateInner {
    capacity: usize,
    in_use: AtomicUsize,
}

impl AdmissionGate {
    /// A gate admitting at most `capacity` (≥ 1) concurrent holders.
    pub fn new(capacity: usize) -> AdmissionGate {
        AdmissionGate {
            inner: std::sync::Arc::new(GateInner {
                capacity: capacity.max(1),
                in_use: AtomicUsize::new(0),
            }),
        }
    }

    /// Maximum concurrent permits.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Permits currently held.
    pub fn in_use(&self) -> usize {
        self.inner
            .in_use
            .load(Ordering::Acquire)
            .min(self.capacity())
    }

    /// Claim a slot without blocking; `None` when the gate is full.
    pub fn try_enter(&self) -> Option<AdmissionPermit> {
        let inner = &self.inner;
        let mut cur = inner.in_use.load(Ordering::Relaxed);
        loop {
            if cur >= inner.capacity {
                return None;
            }
            match inner.in_use.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(AdmissionPermit {
                        gate: std::sync::Arc::clone(inner),
                    })
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A held admission slot; dropping it releases the slot.
#[derive(Debug)]
pub struct AdmissionPermit {
    gate: std::sync::Arc<GateInner>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.gate.in_use.fetch_sub(1, Ordering::AcqRel);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{CombError, ErrorKind};
    use std::time::Duration;

    #[test]
    fn admission_gate_caps_and_releases() {
        let gate = AdmissionGate::new(2);
        assert_eq!(gate.capacity(), 2);
        let a = gate.try_enter().expect("slot 1");
        let b = gate.try_enter().expect("slot 2");
        assert_eq!(gate.in_use(), 2);
        assert!(gate.try_enter().is_none(), "gate full");
        drop(a);
        assert_eq!(gate.in_use(), 1);
        let c = gate.try_enter().expect("freed slot reusable");
        drop(b);
        drop(c);
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn admission_gate_is_race_free_under_contention() {
        let gate = AdmissionGate::new(3);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        if let Some(permit) = gate.try_enter() {
                            let now = gate.in_use();
                            peak.fetch_max(now, Ordering::Relaxed);
                            assert!(now <= 3, "over-admitted: {now}");
                            drop(permit);
                        }
                    }
                });
            }
        });
        assert_eq!(gate.in_use(), 0);
        assert!(peak.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..57).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let out = run_ordered(jobs, &items, |&i| Ok::<_, RunError>(i * 10)).unwrap();
            assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out = run_ordered(4, &[] as &[u64], |&i| Ok::<_, RunError>(i)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn error_is_lowest_index_and_aborts() {
        let items: Vec<u64> = (0..100).collect();
        let err = run_ordered(4, &items, |&i| {
            if i >= 40 {
                Err(RunError::NoResult)
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert!(matches!(err, RunError::NoResult));
    }

    #[test]
    fn worker_panic_becomes_error_not_hang() {
        let items: Vec<u64> = (0..32).collect();
        let err = run_ordered(4, &items, |&i| {
            if i == 7 {
                panic!("point {i} exploded");
            }
            Ok(i)
        })
        .unwrap_err();
        match err {
            RunError::WorkerPanic { message } => assert!(message.contains("exploded")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// With two workers, items 0 and 1 meet at a barrier, so each runs on
    /// its own worker and one of them on the calling thread; that one
    /// panics.
    fn panic_on_the_calling_thread(
        i: u64,
        meet: &std::sync::Barrier,
        caller: std::thread::ThreadId,
    ) {
        if i < 2 {
            meet.wait();
            if std::thread::current().id() == caller {
                panic!("item {i} exploded on the calling thread");
            }
        }
    }

    #[test]
    fn calling_thread_panic_becomes_worker_panic() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..8).collect();

        let meet = std::sync::Barrier::new(2);
        let err = run_ordered(2, &items, |&i| {
            panic_on_the_calling_thread(i, &meet, caller);
            Ok(i)
        })
        .unwrap_err();
        match err {
            RunError::WorkerPanic { message } => assert!(message.contains("calling thread")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }

        // A closure that returns each outcome as a value catches the panic
        // itself, so only the calling thread's item fails.
        let meet = std::sync::Barrier::new(2);
        let outcomes = run_ordered(2, &items, |&i| {
            Ok::<_, CombError>(catch_worker_panic(|| {
                panic_on_the_calling_thread(i, &meet, caller);
                Ok::<u64, CombError>(i)
            }))
        })
        .unwrap();
        let failed: Vec<&CombError> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
        assert_eq!(failed.len(), 1, "exactly the calling thread's item fails");
        assert_eq!(failed[0].kind, ErrorKind::WorkerPanic);
        assert!(failed[0].message.contains("calling thread"));
    }

    #[test]
    fn calling_thread_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..8).collect();
        let ran_on = |jobs| {
            run_ordered(jobs, &items, |_| {
                std::thread::sleep(Duration::from_millis(2));
                Ok::<_, RunError>(std::thread::current().id())
            })
            .unwrap()
        };
        assert!(
            ran_on(2).contains(&caller),
            "the calling thread ran no item"
        );
        assert!(
            ran_on(1).iter().all(|&t| t == caller),
            "one worker spawns no thread"
        );
    }

    #[test]
    fn effective_jobs_resolution() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn caught_panics_are_outcomes_and_the_drain_goes_on() {
        let items: Vec<u64> = (0..32).collect();
        for jobs in [1, 4] {
            let outcomes = run_ordered(jobs, &items, |&i| {
                Ok::<_, CombError>(catch_worker_panic(|| {
                    if i == 7 {
                        panic!("point {i} exploded");
                    }
                    Ok::<u64, CombError>(i * 10)
                }))
            })
            .unwrap();
            assert_eq!(outcomes.len(), items.len());
            for (i, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    Err(err) => {
                        assert_eq!(i, 7, "only item 7 fails (jobs={jobs}): {err}");
                        assert_eq!(err.kind, ErrorKind::WorkerPanic);
                        assert!(err.message.contains("exploded"));
                    }
                    Ok(value) => assert_eq!(*value, i as u64 * 10),
                }
            }
        }
    }
}
