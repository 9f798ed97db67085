//! A workload of holding processes that schedule across shards runs the
//! same in the serial kernel and at two shards: the same final time, the
//! same event count, and the same per-shard log.

use comb_sim::{ProcCtx, ShardedSimulation, SimDuration, SimHandle, Simulation};
use parking_lot::Mutex;
use std::sync::Arc;

/// `(time, shard, process)` per logged step; cross-shard arrivals log
/// process 99.
type Log = Arc<Mutex<Vec<(u64, usize, u64)>>>;

/// A process body, boxed so the serial and sharded runs can share them.
type Body = Box<dyn FnOnce(&ProcCtx) + Send>;

/// Two holders per shard, a cross-shard event every third step, as
/// `(shard, name, body)`. `handles` holds one handle per logical shard; a
/// serial run passes the same simulation's handle for both. Local resumes
/// fall on even times and cross-shard arrivals on odd ones, so no tie
/// depends on scheduling order across shards.
fn workload(handles: [SimHandle; 2], log: &Log) -> Vec<(usize, String, Body)> {
    const L: u64 = 5_000;
    let mut procs: Vec<(usize, String, Body)> = Vec::new();
    for shard in 0..2usize {
        for p in 0..2u64 {
            let (log, other) = (Arc::clone(log), handles[1 - shard].clone());
            let body = move |ctx: &ProcCtx| {
                for i in 0..30u64 {
                    ctx.hold(SimDuration::from_nanos(
                        2 * (350 * (p + 1) + 7 * shard as u64 + i),
                    ));
                    log.lock().push((ctx.now().as_nanos(), shard, p));
                    if i % 3 == 0 {
                        let t = ctx.now() + SimDuration::from_nanos(L + 2 * p + 1);
                        let l = Arc::clone(&log);
                        other.schedule_at(t, move || l.lock().push((t.as_nanos(), 1 - shard, 99)));
                    }
                }
            };
            procs.push((shard, format!("p{shard}.{p}"), Box::new(body)));
        }
    }
    procs
}

fn on_shard(log: &Log, shard: usize) -> Vec<(u64, usize, u64)> {
    log.lock()
        .iter()
        .copied()
        .filter(|e| e.1 == shard)
        .collect()
}

#[test]
fn sharded_run_matches_serial_log_and_event_count() {
    let serial_log = Log::default();
    let (serial_end, serial_fired) = {
        let mut sim = Simulation::new();
        for (_, name, body) in workload([sim.handle(), sim.handle()], &serial_log) {
            sim.spawn(&name, body);
        }
        let end = sim.run().unwrap();
        (end, sim.handle().events_executed())
    };
    let sharded_log = Log::default();
    let (sharded_end, sharded_fired) = {
        let mut sim = ShardedSimulation::new(2, SimDuration::from_nanos(5_000));
        for (shard, name, body) in workload([sim.handle(0), sim.handle(1)], &sharded_log) {
            sim.spawn(shard, &name, body);
        }
        let end = sim.run().unwrap();
        (end, sim.events_executed())
    };
    assert_eq!(serial_end, sharded_end);
    assert_eq!(serial_fired, sharded_fired);
    for shard in 0..2 {
        assert_eq!(
            on_shard(&serial_log, shard),
            on_shard(&sharded_log, shard),
            "shard {shard} diverged"
        );
    }
}
