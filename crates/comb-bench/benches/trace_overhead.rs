//! Cost of the observability subsystem.
//!
//! Two questions, benchmarked separately:
//!
//! 1. `pww_point/untraced` vs `pww_point/traced` — what a full traced run
//!    costs over a plain one. The acceptance bar is on the *disabled* path,
//!    but the enabled cost is worth watching too.
//! 2. `emit/disabled` — the per-call cost of a tracing hook when tracing is
//!    off. This is the price every simulated message pays in ordinary runs,
//!    so it must stay at "one relaxed atomic load": the event closure must
//!    not even be evaluated.

use comb_bench::bench_config;
use comb_core::{run, PwwParams, RunSpec, Transport};
use comb_sim::SimTime;
use comb_trace::{Comp, TraceEvent, Tracer};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_traced_vs_untraced(c: &mut Criterion) {
    let mut group = c.benchmark_group("pww_point");
    group.sample_size(20);
    let cfg = bench_config(Transport::Gm, 100 * 1024);
    let point = PwwParams::new(&cfg, 500_000, false);
    for (label, trace) in [("untraced", false), ("traced", true)] {
        let spec = RunSpec {
            trace,
            ..RunSpec::of(&cfg)
        };
        group.bench_function(label, |b| b.iter(|| black_box(run(&point, &spec).unwrap())));
    }
    group.finish();
}

fn bench_emit(c: &mut Criterion) {
    const EMITS: u64 = 1000;
    let mut group = c.benchmark_group("emit_1000");
    group.sample_size(200);
    group.throughput(Throughput::Elements(EMITS));
    let t0 = SimTime::ZERO;
    let off = Tracer::new();
    group.bench_function("disabled", |b| {
        b.iter(|| {
            for _ in 0..EMITS {
                off.emit(black_box(t0), Comp::Mpi(0), || TraceEvent::Custom("bench"));
            }
        })
    });
    // A fresh tracer each iteration keeps the record buffer small; its
    // allocation is amortised over the thousand emits.
    group.bench_function("enabled", |b| {
        b.iter(|| {
            let on = Tracer::enabled();
            for _ in 0..EMITS {
                on.emit(black_box(t0), Comp::Mpi(0), || TraceEvent::Custom("bench"));
            }
            black_box(&on);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_traced_vs_untraced, bench_emit);
criterion_main!(benches);
