//! Serial vs parallel sweep execution: wall time of the same campaign at
//! different worker counts, plus per-point overhead of the pool itself.
//!
//! The interesting numbers are the `jobs/N` ratios: points are
//! independent simulations, so on an idle M-core box `jobs/4` should be
//! roughly 4x faster than `jobs/1` (for 4 <= M), shrinking to M-fold at
//! `jobs/auto`.

use comb_bench::bench_config;
use comb_core::{available_jobs, log_spaced, polling_sweep, run_ordered, Transport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_sweep_scaling(c: &mut Criterion) {
    let mut cfg = bench_config(Transport::Portals, 50 * 1024);
    // Two decades at 8/decade: enough points that stealing matters.
    let xs = log_spaced(10_000, 1_000_000, 8);
    let mut group = c.benchmark_group("sweep_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(xs.len() as u64));
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&available_jobs()) {
        counts.push(available_jobs());
    }
    for jobs in counts {
        cfg.jobs = jobs;
        group.bench_function(BenchmarkId::new("polling", jobs), |b| {
            b.iter(|| {
                black_box(polling_sweep(&cfg, &xs).expect("sweep"));
            });
        });
    }
    group.finish();
}

fn bench_pool_overhead(c: &mut Criterion) {
    // Trivial work items expose the pool's own cost per point (slot
    // bookkeeping, cursor contention, thread spawn amortized over items).
    let items: Vec<u64> = (0..4096).collect();
    let mut group = c.benchmark_group("pool_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(items.len() as u64));
    for jobs in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("noop_points", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                black_box(
                    run_ordered(jobs, &items, |&i| {
                        Ok::<_, comb_core::RunError>(black_box(i).wrapping_mul(31))
                    })
                    .expect("pool"),
                );
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_scaling, bench_pool_overhead);
criterion_main!(benches);
