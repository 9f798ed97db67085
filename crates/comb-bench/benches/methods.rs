//! Benchmarks of single method points across transports and message sizes:
//! the workload generators behind every figure.

use comb_bench::bench_config;
use comb_core::{run, PollingParams, PwwParams, RunSpec, Transport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_polling(c: &mut Criterion) {
    let mut group = c.benchmark_group("polling_point");
    group.sample_size(10);
    for (name, t) in [("gm", Transport::Gm), ("portals", Transport::Portals)] {
        for size_kb in [10u64, 100] {
            let cfg = bench_config(t.clone(), size_kb * 1024);
            group.bench_with_input(
                BenchmarkId::new(name, format!("{size_kb}KB")),
                &cfg,
                |b, cfg| {
                    let (point, spec) = (PollingParams::new(cfg, 10_000), RunSpec::of(cfg));
                    b.iter(|| black_box(run(&point, &spec).unwrap()))
                },
            );
        }
    }
    group.finish();
}

fn bench_pww(c: &mut Criterion) {
    let mut group = c.benchmark_group("pww_point");
    group.sample_size(10);
    for (name, t) in [("gm", Transport::Gm), ("portals", Transport::Portals)] {
        let cfg = bench_config(t.clone(), 100 * 1024);
        let spec = RunSpec::of(&cfg);
        for (label, test_in_work) in [("plain", false), ("test_in_work", true)] {
            let point = PwwParams::new(&cfg, 500_000, test_in_work);
            group.bench_function(BenchmarkId::new(name, label), |b| {
                b.iter(|| black_box(run(&point, &spec).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_polling, bench_pww);
criterion_main!(benches);
