//! Ablation benches for the design choices DESIGN.md calls out: message
//! queue depth (the paper's "queue size 1 degenerates to ping-pong"),
//! PWW batch size, the eager/rendezvous threshold, and the interrupt cost
//! model. Each bench's *output metric* is the simulated result; criterion
//! tracks the regeneration cost.

use comb_bench::bench_config;
use comb_core::{run, PollingParams, PwwParams, RunSpec, Transport};
use comb_hw::HwConfig;
use comb_sim::SimDuration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_queue_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_queue_depth");
    group.sample_size(10);
    for q in [1usize, 2, 4, 8] {
        let mut cfg = bench_config(Transport::Gm, 100 * 1024);
        cfg.queue_depth = q;
        group.bench_with_input(BenchmarkId::from_parameter(q), &cfg, |b, cfg| {
            let (point, spec) = (PollingParams::new(cfg, 10_000), RunSpec::of(cfg));
            b.iter(|| black_box(run(&point, &spec).unwrap()))
        });
    }
    group.finish();
}

fn bench_batch_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pww_batch");
    group.sample_size(10);
    for batch in [1usize, 2, 4] {
        let mut cfg = bench_config(Transport::Portals, 100 * 1024);
        cfg.batch = batch;
        group.bench_with_input(BenchmarkId::from_parameter(batch), &cfg, |b, cfg| {
            let (point, spec) = (PwwParams::new(cfg, 500_000, false), RunSpec::of(cfg));
            b.iter(|| black_box(run(&point, &spec).unwrap()))
        });
    }
    group.finish();
}

fn bench_eager_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_eager_threshold");
    group.sample_size(10);
    for threshold_kb in [4u64, 16, 128] {
        let mut hw = HwConfig::gm_myrinet();
        hw.mpi.eager_threshold = threshold_kb * 1024;
        let cfg = bench_config(Transport::from(hw), 32 * 1024);
        group.bench_with_input(BenchmarkId::from_parameter(threshold_kb), &cfg, |b, cfg| {
            let (point, spec) = (PollingParams::new(cfg, 10_000), RunSpec::of(cfg));
            b.iter(|| black_box(run(&point, &spec).unwrap()))
        });
    }
    group.finish();
}

fn bench_isr_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_isr_cost");
    group.sample_size(10);
    for isr_us in [2u64, 10, 40] {
        let mut hw = HwConfig::portals_myrinet();
        hw.nic.rx_per_packet = SimDuration::from_micros(isr_us);
        let cfg = bench_config(Transport::from(hw), 100 * 1024);
        group.bench_with_input(BenchmarkId::from_parameter(isr_us), &cfg, |b, cfg| {
            let (point, spec) = (PollingParams::new(cfg, 10_000), RunSpec::of(cfg));
            b.iter(|| black_box(run(&point, &spec).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_queue_depth,
    bench_batch_size,
    bench_eager_threshold,
    bench_isr_cost
);
criterion_main!(benches);
