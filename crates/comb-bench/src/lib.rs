//! Shared helpers for the COMB benchmark harness.
//!
//! The criterion benches regenerate reduced-fidelity versions of every
//! paper figure (so `cargo bench` exercises each experiment end to end and
//! tracks the simulator's own performance), plus micro-benchmarks of the
//! simulation kernel and the MPI layer, and ablation sweeps for the design
//! choices called out in DESIGN.md.
//!
//! Full-fidelity figure regeneration — the paper's actual rows/series — is
//! the CLI's job: `cargo run --release -p comb-cli -- all --paper`.

use comb::core::{MethodConfig, Transport};
use comb::report::Fidelity;

/// A configuration small enough for criterion iteration counts while still
/// flowing enough messages to exercise the full protocol path.
pub fn bench_config(transport: Transport, msg_bytes: u64) -> MethodConfig {
    let mut cfg = MethodConfig::new(transport, msg_bytes);
    cfg.cycles = 3;
    cfg.target_iters = 400_000;
    cfg.max_intervals = 500;
    cfg
}

/// Fidelity used when a bench regenerates an entire figure.
pub fn bench_fidelity() -> Fidelity {
    Fidelity {
        per_decade: 1,
        cycles: 2,
        target_iters: 200_000,
        max_intervals: 300,
        jobs: 1,
        shards: 0,
        adaptive: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_runnable() {
        let cfg = bench_config(Transport::Gm, 10 * 1024);
        let spec = comb::core::RunSpec::of(&cfg);
        let s = comb::core::run(&comb::core::PollingParams::new(&cfg, 10_000), &spec)
            .unwrap()
            .sample;
        assert!(s.messages_received > 0);
    }

    #[test]
    fn bench_fidelity_generates_a_figure() {
        let mut campaigns = comb::report::Campaigns::new(bench_fidelity());
        let ds = comb::report::generate(comb::report::FigureId::Fig13, &mut campaigns).unwrap();
        assert!(ds.point_count() > 0);
    }
}
