//! The wire conserves what it carries. On an unfaulted run, every packet,
//! payload byte and message a NIC transmits is received by a NIC, exactly
//! once, by the time the run ends. A delivery that is dropped or made
//! twice breaks one of the three sums.
//!
//! Covered: polling and PWW points on GM (whose two-port fabric batches a
//! bulk message into one wire event) and on Portals (one event per
//! packet), and a four-pair polling fabric, where GM takes the per-packet
//! path too.

use comb::core::{
    run, MethodConfig, PollingPairs, PollingParams, PwwParams, RunError, RunSpec, Scenario, SimRig,
    Transport,
};
use comb::hw::Cluster;
use comb::report::Fidelity;

/// A scenario whose sample also carries the cluster's NIC totals at run
/// end: `[packets, bytes, messages]`, each as `(sent, received)`.
struct Counted<S>(S);

impl<S: Scenario> Scenario for Counted<S> {
    type Sample = [(u64, u64); 3];
    type Pending = S::Pending;

    fn nodes(&self) -> usize {
        self.0.nodes()
    }

    fn spawn(&self, rig: &mut SimRig, cluster: &Cluster) -> S::Pending {
        self.0.spawn(rig, cluster)
    }

    fn sample(&self, pending: S::Pending, cluster: &Cluster) -> Result<Self::Sample, RunError> {
        self.0.sample(pending, cluster)?;
        let mut sums = [(0, 0); 3];
        for s in cluster.nodes.iter().map(|node| node.nic.stats()) {
            for (sum, (tx, rx)) in sums.iter_mut().zip([
                (s.packets_tx, s.packets_rx),
                (s.bytes_tx, s.bytes_rx),
                (s.msgs_tx, s.msgs_rx),
            ]) {
                *sum = (sum.0 + tx, sum.1 + rx);
            }
        }
        Ok(sums)
    }
}

/// Run `scenario` on the unfaulted `transport` preset at smoke fidelity and
/// check the three sums.
fn assert_conserved<S: Scenario>(
    transport: Transport,
    what: &str,
    scenario: impl Fn(&MethodConfig) -> S,
) {
    let f = Fidelity::smoke();
    let mut cfg = MethodConfig::new(transport, 100 * 1024);
    (cfg.cycles, cfg.target_iters, cfg.max_intervals) = (f.cycles, f.target_iters, f.max_intervals);
    let what = format!("{} {what}", cfg.transport.name());
    let sums = run(&Counted(scenario(&cfg)), &RunSpec::of(&cfg))
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .sample;
    assert!(sums[2].0 > 0, "{what}: nothing was sent");
    for ((sent, received), unit) in sums.into_iter().zip(["packets", "bytes", "messages"]) {
        assert_eq!(received, sent, "{what}: {unit} received against sent");
    }
}

#[test]
fn polling_and_pww_points_conserve_packets_bytes_and_messages() {
    for transport in [Transport::Gm, Transport::Portals] {
        assert_conserved(transport.clone(), "polling", |cfg| {
            PollingParams::new(cfg, 10_000)
        });
        assert_conserved(transport.clone(), "pww", |cfg| {
            PwwParams::new(cfg, 100_000, false)
        });
        assert_conserved(transport, "pww, test in work", |cfg| {
            PwwParams::new(cfg, 100_000, true)
        });
    }
}

#[test]
fn a_four_pair_polling_fabric_conserves_packets_bytes_and_messages() {
    for transport in [Transport::Gm, Transport::Portals] {
        assert_conserved(transport, "four pairs", |cfg| PollingPairs {
            params: PollingParams::new(cfg, 10_000),
            pairs: 4,
        });
    }
}
