//! Hardware configuration and the calibrated presets used to reproduce the
//! paper's two platforms.
//!
//! Every timing constant in the simulation lives here. The presets are
//! calibrated so the *shapes* of the paper's figures hold (plateaus, knees,
//! who-wins relations); see `EXPERIMENTS.md` for the calibration notes.

use crate::fault::FaultPlan;
use comb_sim::SimDuration;

/// Host CPU model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Clock frequency in Hz. The paper's nodes: 500 MHz Pentium III.
    pub freq_hz: u64,
    /// Cycles consumed by one iteration of the benchmark's empty inner loop.
    pub cycles_per_iter: u64,
}

impl CpuConfig {
    /// Virtual time for `iters` loop iterations.
    pub fn iters_to_duration(&self, iters: u64) -> SimDuration {
        // ps precision avoids rounding drift for small iteration counts.
        let ps_per_iter =
            self.cycles_per_iter as u128 * 1_000_000_000_000u128 / self.freq_hz as u128;
        SimDuration::from_nanos(((iters as u128 * ps_per_iter) / 1000) as u64)
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            freq_hz: 500_000_000,
            cycles_per_iter: 2,
        }
    }
}

/// Wire / switch parameters shared by all NIC models.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Maximum transfer unit: messages are cut into packets of at most this
    /// many payload bytes.
    pub mtu: u64,
    /// One-way propagation latency (wire + switch forwarding) per packet.
    pub latency: SimDuration,
    /// Per-packet loss probability, recovered by the link-level
    /// reliability sublayer (sender-side retransmission). Zero for the
    /// paper's presets: Myrinet is effectively lossless.
    pub loss_rate: f64,
    /// Recovery timeout added per retransmission attempt.
    pub loss_recovery: SimDuration,
    /// Seed for the deterministic loss process.
    pub loss_seed: u64,
    /// Structured fault-injection plan. The default plan injects nothing;
    /// when it carries a loss spec, that spec supersedes the
    /// `loss_rate`/`loss_seed` fields above.
    pub fault: FaultPlan,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            mtu: 4096,
            latency: SimDuration::from_micros(5),
            loss_rate: 0.0,
            loss_recovery: SimDuration::from_micros(200),
            loss_seed: 0xC0B_5EED,
            fault: FaultPlan::none(),
        }
    }
}

/// Retry/timeout parameters for the rendezvous control protocol: when a
/// fault plan can drop RTS/CTS messages, the sender re-arms a timer after
/// every RTS and retransmits with exponential backoff until the CTS
/// arrives. Defaults are scaled to the paper-era hardware: the timeout
/// covers a full control round-trip (two ~5 µs hops plus ISR/progress
/// processing) with an order-of-magnitude margin, like the conservative
/// firmware timeouts of GM's reliability sublayer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RndvRetryConfig {
    /// Base RTS retransmission timeout (first retry fires this long after
    /// the RTS leaves).
    pub timeout: SimDuration,
    /// Backoff multiplier applied per retry.
    pub backoff: u32,
    /// Cap on backoff doublings: the delay never exceeds
    /// `timeout * backoff^max_exponent`. Retries continue at the capped
    /// spacing until the CTS arrives, so no message is lost permanently.
    pub max_exponent: u32,
}

impl Default for RndvRetryConfig {
    fn default() -> Self {
        RndvRetryConfig {
            timeout: SimDuration::from_micros(500),
            backoff: 2,
            max_exponent: 6,
        }
    }
}

/// Which transport personality a NIC has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicKind {
    /// GM-like OS-bypass NIC: user-level DMA, no interrupts, receive ring
    /// drained by the MPI library.
    Bypass,
    /// Portals-like kernel NIC: per-packet interrupts, ISR copies data to
    /// user space, matching performed at interrupt time (full offload).
    Kernel,
}

impl std::fmt::Display for NicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NicKind::Bypass => write!(f, "bypass"),
            NicKind::Kernel => write!(f, "kernel"),
        }
    }
}

/// NIC timing parameters. A single struct covers both personalities; the
/// fields that do not apply to a personality are simply unused by it.
#[derive(Debug, Clone, PartialEq)]
pub struct NicConfig {
    /// Personality.
    pub kind: NicKind,
    /// Per-packet processing cost on the transmit path (firmware / kernel
    /// send path), part of the injection station's service time.
    pub tx_per_packet: SimDuration,
    /// Transmit DMA bandwidth (bytes/s) — PCI/DMA limit on the send side.
    pub tx_bandwidth: u64,
    /// Per-packet processing cost on the receive path.
    /// Bypass: NIC firmware + host DMA setup (no CPU involvement).
    /// Kernel: fixed part of the interrupt service routine.
    pub rx_per_packet: SimDuration,
    /// Receive-side bandwidth (bytes/s).
    /// Bypass: receive DMA rate. Kernel: kernel-to-user copy rate — the
    /// per-byte part of the ISR.
    pub rx_bandwidth: u64,
    /// Kernel NIC only: host CPU time stolen per transmitted packet
    /// (the kernel send path runs on the host CPU).
    pub tx_host_per_packet: SimDuration,
    /// Kernel NIC only: per-message matching cost in the kernel, added to
    /// the ISR of a message's first packet.
    pub rx_match_cost: SimDuration,
}

impl NicConfig {
    /// GM 1.4 on Myrinet LANai 7.2 (OS-bypass).
    ///
    /// Injection station: 8 µs firmware + 110 MB/s PCI DMA per 4 KB packet
    /// → ≈ 90 MB/s sustained for large messages, matching the paper's
    /// ~88 MB/s GM plateau (Fig 8).
    pub fn gm_bypass() -> Self {
        NicConfig {
            kind: NicKind::Bypass,
            tx_per_packet: SimDuration::from_micros(8),
            tx_bandwidth: 110_000_000,
            rx_per_packet: SimDuration::from_micros(2),
            rx_bandwidth: 160_000_000,
            tx_host_per_packet: SimDuration::ZERO,
            rx_match_cost: SimDuration::ZERO,
        }
    }

    /// Portals 3.0 kernel-module implementation on the same Myrinet
    /// hardware (interrupt-driven, no OS-bypass).
    ///
    /// Receive ISR: 10 µs fixed + kernel→user copy at 110 MB/s per 4 KB
    /// packet → ≈ 75 MB/s raw ISR ceiling; together with the kernel send
    /// path and post costs the sustained Portals rate lands near the
    /// paper's ~50 MB/s plateau, with all ISR time stolen from the host.
    pub fn portals_kernel() -> Self {
        NicConfig {
            kind: NicKind::Kernel,
            tx_per_packet: SimDuration::from_micros(8),
            tx_bandwidth: 133_000_000,
            rx_per_packet: SimDuration::from_micros(10),
            rx_bandwidth: 110_000_000,
            tx_host_per_packet: SimDuration::from_micros(5),
            rx_match_cost: SimDuration::from_micros(15),
        }
    }
}

/// How the MPI library makes communication progress — the property at the
/// heart of the paper (its "application offload", Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgressModel {
    /// Progress happens only inside MPI library calls (MPICH/GM): protocol
    /// messages park in the NIC ring until the application re-enters the
    /// library. Violates the MPI Progress Rule; no application offload.
    Library,
    /// Progress is driven by the transport itself (Portals kernel matching,
    /// EMP NIC matching): messages complete with no library calls.
    Offload,
}

/// MPI library cost model. Lives in the hardware config because the paper's
/// observed per-call costs are platform properties (GM's 45 µs small-message
/// send, Portals' expensive kernel-crossing posts).
#[derive(Debug, Clone, PartialEq)]
pub struct MpiCostConfig {
    /// Who drives protocol progress.
    pub progress: ProgressModel,
    /// Eager/rendezvous switch-over. GM: 16 KB (paper Section 4.2).
    pub eager_threshold: u64,
    /// Host CPU time for a non-blocking send of an eager (small) message.
    /// GM: ~45 µs (paper Section 4.2).
    pub isend_eager: SimDuration,
    /// Host CPU time for a non-blocking send of a rendezvous (large)
    /// message. GM: ~5 µs (paper Section 4.2).
    pub isend_rndv: SimDuration,
    /// Host CPU time to post a non-blocking receive.
    pub irecv: SimDuration,
    /// Host CPU time for one `MPI_Test` that finds nothing to do.
    pub test_call: SimDuration,
    /// Host CPU time to process one protocol message pulled from the NIC
    /// ring during library progress (match, state update).
    pub progress_per_msg: SimDuration,
    /// Library copy bandwidth for landing an eager payload in the posted
    /// user buffer during progress (bytes/s).
    pub eager_copy_bandwidth: u64,
    /// Spin granularity of blocking wait loops (busy waiting, as the paper
    /// notes OS-bypass MPIs do).
    pub wait_spin: SimDuration,
    /// Rendezvous control retry protocol. `None` (all presets) assumes the
    /// wire never drops control traffic — the pre-fault-injection
    /// behaviour; [`FaultPlan::apply_to`] arms it when needed.
    pub rndv_retry: Option<RndvRetryConfig>,
}

impl MpiCostConfig {
    /// MPICH/GM 1.2..4 cost model.
    pub fn mpich_gm() -> Self {
        MpiCostConfig {
            progress: ProgressModel::Library,
            eager_threshold: 16 * 1024,
            isend_eager: SimDuration::from_micros(45),
            isend_rndv: SimDuration::from_micros(5),
            irecv: SimDuration::from_micros(5),
            test_call: SimDuration::from_micros(1),
            progress_per_msg: SimDuration::from_micros(2),
            eager_copy_bandwidth: 400_000_000,
            wait_spin: SimDuration::from_micros(1),
            rndv_retry: None,
        }
    }

    /// MPICH on Portals 3.0: every post crosses into the kernel, so posts
    /// are expensive (paper Fig 10 shows ~100–180 µs receive posts).
    pub fn mpich_portals() -> Self {
        MpiCostConfig {
            progress: ProgressModel::Offload,
            // Portals does kernel-side matching for any size; the eager
            // threshold only controls the sender-overhead split, which the
            // kernel path does not have, so set it high and use the same
            // post cost for all sizes.
            eager_threshold: u64::MAX,
            isend_eager: SimDuration::from_micros(60),
            isend_rndv: SimDuration::from_micros(60),
            irecv: SimDuration::from_micros(110),
            test_call: SimDuration::from_micros(3),
            progress_per_msg: SimDuration::from_micros(1),
            eager_copy_bandwidth: 400_000_000,
            wait_spin: SimDuration::from_micros(1),
            rndv_retry: None,
        }
    }
}

/// Multi-processor node layout — the paper's stated future work
/// (Section 7: "we plan to address multi-processor nodes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmpConfig {
    /// Processors per node. The application (and the MPI library it calls)
    /// runs on CPU 0.
    pub cpus_per_node: usize,
    /// Steer NIC interrupts to the last CPU instead of CPU 0, so ISRs no
    /// longer steal from the application (interrupt affinity).
    pub isr_on_spare_cpu: bool,
}

impl Default for SmpConfig {
    fn default() -> Self {
        SmpConfig {
            cpus_per_node: 1,
            isr_on_spare_cpu: false,
        }
    }
}

/// Complete description of one simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct HwConfig {
    /// Human-readable platform name ("GM", "Portals", …).
    pub name: String,
    /// Host CPU parameters (same for every CPU on every node).
    pub cpu: CpuConfig,
    /// Node processor layout.
    pub smp: SmpConfig,
    /// Wire and switch parameters.
    pub link: LinkConfig,
    /// NIC personality and timing.
    pub nic: NicConfig,
    /// MPI library cost model.
    pub mpi: MpiCostConfig,
}

impl HwConfig {
    /// The paper's GM platform: OS-bypass Myrinet with MPICH/GM.
    pub fn gm_myrinet() -> Self {
        HwConfig {
            name: "GM".to_string(),
            cpu: CpuConfig::default(),
            smp: SmpConfig::default(),
            link: LinkConfig::default(),
            nic: NicConfig::gm_bypass(),
            mpi: MpiCostConfig::mpich_gm(),
        }
    }

    /// The paper's Portals platform: kernel-module Portals 3.0 on the same
    /// Myrinet hardware.
    pub fn portals_myrinet() -> Self {
        HwConfig {
            name: "Portals".to_string(),
            cpu: CpuConfig::default(),
            smp: SmpConfig::default(),
            link: LinkConfig::default(),
            nic: NicConfig::portals_kernel(),
            mpi: MpiCostConfig::mpich_portals(),
        }
    }

    /// The Portals platform on dual-processor nodes with NIC interrupts
    /// steered to the second CPU — the paper's future-work configuration:
    /// application offload *without* stealing the application's cycles.
    pub fn portals_myrinet_smp() -> Self {
        let mut cfg = HwConfig::portals_myrinet();
        cfg.name = "Portals-SMP".to_string();
        cfg.smp = SmpConfig {
            cpus_per_node: 2,
            isr_on_spare_cpu: true,
        };
        cfg
    }

    /// An idealised NIC-offload gigabit-Ethernet platform in the spirit of
    /// EMP (paper's related work \[10\]): OS-bypass *and* NIC-side matching,
    /// slower wire. Used by extension benches, not by the paper's figures.
    pub fn emp_ethernet() -> Self {
        HwConfig {
            name: "EMP".to_string(),
            cpu: CpuConfig::default(),
            smp: SmpConfig::default(),
            link: LinkConfig {
                mtu: 1500,
                latency: SimDuration::from_micros(10),
                ..LinkConfig::default()
            },
            nic: NicConfig {
                kind: NicKind::Bypass,
                tx_per_packet: SimDuration::from_micros(3),
                tx_bandwidth: 125_000_000,
                rx_per_packet: SimDuration::from_micros(3),
                rx_bandwidth: 125_000_000,
                tx_host_per_packet: SimDuration::ZERO,
                rx_match_cost: SimDuration::ZERO,
            },
            mpi: MpiCostConfig {
                progress: ProgressModel::Offload,
                eager_threshold: u64::MAX,
                isend_eager: SimDuration::from_micros(10),
                isend_rndv: SimDuration::from_micros(10),
                irecv: SimDuration::from_micros(10),
                test_call: SimDuration::from_micros(1),
                progress_per_msg: SimDuration::from_micros(1),
                eager_copy_bandwidth: 400_000_000,
                wait_spin: SimDuration::from_micros(1),
                rndv_retry: None,
            },
        }
    }

    /// The conservative-synchronization lookahead this platform supports:
    /// the minimum virtual-time distance of any cross-node interaction.
    ///
    /// Every cross-node effect is a packet, and the fabric is the only
    /// cross-node channel. A packet a NIC is handed *now* leaves it no
    /// sooner than one per-packet send time from now: both NICs compute
    /// every departure in `submit`, as the end of its injection-station
    /// service (`tx_per_packet` plus its bytes at the DMA rate, after any
    /// queued packet) or, for an expedited packet, `now` plus that service.
    /// Fault penalties only add to it, and a dropped control packet never
    /// reaches the fabric. The fabric then adds the link latency. So the
    /// floor is `link.latency + nic.tx_per_packet`, 13 µs on GM. Shard
    /// epochs (see `comb_sim::ShardedSimulation`) use this as their window
    /// width, and the shard router asserts it on every cross-shard event.
    pub fn lookahead(&self) -> SimDuration {
        self.link.latency + self.nic.tx_per_packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iters_to_duration_is_linear_and_exact() {
        let cpu = CpuConfig::default(); // 500 MHz, 2 cycles/iter => 4 ns/iter
        assert_eq!(cpu.iters_to_duration(1), SimDuration::from_nanos(4));
        assert_eq!(cpu.iters_to_duration(1_000), SimDuration::from_micros(4));
        assert_eq!(cpu.iters_to_duration(0), SimDuration::ZERO);
        // 10^8 iterations = 0.4 s: the top of the paper's x-axis.
        assert_eq!(
            cpu.iters_to_duration(100_000_000),
            SimDuration::from_millis(400)
        );
    }

    #[test]
    fn presets_have_expected_personalities() {
        assert_eq!(HwConfig::gm_myrinet().nic.kind, NicKind::Bypass);
        assert_eq!(HwConfig::portals_myrinet().nic.kind, NicKind::Kernel);
        assert_eq!(HwConfig::gm_myrinet().mpi.eager_threshold, 16 * 1024);
    }

    #[test]
    fn gm_injection_rate_is_near_90_mbs() {
        // Service time for one full 4 KB packet through the GM injection
        // station must put sustained bandwidth in the 85-95 MB/s band.
        let nic = NicConfig::gm_bypass();
        let svc = nic.tx_per_packet + SimDuration::for_bytes(4096, nic.tx_bandwidth);
        let mbs = 4096.0 / svc.as_secs_f64() / 1e6;
        assert!((85.0..95.0).contains(&mbs), "GM injection rate {mbs} MB/s");
    }

    #[test]
    fn portals_isr_rate_leaves_room_for_host_costs() {
        // The raw ISR drain rate sits well above the observed ~43 MB/s
        // sustained plateau; the difference is the kernel send path, the
        // post costs and the application's own work competing for the host.
        let nic = NicConfig::portals_kernel();
        let svc = nic.rx_per_packet + SimDuration::for_bytes(4096, nic.rx_bandwidth);
        let mbs = 4096.0 / svc.as_secs_f64() / 1e6;
        assert!(
            (70.0..95.0).contains(&mbs),
            "Portals raw ISR rate {mbs} MB/s"
        );
    }

    #[test]
    fn config_roundtrips_through_clone_eq() {
        let a = HwConfig::portals_myrinet();
        let b = a.clone();
        assert_eq!(a, b);
    }
}
