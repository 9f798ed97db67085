//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a declarative, seeded description of everything that
//! can go wrong on the wire: packet loss (uniform or Gilbert–Elliott
//! bursts), NIC stall windows, interrupt storms on kernel NICs, periodic
//! link-bandwidth degradation, and dropped rendezvous control messages.
//! Plans parse from CLI-style specs (`loss=burst:0.01`, `stall=1000:0.2`)
//! and render back to a canonical string, so a faulted campaign is fully
//! reproducible from its CSV header.
//!
//! Each NIC turns the plan into a [`FaultModel`]: the runtime state that
//! actually makes the decisions. Every fault source draws from its **own**
//! splitmix64 stream, derived from `(plan seed, NIC salt, source tag)`, and
//! a disabled or zero-rate source never constructs a generator at all —
//! adding `dropctl=0` to a plan cannot perturb the loss stream of an
//! otherwise identical run. That stream independence is what keeps faulted
//! sweeps byte-identical across worker counts and repeat runs.

use crate::config::{HwConfig, LinkConfig, RndvRetryConfig};
use crate::loss::LossModel;
use comb_sim::{SimDuration, SimTime};

/// Minimal deterministic generator (splitmix64). The stream is a pure
/// function of the seed, independent of any external crate's algorithm
/// choices; fault sources and the loss model all draw from instances of
/// this.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> DetRng {
        DetRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1) with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derive the seed for one fault source's private stream. `salt`
/// decorrelates NICs sharing a plan; `tag` decorrelates sources sharing a
/// NIC, so enabling one source never shifts another's stream.
pub fn stream_seed(seed: u64, salt: u64, tag: u64) -> u64 {
    let mut r = DetRng::new(
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    r.next_u64()
}

const TAG_LOSS: u64 = 1;
const TAG_DROP_CTL: u64 = 2;
// Tag 3 is retired. A stream's seed depends on its tag, so tags are never
// renumbered.
const TAG_NOISE: u64 = 4;

/// Packet-loss process selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossSpec {
    /// Independent per-packet loss with the given probability.
    Uniform {
        /// Per-packet loss probability, in [0, 1).
        rate: f64,
    },
    /// Gilbert–Elliott two-state bursts: a lossless *good* state and a
    /// *bad* state losing half its packets, tuned so the stationary loss
    /// probability equals `rate` and bad-state sojourns average
    /// `burst_len` packets.
    Burst {
        /// Stationary per-packet loss probability, in [0, 0.5).
        rate: f64,
        /// Mean burst (bad-state sojourn) length in packets, ≥ 1.
        burst_len: f64,
    },
}

impl LossSpec {
    /// The stationary loss rate of the process.
    pub fn rate(&self) -> f64 {
        match self {
            LossSpec::Uniform { rate } | LossSpec::Burst { rate, .. } => *rate,
        }
    }

    /// Same process shape with a different stationary rate.
    pub fn with_rate(&self, rate: f64) -> LossSpec {
        match *self {
            LossSpec::Uniform { .. } => LossSpec::Uniform { rate },
            LossSpec::Burst { burst_len, .. } => LossSpec::Burst { rate, burst_len },
        }
    }
}

/// Periodic NIC stall windows: for the first `duty` fraction of every
/// `period`, the transmit path is frozen (a firmware hiccup / PCI
/// retraining); packets whose transmission would start inside a window are
/// deferred to the window's end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallSpec {
    /// Window repetition period.
    pub period: SimDuration,
    /// Stalled fraction of each period, in [0, 1).
    pub duty: f64,
}

/// Interrupt storms on kernel NICs: one spurious interrupt of `cost` host
/// time per elapsed `period`, charged while receive traffic flows (bypass
/// NICs, which take no interrupts, ignore this source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormSpec {
    /// Mean spacing between spurious interrupts.
    pub period: SimDuration,
    /// Host CPU time stolen per spurious interrupt.
    pub cost: SimDuration,
}

/// Periodic link-bandwidth degradation: during the first `duty` fraction of
/// every `period`, packet service times stretch by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeSpec {
    /// Window repetition period.
    pub period: SimDuration,
    /// Degraded fraction of each period, in [0, 1).
    pub duty: f64,
    /// Service-time multiplier inside a window, ≥ 1.
    pub factor: f64,
}

/// Background OS/fabric noise: with probability `rate`, one packet's
/// transmission pays `cost` extra delay — the seeded stand-in for the
/// run-to-run jitter (daemons, cache pollution, fabric crosstalk) that a
/// real machine injects and a deterministic simulator otherwise lacks.
/// The replicate perturbation model (`comb_hw::perturb`) installs one of
/// these per replicate with a derived seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSpec {
    /// Per-packet probability of a noise event, in [0, 1).
    pub rate: f64,
    /// Extra transmit delay charged per noise event.
    pub cost: SimDuration,
    /// Private seed for the noise stream; `None` derives from the plan
    /// seed, so a bare `noise=...` spec stays reproducible from the plan.
    pub seed: Option<u64>,
}

/// A deterministic, seeded fault-injection plan. The default plan injects
/// nothing and costs nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Packet-loss process (replaces the legacy [`LinkConfig`] uniform
    /// loss fields when set).
    pub loss: Option<LossSpec>,
    /// NIC transmit stall windows.
    pub stall: Option<StallSpec>,
    /// Interrupt storms (kernel NICs only).
    pub storm: Option<StormSpec>,
    /// Link-bandwidth degradation windows.
    pub degrade: Option<DegradeSpec>,
    /// Probability of dropping each rendezvous control message (RTS/CTS)
    /// outright, in [0, 1). Recovery is the MPI layer's retry/backoff
    /// protocol, armed automatically by [`FaultPlan::apply_to`].
    pub drop_ctl: Option<f64>,
    /// Background per-packet noise events.
    pub noise: Option<NoiseSpec>,
    /// Seed for every fault source's stream.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, zero cost.
    pub fn none() -> FaultPlan {
        FaultPlan {
            loss: None,
            stall: None,
            storm: None,
            degrade: None,
            drop_ctl: None,
            noise: None,
            seed: 0x000F_A017_5EED,
        }
    }

    /// True if the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.loss.is_none()
            && self.stall.is_none()
            && self.storm.is_none()
            && self.degrade.is_none()
            && self.drop_ctl.is_none()
            && self.noise.is_none()
    }

    /// Build a plan from CLI-style specs (see [`FaultPlan::parse_spec`]),
    /// optionally overriding the seed.
    pub fn from_specs<S: AsRef<str>>(specs: &[S], seed: Option<u64>) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for s in specs {
            plan.parse_spec(s.as_ref())?;
        }
        if let Some(seed) = seed {
            plan.seed = seed;
        }
        Ok(plan)
    }

    /// Parse one `--fault` spec into the plan. Accepted forms
    /// (durations in microseconds):
    ///
    /// * `loss=uniform:RATE`
    /// * `loss=burst:RATE[:BURST_LEN]` (default burst length 8 packets)
    /// * `stall=PERIOD_US:DUTY`
    /// * `storm=PERIOD_US:COST_US`
    /// * `degrade=PERIOD_US:DUTY:FACTOR`
    /// * `dropctl=RATE`
    /// * `noise=RATE:COST_US[:SEED]` (default seed: derived from the plan)
    /// * `seed=N`
    pub fn parse_spec(&mut self, spec: &str) -> Result<(), String> {
        let (key, val) = spec
            .split_once('=')
            .ok_or_else(|| format!("fault spec `{spec}` is not KEY=VALUE"))?;
        let parts: Vec<&str> = val.split(':').collect();
        match key {
            "loss" => {
                let model = *parts
                    .first()
                    .ok_or_else(|| format!("loss spec `{val}` missing model"))?;
                match model {
                    "uniform" => {
                        let rate = parse_rate(parts.get(1), spec)?;
                        self.loss = Some(LossSpec::Uniform { rate });
                    }
                    "burst" => {
                        let rate = parse_rate(parts.get(1), spec)?;
                        if rate >= 0.5 {
                            return Err(format!("burst loss rate {rate} must be < 0.5"));
                        }
                        let burst_len = match parts.get(2) {
                            Some(s) => parse_f64(s, spec)?,
                            None => 8.0,
                        };
                        if burst_len < 1.0 {
                            return Err(format!("burst length {burst_len} must be >= 1"));
                        }
                        self.loss = Some(LossSpec::Burst { rate, burst_len });
                    }
                    other => {
                        return Err(format!(
                            "unknown loss model `{other}` (expected uniform|burst)"
                        ))
                    }
                }
            }
            "stall" => {
                let period = parse_period_us(parts.first(), spec)?;
                let duty = parse_duty(parts.get(1), spec)?;
                self.stall = Some(StallSpec { period, duty });
            }
            "storm" => {
                let period = parse_period_us(parts.first(), spec)?;
                let cost_us = parse_f64(
                    parts
                        .get(1)
                        .ok_or_else(|| format!("storm spec `{spec}` missing cost"))?,
                    spec,
                )?;
                if cost_us <= 0.0 {
                    return Err(format!("storm cost {cost_us} must be positive"));
                }
                self.storm = Some(StormSpec {
                    period,
                    cost: SimDuration::from_nanos((cost_us * 1000.0).round() as u64),
                });
            }
            "degrade" => {
                let period = parse_period_us(parts.first(), spec)?;
                let duty = parse_duty(parts.get(1), spec)?;
                let factor = parse_f64(
                    parts
                        .get(2)
                        .ok_or_else(|| format!("degrade spec `{spec}` missing factor"))?,
                    spec,
                )?;
                if factor < 1.0 {
                    return Err(format!("degrade factor {factor} must be >= 1"));
                }
                self.degrade = Some(DegradeSpec {
                    period,
                    duty,
                    factor,
                });
            }
            "dropctl" => {
                let rate = parse_rate(parts.first(), spec)?;
                self.drop_ctl = Some(rate);
            }
            "noise" => {
                let rate = parse_rate(parts.first(), spec)?;
                let cost_us = parse_f64(
                    parts
                        .get(1)
                        .ok_or_else(|| format!("noise spec `{spec}` missing cost"))?,
                    spec,
                )?;
                if cost_us <= 0.0 {
                    return Err(format!("noise cost {cost_us} must be positive"));
                }
                let seed = match parts.get(2) {
                    Some(s) => Some(
                        s.parse::<u64>()
                            .map_err(|_| format!("bad noise seed `{s}` in `{spec}`"))?,
                    ),
                    None => None,
                };
                self.noise = Some(NoiseSpec {
                    rate,
                    cost: SimDuration::from_nanos((cost_us * 1000.0).round() as u64),
                    seed,
                });
            }
            "seed" => {
                self.seed = val
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed `{val}` in `{spec}`"))?;
            }
            other => {
                return Err(format!(
                    "unknown fault source `{other}` \
                     (expected loss|stall|storm|degrade|dropctl|noise|seed)"
                ))
            }
        }
        Ok(())
    }

    /// Install the plan into a hardware configuration: the link carries
    /// the plan, and if control messages can be dropped the MPI rendezvous
    /// retry protocol is armed (with defaults, unless already configured).
    pub fn apply_to(&self, hw: &mut HwConfig) {
        hw.link.fault = self.clone();
        if self.drop_ctl.unwrap_or(0.0) > 0.0 && hw.mpi.rndv_retry.is_none() {
            hw.mpi.rndv_retry = Some(RndvRetryConfig::default());
        }
    }
}

impl std::fmt::Display for FaultPlan {
    /// Canonical spec string: parseable back via [`FaultPlan::from_specs`]
    /// (splitting on whitespace), stable for CSV headers and golden files.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut parts: Vec<String> = Vec::new();
        match self.loss {
            Some(LossSpec::Uniform { rate }) => parts.push(format!("loss=uniform:{rate}")),
            Some(LossSpec::Burst { rate, burst_len }) => {
                parts.push(format!("loss=burst:{rate}:{burst_len}"))
            }
            None => {}
        }
        if let Some(s) = self.stall {
            parts.push(format!("stall={}:{}", us(s.period), s.duty));
        }
        if let Some(s) = self.storm {
            parts.push(format!("storm={}:{}", us(s.period), us(s.cost)));
        }
        if let Some(d) = self.degrade {
            parts.push(format!("degrade={}:{}:{}", us(d.period), d.duty, d.factor));
        }
        if let Some(r) = self.drop_ctl {
            parts.push(format!("dropctl={r}"));
        }
        if let Some(n) = self.noise {
            match n.seed {
                Some(seed) => parts.push(format!("noise={}:{}:{seed}", n.rate, us(n.cost))),
                None => parts.push(format!("noise={}:{}", n.rate, us(n.cost))),
            }
        }
        parts.push(format!("seed={}", self.seed));
        write!(f, "{}", parts.join(" "))
    }
}

fn us(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

fn parse_f64(s: &str, spec: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .map_err(|_| format!("bad number `{s}` in `{spec}`"))
}

fn parse_rate(s: Option<&&str>, spec: &str) -> Result<f64, String> {
    let s = s.ok_or_else(|| format!("`{spec}` missing rate"))?;
    let r = parse_f64(s, spec)?;
    if (0.0..1.0).contains(&r) {
        Ok(r)
    } else {
        Err(format!("rate {r} in `{spec}` must be in [0, 1)"))
    }
}

fn parse_duty(s: Option<&&str>, spec: &str) -> Result<f64, String> {
    let s = s.ok_or_else(|| format!("`{spec}` missing duty cycle"))?;
    let d = parse_f64(s, spec)?;
    if (0.0..1.0).contains(&d) {
        Ok(d)
    } else {
        Err(format!("duty {d} in `{spec}` must be in [0, 1)"))
    }
}

fn parse_period_us(s: Option<&&str>, spec: &str) -> Result<SimDuration, String> {
    let s = s.ok_or_else(|| format!("`{spec}` missing period"))?;
    let p = parse_f64(s, spec)?;
    if p <= 0.0 {
        return Err(format!("period {p} in `{spec}` must be positive"));
    }
    Ok(SimDuration::from_nanos((p * 1000.0).round() as u64))
}

/// Cumulative fault-injection counters (loss counters live in
/// [`crate::loss::LossStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Rendezvous control messages dropped on the wire.
    pub ctl_dropped: u64,
    /// Spurious storm interrupts raised.
    pub storm_interrupts: u64,
    /// Total transmit delay added by stall windows.
    pub stall_delay: SimDuration,
    /// Total transmit delay added by bandwidth degradation.
    pub degrade_delay: SimDuration,
    /// Background noise events charged.
    pub noise_events: u64,
    /// Total transmit delay added by background noise.
    pub noise_delay: SimDuration,
}

struct StormState {
    spec: StormSpec,
    /// Last period index already charged.
    last_tick: u64,
}

struct DropCtlState {
    rate: f64,
    rng: DetRng,
}

struct NoiseState {
    spec: NoiseSpec,
    rng: DetRng,
}

/// Per-NIC fault runtime: owns the loss process and the plan's other
/// sources, each on an independent stream. Deterministic: all decisions are
/// a pure function of `(plan, salt)` and the packet sequence.
pub struct FaultModel {
    loss: LossModel,
    stall: Option<StallSpec>,
    degrade: Option<DegradeSpec>,
    storm: Option<StormState>,
    drop_ctl: Option<DropCtlState>,
    noise: Option<NoiseState>,
    stats: FaultStats,
}

impl FaultModel {
    /// Build the runtime for one NIC from its link configuration. `salt`
    /// (the NIC's fabric port) decorrelates NICs sharing a plan. When the
    /// plan carries no loss spec, the legacy [`LinkConfig`] uniform loss
    /// fields apply unchanged — existing configurations behave identically.
    pub fn from_link(link: &LinkConfig, salt: u64) -> FaultModel {
        let plan = &link.fault;
        let loss = match plan.loss {
            Some(LossSpec::Uniform { rate }) => LossModel::new(
                rate,
                link.loss_recovery,
                stream_seed(plan.seed, salt, TAG_LOSS),
                salt,
            ),
            Some(LossSpec::Burst { rate, burst_len }) => LossModel::burst(
                rate,
                burst_len,
                link.loss_recovery,
                stream_seed(plan.seed, salt, TAG_LOSS),
                salt,
            ),
            None => LossModel::new(link.loss_rate, link.loss_recovery, link.loss_seed, salt),
        };
        // A zero drop rate never constructs a generator: a disabled source
        // cannot perturb anything (the zero-loss guarantee, satellite of
        // the fault-injection issue).
        let drop_ctl = plan.drop_ctl.filter(|r| *r > 0.0).map(|rate| DropCtlState {
            rate,
            rng: DetRng::new(stream_seed(plan.seed, salt, TAG_DROP_CTL)),
        });
        // Noise gets its own tag (and optionally its own seed, so replicate
        // perturbation can reseed it without shifting any other stream).
        let noise = plan.noise.filter(|n| n.rate > 0.0).map(|spec| NoiseState {
            rng: DetRng::new(stream_seed(spec.seed.unwrap_or(plan.seed), salt, TAG_NOISE)),
            spec,
        });
        FaultModel {
            loss,
            stall: plan.stall,
            degrade: plan.degrade,
            storm: plan.storm.map(|spec| StormState { spec, last_tick: 0 }),
            drop_ctl,
            noise,
            stats: FaultStats::default(),
        }
    }

    /// Extra transmit delay for one packet whose transmission would start
    /// at `start` and take `service`: link-loss recovery, stall-window
    /// deferral, degradation stretch, and background noise, composed
    /// additively.
    pub fn tx_penalty(&mut self, start: SimTime, service: SimDuration) -> SimDuration {
        let mut pen = self.loss.packet_penalty(service);
        if let Some(stall) = self.stall {
            let period = stall.period.as_nanos().max(1);
            let window = (stall.duty * period as f64) as u64;
            let phase = start.as_nanos() % period;
            if phase < window {
                let defer = SimDuration::from_nanos(window - phase);
                self.stats.stall_delay += defer;
                pen += defer;
            }
        }
        if let Some(deg) = self.degrade {
            let period = deg.period.as_nanos().max(1);
            let window = (deg.duty * period as f64) as u64;
            let phase = start.as_nanos() % period;
            if phase < window {
                let extra = SimDuration::from_nanos(
                    (service.as_nanos() as f64 * (deg.factor - 1.0)).round() as u64,
                );
                self.stats.degrade_delay += extra;
                pen += extra;
            }
        }
        if let Some(n) = self.noise.as_mut() {
            // Exactly one draw per packet, so the decision sequence is a
            // pure function of the packet index regardless of timing.
            if n.rng.next_f64() < n.spec.rate {
                self.stats.noise_events += 1;
                self.stats.noise_delay += n.spec.cost;
                pen += n.spec.cost;
            }
        }
        pen
    }

    /// Decide whether to drop a rendezvous control message. Draws only
    /// when the source is armed with a positive rate.
    pub fn drop_control(&mut self) -> bool {
        let Some(d) = self.drop_ctl.as_mut() else {
            return false;
        };
        let hit = d.rng.next_f64() < d.rate;
        if hit {
            self.stats.ctl_dropped += 1;
        }
        hit
    }

    /// Spurious storm interrupts accrued since the last call: the number of
    /// storm periods crossed (capped at 64 per call, so a long idle gap
    /// cannot dump an unbounded catch-up burst) and the host cost of each.
    /// Storms are charged lazily while receive traffic flows, which keeps
    /// an otherwise idle simulation finite.
    pub fn storm_ticks(&mut self, now: SimTime) -> Option<(u64, SimDuration)> {
        let s = self.storm.as_mut()?;
        let period = s.spec.period.as_nanos().max(1);
        let cur = now.as_nanos() / period;
        let ticks = cur.saturating_sub(s.last_tick).min(64);
        s.last_tick = cur;
        if ticks == 0 {
            None
        } else {
            self.stats.storm_interrupts += ticks;
            Some((ticks, s.spec.cost))
        }
    }

    /// Cumulative fault counters (excluding loss; see
    /// [`FaultModel::loss_stats`]).
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Cumulative loss counters.
    pub fn loss_stats(&self) -> crate::loss::LossStats {
        self.loss.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link_with(plan: FaultPlan) -> LinkConfig {
        LinkConfig {
            fault: plan,
            ..LinkConfig::default()
        }
    }

    #[test]
    fn default_plan_is_inert_and_free() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert_eq!(plan.to_string(), "none");
        let mut m = FaultModel::from_link(&link_with(plan), 0);
        for i in 0..100u64 {
            assert_eq!(
                m.tx_penalty(SimTime::from_nanos(i * 997), SimDuration::from_micros(10)),
                SimDuration::ZERO
            );
            assert!(!m.drop_control());
            assert!(m.storm_ticks(SimTime::from_nanos(i * 997)).is_none());
        }
        assert_eq!(m.stats(), FaultStats::default());
    }

    #[test]
    fn specs_parse_and_roundtrip_through_display() {
        let plan = FaultPlan::from_specs(
            &[
                "loss=burst:0.01:8",
                "stall=1000:0.2",
                "storm=500:20",
                "degrade=2000:0.5:4",
                "dropctl=0.05",
                "noise=0.02:25:11",
                "seed=7",
            ],
            None,
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.loss,
            Some(LossSpec::Burst {
                rate: 0.01,
                burst_len: 8.0
            })
        );
        let rendered = plan.to_string();
        let specs: Vec<&str> = rendered.split_whitespace().collect();
        let reparsed = FaultPlan::from_specs(&specs, None).unwrap();
        assert_eq!(plan, reparsed, "Display must round-trip through parse");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "loss",
            "loss=gaussian:0.1",
            "loss=uniform:1.5",
            "loss=burst:0.6",
            "stall=0:0.5",
            "stall=100:1.0",
            "degrade=100:0.5:0.5",
            "dropctl=2",
            "noise=0.5",
            "noise=1.5:20",
            "noise=0.1:0",
            "noise=0.1:20:nope",
            "frob=1",
            "seed=abc",
        ] {
            assert!(
                FaultPlan::from_specs(&[bad], None).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn disabled_sources_do_not_perturb_enabled_streams() {
        // The zero-loss / disabled-source guarantee: adding zero-rate or
        // orthogonal sources must leave the loss stream untouched.
        let service = SimDuration::from_micros(10);
        let seq = |plan: FaultPlan| {
            let mut m = FaultModel::from_link(&link_with(plan), 3);
            (0..500)
                .map(|i| {
                    m.tx_penalty(SimTime::from_nanos(i * 13_001), service)
                        .as_nanos()
                })
                .collect::<Vec<_>>()
        };
        let mut base = FaultPlan::none();
        base.parse_spec("loss=uniform:0.05").unwrap();
        let mut extended = base.clone();
        extended.parse_spec("dropctl=0").unwrap();
        extended.parse_spec("noise=0:20").unwrap();
        assert_eq!(seq(base.clone()), seq(extended));
        // And a zero-rate loss source draws nothing at all.
        let mut zero = FaultPlan::none();
        zero.parse_spec("loss=uniform:0").unwrap();
        zero.parse_spec("dropctl=0").unwrap();
        zero.parse_spec("noise=0:20").unwrap();
        assert!(seq(zero).iter().all(|&p| p == 0));
    }

    #[test]
    fn noise_is_seeded_charged_and_independent() {
        let seq = |spec: &str, salt| {
            let mut plan = FaultPlan::none();
            plan.parse_spec(spec).unwrap();
            let mut m = FaultModel::from_link(&link_with(plan), salt);
            (0..400)
                .map(|i| {
                    m.tx_penalty(SimTime::from_nanos(i * 7_001), SimDuration::from_micros(10))
                        .as_nanos()
                })
                .collect::<Vec<_>>()
        };
        // Deterministic, salted, and each hit charges exactly the cost.
        assert_eq!(seq("noise=0.1:20", 0), seq("noise=0.1:20", 0));
        assert_ne!(seq("noise=0.1:20", 0), seq("noise=0.1:20", 1));
        let hits = seq("noise=0.1:20", 0);
        assert!(hits.iter().all(|&p| p == 0 || p == 20_000));
        let count = hits.iter().filter(|&&p| p != 0).count();
        assert!(
            (15..90).contains(&count),
            "noise count {count} far from 10%"
        );
        // A private seed decorrelates from the plan-derived stream without
        // changing the rate, and stats see every event.
        assert_ne!(seq("noise=0.1:20", 0), seq("noise=0.1:20:99", 0));
        let mut plan = FaultPlan::none();
        plan.parse_spec("noise=0.1:20:99").unwrap();
        let mut m = FaultModel::from_link(&link_with(plan), 0);
        for i in 0..400u64 {
            m.tx_penalty(SimTime::from_nanos(i * 7_001), SimDuration::from_micros(10));
        }
        let stats = m.stats();
        assert!(stats.noise_events > 0);
        assert_eq!(
            stats.noise_delay,
            SimDuration::from_micros(20 * stats.noise_events)
        );
    }

    #[test]
    fn noise_does_not_shift_other_streams_when_added() {
        // Adding an *armed* noise source must still leave the loss stream
        // untouched: the draws come from a different tag.
        let losses = |plan: FaultPlan| {
            let mut m = FaultModel::from_link(&link_with(plan), 5);
            (0..500)
                .map(|i| {
                    m.tx_penalty(
                        SimTime::from_nanos(i * 13_001),
                        SimDuration::from_micros(10),
                    );
                    m.loss_stats().lost_packets
                })
                .collect::<Vec<_>>()
        };
        let mut base = FaultPlan::none();
        base.parse_spec("loss=uniform:0.05").unwrap();
        let mut with_noise = base.clone();
        with_noise.parse_spec("noise=0.2:30").unwrap();
        assert_eq!(losses(base), losses(with_noise));
    }

    #[test]
    fn stall_windows_defer_to_window_end() {
        let mut plan = FaultPlan::none();
        plan.parse_spec("stall=1000:0.25").unwrap(); // 1 ms period, 250 us window
        let mut m = FaultModel::from_link(&link_with(plan), 0);
        let svc = SimDuration::from_micros(5);
        // At phase 100 us: defer 150 us to reach the window end.
        assert_eq!(
            m.tx_penalty(SimTime::from_nanos(100_000), svc),
            SimDuration::from_micros(150)
        );
        // Outside the window: free.
        assert_eq!(
            m.tx_penalty(SimTime::from_nanos(600_000), svc),
            SimDuration::ZERO
        );
        assert_eq!(m.stats().stall_delay, SimDuration::from_micros(150));
    }

    #[test]
    fn degrade_windows_stretch_service() {
        let mut plan = FaultPlan::none();
        plan.parse_spec("degrade=1000:0.5:4").unwrap();
        let mut m = FaultModel::from_link(&link_with(plan), 0);
        let svc = SimDuration::from_micros(10);
        // In-window: 3x extra (factor 4 total).
        assert_eq!(
            m.tx_penalty(SimTime::from_nanos(100_000), svc),
            SimDuration::from_micros(30)
        );
        assert_eq!(
            m.tx_penalty(SimTime::from_nanos(700_000), svc),
            SimDuration::ZERO
        );
    }

    #[test]
    fn storm_ticks_accrue_per_period_and_cap() {
        let mut plan = FaultPlan::none();
        plan.parse_spec("storm=100:20").unwrap(); // every 100 us, 20 us each
        let mut m = FaultModel::from_link(&link_with(plan), 0);
        assert!(m.storm_ticks(SimTime::from_nanos(50_000)).is_none());
        let (n, cost) = m.storm_ticks(SimTime::from_nanos(350_000)).unwrap();
        assert_eq!(n, 3);
        assert_eq!(cost, SimDuration::from_micros(20));
        // A huge gap is capped at 64 catch-up interrupts.
        let (n, _) = m.storm_ticks(SimTime::from_nanos(1_000_000_000)).unwrap();
        assert_eq!(n, 64);
        assert_eq!(m.stats().storm_interrupts, 67);
    }

    #[test]
    fn drop_control_is_seeded_and_salted() {
        let hits = |seed, salt| {
            let mut plan = FaultPlan::none();
            plan.parse_spec("dropctl=0.3").unwrap();
            plan.seed = seed;
            let mut m = FaultModel::from_link(&link_with(plan), salt);
            (0..200).map(|_| m.drop_control()).collect::<Vec<_>>()
        };
        assert_eq!(hits(1, 0), hits(1, 0));
        assert_ne!(hits(1, 0), hits(2, 0), "seeds must decorrelate");
        assert_ne!(hits(1, 0), hits(1, 1), "salts must decorrelate");
        let count = hits(1, 0).iter().filter(|&&h| h).count();
        assert!((30..90).contains(&count), "drop count {count} far from 30%");
    }

    #[test]
    fn apply_to_arms_rendezvous_retry_only_for_control_drops() {
        let mut hw = HwConfig::gm_myrinet();
        let plan = FaultPlan::from_specs(&["loss=uniform:0.01"], None).unwrap();
        plan.apply_to(&mut hw);
        assert!(hw.mpi.rndv_retry.is_none());
        assert_eq!(hw.link.fault, plan);
        let plan = FaultPlan::from_specs(&["dropctl=0.1"], None).unwrap();
        plan.apply_to(&mut hw);
        assert!(hw.mpi.rndv_retry.is_some());
    }
}
