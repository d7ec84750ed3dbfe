//! The network orchestrator: all channels plus the injection pipeline.

use crate::calendar::Calendar;
use crate::channel::{Channel, Channels, Delivery};
use crate::config::NetworkConfig;
use crate::for_channels;
use crate::metrics::{NetworkMetrics, RunSummary};
use crate::packet::{Packet, PacketKind};
use crate::schemes::BitPlane;
use crate::sources::{InjectionRequest, TrafficSource};
use pnoc_sim::{Clock, Cycle, RunPlan};

/// A complete ring network: one MWSR channel per node, an injection-router
/// pipeline, and run-level measurement.
///
/// ```
/// use pnoc_noc::{Network, NetworkConfig, Scheme, SyntheticSource};
/// use pnoc_traffic::pattern::TrafficPattern;
/// use pnoc_sim::RunPlan;
///
/// let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
/// let mut net = Network::new(cfg).unwrap();
/// let mut src = SyntheticSource::new(
///     TrafficPattern::UniformRandom, 0.02, cfg.nodes, cfg.cores_per_node, 1);
/// let summary = net.run_open_loop(&mut src, RunPlan::quick());
/// assert!(summary.avg_latency > 0.0);
/// ```
#[derive(Debug)]
pub struct Network {
    cfg: NetworkConfig,
    clock: Clock,
    channels: Channels,
    /// Channels stepped each cycle; the rest are asleep (see
    /// [`Channel::is_quiescent`]) until an injection wakes them.
    awake: BitPlane,
    /// Whether channels may sleep at all: never with faults enabled, whose
    /// injectors draw randomness every cycle.
    may_sleep: bool,
    /// Channel-cycles stepped so far (see [`Network::channel_cycles`]).
    executed: u64,
    inject_cal: Calendar<Packet>,
    metrics: NetworkMetrics,
    deliveries: Vec<Delivery>,
    next_id: u64,
    gen_buf: Vec<InjectionRequest>,
    /// Cycle-level invariant auditing (`verify-invariants` feature): see
    /// [`crate::audit::InvariantAuditor`].
    #[cfg(feature = "verify-invariants")]
    auditor: crate::audit::InvariantAuditor,
    /// Scratch channel views for the sampled audit (allocations reused
    /// across cycles).
    #[cfg(feature = "verify-invariants")]
    audit_views: Vec<crate::audit::ChannelAuditView>,
    /// Scratch pending-injection ids for the sampled audit.
    #[cfg(feature = "verify-invariants")]
    audit_pending: Vec<u64>,
    /// Per-channel occupancy time-series sampler (`obs-trace` feature);
    /// `None` until [`Network::attach_sampler`] is called.
    #[cfg(feature = "obs-trace")]
    sampler: Option<pnoc_obs::OccupancySampler>,
    /// Live injection subscriber (`obs-trace` feature); `None` until
    /// [`Network::attach_recorder`] is called. Sees every injection in
    /// simulation order — the capture surface for trace recording.
    #[cfg(feature = "obs-trace")]
    recorder: Option<Box<dyn pnoc_obs::InjectSubscriber>>,
}

impl Network {
    /// Build a network; fails on invalid configuration.
    pub fn new(cfg: NetworkConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            clock: Clock::new(),
            channels: Channels::new(&cfg, 0..cfg.nodes),
            awake: {
                let mut all = BitPlane::new(cfg.nodes);
                for ch in 0..cfg.nodes {
                    all.set(ch, true);
                }
                all
            },
            may_sleep: !cfg.faults.enabled(),
            executed: 0,
            inject_cal: Calendar::new(cfg.router_latency as usize + 1),
            metrics: NetworkMetrics::new(),
            deliveries: Vec::new(),
            next_id: 0,
            gen_buf: Vec::new(),
            #[cfg(feature = "verify-invariants")]
            auditor: crate::audit::InvariantAuditor::new(cfg.nodes),
            #[cfg(feature = "verify-invariants")]
            audit_views: Vec::new(),
            #[cfg(feature = "verify-invariants")]
            audit_pending: Vec::new(),
            #[cfg(feature = "obs-trace")]
            sampler: None,
            #[cfg(feature = "obs-trace")]
            recorder: None,
        })
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// Attach a fixed-capacity packet-lifecycle event trace. Events emitted
    /// before attachment are not recorded; once `capacity` events are held
    /// the oldest are overwritten (the drop count is reported on export).
    #[cfg(feature = "obs-trace")]
    pub fn attach_trace(&mut self, capacity: usize) {
        self.metrics.obs.attach(capacity);
    }

    /// The attached event trace, if any.
    #[cfg(feature = "obs-trace")]
    pub fn trace(&self) -> Option<&pnoc_obs::RingTrace> {
        self.metrics.obs.trace()
    }

    /// Attach a per-channel occupancy sampler that records every channel's
    /// occupancy/queue/setaside/credit/token state every `stride` cycles.
    #[cfg(feature = "obs-trace")]
    pub fn attach_sampler(&mut self, stride: u64) {
        self.sampler = Some(pnoc_obs::OccupancySampler::new(stride));
    }

    /// The attached occupancy sampler, if any.
    #[cfg(feature = "obs-trace")]
    pub fn sampler(&self) -> Option<&pnoc_obs::OccupancySampler> {
        self.sampler.as_ref()
    }

    /// Attach a live injection subscriber. From now until
    /// [`Network::detach_recorder`], every injection is forwarded to the
    /// subscriber synchronously, in simulation order. Replaces any
    /// previously attached subscriber (returned to the caller).
    #[cfg(feature = "obs-trace")]
    pub fn attach_recorder(
        &mut self,
        recorder: Box<dyn pnoc_obs::InjectSubscriber>,
    ) -> Option<Box<dyn pnoc_obs::InjectSubscriber>> {
        self.recorder.replace(recorder)
    }

    /// Detach and return the attached injection subscriber, if any (use
    /// [`pnoc_obs::InjectSubscriber::into_any`] to recover the concrete
    /// type and finish its output).
    #[cfg(feature = "obs-trace")]
    pub fn detach_recorder(&mut self) -> Option<Box<dyn pnoc_obs::InjectSubscriber>> {
        self.recorder.take()
    }

    /// Inject a packet from `src_core` to `dst_node` at the current cycle.
    /// It enters the sender's output queue after the injection router
    /// pipeline. Returns the packet id. Panics on self-node traffic (local
    /// delivery bypasses the optical network) and out-of-range indices.
    pub fn inject(
        &mut self,
        src_core: usize,
        dst_node: usize,
        kind: PacketKind,
        tag: u64,
        measured: bool,
    ) -> u64 {
        self.inject_classed(src_core, dst_node, kind, tag, 0, measured)
    }

    /// [`Network::inject`] with an explicit traffic class (multi-tenant
    /// `QoS`). Class 0 is the default class; classes must be below
    /// [`pnoc_traffic::MAX_CLASSES`].
    pub fn inject_classed(
        &mut self,
        src_core: usize,
        dst_node: usize,
        kind: PacketKind,
        tag: u64,
        class: u8,
        measured: bool,
    ) -> u64 {
        assert!(
            usize::from(class) < pnoc_traffic::MAX_CLASSES,
            "class {class} out of range"
        );
        assert!(src_core < self.cfg.cores(), "core {src_core} out of range");
        assert!(dst_node < self.cfg.nodes, "node {dst_node} out of range");
        let src_node = src_core / self.cfg.cores_per_node;
        assert_ne!(
            src_node, dst_node,
            "self-node traffic never enters the ring"
        );
        let now = self.clock.now();
        let id = self.next_id;
        self.next_id += 1;
        let pkt = Packet {
            id,
            src_core: crate::convert::narrow_u32(src_core),
            src_node: crate::convert::narrow_u32(src_node),
            dst_node: crate::convert::narrow_u32(dst_node),
            kind,
            generated_at: now,
            enqueued_at: now, // overwritten when it exits the pipeline
            sent_at: 0,
            sends: 0,
            measured,
            tag,
            class,
        };
        self.metrics.generated += 1;
        if measured {
            self.metrics.generated_measured += 1;
        }
        self.metrics
            .trace(now, dst_node, src_node, id, pnoc_obs::EventKind::Inject);
        #[cfg(feature = "obs-trace")]
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_inject(pnoc_obs::InjectRecord {
                cycle: now,
                src_core: crate::convert::narrow_u32(src_core),
                dst_node: crate::convert::narrow_u32(dst_node),
                kind: match kind {
                    PacketKind::Request => pnoc_obs::InjectKind::Request,
                    PacketKind::Reply => pnoc_obs::InjectKind::Reply,
                    PacketKind::Data => pnoc_obs::InjectKind::Data,
                },
                class,
            });
        }
        self.inject_cal.schedule(now + self.cfg.router_latency, pkt);
        id
    }

    /// Advance the network one cycle. Deliveries completed this cycle are
    /// available from [`Network::deliveries`] until the next `step`.
    ///
    /// Only awake channels run their phases, in ascending channel order as
    /// before; a channel that ends the cycle quiescent goes to sleep, and
    /// an injection reaching a sleeping channel wakes it (catching it up in
    /// O(1)) before it is enqueued. A cycle therefore costs work in
    /// proportion to the channels with something to do.
    pub fn step(&mut self) {
        let now = self.clock.now();
        self.deliveries.clear();
        let metrics = &mut self.metrics;
        let deliveries = &mut self.deliveries;
        let inject_cal = &mut self.inject_cal;
        let awake = &mut self.awake;
        let may_sleep = self.may_sleep;
        // One monomorphization branch for the whole cycle: inject drain plus
        // all six phases run over the concrete channel type.
        for_channels!(&mut self.channels, chs => {
            if inject_cal.is_empty() {
                inject_cal.fast_forward(now);
            } else {
                for mut pkt in inject_cal.drain(now) {
                    pkt.enqueued_at = now;
                    let dst = pkt.dst_node as usize;
                    if !awake.get(dst) {
                        chs[dst].wake(now);
                        awake.set(dst, true);
                    }
                    chs[dst].enqueue(pkt);
                }
            }
            self.executed += awake.count() as u64;
            awake.retain(|i| {
                let ch = &mut chs[i];
                ch.step(now, metrics, deliveries);
                if may_sleep && ch.is_quiescent() {
                    ch.sleep(now);
                    return false;
                }
                true
            });
        });
        #[cfg(feature = "obs-trace")]
        if let Some(s) = self.sampler.as_mut() {
            if s.due(now) {
                for_channels!(&self.channels, chs => for ch in chs {
                    s.record(ch.occupancy_sample(now));
                });
            }
        }
        #[cfg(feature = "verify-invariants")]
        self.audit(now);
        self.clock.tick();
    }

    /// Run the cycle-level invariant auditor against this cycle's end state
    /// (`verify-invariants` feature). Delivery observation — the
    /// exactly-once check — runs every cycle; the cross-field structural
    /// checks are stride-sampled on large configurations.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic on the first violated invariant.
    #[cfg(feature = "verify-invariants")]
    fn audit(&mut self, now: Cycle) {
        for d in &self.deliveries {
            if let Err(why) = self.auditor.observe_delivery(d.pkt.id) {
                panic!("invariant auditor, cycle {now}: {why}");
            }
        }
        // The bit-planes must track their scalar predicates exactly: check
        // every channel's internal invariants on sampled cycles.
        if !self.auditor.due(now) {
            return;
        }
        for_channels!(&self.channels, chs => for ch in chs {
            if let Err(why) = ch.try_check_invariants() {
                panic!("invariant auditor, cycle {now}, channel {}: {why}", ch.home());
            }
        });
        // Reuse the scratch snapshot buffers across sampled cycles (taken
        // out and put back to satisfy the borrow checker alongside `&self`).
        let mut views = std::mem::take(&mut self.audit_views);
        let mut pending = std::mem::take(&mut self.audit_pending);
        self.audit_snapshot_into(&mut views, &mut pending);
        let verdict = self
            .auditor
            .check(&views, &self.metrics, &pending)
            .and_then(|()| self.auditor.check_starvation(now, &views));
        self.audit_views = views;
        self.audit_pending = pending;
        if let Err(why) = verdict {
            panic!("invariant auditor, cycle {now}: {why}");
        }
    }

    /// Snapshot the per-channel views plus the ids still in the injection
    /// pipeline — everything an external
    /// [`crate::audit::InvariantAuditor`] needs to run its checks against
    /// this network (the `pnoc-verify` audit pass drives this without the
    /// `verify-invariants` feature). Refills the caller's buffers in place
    /// so a per-cycle audit loop reuses its allocations.
    pub fn audit_snapshot_into(
        &self,
        views: &mut Vec<crate::audit::ChannelAuditView>,
        pending: &mut Vec<u64>,
    ) {
        views.resize_with(self.cfg.nodes, Default::default);
        for_channels!(&self.channels, chs => {
            for (ch, view) in chs.iter().zip(views.iter_mut()) {
                ch.audit_view_into(view);
            }
        });
        pending.clear();
        pending.extend(self.inject_cal.pending_iter().map(|(_, p)| p.id));
    }

    /// Allocating convenience wrapper around [`Network::audit_snapshot_into`].
    pub fn audit_snapshot(&self) -> (Vec<crate::audit::ChannelAuditView>, Vec<u64>) {
        let mut views = Vec::new();
        let mut pending = Vec::new();
        self.audit_snapshot_into(&mut views, &mut pending);
        (views, pending)
    }

    /// Deterministic work counter: `(executed, simulated)` channel-cycles
    /// so far. Every cycle simulates one channel-cycle per node; only awake
    /// channels execute theirs. The ratio is the share of channel-cycles
    /// the step loop actually ran — exactly 1 with faults enabled, where no
    /// channel sleeps — and is identical on any host for the same run.
    pub fn channel_cycles(&self) -> (u64, u64) {
        (self.executed, self.cfg.nodes as u64 * self.clock.now())
    }

    /// Packets delivered by the most recent [`Network::step`].
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Whether every queue, ring slot, buffer and handshake is empty.
    pub fn is_drained(&self) -> bool {
        self.inject_cal.pending() == 0
            && for_channels!(&self.channels, chs => chs.iter().all(Channel::is_drained))
    }

    /// Per-channel measured service counts by sender node (fairness).
    /// Borrows the channels' live counters — no copies.
    pub fn service_counts(&self) -> Vec<&[u64]> {
        for_channels!(&self.channels, chs => chs
            .iter()
            .map(|c| c.served_by_sender.as_slice())
            .collect())
    }

    /// Run the standard open-loop experiment: warmup, measure, drain, then
    /// summarize (one point on a latency-vs-load figure).
    pub fn run_open_loop(&mut self, source: &mut dyn TrafficSource, plan: RunPlan) -> RunSummary {
        let mut gen_buf = std::mem::take(&mut self.gen_buf);
        for _ in 0..plan.total() {
            let now = self.clock.now();
            let phase_allows = now < plan.warmup + plan.measure;
            if phase_allows && !source.exhausted() {
                gen_buf.clear();
                source.generate(now, &mut gen_buf);
                let measured = plan.measures(now);
                for &(core, dst, kind, class) in &gen_buf {
                    self.inject_classed(core, dst, kind, 0, class, measured);
                }
            }
            self.step();
        }
        // Give stragglers a bounded grace period so latency averages are not
        // truncated at the drain boundary (matters near saturation). Fault
        // injection needs a much longer horizon: timeout recovery with
        // exponential backoff can take thousands of cycles, and the loop
        // exits early once drained, so healthy runs never pay for it.
        let mut grace = if self.cfg.faults.enabled() {
            200_000
        } else {
            4 * self.cfg.ring_segments as u64 + 64
        };
        while grace > 0 && !self.is_drained() {
            self.step();
            grace -= 1;
        }
        self.gen_buf = gen_buf;
        let offered = self.metrics.generated_measured as f64
            / (plan.measure.max(1) as f64 * self.cfg.cores() as f64);
        RunSummary::from_metrics(
            &self.metrics,
            &self.service_counts(),
            plan.measure,
            self.cfg.cores(),
            offered,
        )
    }
}

/// Convenience: build a fresh network and run one synthetic point.
pub fn run_synthetic_point(
    cfg: NetworkConfig,
    pattern: pnoc_traffic::pattern::TrafficPattern,
    rate: f64,
    plan: RunPlan,
) -> RunSummary {
    let mut net = Network::new(cfg).expect("invalid config");
    let mut src = crate::sources::SyntheticSource::new(
        pattern,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0x5EED_0001,
    );
    net.run_open_loop(&mut src, plan)
}

/// A synthetic point's summary plus the full latency distribution behind it.
///
/// The fleet aggregation layer merges the recorders of every replica in a
/// sweep cell before taking tail quantiles, so the cell's p99 is computed
/// over the pooled distribution rather than averaged across replicas.
#[derive(Debug, Clone)]
pub struct PointDetail {
    /// The scalar summary, identical to what [`run_synthetic_point`] returns.
    pub summary: RunSummary,
    /// The full measured-latency recorder for the run.
    pub latency: pnoc_obs::LatencyRecorder,
}

/// [`run_synthetic_point`], but also returning the latency recorder.
pub fn run_synthetic_point_detailed(
    cfg: NetworkConfig,
    pattern: pnoc_traffic::pattern::TrafficPattern,
    rate: f64,
    plan: RunPlan,
) -> PointDetail {
    let mut net = Network::new(cfg).expect("invalid config");
    let mut src = crate::sources::SyntheticSource::new(
        pattern,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0x5EED_0001,
    );
    let summary = net.run_open_loop(&mut src, plan);
    PointDetail {
        summary,
        latency: net.metrics().latency_rec.clone(),
    }
}

/// [`run_synthetic_point_detailed`] with a multi-tenant source: the mix's
/// tenants split the offered rate and tag packets with their traffic
/// classes. [`pnoc_traffic::classes::TenantMixKind::SingleClass`]
/// reproduces the plain synthetic run bit-for-bit (same seed derivation,
/// same injection stream).
pub fn run_classed_point_detailed(
    cfg: NetworkConfig,
    mix: pnoc_traffic::classes::TenantMixKind,
    pattern: pnoc_traffic::pattern::TrafficPattern,
    rate: f64,
    plan: RunPlan,
) -> PointDetail {
    let mut net = Network::new(cfg).expect("invalid config");
    let mut src = crate::sources::ClassedSource::new(
        mix,
        rate,
        pattern,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0x5EED_0001,
    );
    let summary = net.run_open_loop(&mut src, plan);
    PointDetail {
        summary,
        latency: net.metrics().latency_rec.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::sources::SyntheticSource;
    use pnoc_traffic::pattern::TrafficPattern;

    fn quick_point(scheme: Scheme, rate: f64) -> RunSummary {
        let cfg = NetworkConfig::small(scheme);
        run_synthetic_point(cfg, TrafficPattern::UniformRandom, rate, RunPlan::quick())
    }

    #[test]
    fn all_schemes_conserve_packets_at_low_load() {
        for scheme in Scheme::paper_set(2) {
            let cfg = NetworkConfig::small(scheme);
            let mut net = Network::new(cfg).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                0.02,
                cfg.nodes,
                cfg.cores_per_node,
                7,
            );
            let s = net.run_open_loop(&mut src, RunPlan::quick());
            assert!(net.is_drained(), "{scheme:?} left packets in flight");
            assert_eq!(
                net.metrics().generated,
                net.metrics().delivered,
                "{scheme:?} lost packets"
            );
            assert!(!s.saturated, "{scheme:?} saturated at 0.02?");
            assert!(
                s.avg_latency > 0.0 && s.avg_latency < 40.0,
                "{scheme:?}: {}",
                s.avg_latency
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick_point(Scheme::Dhs { setaside: 2 }, 0.05);
        let b = quick_point(Scheme::Dhs { setaside: 2 }, 0.05);
        assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn latency_rises_with_load() {
        let low = quick_point(Scheme::Dhs { setaside: 2 }, 0.01);
        let high = quick_point(Scheme::Dhs { setaside: 2 }, 0.15);
        assert!(
            high.avg_latency > low.avg_latency,
            "latency must grow with load ({} vs {})",
            high.avg_latency,
            low.avg_latency
        );
    }

    #[test]
    fn throughput_tracks_offered_below_saturation() {
        let s = quick_point(Scheme::TokenSlot, 0.03);
        assert!(
            (s.throughput_per_core - s.offered_per_core).abs() < 0.005,
            "accepted {} vs offered {}",
            s.throughput_per_core,
            s.offered_per_core
        );
    }

    #[test]
    fn inject_validates_arguments() {
        let cfg = NetworkConfig::small(Scheme::TokenSlot);
        let mut net = Network::new(cfg).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.inject(0, 0, PacketKind::Data, 0, false) // core 0 lives on node 0
        }));
        assert!(r.is_err(), "self-node traffic must be rejected");
    }

    #[test]
    fn closed_loop_api_round_trip() {
        // Drive inject()/step()/deliveries() by hand, as the CMP model does.
        let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
        let mut net = Network::new(cfg).unwrap();
        let id = net.inject(0, 5, PacketKind::Request, 42, true);
        let mut seen = None;
        for _ in 0..64 {
            net.step();
            if let Some(d) = net.deliveries().first() {
                seen = Some(*d);
                break;
            }
        }
        let d = seen.expect("packet should be delivered");
        assert_eq!(d.pkt.id, id);
        assert_eq!(d.pkt.tag, 42);
        assert_eq!(d.pkt.dst_node, 5);
        assert!(d.available_at >= net.now() - 1);
    }

    /// `(executed, simulated)` channel-cycles of one uniform-random run.
    fn work(cfg: NetworkConfig, rate: f64) -> (u64, u64) {
        let mut net = Network::new(cfg).unwrap();
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            rate,
            cfg.nodes,
            cfg.cores_per_node,
            cfg.seed ^ 0x5EED_0001,
        );
        net.run_open_loop(&mut src, RunPlan::new(300, 2_000, 300));
        let (executed, simulated) = net.channel_cycles();
        assert_eq!(simulated, cfg.nodes as u64 * net.now());
        (executed, simulated)
    }

    #[test]
    fn work_counter_sees_idle_channels_sleep() {
        for scheme in Scheme::paper_set(2) {
            let cfg = NetworkConfig::small(scheme);
            let (executed, simulated) = work(cfg, 0.002);
            assert!(
                executed * 4 < simulated,
                "{scheme:?}: sparse run executed {executed} of {simulated} channel-cycles"
            );
            assert_eq!(
                work(cfg, 0.002),
                (executed, simulated),
                "{scheme:?}: work counter differs between identical runs"
            );
            let (executed, simulated) = work(cfg.with_faults(FaultConfig::uniform(1e-4)), 0.002);
            assert_eq!(executed, simulated, "{scheme:?}: a faulted channel slept");
        }
    }

    #[test]
    fn bad_config_is_rejected() {
        let mut cfg = NetworkConfig::small(Scheme::TokenSlot);
        cfg.ring_segments = 3;
        assert!(Network::new(cfg).is_err());
    }

    // --- fault injection & recovery ---

    use pnoc_faults::FaultConfig;

    /// Run one faulted point; returns (summary, metrics, drained). Credit
    /// schemes may legitimately wedge (leaked credits never come back), so
    /// the drain check is left to each test.
    fn faulted_point(cfg: NetworkConfig, rate: f64) -> (RunSummary, NetworkMetrics, bool) {
        let mut net = Network::new(cfg).expect("invalid config");
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            rate,
            cfg.nodes,
            cfg.cores_per_node,
            cfg.seed ^ 0x5EED_0001,
        );
        let s = net.run_open_loop(&mut src, RunPlan::quick());
        let drained = net.is_drained();
        (s, net.metrics().clone(), drained)
    }

    #[test]
    fn zero_rate_faults_and_armed_recovery_change_nothing() {
        // Acceptance: routing a run "through the fault engine" at rate 0 —
        // recovery armed, timers pushed and going stale every packet — must
        // reproduce the seed latency bit-for-bit.
        let base = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
        let with_engine = base.with_faults(FaultConfig::uniform(0.0));
        assert!(
            with_engine.recovery.enabled,
            "handshake scheme must arm recovery"
        );
        let a = run_synthetic_point(base, TrafficPattern::UniformRandom, 0.05, RunPlan::quick());
        let b = run_synthetic_point(
            with_engine,
            TrafficPattern::UniformRandom,
            0.05,
            RunPlan::quick(),
        );
        assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(
            b.timeout_retransmissions, 0,
            "no timer may fire on a healthy network"
        );
        assert_eq!(b.duplicates, 0);
    }

    #[test]
    fn handshake_schemes_deliver_everything_under_faults() {
        for scheme in [Scheme::Ghs { setaside: 0 }, Scheme::Dhs { setaside: 2 }] {
            let cfg = NetworkConfig::small(scheme).with_faults(FaultConfig::uniform(5e-4));
            let (s, m, drained) = faulted_point(cfg, 0.05);
            assert!(drained, "{scheme:?} failed to drain under recovery");
            assert_eq!(
                m.generated, m.delivered,
                "{scheme:?} lost or duplicated packets"
            );
            assert_eq!(s.lost_packets, 0, "{scheme:?}");
            assert_eq!(
                s.abandoned, 0,
                "{scheme:?} gave up on a packet at a mild fault rate"
            );
            let injected = m.faults_data_lost
                + m.faults_data_corrupt
                + m.faults_acks_lost
                + m.faults_tokens_lost;
            assert!(injected > 0, "{scheme:?}: fault engine never fired at 5e-4");
            assert!(
                m.timeout_retransmissions > 0,
                "{scheme:?}: losses must be recovered via timeout"
            );
        }
    }

    #[test]
    fn lost_acks_are_recovered_without_duplicate_delivery() {
        let faults = FaultConfig {
            ack_loss: 2e-3,
            ..FaultConfig::none()
        };
        let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 }).with_faults(faults);
        let (s, m, drained) = faulted_point(cfg, 0.05);
        assert!(drained, "recovery failed to drain the network");
        assert!(m.faults_acks_lost > 0, "ACK-loss process never fired");
        assert!(
            m.timeout_retransmissions > 0,
            "lost ACKs must trigger timeouts"
        );
        assert!(
            m.duplicates_suppressed > 0,
            "a retransmit after a lost ACK arrives as a duplicate and must be filtered"
        );
        assert_eq!(m.generated, m.delivered, "exactly-once delivery violated");
        assert_eq!(s.lost_packets, 0);
    }

    #[test]
    fn credit_schemes_leak_and_lose_under_data_loss() {
        let faults = FaultConfig {
            data_loss: 1e-3,
            ..FaultConfig::none()
        };
        for scheme in [Scheme::TokenChannel, Scheme::TokenSlot] {
            let cfg = NetworkConfig::small(scheme).with_faults(faults);
            assert!(
                !cfg.recovery.enabled,
                "credit schemes have no handshake to arm"
            );
            let (s, m, _) = faulted_point(cfg, 0.05);
            assert!(
                m.faults_data_lost > 0,
                "{scheme:?}: loss process never fired"
            );
            assert!(
                s.lost_packets > 0,
                "{scheme:?} cannot recover destroyed flits"
            );
            assert!(
                s.credit_leaks > 0,
                "{scheme:?}: every destroyed flit leaks an unreturnable credit"
            );
        }
    }

    #[test]
    fn global_token_loss_recovers_via_watchdog() {
        let faults = FaultConfig {
            token_loss: 2e-3,
            ..FaultConfig::none()
        };
        // GHS: the token carries no credits, so the watchdog re-emission makes
        // token loss fully survivable.
        let cfg = NetworkConfig::small(Scheme::Ghs { setaside: 0 }).with_faults(faults);
        let (s, m, drained) = faulted_point(cfg, 0.03);
        assert!(drained, "GHS failed to drain after token loss");
        assert!(m.faults_tokens_lost > 0, "token-loss process never fired");
        assert_eq!(m.generated, m.delivered, "GHS must survive token loss");
        assert_eq!(s.lost_packets, 0);
        // Token channel: the same watchdog restores arbitration, but the
        // credits the token carried are destroyed with it.
        let cfg = NetworkConfig::small(Scheme::TokenChannel).with_faults(faults);
        let (_, m, _) = faulted_point(cfg, 0.03);
        assert!(m.faults_tokens_lost > 0);
        assert!(m.credit_leaks > 0, "carried credits die with the token");
    }

    #[test]
    fn ejection_stalls_are_absorbed_by_handshake_recovery() {
        let faults = FaultConfig {
            stall_start: 5e-4,
            stall_cycles: 16,
            ..FaultConfig::none()
        };
        let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 }).with_faults(faults);
        let (s, m, drained) = faulted_point(cfg, 0.05);
        assert!(drained, "stalls must not wedge a recovering network");
        assert!(m.stall_cycles > 0, "stall process never fired");
        assert_eq!(
            m.generated, m.delivered,
            "stalls must only delay, never lose"
        );
        assert_eq!(s.lost_packets, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_given_seed() {
        let mk = || {
            NetworkConfig::small(Scheme::Dhs { setaside: 2 })
                .with_faults(FaultConfig::uniform(1e-4))
        };
        let (a, ma, _) = faulted_point(mk(), 0.05);
        let (b, mb, _) = faulted_point(mk(), 0.05);
        assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(ma.faults_data_lost, mb.faults_data_lost);
        assert_eq!(ma.faults_acks_lost, mb.faults_acks_lost);
        assert_eq!(ma.timeout_retransmissions, mb.timeout_retransmissions);
        assert_eq!(ma.duplicates_suppressed, mb.duplicates_suppressed);
    }
}
