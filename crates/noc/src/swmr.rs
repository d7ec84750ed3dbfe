//! SWMR (single-writer, multiple-reader) interconnect variant.
//!
//! The paper (§II-B) notes its handshake schemes "can be applied to both MWSR
//! and SWMR" but evaluates MWSR for cost reasons. This module implements the
//! SWMR side of that claim: every node *writes* one dedicated channel that
//! every other node can read, so **no channel arbitration exists at all** —
//! the interesting problem moves entirely into flow control:
//!
//! * [`SwmrFlowControl::PartitionedCredit`] — the classical answer: the
//!   receiver's buffer is statically partitioned, one credit per potential
//!   sender, returned a ring-trip after the buffered flit drains. With `N-1`
//!   potential senders this forces the input buffer to hold at least `N-1`
//!   slots (63 for the paper's network) or senders are permanently locked
//!   out; and an exhausted per-destination credit HOL-blocks the sender's
//!   single output queue.
//! * [`SwmrFlowControl::Handshake`] — GHS-style try-and-NACK: senders
//!   transmit without reservations, receivers ACK or drop+NACK, and a
//!   setaside buffer removes the HOL blocking. Buffers shrink back to the
//!   handful of slots MWSR uses, which is the paper's scalability argument
//!   ("performance … independent of on-chip buffer space") carried over to
//!   SWMR.
//!
//! The model reuses the MWSR building blocks: wave-pipelined [`SlotRing`]
//! channels (one per *source*), [`OutQueue`] send disciplines, calendars for
//! handshake/credit returns, and the same warmup/measure/drain protocol.

use crate::calendar::Calendar;
use crate::channel::Delivery;
use crate::metrics::{NetworkMetrics, RunSummary};
use crate::outqueue::{OutQueue, SendMode};
use crate::packet::{Packet, PacketKind};
use crate::schemes::BitPlane;
use crate::slots::SlotRing;
use crate::sources::TrafficSource;
use crate::topology::Topology;
use pnoc_sim::{Clock, Cycle, RunPlan};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Flow control for the SWMR fabric (arbitration-free by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwmrFlowControl {
    /// One statically allocated credit per (sender, receiver) pair; the
    /// credit returns a ring trip after the flit leaves the receiver buffer.
    PartitionedCredit,
    /// ACK/NACK handshake with `setaside` slots per sender
    /// (0 = basic hold-the-head).
    Handshake {
        /// Setaside-buffer slots per source queue.
        setaside: usize,
    },
}

impl SwmrFlowControl {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            SwmrFlowControl::PartitionedCredit => "SWMR credit".into(),
            SwmrFlowControl::Handshake { setaside: 0 } => "SWMR handshake".into(),
            SwmrFlowControl::Handshake { .. } => "SWMR handshake w/ setaside".into(),
        }
    }
}

/// SWMR network configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwmrConfig {
    /// Nodes (each owns one write channel).
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Ring segments (= full loop cycles).
    pub ring_segments: usize,
    /// Receiver input-buffer slots.
    pub input_buffer: usize,
    /// Receiver ejection bandwidth, packets/cycle.
    pub ejection_per_cycle: usize,
    /// Electrical router pipeline depth.
    pub router_latency: u64,
    /// Flow control.
    pub flow: SwmrFlowControl,
    /// RNG seed (used by synthetic sources built on top).
    pub seed: u64,
}

impl SwmrConfig {
    /// Paper-scale SWMR with handshake: the 8-slot buffers MWSR uses.
    pub fn paper_handshake(setaside: usize) -> Self {
        Self {
            nodes: 64,
            cores_per_node: 4,
            ring_segments: 8,
            input_buffer: 8,
            ejection_per_cycle: 1,
            router_latency: 2,
            flow: SwmrFlowControl::Handshake { setaside },
            seed: 0x00C0_FFEE,
        }
    }

    /// Paper-scale SWMR with partitioned credits: needs `N − 1` buffer slots
    /// so every sender owns at least one credit.
    pub fn paper_credit() -> Self {
        Self {
            input_buffer: 63,
            flow: SwmrFlowControl::PartitionedCredit,
            ..Self::paper_handshake(0)
        }
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("need at least 2 nodes".into());
        }
        if self.ring_segments == 0 || !self.nodes.is_multiple_of(self.ring_segments) {
            return Err("segments must divide nodes".into());
        }
        if self.cores_per_node == 0 || self.input_buffer == 0 || self.ejection_per_cycle == 0 {
            return Err("cores, buffers and ejection bandwidth must be positive".into());
        }
        if self.flow == SwmrFlowControl::PartitionedCredit && self.input_buffer < self.nodes - 1 {
            return Err(format!(
                "partitioned credits need input_buffer ≥ nodes−1 ({} < {})",
                self.input_buffer,
                self.nodes - 1
            ));
        }
        Ok(())
    }
}

/// A credit returning to sender `src` for destination `dst`.
#[derive(Debug, Clone, Copy)]
struct CreditReturn {
    src: usize,
    dst: usize,
}

/// A handshake in flight back to sender `src`.
#[derive(Debug, Clone, Copy)]
struct SwmrAck {
    src: usize,
    id: u64,
    ok: bool,
}

/// Per-source write channel.
#[derive(Debug)]
struct SwmrChannel {
    queue: OutQueue,
    data: SlotRing<Packet>,
    /// Remaining credits per destination (credit mode only).
    credits: Vec<u32>,
}

/// Per-node receive side.
#[derive(Debug)]
struct SwmrReceiver {
    input_queue: VecDeque<Packet>,
    draining: u32,
    served_by_sender: Vec<u64>,
}

/// Cycles a credit freed at receiver `dst` takes to reach sender `src`:
/// the remaining ring arc back (one full trip minus the data leg, +1).
fn credit_delay(topo: &Topology, src: usize, dst: usize) -> Cycle {
    (topo.segments as u64 + 1 - topo.data_delay(src, dst)).max(1)
}

/// The SWMR network.
#[derive(Debug)]
pub struct SwmrNetwork {
    cfg: SwmrConfig,
    topo: Topology,
    clock: Clock,
    channels: Vec<SwmrChannel>,
    /// Channels whose ring carries a flit (the only ones the light-advance
    /// and arrival phases visit).
    in_flight: BitPlane,
    /// Channels whose source queue holds packets (the only ones the sender
    /// phase visits).
    queued: BitPlane,
    /// This cycle's arrivals as `(receiver, source, segment)`, reused
    /// across cycles.
    arrivals: Vec<(usize, usize, usize)>,
    receivers: Vec<SwmrReceiver>,
    /// Receivers with packets in their input buffer (the only ones the
    /// ejection phase visits).
    buffered: BitPlane,
    /// Handshake events heading back to their senders. One calendar for
    /// the fabric: a sender's events keep their order, and events for
    /// different senders touch disjoint state.
    acks: Calendar<SwmrAck>,
    /// Credit returns heading back to their senders.
    credits_in: Calendar<CreditReturn>,
    /// Buffer-slot releases as flits leave the ejection routers (the
    /// packet says which receiver and, for the credit return, which
    /// sender).
    releases: Calendar<Packet>,
    inject_cal: Calendar<Packet>,
    metrics: NetworkMetrics,
    deliveries: Vec<Delivery>,
    next_id: u64,
    gen_buf: Vec<crate::sources::InjectionRequest>,
}

impl SwmrNetwork {
    /// Build an SWMR network; fails on invalid configuration.
    pub fn new(cfg: SwmrConfig) -> Result<Self, String> {
        cfg.validate()?;
        let topo = Topology::new(cfg.nodes, cfg.ring_segments);
        let mode = match cfg.flow {
            SwmrFlowControl::PartitionedCredit => SendMode::Forget,
            SwmrFlowControl::Handshake { setaside: 0 } => SendMode::HoldHead,
            SwmrFlowControl::Handshake { setaside } => SendMode::Setaside(setaside),
        };
        let per_pair_credits = if cfg.flow == SwmrFlowControl::PartitionedCredit {
            crate::convert::narrow_u32((cfg.input_buffer / (cfg.nodes - 1)).max(1))
        } else {
            0
        };
        let channels = (0..cfg.nodes)
            .map(|_| SwmrChannel {
                queue: OutQueue::new(mode),
                data: SlotRing::new(cfg.ring_segments),
                credits: vec![per_pair_credits; cfg.nodes],
            })
            .collect();
        let receivers = (0..cfg.nodes)
            .map(|_| SwmrReceiver {
                input_queue: VecDeque::new(),
                draining: 0,
                served_by_sender: vec![0; cfg.nodes],
            })
            .collect();
        Ok(Self {
            cfg,
            topo,
            clock: Clock::new(),
            channels,
            in_flight: BitPlane::new(cfg.nodes),
            queued: BitPlane::new(cfg.nodes),
            arrivals: Vec::with_capacity(cfg.nodes),
            receivers,
            buffered: BitPlane::new(cfg.nodes),
            acks: Calendar::new(cfg.ring_segments + 2),
            credits_in: Calendar::new(2 * cfg.ring_segments + 4),
            releases: Calendar::new(cfg.router_latency as usize + 2),
            inject_cal: Calendar::new(cfg.router_latency as usize + 1),
            metrics: NetworkMetrics::new(),
            deliveries: Vec::new(),
            next_id: 0,
            gen_buf: Vec::new(),
        })
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// Inject a packet (same contract as [`crate::network::Network::inject`]).
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

    /// [`SwmrNetwork::inject`] with an explicit traffic class, so classed
    /// workloads digest per-class latency on the SWMR baseline too.
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
        assert!(src_core < self.cfg.cores());
        assert!(dst_node < self.cfg.nodes);
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
            enqueued_at: now,
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
        self.inject_cal.schedule(now + self.cfg.router_latency, pkt);
        id
    }

    /// Whether everything has drained, including credit returns still
    /// travelling back to their senders.
    pub fn is_drained(&self) -> bool {
        self.inject_cal.pending() == 0
            && self.acks.pending() == 0
            && self.credits_in.pending() == 0
            && self
                .channels
                .iter()
                .all(|c| c.queue.is_idle() && c.data.is_empty())
            && self
                .receivers
                .iter()
                .all(|r| r.input_queue.is_empty() && r.draining == 0)
    }

    /// Packets delivered by the most recent [`SwmrNetwork::step`].
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Advance one cycle. The light-advance and arrival phases visit only
    /// channels with a flit on their ring and the sender phase only
    /// channels with queued packets, so an idle fabric costs a scan of the
    /// calendars rather than a probe of every (receiver, source) pair.
    pub fn step(&mut self) {
        let now = self.clock.now();
        self.deliveries.clear();

        // Injection pipeline exits.
        if self.inject_cal.is_empty() {
            self.inject_cal.fast_forward(now);
        } else {
            for mut pkt in self.inject_cal.drain(now) {
                pkt.enqueued_at = now;
                let src = pkt.src_node as usize;
                self.channels[src].queue.push(pkt);
                self.queued.set(src, true);
            }
        }

        // 1. Light advances. Every slot access is relative to a ring's
        //    rotation, so rotating an empty ring is unobservable: only rings
        //    carrying a flit move.
        for src in &self.in_flight {
            self.channels[src].data.advance();
        }

        // 2. Receivers inspect every channel's slot at their segment. SWMR
        //    receivers have a detector per channel, so simultaneous arrivals
        //    from different sources are all examined; the buffer check
        //    serializes in channel order. A flit arrives when the slot
        //    carrying it reaches its receiver's segment; visiting occupied
        //    slots and sorting by (receiver, source) reproduces the
        //    receiver-major probe order exactly.
        self.arrivals.clear();
        for src in &self.in_flight {
            for (seg, p) in self.channels[src].data.iter_occupied() {
                let dst = p.dst_node as usize;
                if self.topo.segment_of(dst) == seg {
                    self.arrivals.push((dst, src, seg));
                }
            }
        }
        self.arrivals.sort_unstable();
        let handshake = matches!(self.cfg.flow, SwmrFlowControl::Handshake { .. });
        for &(dst, src, seg) in &self.arrivals {
            self.metrics.arrivals += 1;
            let rx = &mut self.receivers[dst];
            let has_room = rx.input_queue.len() + (rx.draining as usize) < self.cfg.input_buffer;
            let ch = &mut self.channels[src];
            let Some(pkt) = ch.data.take(seg) else {
                continue;
            };
            if ch.data.is_empty() {
                self.in_flight.set(src, false);
            }
            if handshake {
                let ack_at = pkt.sent_at + self.topo.handshake_delay();
                let ok = has_room;
                self.acks.schedule(
                    ack_at,
                    SwmrAck {
                        src,
                        id: pkt.id,
                        ok,
                    },
                );
                if !has_room {
                    self.metrics.drops += 1;
                    continue;
                }
            } else {
                // Always-on: an arrival with no room means the per-pair
                // credit ledger desynced.
                assert!(has_room, "credit reservation violated");
            }
            rx.input_queue.push_back(pkt);
            self.buffered.set(dst, true);
        }

        // 3. Handshakes and credit returns reach senders.
        if self.acks.is_empty() {
            self.acks.fast_forward(now);
        } else {
            for ack in self.acks.drain(now) {
                let ch = &mut self.channels[ack.src];
                // Always-on: without faults every handshake pairs with
                // exactly one transmission the sender still tracks.
                if ack.ok {
                    let acked = ch.queue.ack(ack.id);
                    assert!(acked.is_some(), "ACK for unknown packet {}", ack.id);
                } else {
                    let requeued = ch.queue.nack(ack.id);
                    assert!(requeued, "NACK for unknown packet {}", ack.id);
                    self.metrics.retransmissions += 1;
                }
                self.queued.set(ack.src, ch.queue.backlog() > 0);
            }
        }
        if self.credits_in.is_empty() {
            self.credits_in.fast_forward(now);
        } else {
            for cr in self.credits_in.drain(now) {
                self.channels[cr.src].credits[cr.dst] += 1;
            }
        }

        // 4. Senders transmit: the single writer needs no arbitration — only
        //    a free slot at its own segment and flow-control permission.
        let len = self.cfg.nodes;
        let mut next = self.queued.first_in(0, len);
        while let Some(src) = next {
            next = self.queued.first_in(src + 1, len);
            let seg = self.topo.segment_of(src);
            let ch = &mut self.channels[src];
            if !ch.data.is_free(seg) {
                continue;
            }
            // Grant-then-transmit in one cycle: without arbitration there is
            // no token wait, matching SWMR's "sender decides" model.
            let permitted = match self.cfg.flow {
                SwmrFlowControl::PartitionedCredit => {
                    // The head packet's destination must have a credit;
                    // otherwise the whole source queue HOL-blocks (the cost
                    // of partitioned credits).
                    ch.queue
                        .peek_head()
                        .is_some_and(|p| ch.credits[p.dst_node as usize] > 0)
                }
                SwmrFlowControl::Handshake { .. } => true,
            };
            if permitted && ch.queue.eligible(now, crate::config::FairnessPolicy::None) {
                ch.queue
                    .take_grant(now, crate::config::FairnessPolicy::None);
                if let Some(pkt) = ch.queue.transmit(now) {
                    if pkt.sends == 1 && pkt.measured {
                        self.metrics
                            .queue_wait
                            .record((now - pkt.enqueued_at) as f64);
                    }
                    self.metrics.sends += 1;
                    if self.cfg.flow == SwmrFlowControl::PartitionedCredit {
                        ch.credits[pkt.dst_node as usize] -= 1;
                    }
                    ch.data.put(seg, pkt);
                    self.in_flight.set(src, true);
                    self.queued.set(src, ch.queue.backlog() > 0);
                }
            }
        }

        // 5. Receivers drain to their cores; buffer slots release after the
        //    ejection router, and (credit mode) the credit then travels back.
        //    A receiver's releases precede its ejections, as before.
        let credit = self.cfg.flow == SwmrFlowControl::PartitionedCredit;
        if self.releases.is_empty() {
            self.releases.fast_forward(now);
        } else {
            for pkt in self.releases.drain(now) {
                let (src, dst) = (pkt.src_node as usize, pkt.dst_node as usize);
                let rx = &mut self.receivers[dst];
                assert!(rx.draining > 0, "draining underflow");
                rx.draining -= 1;
                if credit {
                    self.credits_in.schedule(
                        now + credit_delay(&self.topo, src, dst),
                        CreditReturn { src, dst },
                    );
                }
            }
        }
        let mut next = self.buffered.first_in(0, len);
        while let Some(dst) = next {
            next = self.buffered.first_in(dst + 1, len);
            let rx = &mut self.receivers[dst];
            for _ in 0..self.cfg.ejection_per_cycle {
                let Some(pkt) = rx.input_queue.pop_front() else {
                    break;
                };
                let available_at = now + self.cfg.router_latency;
                if self.cfg.router_latency > 0 {
                    rx.draining += 1;
                    self.releases.schedule(available_at, pkt);
                } else if credit {
                    let src = pkt.src_node as usize;
                    self.credits_in.schedule(
                        now + credit_delay(&self.topo, src, dst),
                        CreditReturn { src, dst },
                    );
                }
                self.metrics.delivered += 1;
                if pkt.measured {
                    self.metrics.delivered_measured += 1;
                    self.metrics
                        .record_latency_class(pkt.class, pkt.latency_at(available_at) as f64);
                    rx.served_by_sender[pkt.src_node as usize] += 1;
                }
                self.deliveries.push(Delivery { pkt, available_at });
            }
            if rx.input_queue.is_empty() {
                self.buffered.set(dst, false);
            }
        }

        self.clock.tick();
    }

    /// Per-receiver measured service counts by sender. Borrows the live
    /// counters — no copies.
    pub fn service_counts(&self) -> Vec<&[u64]> {
        self.receivers
            .iter()
            .map(|r| r.served_by_sender.as_slice())
            .collect()
    }

    /// Open-loop run, identical protocol to the MWSR network.
    pub fn run_open_loop(&mut self, source: &mut dyn TrafficSource, plan: RunPlan) -> RunSummary {
        let mut gen_buf = std::mem::take(&mut self.gen_buf);
        for _ in 0..plan.total() {
            let now = self.clock.now();
            if now < plan.warmup + plan.measure && !source.exhausted() {
                gen_buf.clear();
                source.generate(now, &mut gen_buf);
                let measured = plan.measures(now);
                for &(core, dst, kind, class) in &gen_buf {
                    self.inject_classed(core, dst, kind, 0, class, measured);
                }
            }
            self.step();
        }
        let mut grace = 4 * self.cfg.ring_segments as u64 + 64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::SyntheticSource;
    use pnoc_traffic::pattern::TrafficPattern;

    fn small(flow: SwmrFlowControl) -> SwmrConfig {
        let buffer = if flow == SwmrFlowControl::PartitionedCredit {
            15
        } else {
            4
        };
        SwmrConfig {
            nodes: 16,
            cores_per_node: 2,
            ring_segments: 4,
            input_buffer: buffer,
            ejection_per_cycle: 1,
            router_latency: 2,
            flow,
            seed: 5,
        }
    }

    #[test]
    fn validates_credit_buffer_requirement() {
        let mut cfg = small(SwmrFlowControl::PartitionedCredit);
        cfg.input_buffer = 8; // < nodes-1
        assert!(cfg.validate().is_err());
        assert!(SwmrConfig::paper_credit().validate().is_ok());
        assert!(SwmrConfig::paper_handshake(4).validate().is_ok());
    }

    #[test]
    fn single_packet_delivery_both_flows() {
        for flow in [
            SwmrFlowControl::PartitionedCredit,
            SwmrFlowControl::Handshake { setaside: 0 },
            SwmrFlowControl::Handshake { setaside: 2 },
        ] {
            let mut net = SwmrNetwork::new(small(flow)).unwrap();
            net.inject(2, 7, PacketKind::Data, 9, true);
            let mut delivered = None;
            for _ in 0..64 {
                net.step();
                if let Some(d) = net.deliveries().first() {
                    delivered = Some(*d);
                    break;
                }
            }
            let d = delivered.unwrap_or_else(|| panic!("{flow:?} failed to deliver"));
            assert_eq!(d.pkt.dst_node, 7);
            assert_eq!(d.pkt.tag, 9);
            assert!(net.is_drained() || net.metrics().delivered == 1);
        }
    }

    #[test]
    fn drained_means_every_credit_is_home() {
        // A credit return still travelling back to its sender is in-flight
        // state: the fabric is not drained until it lands.
        let mut net = SwmrNetwork::new(small(SwmrFlowControl::PartitionedCredit)).unwrap();
        let initial: Vec<Vec<u32>> = net.channels.iter().map(|c| c.credits.clone()).collect();
        net.inject(2, 7, PacketKind::Data, 0, true);
        let mut guard = 1_000;
        net.step();
        while !net.is_drained() && guard > 0 {
            net.step();
            guard -= 1;
        }
        assert!(net.is_drained(), "the packet never drained");
        assert_eq!(net.metrics().delivered, 1);
        for (s, ch) in net.channels.iter().enumerate() {
            assert_eq!(ch.credits, initial[s], "sender {s} is missing credits");
        }
    }

    #[test]
    fn no_arbitration_means_low_zero_load_latency() {
        // SWMR has no token wait: zero-load latency ≈ router 2 + flight (≤4)
        // + eject 2 — lower than the MWSR token ring's.
        let mut net = SwmrNetwork::new(small(SwmrFlowControl::Handshake { setaside: 2 })).unwrap();
        let mut src = SyntheticSource::new(TrafficPattern::UniformRandom, 0.01, 16, 2, 3);
        let s = net.run_open_loop(&mut src, RunPlan::new(500, 2_000, 500));
        assert!(
            s.avg_latency < 9.0,
            "SWMR zero-load latency should be small, got {}",
            s.avg_latency
        );
    }

    #[test]
    fn conservation_under_load_both_flows() {
        for flow in [
            SwmrFlowControl::PartitionedCredit,
            SwmrFlowControl::Handshake { setaside: 2 },
        ] {
            let cfg = small(flow);
            let mut net = SwmrNetwork::new(cfg).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                0.05,
                cfg.nodes,
                cfg.cores_per_node,
                11,
            );
            net.run_open_loop(&mut src, RunPlan::new(500, 3_000, 500));
            let mut guard = 100_000;
            while !net.is_drained() && guard > 0 {
                net.step();
                guard -= 1;
            }
            assert!(net.is_drained(), "{flow:?} failed to drain");
            assert_eq!(
                net.metrics().generated,
                net.metrics().delivered,
                "{flow:?} lost packets"
            );
        }
    }

    #[test]
    fn credit_mode_never_drops_handshake_may() {
        let cfg = small(SwmrFlowControl::PartitionedCredit);
        let mut net = SwmrNetwork::new(cfg).unwrap();
        let mut src = SyntheticSource::new(TrafficPattern::UniformRandom, 0.08, 16, 2, 13);
        net.run_open_loop(&mut src, RunPlan::new(500, 4_000, 500));
        assert_eq!(net.metrics().drops, 0);
    }

    #[test]
    fn handshake_beats_partitioned_credit_at_load() {
        // Same offered load; handshake with an 8× smaller buffer should still
        // deliver lower latency because per-pair credits HOL-block sources.
        let run = |flow| {
            let cfg = small(flow);
            let mut net = SwmrNetwork::new(cfg).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                0.10,
                cfg.nodes,
                cfg.cores_per_node,
                21,
            );
            net.run_open_loop(&mut src, RunPlan::new(1_000, 6_000, 1_000))
        };
        let credit = run(SwmrFlowControl::PartitionedCredit);
        let hs = run(SwmrFlowControl::Handshake { setaside: 4 });
        assert!(
            hs.avg_latency <= credit.avg_latency + 1.0,
            "handshake {} should not lose to credit {}",
            hs.avg_latency,
            credit.avg_latency
        );
    }

    #[test]
    fn source_queue_serializes_same_source_traffic() {
        // One source sending to many destinations shares a single channel:
        // at most one flit per cycle leaves the source.
        let mut net = SwmrNetwork::new(small(SwmrFlowControl::Handshake { setaside: 4 })).unwrap();
        for i in 0..8 {
            net.inject(0, 1 + (i % 4), PacketKind::Data, i as u64, true);
        }
        let mut seen = 0;
        for _ in 0..200 {
            net.step();
            seen += net.deliveries().len();
        }
        assert_eq!(seen, 8);
        assert_eq!(net.metrics().sends, 8);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let cfg = small(SwmrFlowControl::Handshake { setaside: 2 });
            let mut net = SwmrNetwork::new(cfg).unwrap();
            let mut src = SyntheticSource::new(TrafficPattern::Tornado, 0.05, 16, 2, 77);
            net.run_open_loop(&mut src, RunPlan::new(500, 2_000, 500))
                .avg_latency
                .to_bits()
        };
        assert_eq!(run(), run());
    }
}
