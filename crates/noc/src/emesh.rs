//! Electrical 2D-mesh baseline — the substrate the paper argues *against*.
//!
//! §II-C: "In electrical NOC with hop-by-hop transmission, credit-based flow
//! control is preferred since the most recent credit information is instantly
//! available due to the short communication delay between neighbors. […] The
//! short transmission delay between neighbors helps reduce the buffer
//! requirement." This module implements that classical design so the claim is
//! measurable: a k×k input-buffered mesh with XY dimension-order routing,
//! per-link credit flow control (credit wire = 1 cycle), 2-stage routers and
//! 1-cycle links.
//!
//! Two things the mesh demonstrates next to the optical ring:
//!
//! 1. credits work *well* here — a handful of buffer slots per port covers
//!    the 3-cycle credit loop, unlike the ring's `R + 2`-cycle loop,
//! 2. the price is hop-by-hop latency: ~3 cycles per hop on a 64-node mesh
//!    versus the ring's 1–8 cycle single photonic hop — the bandwidth/latency
//!    motivation of every nanophotonic `NoC` paper.

use crate::calendar::Calendar;
use crate::channel::Delivery;
use crate::metrics::{NetworkMetrics, RunSummary};
use crate::packet::{Packet, PacketKind};
use crate::schemes::BitPlane;
use crate::sources::TrafficSource;
use pnoc_sim::{Clock, Cycle, RunPlan};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Router port indices.
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;
const PORTS: usize = 5;

/// Electrical mesh configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Mesh side: the network has `side × side` nodes.
    pub side: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Input-buffer flits per router port.
    pub input_buffer: usize,
    /// Router pipeline depth (RC+SA, ST — as the paper's electrical router).
    pub router_latency: u64,
    /// Link traversal, cycles.
    pub link_latency: u64,
    /// RNG seed for sources built on top.
    pub seed: u64,
}

impl MeshConfig {
    /// A 64-node (8×8) mesh comparable to the paper's 64-node ring, with
    /// 4 flits per port — enough to cover the 3-cycle electrical credit loop.
    pub fn paper_comparable() -> Self {
        Self {
            side: 8,
            cores_per_node: 4,
            input_buffer: 4,
            router_latency: 2,
            link_latency: 1,
            seed: 0xE1EC,
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.side * self.side
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.nodes() * self.cores_per_node
    }

    /// Per-hop forwarding latency (router pipeline + link).
    pub fn hop_latency(&self) -> u64 {
        self.router_latency + self.link_latency
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.side < 2 {
            return Err("mesh needs at least a 2×2 side".into());
        }
        if self.cores_per_node == 0 || self.input_buffer == 0 {
            return Err("cores and buffers must be positive".into());
        }
        Ok(())
    }
}

/// One input-buffered router.
#[derive(Debug)]
struct Router {
    /// Input FIFOs by arrival port (LOCAL is the unbounded injection queue).
    inputs: [VecDeque<Packet>; PORTS],
    /// Credits available toward the neighbor behind each output direction.
    credits: [u32; 4],
    /// Round-robin arbitration pointer per output port.
    rr: [usize; PORTS],
}

/// A flit in flight toward (router, input port).
#[derive(Debug, Clone, Copy)]
struct LinkArrival {
    router: usize,
    port: usize,
    pkt: Packet,
}

/// A credit returning to (router, output direction).
#[derive(Debug, Clone, Copy)]
struct CreditArrival {
    router: usize,
    dir: usize,
}

/// The electrical mesh network (same driving API as the optical rings).
#[derive(Debug)]
pub struct MeshNetwork {
    cfg: MeshConfig,
    clock: Clock,
    routers: Vec<Router>,
    /// `(x, y)` of every node, so routing never divides.
    coords: Vec<(usize, usize)>,
    /// Routers with a flit in any input buffer — the only ones switch
    /// allocation visits.
    occupied: BitPlane,
    link_cal: Calendar<LinkArrival>,
    credit_cal: Calendar<CreditArrival>,
    inject_cal: Calendar<Packet>,
    metrics: NetworkMetrics,
    deliveries: Vec<Delivery>,
    next_id: u64,
    gen_buf: Vec<crate::sources::InjectionRequest>,
}

impl MeshNetwork {
    /// Build a mesh; fails on invalid configuration.
    pub fn new(cfg: MeshConfig) -> Result<Self, String> {
        cfg.validate()?;
        let routers = (0..cfg.nodes())
            .map(|_| Router {
                inputs: Default::default(),
                credits: [crate::convert::narrow_u32(cfg.input_buffer); 4],
                rr: [0; PORTS],
            })
            .collect();
        let horizon = (cfg.hop_latency() + 2) as usize;
        Ok(Self {
            cfg,
            clock: Clock::new(),
            routers,
            coords: (0..cfg.nodes())
                .map(|n| (n % cfg.side, n / cfg.side))
                .collect(),
            occupied: BitPlane::new(cfg.nodes()),
            link_cal: Calendar::new(horizon),
            credit_cal: Calendar::new(4),
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

    /// XY dimension-order routing: move along X first, then Y.
    fn route(&self, at: usize, dst: usize) -> usize {
        let (x, y) = self.coords[at];
        let (dx, dy) = self.coords[dst];
        if x < dx {
            EAST
        } else if x > dx {
            WEST
        } else if y < dy {
            SOUTH
        } else if y > dy {
            NORTH
        } else {
            LOCAL
        }
    }

    fn neighbor(&self, node: usize, dir: usize) -> usize {
        match dir {
            NORTH => node - self.cfg.side,
            SOUTH => node + self.cfg.side,
            EAST => node + 1,
            WEST => node - 1,
            _ => unreachable!("no neighbor behind the local port of node {node}"),
        }
    }

    /// The input port of the neighbor that a flit sent out of `dir` lands on.
    fn opposite(dir: usize) -> usize {
        match dir {
            NORTH => SOUTH,
            SOUTH => NORTH,
            EAST => WEST,
            WEST => EAST,
            _ => unreachable!(),
        }
    }

    /// Inject a packet at the current cycle (same contract as the rings).
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

    /// [`MeshNetwork::inject`] with an explicit traffic class, so classed
    /// workloads digest per-class latency on the electrical baseline too.
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
        assert!(dst_node < self.cfg.nodes());
        let src_node = src_core / self.cfg.cores_per_node;
        assert_ne!(src_node, dst_node, "local traffic bypasses the mesh");
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

    /// Whether every buffer, link and calendar is empty — credits still
    /// travelling back upstream included.
    pub fn is_drained(&self) -> bool {
        self.inject_cal.pending() == 0
            && self.link_cal.pending() == 0
            && self.credit_cal.pending() == 0
            && self
                .routers
                .iter()
                .all(|r| r.inputs.iter().all(VecDeque::is_empty))
    }

    /// Packets delivered by the most recent [`MeshNetwork::step`].
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Advance one cycle. Switch allocation visits only routers holding a
    /// flit, and routes each input head once per cycle.
    pub fn step(&mut self) {
        let now = self.clock.now();
        self.deliveries.clear();

        // Arrivals land in downstream input buffers (space was reserved by
        // the credit taken at grant time).
        if self.link_cal.is_empty() {
            self.link_cal.fast_forward(now);
        } else {
            for a in self.link_cal.drain(now) {
                debug_assert!(
                    self.routers[a.router].inputs[a.port].len() < self.cfg.input_buffer,
                    "credit reservation violated"
                );
                self.routers[a.router].inputs[a.port].push_back(a.pkt);
                self.occupied.set(a.router, true);
            }
        }
        // Credits return to upstream routers.
        if self.credit_cal.is_empty() {
            self.credit_cal.fast_forward(now);
        } else {
            for c in self.credit_cal.drain(now) {
                self.routers[c.router].credits[c.dir] += 1;
                debug_assert!(
                    self.routers[c.router].credits[c.dir] as usize <= self.cfg.input_buffer
                );
            }
        }
        // Injection-pipeline exits join the local input queue (unbounded).
        if self.inject_cal.is_empty() {
            self.inject_cal.fast_forward(now);
        } else {
            for mut pkt in self.inject_cal.drain(now) {
                pkt.enqueued_at = now;
                let src = pkt.src_node as usize;
                self.routers[src].inputs[LOCAL].push_back(pkt);
                self.occupied.set(src, true);
            }
        }

        // Switch allocation: per router, per output port, one winner per
        // cycle chosen round-robin among the inputs whose head wants it.
        // Routers are independent within a cycle (every forward lands in a
        // calendar at least one cycle ahead), so empty ones are skipped.
        let routers = self.routers.len();
        let mut next = self.occupied.first_in(0, routers);
        while let Some(r) = next {
            next = self.occupied.first_in(r + 1, routers);
            // The output each input head requests (PORTS = no head). An
            // input feeds the crossbar at most once per cycle, so a head
            // uncovered by a pop is never routed this cycle.
            let mut wants = [PORTS; PORTS];
            // Outputs some head requests, as a bit mask: the others have
            // no candidate, so allocation visits only these, in port order.
            let mut requested = 0u8;
            for (p, want) in wants.iter_mut().enumerate() {
                if let Some(head) = self.routers[r].inputs[p].front() {
                    *want = self.route(r, head.dst_node as usize);
                    requested |= 1 << *want;
                }
            }
            while requested != 0 {
                let out = requested.trailing_zeros() as usize;
                requested &= requested - 1;
                // Output readiness.
                if out != LOCAL && self.routers[r].credits[out] == 0 {
                    continue;
                }
                // Find a requesting input, round-robin from rr[out].
                let start = self.routers[r].rr[out];
                let Some(p) = (0..PORTS)
                    .map(|k| (start + k) % PORTS)
                    .find(|&p| wants[p] == out)
                else {
                    continue;
                };
                let Some(mut pkt) = self.routers[r].inputs[p].pop_front() else {
                    continue;
                };
                wants[p] = PORTS;
                self.routers[r].rr[out] = (p + 1) % PORTS;
                if pkt.sends == 0 && pkt.measured {
                    self.metrics
                        .queue_wait
                        .record((now - pkt.enqueued_at) as f64);
                }
                pkt.sends += 1;
                pkt.sent_at = now;
                self.metrics.sends += 1;
                // Freeing a non-local input slot returns a credit upstream.
                if p != LOCAL {
                    let upstream = self.neighbor(r, p);
                    self.credit_cal.schedule(
                        now + 1,
                        CreditArrival {
                            router: upstream,
                            dir: Self::opposite(p),
                        },
                    );
                }
                if out == LOCAL {
                    // Ejection: hand to the local cores.
                    let available_at = now + self.cfg.router_latency;
                    self.metrics.arrivals += 1;
                    self.metrics.delivered += 1;
                    if pkt.measured {
                        self.metrics.delivered_measured += 1;
                        self.metrics
                            .record_latency_class(pkt.class, pkt.latency_at(available_at) as f64);
                    }
                    self.deliveries.push(Delivery { pkt, available_at });
                } else {
                    // Forward: consume a credit, traverse pipeline + link.
                    self.routers[r].credits[out] -= 1;
                    let next = self.neighbor(r, out);
                    self.link_cal.schedule(
                        now + self.cfg.hop_latency(),
                        LinkArrival {
                            router: next,
                            port: Self::opposite(out),
                            pkt,
                        },
                    );
                }
            }
            if self.routers[r].inputs.iter().all(VecDeque::is_empty) {
                self.occupied.set(r, false);
            }
        }

        self.clock.tick();
    }

    /// Open-loop run with the shared warmup/measure/drain protocol.
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
        let mut grace = 16 * self.cfg.side as u64 * self.cfg.hop_latency() + 64;
        while grace > 0 && !self.is_drained() {
            self.step();
            grace -= 1;
        }
        self.gen_buf = gen_buf;
        let offered = self.metrics.generated_measured as f64
            / (plan.measure.max(1) as f64 * self.cfg.cores() as f64);
        RunSummary::from_metrics::<&[u64]>(
            &self.metrics,
            &[],
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

    fn cfg() -> MeshConfig {
        MeshConfig {
            side: 4,
            cores_per_node: 2,
            input_buffer: 4,
            router_latency: 2,
            link_latency: 1,
            seed: 3,
        }
    }

    #[test]
    fn xy_routing_reaches_every_pair() {
        let net = MeshNetwork::new(cfg()).unwrap();
        for src in 0..16 {
            for dst in 0..16 {
                if src == dst {
                    continue;
                }
                // Walk the route; it must reach dst in ≤ 2(side-1) hops.
                let mut at = src;
                let mut hops = 0;
                while at != dst {
                    let dir = net.route(at, dst);
                    assert_ne!(dir, LOCAL);
                    at = net.neighbor(at, dir);
                    hops += 1;
                    assert!(hops <= 6, "route too long {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn single_packet_latency_tracks_hops() {
        // 0 → 3 is 3 hops east on a 4×4 mesh: inject 2 + 4 hop-grants with
        // 3-cycle forwards + eject 2 ≈ hop_latency × hops + constants.
        let mut net = MeshNetwork::new(cfg()).unwrap();
        net.inject(0, 3, PacketKind::Data, 0, true);
        let mut got = None;
        for _ in 0..80 {
            net.step();
            if let Some(d) = net.deliveries().first() {
                got = Some(*d);
                break;
            }
        }
        let d = got.expect("delivered");
        let lat = d.pkt.latency_at(d.available_at);
        assert!(
            (12..=20).contains(&lat),
            "3-hop latency should be ~15 cycles, got {lat}"
        );
        // A 1-hop packet must be faster.
        let mut net = MeshNetwork::new(cfg()).unwrap();
        net.inject(0, 1, PacketKind::Data, 0, true);
        let mut got = None;
        for _ in 0..80 {
            net.step();
            if let Some(d) = net.deliveries().first() {
                got = Some(*d);
                break;
            }
        }
        let near = got.expect("delivered");
        assert!(near.pkt.latency_at(near.available_at) < lat);
    }

    #[test]
    fn conservation_under_uniform_load() {
        let c = cfg();
        let mut net = MeshNetwork::new(c).unwrap();
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            0.05,
            c.nodes(),
            c.cores_per_node,
            9,
        );
        net.run_open_loop(&mut src, RunPlan::new(500, 3_000, 500));
        let mut guard = 100_000;
        while !net.is_drained() && guard > 0 {
            net.step();
            guard -= 1;
        }
        assert!(net.is_drained());
        assert_eq!(net.metrics().generated, net.metrics().delivered);
        assert_eq!(net.metrics().drops, 0, "credit mesh never drops");
    }

    #[test]
    fn small_buffers_suffice_on_short_links() {
        // §II-C's point: the electrical credit loop is ~3 cycles, so 2-flit
        // buffers already perform close to 8-flit ones at moderate load.
        let run = |buffer| {
            let mut c = cfg();
            c.side = 8;
            c.input_buffer = buffer;
            let mut net = MeshNetwork::new(c).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                0.04,
                c.nodes(),
                c.cores_per_node,
                5,
            );
            net.run_open_loop(&mut src, RunPlan::new(1_000, 5_000, 1_000))
        };
        let tiny = run(2);
        let big = run(8);
        assert!(!tiny.saturated && !big.saturated);
        assert!(
            (tiny.avg_latency - big.avg_latency).abs() < 0.15 * big.avg_latency,
            "2-flit buffers should be within 15% of 8-flit ({} vs {})",
            tiny.avg_latency,
            big.avg_latency
        );
    }

    #[test]
    fn mesh_zero_load_latency_exceeds_optical_ring() {
        // The motivation comparison: hop-by-hop electrical vs one-hop optical
        // at 64 nodes, near zero load.
        let mut mc = MeshConfig::paper_comparable();
        mc.seed = 7;
        let mut mesh = MeshNetwork::new(mc).unwrap();
        let mut src = SyntheticSource::new(
            TrafficPattern::UniformRandom,
            0.01,
            mc.nodes(),
            mc.cores_per_node,
            7,
        );
        let mesh_summary = mesh.run_open_loop(&mut src, RunPlan::new(1_000, 4_000, 1_000));

        let rc =
            crate::config::NetworkConfig::paper_default(crate::config::Scheme::Dhs { setaside: 8 });
        let ring_summary = crate::network::run_synthetic_point(
            rc,
            TrafficPattern::UniformRandom,
            0.01,
            RunPlan::new(1_000, 4_000, 1_000),
        );
        assert!(
            mesh_summary.avg_latency > 1.5 * ring_summary.avg_latency,
            "optical one-hop should be clearly faster at zero load ({} vs {})",
            mesh_summary.avg_latency,
            ring_summary.avg_latency
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let c = cfg();
            let mut net = MeshNetwork::new(c).unwrap();
            let mut src = SyntheticSource::new(
                TrafficPattern::Tornado,
                0.05,
                c.nodes(),
                c.cores_per_node,
                77,
            );
            net.run_open_loop(&mut src, RunPlan::new(500, 2_000, 500))
                .avg_latency
                .to_bits()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn validates_config() {
        let mut c = cfg();
        c.side = 1;
        assert!(MeshNetwork::new(c).is_err());
        let mut c = cfg();
        c.input_buffer = 0;
        assert!(MeshNetwork::new(c).is_err());
    }
}
