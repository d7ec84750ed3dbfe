//! Per-layer measurement from outside the layers.
//!
//! The traced run drives each fabric's public `inject_classed` / `step` /
//! `is_drained` API by hand, in exactly the order the fabric's own
//! `run_open_loop` uses, and times the traffic source and every `step()`
//! around the calls. The untraced run and the driven run must produce
//! byte-identical summaries; `main.rs` checks this.

use crate::report::Metric;
use crate::stats;
use pnoc_noc::audit::ChannelAuditView;
use pnoc_noc::sources::InjectionRequest;
use pnoc_noc::{
    MeshConfig, MeshNetwork, Network, NetworkMetrics, RunSummary, SwmrConfig, SwmrNetwork,
    TrafficSource,
};
use pnoc_sim::{Cycle, RunPlan};
use std::time::Instant;

/// MWSR channels are sampled for quiescence every this many cycles.
const QUIESCENCE_STRIDE: Cycle = 256;

/// What a driven source is, for attributing its time to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceLayer {
    /// A PTRC `StreamSource` (pnoc-trace decoding).
    Trace,
    /// A synthetic generator (pnoc-traffic).
    Traffic,
}

/// Which step-time distribution a fabric feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// The MWSR ring (`Network`).
    Mwsr,
    /// The SWMR ring (`SwmrNetwork`).
    Swmr,
    /// The electrical mesh (`MeshNetwork`).
    Mesh,
}

/// The slice of each fabric's public API a driven run needs.
pub trait Fabric {
    /// Which distribution the fabric's steps land in.
    const KIND: FabricKind;
    /// Current cycle.
    fn now(&self) -> Cycle;
    /// Inject one request exactly as `run_open_loop` does.
    fn inject(&mut self, req: InjectionRequest, measured: bool);
    /// Advance one cycle.
    fn step(&mut self);
    /// Whether nothing is in flight.
    fn is_drained(&self) -> bool;
    /// Raw counters.
    fn metrics(&self) -> &NetworkMetrics;
    /// Cores on the fabric.
    fn cores(&self) -> usize;
    /// Channels (or routers) a step iterates.
    fn channels(&self) -> usize;
    /// The post-run grace period `run_open_loop` allows for draining.
    fn drain_grace(&self) -> u64;
    /// Summary of the finished run, as `run_open_loop` builds it.
    fn summary(&self, measure: Cycle) -> RunSummary;
    /// `(idle, total)` channels now, where the fabric exposes an audit view.
    fn quiescence(&self, _scratch: &mut AuditScratch) -> Option<(u64, u64)> {
        None
    }
}

fn offered(m: &NetworkMetrics, measure: Cycle, cores: usize) -> f64 {
    m.generated_measured as f64 / (measure.max(1) as f64 * cores as f64)
}

/// Reusable buffers for [`Network::audit_snapshot_into`].
#[derive(Default)]
pub struct AuditScratch {
    views: Vec<ChannelAuditView>,
    pending: Vec<u64>,
}

impl Fabric for Network {
    const KIND: FabricKind = FabricKind::Mwsr;
    fn now(&self) -> Cycle {
        Network::now(self)
    }
    fn inject(&mut self, (core, dst, kind, class): InjectionRequest, measured: bool) {
        self.inject_classed(core, dst, kind, 0, class, measured);
    }
    fn step(&mut self) {
        Network::step(self);
    }
    fn is_drained(&self) -> bool {
        Network::is_drained(self)
    }
    fn metrics(&self) -> &NetworkMetrics {
        Network::metrics(self)
    }
    fn cores(&self) -> usize {
        self.config().cores()
    }
    fn channels(&self) -> usize {
        self.config().nodes
    }
    fn drain_grace(&self) -> u64 {
        if self.config().faults.enabled() {
            200_000
        } else {
            4 * self.config().ring_segments as u64 + 64
        }
    }
    fn summary(&self, measure: Cycle) -> RunSummary {
        let m = Network::metrics(self);
        let cores = Fabric::cores(self);
        RunSummary::from_metrics(
            m,
            &self.service_counts(),
            measure,
            cores,
            offered(m, measure, cores),
        )
    }
    fn quiescence(&self, scratch: &mut AuditScratch) -> Option<(u64, u64)> {
        self.audit_snapshot_into(&mut scratch.views, &mut scratch.pending);
        let idle = scratch.views.iter().filter(|v| channel_idle(v)).count();
        Some((idle as u64, scratch.views.len() as u64))
    }
}

/// A channel is quiescent when nothing is queued, travelling, buffered,
/// set aside, awaiting a handshake or holding a grant.
fn channel_idle(v: &ChannelAuditView) -> bool {
    v.queue_ids.is_empty()
        && v.ring_ids.is_empty()
        && v.input_queue_ids.is_empty()
        && v.draining == 0
        && v.setaside_ids.is_empty()
        && v.unresolved_ids.is_empty()
        && v.pending_acks.is_empty()
        && v.granted_total == 0
}

/// An SWMR ring with its configuration (the network keeps it private).
pub struct Swmr(pub SwmrNetwork, pub SwmrConfig);

impl Swmr {
    /// Build the ring.
    pub fn new(cfg: SwmrConfig) -> Self {
        Self(SwmrNetwork::new(cfg).expect("valid SWMR config"), cfg)
    }
}

impl Fabric for Swmr {
    const KIND: FabricKind = FabricKind::Swmr;
    fn now(&self) -> Cycle {
        self.0.now()
    }
    fn inject(&mut self, (core, dst, kind, class): InjectionRequest, measured: bool) {
        self.0.inject_classed(core, dst, kind, 0, class, measured);
    }
    fn step(&mut self) {
        self.0.step();
    }
    fn is_drained(&self) -> bool {
        self.0.is_drained()
    }
    fn metrics(&self) -> &NetworkMetrics {
        self.0.metrics()
    }
    fn cores(&self) -> usize {
        self.1.cores()
    }
    fn channels(&self) -> usize {
        self.1.nodes
    }
    fn drain_grace(&self) -> u64 {
        4 * self.1.ring_segments as u64 + 64
    }
    fn summary(&self, measure: Cycle) -> RunSummary {
        let m = self.0.metrics();
        let cores = self.1.cores();
        RunSummary::from_metrics(
            m,
            &self.0.service_counts(),
            measure,
            cores,
            offered(m, measure, cores),
        )
    }
}

/// An electrical mesh with its configuration.
pub struct Mesh(pub MeshNetwork, pub MeshConfig);

impl Mesh {
    /// Build the mesh.
    pub fn new(cfg: MeshConfig) -> Self {
        Self(MeshNetwork::new(cfg).expect("valid mesh config"), cfg)
    }
}

impl Fabric for Mesh {
    const KIND: FabricKind = FabricKind::Mesh;
    fn now(&self) -> Cycle {
        self.0.now()
    }
    fn inject(&mut self, (core, dst, kind, class): InjectionRequest, measured: bool) {
        self.0.inject_classed(core, dst, kind, 0, class, measured);
    }
    fn step(&mut self) {
        self.0.step();
    }
    fn is_drained(&self) -> bool {
        self.0.is_drained()
    }
    fn metrics(&self) -> &NetworkMetrics {
        self.0.metrics()
    }
    fn cores(&self) -> usize {
        self.1.cores()
    }
    fn channels(&self) -> usize {
        self.1.nodes()
    }
    fn drain_grace(&self) -> u64 {
        16 * self.1.side as u64 * self.1.hop_latency() + 64
    }
    fn summary(&self, measure: Cycle) -> RunSummary {
        let m = self.0.metrics();
        let cores = self.1.cores();
        RunSummary::from_metrics::<&[u64]>(m, &[], measure, cores, offered(m, measure, cores))
    }
}

/// Network-layer counters summed over driven runs (pnoc-noc `metrics()`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    pub generated: u64,
    pub delivered: u64,
    pub sends: u64,
    pub arrivals: u64,
    pub drops: u64,
    pub retransmissions: u64,
    pub circulations: u64,
    pub drain_grace_cycles: u64,
    pub data_lost: u64,
    pub data_corrupt: u64,
    pub acks_lost: u64,
    pub tokens_lost: u64,
    pub timeout_retransmissions: u64,
    pub duplicates_suppressed: u64,
    pub abandoned: u64,
    pub credit_leaks: u64,
}

impl NetCounters {
    /// Add one finished run's counters.
    pub fn add(&mut self, m: &NetworkMetrics) {
        self.generated += m.generated;
        self.delivered += m.delivered;
        self.sends += m.sends;
        self.arrivals += m.arrivals;
        self.drops += m.drops;
        self.retransmissions += m.retransmissions;
        self.circulations += m.circulations;
        self.data_lost += m.faults_data_lost;
        self.data_corrupt += m.faults_data_corrupt;
        self.acks_lost += m.faults_acks_lost;
        self.tokens_lost += m.faults_tokens_lost;
        self.timeout_retransmissions += m.timeout_retransmissions;
        self.duplicates_suppressed += m.duplicates_suppressed;
        self.abandoned += m.abandoned;
        self.credit_leaks += m.credit_leaks;
    }
}

/// Everything the traced run measures, accumulated over its passes.
/// Counts are summed across passes and divided by `passes` on report
/// (every pass does identical work, so the quotient is exact).
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced passes accumulated.
    pub passes: u64,
    /// Per-`step()` host times, ns, by fabric.
    pub mwsr_step_ns: Vec<f64>,
    pub swmr_step_ns: Vec<f64>,
    pub mesh_step_ns: Vec<f64>,
    /// MWSR channel-cycles stepped (steps × channels) and their total ns.
    pub mwsr_channel_cycles: u64,
    pub mwsr_step_ns_total: f64,
    /// Quiescence samples: idle channels / channels sampled.
    pub idle_channels: u64,
    pub sampled_channels: u64,
    /// Network counters.
    pub net: NetCounters,
    /// Trace layer: generation+encoding time and volume, decoding time and
    /// events replayed.
    pub trace_write_ns: f64,
    pub trace_events_written: u64,
    pub trace_bytes_written: u64,
    pub trace_read_ns: f64,
    pub trace_events_read: u64,
    /// Traffic layer: synthetic generation time and calls (one per cycle).
    pub traffic_generate_ns: f64,
    pub traffic_generate_calls: u64,
    /// CMP layer.
    pub cmp_step_ns: Vec<f64>,
    pub cmp_runs: u64,
    pub cmp_ipc_sum: f64,
    pub cmp_request_rate_sum: f64,
    pub cmp_stall_fraction_sum: f64,
    pub cmp_net_delivered: u64,
    /// Fleet layer.
    pub fleet_first_cell_s: Vec<f64>,
    pub fleet_last_cell_s: Vec<f64>,
    pub fleet_job_s: Vec<f64>,
    pub fleet_efficiency: Vec<f64>,
    pub fleet_steals: u64,
    /// Host seconds of the traced passes and of their untraced twins.
    pub traced_s: f64,
    pub untraced_s: f64,
}

impl Layers {
    fn steps(&mut self, kind: FabricKind) -> &mut Vec<f64> {
        match kind {
            FabricKind::Mwsr => &mut self.mwsr_step_ns,
            FabricKind::Swmr => &mut self.swmr_step_ns,
            FabricKind::Mesh => &mut self.mesh_step_ns,
        }
    }

    /// Count a finished run's network counters.
    pub fn count_run(&mut self, m: &NetworkMetrics, grace_cycles: u64) {
        self.net.add(m);
        self.net.drain_grace_cycles += grace_cycles;
    }

    /// Every per-layer metric, in a fixed order. Layers a workload does not
    /// run report 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let passes = self.passes.max(1) as f64;
        let per_pass = |x: u64| x as f64 / passes;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut out = Vec::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            out.push(Metric {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            });
        };
        for (fabric, samples) in [
            ("mwsr", &self.mwsr_step_ns),
            ("swmr", &self.swmr_step_ns),
            ("mesh", &self.mesh_step_ns),
        ] {
            let (p50, p99) = p50_p99(samples);
            push(&format!("noc.{fabric}.step_ns_p50"), p50, "ns");
            push(&format!("noc.{fabric}.step_ns_p99"), p99, "ns");
            push(
                &format!("noc.{fabric}.step_ns_samples"),
                samples.len() as f64,
                "count",
            );
        }
        push(
            "noc.ns_per_channel_cycle",
            ratio(self.mwsr_step_ns_total, self.mwsr_channel_cycles as f64),
            "ns",
        );
        push(
            "noc.quiescent_channel_share",
            ratio(self.idle_channels as f64, self.sampled_channels as f64),
            "ratio",
        );
        let n = &self.net;
        for (name, v) in [
            ("noc.generated", n.generated),
            ("noc.delivered", n.delivered),
            ("noc.sends", n.sends),
            ("noc.arrivals", n.arrivals),
            ("noc.drops", n.drops),
            ("noc.retransmissions", n.retransmissions),
            ("noc.circulations", n.circulations),
            ("noc.drain_grace_cycles", n.drain_grace_cycles),
        ] {
            push(name, per_pass(v), "count");
        }
        push(
            "noc.useful_send_ratio",
            ratio(n.delivered as f64, n.sends as f64),
            "ratio",
        );
        push(
            "noc.lost_packet_share",
            ratio(
                n.generated.saturating_sub(n.delivered) as f64,
                n.generated as f64,
            ),
            "ratio",
        );
        push(
            "trace.write_ns_per_event",
            ratio(self.trace_write_ns, self.trace_events_written as f64),
            "ns",
        );
        push(
            "trace.bytes_per_event",
            ratio(
                self.trace_bytes_written as f64,
                self.trace_events_written as f64,
            ),
            "B",
        );
        push("trace.events", per_pass(self.trace_events_written), "count");
        push(
            "trace.read_ns_per_event",
            ratio(self.trace_read_ns, self.trace_events_read as f64),
            "ns",
        );
        push(
            "trace.read_share",
            ratio(self.trace_read_ns, self.traced_s * 1e9),
            "ratio",
        );
        push(
            "traffic.generate_ns_per_cycle",
            ratio(self.traffic_generate_ns, self.traffic_generate_calls as f64),
            "ns",
        );
        push(
            "traffic.generate_share",
            ratio(self.traffic_generate_ns, self.traced_s * 1e9),
            "ratio",
        );
        for (name, v) in [
            ("faults.data_lost", n.data_lost),
            ("faults.data_corrupt", n.data_corrupt),
            ("faults.acks_lost", n.acks_lost),
            ("faults.tokens_lost", n.tokens_lost),
            ("faults.timeout_retransmissions", n.timeout_retransmissions),
            ("faults.duplicates_suppressed", n.duplicates_suppressed),
            ("faults.abandoned", n.abandoned),
            ("faults.credit_leaks", n.credit_leaks),
        ] {
            push(name, per_pass(v), "count");
        }
        let (p50, p99) = p50_p99(&self.cmp_step_ns);
        push("cmp.step_ns_p50", p50, "ns");
        push("cmp.step_ns_p99", p99, "ns");
        let runs = self.cmp_runs as f64;
        push("cmp.ipc", ratio(self.cmp_ipc_sum, runs), "instr/cycle");
        push(
            "cmp.request_rate",
            ratio(self.cmp_request_rate_sum, runs),
            "req/cycle",
        );
        push(
            "cmp.stall_fraction",
            ratio(self.cmp_stall_fraction_sum, runs),
            "ratio",
        );
        push(
            "cmp.net_delivered",
            per_pass(self.cmp_net_delivered),
            "count",
        );
        push(
            "fleet.first_cell_s",
            stats::median(&self.fleet_first_cell_s).unwrap_or(0.0),
            "s",
        );
        push(
            "fleet.last_cell_s",
            stats::median(&self.fleet_last_cell_s).unwrap_or(0.0),
            "s",
        );
        push(
            "fleet.job_s_p50",
            stats::median(&self.fleet_job_s).unwrap_or(0.0),
            "s",
        );
        push(
            "fleet.job_s_max",
            self.fleet_job_s.iter().copied().fold(0.0, f64::max),
            "s",
        );
        push(
            "fleet.parallel_efficiency",
            stats::median(&self.fleet_efficiency).unwrap_or(0.0),
            "ratio",
        );
        push("fleet.steals", per_pass(self.fleet_steals), "count");
        push("bench.traced_s", self.traced_s, "s");
        push("bench.untraced_s", self.untraced_s, "s");
        push(
            "bench.tracing_overhead_share",
            ratio(self.traced_s - self.untraced_s, self.untraced_s),
            "ratio",
        );
        out
    }
}

/// Median and 99th percentile of a timing distribution (0 when empty).
/// The traced runs collect far more than the 1000 samples a p99 needs to
/// have ten beyond it; with fewer, the highest supported tail is reported.
fn p50_p99(samples: &[f64]) -> (f64, f64) {
    let s = stats::sorted(samples);
    let p50 = stats::percentile(&s, 50.0).unwrap_or(0.0);
    let p99 = match stats::tail(&s) {
        Some(t) if t.percentile >= 99.0 => stats::percentile(&s, 99.0).unwrap_or(0.0),
        Some(t) => t.value,
        None => p50,
    };
    (p50, p99)
}

/// Drive one open-loop run by hand, mirroring `run_open_loop` call for
/// call, timing the source and each step, and counting the run's network
/// counters and drain-grace cycles into `layers`. Returns the run's summary.
pub fn drive_open_loop<F: Fabric>(
    net: &mut F,
    source: &mut dyn TrafficSource,
    source_layer: SourceLayer,
    plan: RunPlan,
    layers: &mut Layers,
) -> RunSummary {
    let mut gen_buf: Vec<InjectionRequest> = Vec::new();
    let mut scratch = AuditScratch::default();
    let mut source_ns = 0.0;
    let mut calls = 0u64;
    let mut steps = std::mem::take(layers.steps(F::KIND));
    let mut step_ns = 0.0;
    let mut timed_step = |net: &mut F, layers: &mut Layers| {
        let now = net.now();
        let t = Instant::now();
        net.step();
        let ns = t.elapsed().as_nanos() as f64;
        steps.push(ns);
        step_ns += ns;
        if now.is_multiple_of(QUIESCENCE_STRIDE) {
            if let Some((idle, total)) = net.quiescence(&mut scratch) {
                layers.idle_channels += idle;
                layers.sampled_channels += total;
            }
        }
    };
    for _ in 0..plan.total() {
        let now = net.now();
        if now < plan.warmup + plan.measure && !source.exhausted() {
            gen_buf.clear();
            let t = Instant::now();
            source.generate(now, &mut gen_buf);
            source_ns += t.elapsed().as_nanos() as f64;
            calls += 1;
            let measured = plan.measures(now);
            for &req in &gen_buf {
                net.inject(req, measured);
            }
        }
        timed_step(net, layers);
    }
    let mut grace = net.drain_grace();
    let mut used = 0;
    while grace > 0 && !net.is_drained() {
        timed_step(net, layers);
        grace -= 1;
        used += 1;
    }
    let stepped = net.now();
    *layers.steps(F::KIND) = steps;
    if F::KIND == FabricKind::Mwsr {
        layers.mwsr_channel_cycles += stepped * net.channels() as u64;
        layers.mwsr_step_ns_total += step_ns;
    }
    match source_layer {
        SourceLayer::Trace => layers.trace_read_ns += source_ns,
        SourceLayer::Traffic => {
            layers.traffic_generate_ns += source_ns;
            layers.traffic_generate_calls += calls;
        }
    }
    layers.count_run(net.metrics(), used);
    net.summary(plan.measure)
}
