//! `app-replay`: Fig. 10 application traces replayed open loop.
//!
//! Setup generates one PTRC shard per profile from the seed, sized for the
//! paper's 256 cores on 64 nodes: `nas.is` (the densest profile) and
//! `blackscholes` (the sparsest). Each shard replays through the four
//! Fig. 10 MWSR schemes with `replay_run`, and through the SWMR handshake
//! ring and the 8×8 electrical mesh via `StreamSource` + `run_open_loop`.
//! At these rates most channel-cycles are quiet, so the fixed cost per
//! channel-cycle and trace decoding dominate.

use super::{
    sub_seed, summary_json, Outcome, Pass, RunRecord, TracedPass, Workload, PAPER_SETASIDE,
};
use crate::layers::{drive_open_loop, Fabric, Layers, Mesh, SourceLayer, Swmr};
use crate::reference::Clock;
use pnoc_noc::{MeshConfig, Network, NetworkConfig, RunSummary, Scheme, SwmrConfig};
use pnoc_sim::RunPlan;
use pnoc_trace::{
    generate_app, replay_run, StreamSource, StreamingTraceReader, WriteStats, DEFAULT_CHUNK_EVENTS,
};
use pnoc_traffic::paper_app;
use std::time::Instant;

/// Profiles replayed, densest and sparsest of Fig. 10.
const PROFILES: [&str; 2] = ["nas.is", "blackscholes"];
/// Trace length, cycles (injections stop here).
const LENGTH: u64 = 20_000;
/// Unmeasured warmup at the start of the trace.
const WARMUP: u64 = 2_000;
/// Planned drain after the trace ends.
const DRAIN: u64 = 2_000;
/// The paper's platform: 64 nodes, 4 cores each.
const NODES: usize = 64;
const CORES: usize = 256;

fn plan() -> RunPlan {
    RunPlan::new(WARMUP, LENGTH - WARMUP, DRAIN)
}

fn mwsr_schemes() -> [(&'static str, Scheme); 4] {
    [
        ("Token Channel", Scheme::TokenChannel),
        (
            "GHS w/ Setaside",
            Scheme::Ghs {
                setaside: PAPER_SETASIDE,
            },
        ),
        ("Token Slot", Scheme::TokenSlot),
        (
            "DHS w/ Setaside",
            Scheme::Dhs {
                setaside: PAPER_SETASIDE,
            },
        ),
    ]
}

fn mwsr_config(scheme: Scheme, seed: u64) -> NetworkConfig {
    NetworkConfig {
        seed,
        ..NetworkConfig::paper_default(scheme)
    }
}

/// One generated PTRC shard.
pub struct Shard {
    app: &'static str,
    bytes: Vec<u8>,
    stats: WriteStats,
    write_ns: f64,
}

/// Shards plus the network configurations they replay on.
pub struct Inputs {
    shards: Vec<Shard>,
    mwsr: Vec<(&'static str, NetworkConfig)>,
    swmr: SwmrConfig,
    mesh: MeshConfig,
}

/// The workload.
pub struct AppReplay;

fn generate(app: &'static str, seed: u64) -> Shard {
    let profile = paper_app(app).expect("Fig. 10 profile exists");
    let t = Instant::now();
    let (bytes, stats) = generate_app(
        &profile,
        CORES,
        NODES,
        LENGTH,
        seed,
        DEFAULT_CHUNK_EVENTS,
        Vec::new(),
    )
    .expect("in-memory trace generation cannot fail");
    Shard {
        app,
        bytes,
        stats,
        write_ns: t.elapsed().as_nanos() as f64,
    }
}

fn reader(shard: &Shard) -> StreamingTraceReader<&[u8]> {
    StreamingTraceReader::open(shard.bytes.as_slice()).expect("generated shard opens")
}

/// The record of `shard` replayed through `fabric`.
fn record(shard: &Shard, fabric: &str, s: &RunSummary, fairness: bool) -> RunRecord {
    RunRecord {
        label: format!("{}/{fabric}", shard.app),
        outcome: Outcome::from_summary(s, plan().measure, CORES, fairness),
        fingerprint: summary_json(s),
        problems: Vec::new(),
    }
}

fn stream_source(shard: &Shard) -> StreamSource<&[u8]> {
    StreamSource::new(reader(shard), CORES / NODES)
}

/// A replay through a held network must read its whole shard cleanly.
fn check_stream(rec: &mut RunRecord, src: &mut StreamSource<&[u8]>) {
    if let Some(e) = src.take_error() {
        rec.problems
            .push(format!("{}: trace read error: {e}", rec.label));
    }
}

impl AppReplay {
    /// Replay one shard through every fabric, adding its runs to `pass`.
    fn run_shard(&self, inputs: &Inputs, shard: &Shard, fabrics: (Swmr, Mesh), pass: &mut Pass) {
        let plan = plan();
        let clock = &mut pass.clock;
        for &(name, cfg) in &inputs.mwsr {
            let s = clock
                .time(|| replay_run(cfg, reader(shard), plan))
                .expect("generated shard replays");
            pass.runs.push(record(shard, name, &s, true));
        }
        pass.timed_cycles += plan.total() * inputs.mwsr.len() as u64;
        let (mut swmr, mut mesh) = fabrics;
        let mut src = stream_source(shard);
        let s = clock.time(|| swmr.0.run_open_loop(&mut src, plan));
        pass.timed_cycles += swmr.now();
        let mut rec = record(shard, "SWMR", &s, true);
        check_stream(&mut rec, &mut src);
        pass.runs.push(rec);

        let mut src = stream_source(shard);
        let s = clock.time(|| mesh.0.run_open_loop(&mut src, plan));
        pass.timed_cycles += mesh.now();
        let mut rec = record(shard, "Mesh", &s, false);
        check_stream(&mut rec, &mut src);
        pass.runs.push(rec);
    }
}

impl Workload for AppReplay {
    type Inputs = Inputs;
    type Prepared = Vec<(Swmr, Mesh)>;
    const VARIANTS: u64 = 12;

    fn setup(&self, seed: u64) -> Inputs {
        let shards = PROFILES
            .iter()
            .enumerate()
            .map(|(i, &app)| generate(app, sub_seed(seed, i as u64)))
            .collect();
        let net_seed = sub_seed(seed, 10);
        let mwsr = mwsr_schemes()
            .into_iter()
            .map(|(name, scheme)| (name, mwsr_config(scheme, net_seed)))
            .collect();
        let mut swmr = SwmrConfig::paper_handshake(PAPER_SETASIDE);
        swmr.seed = net_seed;
        let mut mesh = MeshConfig::paper_comparable();
        mesh.seed = net_seed;
        Inputs {
            shards,
            mwsr,
            swmr,
            mesh,
        }
    }

    fn prepare(&self, inputs: &Inputs) -> Self::Prepared {
        inputs
            .shards
            .iter()
            .map(|_| (Swmr::new(inputs.swmr), Mesh::new(inputs.mesh)))
            .collect()
    }

    fn run(&self, inputs: &Inputs, prepared: Self::Prepared) -> Pass {
        let mut pass = Pass {
            runs: Vec::new(),
            timed_cycles: 0,
            clock: Clock::start(),
        };
        for (shard, fabrics) in inputs.shards.iter().zip(prepared) {
            self.run_shard(inputs, shard, fabrics, &mut pass);
        }
        pass
    }

    fn traced(&self, inputs: &Inputs, layers: &mut Layers) -> TracedPass {
        let t = Instant::now();
        let pass = self.run(inputs, self.prepare(inputs));
        layers.untraced_s += t.elapsed().as_secs_f64() - pass.clock.reference_s();
        let untraced = pass.runs;

        let plan = plan();
        let t = Instant::now();
        let mut traced = Vec::new();
        for shard in &inputs.shards {
            layers.trace_write_ns += shard.write_ns;
            layers.trace_events_written += shard.stats.events;
            layers.trace_bytes_written += shard.stats.bytes;
            for &(name, cfg) in &inputs.mwsr {
                let mut net = Network::new(cfg).expect("valid paper config");
                let mut src = stream_source(shard);
                let s = drive_open_loop(&mut net, &mut src, SourceLayer::Trace, plan, layers);
                let mut rec = record(shard, name, &s, true);
                check_stream(&mut rec, &mut src);
                traced.push(rec);
            }
            let mut swmr = Swmr::new(inputs.swmr);
            let mut src = stream_source(shard);
            let s = drive_open_loop(&mut swmr, &mut src, SourceLayer::Trace, plan, layers);
            let mut rec = record(shard, "SWMR", &s, true);
            check_stream(&mut rec, &mut src);
            traced.push(rec);

            let mut mesh = Mesh::new(inputs.mesh);
            let mut src = stream_source(shard);
            let s = drive_open_loop(&mut mesh, &mut src, SourceLayer::Trace, plan, layers);
            let mut rec = record(shard, "Mesh", &s, false);
            check_stream(&mut rec, &mut src);
            traced.push(rec);
            layers.trace_events_read += shard.stats.events * (inputs.mwsr.len() as u64 + 2);
        }
        layers.traced_s += t.elapsed().as_secs_f64();
        TracedPass { untraced, traced }
    }

    fn probe(&self, seed: u64) -> String {
        // The sparsest shard through DHS w/ Setaside.
        let shard = generate(PROFILES[1], sub_seed(seed, 1));
        let (_, scheme) = mwsr_schemes()[3];
        let cfg = mwsr_config(scheme, sub_seed(seed, 10));
        let s = replay_run(cfg, reader(&shard), plan()).expect("generated shard replays");
        summary_json(&s)
    }
}
