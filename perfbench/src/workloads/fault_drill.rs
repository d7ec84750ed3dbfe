//! `fault-drill`: uniform random traffic under transient faults.
//!
//! UR at 0.05 packets/cycle/core with `FaultConfig::uniform(1e-4)` on the
//! five schemes of the resilience comparison. This is the workload where
//! `pnoc-faults` fires: ACK timeouts, retransmission, duplicate
//! suppression and credit leaks. The handshake schemes must lose nothing
//! (the paper's §II-B claim); the credit baselines may.
//!
//! Over 30k measured cycles both credit baselines leak every credit and
//! wedge, then sit out `run_open_loop`'s 200k-cycle fault drain grace. A
//! wedged network measures the cost of stepping a stalled ring, not fault
//! handling, so the credit runs are checked and counted but run once, not
//! timed: a pass is GHS, DHS w/ Setaside and DHS w/ Circulation.

use super::{
    sub_seed, summary_json, Outcome, Pass, RunRecord, TracedPass, Workload, PAPER_SETASIDE,
};
use crate::layers::{drive_open_loop, Layers, SourceLayer};
use crate::reference::Clock;
use pnoc_noc::{FaultConfig, Network, NetworkConfig, RunSummary, Scheme, SyntheticSource};
use pnoc_sim::RunPlan;
use pnoc_traffic::pattern::TrafficPattern;
use std::time::Instant;

const LOAD: f64 = 0.05;
const FAULT_RATE: f64 = 1e-4;
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 30_000;
const DRAIN: u64 = 1_000;

fn plan() -> RunPlan {
    RunPlan::new(WARMUP, MEASURE, DRAIN)
}

/// Configurations plus the traffic seed.
pub struct Inputs {
    configs: Vec<(&'static str, NetworkConfig)>,
    traffic_seed: u64,
}

/// The workload.
pub struct FaultDrill;

fn configs(seed: u64) -> Vec<(&'static str, NetworkConfig)> {
    [
        ("Token Channel", Scheme::TokenChannel),
        ("Token Slot", Scheme::TokenSlot),
        ("GHS", Scheme::Ghs { setaside: 0 }),
        (
            "DHS w/ Setaside",
            Scheme::Dhs {
                setaside: PAPER_SETASIDE,
            },
        ),
        ("DHS w/ Circulation", Scheme::DhsCirculation),
    ]
    .into_iter()
    .map(|(name, scheme)| {
        let cfg = NetworkConfig {
            seed: sub_seed(seed, 40),
            ..NetworkConfig::paper_default(scheme)
        }
        .with_faults(FaultConfig::uniform(FAULT_RATE));
        (name, cfg)
    })
    .collect()
}

fn source(cfg: &NetworkConfig, seed: u64) -> SyntheticSource {
    SyntheticSource::new(
        TrafficPattern::UniformRandom,
        LOAD,
        cfg.nodes,
        cfg.cores_per_node,
        seed,
    )
}

/// Token Channel and Token Slot, the runs left out of the timed pass.
fn is_credit_baseline(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::TokenChannel | Scheme::TokenSlot)
}

/// The configurations of the timed (`false`) or untimed (`true`) runs.
fn runs(inputs: &Inputs, credit: bool) -> impl Iterator<Item = &(&'static str, NetworkConfig)> {
    inputs
        .configs
        .iter()
        .filter(move |(_, cfg)| is_credit_baseline(cfg.scheme) == credit)
}

fn network(cfg: &NetworkConfig) -> Network {
    Network::new(*cfg).expect("valid paper config")
}

fn record(name: &str, net: &Network, s: &RunSummary) -> RunRecord {
    let mut problems = Vec::new();
    if net.config().scheme.uses_handshake() && s.lost_packets > 0 {
        problems.push(format!(
            "{name}: handshake scheme lost {} packets",
            s.lost_packets
        ));
    }
    RunRecord {
        label: name.to_string(),
        outcome: Outcome::from_summary(s, MEASURE, net.config().cores(), true),
        fingerprint: summary_json(s),
        problems,
    }
}

impl Workload for FaultDrill {
    type Inputs = Inputs;
    type Prepared = Vec<(Network, SyntheticSource)>;

    fn setup(&self, seed: u64) -> Inputs {
        Inputs {
            configs: configs(seed),
            traffic_seed: sub_seed(seed, 41),
        }
    }

    fn prepare(&self, inputs: &Inputs) -> Self::Prepared {
        runs(inputs, false)
            .map(|(_, cfg)| (network(cfg), source(cfg, inputs.traffic_seed)))
            .collect()
    }

    fn run(&self, inputs: &Inputs, prepared: Self::Prepared) -> Pass {
        let mut pass = Pass {
            runs: Vec::new(),
            timed_cycles: 0,
            clock: Clock::start(),
        };
        for ((name, _), (mut net, mut src)) in runs(inputs, false).zip(prepared) {
            let s = pass.clock.time(|| net.run_open_loop(&mut src, plan()));
            pass.timed_cycles += net.now();
            pass.runs.push(record(name, &net, &s));
        }
        pass
    }

    fn untimed(&self, inputs: &Inputs) -> Vec<RunRecord> {
        runs(inputs, true)
            .map(|(name, cfg)| {
                let mut net = network(cfg);
                let s = net.run_open_loop(&mut source(cfg, inputs.traffic_seed), plan());
                record(name, &net, &s)
            })
            .collect()
    }

    fn traced(&self, inputs: &Inputs, layers: &mut Layers) -> TracedPass {
        let t = Instant::now();
        let pass = self.run(inputs, self.prepare(inputs));
        let mut untraced = pass.runs;
        untraced.extend(self.untimed(inputs));
        layers.untraced_s += t.elapsed().as_secs_f64() - pass.clock.reference_s();

        let t = Instant::now();
        let traced = runs(inputs, false)
            .chain(runs(inputs, true))
            .map(|(name, cfg)| {
                let mut net = network(cfg);
                let mut src = source(cfg, inputs.traffic_seed);
                let s = drive_open_loop(&mut net, &mut src, SourceLayer::Traffic, plan(), layers);
                record(name, &net, &s)
            })
            .collect();
        layers.traced_s += t.elapsed().as_secs_f64();
        TracedPass { untraced, traced }
    }

    fn probe(&self, seed: u64) -> String {
        // GHS.
        let inputs = self.setup(seed);
        let (name, cfg) = inputs.configs[2];
        let mut net = network(&cfg);
        let s = net.run_open_loop(&mut source(&cfg, inputs.traffic_seed), plan());
        record(name, &net, &s).fingerprint
    }
}
