//! `cmp-closed-loop`: the paper's IPC experiment.
//!
//! `CmpSystem::run` with 128 cores × 4 MSHRs (two cores per node on the
//! 64-node ring) on the `nas.is` and `blackscholes` CMP workloads, under
//! GHS w/ Setaside and DHS w/ Setaside. Network latency throttles
//! injection, traffic is request/reply, and the core/bank loop of
//! `pnoc-cmp` runs every cycle.

use super::{
    sub_seed, summary_json, Outcome, Pass, RunRecord, TracedPass, Workload, PAPER_SETASIDE,
};
use crate::layers::Layers;
use crate::reference::Clock;
use pnoc_cmp::workload::paper_workload;
use pnoc_cmp::{CmpConfig, CmpSystem, CmpWorkload, IpcSummary};
use pnoc_noc::{NetworkConfig, RunSummary, Scheme};
use std::time::Instant;

const WORKLOADS: [&str; 2] = ["nas.is", "blackscholes"];
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 6_000;

/// One system to build: label, network, CMP and workload.
type SystemSpec = (String, NetworkConfig, CmpConfig, CmpWorkload);

/// The workload.
pub struct CmpLoop;

fn systems(seed: u64) -> Vec<SystemSpec> {
    let schemes = [
        (
            "GHS w/ Setaside",
            Scheme::Ghs {
                setaside: PAPER_SETASIDE,
            },
        ),
        (
            "DHS w/ Setaside",
            Scheme::Dhs {
                setaside: PAPER_SETASIDE,
            },
        ),
    ];
    let cmp = CmpConfig {
        seed: sub_seed(seed, 30),
        ..CmpConfig::paper_default()
    };
    let mut out = Vec::new();
    for name in WORKLOADS {
        let wl = paper_workload(name).expect("paper CMP workload exists");
        for (label, scheme) in schemes {
            let net = NetworkConfig {
                cores_per_node: 2,
                seed: sub_seed(seed, 31),
                ..NetworkConfig::paper_default(scheme)
            };
            out.push((format!("{name}/{label}"), net, cmp, wl.clone()));
        }
    }
    out
}

fn build(specs: &[SystemSpec]) -> Vec<CmpSystem> {
    specs
        .iter()
        .map(|(_, net, cmp, wl)| CmpSystem::new(*net, *cmp, wl.clone()))
        .collect()
}

/// The network's view of a finished run, as `run_open_loop` would digest it.
fn net_summary(sys: &CmpSystem) -> RunSummary {
    let net = sys.network();
    let m = net.metrics();
    let cores = net.config().cores();
    let offered = m.generated_measured as f64 / (MEASURE as f64 * cores as f64);
    RunSummary::from_metrics(m, &net.service_counts(), MEASURE, cores, offered)
}

/// A finished run, fingerprinted by its network summary.
fn record(label: &str, sys: &CmpSystem) -> RunRecord {
    let s = net_summary(sys);
    RunRecord {
        label: label.to_string(),
        outcome: Outcome::from_summary(&s, MEASURE, sys.network().config().cores(), true),
        fingerprint: summary_json(&s),
        problems: Vec::new(),
    }
}

/// Extend a record's fingerprint with the cores' view of the run.
fn with_ipc(mut rec: RunRecord, ipc: &IpcSummary) -> RunRecord {
    rec.fingerprint
        .push_str(&serde_json::to_string(ipc).expect("IpcSummary serializes"));
    rec
}

impl CmpLoop {
    /// One untraced pass, returning each run's IPC digest too.
    fn run_ipc(&self, specs: &[SystemSpec], systems: Vec<CmpSystem>) -> (Pass, Vec<IpcSummary>) {
        let mut runs = Vec::new();
        let mut ipcs = Vec::new();
        let mut clock = Clock::start();
        for ((label, ..), mut sys) in specs.iter().zip(systems) {
            let ipc = clock.time(|| sys.run(WARMUP, MEASURE));
            let mut rec = record(label, &sys);
            if !(ipc.ipc > 0.0 && ipc.ipc <= 1.0) {
                rec.problems
                    .push(format!("{label}: IPC {} outside (0, 1]", ipc.ipc));
            }
            runs.push(rec);
            ipcs.push(ipc);
        }
        let pass = Pass {
            timed_cycles: (WARMUP + MEASURE) * runs.len() as u64,
            runs,
            clock,
        };
        (pass, ipcs)
    }
}

impl Workload for CmpLoop {
    type Inputs = Vec<SystemSpec>;
    type Prepared = Vec<CmpSystem>;

    fn setup(&self, seed: u64) -> Self::Inputs {
        systems(seed)
    }

    fn prepare(&self, inputs: &Self::Inputs) -> Vec<CmpSystem> {
        build(inputs)
    }

    fn run(&self, inputs: &Self::Inputs, prepared: Vec<CmpSystem>) -> Pass {
        let (mut pass, ipcs) = self.run_ipc(inputs, prepared);
        pass.runs = pass
            .runs
            .into_iter()
            .zip(&ipcs)
            .map(|(r, i)| with_ipc(r, i))
            .collect();
        pass
    }

    fn traced(&self, inputs: &Self::Inputs, layers: &mut Layers) -> TracedPass {
        let t = Instant::now();
        let (pass, ipcs) = self.run_ipc(inputs, build(inputs));
        layers.untraced_s += t.elapsed().as_secs_f64() - pass.clock.reference_s();
        for ipc in &ipcs {
            layers.cmp_runs += 1;
            layers.cmp_ipc_sum += ipc.ipc;
            layers.cmp_request_rate_sum += ipc.request_rate;
            layers.cmp_stall_fraction_sum += ipc.stall_fraction;
        }

        // `CmpSystem::run` by hand: warmup steps unmeasured, then measured.
        let t = Instant::now();
        let mut traced = Vec::new();
        for ((label, ..), mut sys) in inputs.iter().zip(build(inputs)) {
            for cycle in 0..WARMUP + MEASURE {
                let ts = Instant::now();
                sys.step(cycle >= WARMUP);
                layers.cmp_step_ns.push(ts.elapsed().as_nanos() as f64);
            }
            let m = sys.network().metrics();
            layers.cmp_net_delivered += m.delivered;
            layers.count_run(m, 0);
            traced.push(record(label, &sys));
        }
        layers.traced_s += t.elapsed().as_secs_f64();
        // The driven run cannot see the cores, so the pair is compared on
        // the network summary alone.
        TracedPass {
            untraced: pass.runs,
            traced,
        }
    }

    fn probe(&self, seed: u64) -> String {
        // blackscholes under GHS w/ Setaside.
        let specs = systems(seed);
        let (label, net, cmp, wl) = &specs[2];
        let mut sys = CmpSystem::new(*net, *cmp, wl.clone());
        let ipc = sys.run(WARMUP, MEASURE);
        with_ipc(record(label, &sys), &ipc).fingerprint
    }
}
