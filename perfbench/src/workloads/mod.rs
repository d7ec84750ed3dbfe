//! The four workloads and what they share.

pub mod app_replay;
pub mod cmp_loop;
pub mod fault_drill;
pub mod qos_sweep;

use crate::layers::Layers;
use crate::reference::Clock;
use pnoc_noc::RunSummary;
use pnoc_sim::rng::stream_seed;
use pnoc_sim::Cycle;

/// Setaside slots of the paper's "w/ Setaside" schemes.
pub const PAPER_SETASIDE: usize = 8;

/// An independent seed for one use of the benchmark's `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    stream_seed(seed, 0xBE7C_0000 + stream)
}

/// The simulated outcome of one run, or of one fleet cell.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Mean latency of measured packets, cycles.
    pub avg_latency: f64,
    /// 99th-percentile latency, cycles.
    pub p99_latency: f64,
    /// Accepted packets per cycle per core.
    pub throughput_per_core: f64,
    /// Least-fair channel's Jain index; `None` for fabrics without
    /// per-channel service counts (the mesh).
    pub jain_worst: Option<f64>,
    /// Measured packets delivered.
    pub delivered: u64,
    /// Measured packets generated.
    pub generated: u64,
}

impl Outcome {
    /// From a run summary of `measure` measured cycles on `cores` cores.
    pub fn from_summary(s: &RunSummary, measure: Cycle, cores: usize, fairness: bool) -> Self {
        Self {
            avg_latency: s.avg_latency,
            p99_latency: s.p99_latency,
            throughput_per_core: s.throughput_per_core,
            jain_worst: fairness.then_some(s.jain_worst),
            delivered: s.delivered,
            generated: generated_measured(s.offered_per_core, measure, cores, 1),
        }
    }
}

/// Measured packets generated, recovered from a mean offered load
/// (packets/cycle/core) over `jobs` runs of `measure` cycles.
pub fn generated_measured(offered: f64, measure: Cycle, cores: usize, jobs: u64) -> u64 {
    (offered * measure as f64 * cores as f64 * jobs as f64).round() as u64
}

/// One simulation run of a pass.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Human-readable identity, e.g. `nas.is/Token Channel`.
    pub label: String,
    /// Simulated outcome.
    pub outcome: Outcome,
    /// Serialized result; identical inputs must reproduce it byte for byte.
    pub fingerprint: String,
    /// Failed correctness checks specific to this run.
    pub problems: Vec<String>,
}

/// One timed pass over a workload's runs.
#[derive(Debug)]
pub struct Pass {
    /// Runs in a fixed order.
    pub runs: Vec<RunRecord>,
    /// Simulated cycles of every run.
    pub timed_cycles: u64,
    /// Host time spent inside the layers' run calls.
    pub clock: Clock,
}

impl Pass {
    /// Simulated cycles per host second.
    pub fn cycles_per_s(&self) -> f64 {
        self.clock.cycles_per_s(self.timed_cycles)
    }

    /// Simulated cycles per reference round of host time.
    pub fn cycles_per_round(&self) -> f64 {
        self.clock.cycles_per_round(self.timed_cycles)
    }
}

/// A traced pass next to its untraced twin, run for run.
pub struct TracedPass {
    /// Runs of the untraced reference.
    pub untraced: Vec<RunRecord>,
    /// The same runs, driven by hand with timing.
    pub traced: Vec<RunRecord>,
}

/// One benchmark workload.
pub trait Workload {
    /// Everything generated from the seed (traces, configurations, specs).
    type Inputs;
    /// Per-pass state built from the inputs (networks, systems, sources).
    type Prepared;
    /// Input variants an untraced run cycles through, one per pass, each
    /// set up from its own seed derived from `--seed`. More than one where
    /// the cost of a pass varies with the generated inputs, so that a run's
    /// rate spans several of them.
    const VARIANTS: u64 = 1;

    /// Generate the inputs from `seed`.
    fn setup(&self, seed: u64) -> Self::Inputs;
    /// Build one pass's networks and sources.
    fn prepare(&self, inputs: &Self::Inputs) -> Self::Prepared;
    /// Run one pass, timing only the layer calls, each followed by a
    /// reference round.
    fn run(&self, inputs: &Self::Inputs, prepared: Self::Prepared) -> Pass;
    /// Runs that are checked and count in the simulated outcome, but run
    /// once per invocation and are not timed.
    fn untimed(&self, _inputs: &Self::Inputs) -> Vec<RunRecord> {
        Vec::new()
    }
    /// Run one untraced pass and its traced twin, filling `layers`.
    fn traced(&self, inputs: &Self::Inputs, layers: &mut Layers) -> TracedPass;
    /// The fingerprint of one cheap run built from scratch for `seed`.
    fn probe(&self, seed: u64) -> String;
}

/// Serialize a run summary (the replay-exactness and determinism pins
/// compare these strings).
pub fn summary_json(s: &RunSummary) -> String {
    serde_json::to_string(s).expect("RunSummary serializes")
}
