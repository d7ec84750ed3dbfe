//! `qos-sweep`: a saturated multi-tenant sweep on the fleet.
//!
//! All seven paper schemes × uniform random × loads at and past the knee ×
//! the elephant/mice and hotspot-tenant mixes, under token-bucket admission,
//! run by `pnoc_fleet::run_sweep` on one worker per available CPU (the
//! `fleet` / `serve` path). Every channel is busy every cycle, so per-event
//! work dominates: arbitration, admission, handshakes, the packet arena and
//! latency recording.

use super::{
    generated_measured, sub_seed, summary_json, Outcome, Pass, RunRecord, TracedPass, Workload,
    PAPER_SETASIDE,
};
use crate::layers::{drive_open_loop, Layers, SourceLayer};
use crate::reference::Clock;
use pnoc_fleet::{run_sweep, Fleet, SweepBase, SweepOptions, SweepSpec};
use pnoc_noc::{AdmissionPolicy, ClassedSource, Network, NetworkConfig, Scheme, MAX_CLASSES};
use pnoc_traffic::classes::TenantMixKind;
use pnoc_traffic::pattern::TrafficPattern;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Offered loads, packets/cycle/core: at and past the knee of the paper
/// network under uniform random traffic.
const RATES: [f64; 2] = [0.06, 0.075];
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 3_000;
const DRAIN: u64 = 500;
const CORES: usize = 256;

/// The spec and the fleet that runs it.
pub struct Inputs {
    spec: SweepSpec,
    fleet: Fleet,
}

/// The workload.
pub struct QosSweep;

fn spec(seed: u64) -> SweepSpec {
    SweepSpec {
        base: SweepBase::Paper,
        schemes: Scheme::paper_set(PAPER_SETASIDE),
        patterns: vec![TrafficPattern::UniformRandom],
        rates: RATES.to_vec(),
        replicas: 1,
        master_seed: sub_seed(seed, 20),
        warmup: WARMUP,
        measure: MEASURE,
        drain: DRAIN,
        mixes: vec![TenantMixKind::ElephantMice, TenantMixKind::HotspotTenant],
        admission: AdmissionPolicy::TokenBucket {
            period: 4,
            refill: [1; MAX_CLASSES],
            burst: [2; MAX_CLASSES],
        },
    }
}

/// The network and source `SweepSpec::run_job` builds for job `index`,
/// reconstructed from the spec's public coordinates.
fn job_parts(spec: &SweepSpec, index: u64) -> (Network, ClassedSource) {
    let (scheme, pattern, rate, mix) = spec.cell_params(spec.cell_of(index));
    let cfg = NetworkConfig {
        seed: spec.job_seed(index),
        admission: spec.admission,
        ..NetworkConfig::paper_default(scheme)
    };
    let source = ClassedSource::new(
        mix,
        rate,
        pattern,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0x5EED_0001,
    );
    (Network::new(cfg).expect("valid paper config"), source)
}

fn job_record(index: u64, s: &pnoc_noc::RunSummary) -> RunRecord {
    RunRecord {
        label: format!("job {index}"),
        outcome: Outcome::from_summary(s, MEASURE, CORES, true),
        fingerprint: summary_json(s),
        problems: Vec::new(),
    }
}

impl Workload for QosSweep {
    type Inputs = Inputs;
    type Prepared = ();

    fn setup(&self, seed: u64) -> Inputs {
        let spec = spec(seed);
        spec.validate().expect("benchmark sweep spec is valid");
        Inputs {
            spec,
            fleet: Fleet::new(pnoc_sim::sweep::default_threads()),
        }
    }

    fn prepare(&self, _inputs: &Inputs) {}

    fn run(&self, inputs: &Inputs, (): ()) -> Pass {
        let spec = &inputs.spec;
        let mut clock = Clock::start();
        let outcome = clock
            .time(|| run_sweep(&inputs.fleet, spec, SweepOptions::default()))
            .expect("an unjournaled sweep cannot fail");
        let report = outcome.report;
        let runs = report
            .cells
            .iter()
            .map(|c| {
                let missing = |what: &str| format!("cell {}: no {what}", c.cell);
                let mut problems = Vec::new();
                if !report.complete || c.jobs != spec.replicas {
                    problems.push(format!(
                        "cell {}: {} of {} jobs",
                        c.cell, c.jobs, spec.replicas
                    ));
                }
                let mut get = |v: Option<f64>, what: &str| {
                    v.unwrap_or_else(|| {
                        problems.push(missing(what));
                        f64::NAN
                    })
                };
                let outcome = Outcome {
                    avg_latency: get(c.avg_latency, "latency"),
                    p99_latency: get(c.p99_latency, "p99"),
                    throughput_per_core: get(c.throughput_per_core, "throughput"),
                    jain_worst: Some(get(c.jain_worst, "Jain index")),
                    delivered: c.delivered,
                    generated: generated_measured(
                        get(c.offered_per_core, "offered load"),
                        MEASURE,
                        CORES,
                        c.jobs,
                    ),
                };
                RunRecord {
                    label: format!("{}/{}/{}/{}", c.scheme, c.pattern, c.rate, c.mix),
                    outcome,
                    fingerprint: serde_json::to_string(c).expect("cell report serializes"),
                    problems,
                }
            })
            .collect();
        Pass {
            runs,
            timed_cycles: spec.total_jobs() * spec.plan().total(),
            clock,
        }
    }

    fn traced(&self, inputs: &Inputs, layers: &mut Layers) -> TracedPass {
        let spec = &inputs.spec;
        let fleet = &inputs.fleet;

        // The fleet: time to each streamed cell, steals, and wall time.
        let cell_times = Arc::new(Mutex::new(Vec::new()));
        let start = Instant::now();
        let sink = cell_times.clone();
        let opts = SweepOptions {
            on_cell: Some(Arc::new(move |_| {
                let at = start.elapsed().as_secs_f64();
                sink.lock().expect("cell-time sink poisoned").push(at);
            })),
            ..SweepOptions::default()
        };
        let steals = fleet.steals();
        run_sweep(fleet, spec, opts).expect("an unjournaled sweep cannot fail");
        let sweep_s = start.elapsed().as_secs_f64();
        layers.fleet_steals += fleet.steals() - steals;
        let times = cell_times.lock().expect("cell-time sink poisoned");
        layers
            .fleet_first_cell_s
            .push(times.iter().copied().fold(f64::INFINITY, f64::min));
        layers
            .fleet_last_cell_s
            .push(times.iter().copied().fold(0.0, f64::max));

        // Serial pass of the jobs themselves: the untraced reference.
        let t = Instant::now();
        let mut job_total = 0.0;
        let untraced = (0..spec.total_jobs())
            .map(|i| {
                let tj = Instant::now();
                let detail = spec.run_job(i);
                let job_s = tj.elapsed().as_secs_f64();
                layers.fleet_job_s.push(job_s);
                job_total += job_s;
                job_record(i, &detail.summary)
            })
            .collect();
        layers.untraced_s += t.elapsed().as_secs_f64();
        layers
            .fleet_efficiency
            .push(job_total / (fleet.threads() as f64 * sweep_s));

        // The same jobs driven by hand.
        let t = Instant::now();
        let traced = (0..spec.total_jobs())
            .map(|i| {
                let (mut net, mut source) = job_parts(spec, i);
                let s = drive_open_loop(
                    &mut net,
                    &mut source,
                    SourceLayer::Traffic,
                    spec.plan(),
                    layers,
                );
                job_record(i, &s)
            })
            .collect();
        layers.traced_s += t.elapsed().as_secs_f64();
        TracedPass { untraced, traced }
    }

    fn probe(&self, seed: u64) -> String {
        summary_json(&spec(seed).run_job(0).summary)
    }
}
