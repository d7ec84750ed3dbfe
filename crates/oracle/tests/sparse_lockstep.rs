//! Sparse-load differential tests: the idle-channel sleep/wake path.
//!
//! At application-like rates (0.0005–0.005 pkt/cycle/core) almost every
//! MWSR channel sleeps almost all the time, so these cases exercise what
//! dense fuzz cases rarely reach: channels sleeping across many global
//! token laps and home passes, a distributed token stream refilling to its
//! fixed point before the channel sleeps, admission buckets refilling
//! before it sleeps and refill boundaries passing while it does, and O(1)
//! catch-up when an injection wakes it. Every case must match the
//! straight-line oracle (which steps every channel every cycle) in
//! counters, per-packet ejection log and drain state, and must actually
//! have slept.

use pnoc_faults::FaultConfig;
use pnoc_noc::config::{AdmissionPolicy, FairnessPolicy};
use pnoc_noc::{ClassedSource, Network, Scheme, MAX_CLASSES};
use pnoc_oracle::diff::TRAFFIC_SEED_XOR;
use pnoc_oracle::{check_case, FuzzCase};
use pnoc_sim::RunPlan;
use pnoc_traffic::{classes::TenantMixKind, TrafficPattern};

/// Offered loads, packets/cycle/core.
const RATES: [f64; 3] = [0.0005, 0.002, 0.005];

/// `(nodes, segments, input buffer, router latency)`. Each buffer exceeds
/// its ring's full token-slot stream, so token-slot channels settle and
/// sleep too; a zero-latency router frees buffer slots at ejection.
const TOPOLOGIES: [(usize, usize, usize, u64); 3] = [(8, 4, 4, 0), (16, 4, 4, 1), (32, 8, 8, 2)];

fn case(scheme: Scheme, admission: AdmissionPolicy, rate: f64, topo: usize, seed: u64) -> FuzzCase {
    let (nodes, segments, input_buffer, router_latency) = TOPOLOGIES[topo];
    FuzzCase {
        scheme,
        nodes,
        segments,
        cores_per_node: 2,
        input_buffer,
        ejection_per_cycle: 1 + usize::from(seed.is_multiple_of(3)),
        router_latency,
        fairness: if seed % 2 == 1 {
            FairnessPolicy::SitOut {
                serve_quota: 2,
                sit_out: 6,
            }
        } else {
            FairnessPolicy::None
        },
        admission,
        mix: if admission.enabled() {
            TenantMixKind::ElephantMice
        } else {
            TenantMixKind::SingleClass
        },
        pattern: TrafficPattern::UniformRandom,
        rate,
        warmup: 200,
        measure: 2_000,
        drain: 200,
        seed,
        faults: FaultConfig::none(),
    }
}

/// Executed share of channel-cycles when the case runs open loop.
fn executed_share(case: &FuzzCase) -> f64 {
    let cfg = case.config();
    let mut net = Network::new(cfg).expect("valid config");
    let mut src = ClassedSource::new(
        case.mix,
        case.rate,
        case.pattern,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ TRAFFIC_SEED_XOR,
    );
    net.run_open_loop(
        &mut src,
        RunPlan::new(case.warmup, case.measure, case.drain),
    );
    let (executed, simulated) = net.channel_cycles();
    executed as f64 / simulated as f64
}

/// Every paper scheme at every sparse rate and topology under `admission`.
fn sweep(admission: AdmissionPolicy) {
    let mut seed = 0x5_1EE9;
    for scheme in Scheme::paper_set(2) {
        for rate in RATES {
            for topo in 0..TOPOLOGIES.len() {
                seed += 1;
                let c = case(scheme, admission, rate, topo, seed);
                assert_eq!(check_case(&c), None, "diverged: {c:?}");
                let share = executed_share(&c);
                assert!(share < 0.5, "channels barely slept ({share:.3}): {c:?}");
            }
        }
    }
}

#[test]
fn sparse_runs_match_the_oracle_without_admission() {
    sweep(AdmissionPolicy::None);
}

#[test]
fn sparse_runs_match_the_oracle_under_token_buckets() {
    // One credit of headroom per class: a grant leaves its bucket short,
    // so the channel must wait for a refill boundary before it sleeps.
    sweep(AdmissionPolicy::TokenBucket {
        period: 6,
        refill: [1; MAX_CLASSES],
        burst: [2; MAX_CLASSES],
    });
}

#[test]
fn token_slot_stream_that_never_settles_still_matches() {
    // With fewer buffer slots than a full token stream, token slot's idle
    // stream cycles instead of settling, so its channels never sleep.
    let mut c = case(Scheme::TokenSlot, AdmissionPolicy::None, 0.002, 2, 7);
    c.input_buffer = 2;
    assert_eq!(check_case(&c), None, "diverged: {c:?}");
    let share = executed_share(&c);
    assert!(
        share > 0.99,
        "an unsettled stream must keep its channel awake ({share:.3})"
    );
}
