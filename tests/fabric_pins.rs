//! Exactness pins for the fabrics that have no differential oracle.
//!
//! The SWMR ring and the electrical mesh are checked against nothing but
//! themselves, so any change to their step loops must reproduce these
//! digests of the serialized [`RunSummary`] bytes exactly. Each fabric runs
//! a sparse uniform load (0.002 pkt/cycle/core: most of the fabric idle most
//! of the time), a moderate one (0.04), and a generated `blackscholes` PTRC
//! shard replayed open loop (the Fig. 10 application the benchmark's
//! `app-replay` workload replays). The MWSR ring is pinned on the same
//! three workloads for every paper scheme, as a second net under the
//! differential oracle.
//!
//! On a mismatch the test prints every actual digest; a deliberate change
//! of simulated behaviour updates the table below in the same commit.

use nanophotonic_handshake::noc::metrics::RunSummary;
use nanophotonic_handshake::noc::sources::TrafficSource;
use nanophotonic_handshake::noc::{MeshConfig, MeshNetwork, SwmrConfig, SwmrNetwork};
use nanophotonic_handshake::prelude::*;
use nanophotonic_handshake::trace::{
    generate_app, StreamSource, StreamingTraceReader, DEFAULT_CHUNK_EVENTS,
};
use nanophotonic_handshake::traffic::paper_app;

/// Injection cycles of the generated application shard.
const SHARD_LENGTH: u64 = 8_000;

/// FNV-1a over the summary's JSON bytes.
fn digest(s: &RunSummary) -> u64 {
    let json = serde_json::to_string(s).expect("RunSummary serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The three pinned workloads.
#[derive(Debug, Clone, Copy)]
enum Load {
    Uniform(f64),
    Blackscholes,
}

const LOADS: [Load; 3] = [
    Load::Uniform(0.002),
    Load::Uniform(0.04),
    Load::Blackscholes,
];

fn plan(load: Load) -> RunPlan {
    match load {
        Load::Uniform(_) => RunPlan::new(500, 3_000, 500),
        Load::Blackscholes => RunPlan::new(1_000, SHARD_LENGTH - 1_000, 1_000),
    }
}

/// The generated `blackscholes` shard for a 64-node, 4-core-per-node chip.
fn shard() -> Vec<u8> {
    let profile = paper_app("blackscholes").expect("Fig. 10 profile exists");
    generate_app(
        &profile,
        256,
        64,
        SHARD_LENGTH,
        0xB1AC,
        DEFAULT_CHUNK_EVENTS,
        Vec::new(),
    )
    .expect("in-memory generation cannot fail")
    .0
}

/// Run `f` with the traffic source for `load` on a `nodes × cores` chip.
fn with_source<T>(
    load: Load,
    nodes: usize,
    cores_per_node: usize,
    shard: &[u8],
    f: impl FnOnce(&mut dyn TrafficSource) -> T,
) -> T {
    match load {
        Load::Uniform(rate) => {
            let mut src = SyntheticSource::new(
                TrafficPattern::UniformRandom,
                rate,
                nodes,
                cores_per_node,
                0x5EED_0001,
            );
            f(&mut src)
        }
        Load::Blackscholes => {
            let reader = StreamingTraceReader::open(shard).expect("generated shard opens");
            let mut src = StreamSource::new(reader, cores_per_node);
            f(&mut src)
        }
    }
}

fn swmr(cfg: SwmrConfig, load: Load, shard: &[u8]) -> u64 {
    let mut net = SwmrNetwork::new(cfg).expect("valid SWMR config");
    with_source(load, cfg.nodes, cfg.cores_per_node, shard, |src| {
        digest(&net.run_open_loop(src, plan(load)))
    })
}

fn mesh(cfg: MeshConfig, load: Load, shard: &[u8]) -> u64 {
    let mut net = MeshNetwork::new(cfg).expect("valid mesh config");
    with_source(load, cfg.nodes(), cfg.cores_per_node, shard, |src| {
        digest(&net.run_open_loop(src, plan(load)))
    })
}

fn mwsr(cfg: NetworkConfig, load: Load, shard: &[u8]) -> u64 {
    let mut net = Network::new(cfg).expect("valid ring config");
    with_source(load, cfg.nodes, cfg.cores_per_node, shard, |src| {
        digest(&net.run_open_loop(src, plan(load)))
    })
}

/// Compare every `(label, actual)` against the pinned table, printing the
/// full actual table on any mismatch.
fn check(actual: &[(String, u64)], pinned: &[u64]) {
    let table: Vec<String> = actual
        .iter()
        .map(|(label, d)| format!("{d:#018x}, // {label}"))
        .collect();
    assert_eq!(
        actual.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
        pinned,
        "digests moved; actual table:\n{}",
        table.join("\n")
    );
}

#[test]
fn swmr_and_mesh_summaries_match_their_pins() {
    let shard = shard();
    let mut actual = Vec::new();
    for load in LOADS {
        for cfg in [SwmrConfig::paper_handshake(8), SwmrConfig::paper_credit()] {
            actual.push((
                format!("{} {load:?}", cfg.flow.label()),
                swmr(cfg, load, &shard),
            ));
        }
        actual.push((
            format!("mesh {load:?}"),
            mesh(MeshConfig::paper_comparable(), load, &shard),
        ));
    }
    check(&actual, &SWMR_MESH_PINS);
}

#[test]
fn mwsr_summaries_match_their_pins() {
    let shard = shard();
    let mut actual = Vec::new();
    for load in LOADS {
        for scheme in Scheme::paper_set(8) {
            actual.push((
                format!("{} {load:?}", scheme.label()),
                mwsr(NetworkConfig::paper_default(scheme), load, &shard),
            ));
        }
    }
    check(&actual, &MWSR_PINS);
}

const SWMR_MESH_PINS: [u64; 9] = [
    0x1803cfd7c3768fed, // SWMR handshake w/ setaside Uniform(0.002)
    0x31452d6df7ea5232, // SWMR credit Uniform(0.002)
    0xad34d1c978cb5ac1, // mesh Uniform(0.002)
    0x24c3919cdcf9a223, // SWMR handshake w/ setaside Uniform(0.04)
    0xdcc06cf530a6e316, // SWMR credit Uniform(0.04)
    0x4a37365a070e7141, // mesh Uniform(0.04)
    0xd1f431ac593bcc5d, // SWMR handshake w/ setaside Blackscholes
    0xc3c17c63988bda6a, // SWMR credit Blackscholes
    0x6b24faacc3a476d8, // mesh Blackscholes
];

const MWSR_PINS: [u64; 21] = [
    0xa040e84051b3221f, // Token Channel Uniform(0.002)
    0xa040e84051b3221f, // GHS Uniform(0.002)
    0xa040e84051b3221f, // GHS w/ Setaside Uniform(0.002)
    0x3e0527709c1049f5, // Token Slot Uniform(0.002)
    0x1306d63bd802ffb2, // DHS Uniform(0.002)
    0x169a13832d4f7083, // DHS w/ Setaside Uniform(0.002)
    0x169a13832d4f7083, // DHS w/ Circulation Uniform(0.002)
    0x5b721707d081e21c, // Token Channel Uniform(0.04)
    0xd40d68d179c3df7e, // GHS Uniform(0.04)
    0x5d0264fb4c7c3028, // GHS w/ Setaside Uniform(0.04)
    0xebf48293c8887bde, // Token Slot Uniform(0.04)
    0x62bdd016a490aba3, // DHS Uniform(0.04)
    0x4eb472ebfa7e3bc7, // DHS w/ Setaside Uniform(0.04)
    0x4eb472ebfa7e3bc7, // DHS w/ Circulation Uniform(0.04)
    0x7dc7c831e70f4ef0, // Token Channel Blackscholes
    0xdf96f1e92fdcc44a, // GHS Blackscholes
    0x7dc7c831e70f4ef0, // GHS w/ Setaside Blackscholes
    0xb22acd4059628989, // Token Slot Blackscholes
    0xf49d25097825b8f9, // DHS Blackscholes
    0x11076a3a0664b80e, // DHS w/ Setaside Blackscholes
    0x11076a3a0664b80e, // DHS w/ Circulation Blackscholes
];
