//! Failure-injection and invariant tests for every scheme: a home node whose
//! ejection port stalls arbitrarily must never corrupt flow-control
//! accounting — credit schemes never overflow the buffer, handshake schemes
//! drop-and-retransmit, circulation recirculates, and nothing is ever lost.

use pnoc_noc::channel::Channels;
use pnoc_noc::for_channels;
use pnoc_noc::metrics::NetworkMetrics;
use pnoc_noc::packet::{Packet, PacketKind};
use pnoc_noc::{NetworkConfig, Scheme};
use pnoc_sim::SimRng;
use proptest::prelude::*;

fn pkt(id: u64, src: usize, dst: usize) -> Packet {
    Packet {
        id,
        src_core: (src * 2) as u32,
        src_node: src as u32,
        dst_node: dst as u32,
        kind: PacketKind::Data,
        generated_at: 0,
        enqueued_at: 0,
        sent_at: 0,
        sends: 0,
        measured: true,
        tag: 0,
        class: 0,
    }
}

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::TokenChannel),
        Just(Scheme::TokenSlot),
        (0usize..=3).prop_map(|s| Scheme::Ghs { setaside: s }),
        (0usize..=3).prop_map(|s| Scheme::Dhs { setaside: s }),
        Just(Scheme::DhsCirculation),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Randomly stall the home's ejection port while several senders flood
    /// one channel. Every packet must still be delivered exactly once, the
    /// buffer must never overflow, and scheme-specific accounting must hold.
    #[test]
    fn ejection_stalls_never_corrupt_flow_control(
        scheme in arb_scheme(),
        buffer in 2usize..=6,
        stall_p in 0.0f64..0.9,
        seed in 0u64..10_000,
    ) {
        let mut cfg = NetworkConfig::small(scheme); // 16 nodes, 4 segments
        cfg.input_buffer = buffer;
        let (m, deliveries, drained) = for_channels!(&mut Channels::new(&cfg, [0]), chs => {
            let ch = &mut chs[0];
            let mut m = NetworkMetrics::new();
            let mut deliveries = Vec::new();
            let mut rng = SimRng::seed_from(seed);

            // 3 senders × 10 packets into channel 0.
            let mut id = 0;
            for src in [3usize, 8, 14] {
                for _ in 0..10 {
                    ch.enqueue(pkt(id, src, 0));
                    id += 1;
                }
            }

            let mut now = 0u64;
            let horizon = 60_000u64;
            while now < horizon && !(ch.is_drained() && deliveries.len() == 30) {
                ch.set_ejection_per_cycle(if rng.chance(stall_p) { 0 } else { 1 });
                ch.step(now, &mut m, &mut deliveries);
                ch.check_invariants();
                prop_assert!(
                    ch.buffer_occupancy() <= buffer,
                    "buffer overflow under stall"
                );
                now += 1;
            }
            (m, deliveries, ch.is_drained())
        });
        prop_assert_eq!(deliveries.len(), 30, "{:?} lost packets", scheme);
        prop_assert!(drained, "{:?} failed to drain", scheme);

        // No duplicates.
        let mut ids: Vec<u64> = deliveries.iter().map(|d| d.pkt.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), 30, "duplicate deliveries");

        match scheme {
            Scheme::TokenChannel | Scheme::TokenSlot => {
                prop_assert_eq!(m.drops, 0, "credit schemes never drop");
                prop_assert_eq!(m.circulations, 0);
            }
            Scheme::Ghs { .. } | Scheme::Dhs { .. } => {
                prop_assert_eq!(m.drops, m.retransmissions, "every drop retried");
                prop_assert_eq!(m.circulations, 0);
            }
            Scheme::DhsCirculation => {
                prop_assert_eq!(m.drops, 0, "circulation never drops");
            }
        }
        // Arrivals = deliveries + drops + circulations (each arrival either
        // enters the buffer, is dropped, or takes another loop).
        prop_assert_eq!(
            m.arrivals,
            m.delivered + m.drops + m.circulations,
            "arrival accounting broken"
        );
    }

    /// Config serde round-trip: any valid configuration survives JSON.
    #[test]
    fn config_serde_round_trip(scheme in arb_scheme(), buffer in 1usize..32) {
        let mut cfg = NetworkConfig::paper_default(scheme);
        cfg.input_buffer = buffer;
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: NetworkConfig = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(cfg, back);
    }
}
