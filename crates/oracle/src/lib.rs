//! # pnoc-oracle — reference simulator & differential fuzz harness
//!
//! A deliberately simple, allocation-happy, obviously-correct second
//! implementation of the MWSR channel semantics, plus a deterministic fuzz
//! harness that runs it against the optimized `pnoc-noc` simulator and
//! compares everything observable: per-packet ejection cycles, every
//! counter, drain state, and conservation invariants.
//!
//! ## Semantics-sharing boundary
//!
//! The oracle shares with `pnoc-noc` only the *vocabulary* of a run, never
//! its machinery (DESIGN.md §12):
//!
//! * shared: [`pnoc_noc::NetworkConfig`], [`pnoc_noc::Scheme`],
//!   [`pnoc_noc::FairnessPolicy`], [`pnoc_noc::Packet`] /
//!   [`pnoc_noc::PacketKind`], the traffic layer
//!   ([`pnoc_noc::SyntheticSource`], `pnoc-traffic` patterns), and the
//!   `pnoc-faults` injector (both simulators must see the *same* fault
//!   schedule for a diff to mean anything);
//! * **not** shared: `Channel`/`Channels`, the scheme pipeline (the
//!   `Arbiter` and `Flow` implementations), `OutQueue`, `SendableSet`,
//!   `Calendar`, `SlotRing` — every piece of per-cycle machinery is
//!   reimplemented here as straight-line interpreters over plain `Vec`s.
//!
//! One interpreter per scheme family lives in its own module:
//! [`credit`] (token channel), [`slot`] (token slot), [`handshake`]
//! (GHS and DHS), and [`circulation`] (DHS with circulation).
//!
//! The fuzz entry points are [`cases::generate_case`] (seeded case
//! sampler), [`diff::check_case`] (run both simulators, compare), and
//! [`cases::shrink`] (greedy minimization of a divergent case). The `fuzz`
//! binary wires them into ci.sh (`--quick` smoke, `--sabotage-check`
//! self-test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod channel;
pub mod circulation;
pub mod credit;
pub mod diff;
pub mod handshake;
pub mod net;
pub mod queue;
pub mod slot;

pub use cases::{generate_case, shrink, FuzzCase};
pub use diff::{check_case, run_pair, Counters, RunArtifacts};
pub use net::RefNetwork;
