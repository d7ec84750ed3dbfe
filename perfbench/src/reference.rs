//! The reference round: a fixed piece of memory-bound work run between the
//! timed layer calls, so that a pass's rate can be stated in units of the
//! host's speed at the time.
//!
//! On a shared host the simulator's speed drifts by ±25 % over seconds to
//! minutes with what the neighbours do to the caches. A round of random
//! queue and table traffic slows down with it, while pure arithmetic does
//! not. Dividing a pass's layer time by the median round time around it
//! cancels most of the drift and none of a change to the simulator.

use crate::stats;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Steps of one round (about 14 ms on a 2-CPU Xeon container host).
const ROUND_STEPS: u64 = 800_000;
/// Queues a round pushes to and pops from.
const QUEUES: usize = 1024;
/// Words of the table a round reads and writes at random (1 MiB).
const TABLE_WORDS: usize = 1 << 17;

thread_local! {
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![0; TABLE_WORDS]);
}

/// Run one reference round; returns its host seconds.
pub fn round_s() -> f64 {
    TABLE.with_borrow_mut(|table| {
        let t = Instant::now();
        black_box(round(table));
        t.elapsed().as_secs_f64()
    })
}

/// The round's work: xorshift-driven table updates and queue traffic, the
/// access pattern of a packet simulator in miniature. Returns a checksum
/// so that none of it is optimized away.
fn round(table: &mut [u64]) -> u64 {
    let mut queues: Vec<VecDeque<u64>> = (0..QUEUES).map(|_| VecDeque::new()).collect();
    let mask = table.len() - 1;
    let mut x = 0xDEAD_BEEF_CAFE_F00D_u64;
    let mut sum = 0_u64;
    for step in 0..ROUND_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize >> 8) & mask;
        table[i] = table[i].wrapping_add(step);
        if (x >> 40) & 3 != 0 {
            queues[x as usize % QUEUES].push_back(step ^ table[(i * 7) & mask]);
        }
        if let Some(v) = queues[(x >> 30) as usize % QUEUES].pop_front() {
            sum = sum.wrapping_add(v);
        }
    }
    sum
}

/// Host time of one pass's layer calls, next to the host's speed while
/// they ran.
#[derive(Debug)]
pub struct Clock {
    /// Host seconds inside the layer calls.
    pub timed_s: f64,
    /// Host seconds of each reference round run around them.
    rounds_s: Vec<f64>,
}

impl Clock {
    /// A clock that has run one reference round, so that every layer call
    /// it times lies between two rounds.
    pub fn start() -> Self {
        Self {
            timed_s: 0.0,
            rounds_s: vec![round_s()],
        }
    }

    /// Time one layer call, then run a reference round.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = call();
        self.timed_s += t.elapsed().as_secs_f64();
        self.rounds_s.push(round_s());
        out
    }

    /// Host seconds of all reference rounds.
    pub fn reference_s(&self) -> f64 {
        self.rounds_s.iter().sum()
    }

    /// Median host seconds of a reference round during the pass: a round
    /// that a brief burst of neighbouring load slows does not speak for the
    /// whole pass.
    pub fn round_s(&self) -> f64 {
        stats::median(&self.rounds_s).expect("a clock starts with a round")
    }

    /// `cycles` simulated in the timed calls, per host second.
    pub fn cycles_per_s(&self, cycles: u64) -> f64 {
        cycles as f64 / self.timed_s
    }

    /// `cycles` simulated in the timed calls, per reference round of host
    /// time.
    pub fn cycles_per_round(&self, cycles: u64) -> f64 {
        self.cycles_per_s(cycles) * self.round_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_bracket_every_timed_call() {
        let mut clock = Clock::start();
        assert_eq!(clock.time(|| 7), 7);
        clock.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!(clock.rounds_s.len(), 3);
        assert!(clock.timed_s >= 0.002);
        let r = clock.cycles_per_round(1000);
        assert!(r.is_finite() && r > 0.0);
        assert_eq!(r, clock.cycles_per_s(1000) * clock.round_s());
        assert!(clock.reference_s() >= clock.round_s());
    }

    #[test]
    fn a_round_does_the_same_work_every_time() {
        // The checksum depends on the table's contents, so it moves from
        // round to round, but the steps and their branches do not.
        let mut a = vec![0; TABLE_WORDS];
        let mut b = vec![0; TABLE_WORDS];
        assert_eq!(round(&mut a), round(&mut b));
        assert_eq!(a, b);
    }
}
