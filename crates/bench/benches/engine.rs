//! Microbenchmarks of the simulation-kernel hot paths: the per-cycle cost of
//! the structures every simulated cycle touches.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pnoc_noc::calendar::Calendar;
use pnoc_noc::slots::SlotRing;
use pnoc_sim::SimRng;

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.bench_function("next_u64", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    g.bench_function("below_64", |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| black_box(rng.below(64)));
    });
    g.bench_function("geometric_gap", |b| {
        let mut rng = SimRng::seed_from(3);
        b.iter(|| black_box(rng.geometric_gap(0.1)));
    });
    g.finish();
}

fn bench_slot_ring(c: &mut Criterion) {
    c.bench_function("slot_ring_advance_put_take", |b| {
        let mut ring: SlotRing<u64> = SlotRing::new(8);
        let mut i = 0u64;
        b.iter(|| {
            ring.advance();
            let seg = (i % 8) as usize;
            if ring.is_free(seg) {
                ring.put(seg, i);
            }
            black_box(ring.take((i.wrapping_add(3) % 8) as usize));
            i += 1;
        });
    });
}

fn bench_calendar(c: &mut Criterion) {
    c.bench_function("calendar_schedule_drain", |b| {
        let mut cal: Calendar<u64> = Calendar::new(16);
        let mut now = 0u64;
        b.iter(|| {
            cal.schedule(now + 9, now);
            black_box(cal.drain(now).len());
            now += 1;
        });
    });
}

criterion_group!(benches, bench_rng, bench_slot_ring, bench_calendar);
criterion_main!(benches);
