//! Criterion bench for the discrete-event kernel. The fair-share solver
//! and flow-network drain benches live in `netsim.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vc_des::{Engine, SimTime};

fn bench_event_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_engine");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3));
    for n in [1_000u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("schedule_drain", n), &n, |b, &n| {
            b.iter(|| {
                let mut e = Engine::new();
                for i in 0..n {
                    e.schedule(SimTime::from_micros((i * 7919) % 1_000_000), i);
                }
                let mut count = 0u64;
                while e.pop().is_some() {
                    count += 1;
                }
                black_box(count)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_kernel);
criterion_main!(benches);
