//! Criterion benchmarks for the attacks themselves, on instances small
//! enough for statistical repetition.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polykey_attack::{AttackSession, SimOracle};
use polykey_circuits::Iscas85;
use polykey_locking::{Key, LockScheme, LutLock, Rll, Sarlock};
use rand::SeedableRng;

fn bench_sat_attack_rll(c: &mut Criterion) {
    let mut group = c.benchmark_group("attack/rll");
    group.sample_size(10);
    let original = Iscas85::C432.build();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let locked = Rll::new(16).with_seed(42).lock_random(&original, &mut rng).expect("lockable");
    group.bench_function("sat_rll16_c432", |b| {
        b.iter(|| {
            let mut oracle = SimOracle::new(&original).expect("oracle");
            let report = AttackSession::builder()
                .oracle(&mut oracle)
                .record_dips(false)
                .build()
                .expect("oracle provided")
                .run(&locked.netlist)
                .expect("runs");
            assert!(report.is_complete());
            black_box(report.stats().dips)
        })
    });
    group.finish();
}

fn bench_sat_attack_sarlock(c: &mut Criterion) {
    let mut group = c.benchmark_group("attack/sat_sarlock_c432");
    group.sample_size(10);
    let original = Iscas85::C432.build();
    for kw in [4usize, 6] {
        let locked =
            Sarlock::new(kw).lock(&original, &Key::from_u64(0b1010, kw)).expect("lockable");
        group.bench_with_input(BenchmarkId::from_parameter(kw), &locked, |b, locked| {
            b.iter(|| {
                let mut oracle = SimOracle::new(&original).expect("oracle");
                let report = AttackSession::builder()
                    .oracle(&mut oracle)
                    .record_dips(false)
                    .build()
                    .expect("oracle provided")
                    .run(&locked.netlist)
                    .expect("runs");
                black_box(report.stats().dips)
            })
        });
    }
    group.finish();
}

fn bench_multikey_vs_baseline(c: &mut Criterion) {
    // The headline comparison, in miniature: SARLock |K|=6 on c432,
    // baseline vs N=2 (sequential, to measure CPU work rather than
    // parallel wall time).
    let original = Iscas85::C432.build();
    let locked =
        Sarlock::new(6).lock(&original, &Key::from_u64(0b110101, 6)).expect("lockable");

    let mut group = c.benchmark_group("attack/multikey_sarlock6_c432");
    group.sample_size(10);
    for n in [0usize, 2] {
        group.bench_with_input(BenchmarkId::new("split", n), &n, |b, &n| {
            b.iter(|| {
                let mut oracle = SimOracle::new(&original).expect("oracle");
                let report = AttackSession::builder()
                    .oracle(&mut oracle)
                    .split_effort(n)
                    .threads(1)
                    .record_dips(false)
                    .build()
                    .expect("oracle provided")
                    .run(&locked.netlist)
                    .expect("runs");
                assert!(report.is_complete());
                black_box(report.keys.len())
            })
        });
    }
    group.finish();
}

fn bench_lut_locking(c: &mut Criterion) {
    // Locking itself is cheap; this tracks the LUT module construction.
    let original = Iscas85::C880.build();
    let mut group = c.benchmark_group("lock/lut_c880");
    group.sample_size(10);
    let scheme = LutLock::small().with_seed(7);
    group.bench_function("small", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        b.iter(|| {
            let locked = scheme.lock_random(&original, &mut rng).expect("lockable");
            black_box(locked.netlist.num_gates())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sat_attack_rll,
    bench_sat_attack_sarlock,
    bench_multikey_vs_baseline,
    bench_lut_locking
);
criterion_main!(benches);
