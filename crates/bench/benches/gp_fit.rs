//! Criterion bench: Gaussian-process fit, predict and one search
//! iteration's `suggest`, over the data sizes a 300-iteration run passes
//! through (§IV.D).
//!
//! `gp/fit/*` is a from-scratch `O(n³)` fit, which appends every row of
//! the factor from empty. `gp/suggest/*` is the scoring a search iteration
//! pays between ML-II refits: one `α` re-solve per objective and a block
//! posterior over the 192-candidate pool. No `tell` comes between its
//! calls, so it does not time the one-row append a new observation adds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lens::gp::kernel::Matern52;
use lens::gp::GpRegressor;
use lens_bench::workloads::{gp_suggest_state, gp_training_data as training_data};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp");
    group.sample_size(20);
    for n in [50usize, 100, 200, 300] {
        let (xs, ys) = training_data(n);
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                GpRegressor::fit(
                    black_box(xs.clone()),
                    black_box(ys.clone()),
                    Matern52::new(0.8, 1.0),
                    1e-4,
                )
                .expect("fit succeeds")
            })
        });
    }

    // Posterior prediction over a 192-candidate pool at n=200.
    let (xs, ys) = training_data(200);
    let gp = GpRegressor::fit(xs, ys, Matern52::new(0.8, 1.0), 1e-4).expect("fit succeeds");
    let (pool, _) = training_data(192);
    group.bench_function("predict_pool_192_at_n200", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for cand in &pool {
                let (m, v) = gp.predict(black_box(cand));
                acc += m + v;
            }
            acc
        })
    });

    for n in [100usize, 300] {
        let (mut optimizer, pool) = gp_suggest_state(n);
        let mut rng = StdRng::seed_from_u64(7);
        group.bench_function(BenchmarkId::new("suggest", n), |b| {
            b.iter(|| {
                optimizer
                    .suggest(black_box(&pool), &mut rng)
                    .expect("suggest succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gp);
criterion_main!(benches);
