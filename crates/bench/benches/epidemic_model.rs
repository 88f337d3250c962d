//! Wall-clock benchmarks of the community-defense model: ODE solves,
//! full figure sweeps, and the sharded community engine at several
//! shard counts.
#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use epidemic::{figure6, solve, Parallelism, Scenario};

fn bench_solve(c: &mut Criterion) {
    c.bench_function("epidemic/solve_slammer", |b| {
        b.iter(|| solve(&Scenario::slammer(0.001, 20.0)))
    });
    c.bench_function("epidemic/solve_hitlist_4000", |b| {
        b.iter(|| solve(&Scenario::hitlist(4000.0, 0.0001, 10.0)))
    });
}

fn bench_figure_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("epidemic/figure6_sweep");
    g.sample_size(10);
    g.bench_function("30_cells", |b| b.iter(figure6));
    g.finish();
}

fn bench_sharded_community(c: &mut Criterion) {
    // Figure-7-style hit-list run (β = 1000, ρ = 2⁻¹², γ = 5 s) with a
    // hot start so per-tick work is dense; see bench::model_campaign.
    let hosts = 100_000u64;
    let mut g = c.benchmark_group("epidemic/sharded_community_100k");
    g.sample_size(10);
    for k in [1usize, 2, 4, 8] {
        g.bench_function(format!("k{k}"), |b| {
            b.iter(|| {
                bench::model_campaign(hosts, Parallelism::Fixed(k), 1)
                    .0
                    .infected
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_solve,
    bench_figure_sweep,
    bench_sharded_community
);
criterion_main!(benches);
