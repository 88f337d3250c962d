//! Wall-clock benchmarks of the whole Sweeper loop: protected request
//! service and complete attack handling (detect → analyze → antibody →
//! recover) per application.
#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use sweeper::{Config, RequestOutcome, Sweeper};

fn bench_protected_service(c: &mut Criterion) {
    let app = apps::squid::app().expect("app");
    c.bench_function("e2e/serve_request_protected", |b| {
        let mut s = Sweeper::protect(&app, Config::producer(1)).expect("protect");
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            let out = s.offer_request(apps::squid::benign_request(&format!("u{i}"), "h"));
            assert!(matches!(out, RequestOutcome::Served { .. }));
        })
    });
}

fn bench_attack_handling(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e/attack_to_antibody");
    g.sample_size(10);
    for (app, exploit) in apps::all_crash_exploits().expect("exploits") {
        g.bench_function(app.name, |b| {
            b.iter_batched(
                || {
                    let mut s = Sweeper::protect(&app, Config::producer(5)).expect("protect");
                    s.offer_request(apps::squid::benign_request("warm", "up"));
                    s
                },
                |mut s| {
                    let out = s.offer_request(exploit.input.clone());
                    assert!(matches!(out, RequestOutcome::Attack(_)));
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_sampling_modes(c: &mut Criterion) {
    // §4.2 sampling: the wall-clock price of running a request under
    // full taint (sampled) vs the lightweight default.
    let app = apps::squid::app().expect("app");
    let mut g = c.benchmark_group("e2e/sampling");
    for (name, rate) in [("unsampled", 0.0), ("sampled", 1.0)] {
        g.bench_function(name, |b| {
            let mut s =
                Sweeper::protect(&app, Config::producer(2).with_sampling(rate)).expect("protect");
            let mut i = 0u32;
            b.iter(|| {
                i += 1;
                let out = s.offer_request(apps::squid::benign_request(&format!("s{i}"), "h"));
                assert!(matches!(out, RequestOutcome::Served { .. }));
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_protected_service,
    bench_attack_handling,
    bench_sampling_modes
);
criterion_main!(benches);
