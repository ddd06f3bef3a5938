//! Figure 7 micro-benchmark: enumeration delay on Erdős–Rényi graphs for
//! `p ∈ {0.3, 0.5, 0.7}` (the full sweep is `src/bin/fig7_random_delay.rs`).
//! Tracks the time to the first 10 triangulations of `G(40, p)`.

use criterion::{criterion_group, criterion_main, Criterion};
use mintri_core::{EnumerationBudget, Query};
use mintri_workloads::random::erdos_renyi;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_random_delay");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200));
    for p in [0.3, 0.5, 0.7] {
        let g = erdos_renyi(40, p, 42);
        for algo in mintri_bench::AlgoChoice::BOTH {
            group.bench_function(format!("{}_n40_p{}_first10", algo.name(), p), |b| {
                b.iter(|| {
                    let outcome = Query::stats()
                        .triangulator(algo.triangulator())
                        .budget(EnumerationBudget::results(10))
                        .run_local(black_box(&g))
                        .wait();
                    black_box(outcome.records.len())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
