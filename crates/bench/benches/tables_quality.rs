//! Tables 1 & 2 micro-benchmark: a quality-statistics run (budgeted
//! enumeration plus width/fill aggregation) on one instance per backend —
//! the unit of work behind every row of the tables.

use criterion::{criterion_group, criterion_main, Criterion};
use mintri_bench::AlgoChoice;
use mintri_core::{EnumerationBudget, Query};
use mintri_workloads::PgmFamily;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let inst = PgmFamily::ObjectDetection.instances(1, 42).remove(0);
    let mut group = c.benchmark_group("tables_quality_stats");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for algo in AlgoChoice::BOTH {
        group.bench_function(format!("{}_quality_100_results", algo.name()), |b| {
            b.iter(|| {
                let outcome = Query::stats()
                    .triangulator(algo.triangulator())
                    .budget(EnumerationBudget::results(100))
                    .run_local(black_box(&inst.graph))
                    .wait();
                black_box(outcome.quality())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
