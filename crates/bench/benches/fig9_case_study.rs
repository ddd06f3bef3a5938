//! Figures 9 & 10 micro-benchmark: the case-study machinery — a budgeted
//! anytime run on a Promedas-style graph including the per-result width and
//! fill instrumentation, plus the running-minimum extraction.

use criterion::{criterion_group, criterion_main, Criterion};
use mintri_core::{EnumerationBudget, Query};
use mintri_workloads::pgm::promedas;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let g = promedas(24, 72, 4, 42);
    let mut group = c.benchmark_group("fig9_fig10_case_study");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("promedas_case_study_50_results", |b| {
        b.iter(|| {
            let outcome = Query::stats()
                .budget(EnumerationBudget::results(50))
                .run_local(black_box(&g))
                .wait();
            let widths = outcome.running_min(|r| r.width);
            let fills = outcome.running_min(|r| r.fill);
            black_box((outcome.records.len(), widths.len(), fills.len()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
