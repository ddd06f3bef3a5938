//! Figure 6 micro-benchmark: enumeration delay on PGM-style graphs for the
//! two triangulation backends. The full-scale sweep lives in
//! `src/bin/fig6_pgm_delay.rs`; this bench tracks regressions in the time
//! to produce the first 20 triangulations of one representative instance
//! per family.

use criterion::{criterion_group, criterion_main, Criterion};
use mintri_core::{EnumerationBudget, Query};
use mintri_workloads::PgmFamily;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_pgm_delay");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200));
    for family in [
        PgmFamily::Promedas,
        PgmFamily::ObjectDetection,
        PgmFamily::Grids,
    ] {
        let inst = family.instances(1, 42).remove(0);
        for algo in mintri_bench::AlgoChoice::BOTH {
            group.bench_function(format!("{}_{}_first20", algo.name(), inst.name), |b| {
                b.iter(|| {
                    let outcome = Query::stats()
                        .triangulator(algo.triangulator())
                        .budget(EnumerationBudget::results(20))
                        .run_local(black_box(&inst.graph))
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
