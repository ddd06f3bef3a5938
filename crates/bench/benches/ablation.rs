//! Ablation benchmark for the black-box design choice: the triangulation
//! backend inside `Extend` (MCS-M vs LB-Triang vs the naive complete-fill
//! + sandwich). Minimal-separator interning is exercised implicitly.

use criterion::{criterion_group, criterion_main, Criterion};
use mintri_core::MinimalTriangulationsEnumerator;
use mintri_sgr::PrintMode;
use mintri_triangulate::{CompleteFill, LbTriang, McsM, Triangulator};
use mintri_workloads::random::grid;
use std::hint::black_box;
use std::time::Duration;

fn extend_backend(c: &mut Criterion) {
    let g = grid(5, 5);
    let mut group = c.benchmark_group("ablation_extend_backend");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    type BackendFactory = fn() -> Box<dyn Triangulator>;
    let backends: Vec<(&str, BackendFactory)> = vec![
        ("mcs_m", || Box::new(McsM)),
        ("lb_triang_minfill", || Box::new(LbTriang::min_fill())),
        ("complete_fill_sandwich", || Box::new(CompleteFill)),
    ];
    for (name, make) in backends {
        group.bench_function(format!("{name}_first20"), |b| {
            b.iter(|| {
                let e = MinimalTriangulationsEnumerator::with_config(
                    black_box(&g),
                    make(),
                    PrintMode::UponGeneration,
                );
                black_box(e.take(20).count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, extend_backend);
criterion_main!(benches);
