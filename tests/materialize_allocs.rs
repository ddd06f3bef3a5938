//! Pins what turning an answer back into a triangulation costs the heap:
//! once the separators are interned, [`MsGraph::materialize`] makes
//! exactly [`ALLOCS_PER_ANSWER`] allocations per answer, whatever the
//! size of the graph — the saturated graph's one word buffer and the fill
//! list, allocated once at its exact length. A graph stored as one heap
//! row per vertex would pay `n + 1` for the copy alone.
//!
//! This is deliberately a single `#[test]` in its own integration binary:
//! the counting `#[global_allocator]` sees every allocation in the
//! process, so a sibling test running concurrently would poison the
//! measurement.

use mintri::core::MsGraph;
use mintri::graph::Graph;
use mintri::sgr::{EnumMis, PrintMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting every heap acquisition (alloc,
/// alloc_zeroed, realloc). Deallocations are not counted.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The graph's word buffer plus the fill list.
const ALLOCS_PER_ANSWER: usize = 2;

#[test]
fn materialize_allocates_a_constant_per_answer() {
    // One and three words per row; every minimal triangulation of a
    // cycle `C_n` adds `n - 3` fill edges, so no fill list is empty.
    for n in [60, 129] {
        let g = Graph::cycle(n);
        let ms = MsGraph::new(&g);
        let answers: Vec<Vec<_>> = EnumMis::new(&ms, PrintMode::UponGeneration)
            .take(8)
            .collect();
        assert_eq!(answers.len(), 8, "C{n} has more than 8 answers");
        // Warm-up: the first materialization may touch lazily built state.
        ms.materialize(&answers[0]);

        let before = ALLOCS.load(Ordering::Relaxed);
        let tris: Vec<_> = answers.iter().map(|a| ms.materialize(a)).collect();
        // the `tris` vector itself is one more allocation
        let observed = ALLOCS.load(Ordering::Relaxed) - before - 1;
        assert_eq!(
            observed,
            ALLOCS_PER_ANSWER * answers.len(),
            "C{n}: {observed} allocations for {} materialized answers",
            answers.len()
        );
        for tri in &tris {
            assert_eq!(tri.fill.len(), n - 3, "C{n}: a minimal triangulation");
            assert_eq!(tri.graph.num_edges(), 2 * n - 3);
        }
    }
}
