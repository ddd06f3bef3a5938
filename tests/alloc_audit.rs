//! Pins the zero-allocation invariant of the scratch-space execution
//! kernel: once the workspace and the shared memo tables are warm,
//! re-evaluating the enumeration's `(answer, direction)` pairs — build
//! `Jv` with [`build_jv`], claim it in a pre-sized [`JvKeys`] set, run
//! `Extend` — must not touch the heap at all: no bitset clones, no BFS
//! queues, no MCS-M buffers, no interner inserts, no per-key allocation.
//!
//! **Scope.** The invariant covers the kernel API surface
//! (`extend_with`/`edge_with` through a reused [`EvalScratch`]) in steady
//! state, i.e. when every evaluation reproduces an already-known answer —
//! which is the overwhelming majority of `Extend` calls in a real run
//! (each of the `n·|answers|` pairs yields one of `|answers|` answers).
//! The measured pass extends **every** pair, whatever the key set says,
//! so it times the kernel rather than the skip. Genuinely *new* answers
//! are out of scope by design: absorbing one requires an owned `Vec` for
//! the seen-set and an `Arc` for the queue, exactly as the pre-kernel
//! code paid.
//!
//! This is deliberately a single `#[test]` in its own integration binary:
//! the counting `#[global_allocator]` sees every allocation in the
//! process, so a sibling test running concurrently would poison the
//! measurement.

use mintri::core::MsGraph;
use mintri::sgr::{build_jv, EnumMis, EvalScratch, JvKeys, PrintMode, Sgr};
use mintri::workloads::random::chained_cycles;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting every heap acquisition (alloc,
/// alloc_zeroed, realloc). Deallocations are not counted — the invariant
/// is about *acquiring* memory on the hot path.
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

#[test]
fn steady_state_extend_allocates_zero_times() {
    let g = chained_cycles(&[6, 5, 6]);
    let ms = MsGraph::new(&g);
    let ms = &ms;

    // Warm the shared tables: a full enumeration interns every separator,
    // memoizes every crossing test the schedule asks, and records every
    // answer.
    let answers: Vec<Vec<_>> = EnumMis::new(ms, PrintMode::UponGeneration).collect();
    let nodes: Vec<_> = ms.nodes().collect();
    assert!(answers.len() > 1, "workload too trivial to audit");

    // Warm the private workspace: the first pass sizes every scratch
    // buffer to this graph's shapes and measures the key set's size.
    let mut ws: EvalScratch<&MsGraph> = EvalScratch::default();
    let (mut pairs, mut key_nodes) = (1usize, 0usize);
    ms.extend_with(&[], &mut ws.out, &mut ws.sgr);
    for answer in &answers {
        for v in &nodes {
            ws.jv.clear();
            if build_jv(&ms, answer, v, &mut ws.sgr, &mut ws.jv) {
                ms.extend_with(&ws.jv, &mut ws.out, &mut ws.sgr);
                pairs += 1;
                key_nodes += ws.jv.len();
            }
        }
    }
    assert!(pairs > 1, "warmup evaluated no productive pair");
    let mut keys = JvKeys::with_capacity(pairs, key_nodes);

    // Measured pass: the same evaluations, now with warm scratch and warm
    // memo tables, plus an insert-or-hit on the pre-sized key set per
    // pair, must not allocate at all. Every pair is extended, repeat or
    // not.
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut fresh = usize::from(keys.insert(&[]));
    ms.extend_with(&[], &mut ws.out, &mut ws.sgr);
    for answer in &answers {
        for v in &nodes {
            ws.jv.clear();
            if build_jv(&ms, answer, v, &mut ws.sgr, &mut ws.jv) {
                fresh += usize::from(keys.insert(&ws.jv));
                ms.extend_with(&ws.jv, &mut ws.out, &mut ws.sgr);
            }
        }
    }
    let observed = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        observed, 0,
        "steady-state kernel evaluation of {pairs} pairs performed \
         {observed} heap allocations (expected 0) — a scratch buffer is \
         being rebuilt, a clone slipped back into the Extend/crossing \
         path, or the key set allocated per key",
    );
    assert_eq!(keys.len(), fresh);
    assert!(
        0 < fresh && fresh < pairs,
        "the audit must exercise both key inserts and repeat hits \
         ({fresh} distinct Jv sets of {pairs})"
    );
}
