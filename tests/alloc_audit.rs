//! Pins the zero-allocation invariant of the scratch-space execution
//! kernel: once the workspace and the shared memo tables are warm,
//! re-evaluating the enumeration's `(answer, direction)` pairs — build
//! `Jv` with [`Sgr::build_jv`], ask an [`AnswerIndex`] whether an answer
//! contains it, run `Extend` — must not touch the heap at all: no bitset
//! clones, no BFS queues, no MCS-M buffers, no interner inserts, no
//! per-query cursor buffer.
//!
//! **Scope.** The invariant covers the kernel API surface
//! (`build_jv`/`extend_with` through reused scratch and buffers) in steady
//! state, i.e. when every evaluation reproduces an already-known answer —
//! which is the overwhelming majority of `Extend` calls in a real run
//! (each of the `n·|answers|` pairs yields one of `|answers|` answers).
//! The measured pass extends **every** pair, whatever the index says,
//! so it times the kernel rather than the skip. Genuinely *new* answers
//! are out of scope by design: holding one grows the answer arena and
//! its index rows, and emitting one hands the consumer an owned `Vec`.
//!
//! This is deliberately a single `#[test]` in its own integration binary:
//! the counting `#[global_allocator]` sees every allocation in the
//! process, so a sibling test running concurrently would poison the
//! measurement.

use mintri::core::MsGraph;
use mintri::sgr::{AnswerIndex, EnumMis, PrintMode, Sgr};
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

    // Warm the private workspace and the index: the first pass sizes
    // every scratch buffer to this graph's shapes, builds the index rows
    // of the first half of the answers and sizes the query's cursors.
    // With half the answers held, some queries hit and some miss.
    let (mut scratch, mut jv, mut out) = (Default::default(), Vec::new(), Vec::new());
    let mut index = AnswerIndex::default();
    for answer in &answers[..answers.len() / 2] {
        index.insert(answer);
    }
    let mut pairs = 1usize;
    ms.extend_with(&[], &mut out, &mut scratch);
    for answer in &answers {
        for v in &nodes {
            jv.clear();
            if ms.build_jv(answer, v, &mut scratch, &mut jv) {
                index.any_contains(&jv);
                ms.extend_with(&jv, &mut out, &mut scratch);
                pairs += 1;
            }
        }
    }
    assert!(pairs > 1, "warmup evaluated no productive pair");

    // Measured pass: the same evaluations, now with warm scratch, warm
    // memo tables and a warm index, plus one containment query per
    // pair, must not allocate at all. Every pair is extended, contained
    // or not.
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut contained = 0usize;
    ms.extend_with(&[], &mut out, &mut scratch);
    for answer in &answers {
        for v in &nodes {
            jv.clear();
            if ms.build_jv(answer, v, &mut scratch, &mut jv) {
                contained += usize::from(index.any_contains(&jv));
                ms.extend_with(&jv, &mut out, &mut scratch);
            }
        }
    }
    let observed = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        observed, 0,
        "steady-state kernel evaluation of {pairs} pairs performed \
         {observed} heap allocations (expected 0) — a scratch buffer is \
         being rebuilt, a clone slipped back into the Extend/crossing \
         path, or the containment query allocated",
    );
    assert!(
        0 < contained && contained < pairs - 1,
        "the audit must exercise both contained and uncontained Jv sets \
         ({contained} of {} contained)",
        pairs - 1
    );
}
