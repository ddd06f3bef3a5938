//! The scratch-space execution kernel is *identity-preserving*: with the
//! kernel on (default) or ablated (`MsGraph::without_scratch_kernel`),
//! every executor must produce bit-for-bit the same answer stream — same
//! sets, same order, same `EnumMIS` and `MSGraph` counters. The kernel
//! changes only where intermediate buffers live, never what is computed.
//!
//! Coverage: random graphs (proptest) plus the chained-cycle corpus, the
//! sequential iterator in both print modes, `Query::run_local`, and
//! `Engine::run` cold and replayed.

use mintri::core::{ExecPolicy, MinimalTriangulationsEnumerator, MsGraph, Query};
use mintri::engine::Engine;
use mintri::graph::{Graph, Node};
use mintri::sgr::{EnumMisStats, PrintMode};
use mintri::workloads::random::chained_cycles;
use proptest::prelude::*;

type Fill = Vec<(Node, Node)>;

/// A random graph on `3..=max_n` nodes with independent edge bits.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n).prop_flat_map(|n| {
        let m = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), m).prop_map(move |bits| {
            let mut g = Graph::new(n);
            let mut k = 0;
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if bits[k] {
                        g.add_edge(u, v);
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

/// Ordered fill lists plus counters from the sequential enumerator, with
/// the kernel on or ablated.
fn sequential(g: &Graph, kernel: bool, mode: PrintMode) -> (Vec<Fill>, EnumMisStats, usize) {
    let ms = if kernel {
        MsGraph::new(g)
    } else {
        MsGraph::new(g).without_scratch_kernel()
    };
    let mut e = MinimalTriangulationsEnumerator::from_msgraph(ms, mode);
    let fills: Vec<Fill> = e.by_ref().map(|t| t.fill).collect();
    let extends = e.msgraph_stats().extends;
    (fills, e.enum_stats(), extends)
}

/// Ordered fill lists from an engine run (unplanned, so the stream is
/// directly comparable to the raw sequential enumerator's).
fn engine_fills(engine: &Engine, g: &Graph) -> Vec<Fill> {
    let mut resp = engine.run(
        g,
        Query::enumerate().policy(ExecPolicy::default().with_planned(false)),
    );
    resp.triangulations().into_iter().map(|t| t.fill).collect()
}

/// Every executor against the kernel-ablated sequential baseline.
fn assert_kernel_identity(g: &Graph) {
    let (fresh, fresh_stats, fresh_extends) = sequential(g, false, PrintMode::UponGeneration);

    // Sequential, kernel on: same stream, same counters, bit for bit.
    let (scratch, scratch_stats, scratch_extends) = sequential(g, true, PrintMode::UponGeneration);
    assert_eq!(
        fresh, scratch,
        "kernel changed the sequential stream on {g:?}"
    );
    assert_eq!(
        fresh_stats, scratch_stats,
        "kernel changed EnumMIS counters on {g:?}"
    );
    assert_eq!(
        fresh_extends, scratch_extends,
        "kernel changed the Extend count on {g:?}"
    );

    // Both print modes agree between the paths.
    assert_eq!(
        sequential(g, false, PrintMode::UponPop).0,
        sequential(g, true, PrintMode::UponPop).0,
        "kernel changed the UponPop stream on {g:?}"
    );

    // run_local drives the same kernel through the front door.
    let local: Vec<Fill> = Query::enumerate()
        .policy(ExecPolicy::default().with_planned(false))
        .run_local(g)
        .triangulations()
        .into_iter()
        .map(|t| t.fill)
        .collect();
    assert_eq!(
        fresh, local,
        "run_local diverged from the baseline on {g:?}"
    );

    // The engine reproduces the sequential order exactly, live and from
    // the recording the live run left.
    let engine = Engine::new();
    for round in ["cold", "replayed"] {
        assert_eq!(
            fresh,
            engine_fills(&engine, g),
            "{round} engine stream diverged on {g:?}"
        );
    }
}

#[test]
fn kernel_identity_on_chained_cycle_corpus() {
    for lengths in [vec![4], vec![5, 4], vec![6, 5], vec![5, 4, 6]] {
        let g = chained_cycles(&lengths);
        assert_kernel_identity(&g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random graphs: the kernel is invisible in every observable —
    /// streams, sets, counters — on every executor.
    #[test]
    fn kernel_identity_on_random_graphs(g in graph_strategy(7)) {
        assert_kernel_identity(&g);
    }
}
