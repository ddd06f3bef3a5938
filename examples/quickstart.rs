//! Quickstart: enumerate the minimal triangulations and proper tree
//! decompositions of a small graph through the one query front door,
//! locally and then on a warm engine.
//!
//! Run with: `cargo run --example quickstart`

use mintri::prelude::*;

fn main() {
    // A 6-cycle: the simplest graph with an interesting triangulation space.
    let g = Graph::cycle(6);
    println!(
        "graph: C6 with {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    // 1. Enumerate ALL minimal triangulations (Catalan(4) = 14 of them).
    //    `Query` describes what to compute; `run_local` executes it
    //    sequentially with zero setup.
    println!("\nminimal triangulations:");
    let mut response = Query::enumerate().run_local(&g);
    for (i, tri) in response
        .by_ref()
        .filter_map(QueryItem::into_triangulation)
        .enumerate()
    {
        println!("  #{i:2}: width {}, fill {:?}", tri.width(), tri.fill);
        assert!(is_chordal(&tri.graph));
        assert!(is_minimal_triangulation(&g, &tri.graph));
    }
    // The same handle reports how the run went.
    let outcome = response.outcome();
    assert!(outcome.completed);
    println!(
        "  ({} results in {:.1} ms)",
        outcome.produced,
        outcome.elapsed.as_secs_f64() * 1e3,
    );

    // 2. Proper tree decompositions are the same query type with a
    //    different task.
    let decompositions = Query::decompose(TdEnumerationMode::AllDecompositions)
        .run_local(&g)
        .decompositions();
    println!(
        "\n{} proper tree decompositions; the first:",
        decompositions.len()
    );
    let d = &decompositions[0];
    for (i, bag) in d.bags.iter().enumerate() {
        println!("  bag {i}: {:?}", bag.to_vec());
    }
    println!("  tree edges: {:?}", d.edges);
    println!("  width: {}, valid: {}", d.width(), d.validate(&g).is_ok());

    // 3. Ranked selection under a budget — "give me something better" —
    //    is a task parameter too, not a separate API.
    let best = Query::best_k(1, CostMeasure::Fill)
        .budget(EnumerationBudget::results(5))
        .run_local(&g)
        .triangulations();
    println!(
        "\nbest fill among the first 5 results: {}",
        best[0].fill_count()
    );

    // 4. Repeated traffic goes to an `Engine`: the same query, answered in
    //    the same order, against warm per-atom sessions. Once a query has
    //    run to completion, later ones — of any task — replay the
    //    recorded answers with zero `Extend` calls.
    let engine = Engine::new();
    let local: Vec<_> = Query::enumerate()
        .run_local(&g)
        .triangulations()
        .into_iter()
        .map(|t| t.fill)
        .collect();
    let cold: Vec<_> = engine
        .run(&g, Query::enumerate())
        .triangulations()
        .into_iter()
        .map(|t| t.fill)
        .collect();
    assert_eq!(cold, local, "the engine answers in run_local's order");
    let extends = engine.memo_stats().extends;
    let mut warm = engine.run(&g, Query::best_k(2, CostMeasure::Width));
    assert_eq!(warm.triangulations().len(), 2);
    assert!(warm.is_replay());
    assert_eq!(engine.memo_stats().extends, extends);
    println!(
        "\nengine: {} triangulations cold, then best-k replayed with no new Extend \
         ({} separators interned in the warm session)",
        cold.len(),
        engine.memo_stats().separators_interned
    );
}
