//! Cross-crate integration tests: the full pipeline from an input graph to
//! validated minimal triangulations and proper tree decompositions.

use mintri::core::{
    BruteForce, EnumerationBudget, MinimalTriangulationsEnumerator, ProperTreeDecompositions,
};
use mintri::prelude::*;
use mintri::sgr::PrintMode;
use mintri::treedecomp::spanning::{MaxWeightSpanningForests, WeightedGraph};
use mintri::triangulate::{minimal_triangulation, McsM};
use mintri::workloads::random::grid;
use mintri::workloads::tpch_query;

#[test]
fn grid_pipeline_produces_validated_proper_decompositions() {
    let g = grid(3, 3);
    let mut count = 0;
    for d in ProperTreeDecompositions::new(&g).take(200) {
        assert!(d.validate(&g).is_ok(), "invalid TD: {d:?}");
        assert!(d.is_proper(&g), "improper TD: {d:?}");
        // saturating the bags yields a chordal, minimal triangulation
        let h = d.saturate(&g);
        assert!(is_chordal(&h));
        assert!(is_minimal_triangulation(&g, &h));
        count += 1;
    }
    assert!(count >= 50, "3x3 grids have many proper decompositions");
}

#[test]
fn first_result_is_the_plain_heuristic_result() {
    // Section 6.3: "the natural benchmark for quality is the first result,
    // as it is the result we would get by running the minimal triangulation
    // algorithm on the original input graph."
    for g in [grid(3, 4), Graph::cycle(9), tpch_query(9).graph] {
        let direct = minimal_triangulation(&g, &McsM);
        let first = MinimalTriangulationsEnumerator::new(&g)
            .next()
            .expect("every graph has a minimal triangulation");
        assert_eq!(first.graph, direct.graph);
    }
}

#[test]
fn all_mode_count_is_the_sum_of_clique_tree_counts() {
    let g = Graph::from_edges(
        7,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 2),
        ],
    );
    let per_class: usize = MinimalTriangulationsEnumerator::new(&g)
        .map(|tri| {
            // count the clique trees of this triangulation independently
            let cliques = maximal_cliques(&tri.graph).into_iter().collect::<Vec<_>>();
            let mut edges = Vec::new();
            for i in 0..cliques.len() {
                for j in (i + 1)..cliques.len() {
                    let w = cliques[i].intersection_len(&cliques[j]) as i64;
                    if w > 0 {
                        edges.push((i, j, w));
                    }
                }
            }
            MaxWeightSpanningForests::new(WeightedGraph {
                num_nodes: cliques.len(),
                edges,
            })
            .count()
        })
        .sum();
    let streamed = ProperTreeDecompositions::new(&g).count();
    assert_eq!(streamed, per_class);
}

#[test]
fn one_per_class_matches_triangulation_count_on_tpch() {
    for number in [5u8, 8, 10] {
        let q = tpch_query(number);
        let tris = MinimalTriangulationsEnumerator::new(&q.graph).count();
        let classes = ProperTreeDecompositions::one_per_class(&q.graph).count();
        assert_eq!(tris, classes, "Q{number}");
    }
}

#[test]
fn decomposition_width_equals_triangulation_width() {
    let g = Graph::cycle(7);
    for tri in MinimalTriangulationsEnumerator::new(&g) {
        let forest = CliqueForest::build(&tri.graph);
        assert_eq!(forest.width(), tri.width());
        assert_eq!(forest.width(), treewidth_of_chordal(&tri.graph));
    }
}

#[test]
fn facade_prelude_covers_the_workflow() {
    // everything a downstream user needs is reachable from the prelude
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let seps: Vec<NodeSet> = MinimalSeparatorIter::new(&g).collect();
    assert_eq!(seps.len(), 5);
    assert!(crossing(&g, &seps[0], &seps[1]) || !crossing(&g, &seps[0], &seps[1]));
    let tri = McsM.triangulate(&g);
    assert!(is_chordal(&tri.graph));
    let count = MinimalTriangulationsEnumerator::new(&g).count();
    assert_eq!(count, 5);
}

#[test]
fn budgeted_run_agrees_with_unbudgeted_prefix() {
    let g = Graph::cycle(8);
    let budgeted = Query::stats()
        .budget(EnumerationBudget::results(10))
        .run_local(&g)
        .wait();
    assert_eq!(budgeted.records.len(), 10);
    let full: Vec<_> = MinimalTriangulationsEnumerator::new(&g).collect();
    assert_eq!(full.len(), 132); // Catalan(6)
    for (r, t) in budgeted.records.iter().zip(&full) {
        assert_eq!(r.width, t.width());
        assert_eq!(r.fill, t.fill_count());
    }
}

#[test]
fn print_modes_cover_the_same_answers_through_the_facade() {
    let g = tpch_query(10).graph;
    let run = |mode| {
        let mut v: Vec<_> = MinimalTriangulationsEnumerator::with_config(&g, Box::new(McsM), mode)
            .map(|t| t.graph.edges())
            .collect();
        v.sort();
        v
    };
    assert_eq!(run(PrintMode::UponGeneration), run(PrintMode::UponPop));
}

#[test]
fn enumerator_matches_brute_force_through_the_facade() {
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
    let fast = MinimalTriangulationsEnumerator::new(&g).count();
    assert_eq!(fast, BruteForce::count_minimal_triangulations(&g));
}

#[test]
fn stats_reflect_the_work_done() {
    let g = Graph::cycle(6);
    let mut e = MinimalTriangulationsEnumerator::new(&g);
    let n = e.by_ref().count();
    assert_eq!(n, 14);
    let es = e.enum_stats();
    assert_eq!(es.answers, 14);
    assert_eq!(es.nodes_generated, 9, "C6 has 9 minimal separators");
    let ms = e.msgraph_stats();
    assert_eq!(ms.separators_interned, 9);
    assert!(ms.extends >= 14);
    assert!(ms.crossing_computed <= ms.separators_interned);
}
