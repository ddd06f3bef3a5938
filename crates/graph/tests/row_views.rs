//! Property tests for the adjacency rows [`Graph::neighbors`] lends out:
//! every read on a row, and every binary operation taking one, equals
//! the same operation on an owned [`NodeSet`] with the same nodes; and
//! `clone_from` copies a graph over one of any other size. The sizes
//! straddle the word boundaries of the row layout.

use mintri_graph::{Graph, Node, NodeSet};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const SIZES: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

fn arb_size() -> impl Strategy<Value = usize> {
    (0..SIZES.len()).prop_map(|i| SIZES[i])
}

/// A graph on `n` nodes from raw endpoint pairs, plus its adjacency
/// rebuilt independently as owned sets.
fn build(n: usize, raw: &[(u32, u32)]) -> (Graph, Vec<NodeSet>) {
    let mut g = Graph::new(n);
    let mut model = vec![NodeSet::new(n); n];
    if n > 0 {
        for &(u, v) in raw {
            let (u, v) = (u % n as Node, v % n as Node);
            if u != v {
                g.add_edge(u, v);
                model[u as usize].insert(v);
                model[v as usize].insert(u);
            }
        }
    }
    (g, model)
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rows_read_like_owned_sets(
        n in arb_size(),
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..300),
        picks in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        let (g, model) = build(n, &raw);
        let other = NodeSet::from_iter(n, picks.iter().filter(|_| n > 0).map(|&v| v % n.max(1) as Node));
        prop_assert_eq!(g.num_edges(), model.iter().map(NodeSet::len).sum::<usize>() / 2);
        for v in g.nodes() {
            let row = g.neighbors(v);
            let set = &model[v as usize];
            prop_assert_eq!(row.to_set(), set.clone());
            prop_assert_eq!(row.words(), set.words());
            prop_assert_eq!(row.capacity(), n);
            prop_assert_eq!(row.len(), set.len());
            prop_assert_eq!(row.is_empty(), set.is_empty());
            prop_assert_eq!(row.first(), set.first());
            prop_assert_eq!(row.to_vec(), set.to_vec());
            prop_assert_eq!(row.into_iter().collect::<Vec<_>>(), set.to_vec());
            prop_assert_eq!(hash_of(&row), hash_of(set));
            prop_assert_eq!(format!("{row:?}"), format!("{set:?}"));
            for u in g.nodes() {
                prop_assert_eq!(row.contains(u), set.contains(u));
            }
            // the row as the receiver…
            prop_assert_eq!(row.intersection_len(&other), set.intersection_len(&other));
            prop_assert_eq!(row.is_subset(&other), set.is_subset(&other));
            prop_assert_eq!(row.is_superset(&other), set.is_superset(&other));
            prop_assert_eq!(row.is_disjoint(&other), set.is_disjoint(&other));
            prop_assert_eq!(row.intersects(&other), set.intersects(&other));
            prop_assert_eq!(row.union(&other), set.union(&other));
            prop_assert_eq!(row.intersection(&other), set.intersection(&other));
            prop_assert_eq!(row.difference(&other), set.difference(&other));
            // …and as the argument
            prop_assert_eq!(other.intersection_len(&row), other.intersection_len(set));
            prop_assert_eq!(other.is_subset(&row), other.is_subset(set));
            prop_assert_eq!(other.is_disjoint(&row), other.is_disjoint(set));
            prop_assert_eq!(other.difference(&row), other.difference(set));
            let (mut a, mut b) = (other.clone(), other.clone());
            a.union_with(&row);
            b.union_with(set);
            prop_assert_eq!(&a, &b);
            a.intersect_with(&row);
            b.intersect_with(set);
            prop_assert_eq!(&a, &b);
            a.difference_with(&row);
            b.difference_with(set);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn clone_from_copies_across_sizes(
        n in arb_size(),
        m in arb_size(),
        raw_a in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..200),
        raw_b in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..200),
    ) {
        let (src, model) = build(n, &raw_a);
        let (mut dst, _) = build(m, &raw_b);
        dst.clone_from(&src);
        prop_assert_eq!(&dst, &src);
        prop_assert_eq!(dst.num_nodes(), n);
        prop_assert_eq!(dst.num_edges(), src.num_edges());
        prop_assert_eq!(dst.edges(), src.edges());
        for v in dst.nodes() {
            prop_assert_eq!(dst.neighbors(v).to_set(), model[v as usize].clone());
        }
        // the copy is independent of its source
        if n >= 2 {
            let fresh = !src.has_edge(0, 1);
            prop_assert_eq!(dst.add_edge(0, 1), fresh);
            prop_assert_eq!(dst.num_edges(), src.num_edges() + usize::from(fresh));
            prop_assert_eq!(src.has_edge(0, 1), !fresh);
        }
        // and a plain clone is the same copy
        prop_assert_eq!(src.clone(), src);
    }
}
