//! Synthetic stand-ins for the UAI probabilistic-inference benchmarks of
//! Section 6.1.3 (the original network files are not redistributable). Each
//! generator reproduces the topology
//! class and published node/edge ranges of its dataset:
//!
//! * **Promedas** — layered noisy-or Bayesian networks (diseases →
//!   findings), moralized; 26–1039 nodes and 36–1696 edges in the paper.
//! * **Object detection** — dense part-based Markov random fields; 60 nodes
//!   and 135–180 edges.
//! * **Image segmentation** — superpixel adjacency meshes; 226–235 nodes,
//!   617–647 edges.
//! * **Pedigree** — moralized inheritance networks; 385 nodes, 930 edges.
//! * **CSP** — random binary constraint networks; 67–100 nodes, 226–619
//!   edges.

use mintri_graph::{Graph, Node};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Promedas-style moralized two-layer noisy-or network: `diseases`
/// parents, `findings` children, each finding wired to a small random
/// parent set; moralization saturates every parent set.
pub fn promedas(diseases: usize, findings: usize, max_parents: usize, seed: u64) -> Graph {
    assert!(max_parents >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = diseases + findings;
    let mut g = Graph::new(n);
    for f in 0..findings {
        let child = (diseases + f) as Node;
        let k = rng.gen_range(1..=max_parents.min(diseases));
        // draw k distinct parents
        let mut parents: Vec<Node> = Vec::with_capacity(k);
        while parents.len() < k {
            let p = rng.gen_range(0..diseases) as Node;
            if !parents.contains(&p) {
                parents.push(p);
            }
        }
        for (i, &p) in parents.iter().enumerate() {
            g.add_edge(child, p);
            // moralization: co-parents become adjacent
            for &q in &parents[i + 1..] {
                g.add_edge(p, q);
            }
        }
    }
    g
}

/// An object-detection-style MRF: `n` part variables arranged on a ring,
/// each connected to its `k` nearest ring neighbors per side, plus
/// `long_range` random chords — a dense, small, cyclic network. With the
/// defaults of [`object_detection`], lands in the paper's 60-node /
/// 135–180-edge envelope.
pub fn ring_mrf(n: usize, k: usize, long_range: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for u in 0..n {
        for d in 1..=k {
            g.add_edge(u as Node, ((u + d) % n) as Node);
        }
    }
    let mut added = 0;
    while added < long_range {
        let u = rng.gen_range(0..n) as Node;
        let v = rng.gen_range(0..n) as Node;
        if u != v && g.add_edge(u, v) {
            added += 1;
        }
    }
    g
}

/// The paper-sized object-detection instance: 60 nodes, 135–180 edges.
pub fn object_detection(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let extra = rng.gen_range(15..=55); // 120 ring edges + extra ∈ [135, 175]
    ring_mrf(60, 2, extra, seed.wrapping_add(1))
}

/// An image-segmentation-style network: a triangulated superpixel mesh —
/// a `rows × cols` grid plus one random diagonal per face plus a few
/// boundary pendants. With [`segmentation`]'s defaults: 226–235 nodes,
/// 617–647 edges.
pub fn mesh(rows: usize, cols: usize, pendants: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = rows * cols;
    let mut g = Graph::new(base + pendants);
    let id = |r: usize, c: usize| (r * cols + c) as Node;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
            if r + 1 < rows && c + 1 < cols {
                // one diagonal per face, random orientation
                if rng.gen_bool(0.5) {
                    g.add_edge(id(r, c), id(r + 1, c + 1));
                } else {
                    g.add_edge(id(r, c + 1), id(r + 1, c));
                }
            }
        }
    }
    for p in 0..pendants {
        let anchor = rng.gen_range(0..base) as Node;
        g.add_edge((base + p) as Node, anchor);
    }
    g
}

/// The paper-sized segmentation instance: 15×15 mesh + up to 10 pendants.
pub fn segmentation(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let pendants = rng.gen_range(1..=10);
    mesh(15, 15, pendants, seed.wrapping_add(1))
}

/// A pedigree-style moralized Bayesian network: `founders` initial
/// individuals, then `children` individuals each with two parents drawn
/// from the preceding population; moralization links the two parents.
/// With [`pedigree`]'s defaults: 385 nodes, ~930 edges.
pub fn pedigree_network(founders: usize, children: usize, seed: u64) -> Graph {
    assert!(founders >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = founders + children;
    let mut g = Graph::new(n);
    for c in 0..children {
        let child = (founders + c) as Node;
        let pool = founders + c; // any earlier individual can be a parent
        let a = rng.gen_range(0..pool) as Node;
        let mut b = rng.gen_range(0..pool) as Node;
        while b == a {
            b = rng.gen_range(0..pool) as Node;
        }
        g.add_edge(child, a);
        g.add_edge(child, b);
        g.add_edge(a, b); // marriage (moral) edge
    }
    g
}

/// The paper-sized pedigree instance: 385 individuals.
pub fn pedigree(seed: u64) -> Graph {
    pedigree_network(35, 350, seed)
}

/// A random binary CSP constraint graph: `n` variables, `m` distinct
/// constraints (edges) drawn uniformly. The paper's instances have 67–100
/// nodes and 226–619 edges.
pub fn csp(n: usize, m: usize, seed: u64) -> Graph {
    let max = n * (n - 1) / 2;
    assert!(m <= max, "cannot place {m} edges in a {n}-node graph");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    while g.num_edges() < m {
        let u = rng.gen_range(0..n) as Node;
        let v = rng.gen_range(0..n) as Node;
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promedas_is_deterministic_and_sized() {
        let g = promedas(40, 80, 4, 11);
        assert_eq!(g, promedas(40, 80, 4, 11));
        assert_eq!(g.num_nodes(), 120);
        assert!(g.num_edges() >= 80, "every finding has at least one parent");
    }

    #[test]
    fn promedas_moralization_creates_parent_cliques() {
        // With max_parents = diseases small, co-parents must be adjacent:
        // check that for every finding, its neighbors among diseases form a clique.
        let diseases = 5;
        let g = promedas(diseases, 20, 3, 5);
        for f in diseases..g.num_nodes() {
            let disease_set = mintri_graph::NodeSet::from_iter(g.num_nodes(), 0..diseases as Node);
            let parents = g.neighbors(f as Node).intersection(&disease_set);
            assert!(g.is_clique(&parents), "parents of {f} must be saturated");
        }
    }

    #[test]
    fn object_detection_matches_paper_envelope() {
        for seed in 0..10 {
            let g = object_detection(seed);
            assert_eq!(g.num_nodes(), 60);
            assert!(
                (135..=180).contains(&g.num_edges()),
                "seed {seed}: {} edges",
                g.num_edges()
            );
        }
    }

    #[test]
    fn segmentation_matches_paper_envelope() {
        for seed in 0..10 {
            let g = segmentation(seed);
            assert!(
                (226..=235).contains(&g.num_nodes()),
                "seed {seed}: {} nodes",
                g.num_nodes()
            );
            assert!(
                (617..=647).contains(&g.num_edges()),
                "seed {seed}: {} edges",
                g.num_edges()
            );
        }
    }

    #[test]
    fn pedigree_matches_paper_envelope() {
        for seed in 0..5 {
            let g = pedigree(seed);
            assert_eq!(g.num_nodes(), 385);
            // 3 edges per child minus collisions with existing marriage edges
            assert!(
                (900..=1050).contains(&g.num_edges()),
                "seed {seed}: {} edges",
                g.num_edges()
            );
        }
    }

    #[test]
    fn csp_has_exact_edge_count() {
        let g = csp(80, 400, 3);
        assert_eq!(g.num_nodes(), 80);
        assert_eq!(g.num_edges(), 400);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn csp_rejects_impossible_density() {
        csp(5, 100, 0);
    }
}
