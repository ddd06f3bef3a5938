//! The 22 TPC-H benchmark queries as join hypergraphs, and their primal
//! (Gaifman) graphs — the "database queries" dataset of Section 6.1.3.
//!
//! The paper used the LogiQL encodings provided privately by LogicBlox;
//! these hand encodings are derived from the public TPC-H query
//! definitions instead. The published
//! shape properties hold: every query graph has at most 23 nodes and at
//! most 46 edges, the largest relation has arity 8, roughly half of the
//! graphs are chordal (a single minimal triangulation), most of the rest
//! have at most a handful of minimal triangulations, and Q7/Q9 are the two
//! outliers with hundreds (the workload tests pin the exact counts).
//!
//! Encoding conventions: one variable per attribute that participates in a
//! join, selection, aggregation or output; one atom per relation occurrence
//! (correlated subqueries repeat relations with fresh variables); derived
//! per-tuple expressions (`volume`, `profit`, disjunctive filters over
//! several variables) become additional atoms over the variables they read,
//! exactly as a Datalog/LogiQL rule body would.

use crate::hypergraph::Hypergraph;
use mintri_graph::Graph;

/// A TPC-H query: its number, the join hypergraph, and the primal graph.
#[derive(Debug, Clone)]
pub struct TpchQuery {
    /// Query number, 1–22.
    pub number: u8,
    /// The join hypergraph.
    pub hypergraph: Hypergraph,
    /// The primal (Gaifman) graph of the hypergraph.
    pub graph: Graph,
}

fn query(number: u8, atoms: &[(&str, &[&str])]) -> TpchQuery {
    let hypergraph = Hypergraph::new(atoms);
    let (graph, _) = hypergraph.primal_graph();
    TpchQuery {
        number,
        hypergraph,
        graph,
    }
}

/// All 22 TPC-H query graphs, in query order.
pub fn all_queries() -> Vec<TpchQuery> {
    vec![
        // Q1: pricing summary report — single scan of lineitem.
        query(
            1,
            &[(
                "lineitem",
                &[
                    "l_rf", "l_ls", "l_qty", "l_ep", "l_disc", "l_tax", "l_sd", "l_ok",
                ],
            )],
        ),
        // Q2: minimum cost supplier; correlated min-cost subquery over the
        // same part.
        query(
            2,
            &[
                ("part", &["p_pk", "p_mfgr", "p_size", "p_type"]),
                ("partsupp", &["p_pk", "s_sk", "ps_cost"]),
                ("supplier", &["s_sk", "s_name", "s_acct", "s_nk"]),
                ("nation", &["s_nk", "n_name", "n_rk"]),
                ("region", &["n_rk", "r_name"]),
                ("partsupp2", &["p_pk", "s_sk2", "ps_cost2"]),
                ("supplier2", &["s_sk2", "s_nk2"]),
                ("nation2", &["s_nk2", "n_rk2"]),
                ("region2", &["n_rk2", "r_name2"]),
                ("minagg", &["ps_cost2", "min_c"]),
                ("mincost", &["ps_cost", "min_c"]),
            ],
        ),
        // Q3: shipping priority — per-tuple revenue plus the group-by head
        // over (orderdate, shippriority).
        query(
            3,
            &[
                ("customer", &["c_ck", "c_mkt"]),
                ("orders", &["o_ok", "c_ck", "o_od", "o_sp"]),
                ("lineitem", &["o_ok", "l_ep", "l_disc", "l_sd"]),
                ("volume", &["l_ep", "l_disc", "l_rev"]),
                ("head", &["o_od", "o_sp", "l_rev"]),
            ],
        ),
        // Q4: order priority checking (EXISTS lineitem).
        query(
            4,
            &[
                ("orders", &["o_ok", "o_od", "o_op"]),
                ("lineitem", &["o_ok", "l_cd", "l_rd"]),
            ],
        ),
        // Q5: local supplier volume — customer and supplier share a nation.
        query(
            5,
            &[
                ("customer", &["c_ck", "n_nk"]),
                ("orders", &["o_ok", "c_ck", "o_od"]),
                ("lineitem", &["o_ok", "s_sk", "l_ep", "l_disc"]),
                ("supplier", &["s_sk", "n_nk"]),
                ("nation", &["n_nk", "n_rk"]),
                ("region", &["n_rk", "r_name"]),
            ],
        ),
        // Q6: forecasting revenue change — single scan.
        query(6, &[("lineitem", &["l_sd", "l_disc", "l_qty", "l_ep"])]),
        // Q7: volume shipping — two nations with a disjunctive cross
        // condition, plus the per-tuple shipping volume/year aggregation.
        query(
            7,
            &[
                ("supplier", &["s_sk", "n1_nk"]),
                ("lineitem", &["l_ok", "s_sk", "l_ep", "l_disc", "l_sd"]),
                ("orders", &["l_ok", "c_ck"]),
                ("customer", &["c_ck", "n2_nk"]),
                ("nation1", &["n1_nk", "n1_name"]),
                ("nation2", &["n2_nk", "n2_name"]),
                ("natpair", &["n1_name", "n2_name"]),
                ("year", &["l_sd", "l_year"]),
                ("volume", &["l_ep", "l_disc", "l_vol"]),
                ("shipping", &["n1_name", "n2_name", "l_year", "l_vol"]),
            ],
        ),
        // Q8: national market share — two nation chains meeting at region /
        // all-nations aggregation.
        query(
            8,
            &[
                ("part", &["p_pk", "p_type"]),
                ("lineitem", &["l_ok", "p_pk", "s_sk", "l_ep", "l_disc"]),
                ("supplier", &["s_sk", "n2_nk"]),
                ("orders", &["l_ok", "c_ck", "o_od"]),
                ("customer", &["c_ck", "n1_nk"]),
                ("nation1", &["n1_nk", "n1_rk"]),
                ("region", &["n1_rk", "r_name"]),
                ("nation2", &["n2_nk", "n2_name"]),
                ("year", &["o_od", "o_year"]),
                ("volume", &["l_ep", "l_disc", "l_vol"]),
                ("head", &["o_year", "l_vol"]),
            ],
        ),
        // Q9: product type profit — lineitem joins part, supplier and
        // partsupp (two paths to the same keys) plus the profit expression.
        query(
            9,
            &[
                ("part", &["p_pk", "p_name"]),
                ("supplier", &["s_sk", "n_nk"]),
                (
                    "lineitem",
                    &["l_ok", "p_pk", "s_sk", "l_qty", "l_ep", "l_disc"],
                ),
                ("partsupp", &["p_pk", "s_sk", "ps_cost"]),
                ("orders", &["l_ok", "o_od"]),
                ("nation", &["n_nk", "n_name"]),
                ("year", &["o_od", "o_year"]),
                (
                    "profit",
                    &["l_ep", "l_disc", "ps_cost", "l_qty", "p_amount"],
                ),
                ("output", &["n_name", "o_year", "p_amount"]),
            ],
        ),
        // Q10: returned item reporting — revenue per customer attributes.
        query(
            10,
            &[
                ("customer", &["c_ck", "c_acct", "n_nk"]),
                ("orders", &["o_ok", "c_ck", "o_od"]),
                ("lineitem", &["o_ok", "l_ep", "l_disc", "l_rf"]),
                ("nation", &["n_nk", "n_name"]),
                ("volume", &["l_ep", "l_disc", "l_rev"]),
                ("head", &["c_acct", "l_rev"]),
            ],
        ),
        // Q11: important stock identification (decorrelated HAVING).
        query(
            11,
            &[
                ("partsupp", &["ps_pk", "s_sk", "ps_cost", "ps_aq"]),
                ("supplier", &["s_sk", "n_nk"]),
                ("nation", &["n_nk", "n_name"]),
                ("value", &["ps_cost", "ps_aq", "v_val"]),
            ],
        ),
        // Q12: shipping modes and order priority.
        query(
            12,
            &[
                ("orders", &["o_ok", "o_op"]),
                ("lineitem", &["o_ok", "l_sm", "l_cd", "l_rd", "l_sd"]),
            ],
        ),
        // Q13: customer distribution (left outer join).
        query(
            13,
            &[
                ("customer", &["c_ck"]),
                ("orders", &["o_ok", "c_ck", "o_cmt"]),
            ],
        ),
        // Q14: promotion effect — the CASE on part type reads the revenue.
        query(
            14,
            &[
                ("lineitem", &["l_ok", "p_pk", "l_ep", "l_disc", "l_sd"]),
                ("part", &["p_pk", "p_type"]),
                ("volume", &["l_ep", "l_disc", "l_rev"]),
                ("promo", &["p_type", "l_rev"]),
            ],
        ),
        // Q15: top supplier (revenue view + max join).
        query(
            15,
            &[
                ("supplier", &["s_sk", "s_name"]),
                ("revenue", &["s_sk", "r_total"]),
                ("maxrev", &["r_total"]),
            ],
        ),
        // Q16: parts/supplier relationship (NOT IN supplier).
        query(
            16,
            &[
                ("partsupp", &["p_pk", "s_sk"]),
                ("part", &["p_pk", "p_brand", "p_type", "p_size"]),
                ("badsupp", &["s_sk"]),
            ],
        ),
        // Q17: small-quantity-order revenue (correlated AVG over the same
        // part).
        query(
            17,
            &[
                ("lineitem", &["l_ok", "p_pk", "l_qty", "l_ep"]),
                ("part", &["p_pk", "p_brand", "p_cont"]),
                ("lineitem2", &["p_pk", "l_qty2"]),
                ("threshold", &["l_qty", "l_qty2"]),
            ],
        ),
        // Q18: large volume customer (HAVING sum(qty), output per customer
        // name).
        query(
            18,
            &[
                ("customer", &["c_ck", "c_name"]),
                ("orders", &["o_ok", "c_ck", "o_od", "o_tp"]),
                ("lineitem", &["o_ok", "l_qty"]),
                ("bigsum", &["o_ok", "l_sum"]),
                ("head", &["c_name", "l_sum"]),
            ],
        ),
        // Q19: discounted revenue — disjunction over part and lineitem
        // attributes together.
        query(
            19,
            &[
                (
                    "lineitem",
                    &["l_ok", "p_pk", "l_qty", "l_ep", "l_disc", "l_sm"],
                ),
                ("part", &["p_pk", "p_brand", "p_cont", "p_size"]),
                (
                    "disjunct",
                    &["p_brand", "p_cont", "p_size", "l_qty", "l_sm"],
                ),
            ],
        ),
        // Q20: potential part promotion (nested IN over partsupp/lineitem).
        query(
            20,
            &[
                ("supplier", &["s_sk", "s_name", "n_nk"]),
                ("nation", &["n_nk", "n_name"]),
                ("partsupp", &["p_pk", "s_sk", "ps_aq"]),
                ("part", &["p_pk", "p_name"]),
                ("lineitem", &["p_pk", "s_sk", "l_qty", "l_sd"]),
                ("halfsum", &["ps_aq", "l_qty"]),
            ],
        ),
        // Q21: suppliers who kept orders waiting (EXISTS / NOT EXISTS on the
        // same order with different suppliers).
        query(
            21,
            &[
                ("supplier", &["s_sk", "s_name", "n_nk"]),
                ("lineitem1", &["l_ok", "s_sk", "l_rd1", "l_cd1"]),
                ("orders", &["l_ok", "o_st"]),
                ("nation", &["n_nk", "n_name"]),
                ("lineitem2", &["l_ok", "s_sk2"]),
                ("lineitem3", &["l_ok", "s_sk3", "l_rd3", "l_cd3"]),
            ],
        ),
        // Q22: global sales opportunity.
        query(
            22,
            &[
                ("customer", &["c_ck", "c_phone", "c_acct"]),
                ("orders", &["o_ok", "c_ck"]),
                ("avgbal", &["a_avg"]),
                ("cmp", &["c_acct", "a_avg"]),
            ],
        ),
    ]
}

/// A single query by number (1–22).
pub fn tpch_query(number: u8) -> TpchQuery {
    assert!((1..=22).contains(&number), "TPC-H queries are 1–22");
    all_queries().swap_remove(number as usize - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mintri_chordal::is_chordal;

    #[test]
    fn there_are_22_queries_in_order() {
        let qs = all_queries();
        assert_eq!(qs.len(), 22);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.number as usize, i + 1);
        }
    }

    #[test]
    fn shape_bounds_match_the_paper() {
        for q in all_queries() {
            assert!(
                q.graph.num_nodes() <= 23,
                "Q{}: {} nodes",
                q.number,
                q.graph.num_nodes()
            );
            assert!(
                q.graph.num_edges() <= 46,
                "Q{}: {} edges",
                q.number,
                q.graph.num_edges()
            );
            assert!(q.hypergraph.max_arity() <= 8, "Q{}", q.number);
        }
    }

    #[test]
    fn roughly_half_the_queries_are_chordal() {
        let chordal = all_queries()
            .iter()
            .filter(|q| is_chordal(&q.graph))
            .count();
        assert!(
            (10..=14).contains(&chordal),
            "{chordal} of 22 queries are chordal"
        );
    }

    #[test]
    fn q7_and_q9_are_the_two_outliers() {
        // Section 6.2.3's shape: all non-chordal queries except Q7 and Q9
        // have at most a handful of minimal triangulations; Q7 and Q9 have
        // hundreds.
        for q in all_queries() {
            let count = mintri_core::MinimalTriangulationsEnumerator::new(&q.graph)
                .take(2000)
                .count();
            match q.number {
                7 | 9 => assert!(count >= 100, "Q{} has only {count}", q.number),
                _ => assert!(count <= 5, "Q{} has {count}", q.number),
            }
        }
    }

    #[test]
    fn chordal_queries_have_one_triangulation() {
        for q in all_queries() {
            if is_chordal(&q.graph) {
                assert_eq!(
                    mintri_core::MinimalTriangulationsEnumerator::new(&q.graph).count(),
                    1,
                    "Q{}",
                    q.number
                );
            }
        }
    }

    #[test]
    fn single_query_accessor() {
        let q7 = tpch_query(7);
        assert_eq!(q7.number, 7);
        assert!(!is_chordal(&q7.graph));
    }

    #[test]
    #[should_panic(expected = "1–22")]
    fn query_numbers_are_validated() {
        tpch_query(0);
    }
}
