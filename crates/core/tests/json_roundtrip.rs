//! Property tests for the wire codec: `Query → json → parse → Query` is
//! the identity on every serialized field, arbitrary strings survive
//! escape → parse, and arbitrary (bounded-depth) documents survive
//! render → parse. This is the contract that makes the CLI's JSON and
//! the HTTP transport's JSON the *same* dialect rather than two
//! write-only formats.

use mintri_core::json::{
    enum_stats_from_json, enum_stats_json, graph_from_json, graph_to_json, query_from_json,
    query_to_json, JsonValue,
};
use mintri_core::query::{CostMeasure, Delivery, ExecPolicy, Query, Task};
use mintri_core::{EnumerationBudget, TdEnumerationMode};
use mintri_graph::Graph;
use mintri_sgr::{EnumMisStats, PrintMode};
use proptest::prelude::*;
use std::time::Duration;

fn task_strategy() -> impl Strategy<Value = Task> {
    prop_oneof![
        Just(Task::Enumerate),
        Just(Task::Stats),
        (
            0usize..64,
            prop_oneof![Just(CostMeasure::Width), Just(CostMeasure::Fill)]
        )
            .prop_map(|(k, cost)| Task::BestK { k, cost }),
        prop_oneof![
            Just(TdEnumerationMode::AllDecompositions),
            Just(TdEnumerationMode::OnePerClass)
        ]
        .prop_map(|mode| Task::Decompose { mode }),
    ]
}

fn budget_strategy() -> impl Strategy<Value = EnumerationBudget> {
    let max_results = prop_oneof![Just(None), (0usize..1_000_000).prop_map(Some)];
    let time_limit = prop_oneof![
        Just(None),
        (0u64..1_000_000_000).prop_map(|ms| Some(Duration::from_millis(ms)))
    ];
    (max_results, time_limit).prop_map(|(max_results, time_limit)| EnumerationBudget {
        max_results,
        time_limit,
    })
}

fn policy_strategy() -> impl Strategy<Value = ExecPolicy> {
    let delivery = prop_oneof![Just(Delivery::Unordered), Just(Delivery::Deterministic)];
    (delivery, 0usize..16, any::<bool>(), any::<bool>()).prop_map(
        |(delivery, threads, planned, ranked)| ExecPolicy {
            threads,
            planned,
            ranked,
            delivery,
        },
    )
}

fn query_strategy() -> impl Strategy<Value = Query> {
    let backend = (0usize..4).prop_map(|i| ["mcsm", "lbtriang", "lexm", "mindegree"][i]);
    let mode = prop_oneof![Just(PrintMode::UponGeneration), Just(PrintMode::UponPop)];
    (
        (task_strategy(), backend, mode),
        (budget_strategy(), policy_strategy(), any::<bool>()),
    )
        .prop_map(|((task, backend, mode), (budget, policy, trace))| {
            Query::new(task)
                .triangulator(mintri_core::json::triangulator_from_name(backend).unwrap())
                .mode(mode)
                .budget(budget)
                .policy(policy)
                .traced(trace)
        })
}

/// Field-by-field equality on everything the wire carries (`Query` holds
/// a trait object and a cancel token, so it cannot be `PartialEq`).
fn assert_queries_agree(a: &Query, b: &Query) {
    assert_eq!(a.task, b.task);
    assert_eq!(a.triangulator.name(), b.triangulator.name());
    assert_eq!(a.mode, b.mode);
    assert_eq!(a.budget.max_results, b.budget.max_results);
    assert_eq!(a.budget.time_limit, b.budget.time_limit);
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.trace, b.trace);
}

fn string_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x110000, 0..24).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(char::from_u32) // skips the surrogate gap
            .collect()
    })
}

fn value_strategy(depth: usize) -> proptest::BoxedStrategy<JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        // Integers in the exact-f64 range, the numbers the stack emits.
        (0u64..9_007_199_254_740_992u64).prop_map(|n| JsonValue::Num(n as f64)),
        (0i64..1_000_000).prop_map(|n| JsonValue::Num(n as f64 / 64.0)),
        string_strategy().prop_map(JsonValue::Str),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let child = value_strategy(depth - 1);
    let array = proptest::collection::vec(child.clone(), 0..5).prop_map(JsonValue::Arr);
    let object = proptest::collection::vec((string_strategy(), child), 0..5).prop_map(|fields| {
        // Duplicate keys would make `get`-based comparison ambiguous;
        // keep first occurrences only, like a sane producer would.
        let mut seen = std::collections::HashSet::new();
        JsonValue::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| seen.insert(k.clone()))
                .collect(),
        )
    });
    prop_oneof![3 => leaf, 1 => array, 1 => object].boxed()
}

fn graph_strategy() -> impl Strategy<Value = Graph> {
    (
        2usize..24,
        proptest::collection::vec((0usize..24, 0usize..24), 0..40),
    )
        .prop_map(|(n, pairs)| {
            let mut g = Graph::new(n);
            for (u, v) in pairs {
                let (u, v) = (u % n, v % n);
                if u != v {
                    g.add_edge(u as u32, v as u32);
                }
            }
            g
        })
}

proptest! {
    #[test]
    fn query_json_roundtrip_is_identity(query in query_strategy()) {
        let doc = query_to_json(&query);
        let parsed = JsonValue::parse(&doc).expect("encoded queries parse");
        let back = query_from_json(&parsed).expect("encoded queries decode");
        assert_queries_agree(&query, &back);
        // And a second hop is stable (encode ∘ decode is idempotent).
        prop_assert_eq!(query_to_json(&back), doc);
    }

    #[test]
    fn json_value_roundtrip_is_identity(value in value_strategy(3)) {
        let doc = value.to_string();
        let back = JsonValue::parse(&doc)
            .unwrap_or_else(|e| panic!("rendered document must parse: {e}\n{doc}"));
        prop_assert_eq!(back, value);
    }

    #[test]
    fn graph_json_roundtrip_is_identity(g in graph_strategy()) {
        let doc = graph_to_json(&g);
        let parsed = JsonValue::parse(&doc).expect("encoded graphs parse");
        let back = graph_from_json(&parsed, 64).expect("encoded graphs decode");
        prop_assert_eq!(back.num_nodes(), g.num_nodes());
        prop_assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn enum_stats_json_roundtrip_is_identity(
        counts in proptest::collection::vec(0usize..1 << 40, 5)
    ) {
        let stats = EnumMisStats {
            extend_calls: counts[0],
            extend_repeats: counts[1],
            edge_queries: counts[2],
            nodes_generated: counts[3],
            answers: counts[4],
        };
        let doc = enum_stats_json(&stats);
        let parsed = JsonValue::parse(&doc).expect("encoded stats parse");
        prop_assert_eq!(enum_stats_from_json(&parsed), Ok(stats));
    }
}

#[test]
fn enum_stats_decode_rejects_gaps_and_accepts_older_documents() {
    let older = r#"{"extend_calls":7,"edge_queries":9,"nodes_generated":3,"answers":2}"#;
    let stats = enum_stats_from_json(&JsonValue::parse(older).unwrap()).unwrap();
    assert_eq!((stats.extend_calls, stats.extend_repeats), (7, 0));
    for bad in [
        r#"{"extend_calls":7,"edge_queries":9,"nodes_generated":3}"#,
        r#"{"extend_calls":-1,"extend_repeats":0,"edge_queries":9,"nodes_generated":3,"answers":2}"#,
        r#"{"extend_calls":7,"extend_repeats":"x","edge_queries":9,"nodes_generated":3,"answers":2}"#,
    ] {
        assert!(
            enum_stats_from_json(&JsonValue::parse(bad).unwrap()).is_err(),
            "{bad}"
        );
    }
}

/// Documents written before the policy became one struct carry a
/// `policy.mode` of `"auto"` or `"fixed"`. Both modes started from the
/// same knobs, so the key is ignored and either decodes to the policy
/// its knobs spell.
#[test]
fn old_policy_modes_decode_to_the_same_policy() {
    for mode in ["auto", "fixed"] {
        let doc = format!(
            r#"{{"task":{{"type":"enumerate"}},"policy":{{"mode":"{mode}","delivery":"deterministic"}}}}"#
        );
        let q = query_from_json(&JsonValue::parse(&doc).unwrap()).unwrap();
        assert_eq!(
            q.policy,
            ExecPolicy::default().with_delivery(Delivery::Deterministic),
            "mode {mode}"
        );
    }
}
