//! Property tests for the snapshot codec: every snapshot the store can
//! be asked to persist must survive encode → frame → unframe → decode
//! byte-exactly (round-trip identity), and framed bytes with arbitrary
//! mutations must fail to decode cleanly rather than panic or produce a
//! different snapshot that still validates.

use proptest::prelude::*;

use mintri_store::{AnswerSnapshot, GraphSnapshot, MemoSummary, PlanSnapshot, StoredOrder};

fn arb_order() -> impl Strategy<Value = StoredOrder> {
    prop_oneof![
        Just(StoredOrder::UponGeneration),
        Just(StoredOrder::UponPop)
    ]
}

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..64, 0u32..64), 0..40)
}

fn arb_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..64, 0..12), 0..10)
}

fn arb_answers() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    proptest::collection::vec(arb_sets(), 0..6)
}

fn arb_backend() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('m'), Just('c'), Just('s'), Just('-'), Just('x')],
        1..10,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_answer_snapshot() -> impl Strategy<Value = AnswerSnapshot> {
    (
        (any::<u64>(), arb_backend(), arb_order(), 0u32..256),
        arb_edges(),
        arb_answers(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((fingerprint, backend, order, nodes), edges, answers, (a, b, c))| AnswerSnapshot {
                fingerprint,
                backend,
                order,
                nodes,
                edges,
                answers,
                summary: MemoSummary {
                    extends: a,
                    crossing_computed: b,
                    separators_interned: c,
                },
            },
        )
}

fn arb_plan_snapshot() -> impl Strategy<Value = PlanSnapshot> {
    (
        (any::<u64>(), 0u32..256, arb_edges()),
        arb_sets(),
        arb_sets(),
        arb_sets(),
    )
        .prop_map(
            |((fingerprint, nodes, edges), components, atoms, separators)| PlanSnapshot {
                fingerprint,
                nodes,
                edges,
                components,
                atoms,
                separators,
            },
        )
}

proptest! {
    #[test]
    fn answer_snapshots_round_trip(snap in arb_answer_snapshot()) {
        let bytes = snap.encode();
        let decoded = AnswerSnapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, snap);
    }

    #[test]
    fn plan_snapshots_round_trip(snap in arb_plan_snapshot()) {
        let bytes = snap.encode();
        let decoded = PlanSnapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, snap);
    }

    #[test]
    fn graph_snapshots_round_trip(
        id in arb_backend(),
        nodes in 0u32..512,
        edges in arb_edges(),
    ) {
        let snap = GraphSnapshot { id, nodes, edges };
        let bytes = snap.encode();
        let decoded = GraphSnapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, snap);
    }

    /// Any single-byte mutation anywhere in the file either fails to
    /// decode (the common case: the checksum catches it) or — never —
    /// silently yields a *different* snapshot. A mutation the checksum
    /// cannot catch does not exist for single-byte flips because the
    /// checksum covers the whole payload and the header fields are each
    /// validated.
    #[test]
    fn mutated_answer_bytes_never_decode_to_a_different_snapshot(
        snap in arb_answer_snapshot(),
        pos_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let bytes = snap.encode();
        let pos = (pos_seed as usize) % bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= flip;
        match AnswerSnapshot::decode(&corrupt) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, snap),
        }
    }

    /// Any truncation fails cleanly.
    #[test]
    fn truncated_answer_bytes_fail_cleanly(
        snap in arb_answer_snapshot(),
        cut_seed in any::<u32>(),
    ) {
        let bytes = snap.encode();
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(AnswerSnapshot::decode(&bytes[..cut]).is_err());
    }
}
