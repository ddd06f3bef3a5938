//! The typed snapshot entries and the versioned file framing.
//!
//! Every store file is `header ‖ payload`:
//!
//! ```text
//! offset 0   magic   b"MTST"
//!        4   version u16 LE   (this build reads exactly VERSION)
//!        6   kind    u8       (1 answers, 2 plan, 3 graph; 4 retired)
//!        7   reserved u8      (zero)
//!        8   payload length   u64 LE
//!       16   payload FNV-1a64 u64 LE
//!       24   payload…
//! ```
//!
//! The payload encodes one snapshot with the varint codec. Snapshots
//! carry the *graph shape* (nodes + canonical edge list) alongside the
//! fingerprint: a 64-bit fingerprint is an address, not a proof, so
//! loaders verify true graph equality before trusting an entry —
//! a collision costs a comparison, never a wrong answer.
//!
//! Separators are stored as sorted vertex lists, NOT as `SepId`s:
//! separator ids are private to one process's interner and mean nothing
//! across restarts. Hydration re-interns each vertex set into the new
//! session's interner.

use crate::codec::{fnv1a64, CodecError, Dec, Enc};

/// File magic.
pub const MAGIC: [u8; 4] = *b"MTST";
/// Format version this build writes and reads.
pub const VERSION: u16 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 24;

/// What a store file holds. Value 4 named a retired entry kind (learned
/// cost profiles); it is never reused, so a kind-4 file fails to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A completed-answer replay cache for one (atom, backend, order).
    Answers = 1,
    /// A memoized atom decomposition.
    Plan = 2,
    /// One serve-registry graph.
    Graph = 3,
}

impl EntryKind {
    fn from_u8(v: u8) -> Result<EntryKind, CodecError> {
        match v {
            1 => Ok(EntryKind::Answers),
            2 => Ok(EntryKind::Plan),
            3 => Ok(EntryKind::Graph),
            other => Err(CodecError::BadKind(other)),
        }
    }
}

/// The print mode a persisted answer list was recorded under. Both are
/// the sequential schedule's emission order, which is the same full
/// sequence under either print mode; the engine writes lists as
/// `UponGeneration` and reads both values. Value 0 named a retired order
/// (one unordered parallel run's race outcome); it is never reused, so
/// such a file fails to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredOrder {
    /// Sequential schedule, results printed upon generation.
    UponGeneration,
    /// Sequential schedule, results printed upon queue pop.
    UponPop,
}

impl StoredOrder {
    /// Filename tag (part of the entry's identity on disk).
    pub fn tag(self) -> &'static str {
        match self {
            StoredOrder::UponGeneration => "g",
            StoredOrder::UponPop => "p",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            StoredOrder::UponGeneration => 1,
            StoredOrder::UponPop => 2,
        }
    }

    fn from_u8(v: u8) -> Result<StoredOrder, CodecError> {
        match v {
            1 => Ok(StoredOrder::UponGeneration),
            2 => Ok(StoredOrder::UponPop),
            _ => Err(CodecError::BadValue),
        }
    }
}

/// Memo counters at snapshot time — a record of what the enumeration
/// cost, carried for observability (a hydrated session starts its own
/// counters at zero; that zero is the proof hydration did no work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoSummary {
    /// `Extend` invocations the recording session had made.
    pub extends: u64,
    /// Crossing tests computed (memo misses).
    pub crossing_computed: u64,
    /// Distinct separators interned.
    pub separators_interned: u64,
}

/// A persisted completed-answer replay cache: every minimal
/// triangulation of one atom graph, as lists of separator vertex sets,
/// in the recorded order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSnapshot {
    /// The atom graph's fingerprint (the disk address).
    pub fingerprint: u64,
    /// Triangulation backend that recorded the list.
    pub backend: String,
    /// Order contract of `answers`.
    pub order: StoredOrder,
    /// Node count of the atom graph.
    pub nodes: u32,
    /// Canonical edge list of the atom graph (equality proof).
    pub edges: Vec<(u32, u32)>,
    /// Each answer is a list of separators; each separator a sorted
    /// vertex list.
    pub answers: Vec<Vec<Vec<u32>>>,
    /// What the recording enumeration cost.
    pub summary: MemoSummary,
}

/// A persisted atom decomposition (the memoized plan for one graph).
/// Stores the decomposition's vertex sets only — the planner re-derives
/// the induced subgraphs and chordality flags on load, which is cheap
/// (no MCS-M triangulations, the expensive part of planning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSnapshot {
    /// The planned graph's fingerprint.
    pub fingerprint: u64,
    /// Node count of the planned graph.
    pub nodes: u32,
    /// Canonical edge list of the planned graph (equality proof).
    pub edges: Vec<(u32, u32)>,
    /// Connected components, as sorted vertex lists.
    pub components: Vec<Vec<u32>>,
    /// Atoms, in decomposition order.
    pub atoms: Vec<Vec<u32>>,
    /// Clique minimal separators the decomposition split on.
    pub separators: Vec<Vec<u32>>,
}

/// One serve-registry graph, persisted under its wire id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSnapshot {
    /// The registry id clients address the graph by.
    pub id: String,
    /// Node count.
    pub nodes: u32,
    /// Canonical edge list.
    pub edges: Vec<(u32, u32)>,
}

fn enc_edges(e: &mut Enc, edges: &[(u32, u32)]) {
    e.usize(edges.len());
    for &(u, v) in edges {
        e.u32(u);
        e.u32(v);
    }
}

fn dec_edges(d: &mut Dec<'_>) -> Result<Vec<(u32, u32)>, CodecError> {
    let n = d.len_prefix()?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push((d.u32()?, d.u32()?));
    }
    Ok(edges)
}

fn enc_sets(e: &mut Enc, sets: &[Vec<u32>]) {
    e.usize(sets.len());
    for set in sets {
        e.usize(set.len());
        for &v in set {
            e.u32(v);
        }
    }
}

fn dec_sets(d: &mut Dec<'_>) -> Result<Vec<Vec<u32>>, CodecError> {
    let n = d.len_prefix()?;
    let mut sets = Vec::with_capacity(n);
    for _ in 0..n {
        let k = d.len_prefix()?;
        let mut set = Vec::with_capacity(k);
        for _ in 0..k {
            set.push(d.u32()?);
        }
        sets.push(set);
    }
    Ok(sets)
}

impl AnswerSnapshot {
    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint);
        e.str(&self.backend);
        e.u8(self.order.to_u8());
        e.u32(self.nodes);
        enc_edges(&mut e, &self.edges);
        e.usize(self.answers.len());
        for answer in &self.answers {
            enc_sets(&mut e, answer);
        }
        e.u64(self.summary.extends);
        e.u64(self.summary.crossing_computed);
        e.u64(self.summary.separators_interned);
        e.finish()
    }

    fn decode_payload(d: &mut Dec<'_>) -> Result<AnswerSnapshot, CodecError> {
        let fingerprint = d.u64()?;
        let backend = d.str()?;
        let order = StoredOrder::from_u8(d.u8()?)?;
        let nodes = d.u32()?;
        let edges = dec_edges(d)?;
        let n = d.len_prefix()?;
        let mut answers = Vec::with_capacity(n);
        for _ in 0..n {
            answers.push(dec_sets(d)?);
        }
        let summary = MemoSummary {
            extends: d.u64()?,
            crossing_computed: d.u64()?,
            separators_interned: d.u64()?,
        };
        Ok(AnswerSnapshot {
            fingerprint,
            backend,
            order,
            nodes,
            edges,
            answers,
            summary,
        })
    }

    /// The full file bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        frame(EntryKind::Answers, self.encode_payload())
    }

    /// Parses full file bytes, verifying magic, version, kind, length
    /// and checksum.
    pub fn decode(bytes: &[u8]) -> Result<AnswerSnapshot, CodecError> {
        let payload = unframe(bytes, EntryKind::Answers)?;
        let mut d = Dec::new(payload);
        let snap = Self::decode_payload(&mut d)?;
        expect_drained(&d)?;
        Ok(snap)
    }
}

impl PlanSnapshot {
    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint);
        e.u32(self.nodes);
        enc_edges(&mut e, &self.edges);
        enc_sets(&mut e, &self.components);
        enc_sets(&mut e, &self.atoms);
        enc_sets(&mut e, &self.separators);
        e.finish()
    }

    /// The full file bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        frame(EntryKind::Plan, self.encode_payload())
    }

    /// Parses full file bytes, verifying the header end to end.
    pub fn decode(bytes: &[u8]) -> Result<PlanSnapshot, CodecError> {
        let payload = unframe(bytes, EntryKind::Plan)?;
        let mut d = Dec::new(payload);
        let snap = PlanSnapshot {
            fingerprint: d.u64()?,
            nodes: d.u32()?,
            edges: dec_edges(&mut d)?,
            components: dec_sets(&mut d)?,
            atoms: dec_sets(&mut d)?,
            separators: dec_sets(&mut d)?,
        };
        expect_drained(&d)?;
        Ok(snap)
    }
}

impl GraphSnapshot {
    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.id);
        e.u32(self.nodes);
        enc_edges(&mut e, &self.edges);
        e.finish()
    }

    /// The full file bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        frame(EntryKind::Graph, self.encode_payload())
    }

    /// Parses full file bytes, verifying the header end to end.
    pub fn decode(bytes: &[u8]) -> Result<GraphSnapshot, CodecError> {
        let payload = unframe(bytes, EntryKind::Graph)?;
        let mut d = Dec::new(payload);
        let snap = GraphSnapshot {
            id: d.str()?,
            nodes: d.u32()?,
            edges: dec_edges(&mut d)?,
        };
        expect_drained(&d)?;
        Ok(snap)
    }
}

/// Trailing garbage after a valid payload is corruption too.
fn expect_drained(d: &Dec<'_>) -> Result<(), CodecError> {
    if d.is_empty() {
        Ok(())
    } else {
        Err(CodecError::LengthOverrun)
    }
}

fn frame(kind: EntryKind, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind as u8);
    out.push(0);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn unframe(bytes: &[u8], expect: EntryKind) -> Result<&[u8], CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = EntryKind::from_u8(bytes[6])?;
    if kind != expect {
        return Err(CodecError::BadKind(bytes[6]));
    }
    if bytes[7] != 0 {
        return Err(CodecError::BadValue);
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if len != payload.len() as u64 {
        return Err(CodecError::Truncated);
    }
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if fnv1a64(payload) != checksum {
        return Err(CodecError::BadChecksum);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_answers() -> AnswerSnapshot {
        AnswerSnapshot {
            fingerprint: 0xdead_beef_cafe_f00d,
            backend: "mcs-m".to_string(),
            order: StoredOrder::UponGeneration,
            nodes: 6,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
            answers: vec![vec![vec![0, 2], vec![2, 4]], vec![vec![1, 3]], vec![]],
            summary: MemoSummary {
                extends: 41,
                crossing_computed: 7,
                separators_interned: 9,
            },
        }
    }

    #[test]
    fn answers_round_trip() {
        let snap = sample_answers();
        assert_eq!(AnswerSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn plan_round_trips() {
        let snap = PlanSnapshot {
            fingerprint: 99,
            nodes: 9,
            edges: vec![(0, 1), (3, 8)],
            components: vec![vec![0, 1, 2, 3, 4, 5, 6, 7, 8]],
            atoms: vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6, 7, 8]],
            separators: vec![vec![3]],
        };
        assert_eq!(PlanSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn graph_round_trips() {
        let snap = GraphSnapshot {
            id: "g0123456789abcdef".to_string(),
            nodes: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        assert_eq!(GraphSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn retired_kind_4_fails_to_decode() {
        // The header is outside the checksum, so this is a clean kind-4
        // file as far as framing goes.
        let mut bytes = sample_answers().encode();
        bytes[6] = 4;
        assert!(matches!(
            AnswerSnapshot::decode(&bytes),
            Err(CodecError::BadKind(4))
        ));
        assert!(matches!(
            PlanSnapshot::decode(&bytes),
            Err(CodecError::BadKind(4))
        ));
        assert!(matches!(
            GraphSnapshot::decode(&bytes),
            Err(CodecError::BadKind(4))
        ));
    }

    #[test]
    fn retired_order_0_fails_to_decode() {
        let snap = sample_answers();
        let mut payload = snap.encode_payload();
        // The order byte follows the fingerprint and the backend name.
        let mut prefix = Enc::new();
        prefix.u64(snap.fingerprint);
        prefix.str(&snap.backend);
        let at = prefix.finish().len();
        assert_eq!(payload[at], 1, "the UponGeneration order byte");
        payload[at] = 0;
        assert!(matches!(
            AnswerSnapshot::decode(&frame(EntryKind::Answers, payload)),
            Err(CodecError::BadValue)
        ));
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = sample_answers().encode();
        for cut in 0..bytes.len() {
            assert!(
                AnswerSnapshot::decode(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_fails_cleanly() {
        // Deterministic and exhaustive: flip each bit of the encoded
        // file; the decode must error (the checksum catches payload
        // flips, field validation catches header flips) — never panic,
        // never return a different snapshot as Ok.
        let snap = sample_answers();
        let bytes = snap.encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                if let Ok(decoded) = AnswerSnapshot::decode(&corrupt) {
                    panic!(
                        "flip at byte {byte} bit {bit} decoded Ok ({})",
                        if decoded == snap {
                            "identical — flip not covered by checksum"
                        } else {
                            "DIFFERENT SNAPSHOT"
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let graph = GraphSnapshot {
            id: "g1".into(),
            nodes: 2,
            edges: vec![(0, 1)],
        };
        assert!(matches!(
            AnswerSnapshot::decode(&graph.encode()),
            Err(CodecError::BadKind(_))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_answers().encode();
        bytes[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert!(matches!(
            AnswerSnapshot::decode(&bytes),
            Err(CodecError::BadVersion(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_answers().encode();
        bytes.push(0);
        assert!(AnswerSnapshot::decode(&bytes).is_err());
    }
}
