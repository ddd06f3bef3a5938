//! # mintri-sgr — succinct graph representations and `EnumMIS`
//!
//! Section 3 of the paper: a *Succinct Graph Representation* (SGR) describes
//! a possibly-exponential graph `G(x)` through two algorithms — a
//! polynomial-delay node enumerator `A_V` and a polynomial-time edge oracle
//! `A_E` (Definition 1). When the SGR additionally has a *tractable
//! expansion* (Definition 2: independent sets have polynomial size, and an
//! independent set can be grown by one node in polynomial time), the
//! algorithm [`EnumMis`] (Figure 1) enumerates all maximal independent sets
//! of `G(x)` in **incremental polynomial time** (Theorem 3.1).
//!
//! [`EnumMis`] is the schedule itself, one iterator. It keeps the answers
//! `Q ∪ P` in an [`AnswerIndex`] and runs `Extend(Jv)` only when no
//! answer found so far contains `Jv`, so every `Extend` returns a new
//! answer; the module docs of `enum_mis.rs` prove that the skip loses no
//! answer. A complete stream hands its answer list over
//! ([`EnumMis::into_answers`]).
//!
//! The crate also ships:
//!
//! * [`ExplicitSgr`] — wraps an ordinary in-memory graph as an SGR (used to
//!   cross-validate `EnumMIS` against brute force);
//! * [`SethSgr`] — the `k`-SAT gadget of Proposition 3.6 showing that
//!   *polynomial delay* (rather than incremental polynomial time) is
//!   impossible for SGR maximal-independent-set enumeration under SETH;
//! * [`bruteforce::all_maximal_independent_sets`] — the test oracle.
//!
//! ```
//! use mintri_graph::Graph;
//! use mintri_sgr::{EnumMis, ExplicitSgr, PrintMode};
//!
//! // C5 has five maximal independent sets, all of size 2
//! let g = Graph::cycle(5);
//! let sgr = ExplicitSgr::new(&g);
//! let answers: Vec<_> = EnumMis::new(&sgr, PrintMode::UponGeneration).collect();
//! assert_eq!(answers.len(), 5);
//! assert!(answers.iter().all(|a| a.len() == 2));
//! ```

mod answers;
mod enum_mis;
mod explicit;
mod seth;

pub mod bruteforce;

pub use answers::AnswerIndex;
pub use enum_mis::{EnumMis, EnumMisStats, PrintMode};
pub use explicit::ExplicitSgr;
pub use seth::{CnfFormula, SethNode, SethSgr};

use std::hash::Hash;

/// A succinct graph representation (Definition 1) with tractable expansion
/// (Definition 2).
///
/// Implementations promise that:
///
/// 1. [`Sgr::nodes`] enumerates every node of `G(x)` exactly once, with
///    polynomial delay;
/// 2. [`Sgr::edge`] decides adjacency in polynomial time;
/// 3. every independent set of `G(x)` has size polynomial in `|x|`;
/// 4. [`Sgr::extend`] grows an independent set into a maximal independent
///    set containing it, in polynomial time, and its result depends only
///    on the *set* it is given.
pub trait Sgr {
    /// Nodes of the represented graph. Answers are sorted vectors of these.
    type Node: Clone + Eq + Ord + Hash;

    /// The resumable state of the node enumerator `A_V`. Keeping the cursor
    /// external to the SGR lets `EnumMis` own both without self-reference.
    type NodeCursor;

    /// Scratch space for [`Sgr::edge_with`] / [`Sgr::extend_with`], owned
    /// by one enumeration stream and never shared. SGRs without a
    /// scratch kernel use `()`; the defaults then delegate to the plain
    /// operations.
    type Scratch: Default;

    /// Starts the node enumerator `A_V`.
    fn start_nodes(&self) -> Self::NodeCursor;

    /// Advances `A_V`: produces the next node of `G(x)`, or `None` when all
    /// nodes have been enumerated. Every node appears exactly once, with
    /// polynomial delay.
    fn next_node(&self, cursor: &mut Self::NodeCursor) -> Option<Self::Node>;

    /// The edge oracle `A_E`: `true` iff `{u, v} ∈ E(G(x))`.
    fn edge(&self, u: &Self::Node, v: &Self::Node) -> bool;

    /// Extends the independent set `base` into a maximal independent set
    /// containing it. `base` is guaranteed independent.
    ///
    /// The result must depend only on the set `base` — not on the order
    /// of its nodes, and not on earlier calls — so that every stream over
    /// one graph runs the same schedule. [`EnumMis`] passes each `Jv`
    /// sorted and extends it only when no answer it holds contains it,
    /// so every call returns a new answer.
    fn extend(&self, base: &[Self::Node]) -> Vec<Self::Node>;

    /// [`Sgr::edge`] through a reusable scratch space. Must return exactly
    /// what `edge` would; the default ignores the scratch and delegates.
    fn edge_with(&self, u: &Self::Node, v: &Self::Node, scratch: &mut Self::Scratch) -> bool {
        let _ = scratch;
        self.edge(u, v)
    }

    /// [`Sgr::extend`] writing into a caller-supplied buffer through a
    /// reusable scratch space. Must produce exactly the nodes `extend`
    /// would, in the same order; the default delegates and copies.
    fn extend_with(
        &self,
        base: &[Self::Node],
        out: &mut Vec<Self::Node>,
        scratch: &mut Self::Scratch,
    ) {
        let _ = scratch;
        out.clear();
        out.extend(self.extend(base));
    }

    /// Appends `Jv = {v} ∪ {u ∈ J | ¬A_E(v, u)}`, sorted, to `jv` for the
    /// sorted answer `J`. Returns `false`, appending nothing and querying
    /// nothing, when `v ∈ J`. The default makes `|J|` edge queries
    /// through `scratch`. An override must append exactly the nodes the
    /// default would and return what it returns.
    fn build_jv(
        &self,
        answer: &[Self::Node],
        v: &Self::Node,
        scratch: &mut Self::Scratch,
        jv: &mut Vec<Self::Node>,
    ) -> bool {
        let Err(at) = answer.binary_search(v) else {
            return false;
        };
        let (below, above) = answer.split_at(at);
        jv.extend(
            below
                .iter()
                .filter(|u| !self.edge_with(v, u, scratch))
                .cloned(),
        );
        jv.push(v.clone());
        jv.extend(
            above
                .iter()
                .filter(|u| !self.edge_with(v, u, scratch))
                .cloned(),
        );
        true
    }

    /// Convenience: the nodes of `G(x)` as an iterator (collecting cursor
    /// plumbing). Primarily for tests and small SGRs.
    fn nodes(&self) -> SgrNodeIter<'_, Self>
    where
        Self: Sized,
    {
        SgrNodeIter {
            sgr: self,
            cursor: self.start_nodes(),
        }
    }
}

/// Iterator adapter over [`Sgr::start_nodes`] / [`Sgr::next_node`].
pub struct SgrNodeIter<'a, S: Sgr> {
    sgr: &'a S,
    cursor: S::NodeCursor,
}

impl<S: Sgr> Iterator for SgrNodeIter<'_, S> {
    type Item = S::Node;

    fn next(&mut self) -> Option<S::Node> {
        self.sgr.next_node(&mut self.cursor)
    }
}

impl<S: Sgr> Sgr for &S {
    type Node = S::Node;
    type NodeCursor = S::NodeCursor;
    type Scratch = S::Scratch;

    fn start_nodes(&self) -> Self::NodeCursor {
        (**self).start_nodes()
    }

    fn next_node(&self, cursor: &mut Self::NodeCursor) -> Option<Self::Node> {
        (**self).next_node(cursor)
    }

    fn edge(&self, u: &Self::Node, v: &Self::Node) -> bool {
        (**self).edge(u, v)
    }

    fn extend(&self, base: &[Self::Node]) -> Vec<Self::Node> {
        (**self).extend(base)
    }

    fn edge_with(&self, u: &Self::Node, v: &Self::Node, scratch: &mut Self::Scratch) -> bool {
        (**self).edge_with(u, v, scratch)
    }

    fn extend_with(
        &self,
        base: &[Self::Node],
        out: &mut Vec<Self::Node>,
        scratch: &mut Self::Scratch,
    ) {
        (**self).extend_with(base, out, scratch)
    }

    fn build_jv(
        &self,
        answer: &[Self::Node],
        v: &Self::Node,
        scratch: &mut Self::Scratch,
        jv: &mut Vec<Self::Node>,
    ) -> bool {
        (**self).build_jv(answer, v, scratch, jv)
    }
}

/// A shared SGR is an SGR: lets owners of an `Arc`'d representation (the
/// engine's cached `Arc<MsGraph>` sessions) run [`EnumMis`] directly
/// over it, with no borrow tying the enumeration to a stack
/// frame and no newtype wrapper.
impl<S: Sgr> Sgr for std::sync::Arc<S> {
    type Node = S::Node;
    type NodeCursor = S::NodeCursor;
    type Scratch = S::Scratch;

    fn start_nodes(&self) -> Self::NodeCursor {
        (**self).start_nodes()
    }

    fn next_node(&self, cursor: &mut Self::NodeCursor) -> Option<Self::Node> {
        (**self).next_node(cursor)
    }

    fn edge(&self, u: &Self::Node, v: &Self::Node) -> bool {
        (**self).edge(u, v)
    }

    fn extend(&self, base: &[Self::Node]) -> Vec<Self::Node> {
        (**self).extend(base)
    }

    fn edge_with(&self, u: &Self::Node, v: &Self::Node, scratch: &mut Self::Scratch) -> bool {
        (**self).edge_with(u, v, scratch)
    }

    fn extend_with(
        &self,
        base: &[Self::Node],
        out: &mut Vec<Self::Node>,
        scratch: &mut Self::Scratch,
    ) {
        (**self).extend_with(base, out, scratch)
    }

    fn build_jv(
        &self,
        answer: &[Self::Node],
        v: &Self::Node,
        scratch: &mut Self::Scratch,
        jv: &mut Vec<Self::Node>,
    ) -> bool {
        (**self).build_jv(answer, v, scratch, jv)
    }
}
