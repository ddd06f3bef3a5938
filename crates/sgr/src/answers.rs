//! The answers a stream has found, `Q ∪ P`, with a containment index
//! over them.
//!
//! Answers get dense `u32` ids in insertion order and sit back to back
//! in one node arena. Each node keeps the ids of the answers that
//! contain it as a bit row, one bit per answer id, in 64-id words:
//!
//! * **dense** while it is small: every word from the node's first
//!   answer to its last, zero words included, as long as zero words do
//!   not outnumber the others;
//! * **sparse** once they would: only the non-zero words, each with its
//!   block number (`id / 64`), ascending.
//!
//! Either way a row costs at most about 16 bytes per id it holds, and a
//! dense one often far less. [`AnswerIndex::any_contains`] decides "does
//! some held answer contain every node of this set?": it walks the
//! blocks every row of the set covers and ANDs their words, stopping at
//! the first non-zero AND. Sparse rows are leapfrogged onto a common
//! block with galloping seeks first; dense rows are read in place. A
//! node with no row is in no answer.
//!
//! The index is built lazily: an insert only appends to the arena, and
//! the next query indexes the answers inserted since the last one. So a
//! stream that yields its first answer has built no row yet. A warm
//! query allocates nothing, since its cursors live in a reused buffer,
//! and an index that is never queried allocates no row at all.

use mintri_graph::FxHashMap;
use std::hash::Hash;
use std::ops::Range;

const TOO_BIG: &str = "an AnswerIndex holds fewer than 2^32 answers and nodes";

/// Insert-only answer store with a containment query (see the module
/// docs). Answers are sorted node slices.
#[derive(Debug, Clone)]
pub struct AnswerIndex<N> {
    /// Every answer's nodes, back to back, in id order.
    arena: Vec<N>,
    /// `ends[id]`: one past answer `id`'s last arena slot (answer `id`
    /// starts at `ends[id - 1]`, or 0).
    ends: Vec<u32>,
    /// Answers `0..indexed` are in the rows.
    indexed: usize,
    /// `rows[row_of[u]]`: the ids of the answers containing `u`.
    rows: Vec<Row>,
    row_of: FxHashMap<N, u32>,
    /// Query workspace: one `(row, position)` cursor per node of the
    /// queried set.
    cursors: Vec<(u32, usize)>,
}

/// One node's answer ids as a bit row (see the module docs).
#[derive(Debug, Clone, Default)]
struct Row {
    /// The words: bit `b` of the word for block `k` is id `64 * k + b`.
    words: Vec<u64>,
    /// Empty while the row is dense; then `words[i]` is block
    /// `first + i`. Otherwise `words[i]` is block `blocks[i]`.
    blocks: Vec<u32>,
    /// The block of the row's first id.
    first: u32,
    /// Non-zero words.
    filled: u32,
}

impl Row {
    fn is_dense(&self) -> bool {
        self.blocks.is_empty()
    }

    /// One past the row's last block.
    fn end(&self) -> u32 {
        match self.blocks.last() {
            Some(&last) => last + 1,
            None => self.first + self.words.len() as u32,
        }
    }

    /// Adds `id`, which is larger than every id held.
    fn push(&mut self, id: u32) {
        let (block, bit) = (id / 64, 1u64 << (id % 64));
        if self.words.is_empty() {
            self.first = block;
        }
        if self.is_dense() {
            let at = (block - self.first) as usize;
            if let Some(word) = self.words.get_mut(at) {
                *word |= bit;
                return;
            }
            let zeros = at - self.filled as usize;
            if zeros <= self.filled as usize + 1 {
                self.words.resize(at, 0);
                self.words.push(bit);
                self.filled += 1;
                return;
            }
            // Zero words would outnumber the others: keep only the
            // non-zero ones, with their blocks.
            let first = self.first;
            let mut kept = 0;
            for i in 0..self.words.len() {
                if self.words[i] != 0 {
                    self.blocks.push(first + i as u32);
                    self.words[kept] = self.words[i];
                    kept += 1;
                }
            }
            self.words.truncate(kept);
        }
        if self.blocks.last() == Some(&block) {
            *self.words.last_mut().expect("one word per block") |= bit;
        } else {
            self.blocks.push(block);
            self.words.push(bit);
            self.filled += 1;
        }
    }
}

impl<N> Default for AnswerIndex<N> {
    fn default() -> Self {
        AnswerIndex {
            arena: Vec::new(),
            ends: Vec::new(),
            indexed: 0,
            rows: Vec::new(),
            row_of: FxHashMap::default(),
            cursors: Vec::new(),
        }
    }
}

impl<N: Clone + Eq + Hash + Ord> AnswerIndex<N> {
    /// Number of answers held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no answer has been inserted.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Answer `id`, sorted.
    pub fn get(&self, id: usize) -> &[N] {
        &self.arena[self.span(id)]
    }

    /// Every answer in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[N]> + '_ {
        (0..self.len()).map(|id| self.get(id))
    }

    /// Frees the containment index and any spare capacity, keeping the
    /// answers: for a list that is only read back from now on. A later
    /// query rebuilds the index.
    pub fn drop_index(&mut self) {
        self.indexed = 0;
        self.rows = Vec::new();
        self.row_of = FxHashMap::default();
        self.cursors = Vec::new();
        self.arena.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Answer `id`'s arena slots.
    fn span(&self, id: usize) -> Range<usize> {
        let start = if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        };
        start..self.ends[id] as usize
    }

    /// Appends the sorted `answer` under the next id and returns that id.
    /// The caller keeps answers distinct.
    pub fn insert(&mut self, answer: &[N]) -> u32 {
        debug_assert!(
            answer.windows(2).all(|w| w[0] < w[1]),
            "answers are sorted and duplicate-free"
        );
        let id = u32::try_from(self.ends.len()).expect(TOO_BIG);
        self.arena.extend_from_slice(answer);
        self.ends
            .push(u32::try_from(self.arena.len()).expect(TOO_BIG));
        id
    }

    /// Adds the answers inserted since the last query to the rows.
    fn index_pending(&mut self) {
        for id in self.indexed..self.ends.len() {
            let span = self.span(id);
            for u in &self.arena[span] {
                let row = match self.row_of.get(u) {
                    Some(&row) => row as usize,
                    None => {
                        let row = self.rows.len();
                        self.row_of
                            .insert(u.clone(), u32::try_from(row).expect(TOO_BIG));
                        self.rows.push(Row::default());
                        row
                    }
                };
                self.rows[row].push(id as u32);
            }
        }
        self.indexed = self.ends.len();
    }

    /// `true` iff some held answer contains every node of `set` (the
    /// empty set is contained in any answer).
    pub fn any_contains(&mut self, set: &[N]) -> bool {
        if set.is_empty() {
            return !self.is_empty();
        }
        self.index_pending();
        // Every row of the set covers blocks `lo..hi` at most.
        let (mut lo, mut hi) = (0, u32::MAX);
        let mut sparse = 0;
        self.cursors.clear();
        for u in set {
            let Some(&row) = self.row_of.get(u) else {
                return false;
            };
            let r = &self.rows[row as usize];
            lo = lo.max(r.blocks.first().copied().unwrap_or(r.first));
            hi = hi.min(r.end());
            self.cursors.push((row, 0));
            if !r.is_dense() {
                // Sparse rows go first, to be leapfrogged.
                let last = self.cursors.len() - 1;
                self.cursors.swap(sparse, last);
                sparse += 1;
            }
        }
        let rows = &self.rows;
        let (leaps, dense) = self.cursors.split_at_mut(sparse);
        let mut target = lo;
        while target < hi {
            // Leapfrog the sparse rows onto one block: `agree` counts the
            // consecutive rows found holding `target`.
            let (mut agree, mut i) = (0, 0);
            while agree < leaps.len() {
                let (row, pos) = &mut leaps[i];
                let blocks = &rows[*row as usize].blocks;
                *pos = seek(blocks, *pos, target);
                let Some(&block) = blocks.get(*pos) else {
                    return false;
                };
                if block == target {
                    agree += 1;
                } else if block < hi {
                    target = block;
                    agree = 1;
                } else {
                    return false;
                }
                i = if i + 1 == leaps.len() { 0 } else { i + 1 };
            }
            let mut common = leaps.iter().fold(!0u64, |acc, &(row, pos)| {
                acc & rows[row as usize].words[pos]
            });
            for &(row, _) in dense.iter() {
                if common == 0 {
                    break;
                }
                let r = &rows[row as usize];
                common &= r.words[(target - r.first) as usize];
            }
            if common != 0 {
                return true;
            }
            target += 1;
        }
        false
    }
}

/// The first position at or after `from` whose block is `>= target`
/// (`list.len()` if none): a galloping search, so a cursor that moves a
/// little pays a little.
fn seek(list: &[u32], from: usize, target: u32) -> usize {
    match list.get(from) {
        Some(&block) if block < target => {}
        _ => return from,
    }
    // `list[lo] < target`, and `list[hi] >= target` unless `hi` is past
    // the end.
    let mut lo = from;
    let mut step = 1;
    let mut hi = from + 1;
    while hi < list.len() && list[hi] < target {
        lo = hi;
        step *= 2;
        hi = lo + step;
    }
    let hi = hi.min(list.len());
    lo + 1 + list[lo + 1..hi].partition_point(|&block| block < target)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition the index must agree with.
    fn contained(index: &AnswerIndex<u32>, set: &[u32]) -> bool {
        (0..index.len()).any(|id| set.iter().all(|u| index.get(id).contains(u)))
    }

    #[test]
    fn answers_keep_their_ids_and_nodes() {
        let mut index = AnswerIndex::default();
        assert!(index.is_empty());
        assert_eq!(index.insert(&[1, 4, 9]), 0);
        assert_eq!(index.insert(&[]), 1);
        assert_eq!(index.insert(&[2, 4]), 2);
        assert_eq!(index.len(), 3);
        assert_eq!(index.get(0), &[1, 4, 9]);
        assert!(index.get(1).is_empty());
        assert_eq!(index.get(2), &[2, 4]);
    }

    #[test]
    fn containment_needs_one_answer_holding_every_node() {
        let mut index = AnswerIndex::default();
        assert!(!index.any_contains(&[]), "nothing holds the empty set yet");
        index.insert(&[1, 2, 3]);
        index.insert(&[2, 3, 5]);
        index.insert(&[1, 5, 7]);
        assert!(index.any_contains(&[]));
        assert!(index.any_contains(&[2, 3]));
        assert!(index.any_contains(&[1, 5]));
        assert!(index.any_contains(&[1, 2, 3]));
        assert!(
            !index.any_contains(&[1, 2, 5]),
            "each pair is held, the triple is not"
        );
        assert!(!index.any_contains(&[3, 7]));
        assert!(!index.any_contains(&[4]), "a node in no answer");
    }

    /// A fixed xorshift stream, so every run checks the same family.
    fn stream() -> impl FnMut(u64) -> u32 {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as u32
        }
    }

    /// Answers over 40 common nodes (dense rows) plus, now and then, one
    /// or two of 400 rare ones (rows that turn sparse), checked against a
    /// scan, with inserts between queries so the lazy indexing runs many
    /// times. Queries mix common nodes with none, one or two rare ones,
    /// some taken from a held answer, so the sparse leapfrog meets more
    /// than one row.
    #[test]
    fn queries_agree_with_a_scan_of_every_answer() {
        let mut next = stream();
        let mut index = AnswerIndex::default();
        let (mut answer, mut query) = (Vec::new(), Vec::new());
        let (mut hits, mut misses) = (0, 0);
        for round in 0..3_000 {
            answer.clear();
            let size = 1 + next(12) as usize;
            answer.extend((0..size).map(|_| next(40)));
            for _ in 0..next(3) {
                answer.push(40 + next(400));
            }
            answer.sort_unstable();
            answer.dedup();
            index.insert(&answer);
            if round % 3 != 0 {
                continue;
            }
            for _ in 0..6 {
                query.clear();
                let size = next(4) as usize;
                query.extend((0..size).map(|_| next(44)));
                match next(3) {
                    // the rare nodes of a held answer, with one of its own
                    0 => query.extend(answer.iter().filter(|&&u| u >= 40).chain(&answer[..1])),
                    1 => query.extend([40 + next(400), 40 + next(400)]),
                    _ => query.push(next(40)),
                }
                query.sort_unstable();
                query.dedup();
                let expected = contained(&index, &query);
                assert_eq!(index.any_contains(&query), expected, "query {query:?}");
                if expected {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        assert!(hits > 500 && misses > 500, "{hits} hits, {misses} misses");
        let sparse = index.rows.iter().filter(|r| !r.is_dense()).count();
        assert!(
            0 < sparse && sparse < index.rows.len(),
            "both row kinds occur: {sparse} of {} rows sparse",
            index.rows.len()
        );
    }

    #[test]
    fn a_dropped_index_keeps_the_answers_and_rebuilds_on_query() {
        let mut index = AnswerIndex::default();
        index.insert(&[1, 2]);
        index.insert(&[2, 3]);
        assert!(index.any_contains(&[1, 2]));
        index.drop_index();
        assert!(index.rows.is_empty() && index.row_of.is_empty());
        assert_eq!(index.iter().collect::<Vec<_>>(), [&[1, 2][..], &[2, 3]]);
        assert!(index.any_contains(&[2, 3]));
        assert!(!index.any_contains(&[1, 3]));
    }

    #[test]
    fn inserts_build_no_row_until_a_query() {
        let mut index = AnswerIndex::default();
        index.insert(&[1, 2]);
        index.insert(&[2, 3]);
        assert!(index.rows.is_empty() && index.row_of.is_empty());
        assert!(index.any_contains(&[2, 3]));
        assert_eq!(index.rows.len(), 3);
        index.insert(&[3, 4]);
        assert_eq!(index.rows.len(), 3, "indexed at the next query");
        assert!(index.any_contains(&[4]));
        assert_eq!(index.rows.len(), 4);
    }

    #[test]
    fn rows_stay_within_two_words_per_non_zero_word() {
        let mut row = Row::default();
        // ids clustered in bursts with long gaps: the row must turn
        // sparse rather than store the gaps.
        for burst in 0..50u32 {
            for id in 0..10 {
                row.push(burst * 64 * 40 + id);
            }
        }
        assert!(!row.is_dense());
        assert_eq!(row.words.len(), 50);
        let mut row = Row::default();
        for id in (0..6_400).step_by(70) {
            row.push(id);
        }
        assert!(row.is_dense(), "one id per word or so stays dense");
        assert!(row.words.len() <= 2 * row.filled as usize + 1);
    }

    #[test]
    fn seek_finds_the_first_block_not_below_the_target() {
        let list: Vec<u32> = (0..100).map(|i| 3 * i).collect();
        for from in [0, 1, 7, 50, 99, 100] {
            for target in 0..310 {
                let expected = from.max(list.partition_point(|&id| id < target));
                assert_eq!(
                    seek(&list, from, target),
                    expected,
                    "from {from}, target {target}"
                );
            }
        }
    }
}
