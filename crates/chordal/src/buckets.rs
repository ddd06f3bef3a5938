//! Weight buckets for maximum-cardinality searches: the not-yet-numbered
//! vertices, one bitset per weight level.
//!
//! MCS (reference separator extraction, [`crate::minimal_separators_with`])
//! repeatedly takes an unnumbered vertex of maximum weight and then raises
//! the weights of some other unnumbered vertices. Keeping each level as a
//! [`NodeSet`] makes the selection a lowest-set-bit lookup on the top
//! level. (MCS-M, `mintri_triangulate::mcs_m_into`, keeps the same levels
//! as rows of a flat word buffer of its own.)

use mintri_graph::{Node, NodeSet};

/// The unnumbered vertices of a graph on `0..n`, bucketed by weight.
///
/// Weights start at 0 and only grow; a vertex's weight stays below `n`
/// (it counts numbered vertices). Every buffer is reused across
/// [`WeightBuckets::reset`] calls, so a warm instance never allocates.
#[derive(Default)]
pub struct WeightBuckets {
    weight: Vec<u32>,
    levels: Vec<NodeSet>,
    /// An upper bound on the highest non-empty level.
    top: usize,
}

impl WeightBuckets {
    /// Puts every vertex of `0..n` back, unnumbered, at weight 0.
    pub fn reset(&mut self, n: usize) {
        self.weight.clear();
        self.weight.resize(n, 0);
        let levels = n.max(1);
        if self.levels.len() < levels {
            self.levels.resize_with(levels, NodeSet::default);
        }
        self.levels[0].reset_full(n);
        for level in &mut self.levels[1..levels] {
            level.reset(n);
        }
        self.top = 0;
    }

    /// Removes and returns an unnumbered vertex of maximum weight, with
    /// that weight. Ties go to the smallest id.
    pub fn pop_max(&mut self) -> Option<(Node, usize)> {
        loop {
            if let Some(v) = self.levels[self.top].pop() {
                return Some((v, self.top));
            }
            if self.top == 0 {
                return None;
            }
            self.top -= 1;
        }
    }

    /// Raises the weight of the unnumbered vertex `v` by one.
    pub fn increment(&mut self, v: Node) {
        let w = &mut self.weight[v as usize];
        debug_assert!(self.levels[*w as usize].contains(v), "{v} is numbered");
        self.levels[*w as usize].remove(v);
        *w += 1;
        self.levels[*w as usize].insert(v);
        self.top = self.top.max(*w as usize);
    }

    /// The unnumbered vertices of weight exactly `w`.
    pub fn level(&self, w: usize) -> &NodeSet {
        &self.levels[w]
    }

    /// An upper bound on the largest weight of an unnumbered vertex: every
    /// level above it is empty.
    pub fn top(&self) -> usize {
        self.top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_weight_then_smallest_id() {
        let mut b = WeightBuckets::default();
        b.reset(5);
        b.increment(3);
        b.increment(1);
        b.increment(3);
        assert_eq!(b.top(), 2);
        assert_eq!(b.level(1).to_vec(), vec![1]);
        assert_eq!(b.pop_max(), Some((3, 2)));
        assert_eq!(b.pop_max(), Some((1, 1)));
        assert_eq!(b.pop_max(), Some((0, 0)));
        assert_eq!(b.pop_max(), Some((2, 0)));
        assert_eq!(b.pop_max(), Some((4, 0)));
        assert_eq!(b.pop_max(), None);
    }

    #[test]
    fn reset_reuses_levels_across_sizes() {
        let mut b = WeightBuckets::default();
        b.reset(70);
        for _ in 0..5 {
            b.increment(69);
        }
        b.reset(3);
        assert_eq!(b.top(), 0);
        assert_eq!(b.level(0).to_vec(), vec![0, 1, 2]);
        b.reset(0);
        assert_eq!(b.pop_max(), None);
    }
}
