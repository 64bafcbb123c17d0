//! A dense bitset over router ids, shared by topology analyses and the
//! simulator's active-router worklist.

use crate::geom::NodeId;
use serde::{Deserialize, Serialize};

/// A fixed-capacity set of [`NodeId`]s backed by `u64` words.
///
/// Iteration order is always ascending node id, which is what makes it safe
/// to drive deterministic per-router loops (e.g. switch allocation) off a
/// `NodeSet` instead of `0..n`: visiting the member subset in the same order
/// as the full range visits it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
}

impl NodeSet {
    /// An empty set able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// A set holding every id in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = NodeSet::new(capacity);
        s.fill();
        s
    }

    /// Maximum id + 1 this set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Add `node`. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of capacity.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.capacity,
            "node {i} out of NodeSet capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] >> b & 1 == 1;
        self.words[w] |= 1 << b;
        !had
    }

    /// Remove `node`. Returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.index();
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] >> b & 1 == 1;
        self.words[w] &= !(1 << b);
        had
    }

    /// Is `node` in the set?
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        i < self.capacity && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Add every id in `0..capacity`.
    pub fn fill(&mut self) {
        self.words.fill(!0);
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
    }

    /// The backing words, least-significant bit = id 0 of each 64-id block.
    ///
    /// This is the sanctioned word-level view for callers that scan the set
    /// with their own bit tricks (the switch allocator's per-cycle snapshot
    /// walk); bits above `capacity` are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The smallest member with id `>= from`, or `None` if no such member.
    ///
    /// Cursor-style iteration (`from = last.index() + 1`) visits members in
    /// ascending order and costs O(words + members) over a whole sweep,
    /// since consecutive calls re-examine at most one word.
    pub fn first_set_from(&self, from: usize) -> Option<NodeId> {
        if from >= self.capacity {
            return None;
        }
        let (mut w, b) = (from / 64, from % 64);
        let mut word = self.words[w] & (!0u64 << b);
        loop {
            if word != 0 {
                return Some(NodeId::from(w * 64 + word.trailing_zeros() as usize));
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }

    /// Remove every member with id in `lo..hi` (clamped to capacity).
    pub fn clear_range(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.capacity);
        if lo >= hi {
            return;
        }
        let (lw, lb) = (lo / 64, lo % 64);
        let (hw, hb) = (hi / 64, hi % 64);
        let lo_mask = !0u64 << lb; // bits >= lb
        let hi_mask = if hb == 0 { 0 } else { !0u64 >> (64 - hb) }; // bits < hb
        if lw == hw {
            self.words[lw] &= !(lo_mask & hi_mask);
            return;
        }
        self.words[lw] &= !lo_mask;
        for w in &mut self.words[lw + 1..hw] {
            *w = 0;
        }
        if hw < self.words.len() {
            self.words[hw] &= !hi_mask;
        }
    }

    /// Iterate members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.words.iter().enumerate()).flat_map(|(wi, &word)| Self::members_of(wi, word))
    }

    /// The ids `word` names as the `wi`-th backing word of a set, ascending
    /// — for callers that combine the [`NodeSet::words`] of several sets.
    #[inline]
    pub fn members_of(wi: usize, mut word: u64) -> impl Iterator<Item = NodeId> {
        std::iter::from_fn(move || {
            if word == 0 {
                return None;
            }
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(NodeId::from(wi * 64 + b))
        })
    }

    /// Append members in ascending id order to `out` (reusing its storage).
    pub fn collect_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(100);
        assert!(s.is_empty());
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        assert!(s.insert(NodeId(64)));
        assert!(s.insert(NodeId(99)));
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(4)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(NodeId(64)));
        assert!(!s.remove(NodeId(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = NodeSet::new(200);
        for id in [150u16, 0, 63, 64, 65, 199, 7] {
            s.insert(NodeId(id));
        }
        let got: Vec<u16> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 7, 63, 64, 65, 150, 199]);
        let mut buf = vec![NodeId(1); 3]; // stale storage is reused
        s.collect_into(&mut buf);
        assert_eq!(buf.len(), 7);
        assert_eq!(buf[0], NodeId(0));
    }

    #[test]
    fn full_and_fill_respect_capacity() {
        let s = NodeSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(NodeId(69)));
        assert!(!s.contains(NodeId(70)));
        let f = NodeSet::full(64);
        assert_eq!(f.len(), 64);
    }

    #[test]
    fn out_of_capacity_is_absent() {
        let s = NodeSet::full(10);
        assert!(!s.contains(NodeId(10)));
        assert!(!s.contains(NodeId(1000)));
    }

    #[test]
    #[should_panic(expected = "out of NodeSet capacity")]
    fn insert_out_of_capacity_panics() {
        NodeSet::new(8).insert(NodeId(8));
    }

    #[test]
    fn words_expose_the_exact_bit_pattern() {
        let mut s = NodeSet::new(130);
        for id in [0u16, 63, 64, 129] {
            s.insert(NodeId(id));
        }
        let w = s.words();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], 1 | 1 << 63);
        assert_eq!(w[1], 1);
        assert_eq!(w[2], 1 << 1);
        // Bits above capacity stay zero even after fill().
        let f = NodeSet::full(70);
        assert_eq!(f.words()[1], (1 << 6) - 1);
    }

    #[test]
    fn first_set_from_cursor_walks_ascending() {
        let mut s = NodeSet::new(300);
        let members = [3u16, 64, 65, 190, 299];
        for id in members {
            s.insert(NodeId(id));
        }
        let mut got = Vec::new();
        let mut cur = 0usize;
        while let Some(n) = s.first_set_from(cur) {
            got.push(n.0);
            cur = n.index() + 1;
        }
        assert_eq!(got, members);
        assert_eq!(s.first_set_from(300), None);
        assert_eq!(s.first_set_from(1000), None);
        assert_eq!(NodeSet::new(100).first_set_from(0), None);
        // `from` pointing at a member returns that member.
        assert_eq!(s.first_set_from(64), Some(NodeId(64)));
        assert_eq!(s.first_set_from(66), Some(NodeId(190)));
    }

    #[test]
    fn clear_range_within_one_word_and_across_words() {
        let mut s = NodeSet::full(200);
        s.clear_range(10, 20); // single word
        assert!(s.contains(NodeId(9)));
        assert!(!s.contains(NodeId(10)));
        assert!(!s.contains(NodeId(19)));
        assert!(s.contains(NodeId(20)));
        s.clear_range(60, 130); // spans three words
        assert!(s.contains(NodeId(59)));
        assert!(!s.contains(NodeId(60)));
        assert!(!s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(129)));
        assert!(s.contains(NodeId(130)));
        // Degenerate and clamped ranges.
        s.clear_range(150, 150);
        assert!(s.contains(NodeId(150)));
        s.clear_range(190, 10_000);
        assert!(!s.contains(NodeId(199)));
        assert!(s.contains(NodeId(189)));
        // Word-aligned upper bound.
        let mut a = NodeSet::full(128);
        a.clear_range(0, 64);
        assert_eq!(a.len(), 64);
        assert!(a.contains(NodeId(64)));
    }
}
