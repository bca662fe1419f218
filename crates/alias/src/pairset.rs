//! Interned points-to pairs and compact pair-id sets.
//!
//! The solvers' hot loops insert, test, and iterate points-to pairs
//! millions of times on larger programs. Hash-consing every [`Pair`]
//! into a dense `u32` [`PairId`] (backed by the crate's fixed-seed
//! FxHash, so interning order is deterministic) turns per-output
//! points-to sets into sets of small integers, which [`PairSet`] stores
//! as a sorted small-vector that spills into a bitset: O(1) membership
//! and insertion once spilled, cache-friendly ascending-id iteration,
//! and word-at-a-time union.
//!
//! [`PairSet`] also carries the *difference propagation* state: the
//! committed set plus a pending delta of ids that have been inserted
//! but not yet delivered to consumers. The invariant (documented in
//! DESIGN.md) is that every id enters the delta exactly once — at the
//! insertion that first committed it — so batched delivery forwards
//! each pair to each consumer exactly once.

use crate::fxhash::HashMap;
use crate::path::Pair;

/// How a solver schedules propagation of newly discovered pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Propagation {
    /// The seed discipline: one `(input, pair)` delivery per worklist
    /// step. Kept for the equivalence tests and the campaign's property
    /// 3, which re-solve under it; results are identical.
    Naive,
    /// Difference propagation: the worklist carries outputs whose delta
    /// is non-empty, and transfer functions consume whole deltas per
    /// step (the default).
    #[default]
    Delta,
}

/// Dense id of an interned [`Pair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairId(pub u32);

/// Hash-consing table mapping [`Pair`]s to dense [`PairId`]s.
///
/// Ids are handed out in first-intern order; with the deterministic
/// FxHash seed and deterministic solver scheduling, the numbering is
/// reproducible run-to-run.
#[derive(Debug, Clone, Default)]
pub struct PairInterner {
    pairs: Vec<Pair>,
    ids: HashMap<Pair, u32>,
}

impl PairInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `p`, returning its dense id.
    #[inline]
    pub fn intern(&mut self, p: Pair) -> PairId {
        if let Some(&id) = self.ids.get(&p) {
            return PairId(id);
        }
        let id = self.pairs.len() as u32;
        self.pairs.push(p);
        self.ids.insert(p, id);
        PairId(id)
    }

    /// Resolves an id back to its pair.
    #[inline]
    pub fn resolve(&self, id: PairId) -> Pair {
        self.pairs[id.0 as usize]
    }

    /// Number of distinct interned pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Threshold (in elements) at which a set spills from the sorted
/// small-vector to the bitset representation.
const SPILL: usize = 64;

/// A set of [`PairId`]s with difference-propagation state.
///
/// Small sets are a sorted `Vec<u32>` (binary-search membership, most
/// outputs hold a handful of pairs and never allocate a bitset); past
/// `SPILL` elements the set becomes a bitset indexed by id with O(1)
/// membership and insertion. Iteration is always in ascending id order,
/// so downstream consumption is deterministic.
#[derive(Debug, Clone, Default)]
pub struct PairSet {
    small: Vec<u32>,
    bits: Vec<u64>,
    len: u32,
    spilled: bool,
    /// Committed-but-undelivered ids; each id is pushed exactly once,
    /// by the insertion that committed it.
    delta: Vec<u32>,
}

impl PairSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed ids.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1)/O(log n) membership test.
    #[inline]
    pub fn contains(&self, id: PairId) -> bool {
        if self.spilled {
            let (w, b) = (id.0 as usize / 64, id.0 % 64);
            self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
        } else {
            self.small.binary_search(&id.0).is_ok()
        }
    }

    /// Inserts `id` into the committed set; on first insertion also
    /// records it in the pending delta. Returns whether it was new.
    #[inline]
    pub fn insert(&mut self, id: PairId) -> bool {
        if self.spilled {
            let (w, b) = (id.0 as usize / 64, id.0 % 64);
            if w >= self.bits.len() {
                self.bits.resize(w + 1, 0);
            }
            let word = &mut self.bits[w];
            let mask = 1u64 << b;
            if *word & mask != 0 {
                return false;
            }
            *word |= mask;
        } else {
            match self.small.binary_search(&id.0) {
                Ok(_) => return false,
                Err(at) => self.small.insert(at, id.0),
            }
            if self.small.len() > SPILL {
                self.spill();
            }
        }
        self.len += 1;
        self.delta.push(id.0);
        true
    }

    fn spill(&mut self) {
        let max = *self.small.last().expect("non-empty at spill") as usize;
        self.bits = vec![0u64; max / 64 + 1];
        for &id in &self.small {
            self.bits[id as usize / 64] |= 1 << (id % 64);
        }
        self.small = Vec::new();
        self.spilled = true;
    }

    /// Takes the pending delta, leaving it empty (capacity retained by
    /// the caller handing the buffer back via [`PairSet::recycle`]).
    pub fn take_delta(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.delta)
    }

    /// Whether any committed id awaits delivery.
    pub fn has_delta(&self) -> bool {
        !self.delta.is_empty()
    }

    /// Returns a drained buffer's capacity to the delta.
    pub fn recycle(&mut self, mut buf: Vec<u32>) {
        if self.delta.is_empty() && buf.capacity() > self.delta.capacity() {
            buf.clear();
            self.delta = buf;
        }
    }

    /// Iterates the committed ids in ascending order.
    pub fn iter(&self) -> PairSetIter<'_> {
        PairSetIter {
            set: self,
            idx: 0,
            word: if self.spilled {
                self.bits.first().copied().unwrap_or(0)
            } else {
                0
            },
        }
    }

    /// Unions `other` into `self` (committed sets; deltas updated so
    /// the invariant holds: every newly committed id is pending).
    pub fn union_with(&mut self, other: &PairSet) {
        if self.spilled && other.spilled {
            if other.bits.len() > self.bits.len() {
                self.bits.resize(other.bits.len(), 0);
            }
            for (w, (dst, &src)) in self.bits.iter_mut().zip(&other.bits).enumerate() {
                let mut new = src & !*dst;
                *dst |= src;
                while new != 0 {
                    let b = new.trailing_zeros();
                    self.delta.push((w * 64) as u32 + b);
                    self.len += 1;
                    new &= new - 1;
                }
            }
        } else {
            for id in other.iter() {
                self.insert(id);
            }
        }
    }
}

/// Ascending-id iterator over a [`PairSet`].
pub struct PairSetIter<'a> {
    set: &'a PairSet,
    idx: usize,
    word: u64,
}

impl Iterator for PairSetIter<'_> {
    type Item = PairId;

    #[inline]
    fn next(&mut self) -> Option<PairId> {
        if self.set.spilled {
            loop {
                if self.word != 0 {
                    let b = self.word.trailing_zeros();
                    self.word &= self.word - 1;
                    return Some(PairId((self.idx * 64) as u32 + b));
                }
                self.idx += 1;
                if self.idx >= self.set.bits.len() {
                    return None;
                }
                self.word = self.set.bits[self.idx];
            }
        } else {
            let id = *self.set.small.get(self.idx)?;
            self.idx += 1;
            Some(PairId(id))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathId;

    fn pid(n: u32) -> PairId {
        PairId(n)
    }

    #[test]
    fn interner_is_idempotent_and_dense() {
        let mut it = PairInterner::new();
        let a = it.intern(Pair::new(PathId(1), PathId(2)));
        let b = it.intern(Pair::new(PathId(3), PathId(4)));
        let a2 = it.intern(Pair::new(PathId(1), PathId(2)));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(it.resolve(b), Pair::new(PathId(3), PathId(4)));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn set_insert_contains_iter_small() {
        let mut s = PairSet::new();
        for n in [5u32, 1, 9, 5, 3] {
            s.insert(pid(n));
        }
        assert_eq!(s.len(), 4);
        assert!(s.contains(pid(9)));
        assert!(!s.contains(pid(2)));
        let ids: Vec<u32> = s.iter().map(|i| i.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        // Delta saw each committed id exactly once.
        let mut d = s.take_delta();
        d.sort_unstable();
        assert_eq!(d, vec![1, 3, 5, 9]);
        assert!(!s.has_delta());
    }

    #[test]
    fn set_spills_and_stays_correct() {
        let mut s = PairSet::new();
        // Insert enough scattered ids to cross the spill threshold.
        let ids: Vec<u32> = (0..200).map(|i| (i * 37) % 1000).collect();
        let mut expect: Vec<u32> = ids.clone();
        expect.sort_unstable();
        expect.dedup();
        for &i in &ids {
            s.insert(pid(i));
        }
        assert_eq!(s.len(), expect.len());
        let got: Vec<u32> = s.iter().map(|i| i.0).collect();
        assert_eq!(got, expect);
        for &i in &expect {
            assert!(s.contains(pid(i)));
        }
        assert!(!s.contains(pid(1)));
        // No duplicate insertions after spilling either.
        assert!(!s.insert(pid(expect[0])));
        let mut d = s.take_delta();
        d.sort_unstable();
        assert_eq!(d, expect);
    }

    #[test]
    fn union_preserves_delta_invariant() {
        let mut a = PairSet::new();
        let mut b = PairSet::new();
        for n in 0..100 {
            a.insert(pid(n * 2));
        }
        for n in 0..100 {
            b.insert(pid(n * 3));
        }
        a.take_delta();
        a.union_with(&b);
        let mut fresh = a.take_delta();
        fresh.sort_unstable();
        // Exactly the multiples of 3 not already in `a` (evens 0..=198).
        let expect: Vec<u32> = (0..100)
            .map(|n| n * 3)
            .filter(|m| m % 2 != 0 || *m > 198)
            .collect();
        assert_eq!(fresh, expect);
        assert_eq!(a.len(), 100 + expect.len());
    }
}
