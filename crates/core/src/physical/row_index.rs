//! The one hash index of the operators' window state: an open-addressing
//! table of row ids that hashes each row's key where it lies in its arena.
//!
//! PATTERN's join tables, the Δ-PATH forest and the PATH window adjacency
//! all hold their entries as fixed-width rows in an arena and chain the
//! rows of one key through links inside the rows. What they need from a
//! hash table is only "the row a key starts at": the key itself is read
//! back from the arena, so an index slot is a row id and a hash tag, eight
//! bytes, and nothing is allocated per key.

use sgq_types::hash::FxHasher;
use std::hash::Hasher;
use std::mem::size_of;

/// End of a free list or a chain, and the row of a vacant index slot.
pub(super) const NIL: u32 = u32::MAX;

/// Fx over a key's words, in order.
pub(super) fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    for w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// One slot of a [`RowIndex`]: a row id and the upper half of its hash.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    row: u32,
}

const VACANT: Slot = Slot { tag: 0, row: NIL };

/// An open-addressing index over row ids: linear probing, at most 3/4
/// full, deletion by backward shift (no tombstones). A slot keeps the
/// upper 32 bits of the row's 64-bit hash, which pick its home slot and
/// filter probes; the caller confirms every hit that passes the filter
/// against its arena, so colliding hashes only cost a comparison.
#[derive(Debug, Default)]
pub(super) struct RowIndex {
    slots: Vec<Slot>,
    len: usize,
}

impl RowIndex {
    fn tag(hash: u64) -> u32 {
        (hash >> 32) as u32
    }

    /// The slot of the row filed under `hash` that `is` accepts.
    pub(super) fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let tag = Self::tag(hash);
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let s = self.slots[i];
            if s.row == NIL {
                return None;
            }
            if s.tag == tag && is(s.row) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The row in slot `slot`.
    pub(super) fn row(&self, slot: usize) -> u32 {
        self.slots[slot].row
    }

    /// Files another row of the same key (and hash) in slot `slot`.
    pub(super) fn set_row(&mut self, slot: usize, row: u32) {
        self.slots[slot].row = row;
    }

    /// Files `row` under `hash`; the caller has checked it is absent.
    pub(super) fn insert(&mut self, hash: u64, row: u32) {
        if 4 * (self.len + 1) > 3 * self.slots.len() {
            let cap = (2 * self.slots.len()).max(8);
            let old = std::mem::replace(&mut self.slots, vec![VACANT; cap]);
            old.into_iter()
                .filter(|s| s.row != NIL)
                .for_each(|s| self.place(s));
        }
        self.place(Slot {
            tag: Self::tag(hash),
            row,
        });
        self.len += 1;
    }

    fn place(&mut self, s: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = s.tag as usize & mask;
        while self.slots[i].row != NIL {
            i = (i + 1) & mask;
        }
        self.slots[i] = s;
    }

    /// Empties slot `hole`, shifting back the entries after it that may
    /// fill it, so no probe chain is broken.
    pub(super) fn remove(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.row == NIL {
                break;
            }
            // `s` may move into the hole iff the hole lies on its probe
            // path, i.e. no further from its home than `j` is.
            let home = s.tag as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
    }

    /// Rows filed, one per key.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// The filed rows, in slot order.
    pub(super) fn rows(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().map(|s| s.row).filter(|&r| r != NIL)
    }

    /// Heap bytes reserved.
    pub(super) fn reserved_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_index_keeps_every_chain_whole_through_removals() {
        // Tags near `u32::MAX` home on the last slots at every table size,
        // so the chains wrap around the end and backward shifts cross it.
        let hash = |r: u32| u64::from(u32::MAX - r % 5) << 32;
        let (mut idx, mut live) = (RowIndex::default(), Vec::new());
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for row in 0..600u32 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if live.is_empty() || !rng.is_multiple_of(3) {
                idx.insert(hash(row), row);
                live.push(row);
            } else {
                let gone = live.swap_remove((rng % live.len() as u64) as usize);
                let slot = idx.find(hash(gone), |x| x == gone).expect("indexed");
                idx.remove(slot);
            }
            assert_eq!(idx.len(), live.len());
        }
        for row in 0..600 {
            let found = idx.find(hash(row), |x| x == row).is_some();
            assert_eq!(found, live.contains(&row), "row {row}");
        }
    }
}
