//! The spare list: one process-wide list of word buffers that dropped
//! bitmaps left behind, for the next full-length result to write into.
//!
//! A batch keeps its foundsets alive until it ends, then drops them all.
//! A buffer of 128 KiB or more is its own mapping to the allocator, so
//! `free` hands it back to the kernel, and the next batch writes its
//! foundsets into fresh pages: one minor fault per 4 KiB page. With the
//! list, [`BitVec`](crate::BitVec)'s drop gives such a buffer here, and
//! every full-length dense result takes one back before it asks the
//! allocator, so from the second batch on a batch writes into the words
//! the previous one dropped.
//!
//! The list keeps one bound, and only over buffers of at least
//! [`SPARE_MIN_WORDS`]: outstanding words are those handed out by `take`
//! and not yet given back, and the list keeps *kept + outstanding ≤ high
//! water*, the largest outstanding total seen so far. So the buffers it
//! keeps and hands out never add up to more than such buffers once did.
//! A buffer that did not come from `take` (a decoded slot, a clone)
//! lowers outstanding with a saturating subtraction when it is given.
//! Smaller buffers are neither counted nor kept, and they cannot use the
//! words the list keeps: after a batch has dropped its foundsets onto
//! the list, whatever it then allocates under the floor (result windows
//! of 32 KiB, say) raises the process's peak above the list's.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Buffers under this many words (128 KiB) are never kept, and below it a
/// drop costs one compare. 128 KiB is glibc's default `M_MMAP_THRESHOLD`:
/// a smaller chunk stays in the allocator's bins when freed, and the next
/// allocation of its size reuses it without a fault.
pub(crate) const SPARE_MIN_WORDS: usize = 16_384;

/// The process-wide list. Nothing under its lock unwinds (an allocation
/// failure aborts), so it cannot be poisoned from here; a poisoned lock
/// is still recovered rather than unwrapped, because the lock is taken
/// inside `Drop`, which must not panic.
static SPARE: Mutex<Spare> = Mutex::new(Spare::new());

/// Kept buffers and the counters of the bound.
#[derive(Debug)]
pub(crate) struct Spare {
    /// Empty buffers, the most recently given last.
    kept: Vec<Vec<u64>>,
    /// Sum of `kept`'s capacities.
    kept_words: usize,
    /// Words handed out by `take` and not yet given back.
    outstanding: usize,
    /// The largest `outstanding` seen.
    high_water: usize,
}

/// What [`Spare::take`] found.
#[derive(Debug)]
pub(crate) enum Taken {
    /// A kept buffer of sufficient capacity, cleared.
    Reused(Vec<u64>),
    /// No kept buffer fits: the caller allocates exactly the words it
    /// asked for, after dropping `freed` (outside the lock).
    Fresh { freed: Vec<Vec<u64>> },
}

impl Spare {
    pub(crate) const fn new() -> Self {
        Self {
            kept: Vec::new(),
            kept_words: 0,
            outstanding: 0,
            high_water: 0,
        }
    }

    /// A kept buffer with capacity ≥ `n` — the smallest, the most recently
    /// given on a tie — or, when none fits, the kept buffers to free so
    /// that a fresh `n`-word allocation keeps the bound. A request under
    /// the floor is not counted.
    pub(crate) fn take(&mut self, n: usize) -> Taken {
        if n < SPARE_MIN_WORDS {
            return Taken::Fresh { freed: Vec::new() };
        }
        let mut fit: Option<usize> = None;
        for (i, words) in self.kept.iter().enumerate().rev() {
            let cap = words.capacity();
            if cap >= n && fit.is_none_or(|f| cap < self.kept[f].capacity()) {
                fit = Some(i);
                if cap == n {
                    break;
                }
            }
        }
        let handed = match fit {
            Some(i) => self.kept[i].capacity(),
            None => n,
        };
        self.outstanding += handed;
        self.high_water = self.high_water.max(self.outstanding);
        if let Some(i) = fit {
            let mut words = self.kept.remove(i);
            self.kept_words -= handed;
            words.clear();
            return Taken::Reused(words);
        }
        let room = self.high_water - self.outstanding;
        let mut drained = 0;
        let mut excess = self.kept_words.saturating_sub(room);
        while excess > 0 {
            let cap = self.kept[drained].capacity();
            excess = excess.saturating_sub(cap);
            self.kept_words -= cap;
            drained += 1;
        }
        Taken::Fresh {
            freed: self.kept.drain(..drained).collect(),
        }
    }

    /// Keeps `words` if it is not under the floor and the bound still
    /// holds with it kept; otherwise hands it back for the caller to free
    /// (outside the lock).
    pub(crate) fn give(&mut self, words: Vec<u64>) -> Option<Vec<u64>> {
        let cap = words.capacity();
        if cap < SPARE_MIN_WORDS {
            return Some(words);
        }
        self.outstanding = self.outstanding.saturating_sub(cap);
        if self.kept_words + cap + self.outstanding > self.high_water {
            return Some(words);
        }
        self.kept_words += cap;
        self.kept.push(words);
        None
    }
}

fn spare() -> MutexGuard<'static, Spare> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An empty buffer of capacity ≥ `n` from the list, or `None`: the caller
/// then allocates exactly `n` words itself. Under the floor, the lock is
/// not taken.
pub(crate) fn take(n: usize) -> Option<Vec<u64>> {
    if n < SPARE_MIN_WORDS {
        return None;
    }
    let taken = spare().take(n);
    match taken {
        Taken::Reused(words) => Some(words),
        Taken::Fresh { freed } => {
            drop(freed);
            None
        }
    }
}

/// Gives a dropped bitmap's words to the list, or frees them. Under the
/// floor this is one compare: the lock is not taken.
#[inline]
pub(crate) fn give(words: Vec<u64>) {
    if words.capacity() >= SPARE_MIN_WORDS {
        let refused = spare().give(words);
        drop(refused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_buffer_under_the_floor_is_never_kept() {
        let mut spare = Spare::new();
        // A high water far above the small buffer, so only the floor can
        // refuse it.
        assert!(matches!(
            spare.take(4 * SPARE_MIN_WORDS),
            Taken::Fresh { .. }
        ));
        let small = SPARE_MIN_WORDS - 1;
        assert!(matches!(spare.take(small), Taken::Fresh { .. }));
        assert_eq!(
            spare.outstanding,
            4 * SPARE_MIN_WORDS,
            "small takes are not counted"
        );
        assert!(spare.give(Vec::with_capacity(small)).is_some());
        assert!(spare.kept.is_empty());
        assert!(matches!(spare.take(small), Taken::Fresh { .. }));
        // At the floor a buffer is kept.
        assert!(spare.give(Vec::with_capacity(SPARE_MIN_WORDS)).is_none());
        assert_eq!(spare.kept_words, SPARE_MIN_WORDS);
    }

    #[test]
    fn a_given_back_buffer_is_the_next_same_size_take() {
        let mut spare = Spare::new();
        let n = SPARE_MIN_WORDS + 5;
        assert!(matches!(spare.take(n), Taken::Fresh { .. }));
        let mut words = vec![7u64; n];
        let ptr = words.as_ptr();
        words.truncate(3);
        assert!(spare.give(words).is_none());
        match spare.take(n) {
            Taken::Reused(words) => {
                assert_eq!(words.as_ptr(), ptr);
                assert!(words.is_empty(), "a reused buffer comes back cleared");
                assert!(words.capacity() >= n);
            }
            Taken::Fresh { .. } => panic!("the given-back buffer fits"),
        }
    }

    #[test]
    fn a_take_prefers_the_smallest_fit() {
        let mut spare = Spare::new();
        let sizes = [3 * SPARE_MIN_WORDS, SPARE_MIN_WORDS, 2 * SPARE_MIN_WORDS];
        for n in sizes {
            assert!(matches!(spare.take(n), Taken::Fresh { .. }));
        }
        for n in sizes {
            assert!(spare.give(Vec::with_capacity(n)).is_none());
        }
        match spare.take(SPARE_MIN_WORDS + 1) {
            Taken::Reused(words) => assert_eq!(words.capacity(), 2 * SPARE_MIN_WORDS),
            Taken::Fresh { .. } => panic!("two kept buffers fit"),
        }
    }

    /// A seeded random walk of takes and gives — buffers from `take` and
    /// foreign ones — holds kept + outstanding ≤ high water after every
    /// step, and the counters match the list.
    #[test]
    fn kept_plus_outstanding_never_exceeds_the_high_water() {
        let mut spare = Spare::new();
        let mut live: Vec<Vec<u64>> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(11);
            (state >> 33) % bound
        };
        for step in 0..4_000 {
            let n = SPARE_MIN_WORDS * (1 + next(4) as usize) + next(3) as usize;
            match next(5) {
                0 | 1 => {
                    let words = match spare.take(n) {
                        Taken::Reused(words) => words,
                        Taken::Fresh { freed } => {
                            drop(freed);
                            Vec::with_capacity(n)
                        }
                    };
                    assert!(words.capacity() >= n);
                    live.push(words);
                }
                2 | 3 if !live.is_empty() => {
                    let i = next(live.len() as u64) as usize;
                    drop(spare.give(live.swap_remove(i)));
                }
                _ => drop(spare.give(Vec::with_capacity(n))),
            }
            assert!(
                spare.kept_words + spare.outstanding <= spare.high_water,
                "step {step}: {spare:?}"
            );
            let kept: usize = spare.kept.iter().map(Vec::capacity).sum();
            assert_eq!(kept, spare.kept_words, "step {step}");
        }
    }
}
