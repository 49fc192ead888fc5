//! The [`BitVec`] type: a length-aware, canonically masked dense bit vector.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};
use std::sync::Arc;

use crate::{words_for, WORD_BITS};

/// The word buffer of a [`BitVec`], copy-on-write.
///
/// A bitmap being built or mutated owns a plain `Vec`, so `set`/`push`
/// pay one predictable branch and never an atomic. [`BitVec::freeze`]
/// moves the `Vec` behind an `Arc`; from then on `clone()` is a
/// reference-count bump, and the first mutation of a shared buffer takes
/// it back ([`BitVec::words_mut`]), copying only if another handle still
/// holds it.
#[derive(Clone)]
enum Words {
    Owned(Vec<u64>),
    Shared(Arc<Vec<u64>>),
}

/// A dense vector of bits backed by `u64` words.
///
/// Invariant (*canonical form*): all bits at positions `>= len` in the last
/// word are zero. All constructors and mutators uphold this, which makes
/// [`BitVec::count_ones`], equality, and hashing exact without re-masking.
///
/// Binary operations require both operands to have the same `len`; this is a
/// logic error and panics, matching the paper's setting where every bitmap of
/// an index has exactly the relation cardinality `N` bits.
///
/// The word buffer is copy-on-write: a [frozen](BitVec::freeze) bitmap
/// clones by reference count, which is how an in-memory index hands its
/// stored bitmaps to the evaluators without copying them. Equality and
/// hashing see only the bits, never whether the buffer is shared.
#[derive(Clone)]
pub struct BitVec {
    words: Words,
    len: usize,
}

/// Takes a frozen buffer back: by move when `shared` is its last handle,
/// by copy while other handles still read it (they keep the original).
#[cold]
fn thaw(shared: &mut Arc<Vec<u64>>) -> Vec<u64> {
    match Arc::get_mut(shared) {
        Some(last_handle) => std::mem::take(last_handle),
        None => Vec::clone(shared),
    }
}

/// An owned buffer goes to the spare list (`spare.rs`), which keeps it
/// for the next full-length result if it is at least the list's floor and
/// the list's bound allows. A frozen buffer is left to its `Arc`.
impl Drop for BitVec {
    fn drop(&mut self) {
        if let Words::Owned(words) = &mut self.words {
            crate::spare::give(std::mem::take(words));
        }
    }
}

impl Default for BitVec {
    fn default() -> Self {
        Self::from_parts(Vec::new(), 0)
    }
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitVec {}

impl Hash for BitVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.len.hash(state);
    }
}

impl BitVec {
    /// Creates an empty bit vector of length zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` bits, all zero.
    pub fn zeros(len: usize) -> Self {
        Self::from_parts(crate::zeroed_words(words_for(len)), len)
    }

    /// Creates a bit vector of `len` bits, all one.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::from_parts(vec![u64::MAX; words_for(len)], len);
        v.mask_tail();
        v
    }

    /// An owned bitmap over `words`; callers uphold the canonical form.
    #[inline]
    fn from_parts(words: Vec<u64>, len: usize) -> Self {
        Self {
            words: Words::Owned(words),
            len,
        }
    }

    /// Wraps already-canonical words (crate-internal; used by the fused
    /// kernels, whose combinations of canonical operands are canonical).
    pub(crate) fn from_words_unmasked(words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), words_for(len));
        debug_assert!(
            len.is_multiple_of(WORD_BITS)
                || words.last().is_none_or(|w| w >> (len % WORD_BITS) == 0),
            "tail bits past len must be zero"
        );
        Self::from_parts(words, len)
    }

    /// Creates a bit vector of `len` bits from packed words (bit `i` lives
    /// in word `i / 64` at position `i % 64`). Surplus words are dropped,
    /// missing words are zero-filled, and bits at positions `>= len` are
    /// cleared, so the result is always canonical — the word-level
    /// counterpart of [`BitVec::from_bytes`], used by decoders that
    /// assemble whole words (e.g. WAH decompression).
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(words_for(len), 0);
        let mut v = Self::from_parts(words, len);
        v.mask_tail();
        v
    }

    /// Creates a bit vector of `len` bits with the given positions set.
    ///
    /// # Panics
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut words = vec![0u64; words_for(len)];
        for &i in indices {
            assert!(i < len, "bit index {i} out of range (len {len})");
            words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
        }
        Self::from_parts(words, len)
    }

    /// Creates a bit vector from a boolean slice (`slice[i]` becomes bit `i`).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut words = Vec::with_capacity(words_for(bits.len()));
        for chunk in bits.chunks(WORD_BITS) {
            let mut w = 0u64;
            for (bit, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << bit;
            }
            words.push(w);
        }
        Self::from_parts(words, bits.len())
    }

    /// Collects the bits produced by `f(i)` for `i in 0..len`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut words = Vec::with_capacity(words_for(len));
        let mut w = 0u64;
        for i in 0..len {
            w |= (f(i) as u64) << (i % WORD_BITS);
            if (i + 1).is_multiple_of(WORD_BITS) {
                words.push(w);
                w = 0;
            }
        }
        if !len.is_multiple_of(WORD_BITS) {
            words.push(w);
        }
        Self::from_parts(words, len)
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only view of the backing words (canonically masked).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Owned(words) => words,
            Words::Shared(words) => words,
        }
    }

    /// Freezes the word buffer behind a reference count: the buffer moves
    /// (no copy), and every later `clone()` shares it instead of copying
    /// it. A no-op on an already frozen bitmap. Mutating a frozen bitmap
    /// is still allowed — it takes the buffer back first, copying it only
    /// while another handle shares it.
    pub fn freeze(&mut self) {
        if let Words::Owned(words) = &mut self.words {
            self.words = Words::Shared(Arc::new(std::mem::take(words)));
        }
    }

    /// The word buffer for mutation: one predictable branch on an owned
    /// buffer, a thaw on a frozen one.
    #[inline]
    fn words_mut(&mut self) -> &mut Vec<u64> {
        if let Words::Shared(shared) = &mut self.words {
            let words = thaw(shared);
            self.words = Words::Owned(words);
        }
        match &mut self.words {
            Words::Owned(words) => words,
            Words::Shared(_) => unreachable!("thawed above"),
        }
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words()[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let word = &mut self.words_mut()[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Appends a bit at the end.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words_mut().push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1, true);
        }
    }

    /// Appends every bit of `other` after the current bits — bitmap
    /// concatenation. This is the delta-merge primitive: a base-length
    /// bitmap grows by its delta-segment tail in one word-level splice
    /// (shifting each incoming word across the unaligned boundary)
    /// instead of `other.len()` single-bit pushes.
    pub fn extend_from(&mut self, other: &BitVec) {
        if other.len == 0 {
            return;
        }
        let rem = self.len % WORD_BITS;
        self.len += other.len;
        let n_words = words_for(self.len);
        let words = self.words_mut();
        if rem == 0 {
            words.extend_from_slice(other.words());
        } else {
            let shift = WORD_BITS - rem;
            words.reserve(other.words().len());
            for (splice, &w) in (words.len() - 1..).zip(other.words()) {
                words[splice] |= w << rem;
                words.push(w >> shift);
            }
        }
        // Both inputs are canonical, so the spliced words carry no bits
        // past the new length; only the word count can overshoot by one.
        words.truncate(n_words);
    }

    /// Number of set bits (the foundset cardinality of a result bitmap),
    /// through the kernels' carry-save popcount.
    pub fn count_ones(&self) -> usize {
        crate::kernels::popcount(self.words())
    }

    /// Number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// `true` if at least one bit is set.
    pub fn any(&self) -> bool {
        self.words().iter().any(|&w| w != 0)
    }

    /// `true` if no bit is set.
    pub fn none(&self) -> bool {
        !self.any()
    }

    /// `true` if all `len` bits are set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Position of the first set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over the positions of the set bits, ascending.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        let words = self.words();
        OnesIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over every bit as a `bool`.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// In-place AND with `rhs`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, rhs: &Self) {
        self.and_assign_view(rhs.view());
    }

    /// In-place OR with `rhs`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or_assign(&mut self, rhs: &Self) {
        self.or_assign_view(rhs.view());
    }

    /// In-place XOR with `rhs`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, rhs: &Self) {
        self.xor_assign_view(rhs.view());
    }

    /// In-place AND with the complement of `rhs` (`self & !rhs`).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_not_assign(&mut self, rhs: &Self) {
        self.and_not_assign_view(rhs.view());
    }

    /// In-place complement of all `len` bits.
    pub fn not_assign(&mut self) {
        for w in self.words_mut() {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Owned complement.
    #[must_use = "complement returns a new bitmap without modifying self"]
    pub fn complement(&self) -> Self {
        let mut out = Self::from_parts(self.words().iter().map(|w| !w).collect(), self.len);
        out.mask_tail();
        out
    }

    /// Sets all bits to zero, keeping the length.
    pub fn clear_all(&mut self) {
        self.words_mut().fill(0);
    }

    /// Sets all bits to one, keeping the length.
    pub fn set_all(&mut self) {
        self.words_mut().fill(u64::MAX);
        self.mask_tail();
    }

    /// Serializes to little-endian bytes, `ceil(len / 8)` of them.
    ///
    /// Tail bits in the final byte are zero (canonical form carries over).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words().len() * 8);
        for w in self.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(self.len.div_ceil(8));
        out
    }

    /// Deserializes `len` bits from little-endian bytes.
    ///
    /// # Panics
    /// Panics if `bytes` holds fewer than `ceil(len / 8)` bytes.
    pub fn from_bytes(len: usize, bytes: &[u8]) -> Self {
        let nbytes = len.div_ceil(8);
        assert!(
            bytes.len() >= nbytes,
            "need {nbytes} bytes for {len} bits, got {}",
            bytes.len()
        );
        let mut chunks = bytes[..nbytes].chunks_exact(8);
        let mut words: Vec<u64> = Vec::with_capacity(words_for(len));
        words.extend(
            chunks
                .by_ref()
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8"))),
        );
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            words.push(u64::from_le_bytes(last));
        }
        let mut v = Self::from_parts(words, len);
        v.mask_tail();
        v
    }

    /// A zero-copy view of the whole vector.
    #[inline]
    pub fn view(&self) -> SegmentView<'_> {
        SegmentView {
            words: self.words(),
            len: self.len,
        }
    }

    /// A zero-copy view of bits `start..end` — the unit of segment-at-a-time
    /// execution. The range must be word-aligned so the view can borrow the
    /// backing words directly: `start` on a word boundary, `end` on a word
    /// boundary or at `len`. Both allowed endings keep the view canonical
    /// (an interior segment fills its last word; a final segment inherits
    /// the parent's masked tail), so views feed the kernels unchecked.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or not word-aligned as above.
    pub fn view_range(&self, start: usize, end: usize) -> SegmentView<'_> {
        assert!(
            start <= end && end <= self.len,
            "segment {start}..{end} out of range (len {})",
            self.len
        );
        assert!(
            start.is_multiple_of(WORD_BITS),
            "segment start {start} must be word-aligned"
        );
        assert!(
            end.is_multiple_of(WORD_BITS) || end == self.len,
            "segment end {end} must be word-aligned or the vector end"
        );
        SegmentView {
            words: &self.words()[start / WORD_BITS..words_for(end)],
            len: end - start,
        }
    }

    /// In-place AND with a segment view of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_assign_view(&mut self, rhs: SegmentView<'_>) {
        self.check_view_len(rhs);
        for (a, &b) in self.words_mut().iter_mut().zip(rhs.words) {
            *a &= b;
        }
    }

    /// In-place OR with a segment view of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or_assign_view(&mut self, rhs: SegmentView<'_>) {
        self.check_view_len(rhs);
        for (a, &b) in self.words_mut().iter_mut().zip(rhs.words) {
            *a |= b;
        }
    }

    /// In-place XOR with a segment view of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn xor_assign_view(&mut self, rhs: SegmentView<'_>) {
        self.check_view_len(rhs);
        for (a, &b) in self.words_mut().iter_mut().zip(rhs.words) {
            *a ^= b;
        }
    }

    /// In-place AND-NOT with a segment view of the same length
    /// (`self & !rhs`).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_not_assign_view(&mut self, rhs: SegmentView<'_>) {
        self.check_view_len(rhs);
        for (a, &b) in self.words_mut().iter_mut().zip(rhs.words) {
            *a &= !b;
        }
    }

    #[inline]
    fn check_view_len(&self, rhs: SegmentView<'_>) {
        assert_eq!(
            self.len, rhs.len,
            "bitmap length mismatch: {} vs {}",
            self.len, rhs.len
        );
    }

    /// Zeroes any bits at positions `>= len` in the last word.
    #[inline]
    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// A zero-copy, word-aligned view of a contiguous bit range of a
/// [`BitVec`] — the operand type of segment-at-a-time execution.
///
/// A view upholds the same canonical-form invariant as `BitVec` (bits past
/// `len` in the last borrowed word are zero), guaranteed by the alignment
/// rules of [`BitVec::view_range`], so the fused kernels can combine views
/// without re-masking. Views are `Copy`: passing one costs two machine
/// words.
#[derive(Clone, Copy, Debug)]
pub struct SegmentView<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> SegmentView<'a> {
    /// Number of bits in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the view holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (canonically masked).
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Number of set bits in the viewed range, through the kernels'
    /// carry-save popcount.
    pub fn count_ones(&self) -> usize {
        crate::kernels::popcount(self.words)
    }

    /// `true` if no bit in the viewed range is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Copies the viewed range into an owned [`BitVec`].
    #[must_use]
    pub fn to_bitvec(&self) -> BitVec {
        BitVec::from_words_unmasked(self.words.to_vec(), self.len)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown = self.len.min(128);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if shown < self.len {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

/// Iterator over positions of set bits, ascending. See [`BitVec::iter_ones`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

macro_rules! owned_binop {
    ($trait:ident, $method:ident, $assign:ident, $op:tt) => {
        impl $trait<&BitVec> for &BitVec {
            type Output = BitVec;
            /// Sizes the output once and writes each combined word
            /// directly — no clone-then-assign double pass.
            fn $method(self, rhs: &BitVec) -> BitVec {
                self.check_view_len(rhs.view());
                let words: Vec<u64> = self
                    .words()
                    .iter()
                    .zip(rhs.words())
                    .map(|(&a, &b)| a $op b)
                    .collect();
                BitVec::from_words_unmasked(words, self.len)
            }
        }
        impl $trait<&BitVec> for BitVec {
            type Output = BitVec;
            fn $method(mut self, rhs: &BitVec) -> BitVec {
                self.$assign(rhs);
                self
            }
        }
    };
}

owned_binop!(BitAnd, bitand, and_assign, &);
owned_binop!(BitOr, bitor, or_assign, |);
owned_binop!(BitXor, bitxor, xor_assign, ^);

impl BitAndAssign<&BitVec> for BitVec {
    fn bitand_assign(&mut self, rhs: &BitVec) {
        self.and_assign(rhs);
    }
}
impl BitOrAssign<&BitVec> for BitVec {
    fn bitor_assign(&mut self, rhs: &BitVec) {
        self.or_assign(rhs);
    }
}
impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}
impl Not for &BitVec {
    type Output = BitVec;
    fn not(self) -> BitVec {
        self.complement()
    }
}
impl Not for BitVec {
    type Output = BitVec;
    fn not(mut self) -> BitVec {
        self.not_assign();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(130);
        assert_eq!(z.len(), 130);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none());
        let o = BitVec::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!(o.all());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(100);
        for i in (0..100).step_by(7) {
            v.set(i, true);
        }
        for i in 0..100 {
            assert_eq!(v.get(i), i % 7 == 0, "bit {i}");
        }
        v.set(0, false);
        assert!(!v.get(0));
    }

    #[test]
    fn push_grows() {
        let mut v = BitVec::new();
        for i in 0..200 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 200);
        assert_eq!(v.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn complement_respects_len() {
        let v = BitVec::zeros(65);
        let c = v.complement();
        assert_eq!(c.count_ones(), 65);
        assert_eq!(c.words()[1], 1); // only bit 64 set in word 1
    }

    #[test]
    fn logical_ops() {
        let a = BitVec::from_indices(70, &[0, 1, 64, 69]);
        let b = BitVec::from_indices(70, &[1, 2, 64]);
        assert_eq!((&a & &b).iter_ones().collect::<Vec<_>>(), vec![1, 64]);
        assert_eq!(
            (&a | &b).iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2, 64, 69]
        );
        assert_eq!((&a ^ &b).iter_ones().collect::<Vec<_>>(), vec![0, 2, 69]);
        let mut anb = a.clone();
        anb.and_not_assign(&b);
        assert_eq!(anb.iter_ones().collect::<Vec<_>>(), vec![0, 69]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        a.and_assign(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn iter_ones_across_words() {
        let idx = [0usize, 63, 64, 127, 128, 200];
        let v = BitVec::from_indices(201, &idx);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idx);
        assert_eq!(v.first_one(), Some(0));
    }

    /// The per-byte loops the word-wise `to_bytes`/`from_bytes` replaced,
    /// kept as the reference they must agree with.
    fn to_bytes_bytewise(v: &BitVec) -> Vec<u8> {
        (0..v.len().div_ceil(8))
            .map(|i| (v.words()[i / 8] >> ((i % 8) * 8)) as u8)
            .collect()
    }

    fn from_bytes_bytewise(len: usize, bytes: &[u8]) -> BitVec {
        let mut words = vec![0u64; words_for(len)];
        for (i, &b) in bytes[..len.div_ceil(8)].iter().enumerate() {
            words[i / 8] |= (b as u64) << ((i % 8) * 8);
        }
        BitVec::from_words(words, len)
    }

    #[test]
    fn bytes_roundtrip_matches_bytewise_reference() {
        let big = 1usize << 18;
        let lens = (0..=200).chain([big - 63, big - 1, big, big + 1, big + 63]);
        for len in lens {
            let v = BitVec::from_fn(len, |i| (i * i + i / 7) % 5 < 2);
            let bytes = v.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8), "len {len}");
            assert_eq!(bytes, to_bytes_bytewise(&v), "len {len}");
            assert_eq!(BitVec::from_bytes(len, &bytes), v, "len {len}");

            // Trailing bytes past ceil(len / 8) are ignored, and garbage
            // above `len` in the final byte is masked off.
            let mut noisy = bytes.clone();
            if !len.is_multiple_of(8) {
                *noisy.last_mut().expect("len > 0") |= 0xFFu8 << (len % 8);
            }
            noisy.extend_from_slice(&[0xFF; 9]);
            let got = BitVec::from_bytes(len, &noisy);
            assert_eq!(got, from_bytes_bytewise(len, &noisy), "len {len}");
            assert_eq!(got, v, "len {len}");
            assert_eq!(got.count_ones(), v.count_ones(), "len {len}");
            assert_eq!(got.words().len(), words_for(len), "len {len}");
        }
    }

    #[test]
    fn from_bools_and_collect() {
        let bools: Vec<bool> = (0..50).map(|i| i % 2 == 0).collect();
        let a = BitVec::from_bools(&bools);
        let b: BitVec = bools.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(a.count_ones(), 25);
    }

    #[test]
    fn demorgan() {
        let a = BitVec::from_fn(90, |i| i % 3 == 0);
        let b = BitVec::from_fn(90, |i| i % 4 == 0);
        let lhs = (&a & &b).complement();
        let rhs = &a.complement() | &b.complement();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn set_all_clear_all() {
        let mut v = BitVec::zeros(67);
        v.set_all();
        assert!(v.all());
        v.clear_all();
        assert!(v.none());
    }

    #[test]
    fn extend_from_matches_push_loop() {
        // Every tail offset around the word boundary, including aligned.
        for a_len in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            for b_len in [0usize, 1, 64, 70, 130] {
                let a = BitVec::from_fn(a_len, |i| i % 3 == 0);
                let b = BitVec::from_fn(b_len, |i| i % 5 != 2);
                let mut got = a.clone();
                got.extend_from(&b);
                let mut want = a.clone();
                for i in 0..b_len {
                    want.push(b.get(i));
                }
                assert_eq!(got, want, "a_len={a_len} b_len={b_len}");
                assert_eq!(got.len(), a_len + b_len);
                assert_eq!(got.words().len(), words_for(a_len + b_len));
                // Canonical form survives: complement + count agree.
                assert_eq!(got.complement().count_ones(), got.count_zeros());
            }
        }
    }

    #[test]
    fn frozen_clone_shares_words_until_mutated() {
        let mut v = BitVec::from_fn(1000, |i| i % 3 == 0);
        let owned_copy = v.clone();
        assert_ne!(owned_copy.words().as_ptr(), v.words().as_ptr());
        let before = v.words().as_ptr();
        v.freeze();
        assert_eq!(v.words().as_ptr(), before, "freezing moves the buffer");
        let shared = v.clone();
        assert_eq!(shared.words().as_ptr(), v.words().as_ptr());
        v.freeze();
        assert_eq!(v.words().as_ptr(), before, "freezing twice is a no-op");

        // The first mutation of a shared handle copies; the other handle
        // keeps the original buffer.
        let mut writer = shared.clone();
        writer.set(1, true);
        assert_ne!(writer.words().as_ptr(), before);
        assert_eq!(shared.words().as_ptr(), before);
        assert_eq!(shared, owned_copy);

        // The last handle takes the buffer back by move.
        drop(shared);
        v.set(1, true);
        assert_eq!(v.words().as_ptr(), before);
        assert_eq!(v, writer);
    }

    #[test]
    fn every_mutator_leaves_a_shared_original_untouched() {
        let len = 200;
        let other = BitVec::from_fn(len, |i| i % 5 == 1);
        type Mutator = fn(&mut BitVec, &BitVec);
        let mutators: [(&str, Mutator); 14] = [
            ("set", |v, _| v.set(7, true)),
            ("push", |v, _| v.push(true)),
            ("extend_from", |v, o| v.extend_from(o)),
            ("and_assign", |v, o| v.and_assign(o)),
            ("or_assign", |v, o| v.or_assign(o)),
            ("xor_assign", |v, o| v.xor_assign(o)),
            ("and_not_assign", |v, o| v.and_not_assign(o)),
            ("and_assign_view", |v, o| v.and_assign_view(o.view())),
            ("or_assign_view", |v, o| v.or_assign_view(o.view())),
            ("xor_assign_view", |v, o| v.xor_assign_view(o.view())),
            ("and_not_assign_view", |v, o| {
                v.and_not_assign_view(o.view())
            }),
            ("not_assign", |v, _| v.not_assign()),
            ("clear_all", |v, _| v.clear_all()),
            ("set_all", |v, _| v.set_all()),
        ];
        for (name, mutate) in mutators {
            let pristine = BitVec::from_fn(len, |i| i % 3 == 0);
            let mut original = pristine.clone();
            original.freeze();
            // The same mutation on a frozen clone and on a plain owned copy.
            let mut shared = original.clone();
            let mut owned = pristine.clone();
            mutate(&mut shared, &other);
            mutate(&mut owned, &other);
            assert_eq!(original, pristine, "{name} wrote through to the original");
            assert_ne!(shared, original, "{name} changed nothing");
            assert_eq!(shared, owned, "{name} differs on a frozen bitmap");
        }
    }

    #[test]
    fn eq_hash_and_bytes_ignore_owned_vs_shared() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &BitVec| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        for len in [0usize, 1, 64, 65, 777] {
            let owned = BitVec::from_fn(len, |i| (i * 7 + i / 3) % 4 == 0);
            let mut frozen = owned.clone();
            frozen.freeze();
            assert_eq!(owned, frozen, "len {len}");
            assert_eq!(frozen, frozen.clone(), "len {len}");
            assert_eq!(hash(&owned), hash(&frozen), "len {len}");
            assert_eq!(format!("{owned:?}"), format!("{frozen:?}"), "len {len}");
            let bytes = frozen.to_bytes();
            assert_eq!(bytes, owned.to_bytes(), "len {len}");
            assert_eq!(BitVec::from_bytes(len, &bytes), frozen, "len {len}");
            assert_eq!(frozen.complement(), owned.complement(), "len {len}");
            assert_eq!(frozen.count_ones(), owned.count_ones(), "len {len}");
            assert_eq!(
                frozen.iter_ones().collect::<Vec<_>>(),
                owned.iter_ones().collect::<Vec<_>>(),
                "len {len}"
            );
        }
    }

    /// The carry-save popcount against a word-at-a-time count, on whole
    /// bitmaps around the word, lane-group and 8 KiB block boundaries and on
    /// views that start at word offsets.
    #[test]
    fn count_ones_matches_the_word_at_a_time_count() {
        let wordwise = |words: &[u64]| words.iter().map(|w| w.count_ones() as usize).sum();
        for len in [0usize, 1, 63, 64, 65, 511, 512, 513, 8191, 8193] {
            let mut state = len as u64 + 1;
            let v = BitVec::from_fn(len, |_| {
                state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(11);
                state >> 61 != 0
            });
            assert_eq!(v.count_ones(), wordwise(v.words()), "len {len}");
            assert_eq!(BitVec::ones(len).count_ones(), len, "len {len}");
            for lo in (0..len).step_by(64).take(5) {
                let view = v.view_range(lo, len);
                assert_eq!(
                    view.count_ones(),
                    wordwise(view.words()),
                    "len {len} at {lo}"
                );
            }
        }
    }

    #[test]
    fn empty_vector_ops() {
        let a = BitVec::zeros(0);
        let b = BitVec::zeros(0);
        assert_eq!((&a & &b).len(), 0);
        assert_eq!(a.complement().count_ones(), 0);
        assert_eq!(a.iter_ones().count(), 0);
        assert_eq!(a.to_bytes().len(), 0);
    }
}
