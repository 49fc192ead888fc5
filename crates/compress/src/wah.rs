//! Word-Aligned Hybrid (WAH) compressed bitmaps.
//!
//! WAH post-dates the paper (Wu, Otoo & Shoshani) and is included here as an
//! ablation for Section 9: a codec designed *for bitmaps* that supports
//! logical operations directly on the compressed representation, unlike the
//! general-purpose byte codecs the paper evaluates.
//!
//! Encoding: a sequence of 32-bit words over 31-bit *groups* of the input.
//! * literal word: MSB = 0, low 31 bits hold one group verbatim;
//! * fill word:    MSB = 1, next bit = fill value, low 30 bits = number of
//!   consecutive all-zero or all-one groups (≥ 1).
//!
//! The final group may be partial; the bitmap remembers its exact bit length
//! and keeps tail bits zero (same canonical-form rule as `BitVec`).
//!
//! Beyond the binary ops, this module provides the compressed-domain
//! counterparts of [`bindex_bitvec::kernels`]: k-ary [`and_all`] /
//! [`or_all`] / [`xor_all`], [`and_not`], the whole-function [`fold`], and
//! the fused counting variants ([`count_and`], [`count_or`], …) that never
//! materialize a result at all. All of them walk the operands' run
//! decompositions in lockstep — aligned fill runs are folded `min(count)`
//! groups at a time, so the work is proportional to the number of *runs*
//! in the operands, not the bit length. What makes a bitmap cheap here is
//! long runs, not few set bits: a range-encoded slot of a clustered or
//! time-ordered column is 10–90 % ones and still a few hundred words,
//! because its ones and its zeros both come in runs of thousands of rows.
//! A RangeEval-Opt predicate over such slots touches those few hundred
//! words per operand where the dense kernels sweep the whole relation.

use std::sync::Arc;

use bindex_bitvec::kernels::{Fold, FoldStep};
use bindex_bitvec::{words_for, BitVec};

use crate::DecodeError;

const GROUP_BITS: usize = 31;
const GROUP_MASK: u32 = (1 << GROUP_BITS) - 1;
const FILL_FLAG: u32 = 1 << 31;
const FILL_VALUE: u32 = 1 << 30;
const MAX_FILL: u32 = (1 << 30) - 1;

/// A WAH-compressed immutable bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WahBitmap {
    words: Vec<u32>,
    /// Exact number of bits represented.
    len: usize,
}

impl WahBitmap {
    /// Compresses a [`BitVec`], extracting 31-bit groups straight from the
    /// packed words (no per-bit access).
    pub fn from_bitvec(bits: &BitVec) -> Self {
        let len = bits.len();
        let ngroups = len.div_ceil(GROUP_BITS);
        let src = bits.words();
        let mut words: Vec<u32> = Vec::new();
        for g in 0..ngroups {
            push_group(&mut words, extract_group(src, g));
        }
        Self { words, len }
    }

    /// Decompresses back to a [`BitVec`], assembling whole 64-bit words:
    /// fill runs become word-level memset-style strides, literals are OR-ed
    /// in at their bit offset.
    pub fn to_bitvec(&self) -> BitVec {
        let mut words = vec![0u64; words_for(self.len)];
        let mut bitpos = 0usize;
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                let span = (w & MAX_FILL) as usize * GROUP_BITS;
                if w & FILL_VALUE != 0 {
                    set_ones(&mut words, bitpos, (bitpos + span).min(self.len));
                }
                bitpos += span;
            } else {
                write_group(&mut words, bitpos, w & GROUP_MASK);
                bitpos += GROUP_BITS;
            }
        }
        BitVec::from_words(words, self.len)
    }

    /// Number of bits represented.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the compressed form in bytes.
    #[inline]
    pub fn compressed_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Fraction of set bits (`count_ones / len`; 0 for an empty bitmap).
    /// Computed on the compressed form — cost is proportional to the number
    /// of compressed words, which is exactly when density is low.
    #[inline]
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Number of set bits, computed without decompressing: fill runs are
    /// counted arithmetically (O(1) per run, however many groups it spans),
    /// literals by popcount.
    #[inline]
    pub fn count_ones(&self) -> usize {
        let ngroups = self.len.div_ceil(GROUP_BITS);
        let tail_mask = tail_mask(self.len);
        let mut ones = 0usize;
        let mut g = 0usize;
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                let count = (w & MAX_FILL) as usize;
                if w & FILL_VALUE != 0 {
                    ones += GROUP_BITS * count;
                    if g + count == ngroups {
                        ones -= GROUP_BITS - tail_mask.count_ones() as usize;
                    }
                }
                g += count;
            } else {
                let v = if g + 1 == ngroups {
                    w & tail_mask
                } else {
                    w & GROUP_MASK
                };
                ones += v.count_ones() as usize;
                g += 1;
            }
        }
        ones
    }

    /// Iterates the run decomposition: one [`Run`] per encoded word, fills
    /// carrying their group count. This is the raw material of the
    /// run-merging kernels and is exposed for callers that want to walk
    /// the compressed form themselves.
    pub fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        RunIter::new(&self.words)
    }

    /// Serializes the compressed words (little-endian `u32`s). The bit
    /// length is *not* included; the storage layer records it out of band,
    /// exactly as it does for dense bitmap payloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for &w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from [`WahBitmap::to_bytes`] output for a bitmap of
    /// `len` bits, validating the encoding's structural invariants (word
    /// alignment, non-zero fill lengths, group count matching `len`) so a
    /// corrupted payload surfaces as a [`DecodeError`] instead of a panic
    /// deep inside a logical operation.
    pub fn from_bytes(len: usize, bytes: &[u8]) -> Result<Self, DecodeError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(DecodeError(format!(
                "WAH payload of {} bytes is not word-aligned",
                bytes.len()
            )));
        }
        let mut words = Vec::with_capacity(bytes.len() / 4);
        let mut groups = 0usize;
        for chunk in bytes.chunks_exact(4) {
            let w = u32::from_le_bytes(chunk.try_into().expect("chunk of 4"));
            if w & FILL_FLAG != 0 {
                let count = w & MAX_FILL;
                if count == 0 {
                    return Err(DecodeError("WAH fill word with zero run length".into()));
                }
                groups += count as usize;
            } else {
                groups += 1;
            }
            words.push(w);
        }
        let ngroups = len.div_ceil(GROUP_BITS);
        if groups != ngroups {
            return Err(DecodeError(format!(
                "WAH payload encodes {groups} groups, expected {ngroups} for {len} bits"
            )));
        }
        Ok(Self { words, len })
    }

    /// Bitwise AND on the compressed form.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and(&self, rhs: &Self) -> Self {
        and_all(&[self, rhs])
    }

    /// Bitwise OR on the compressed form.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or(&self, rhs: &Self) -> Self {
        or_all(&[self, rhs])
    }

    /// Bitwise XOR on the compressed form.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn xor(&self, rhs: &Self) -> Self {
        xor_all(&[self, rhs])
    }

    /// Bitwise NOT on the compressed form (length-aware).
    pub fn not(&self) -> Self {
        let mut words = Vec::with_capacity(self.words.len());
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                words.push(w ^ FILL_VALUE);
            } else {
                push_group(&mut words, !w & GROUP_MASK);
            }
        }
        let mut out = Self {
            words,
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Re-normalizes the (possibly dirty) final group so tail bits are zero.
    fn mask_tail(&mut self) {
        let rem = self.len % GROUP_BITS;
        if rem == 0 || self.len == 0 {
            return;
        }
        let tail_mask = (1u32 << rem) - 1;
        // Pop trailing words until we isolate the final group, fix it, re-push.
        let Some(&last) = self.words.last() else {
            return;
        };
        if last & FILL_FLAG != 0 {
            let count = last & MAX_FILL;
            let fill = last & FILL_VALUE != 0;
            if !fill {
                return; // zero fill already canonical
            }
            self.words.pop();
            if count > 1 {
                self.words.push(FILL_FLAG | FILL_VALUE | (count - 1));
            }
            push_group(&mut self.words, GROUP_MASK & tail_mask);
        } else {
            let fixed = last & GROUP_MASK & tail_mask;
            self.words.pop();
            push_group(&mut self.words, fixed);
        }
    }
}

/// AND of all operands entirely in the compressed domain: the run
/// decompositions are merged in lockstep, so aligned fill runs cost one
/// step regardless of how many groups they span. Mirrors
/// [`bindex_bitvec::kernels::and_all`].
///
/// # Panics
/// Panics on an empty operand list or mismatched lengths.
#[must_use]
pub fn and_all(operands: &[&WahBitmap]) -> WahBitmap {
    fold_groups(operands, |a, b| a & b, AND_ALGEBRA)
}

/// OR of all operands in the compressed domain. Mirrors
/// [`bindex_bitvec::kernels::or_all`].
///
/// # Panics
/// Panics on an empty operand list or mismatched lengths.
#[must_use]
pub fn or_all(operands: &[&WahBitmap]) -> WahBitmap {
    fold_groups(operands, |a, b| a | b, OR_ALGEBRA)
}

/// XOR of all operands in the compressed domain. Mirrors
/// [`bindex_bitvec::kernels::xor_all`].
///
/// # Panics
/// Panics on an empty operand list or mismatched lengths.
#[must_use]
pub fn xor_all(operands: &[&WahBitmap]) -> WahBitmap {
    fold_groups(operands, |a, b| a ^ b, XOR_ALGEBRA)
}

/// `a ∧ ¬b` in the compressed domain. Mirrors
/// [`bindex_bitvec::kernels::and_not`].
///
/// # Panics
/// Panics if lengths differ.
#[must_use]
pub fn and_not(a: &WahBitmap, b: &WahBitmap) -> WahBitmap {
    fold_groups(&[a, b], |x, y| x & !y, ANDNOT_ALGEBRA)
}

/// Evaluates `program` over `len`-bit operands entirely in the compressed
/// domain — the run-merge twin of [`bindex_bitvec::kernels::fold`], over
/// the same [`Fold`] program: seed (or all ones), `And` / `Or` / `AndNot` /
/// `AndXor` steps in order, then the complement and the mask. Every
/// operand's runs are walked once, in lockstep; over each stretch where no
/// operand changes run the whole function is evaluated on one 31-bit group
/// and emitted as one fill or literal, so the work is proportional to the
/// operands' run counts and no intermediate bitmap exists per operator
/// (Kaser & Lemire, *Compressed bitmap indexes: beyond unions and
/// intersections*).
///
/// `len` is explicit because a program may have no operand at all (all
/// ones, or its complement).
///
/// # Panics
/// Panics if any operand is not `len` bits long.
#[must_use]
pub fn fold(len: usize, program: &Fold<&WahBitmap>) -> WahBitmap {
    // One cursor per operand occurrence; the program refers to them by
    // position.
    let mut cursors: Vec<Cursor<'_>> = Vec::new();
    let program = program.map(|w| {
        assert_eq!(len, w.len, "WAH length mismatch: {len} vs {}", w.len);
        cursors.push(Cursor::new(&w.words));
        cursors.len() - 1
    });
    let mut words = Vec::new();
    let mut left = len.div_ceil(GROUP_BITS) as u64;
    while left > 0 {
        let value = |i: usize| cursors[i].value;
        let mut acc = program.seed.map_or(GROUP_MASK, value);
        for step in &program.steps {
            acc = match *step {
                FoldStep::And(b) => acc & value(b),
                FoldStep::Or(b) => acc | value(b),
                FoldStep::AndNot(b) => acc & !value(b),
                FoldStep::AndXor(a, b) => acc & (value(a) ^ value(b)),
            };
        }
        if program.complement {
            acc = !acc;
        }
        if let Some(mask) = program.mask {
            acc &= value(mask);
        }
        // Every operand holds its value for `take` more groups; with no
        // operand at all the function is one constant fill.
        let take = cursors.iter().map(|c| c.remaining).min();
        let take = u64::from(take.unwrap_or(u32::MAX)).min(left) as u32;
        push_fill_or_literals(&mut words, acc & GROUP_MASK, take);
        for c in &mut cursors {
            c.advance(take);
        }
        left -= u64::from(take);
    }
    let mut out = WahBitmap { words, len };
    out.mask_tail();
    out
}

/// `|operands[0] ∧ operands[1] ∧ …|` without producing a result bitmap:
/// aligned fill runs are counted arithmetically, literal groups by
/// popcount. Mirrors [`bindex_bitvec::kernels::count_and`].
///
/// # Panics
/// Panics on an empty operand list or mismatched lengths.
#[must_use]
pub fn count_and(operands: &[&WahBitmap]) -> usize {
    count_groups(operands, |a, b| a & b, AND_ALGEBRA)
}

/// `|operands[0] ∨ operands[1] ∨ …|` without producing a result bitmap.
/// Mirrors [`bindex_bitvec::kernels::count_or`].
///
/// # Panics
/// Panics on an empty operand list or mismatched lengths.
#[must_use]
pub fn count_or(operands: &[&WahBitmap]) -> usize {
    count_groups(operands, |a, b| a | b, OR_ALGEBRA)
}

/// `|operands[0] ⊕ operands[1] ⊕ …|` without producing a result bitmap.
/// Mirrors [`bindex_bitvec::kernels::count_xor`].
///
/// # Panics
/// Panics on an empty operand list or mismatched lengths.
#[must_use]
pub fn count_xor(operands: &[&WahBitmap]) -> usize {
    count_groups(operands, |a, b| a ^ b, XOR_ALGEBRA)
}

/// `|a ∧ ¬b|` without producing a result bitmap. Mirrors
/// [`bindex_bitvec::kernels::count_and_not`].
///
/// # Panics
/// Panics if lengths differ.
#[must_use]
pub fn count_and_not(a: &WahBitmap, b: &WahBitmap) -> usize {
    count_groups(&[a, b], |x, y| x & !y, ANDNOT_ALGEBRA)
}

/// "≥ k of the operands set", entirely in the compressed domain: the
/// run-merge counterpart of [`bindex_bitvec::kernels::threshold_k`].
/// Operand runs are walked in lockstep with two threshold-specific
/// absorbing skips layered on top:
///
/// * when **k or more** cursors sit in one-fills the result is pinned at
///   ones for as long as all of them persist — the span advances by the
///   minimum remaining among the one-fill cursors without folding anyone
///   else's literals;
/// * when **fewer than k** cursors can still be live (more than `n − k`
///   sit in zero-fills) the result is pinned at zeros for the minimum
///   remaining among the zero-fill cursors.
///
/// Outside the skips, every cursor's group value is constant for the
/// aligned stretch, so one 32-bit bit-sliced counter evaluation covers
/// the whole stretch. Work stays proportional to the operands'
/// *compressed* sizes; nothing is materialized.
///
/// Degenerate thresholds are total: `k = 0` is all ones, `k > n` is all
/// zeros; `k = 1` / `k = n` collapse to [`or_all`] / [`and_all`].
///
/// # Panics
/// Panics on an empty operand list, mismatched lengths, or more than
/// [`bindex_bitvec::kernels::MAX_THRESHOLD_FAN_IN`] operands.
#[must_use]
pub fn threshold_k(operands: &[&WahBitmap], k: usize) -> WahBitmap {
    let len = check_kary(operands);
    let n = operands.len();
    if k == 0 {
        return filled(len, true);
    }
    if k > n {
        return filled(len, false);
    }
    if k == 1 {
        return or_all(operands);
    }
    if k == n {
        return and_all(operands);
    }
    let mut words = Vec::new();
    merge_threshold(operands, k, |v, count| {
        push_fill_or_literals(&mut words, v, count);
    });
    let mut out = WahBitmap { words, len };
    out.mask_tail();
    out
}

/// `|threshold_k(operands, k)|` without producing a result bitmap: fill
/// stretches are counted arithmetically, folded literal stretches by
/// popcount. Mirrors [`bindex_bitvec::kernels::count_threshold_k`].
///
/// # Panics
/// Panics on an empty operand list, mismatched lengths, or more than
/// [`bindex_bitvec::kernels::MAX_THRESHOLD_FAN_IN`] operands.
#[must_use]
pub fn count_threshold_k(operands: &[&WahBitmap], k: usize) -> usize {
    let len = check_kary(operands);
    let n = operands.len();
    if k == 0 {
        return len;
    }
    if k > n {
        return 0;
    }
    if k == 1 {
        return count_or(operands);
    }
    if k == n {
        return count_and(operands);
    }
    let ngroups = len.div_ceil(GROUP_BITS);
    let tail_mask = tail_mask(len);
    let mut ones = 0usize;
    let mut g = 0usize;
    merge_threshold(operands, k, |v, count| {
        let count = count as usize;
        let covers_tail = g + count == ngroups;
        if v == GROUP_MASK {
            ones += GROUP_BITS * count;
            if covers_tail {
                ones -= GROUP_BITS - tail_mask.count_ones() as usize;
            }
        } else if v != 0 {
            let last = if covers_tail { v & tail_mask } else { v };
            ones += v.count_ones() as usize * (count - 1) + last.count_ones() as usize;
        }
        g += count;
    });
    debug_assert_eq!(g, ngroups, "operands cover all groups");
    ones
}

/// An all-zeros or all-ones WAH bitmap of `len` bits.
fn filled(len: usize, ones: bool) -> WahBitmap {
    let group = if ones { GROUP_MASK } else { 0 };
    let mut words = Vec::new();
    let mut remaining = len.div_ceil(GROUP_BITS) as u64;
    while remaining > 0 {
        let take = remaining.min(u64::from(MAX_FILL)) as u32;
        push_fill_or_literals(&mut words, group, take);
        remaining -= u64::from(take);
    }
    let mut out = WahBitmap { words, len };
    out.mask_tail();
    out
}

/// The threshold run-merge core: walks every operand's runs in lockstep,
/// applies the two absorbing skips described on [`threshold_k`], and
/// hands `(group value, aligned group count)` stretches to `sink`.
/// Callers guarantee `2 ≤ k < n`.
fn merge_threshold(operands: &[&WahBitmap], k: usize, mut sink: impl FnMut(u32, u32)) {
    let n = operands.len();
    assert!(
        n <= bindex_bitvec::kernels::MAX_THRESHOLD_FAN_IN,
        "threshold fan-in {n} exceeds the kernel maximum {}",
        bindex_bitvec::kernels::MAX_THRESHOLD_FAN_IN
    );
    let levels = (usize::BITS - n.leading_zeros()) as usize;
    let ngroups = operands[0].len.div_ceil(GROUP_BITS) as u64;
    let mut cursors: Vec<Cursor<'_>> = operands.iter().map(|w| Cursor::new(&w.words)).collect();
    let mut left = ngroups;
    while left > 0 {
        let mut take = u32::MAX;
        let mut ones_fills = 0usize;
        let mut ones_span = u32::MAX;
        let mut zero_fills = 0usize;
        let mut zero_span = u32::MAX;
        for c in cursors.iter() {
            take = take.min(c.remaining);
            if c.value == GROUP_MASK {
                ones_fills += 1;
                ones_span = ones_span.min(c.remaining);
            } else if c.value == 0 {
                zero_fills += 1;
                zero_span = zero_span.min(c.remaining);
            }
        }
        let span = if ones_fills >= k {
            // At least k cursors sit in one-runs: the result is pinned at
            // ones until the shortest of them ends.
            let span = u64::from(ones_span).min(left) as u32;
            sink(GROUP_MASK, span);
            span
        } else if n - zero_fills < k {
            // Fewer than k cursors can still contribute a set bit: pinned
            // at zeros until the shortest zero-run ends.
            let span = u64::from(zero_span).min(left) as u32;
            sink(0, span);
            span
        } else {
            // Every cursor's value is constant for `take` aligned groups,
            // so one bit-sliced counter evaluation covers the stretch.
            let span = u64::from(take).min(left) as u32;
            sink(threshold_group(&cursors, k as u32, levels), span);
            span
        };
        for c in cursors.iter_mut() {
            c.advance(span);
        }
        left -= u64::from(span);
    }
}

/// Bit-sliced "count ≥ k" over the cursors' current 31-bit group values:
/// the same counter-ladder / borrow-chain construction as the dense
/// kernels, carried in `u32` slices.
fn threshold_group(cursors: &[Cursor<'_>], k: u32, levels: usize) -> u32 {
    let mut cnt = [0u32; 8];
    for c in cursors {
        let mut carry = c.value;
        for row in cnt.iter_mut().take(levels) {
            let s = *row ^ carry;
            carry &= *row;
            *row = s;
        }
    }
    let mut borrow = 0u32;
    for (lvl, &row) in cnt.iter().enumerate().take(levels) {
        let kmask = if (k >> lvl) & 1 == 1 { !0u32 } else { 0 };
        borrow = (!row & kmask) | ((!row | kmask) & borrow);
    }
    !borrow & GROUP_MASK
}

fn check_kary(operands: &[&WahBitmap]) -> usize {
    let first = operands
        .first()
        .expect("k-ary WAH kernel needs at least one operand");
    for op in &operands[1..] {
        assert_eq!(
            first.len, op.len,
            "WAH length mismatch: {} vs {}",
            first.len, op.len
        );
    }
    first.len
}

/// One operand's decode state inside the lockstep merge: the current run's
/// group value (fills expand to `0`/`GROUP_MASK`) and how many groups of
/// it remain before the next word must be decoded.
struct Cursor<'a> {
    words: &'a [u32],
    idx: usize,
    value: u32,
    remaining: u32,
}

impl<'a> Cursor<'a> {
    fn new(words: &'a [u32]) -> Self {
        let mut c = Self {
            words,
            idx: 0,
            value: 0,
            remaining: 0,
        };
        c.decode();
        c
    }

    /// Decodes the next word. An exhausted operand parks on an unbounded
    /// zero run — equal-length operands only reach it once every real
    /// group has been merged, so the padding is never observed.
    #[inline]
    fn decode(&mut self) {
        match self.words.get(self.idx) {
            Some(&w) => {
                self.idx += 1;
                if w & FILL_FLAG != 0 {
                    self.value = if w & FILL_VALUE != 0 { GROUP_MASK } else { 0 };
                    self.remaining = w & MAX_FILL;
                } else {
                    self.value = w;
                    self.remaining = 1;
                }
            }
            None => {
                self.value = 0;
                self.remaining = u32::MAX;
            }
        }
    }

    /// Consumes `n` groups, decoding across run boundaries as needed.
    #[inline]
    fn advance(&mut self, mut n: u32) {
        while n >= self.remaining {
            n -= self.remaining;
            self.decode();
        }
        self.remaining -= n;
    }
}

/// How many bits of a run the current decode position has left. Used by
/// [`SegmentCursor`] only; the lockstep merge keeps group granularity.
#[derive(Clone, Copy, Debug)]
enum RunValue {
    Zeros,
    Ones,
    Literal(u32),
}

/// A sequential window decoder over one WAH bitmap: emits consecutive
/// word-aligned bit windows (`[lo, hi)`) as dense [`BitVec`]s without ever
/// materializing the whole bitmap — the compressed operand's entry point
/// into segment-at-a-time execution, where a query touches one
/// cache-sized segment of every operand per step.
///
/// The cursor owns its bitmap (`Arc`-shared with whatever cache served
/// it) and decodes forward: asking for ascending windows costs O(runs
/// overlapping the window) each. Asking for a window *before* the current
/// position rewinds to the start and re-decodes — correct, but linear in
/// the runs skipped, so callers should walk segments in order.
#[derive(Debug)]
pub struct SegmentCursor {
    bitmap: Arc<WahBitmap>,
    /// Next encoded word to decode.
    idx: usize,
    /// Current run covers bits `run_start..run_end` (absolute).
    run_start: usize,
    run_end: usize,
    run: RunValue,
    /// Next undelivered bit (absolute); `run_start <= pos` once decoding
    /// has begun.
    pos: usize,
}

impl SegmentCursor {
    /// Wraps a shared WAH bitmap for sequential window decoding.
    pub fn new(bitmap: Arc<WahBitmap>) -> Self {
        Self {
            bitmap,
            idx: 0,
            run_start: 0,
            run_end: 0,
            run: RunValue::Zeros,
            pos: 0,
        }
    }

    /// Number of bits in the underlying bitmap.
    #[inline]
    pub fn len(&self) -> usize {
        self.bitmap.len
    }

    /// `true` if the underlying bitmap holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bitmap.len == 0
    }

    /// The shared bitmap behind this cursor.
    pub fn bitmap(&self) -> &Arc<WahBitmap> {
        &self.bitmap
    }

    /// Decodes bits `lo..hi` into an owned dense bitmap of `hi - lo` bits.
    /// The window must be word-aligned the same way a
    /// [`BitVec::view_range`] segment is: `lo` on a 64-bit boundary, `hi`
    /// on one or at the bitmap's end.
    ///
    /// # Panics
    /// Panics if the window is out of range or misaligned.
    pub fn window(&mut self, lo: usize, hi: usize) -> BitVec {
        let len = self.bitmap.len;
        assert!(
            lo <= hi && hi <= len,
            "window {lo}..{hi} out of range (len {len})"
        );
        assert!(
            lo.is_multiple_of(u64::BITS as usize),
            "window start {lo} must be word-aligned"
        );
        assert!(
            hi.is_multiple_of(u64::BITS as usize) || hi == len,
            "window end {hi} must be word-aligned or the bitmap end"
        );
        if lo < self.pos {
            // Rewind: re-decode from the first encoded word.
            self.idx = 0;
            self.run_start = 0;
            self.run_end = 0;
            self.run = RunValue::Zeros;
        }
        self.pos = lo;
        let mut words = vec![0u64; words_for(hi - lo)];
        while self.pos < hi {
            if self.pos >= self.run_end {
                self.decode();
                continue;
            }
            let end = self.run_end.min(hi);
            match self.run {
                RunValue::Zeros => {}
                RunValue::Ones => set_ones(&mut words, self.pos - lo, end - lo),
                RunValue::Literal(g) => {
                    // The literal run is exactly one 31-bit group starting
                    // at `run_start`; emit its `pos..end` sub-range, which
                    // lands on at most two output words.
                    let shift = self.pos - self.run_start;
                    let nbits = end - self.pos;
                    let v = (u64::from(g) >> shift) & ((1u64 << nbits) - 1);
                    let off = self.pos - lo;
                    words[off / 64] |= v << (off % 64);
                    let spill = 64 - (off % 64);
                    if nbits > spill {
                        words[off / 64 + 1] |= v >> spill;
                    }
                }
            }
            self.pos = end;
        }
        // `from_words` re-masks the tail, so a dirty final literal group
        // can never leak bits past `hi` into the window.
        BitVec::from_words(words, hi - lo)
    }

    /// Decodes the next encoded word into the current-run fields. An
    /// exhausted bitmap parks on an unbounded zero run (the encoding's
    /// groups always cover `len`, so overrun is defensive only).
    fn decode(&mut self) {
        self.run_start = self.run_end;
        match self.bitmap.words.get(self.idx) {
            Some(&w) => {
                self.idx += 1;
                if w & FILL_FLAG != 0 {
                    let span = (w & MAX_FILL) as usize * GROUP_BITS;
                    self.run = if w & FILL_VALUE != 0 {
                        RunValue::Ones
                    } else {
                        RunValue::Zeros
                    };
                    self.run_end = self.run_start + span;
                } else {
                    self.run = RunValue::Literal(w & GROUP_MASK);
                    self.run_end = self.run_start + GROUP_BITS;
                }
            }
            None => {
                self.run = RunValue::Zeros;
                self.run_end = usize::MAX;
            }
        }
    }
}

/// Algebraic structure of a fold operator, enabling run skips beyond the
/// basic lockstep: `absorbing` (`a op x = a` for every `x`) lets a single
/// run pin the result across its whole width; `identity` (`e op x = x`)
/// lets the merge stream one operand's runs verbatim while every other
/// operand sits in an identity fill.
#[derive(Clone, Copy)]
struct OpAlgebra {
    absorbing: Option<u32>,
    identity: Option<u32>,
}

const AND_ALGEBRA: OpAlgebra = OpAlgebra {
    absorbing: Some(0),
    identity: Some(GROUP_MASK),
};
const OR_ALGEBRA: OpAlgebra = OpAlgebra {
    absorbing: Some(GROUP_MASK),
    identity: Some(0),
};
const XOR_ALGEBRA: OpAlgebra = OpAlgebra {
    absorbing: None,
    identity: Some(0),
};
/// `x ∧ ¬y` is neither commutative nor associative, so no element is
/// absorbing or identity for *both* sides; it runs on the plain lockstep.
const ANDNOT_ALGEBRA: OpAlgebra = OpAlgebra {
    absorbing: None,
    identity: None,
};

/// The shared run-merging core: walks every operand's runs in lockstep and
/// hands the folded group value plus the number of aligned groups it
/// covers to `sink`, in O(total runs) independent of how many groups the
/// fills span. The operator's [`OpAlgebra`] unlocks two further skips:
///
/// * an operand in an **absorbing** run pins the result for that run's
///   whole width — the other operands' literals are hopped over unfolded;
/// * when every operand but one sits in an **identity** fill, the active
///   operand's runs are streamed to the sink verbatim, with no per-group
///   folding at all (the dominant case for ORs of sparse bitmaps).
fn merge_groups(
    operands: &[&WahBitmap],
    op: impl Fn(u32, u32) -> u32,
    algebra: OpAlgebra,
    mut sink: impl FnMut(u32, u32),
) {
    let ngroups = operands[0].len.div_ceil(GROUP_BITS) as u64;
    let mut cursors: Vec<Cursor<'_>> = operands.iter().map(|w| Cursor::new(&w.words)).collect();
    let mut left = ngroups;
    while left > 0 {
        let (first, rest) = cursors.split_first_mut().expect("at least one operand");
        let mut take = first.remaining;
        let mut acc = first.value;
        let mut idle_span = u32::MAX;
        let mut active = 0usize;
        let mut active_idx = 0usize;
        if algebra.identity == Some(first.value) {
            idle_span = first.remaining;
        } else {
            active = 1;
        }
        for (i, c) in rest.iter().enumerate() {
            take = take.min(c.remaining);
            acc = op(acc, c.value) & GROUP_MASK;
            if algebra.identity == Some(c.value) {
                idle_span = idle_span.min(c.remaining);
            } else {
                active += 1;
                active_idx = i + 1;
            }
        }
        if algebra.absorbing == Some(acc) {
            // The fold is pinned at the absorbing element for as long as
            // any operand's current run keeps producing it.
            for c in cursors.iter() {
                if c.value == acc {
                    take = take.max(c.remaining);
                }
            }
            let take = u64::from(take).min(left) as u32;
            sink(acc, take);
            for c in cursors.iter_mut() {
                c.advance(take);
            }
            left -= u64::from(take);
            continue;
        }
        if active <= 1 && algebra.identity.is_some() && idle_span > take {
            // At most one operand is contributing; stream its runs
            // verbatim while the rest stay parked in identity fills.
            let span = u64::from(idle_span).min(left) as u32;
            let a = &mut cursors[active_idx];
            let mut emitted = 0u32;
            while emitted < span {
                let m = a.remaining.min(span - emitted);
                sink(a.value, m);
                a.advance(m);
                emitted += m;
            }
            for (i, c) in cursors.iter_mut().enumerate() {
                if i != active_idx {
                    c.advance(emitted);
                }
            }
            left -= u64::from(emitted);
            continue;
        }
        let take = u64::from(take).min(left) as u32;
        sink(acc, take);
        for c in cursors.iter_mut() {
            c.advance(take);
        }
        left -= u64::from(take);
    }
}

/// K-ary fold producing a compressed result.
fn fold_groups(
    operands: &[&WahBitmap],
    op: impl Fn(u32, u32) -> u32,
    algebra: OpAlgebra,
) -> WahBitmap {
    let len = check_kary(operands);
    let mut words = Vec::new();
    merge_groups(operands, op, algebra, |v, count| {
        push_fill_or_literals(&mut words, v, count);
    });
    let mut out = WahBitmap { words, len };
    out.mask_tail();
    out
}

/// K-ary fold producing only the population count of the (virtual) result.
fn count_groups(
    operands: &[&WahBitmap],
    op: impl Fn(u32, u32) -> u32,
    algebra: OpAlgebra,
) -> usize {
    let len = check_kary(operands);
    let ngroups = len.div_ceil(GROUP_BITS);
    let tail_mask = tail_mask(len);
    let mut ones = 0usize;
    let mut g = 0usize;
    merge_groups(operands, op, algebra, |v, count| {
        let count = count as usize;
        let covers_tail = g + count == ngroups;
        if v == GROUP_MASK {
            ones += GROUP_BITS * count;
            if covers_tail {
                ones -= GROUP_BITS - tail_mask.count_ones() as usize;
            }
        } else if v != 0 {
            // A non-fill value only ever covers one group per step, but
            // count it generally; only the final group needs the tail mask.
            let last = if covers_tail { v & tail_mask } else { v };
            ones += v.count_ones() as usize * (count - 1) + last.count_ones() as usize;
        }
        g += count;
    });
    debug_assert_eq!(g, ngroups, "operands cover all groups");
    ones
}

/// Mask selecting the valid bits of the final group.
#[inline]
fn tail_mask(len: usize) -> u32 {
    let rem = len % GROUP_BITS;
    if rem == 0 {
        GROUP_MASK
    } else {
        (1u32 << rem) - 1
    }
}

/// Extracts 31-bit group `g` from canonical packed 64-bit words (the tail
/// group is implicitly zero-padded by the canonical-form invariant).
#[inline]
fn extract_group(words: &[u64], g: usize) -> u32 {
    let bitpos = g * GROUP_BITS;
    let w = bitpos / 64;
    let off = bitpos % 64;
    let mut v = words[w] >> off;
    if off > 64 - GROUP_BITS && w + 1 < words.len() {
        v |= words[w + 1] << (64 - off);
    }
    (v as u32) & GROUP_MASK
}

/// ORs a 31-bit group into packed 64-bit words at bit offset `bitpos`.
/// Bits shifted past the final word are dropped (the caller masks the tail).
#[inline]
fn write_group(words: &mut [u64], bitpos: usize, group: u32) {
    let w = bitpos / 64;
    let off = bitpos % 64;
    words[w] |= u64::from(group) << off;
    if off > 64 - GROUP_BITS && w + 1 < words.len() {
        words[w + 1] |= u64::from(group) >> (64 - off);
    }
}

/// Sets bits `start..end` (end exclusive) in packed 64-bit words.
fn set_ones(words: &mut [u64], start: usize, end: usize) {
    if start >= end {
        return;
    }
    let (ws, we) = (start / 64, (end - 1) / 64);
    let lo = !0u64 << (start % 64);
    let hi = !0u64 >> (63 - (end - 1) % 64);
    if ws == we {
        words[ws] |= lo & hi;
    } else {
        words[ws] |= lo;
        for w in &mut words[ws + 1..we] {
            *w = !0;
        }
        words[we] |= hi;
    }
}

/// Appends one group, merging into a trailing fill when possible.
fn push_group(words: &mut Vec<u32>, group: u32) {
    let fill = if group == 0 {
        Some(false)
    } else if group == GROUP_MASK {
        Some(true)
    } else {
        None
    };
    match fill {
        None => words.push(group),
        Some(f) => {
            let fv = if f { FILL_VALUE } else { 0 };
            if let Some(last) = words.last_mut() {
                if *last & (FILL_FLAG | FILL_VALUE) == (FILL_FLAG | fv)
                    && *last & MAX_FILL < MAX_FILL
                {
                    *last += 1;
                    return;
                }
            }
            words.push(FILL_FLAG | fv | 1);
        }
    }
}

/// Appends `count` copies of a group value (specialized for fills).
fn push_fill_or_literals(words: &mut Vec<u32>, group: u32, count: u32) {
    if group == 0 || group == GROUP_MASK {
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(MAX_FILL);
            // Try merging into trailing fill first.
            let fv = if group == GROUP_MASK { FILL_VALUE } else { 0 };
            if let Some(last) = words.last_mut() {
                if *last & (FILL_FLAG | FILL_VALUE) == (FILL_FLAG | fv) {
                    let room = MAX_FILL - (*last & MAX_FILL);
                    let add = take.min(room);
                    *last += add;
                    remaining -= add;
                    if add > 0 {
                        continue;
                    }
                }
            }
            words.push(FILL_FLAG | fv | take);
            remaining -= take;
        }
    } else {
        for _ in 0..count {
            words.push(group);
        }
    }
}

/// Payload of a [`Run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunKind {
    /// Consecutive groups all-zero (`false`) or all-one (`true`).
    Fill(bool),
    /// One verbatim 31-bit group.
    Literal(u32),
}

/// One encoded run of a WAH bitmap: a [`RunKind`] and the number of 31-bit
/// groups it covers (always ≥ 1; exactly 1 for literals).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// What the run holds.
    pub kind: RunKind,
    /// Number of groups covered.
    pub count: u32,
}

struct RunIter<'a> {
    words: std::slice::Iter<'a, u32>,
}

impl<'a> RunIter<'a> {
    fn new(words: &'a [u32]) -> Self {
        Self {
            words: words.iter(),
        }
    }
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let &w = self.words.next()?;
        Some(if w & FILL_FLAG != 0 {
            Run {
                kind: RunKind::Fill(w & FILL_VALUE != 0),
                count: w & MAX_FILL,
            }
        } else {
            Run {
                kind: RunKind::Literal(w & GROUP_MASK),
                count: 1,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(len: usize, step: usize) -> BitVec {
        BitVec::from_fn(len, |i| i % step == 0)
    }

    #[test]
    fn roundtrip_various_shapes() {
        for bits in [
            BitVec::zeros(0),
            BitVec::zeros(1),
            BitVec::ones(1),
            BitVec::zeros(31),
            BitVec::ones(31),
            BitVec::zeros(32),
            BitVec::ones(1000),
            sparse(10_000, 317),
            sparse(10_000, 2),
            BitVec::from_fn(500, |i| (i / 31) % 2 == 0),
        ] {
            let wah = WahBitmap::from_bitvec(&bits);
            assert_eq!(wah.to_bitvec(), bits);
            assert_eq!(wah.count_ones(), bits.count_ones());
        }
    }

    #[test]
    fn segment_cursor_windows_reassemble_the_bitmap() {
        let shapes = [
            BitVec::zeros(100_000),
            BitVec::ones(100_000),
            sparse(100_000, 317),
            sparse(100_000, 2),
            BitVec::from_fn(100_000, |i| (i / 31) % 2 == 0),
            BitVec::from_fn(100_000, |i| (i * 2_654_435_761) % 5 == 0),
            sparse(64 * 1024, 999), // len a multiple of 64
            sparse(64 * 1024 + 1, 999),
        ];
        for bits in &shapes {
            let wah = Arc::new(WahBitmap::from_bitvec(bits));
            for seg_bits in [512usize, 4096, 1 << 17, 1 << 20] {
                let mut cursor = SegmentCursor::new(Arc::clone(&wah));
                let mut lo = 0;
                while lo < bits.len() {
                    let hi = (lo + seg_bits).min(bits.len());
                    let window = cursor.window(lo, hi);
                    let mut want = BitVec::from_fn(hi - lo, |i| bits.get(lo + i));
                    assert_eq!(window, want, "len {} seg {seg_bits} {lo}..{hi}", bits.len());
                    // Re-reading the same window rewinds and still agrees.
                    want = cursor.window(lo, hi);
                    assert_eq!(window, want, "rewind {lo}..{hi}");
                    lo = hi;
                }
            }
        }
    }

    #[test]
    fn segment_cursor_random_access_rewinds() {
        let bits = sparse(50_000, 13);
        let wah = Arc::new(WahBitmap::from_bitvec(&bits));
        let mut cursor = SegmentCursor::new(wah);
        // Jump to a late window, then back to an early one.
        let late = cursor.window(32_768, 40_960);
        assert_eq!(late, BitVec::from_fn(8192, |i| bits.get(32_768 + i)));
        let early = cursor.window(0, 8192);
        assert_eq!(early, BitVec::from_fn(8192, |i| bits.get(i)));
        assert_eq!(cursor.len(), 50_000);
        assert!(!cursor.is_empty());
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn segment_cursor_rejects_misaligned_windows() {
        let wah = Arc::new(WahBitmap::from_bitvec(&sparse(1000, 3)));
        let _ = SegmentCursor::new(wah).window(31, 62);
    }

    #[test]
    fn sparse_bitmap_compresses() {
        let bits = sparse(1_000_000, 10_000);
        let wah = WahBitmap::from_bitvec(&bits);
        assert!(
            wah.compressed_bytes() < 1_000_000 / 8 / 10,
            "WAH size {} bytes",
            wah.compressed_bytes()
        );
    }

    #[test]
    fn binary_ops_match_bitvec() {
        let a = sparse(5000, 7);
        let b = BitVec::from_fn(5000, |i| i % 11 == 3 || i < 200);
        let wa = WahBitmap::from_bitvec(&a);
        let wb = WahBitmap::from_bitvec(&b);
        assert_eq!(wa.and(&wb).to_bitvec(), &a & &b);
        assert_eq!(wa.or(&wb).to_bitvec(), &a | &b);
        assert_eq!(wa.xor(&wb).to_bitvec(), &a ^ &b);
    }

    #[test]
    fn not_respects_length() {
        for len in [1usize, 30, 31, 32, 62, 63, 1000] {
            let a = sparse(len, 3);
            let wa = WahBitmap::from_bitvec(&a);
            assert_eq!(wa.not().to_bitvec(), a.complement(), "len {len}");
            assert_eq!(wa.not().count_ones(), len - a.count_ones());
        }
    }

    #[test]
    fn double_not_is_identity() {
        let a = BitVec::from_fn(777, |i| i % 5 != 0);
        let wa = WahBitmap::from_bitvec(&a);
        assert_eq!(wa.not().not().to_bitvec(), a);
    }

    #[test]
    fn ops_on_fills() {
        let zeros = WahBitmap::from_bitvec(&BitVec::zeros(100_000));
        let ones = WahBitmap::from_bitvec(&BitVec::ones(100_000));
        assert_eq!(zeros.or(&ones).count_ones(), 100_000);
        assert_eq!(zeros.and(&ones).count_ones(), 0);
        assert_eq!(ones.xor(&ones).count_ones(), 0);
        // results stay compressed
        assert!(zeros.or(&ones).compressed_bytes() <= 8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = WahBitmap::from_bitvec(&BitVec::zeros(10));
        let b = WahBitmap::from_bitvec(&BitVec::zeros(11));
        let _ = a.and(&b);
    }

    #[test]
    #[should_panic(expected = "at least one operand")]
    fn empty_operand_list_panics() {
        let _ = and_all(&[]);
    }

    #[test]
    fn kary_matches_pairwise() {
        let owned: Vec<BitVec> = (0..7)
            .map(|k| BitVec::from_fn(4321, |i| (i * 2654435761 + k * 977) % 13 < 2))
            .collect();
        let wahs: Vec<WahBitmap> = owned.iter().map(WahBitmap::from_bitvec).collect();
        let ops: Vec<&WahBitmap> = wahs.iter().collect();
        let fold = |f: fn(&WahBitmap, &WahBitmap) -> WahBitmap| {
            let mut acc = wahs[0].clone();
            for w in &wahs[1..] {
                acc = f(&acc, w);
            }
            acc
        };
        assert_eq!(and_all(&ops), fold(WahBitmap::and));
        assert_eq!(or_all(&ops), fold(WahBitmap::or));
        assert_eq!(xor_all(&ops), fold(WahBitmap::xor));
        assert_eq!(and_all(&[&wahs[0]]), wahs[0]);
    }

    /// The `=` chain of RangeEval-Opt with every step kind, complemented
    /// and masked, at ragged lengths: same bits as the dense fold, and
    /// the canonical encoding of them.
    #[test]
    fn fold_matches_the_dense_fold() {
        for len in [0usize, 1, 31, 62, 64, 100, 4097] {
            let owned: Vec<BitVec> = (0..6)
                .map(|k| BitVec::from_fn(len, |i| (i / 97 + k) % 3 == 0 || i % (11 + k) == 0))
                .collect();
            let wahs: Vec<WahBitmap> = owned.iter().map(WahBitmap::from_bitvec).collect();
            let program = Fold {
                seed: None,
                steps: vec![
                    FoldStep::And(0usize),
                    FoldStep::Or(1),
                    FoldStep::AndNot(2),
                    FoldStep::AndXor(3, 4),
                ],
                complement: true,
                mask: Some(5),
            };
            let want = bindex_bitvec::kernels::fold(len, &program.map(|&i| &owned[i]));
            let got = fold(len, &program.map(|&i| &wahs[i]));
            assert_eq!(got, WahBitmap::from_bitvec(&want), "len {len}");
            assert_eq!(got.count_ones(), want.count_ones(), "len {len}");
            // No operand at all: the constant functions.
            let ones = fold(len, &Fold::default());
            assert_eq!(
                ones,
                WahBitmap::from_bitvec(&BitVec::ones(len)),
                "len {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fold_rejects_mismatched_lengths() {
        let a = WahBitmap::from_bitvec(&BitVec::zeros(10));
        let b = WahBitmap::from_bitvec(&BitVec::zeros(11));
        let program = Fold {
            seed: Some(&a),
            steps: vec![FoldStep::And(&b)],
            ..Fold::default()
        };
        let _ = fold(10, &program);
    }

    #[test]
    fn fused_counts_match_materialized() {
        for len in [1usize, 31, 62, 100, 4096] {
            let owned: Vec<BitVec> = (0..5)
                .map(|k| BitVec::from_fn(len, |i| (i * 31 + k * 7) % 9 < 3))
                .collect();
            let wahs: Vec<WahBitmap> = owned.iter().map(WahBitmap::from_bitvec).collect();
            let ops: Vec<&WahBitmap> = wahs.iter().collect();
            assert_eq!(count_and(&ops), and_all(&ops).count_ones(), "len {len}");
            assert_eq!(count_or(&ops), or_all(&ops).count_ones(), "len {len}");
            assert_eq!(count_xor(&ops), xor_all(&ops).count_ones(), "len {len}");
            assert_eq!(
                count_and_not(&wahs[0], &wahs[1]),
                and_not(&wahs[0], &wahs[1]).count_ones(),
                "len {len}"
            );
        }
    }

    #[test]
    fn threshold_matches_dense_kernels() {
        for len in [1usize, 31, 62, 100, 4096, 10_000] {
            let owned: Vec<BitVec> = (0..7)
                .map(|k| BitVec::from_fn(len, |i| (i * 2654435761 + k * 977) % 13 < 3))
                .collect();
            let wahs: Vec<WahBitmap> = owned.iter().map(WahBitmap::from_bitvec).collect();
            let ops: Vec<&WahBitmap> = wahs.iter().collect();
            let dense: Vec<&BitVec> = owned.iter().collect();
            for k in 0..=8 {
                let want = bindex_bitvec::kernels::threshold_k(&dense, k);
                assert_eq!(threshold_k(&ops, k).to_bitvec(), want, "len {len} k {k}");
                assert_eq!(
                    count_threshold_k(&ops, k),
                    want.count_ones(),
                    "count len {len} k {k}"
                );
            }
        }
    }

    #[test]
    fn threshold_fill_skips_keep_the_result_compressed() {
        // Three long one-fills + sparse noise: with k = 3 the one-fill
        // skip should pin the overlap without folding the sparse operand;
        // with k = 4 the zero-fill skip dominates.
        let len = 1_000_000;
        let ones_third = BitVec::from_fn(len, |i| i < len / 3);
        let noise = sparse(len, 9973);
        let wahs = [
            WahBitmap::from_bitvec(&ones_third),
            WahBitmap::from_bitvec(&ones_third),
            WahBitmap::from_bitvec(&ones_third),
            WahBitmap::from_bitvec(&noise),
        ];
        let ops: Vec<&WahBitmap> = wahs.iter().collect();
        let got3 = threshold_k(&ops, 3);
        assert!(
            got3.compressed_bytes() < noise.count_ones() * 8,
            "result stays run-compressed: {} bytes",
            got3.compressed_bytes()
        );
        let dense: Vec<BitVec> = wahs.iter().map(WahBitmap::to_bitvec).collect();
        let refs: Vec<&BitVec> = dense.iter().collect();
        for k in [2usize, 3, 4] {
            assert_eq!(
                threshold_k(&ops, k).to_bitvec(),
                bindex_bitvec::kernels::threshold_k(&refs, k),
                "k {k}"
            );
        }
    }

    #[test]
    fn threshold_degenerate_cases() {
        let wahs: Vec<WahBitmap> = (0..3)
            .map(|k| WahBitmap::from_bitvec(&sparse(500, 3 + k)))
            .collect();
        let ops: Vec<&WahBitmap> = wahs.iter().collect();
        assert_eq!(threshold_k(&ops, 0).to_bitvec(), BitVec::ones(500));
        assert_eq!(count_threshold_k(&ops, 0), 500);
        assert_eq!(threshold_k(&ops, 4).to_bitvec(), BitVec::zeros(500));
        assert_eq!(count_threshold_k(&ops, 4), 0);
        assert_eq!(threshold_k(&ops, 1), or_all(&ops));
        assert_eq!(threshold_k(&ops, 3), and_all(&ops));
    }

    #[test]
    #[should_panic(expected = "at least one operand")]
    fn threshold_empty_operand_list_panics() {
        let _ = threshold_k(&[], 1);
    }

    #[test]
    fn and_not_matches_bitvec() {
        let a = sparse(3000, 5);
        let b = sparse(3000, 3);
        let wa = WahBitmap::from_bitvec(&a);
        let wb = WahBitmap::from_bitvec(&b);
        let mut want = a.clone();
        want.and_not_assign(&b);
        assert_eq!(and_not(&wa, &wb).to_bitvec(), want);
    }

    #[test]
    fn bytes_roundtrip() {
        for bits in [
            BitVec::zeros(0),
            sparse(10_000, 37),
            BitVec::ones(65),
            BitVec::from_fn(100, |i| i % 2 == 0),
        ] {
            let wah = WahBitmap::from_bitvec(&bits);
            let bytes = wah.to_bytes();
            let back = WahBitmap::from_bytes(bits.len(), &bytes).unwrap();
            assert_eq!(back, wah);
            assert_eq!(back.to_bitvec(), bits);
        }
    }

    #[test]
    fn from_bytes_rejects_malformed() {
        // Not word-aligned.
        assert!(WahBitmap::from_bytes(31, &[0, 0, 0]).is_err());
        // Zero-length fill word.
        let zero_fill = FILL_FLAG.to_le_bytes();
        assert!(WahBitmap::from_bytes(0, &zero_fill).is_err());
        // Group count disagrees with the bit length.
        let one_literal = 5u32.to_le_bytes();
        assert!(WahBitmap::from_bytes(62, &one_literal).is_err());
        assert!(WahBitmap::from_bytes(31, &one_literal).is_ok());
    }

    #[test]
    fn runs_expose_decomposition() {
        let bits = BitVec::from_fn(31 * 5, |i| (31..62).contains(&i));
        let wah = WahBitmap::from_bitvec(&bits);
        let runs: Vec<Run> = wah.runs().collect();
        assert_eq!(
            runs,
            vec![
                Run {
                    kind: RunKind::Fill(false),
                    count: 1
                },
                Run {
                    kind: RunKind::Fill(true),
                    count: 1
                },
                Run {
                    kind: RunKind::Fill(false),
                    count: 3
                },
            ]
        );
        assert_eq!(runs.iter().map(|r| r.count).sum::<u32>(), 5);
    }

    /// Ops at the `MAX_FILL` run-length boundary, on directly-constructed
    /// bitmaps (a materialized equivalent would be ~4 GiB): everything is
    /// arithmetic on runs, so these are O(1).
    #[test]
    fn max_fill_boundary_ops() {
        let len = MAX_FILL as usize * GROUP_BITS;
        let ones = WahBitmap {
            words: vec![FILL_FLAG | FILL_VALUE | MAX_FILL],
            len,
        };
        let zeros = WahBitmap {
            words: vec![FILL_FLAG | MAX_FILL],
            len,
        };
        assert_eq!(ones.count_ones(), len);
        assert_eq!(zeros.count_ones(), 0);
        assert_eq!(ones.not(), zeros);
        assert_eq!(zeros.not(), ones);
        assert_eq!(ones.and(&zeros), zeros);
        assert_eq!(ones.or(&zeros), ones);
        assert_eq!(ones.xor(&ones), zeros);
        assert_eq!(count_or(&[&ones, &zeros]), len);
        assert_eq!(count_and_not(&ones, &zeros), len);
        // One group past MAX_FILL forces a second fill word.
        let mut words = Vec::new();
        push_fill_or_literals(&mut words, GROUP_MASK, MAX_FILL);
        push_fill_or_literals(&mut words, GROUP_MASK, 2);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0], FILL_FLAG | FILL_VALUE | MAX_FILL);
        assert_eq!(words[1], FILL_FLAG | FILL_VALUE | 2);
        let big = WahBitmap {
            words,
            len: (MAX_FILL as usize + 2) * GROUP_BITS,
        };
        assert_eq!(big.count_ones(), big.len());
        assert_eq!(big.not().count_ones(), 0);
        assert_eq!(big.and(&big), big);
    }

    #[test]
    fn max_fill_partial_tail() {
        // A MAX_FILL ones run that *ends* in a partial tail group.
        let len = (MAX_FILL as usize - 1) * GROUP_BITS + 7;
        let ones = WahBitmap {
            words: vec![FILL_FLAG | FILL_VALUE | (MAX_FILL - 1), (1 << 7) - 1],
            len,
        };
        assert_eq!(ones.count_ones(), len);
        let compl = ones.not();
        assert_eq!(compl.count_ones(), 0);
        assert_eq!(count_xor(&[&ones, &ones]), 0);
        assert_eq!(count_or(&[&ones, &compl]), len);
    }
}
