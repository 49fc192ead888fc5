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
//! One lockstep run merge operates on the compressed form: [`fold`]
//! evaluates a whole Boolean function ([`Fold`]) over its operands' run
//! decompositions in one pass, and [`WahBitmap::and`] / [`WahBitmap::or`] /
//! [`WahBitmap::xor`] / [`WahBitmap::not`] are one-step programs handed to
//! it; [`threshold_k`] drives the same walk with a bit-sliced counter as
//! the per-stretch function. Over each stretch where no operand changes
//! run the function is evaluated once on a 31-bit group, so the work is
//! proportional to the number of *runs* in the operands, not the bit
//! length. What makes a bitmap cheap here is long runs, not few set bits:
//! a range-encoded slot of a clustered or time-ordered column is 10–90 %
//! ones and still a few hundred words, because its ones and its zeros both
//! come in runs of thousands of rows. A RangeEval-Opt predicate over such
//! slots touches those few hundred words per operand where the dense
//! kernels sweep the whole relation.
//!
//! The walk hands each stretch's value and length to what the caller does
//! with it: [`fold`] appends a fill or literals, and [`fold_count`] adds
//! the group's popcount times the length. A count is `fold_count`, not
//! [`WahBitmap::count_ones`] of a `fold` result: it writes no word and
//! allocates nothing, where building the result costs an encoder step per
//! stretch and a growing `Vec`.
//!
//! The merge is compiled, not interpreted. Its lanes — one per operand
//! occurrence, in program order — are parallel arrays (current value,
//! groups left in the run, the next word already loaded) of a length
//! fixed at compile time for up to eight lanes, and `Vec`s of the same
//! code beyond. A lane's role is fixed by its position, so a [`Fold`]
//! compiles into per-lane masks in the same arrays, and a stretch's value
//! is one branch-free pass over values and masks with no index: `p = (p &
//! keep) ^ x` chains an `AndXor`'s operands, `acc = (acc & ((p ^ not) |
//! force)) ^ flip` ANDs each lane in, an `Or` as the AND on complements.
//!
//! Appends stay in the run domain too: [`WahBitmap::extend_from`] reopens
//! the final partial group and encodes only the appended bits, so a
//! time-ordered append costs O(appended) whatever the bitmap's length
//! (Kaser & Lemire, *Sorting improves word-aligned bitmap indexes*), and
//! [`WahBitmap::summary`] computes the storage layer's per-window any/all
//! summary from the runs.

use std::sync::Arc;

use bindex_bitvec::kernels::{Fold, FoldStep};
use bindex_bitvec::{words_for, zeroed_words, BitVec, SlotSummary};

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
        let mut wah = Self {
            words: Vec::new(),
            len: 0,
        };
        wah.extend_from(bits);
        wah
    }

    /// Appends `delta`'s bits after this bitmap's, in the run domain: the
    /// final partial group (if any) is reopened and completed from the
    /// head of `delta`, and only `delta`'s groups are encoded — O(delta)
    /// however long the bitmap already is. Extending a canonical bitmap
    /// (every encoding this module writes) gives exactly
    /// [`WahBitmap::from_bitvec`] of the concatenation, so a stored slot
    /// grown by appends is byte-identical to one rebuilt from scratch.
    pub fn extend_from(&mut self, delta: &BitVec) {
        if delta.is_empty() {
            return;
        }
        let src = delta.words();
        let rem = self.len % GROUP_BITS;
        let mut pos = 0;
        if rem != 0 {
            let open = self.pop_group() & tail_mask(self.len);
            push_group(
                &mut self.words,
                (open | (extract_bits(src, 0) << rem)) & GROUP_MASK,
            );
            pos = GROUP_BITS - rem;
        }
        while pos < delta.len() {
            push_group(&mut self.words, extract_bits(src, pos));
            pos += GROUP_BITS;
        }
        self.len += delta.len();
    }

    /// Removes the final group from the encoding and returns its value
    /// (a fill gives up one group; a literal word is popped).
    fn pop_group(&mut self) -> u32 {
        let last = self
            .words
            .last_mut()
            .expect("a bitmap with a partial group has a word");
        if *last & FILL_FLAG == 0 {
            return self.words.pop().expect("the literal just seen");
        }
        let value = if *last & FILL_VALUE != 0 {
            GROUP_MASK
        } else {
            0
        };
        *last -= 1;
        if *last & MAX_FILL == 0 {
            self.words.pop();
        }
        value
    }

    /// The any/all summary per `window_bits`-bit window that
    /// [`SlotSummary::build_with_window`] computes from the dense form,
    /// computed from the runs instead: a one-fill adds its span to every
    /// window it covers and a literal its popcount to the (at most two)
    /// windows it straddles, so the cost is O(words + windows).
    ///
    /// # Panics
    /// Panics unless `window_bits` is a positive multiple of 64, as
    /// [`SlotSummary::build_with_window`] does.
    pub fn summary(&self, window_bits: usize) -> SlotSummary {
        assert!(
            window_bits > 0 && window_bits.is_multiple_of(u64::BITS as usize),
            "summary window must be a positive multiple of {}",
            u64::BITS
        );
        let n_windows = SlotSummary::windows_for(self.len, window_bits);
        let mut ones = vec![0usize; n_windows];
        let mut pos = 0usize;
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                let span = (w & MAX_FILL) as usize * GROUP_BITS;
                if w & FILL_VALUE != 0 {
                    let end = (pos + span).min(self.len);
                    let mut lo = pos;
                    while lo < end {
                        let hi = ((lo / window_bits + 1) * window_bits).min(end);
                        ones[lo / window_bits] += hi - lo;
                        lo = hi;
                    }
                }
                pos += span;
            } else {
                // Bits past `len` in a (non-canonical) final literal are
                // not the bitmap's.
                let valid = (self.len - pos).min(GROUP_BITS);
                let group = u64::from(w) & ((1u64 << valid) - 1);
                let window = pos / window_bits;
                let split = ((window + 1) * window_bits - pos).min(GROUP_BITS);
                ones[window] += (group & ((1u64 << split) - 1)).count_ones() as usize;
                let spill = group >> split;
                if spill != 0 {
                    ones[window + 1] += spill.count_ones() as usize;
                }
                pos += GROUP_BITS;
            }
        }
        let window_len = |w: usize| ((w + 1) * window_bits).min(self.len) - w * window_bits;
        SlotSummary {
            len: self.len,
            window_bits,
            any: BitVec::from_fn(n_windows, |w| ones[w] > 0),
            all: BitVec::from_fn(n_windows, |w| ones[w] == window_len(w)),
        }
    }

    /// Decompresses back to a [`BitVec`], assembling whole 64-bit words:
    /// fill runs become word-level memset-style strides, literals are OR-ed
    /// in at their bit offset.
    pub fn to_bitvec(&self) -> BitVec {
        let mut words = zeroed_words(words_for(self.len));
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
        self.seeded(vec![FoldStep::And(rhs)])
    }

    /// Bitwise OR on the compressed form.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or(&self, rhs: &Self) -> Self {
        self.seeded(vec![FoldStep::Or(rhs)])
    }

    /// Bitwise XOR on the compressed form.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn xor(&self, rhs: &Self) -> Self {
        let program = Fold {
            steps: vec![FoldStep::AndXor(self, rhs)],
            ..Fold::default()
        };
        fold(self.len, &program)
    }

    /// Bitwise NOT on the compressed form (length-aware).
    pub fn not(&self) -> Self {
        let program = Fold {
            seed: Some(self),
            complement: true,
            ..Fold::default()
        };
        fold(self.len, &program)
    }

    /// `steps` applied in order to `self`, as one [`fold`].
    fn seeded(&self, steps: Vec<FoldStep<&Self>>) -> Self {
        let program = Fold {
            seed: Some(self),
            steps,
            ..Fold::default()
        };
        fold(self.len, &program)
    }
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
    let mut words = Vec::new();
    merge_program(len, program, |group, count| {
        push_fill_or_literals(&mut words, group, count);
    });
    WahBitmap { words, len }
}

/// The number of ones [`fold`] would return, by the same walk, writing no
/// word: each stretch adds its group's popcount times its length, and the
/// final partial group counts only its bits below `len` — the compressed
/// twin of [`bindex_bitvec::kernels::fold_count`].
///
/// # Panics
/// Panics if any operand is not `len` bits long.
#[must_use]
pub fn fold_count(len: usize, program: &Fold<&WahBitmap>) -> usize {
    let mut ones = 0usize;
    merge_program(len, program, |group, count| {
        ones += group.count_ones() as usize * count as usize;
    });
    ones
}

/// `program` compiled over one lane per operand occurrence and merged,
/// each stretch's value handed to `emit`.
fn merge_program(len: usize, program: &Fold<&WahBitmap>, emit: impl FnMut(u32, u32)) {
    let program = LaneFold::new(len, program);
    merge(len, &program.operands, &program, emit);
}

/// What the merge evaluates on each stretch, set up once for the lane
/// storage `V` the lane count picks. A closure over the lanes' values is
/// one ([`threshold_k`]'s).
trait Stretch {
    fn compile<V: PerLane<u32>>(&self) -> impl Fn(&V) -> u32;
}

impl<F: Fn(&[u32]) -> u32> Stretch for F {
    fn compile<V: PerLane<u32>>(&self) -> impl Fn(&V) -> u32 {
        |values| self(values.as_ref())
    }
}

/// A [`Fold`] over one lane per operand occurrence, in [`Fold::operands`]'
/// order — the seed, each step's operands (`AndXor`'s `a` before its
/// `b`), the mask — so each lane's role is fixed by its position.
struct LaneFold<'a> {
    operands: Vec<&'a WahBitmap>,
    roles: Vec<Role>,
    /// XORed into the result: all ones to complement it.
    complement: u32,
    /// All ones when no lane is the mask.
    unmasked: u32,
}

/// What one lane does in the fold.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// ANDs into the accumulator: a seed, an `And` operand, the mask.
    And,
    Or,
    AndNot,
    /// `AndXor`'s `a`: updates nothing, its value taken up by the next lane.
    XorA,
    /// `AndXor`'s `b`: XORed onto the previous lane's value, then ANDed.
    XorB,
}

impl<'a> LaneFold<'a> {
    fn new(len: usize, program: &Fold<&'a WahBitmap>) -> Self {
        let steps = program.steps.iter().flat_map(|step| match *step {
            FoldStep::And(a) => [Some((a, Role::And)), None],
            FoldStep::Or(a) => [Some((a, Role::Or)), None],
            FoldStep::AndNot(a) => [Some((a, Role::AndNot)), None],
            FoldStep::AndXor(a, b) => [Some((a, Role::XorA)), Some((b, Role::XorB))],
        });
        let (operands, roles) = program
            .seed
            .map(|s| (s, Role::And))
            .into_iter()
            .chain(steps.flatten())
            .chain(program.mask.map(|m| (m, Role::And)))
            .inspect(|(w, _)| assert_eq!(len, w.len, "WAH length mismatch: {len} vs {}", w.len))
            .unzip();
        Self {
            operands,
            roles,
            complement: GROUP_MASK * u32::from(program.complement),
            unmasked: GROUP_MASK * u32::from(program.mask.is_none()),
        }
    }
}

impl Stretch for LaneFold<'_> {
    /// The roles as per-lane masks in `V`, each all ones or zero, and per
    /// stretch one pass over the lanes. `p` is the lane's operand (its
    /// value, XORed onto the previous lane's under `keep`) and `(p ^ not)
    /// | force` what it ANDs into the accumulator. An `Or` is that AND on
    /// complements, so the accumulator is carried XORed with the next
    /// lane's `or`: the operand takes this lane's `or` and `flip` the
    /// change to the next lane's. The complement comes before the mask,
    /// and `(acc ^ c) & m` is `(acc & m) ^ (c & m)`, the mask lane leaving
    /// `m` in `p`.
    fn compile<V: PerLane<u32>>(&self) -> impl Fn(&V) -> u32 {
        let n = self.roles.len();
        let is = |role, i: usize| GROUP_MASK * u32::from(self.roles.get(i) == Some(&role));
        let keep = V::from_fn(n, |i| is(Role::XorB, i));
        let not = V::from_fn(n, |i| is(Role::AndNot, i) ^ is(Role::Or, i));
        let force = V::from_fn(n, |i| is(Role::XorA, i));
        let flip = V::from_fn(n, |i| is(Role::Or, i) ^ is(Role::Or, i + 1));
        let start = GROUP_MASK ^ is(Role::Or, 0);
        move |values| {
            let (mut acc, mut p) = (start, 0);
            let lanes = values.as_ref().iter().zip(keep.as_ref());
            let masks = not.as_ref().iter().zip(force.as_ref()).zip(flip.as_ref());
            for ((&x, &keep), ((&not, &force), &flip)) in lanes.zip(masks) {
                p = (p & keep) ^ x;
                acc = (acc & ((p ^ not) | force)) ^ flip;
            }
            acc ^ (self.complement & (p | self.unmasked))
        }
    }
}

/// The lockstep run merge over `operands`, dispatched on their count: up
/// to eight lanes live in arrays whose length the compiler knows, wider
/// merges run the same [`lockstep`] over `Vec`s.
fn merge(len: usize, operands: &[&WahBitmap], group: &impl Stretch, emit: impl FnMut(u32, u32)) {
    match operands.len() {
        0 => lockstep::<[u32; 0], [&[u32]; 0]>(len, operands, group, emit),
        1 => lockstep::<[u32; 1], [&[u32]; 1]>(len, operands, group, emit),
        2 => lockstep::<[u32; 2], [&[u32]; 2]>(len, operands, group, emit),
        3 => lockstep::<[u32; 3], [&[u32]; 3]>(len, operands, group, emit),
        4 => lockstep::<[u32; 4], [&[u32]; 4]>(len, operands, group, emit),
        5 => lockstep::<[u32; 5], [&[u32]; 5]>(len, operands, group, emit),
        6 => lockstep::<[u32; 6], [&[u32]; 6]>(len, operands, group, emit),
        7 => lockstep::<[u32; 7], [&[u32]; 7]>(len, operands, group, emit),
        8 => lockstep::<[u32; 8], [&[u32]; 8]>(len, operands, group, emit),
        _ => lockstep::<Vec<u32>, Vec<&[u32]>>(len, operands, group, emit),
    }
}

/// The merge itself: over each stretch where no lane changes run, `group`
/// maps the lanes' current 31-bit values to the result's, `emit` takes
/// that value and the stretch's length in groups, and every lane advances
/// past the stretch. The final group may be partial: it is emitted on its
/// own, with its bits past `len` clear whatever the function (a
/// complement) or the operands (a dirty stored tail) put there.
fn lockstep<'a, V: PerLane<u32>, W: PerLane<&'a [u32]>>(
    len: usize,
    operands: &[&'a WahBitmap],
    group: &impl Stretch,
    mut emit: impl FnMut(u32, u32),
) {
    let group = group.compile::<V>();
    let mut lanes = Lanes::<V, W>::new(operands);
    let mut left = len.div_ceil(GROUP_BITS) as u64;
    while left > 0 {
        let acc = group(&lanes.value) & GROUP_MASK;
        // Every operand holds its value for `take` more groups; with no
        // operand at all the function is one constant fill.
        let take = u64::from(lanes.stretch).min(left) as u32;
        lanes.advance(take);
        left -= u64::from(take);
        if left == 0 {
            emit(acc, take - 1);
            emit(acc & tail_mask(len), 1);
        } else {
            emit(acc, take);
        }
    }
}

/// "≥ k of the operands set", entirely in the compressed domain: the
/// run-merge counterpart of [`bindex_bitvec::kernels::threshold_k`]
/// (Kaser & Lemire, *Threshold and symmetric functions over bitmaps*).
/// It drives the same lockstep walk as [`fold`]: over each stretch where
/// no operand changes run, **k or more** operands in one-fills pin the
/// result at ones and **more than `n − k`** in zero-fills pin it at zeros
/// without looking at anyone's literals; otherwise one 32-bit bit-sliced
/// counter evaluation covers the whole stretch. Work stays proportional
/// to the operands' *compressed* sizes; nothing is materialized.
///
/// Degenerate thresholds are total: `k = 0` is all ones, `k > n` is all
/// zeros; `k = 1` / `k = n` are the `Or` / `And` [`fold`] programs.
///
/// # Panics
/// Panics on an empty operand list, mismatched lengths, or more than
/// [`bindex_bitvec::kernels::MAX_THRESHOLD_FAN_IN`] operands.
#[must_use]
pub fn threshold_k(operands: &[&WahBitmap], k: usize) -> WahBitmap {
    let (&first, rest) = operands
        .split_first()
        .expect("WAH threshold needs at least one operand");
    let (len, n) = (first.len, operands.len());
    for w in rest {
        assert_eq!(len, w.len, "WAH length mismatch: {len} vs {}", w.len);
    }
    if k == 0 || k > n {
        let constant = Fold {
            complement: k > n,
            ..Fold::default()
        };
        return fold(len, &constant);
    }
    if k == 1 || k == n {
        let step = if k == 1 { FoldStep::Or } else { FoldStep::And };
        return first.seeded(rest.iter().map(|&w| step(w)).collect());
    }
    assert!(
        n <= bindex_bitvec::kernels::MAX_THRESHOLD_FAN_IN,
        "threshold fan-in {n} exceeds the kernel maximum {}",
        bindex_bitvec::kernels::MAX_THRESHOLD_FAN_IN
    );
    let levels = (usize::BITS - n.leading_zeros()) as usize;
    let mut words = Vec::new();
    merge(
        len,
        operands,
        &|values: &[u32]| {
            let (mut one_fills, mut zero_fills) = (0usize, 0usize);
            for &v in values {
                one_fills += usize::from(v == GROUP_MASK);
                zero_fills += usize::from(v == 0);
            }
            if one_fills >= k {
                GROUP_MASK
            } else if n - zero_fills < k {
                0
            } else {
                threshold_group(values, k as u32, levels)
            }
        },
        |group, count| push_fill_or_literals(&mut words, group, count),
    );
    WahBitmap { words, len }
}

/// Bit-sliced "count ≥ k" over the lanes' current 31-bit group values:
/// the same counter-ladder / borrow-chain construction as the dense
/// kernels, carried in `u32` slices.
fn threshold_group(values: &[u32], k: u32, levels: usize) -> u32 {
    let mut cnt = [0u32; 8];
    for &value in values {
        let mut carry = value;
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

/// Storage for one value per lane: an array when the lane count is a
/// compile-time constant, a `Vec` otherwise.
trait PerLane<T>: AsRef<[T]> + AsMut<[T]> {
    fn from_fn(n: usize, f: impl FnMut(usize) -> T) -> Self;
}

impl<T, const N: usize> PerLane<T> for [T; N] {
    fn from_fn(n: usize, f: impl FnMut(usize) -> T) -> Self {
        debug_assert_eq!(n, N);
        std::array::from_fn(f)
    }
}

impl<T> PerLane<T> for Vec<T> {
    fn from_fn(n: usize, f: impl FnMut(usize) -> T) -> Self {
        (0..n).map(f).collect()
    }
}

/// The operands' decode state in the lockstep merge, one entry per lane in
/// each array: the current run's group value (fills expand to
/// `0`/`GROUP_MASK`), how many groups of it remain, the word after it —
/// loaded one step ahead, so ending a run decodes from a register — and
/// the words after that.
struct Lanes<V, W> {
    value: V,
    remaining: V,
    next: V,
    rest: W,
    /// Groups every lane holds its value for: the shortest remaining run
    /// (unbounded with no lane at all). [`Lanes::advance`] takes the
    /// minimum in the pass that updates the runs: built for x86-64-v3, a
    /// pass of its own made a 6- or 7-lane walk 1.2–1.35× slower.
    stretch: u32,
}

/// What an exhausted lane decodes forever: a maximal zero fill. Equal-length
/// operands only reach it once every real group has been merged, so the
/// padding is never observed.
const PARKED: u32 = FILL_FLAG | MAX_FILL;

impl<'a, V: PerLane<u32>, W: PerLane<&'a [u32]>> Lanes<V, W> {
    fn new(operands: &[&'a WahBitmap]) -> Self {
        let n = operands.len();
        let mut rest = W::from_fn(n, |i| operands[i].words.as_slice());
        let next = V::from_fn(n, |i| pop_word(&mut rest.as_mut()[i]));
        let mut lanes = Self {
            value: V::from_fn(n, |_| 0),
            remaining: V::from_fn(n, |_| 0),
            next,
            rest,
            stretch: 0,
        };
        // Every lane starts at the end of an empty run: decode the first
        // words.
        lanes.advance(0);
        lanes
    }

    /// Consumes `take` groups — at most [`Lanes::stretch`], so a lane
    /// either keeps its run or ends it exactly and decodes its next word.
    #[inline]
    fn advance(&mut self, take: u32) {
        let mut stretch = u32::MAX;
        let lanes = self
            .value
            .as_mut()
            .iter_mut()
            .zip(self.remaining.as_mut())
            .zip(self.next.as_mut())
            .zip(self.rest.as_mut());
        for (((value, remaining), next), rest) in lanes {
            if *remaining == take {
                (*value, *remaining) = decode(*next);
                *next = pop_word(rest);
            } else {
                *remaining -= take;
            }
            stretch = stretch.min(*remaining);
        }
        self.stretch = stretch;
    }
}

/// One encoded word as a run: its group value and length in groups.
#[inline]
fn decode(word: u32) -> (u32, u32) {
    if word & FILL_FLAG == 0 {
        (word, 1)
    } else if word & FILL_VALUE != 0 {
        (GROUP_MASK, word & MAX_FILL)
    } else {
        (0, word & MAX_FILL)
    }
}

/// Takes the first word off `words`, or [`PARKED`] when none is left.
#[inline]
fn pop_word(words: &mut &[u32]) -> u32 {
    match words.split_first() {
        Some((&w, tail)) => {
            *words = tail;
            w
        }
        None => PARKED,
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
    /// The window last decoded, and its canonical words.
    decoded: Option<(usize, usize)>,
    words: Vec<u64>,
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
            decoded: None,
            words: Vec::new(),
        }
    }

    /// Decodes bits `lo..hi` into an owned dense bitmap of `hi - lo` bits.
    /// The window must be word-aligned the same way a
    /// [`BitVec::view_range`] segment is: `lo` on a 64-bit boundary, `hi`
    /// on one or at the bitmap's end.
    ///
    /// # Panics
    /// Panics if the window is out of range or misaligned.
    pub fn window(&mut self, lo: usize, hi: usize) -> BitVec {
        BitVec::from_words(self.window_words(lo, hi).to_vec(), hi - lo)
    }

    /// [`SegmentCursor::window`]'s canonical words, decoded into the one
    /// buffer the cursor keeps — so a walk over many windows allocates
    /// once — unless it holds that window already.
    ///
    /// # Panics
    /// Panics if the window is out of range or misaligned.
    pub fn window_words(&mut self, lo: usize, hi: usize) -> &[u64] {
        if self.decoded != Some((lo, hi)) {
            let mut words = std::mem::take(&mut self.words);
            self.decode_window(lo, hi, &mut words);
            self.words = words;
            self.decoded = Some((lo, hi));
        }
        &self.words
    }

    /// The words of the window last decoded (none before the first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Decodes bits `lo..hi` into `words`, overwritten.
    fn decode_window(&mut self, lo: usize, hi: usize, words: &mut Vec<u64>) {
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
        words.clear();
        words.resize(words_for(hi - lo), 0);
        while self.pos < hi {
            if self.pos >= self.run_end {
                self.decode();
                continue;
            }
            let end = self.run_end.min(hi);
            match self.run {
                RunValue::Zeros => {}
                RunValue::Ones => set_ones(words, self.pos - lo, end - lo),
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
        // A dirty final literal group must never leak bits past `hi`.
        if let (Some(last), rem @ 1..) = (words.last_mut(), (hi - lo) % 64) {
            *last &= (1u64 << rem) - 1;
        }
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

/// Extracts the 31 bits starting at `bitpos` (below the bitmap's length)
/// from canonical packed 64-bit words (bits past the length are
/// implicitly zero by the canonical-form invariant).
#[inline]
fn extract_bits(words: &[u64], bitpos: usize) -> u32 {
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

/// Appends one group, merging into a trailing fill when possible: the
/// encoder's per-group step ([`push_fill_or_literals`] with a count of
/// one costs half as much again per group).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(len: usize, step: usize) -> BitVec {
        BitVec::from_fn(len, |i| i % step == 0)
    }

    /// `ops[0] ∘ ops[1] ∘ …` as one fold program, one `step` per operand
    /// after the seed.
    fn chain<'a>(
        ops: &[&'a WahBitmap],
        step: fn(&'a WahBitmap) -> FoldStep<&'a WahBitmap>,
    ) -> WahBitmap {
        ops[0].seeded(ops[1..].iter().map(|&w| step(w)).collect())
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

    /// `to_bitvec` writes into a spare buffer an all-ones bitmap just left
    /// behind (a zero fill is skipped, so the buffer must start zeroed),
    /// at a length past the spare list's 128 KiB floor with a ragged tail.
    #[test]
    fn to_bitvec_never_leaks_a_recycled_bit() {
        let len = (1 << 20) + 5;
        for bits in [
            BitVec::zeros(len),
            sparse(len, 100_003),
            BitVec::from_fn(len, |i| (i / 4096) % 3 == 1 || i + 3 >= len),
        ] {
            let wah = WahBitmap::from_bitvec(&bits);
            // Taken from the list by `zeros`, so the list keeps it when
            // it is dropped; one word longer, so the result's tail word
            // lands on an all-ones word.
            let mut ones = BitVec::zeros(len + 64);
            ones.set_all();
            drop(ones);
            assert_eq!(wah.to_bitvec(), bits);
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
    fn kary_matches_pairwise() {
        let owned: Vec<BitVec> = (0..7)
            .map(|k| BitVec::from_fn(4321, |i| (i * 2654435761 + k * 977) % 13 < 2))
            .collect();
        let wahs: Vec<WahBitmap> = owned.iter().map(WahBitmap::from_bitvec).collect();
        let ops: Vec<&WahBitmap> = wahs.iter().collect();
        let pairwise = |f: fn(&WahBitmap, &WahBitmap) -> WahBitmap| {
            let mut acc = wahs[0].clone();
            for w in &wahs[1..] {
                acc = f(&acc, w);
            }
            acc
        };
        assert_eq!(chain(&ops, FoldStep::And), pairwise(WahBitmap::and));
        assert_eq!(chain(&ops, FoldStep::Or), pairwise(WahBitmap::or));
        let dense: Vec<&BitVec> = owned.iter().collect();
        let xor = bindex_bitvec::kernels::xor_all(&dense);
        assert_eq!(pairwise(WahBitmap::xor), WahBitmap::from_bitvec(&xor));
        assert_eq!(chain(&[&wahs[0]], FoldStep::And), wahs[0]);
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
                let got = threshold_k(&ops, k);
                assert_eq!(got, WahBitmap::from_bitvec(&want), "len {len} k {k}");
                assert_eq!(got.count_ones(), want.count_ones(), "count len {len} k {k}");
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
        assert_eq!(threshold_k(&ops, 0).count_ones(), 500);
        assert_eq!(threshold_k(&ops, 4).to_bitvec(), BitVec::zeros(500));
        assert_eq!(threshold_k(&ops, 4).count_ones(), 0);
        assert_eq!(threshold_k(&ops, 1), chain(&ops, FoldStep::Or));
        assert_eq!(threshold_k(&ops, 3), chain(&ops, FoldStep::And));
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
        assert_eq!(chain(&[&wa, &wb], FoldStep::AndNot).to_bitvec(), want);
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
        assert_eq!(chain(&[&ones, &zeros], FoldStep::Or).count_ones(), len);
        assert_eq!(chain(&[&ones, &zeros], FoldStep::AndNot).count_ones(), len);
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
        assert_eq!(ones.xor(&ones).count_ones(), 0);
        assert_eq!(ones.or(&compl).count_ones(), len);
    }
}
