//! Fused bitmap kernels: a straight-line Boolean function of any number
//! of bitmaps, evaluated in one cache-blocked pass.
//!
//! [`fold`] runs a [`Fold`] program — a seed, a list of `&=`, `|=`,
//! `&= !`, `&= a ^ b` steps, an optional complement and mask, the whole
//! of a RangeEval-Opt query — block by block, so the accumulator block
//! stays L1-resident while every operand word is read exactly once, no
//! operator costs a sweep over the accumulator and no derived bitmap is
//! ever allocated (Kaser & Lemire, *Compressed bitmap indexes: beyond
//! unions and intersections*). [`fold_count`] runs the same block loop
//! and popcounts each finished block instead of storing it: a count of a
//! query writes no foundset. [`threshold_k`] and [`count_threshold_k`]
//! answer "at least `k` of `n`" through a bit-sliced counter network.
//!
//! # One block loop
//!
//! [`fold_into`] and [`fold_count_with`] are the only loops over blocks:
//! they read a program's operands through a closure that gives each
//! one's words — so a program bound once to its operands by handle is
//! re-run on every window of a walk — and keep their block buffers in a
//! caller's [`Scratch`]. `fold` and `fold_count` are them over whole
//! bitmaps or views. The k-ary names [`and_all`], [`or_all`], [`xor_all`]
//! and [`count_and`] are `Fold` programs — a seed plus an `And` or `Or`
//! step per further operand; for XOR, a seedless `AndXor` of two
//! operands, chained — and so are `threshold_k`'s `k = 1` and `k = n`.
//! No product path calls the four: with `threshold_k` they are the five
//! names the benchmark's kernel probe compiles against, and they stay
//! until that probe is pointed at what the product calls (ROADMAP item
//! 1(c)).
//!
//! The inner combine loop runs over fixed-size `[u64; LANES]` arrays
//! (u64x8), which the compiler lowers to vector loads/stores and vector
//! bitwise ops on any target with SIMD (SSE2, AVX2, NEON) without `unsafe`
//! or nightly `std::simd`. Counting accumulates popcounts through a 4-way
//! carry-save adder (the Harley–Seal shape): only every fourth combined
//! word pays a full popcount, the rest fold into `ones`/`twos` carry
//! words.
//!
//! AND/OR/XOR/ANDNOT are lane-independent, so any blocking or unrolling of
//! the same operand walk produces the same words, and the carry-save
//! accumulation is exact integer arithmetic. The word-at-a-time loops these
//! replaced survive only as the reference this module's tests compare
//! against, over operand lengths straddling lane, word and block
//! boundaries, empty and all-ones operands, and segment views.
//!
//! # Panics
//! Every kernel panics on an empty operand list or mismatched operand
//! lengths; bitmaps of one index always share the relation cardinality
//! `N`, so a mismatch is a logic error (matching [`BitVec`]'s own binary
//! operations).

use crate::bitvec::{BitVec, SegmentView};

/// Words per SIMD lane group: `[u64; 8]` is 512 bits, one AVX-512
/// register or two AVX2 / four NEON registers — wide enough
/// that the compiler vectorizes the fixed-size loop on every common
/// target, narrow enough that the ragged tail costs at most 7 scalar ops.
pub const LANES: usize = 8;

/// Words per block: 8 KiB of accumulator, comfortably L1-resident even
/// with an operand stream being pulled through the cache alongside it.
const BLOCK_WORDS: usize = 1024;

/// A word-level binary operation, monomorphized into every kernel loop.
trait WordOp {
    fn apply(a: u64, b: u64) -> u64;
}

struct OpAnd;
struct OpOr;
struct OpXor;
struct OpAndNot;

impl WordOp for OpAnd {
    #[inline(always)]
    fn apply(a: u64, b: u64) -> u64 {
        a & b
    }
}
impl WordOp for OpOr {
    #[inline(always)]
    fn apply(a: u64, b: u64) -> u64 {
        a | b
    }
}
impl WordOp for OpXor {
    #[inline(always)]
    fn apply(a: u64, b: u64) -> u64 {
        a ^ b
    }
}
impl WordOp for OpAndNot {
    #[inline(always)]
    fn apply(a: u64, b: u64) -> u64 {
        a & !b
    }
}
/// `!a & b`: complement the accumulator and mask it, in one step.
struct OpNotAnd;
impl WordOp for OpNotAnd {
    #[inline(always)]
    fn apply(a: u64, b: u64) -> u64 {
        !a & b
    }
}

/// Anything the kernels can fold: a whole [`BitVec`] or a word-aligned
/// [`SegmentView`] of one. Both are canonically masked, so the fold core
/// never needs to re-mask its output.
pub trait KernelOperand {
    /// Number of bits.
    fn len(&self) -> usize;
    /// The canonically masked backing words.
    fn words(&self) -> &[u64];
    /// `true` if the operand holds zero bits.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl KernelOperand for &BitVec {
    fn len(&self) -> usize {
        BitVec::len(self)
    }
    fn words(&self) -> &[u64] {
        BitVec::words(self)
    }
}

impl KernelOperand for SegmentView<'_> {
    fn len(&self) -> usize {
        SegmentView::len(self)
    }
    fn words(&self) -> &[u64] {
        SegmentView::words(self)
    }
}

fn check_operands<T: KernelOperand>(operands: &[T]) -> usize {
    let first = operands
        .first()
        .expect("k-ary kernel needs at least one operand");
    for op in &operands[1..] {
        assert_eq!(
            first.len(),
            op.len(),
            "bitmap length mismatch: {} vs {}",
            first.len(),
            op.len()
        );
    }
    first.len()
}

/// `dst[i] = O::apply(dst[i], src[i])` over `[u64; LANES]` groups the
/// compiler lowers to vector loads, vector bitwise ops, and vector stores;
/// the ragged tail (at most `LANES − 1` words, only ever in the final
/// block) runs word at a time.
///
/// `inline(never)` on this and the other per-block loops is deliberate:
/// inlined into large callers they land in arbitrary codegen-unit contexts
/// where the vectorizer sometimes gives up (measured ~35% throughput swings
/// between identical instantiations). As standalone symbols every
/// instantiation compiles to the same vector loop, and one call per 8 KiB
/// block is free.
#[inline(never)]
fn combine<O: WordOp>(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let split = n - n % LANES;
    let (dst_body, dst_tail) = dst[..n].split_at_mut(split);
    let (src_body, src_tail) = src[..n].split_at(split);
    for (dc, sc) in dst_body
        .chunks_exact_mut(LANES)
        .zip(src_body.chunks_exact(LANES))
    {
        let d: &mut [u64; LANES] = dc.try_into().expect("exact chunk");
        let s: &[u64; LANES] = sc.try_into().expect("exact chunk");
        for l in 0..LANES {
            d[l] = O::apply(d[l], s[l]);
        }
    }
    for (a, &b) in dst_tail.iter_mut().zip(src_tail) {
        *a = O::apply(*a, b);
    }
}

/// `dst[i] = O::apply(a[i], b[i])`: an `AndXor` step's `a ^ b` in one
/// pass, where copy-then-combine would take two. `inline(never)`: see
/// [`combine`].
#[inline(never)]
fn combine2<O: WordOp>(dst: &mut [u64], a: &[u64], b: &[u64]) {
    let n = dst.len();
    let split = n - n % LANES;
    for ((dc, xc), yc) in dst[..split]
        .chunks_exact_mut(LANES)
        .zip(a[..split].chunks_exact(LANES))
        .zip(b[..split].chunks_exact(LANES))
    {
        let d: &mut [u64; LANES] = dc.try_into().expect("exact chunk");
        let x: &[u64; LANES] = xc.try_into().expect("exact chunk");
        let y: &[u64; LANES] = yc.try_into().expect("exact chunk");
        for l in 0..LANES {
            d[l] = O::apply(x[l], y[l]);
        }
    }
    for ((d, &x), &y) in dst[split..n].iter_mut().zip(&a[split..n]).zip(&b[split..n]) {
        *d = O::apply(x, y);
    }
}

/// One carry-save adder step: `(carry, sum)` of three one-bit-per-lane
/// addends — `sum` holds the low bit of `a + b + c` per bit position,
/// `carry` the high bit.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    ((a & b) | ((a ^ b) & c), a ^ b ^ c)
}

/// Popcount of `O::apply(a[i], b[i])` through a lane-wide 4-way carry-save
/// adder (the Harley–Seal accumulation shape): the `ones`/`twos` carry
/// state is a `[u64; LANES]` vector, so each step folds `4 × LANES` words
/// with pure lane-parallel bitwise ops and only every fourth word pays a
/// full popcount. A scalar carry would serialize the loop on the
/// `ones`/`twos` dependency chain; keeping the carries lane-wide lets the
/// compiler run the chain in vector registers. Exact by construction —
/// carry-save addition loses no bits — hence bit-identical to a
/// word-at-a-time sweep. Counting a single bitmap reuses this with `OpOr`
/// and `a == b` (`w | w == w`; [`popcount`]). `inline(never)`: see
/// [`combine`].
#[inline(never)]
fn csa_count_fused<O: WordOp>(a: &[u64], b: &[u64]) -> usize {
    const STEP: usize = 4 * LANES;
    let n = a.len().min(b.len());
    let split = n - n % STEP;
    let mut ones = [0u64; LANES];
    let mut twos = [0u64; LANES];
    // Per-lane popcount accumulator: folding `f.count_ones()` into one
    // scalar inside the lane loop would put a horizontal reduction on the
    // critical path; per-lane sums keep the loop body lane-parallel and
    // cannot overflow (≤ 64 per step into a u64, whatever the slice length).
    let mut fours = [0u64; LANES];
    for (ac, bc) in a[..split]
        .chunks_exact(STEP)
        .zip(b[..split].chunks_exact(STEP))
    {
        let ac: &[u64; STEP] = ac.try_into().expect("exact chunk");
        let bc: &[u64; STEP] = bc.try_into().expect("exact chunk");
        for l in 0..LANES {
            let d0 = O::apply(ac[l], bc[l]);
            let d1 = O::apply(ac[LANES + l], bc[LANES + l]);
            let d2 = O::apply(ac[2 * LANES + l], bc[2 * LANES + l]);
            let d3 = O::apply(ac[3 * LANES + l], bc[3 * LANES + l]);
            let (t1, o1) = csa(ones[l], d0, d1);
            let (t2, o2) = csa(o1, d2, d3);
            let (f, t) = csa(twos[l], t1, t2);
            ones[l] = o2;
            twos[l] = t;
            fours[l] += u64::from(f.count_ones());
        }
    }
    let mut total = 0usize;
    for l in 0..LANES {
        total += 4 * fours[l] as usize
            + 2 * twos[l].count_ones() as usize
            + ones[l].count_ones() as usize;
    }
    for (&x, &y) in a[split..n].iter().zip(&b[split..n]) {
        total += O::apply(x, y).count_ones() as usize;
    }
    total
}

/// `operands` as one [`Fold`] program: the first seeds the accumulator
/// and `step` folds in each of the rest. The caller has run
/// [`check_operands`].
fn chain<'a, T: KernelOperand>(
    operands: &'a [T],
    step: fn(SegmentView<'a>) -> FoldStep<SegmentView<'a>>,
) -> Fold<SegmentView<'a>> {
    let mut views = operands.iter().map(view);
    Fold {
        seed: views.next(),
        steps: views.map(step).collect(),
        ..Fold::default()
    }
}

/// Any operand as the view [`fold`] reads.
fn view<T: KernelOperand>(op: &T) -> SegmentView<'_> {
    SegmentView::from_words(op.words(), op.len())
}

/// AND of all operands: one [`fold`] program, a seed and an `And` step
/// per further operand. Operands are whole bitmaps (`&BitVec`) or
/// word-aligned [`SegmentView`]s.
#[must_use]
pub fn and_all<T: KernelOperand>(operands: &[T]) -> BitVec {
    fold(check_operands(operands), &chain(operands, FoldStep::And))
}

/// OR of all operands: one [`fold`] program, a seed and an `Or` step per
/// further operand.
#[must_use]
pub fn or_all<T: KernelOperand>(operands: &[T]) -> BitVec {
    fold(check_operands(operands), &chain(operands, FoldStep::Or))
}

/// XOR of all operands. [`Fold`] has no step that XORs into the
/// accumulator, but a seedless `AndXor(a, b)` is `a ⊕ b`, so two
/// operands are one [`fold`] and each further operand is one more, over
/// the previous result.
#[must_use]
pub fn xor_all<T: KernelOperand>(operands: &[T]) -> BitVec {
    fn xor(len: usize, a: SegmentView<'_>, b: SegmentView<'_>) -> BitVec {
        let program = Fold {
            steps: vec![FoldStep::AndXor(a, b)],
            ..Fold::default()
        };
        fold(len, &program)
    }
    let len = check_operands(operands);
    let (first, rest) = operands.split_first().expect("checked non-empty");
    let Some((second, rest)) = rest.split_first() else {
        let copy = Fold {
            seed: Some(view(first)),
            ..Fold::default()
        };
        return fold(len, &copy);
    };
    rest.iter()
        .fold(xor(len, view(first), view(second)), |acc, op| {
            xor(len, acc.view(), view(op))
        })
}

/// `|operands[0] ∧ operands[1] ∧ …|` without materializing the result:
/// [`and_all`]'s program through [`fold_count`].
#[must_use]
pub fn count_and<T: KernelOperand>(operands: &[T]) -> usize {
    fold_count(check_operands(operands), &chain(operands, FoldStep::And))
}

/// One accumulator update of a [`Fold`].
#[derive(Debug, Clone, Copy)]
pub enum FoldStep<T> {
    /// `acc &= b`.
    And(T),
    /// `acc |= b`.
    Or(T),
    /// `acc &= !b`.
    AndNot(T),
    /// `acc &= a ^ b`.
    AndXor(T, T),
}

/// A straight-line Boolean function of bitmaps, evaluated by [`fold`] in
/// one pass: the accumulator starts as `seed`, takes every step in order,
/// and is then complemented and/or masked. This is the shape of the
/// paper's RangeEval-Opt listing — a `≤` chain is `And`/`Or` steps over a
/// seed, an `=` chain is `And`/`AndNot`/`AndXor` steps over all ones, and
/// `>`, `≥`, `≠` and the `B_nn` mask are the trailer.
#[derive(Debug, Clone)]
pub struct Fold<T> {
    /// The accumulator's first value; `None` is all ones.
    pub seed: Option<T>,
    /// The updates, applied in order.
    pub steps: Vec<FoldStep<T>>,
    /// Whether the folded accumulator is complemented.
    pub complement: bool,
    /// ANDed in last (after the complement).
    pub mask: Option<T>,
}

/// The constant all-ones function: no seed, no step, no trailer.
impl<T> Default for Fold<T> {
    fn default() -> Self {
        Self {
            seed: None,
            steps: Vec::new(),
            complement: false,
            mask: None,
        }
    }
}

impl<T> Fold<T> {
    /// The same program over operands converted by `f` (an owned handle
    /// to a borrow, a whole bitmap to its segment window).
    pub fn map<'a, U>(&'a self, mut f: impl FnMut(&'a T) -> U) -> Fold<U> {
        match self.try_map(|op| Ok::<U, std::convert::Infallible>(f(op))) {
            Ok(mapped) => mapped,
            Err(never) => match never {},
        }
    }

    /// Every operand, in program order: seed, steps, mask.
    pub fn operands(&self) -> impl Iterator<Item = &T> {
        let steps = self.steps.iter().flat_map(|step| match step {
            FoldStep::And(b) | FoldStep::Or(b) | FoldStep::AndNot(b) => [Some(b), None],
            FoldStep::AndXor(a, b) => [Some(a), Some(b)],
        });
        self.seed.iter().chain(steps.flatten()).chain(&self.mask)
    }

    /// Whether the fold is all zero by its first value alone: it can only
    /// clear bits (no `Or` step, no complement), and its seed — or a
    /// seedless chain's leading `And` operand — has no bit set in `words`.
    pub fn clears_from_zero<'w>(&'w self, words: impl Fn(&'w T) -> &'w [u64]) -> bool {
        let first = match (&self.seed, self.steps.first()) {
            (None, Some(FoldStep::And(b))) => Some(b),
            (seed, _) => seed.as_ref(),
        };
        let clears_only =
            !self.complement && !self.steps.iter().any(|s| matches!(s, FoldStep::Or(_)));
        clears_only && first.is_some_and(|b| words(b).iter().all(|&w| w == 0))
    }

    /// [`Fold::map`] with a conversion that can fail (a slot address to
    /// the bitmap fetched from it): operands are converted in program
    /// order — seed, steps, mask — and the first error ends the walk.
    pub fn try_map<'a, U, E>(
        &'a self,
        mut f: impl FnMut(&'a T) -> Result<U, E>,
    ) -> Result<Fold<U>, E> {
        Ok(Fold {
            seed: self.seed.as_ref().map(&mut f).transpose()?,
            steps: self
                .steps
                .iter()
                .map(|step| {
                    Ok(match step {
                        FoldStep::And(b) => FoldStep::And(f(b)?),
                        FoldStep::Or(b) => FoldStep::Or(f(b)?),
                        FoldStep::AndNot(b) => FoldStep::AndNot(f(b)?),
                        FoldStep::AndXor(a, b) => FoldStep::AndXor(f(a)?, f(b)?),
                    })
                })
                .collect::<Result<_, E>>()?,
            complement: self.complement,
            mask: self.mask.as_ref().map(&mut f).transpose()?,
        })
    }
}

impl<T> Fold<Option<T>> {
    /// The fold with a `None` seed or mask dropped: all ones, which a seed
    /// or a mask leaves out.
    ///
    /// # Panics
    /// Panics if a step's operand is `None`.
    pub fn flatten(self) -> Fold<T> {
        let operand = |b: Option<T>| b.expect("only a seed or a mask may be all ones");
        let steps = self.steps.into_iter().map(|step| match step {
            FoldStep::And(b) => FoldStep::And(operand(b)),
            FoldStep::Or(b) => FoldStep::Or(operand(b)),
            FoldStep::AndNot(b) => FoldStep::AndNot(operand(b)),
            FoldStep::AndXor(a, b) => FoldStep::AndXor(operand(a), operand(b)),
        });
        Fold {
            seed: self.seed.flatten(),
            steps: steps.collect(),
            complement: self.complement,
            mask: self.mask.flatten(),
        }
    }
}

/// `!w` over a block. `inline(never)`: see [`combine`].
#[inline(never)]
fn complement_words(dst: &mut [u64]) {
    for w in dst {
        *w = !*w;
    }
}

/// The block buffers [`fold_into`] and [`fold_count_with`] work in. A
/// caller that runs many folds — a query walking its windows — keeps one,
/// so the buffers are allocated and zeroed once, not on every call.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The accumulator block of a count.
    acc: Vec<u64>,
    /// The `a ^ b` block of an `AndXor` step.
    xor: Vec<u64>,
}

/// `buf` grown to one block, at most once per [`Scratch`].
fn block(buf: &mut Vec<u64>) -> &mut [u64] {
    if buf.len() < BLOCK_WORDS {
        buf.resize(BLOCK_WORDS, 0);
    }
    buf
}

/// Evaluates `program` over `len`-bit operands in a single pass: block by
/// block, the accumulator block is seeded, updated by every step and
/// finished while it sits in L1, so each operand word is read once and
/// each result word is written once, into the one allocation returned.
/// Composing the same function from binary operations would sweep the
/// accumulator through memory once per operator and allocate a temporary
/// per `a ^ b` and per complement — evaluating the whole function at once
/// is the method of Kaser & Lemire, *Compressed bitmap indexes: beyond
/// unions and intersections*.
///
/// `len` is explicit because a program may have no operand at all (all
/// ones, or its complement).
///
/// # Panics
/// Panics if any operand is not `len` bits long.
#[must_use]
pub fn fold<T: KernelOperand>(len: usize, program: &Fold<T>) -> BitVec {
    check_program(len, program);
    let n_words = crate::words_for(len);
    let mut out = crate::spare_words(n_words);
    fold_into(len, program, T::words, &mut Scratch::default(), &mut out);
    BitVec::from_words_unmasked(out, len)
}

/// [`fold`] over operands whose words `words` gives, appended to `out` as
/// `words_for(len)` canonical words. A window of a longer result is
/// appended in place, and a program bound once to its operands by handle
/// is re-run on every window by a `words` that slices them.
///
/// # Panics
/// Panics if `words` gives any operand other than `words_for(len)` words.
pub fn fold_into<'w, T>(
    len: usize,
    program: &'w Fold<T>,
    words: impl Fn(&'w T) -> &'w [u64],
    scratch: &mut Scratch,
    out: &mut Vec<u64>,
) {
    let n_words = crate::words_for(len);
    check_words(n_words, program, &words);
    let (seed, steps) = seed_and_steps(program);
    let (base, mut start) = (out.len(), 0);
    out.reserve(n_words);
    while start < n_words {
        let end = (start + BLOCK_WORDS).min(n_words);
        match seed {
            Some(seed) => out.extend_from_slice(&words(seed)[start..end]),
            None => out.resize(base + end, u64::MAX),
        }
        let acc = &mut out[base + start..base + end];
        run_steps(acc, steps, &words, start, &mut scratch.xor);
        match (program.complement, &program.mask) {
            (true, Some(mask)) => combine::<OpNotAnd>(acc, &words(mask)[start..end]),
            (true, None) => complement_words(acc),
            (false, Some(mask)) => combine::<OpAnd>(acc, &words(mask)[start..end]),
            (false, None) => {}
        }
        start = end;
    }
    // An all-ones seed and an unmasked complement set bits past `len`.
    if let (Some(last), rem @ 1..) = (out.last_mut(), len % 64) {
        *last &= (1 << rem) - 1;
    }
}

/// `fold(len, program).count_ones()` without the result: each 8 KiB
/// accumulator block ends in the carry-save popcount (`csa_count_fused`)
/// — fused with the mask, or its complement-and-mask, or else with a last
/// `And`, `Or` or `AndNot` step, where [`fold`] would store it. An
/// unmasked complement is counted as the block's bits less the ones of
/// what it complements. Bits past `len` (an all-ones seed, an operand
/// view's tail) are cleared before they are counted, so their block fuses
/// no step.
///
/// # Panics
/// Panics if any operand is not `len` bits long.
#[must_use]
pub fn fold_count<T: KernelOperand>(len: usize, program: &Fold<T>) -> usize {
    check_program(len, program);
    fold_count_with(len, program, T::words, &mut Scratch::default())
}

/// [`fold_count`] over operands whose words `words` gives (see
/// [`fold_into`]), its accumulator block in `scratch`.
///
/// # Panics
/// Panics if `words` gives any operand other than `words_for(len)` words.
#[must_use]
pub fn fold_count_with<'w, T>(
    len: usize,
    program: &'w Fold<T>,
    words: impl Fn(&'w T) -> &'w [u64],
    scratch: &mut Scratch,
) -> usize {
    let n_words = crate::words_for(len);
    check_words(n_words, program, &words);
    let (seed, steps) = seed_and_steps(program);
    type Count = fn(&[u64], &[u64]) -> usize;
    let last: Option<(Count, _, _)> = match steps.split_last() {
        _ if program.mask.is_some() => None,
        Some((FoldStep::And(b), rest)) => Some((csa_count_fused::<OpAnd>, b, rest)),
        Some((FoldStep::Or(b), rest)) => Some((csa_count_fused::<OpOr>, b, rest)),
        Some((FoldStep::AndNot(b), rest)) => Some((csa_count_fused::<OpAndNot>, b, rest)),
        _ => None,
    };
    let Scratch { acc: buf, xor } = scratch;
    let buf = block(buf);
    let mut ones = 0;
    let mut start = 0;
    while start < n_words {
        let end = (start + BLOCK_WORDS).min(n_words);
        // The bits of the block below `len`, which a complement counts from.
        let bits = len.min(64 * end) - 64 * start;
        let flip = |counted: usize| match program.complement {
            true => bits - counted,
            false => counted,
        };
        // The block that holds bits past `len` clears them: it fuses no step.
        let fused = last.filter(|_| end <= len / 64);
        ones += match (fused, seed) {
            // A seed and one step: count straight from the two operands.
            (Some((count, b, [])), Some(seed)) => {
                flip(count(&words(seed)[start..end], &words(b)[start..end]))
            }
            _ => {
                let acc = &mut buf[..end - start];
                match seed {
                    Some(seed) => acc.copy_from_slice(&words(seed)[start..end]),
                    None => acc.fill(u64::MAX),
                }
                let run = fused.map_or(steps, |(_, _, rest)| rest);
                run_steps(acc, run, &words, start, xor);
                match (fused, program.complement, &program.mask) {
                    (Some((count, b, _)), ..) => flip(count(acc, &words(b)[start..end])),
                    (_, true, Some(mask)) => {
                        csa_count_fused::<OpNotAnd>(acc, &words(mask)[start..end])
                    }
                    (_, false, Some(mask)) => {
                        csa_count_fused::<OpAnd>(acc, &words(mask)[start..end])
                    }
                    (_, _, None) => {
                        if end == n_words && !len.is_multiple_of(64) {
                            acc[end - start - 1] &= (1u64 << (len % 64)) - 1;
                        }
                        flip(csa_count_fused::<OpOr>(acc, acc))
                    }
                }
            }
        };
        start = end;
    }
    ones
}

/// Checks that every operand of `program` is `len` bits long.
fn check_program<T: KernelOperand>(len: usize, program: &Fold<T>) {
    for op in program.operands() {
        assert_eq!(
            len,
            op.len(),
            "bitmap length mismatch: {len} vs {}",
            op.len()
        );
    }
}

/// Checks that `words` gives every operand of `program` as `n_words` words.
fn check_words<'w, T>(n_words: usize, program: &'w Fold<T>, words: &impl Fn(&'w T) -> &'w [u64]) {
    for op in program.operands() {
        let got = words(op).len();
        assert_eq!(
            n_words, got,
            "bitmap length mismatch: {n_words} vs {got} words"
        );
    }
}

/// The accumulator's first value and the steps left to run: `ones & b` is
/// `b`, so a seedless program seeds from a leading AND instead of filling
/// ones.
fn seed_and_steps<T>(program: &Fold<T>) -> (Option<&T>, &[FoldStep<T>]) {
    match (&program.seed, program.steps.split_first()) {
        (None, Some((FoldStep::And(b), rest))) => (Some(b), rest),
        (seed, _) => (seed.as_ref(), &program.steps[..]),
    }
}

/// Runs `steps` over the accumulator block `acc`, which starts at operand
/// word `start`. `xor` holds the block of an `AndXor` step.
fn run_steps<'w, T>(
    acc: &mut [u64],
    steps: &'w [FoldStep<T>],
    words: &impl Fn(&'w T) -> &'w [u64],
    start: usize,
    xor: &mut Vec<u64>,
) {
    let end = start + acc.len();
    for step in steps {
        match step {
            FoldStep::And(b) => combine::<OpAnd>(acc, &words(b)[start..end]),
            FoldStep::Or(b) => combine::<OpOr>(acc, &words(b)[start..end]),
            FoldStep::AndNot(b) => combine::<OpAndNot>(acc, &words(b)[start..end]),
            FoldStep::AndXor(a, b) => {
                let xor = &mut block(xor)[..acc.len()];
                combine2::<OpXor>(xor, &words(a)[start..end], &words(b)[start..end]);
                combine::<OpAnd>(acc, xor);
            }
        }
    }
}

/// Popcount of `words` through the carry-save counter ([`csa_count_fused`]
/// with `w | w == w`) — what [`BitVec::count_ones`] and
/// [`SegmentView::count_ones`] run.
pub(crate) fn popcount(words: &[u64]) -> usize {
    csa_count_fused::<OpOr>(words, words)
}

/// Most counter levels a bit-sliced threshold counter can carry: 8 bits
/// count fan-ins up to [`MAX_THRESHOLD_FAN_IN`] operands. The counter
/// state of one chunk is `levels × LANES` words — at 8 levels still a
/// 512-byte register/stack footprint.
const MAX_COUNTER_LEVELS: usize = 8;

/// Largest operand count the threshold kernels accept (the counter is
/// `MAX_COUNTER_LEVELS` = 8 bit-slices wide). Far above any query plan's
/// fan-in; a wider threshold should be split and merged by the caller.
pub const MAX_THRESHOLD_FAN_IN: usize = (1 << MAX_COUNTER_LEVELS) - 1;

/// Counter bit-slices needed to hold counts `0..=n`.
fn counter_levels(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

/// The bit-sliced carry-save threshold core: for every bit position,
/// counts how many of `ops` have the bit set — the count lives as
/// `levels` bit-slices, one `[u64; L]` lane group per slice — then
/// compares the sliced counter against `k` without ever materializing
/// per-row integers (Kaser & Lemire, *Threshold and symmetric functions
/// over bitmaps*).
///
/// Operands are folded **two at a time** through the same full-adder
/// [`csa`] step the Harley–Seal counting kernels use: a pair costs one
/// CSA at level 0 plus one half-adder ripple per higher level, instead
/// of two full ripples. All carry state is lane-wide (`[u64; L]`), so
/// the compiler keeps the whole counter network in vector registers.
///
/// Processes `chunks` chunks of exactly `L` words starting at word
/// `start`; returns the popcount of the result and, when `MATERIALIZE`,
/// writes the result words into `out`.
///
/// Callers guarantee `1 ≤ k ≤ n < 2^levels`, so bit positions past a
/// bitmap's canonical length (count 0) can never satisfy the predicate
/// and the output needs no re-masking. `inline(never)`: see [`combine`].
#[inline(never)]
fn threshold_block<const L: usize, const MATERIALIZE: bool>(
    ops: &[&[u64]],
    start: usize,
    chunks: usize,
    k: u64,
    levels: usize,
    out: &mut [u64],
) -> usize {
    debug_assert!(levels <= MAX_COUNTER_LEVELS);
    let mut total = 0usize;
    let mut pos = start;
    for _ in 0..chunks {
        let mut cnt = [[0u64; L]; MAX_COUNTER_LEVELS];
        let mut pairs = ops.chunks_exact(2);
        for pair in &mut pairs {
            let a: &[u64; L] = pair[0][pos..pos + L].try_into().expect("exact chunk");
            let b: &[u64; L] = pair[1][pos..pos + L].try_into().expect("exact chunk");
            let mut carry = [0u64; L];
            for i in 0..L {
                let (c, s) = csa(cnt[0][i], a[i], b[i]);
                cnt[0][i] = s;
                carry[i] = c;
            }
            for row in cnt.iter_mut().take(levels).skip(1) {
                for i in 0..L {
                    let s = row[i] ^ carry[i];
                    carry[i] &= row[i];
                    row[i] = s;
                }
            }
        }
        if let [last] = pairs.remainder() {
            let mut carry: [u64; L] = last[pos..pos + L].try_into().expect("exact chunk");
            for row in cnt.iter_mut().take(levels) {
                for i in 0..L {
                    let s = row[i] ^ carry[i];
                    carry[i] &= row[i];
                    row[i] = s;
                }
            }
        }
        // Bit-sliced comparison against the constant k: the borrow chain
        // of `count − k`, whose final borrow is `count < k`.
        let mut acc = [0u64; L];
        for (lvl, row) in cnt.iter().enumerate().take(levels) {
            let kmask = if (k >> lvl) & 1 == 1 { u64::MAX } else { 0u64 };
            for i in 0..L {
                acc[i] = (!row[i] & kmask) | ((!row[i] | kmask) & acc[i]);
            }
        }
        for i in 0..L {
            let w = !acc[i];
            total += w.count_ones() as usize;
            if MATERIALIZE {
                out[pos + i] = w;
            }
        }
        pos += L;
    }
    total
}

/// Drives [`threshold_block`] over a full word range: `[u64; LANES]`
/// chunks, then the ragged tail word at a time.
fn threshold_words<const MATERIALIZE: bool>(
    ops: &[&[u64]],
    k: u64,
    levels: usize,
    out: &mut [u64],
) -> usize {
    let n_words = ops[0].len();
    let body = n_words / LANES;
    let mut total = threshold_block::<LANES, MATERIALIZE>(ops, 0, body, k, levels, out);
    total += threshold_block::<1, MATERIALIZE>(
        ops,
        body * LANES,
        n_words - body * LANES,
        k,
        levels,
        out,
    );
    total
}

/// The carry-save threshold of [`threshold_k`] over `ops` —
/// `words_for(len)` canonical words each, `1 ≤ k ≤ ops.len()` — appended
/// to `out` as `words_for(len)` words, or else counted: one pass of the
/// counter network, with no allocation but `out`'s growth. A window of a
/// longer result is appended in place.
///
/// # Panics
/// Panics unless `1 ≤ k ≤ ops.len()`, on more than
/// [`MAX_THRESHOLD_FAN_IN`] operands, or if any operand is other than
/// `words_for(len)` words.
pub fn threshold_into(len: usize, ops: &[&[u64]], k: usize, out: Option<&mut Vec<u64>>) -> usize {
    let n = ops.len();
    assert!(
        (1..=n).contains(&k),
        "threshold {k} outside 1..={n} operands"
    );
    assert!(
        n <= MAX_THRESHOLD_FAN_IN,
        "threshold fan-in {n} exceeds the kernel maximum {MAX_THRESHOLD_FAN_IN}"
    );
    let n_words = crate::words_for(len);
    for op in ops {
        assert_eq!(
            n_words,
            op.len(),
            "bitmap length mismatch: {n_words} vs {} words",
            op.len()
        );
    }
    let levels = counter_levels(n);
    match out {
        Some(out) => {
            let base = out.len();
            out.resize(base + n_words, 0);
            threshold_words::<true>(ops, k as u64, levels, &mut out[base..])
        }
        None => threshold_words::<false>(ops, k as u64, levels, &mut []),
    }
}

/// "At least `k` of the operands set": bit `i` of the result is set iff
/// `k` or more operands have bit `i` set, evaluated in a **single pass**
/// through a bit-sliced carry-save counter network — `O(n log n)` word
/// operations total, versus `C(n, k)` AND/OR folds for the naive
/// OR-of-all-k-subsets formulation.
///
/// Degenerate thresholds are total, not errors: `k = 0` is all ones
/// (every row trivially matches) and `k > n` is all zeros. `k = 1`
/// and `k = n` are the [`or_all`] / [`and_all`] [`fold`] programs.
///
/// # Panics
/// Panics on an empty operand list, mismatched operand lengths, or more
/// than [`MAX_THRESHOLD_FAN_IN`] operands.
#[must_use]
pub fn threshold_k<T: KernelOperand>(operands: &[T], k: usize) -> BitVec {
    let len = check_operands(operands);
    let n = operands.len();
    if k == 0 {
        return BitVec::ones(len);
    }
    if k > n {
        return BitVec::zeros(len);
    }
    if k == 1 || k == n {
        let step = if k == 1 { FoldStep::Or } else { FoldStep::And };
        return fold(len, &chain(operands, step));
    }
    let ops: Vec<&[u64]> = operands.iter().map(KernelOperand::words).collect();
    let mut out = crate::spare_words(crate::words_for(len));
    threshold_into(len, &ops, k, Some(&mut out));
    BitVec::from_words_unmasked(out, len)
}

/// `|threshold_k(operands, k)|` without materializing the result bitmap:
/// the comparison words are popcounted as they fall out of the counter
/// network.
///
/// # Panics
/// Panics on an empty operand list, mismatched operand lengths, or more
/// than [`MAX_THRESHOLD_FAN_IN`] operands.
#[must_use]
pub fn count_threshold_k<T: KernelOperand>(operands: &[T], k: usize) -> usize {
    let len = check_operands(operands);
    let n = operands.len();
    if k == 0 {
        return len;
    }
    if k > n {
        return 0;
    }
    if k == 1 || k == n {
        let step = if k == 1 { FoldStep::Or } else { FoldStep::And };
        return fold_count(len, &chain(operands, step));
    }
    let ops: Vec<&[u64]> = operands.iter().map(KernelOperand::words).collect();
    threshold_into(len, &ops, k, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u64) -> BitVec {
        // Deterministic pseudo-random words (splitmix64), canonically masked.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        BitVec::from_fn(len, |_| {
            state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
            state & 1 == 1
        })
    }

    fn pairwise(operands: &[&BitVec], f: impl Fn(&mut BitVec, &BitVec)) -> BitVec {
        let mut acc = operands[0].clone();
        for op in &operands[1..] {
            f(&mut acc, op);
        }
        acc
    }

    /// The word-at-a-time tier: `f` folded over the operands' words one
    /// word at a time, no blocking, no lanes, no carry-save counting. What
    /// the blocked kernels compute, by the loop they replaced.
    fn wordwise<T: KernelOperand>(operands: &[T], f: impl Fn(u64, u64) -> u64) -> BitVec {
        let mut words = operands[0].words().to_vec();
        for op in &operands[1..] {
            for (a, &b) in words.iter_mut().zip(op.words()) {
                *a = f(*a, b);
            }
        }
        BitVec::from_words(words, operands[0].len())
    }

    /// `|ops[0] ∨ ops[1] ∨ …|` through [`fold_count`].
    fn or_count<T: KernelOperand>(ops: &[T]) -> usize {
        fold_count(check_operands(ops), &chain(ops, FoldStep::Or))
    }

    /// `|ops[0] ⊕ ops[1] ⊕ …|` through [`fold_count`]: one seedless
    /// `AndXor` step over the last operand and the XOR of the others.
    fn xor_count(ops: &[&BitVec]) -> usize {
        let (last, rest) = ops.split_last().expect("an operand");
        let head = match rest {
            [] => BitVec::zeros(last.len()),
            _ => xor_all(rest),
        };
        let program = Fold {
            steps: vec![FoldStep::AndXor(&head, *last)],
            ..Fold::default()
        };
        fold_count(last.len(), &program)
    }

    /// `a ∧ ¬b` as a [`Fold`] program.
    fn minus<T>(a: T, b: T) -> Fold<T> {
        Fold {
            seed: Some(a),
            steps: vec![FoldStep::AndNot(b)],
            ..Fold::default()
        }
    }

    /// Lengths straddling word, lane (`LANES`·64 bits) and 1,024-word block
    /// boundaries, including the tail-word cases len % 64 ∈ {0, 1, 63} and
    /// ragged lane tails.
    fn boundary_lengths() -> Vec<usize> {
        let lane = LANES * 64;
        let block = BLOCK_WORDS * 64;
        let mut lens = vec![1, 63, 64, 65, 127, 128];
        lens.extend([lane - 64, lane, lane + 1, lane + 63, 3 * lane + 17]);
        lens.extend([8 * 1024, block, block + 9, block + 63, 99_991]);
        lens
    }

    /// The blocked kernels and the word-at-a-time tier both produce the
    /// pairwise fold, at every boundary length and fan-ins 1–16.
    #[test]
    fn kary_matches_pairwise_fold_on_both_tiers() {
        for len in boundary_lengths() {
            let owned: Vec<BitVec> = (0..16).map(|k| sample(len, k as u64)).collect();
            for fan_in in [1usize, 2, 3, 7, 9, 16] {
                let ops: Vec<&BitVec> = owned[..fan_in].iter().collect();
                let label = format!("len {len} fan-in {fan_in}");
                let want = pairwise(&ops, |a, b| a.and_assign(b));
                assert_eq!(and_all(&ops), want, "and {label}");
                assert_eq!(wordwise(&ops, |a, b| a & b), want, "and {label}");
                let want = pairwise(&ops, |a, b| a.or_assign(b));
                assert_eq!(or_all(&ops), want, "or {label}");
                assert_eq!(wordwise(&ops, |a, b| a | b), want, "or {label}");
                let want = pairwise(&ops, |a, b| a.xor_assign(b));
                assert_eq!(xor_all(&ops), want, "xor {label}");
                assert_eq!(wordwise(&ops, |a, b| a ^ b), want, "xor {label}");
            }
        }
    }

    #[test]
    fn single_operand_is_identity() {
        let v = sample(1000, 3);
        assert_eq!(and_all(&[&v]), v);
        assert_eq!(or_all(&[&v]), v);
        assert_eq!(xor_all(&[&v]), v);
        assert_eq!(count_and(&[&v]), v.count_ones());
    }

    /// The fused counts equal the popcount of the materialized kernel
    /// result and of the word-at-a-time tier's.
    #[test]
    fn fused_counts_match_materialized_on_both_tiers() {
        for len in boundary_lengths() {
            let owned: Vec<BitVec> = (0..16).map(|k| sample(len, 17 + k as u64)).collect();
            for fan_in in [1usize, 2, 3, 5, 16] {
                let ops: Vec<&BitVec> = owned[..fan_in].iter().collect();
                let label = format!("len {len} fan-in {fan_in}");
                assert_eq!(count_and(&ops), and_all(&ops).count_ones(), "{label}");
                assert_eq!(
                    count_and(&ops),
                    wordwise(&ops, |a, b| a & b).count_ones(),
                    "{label}"
                );
                assert_eq!(or_count(&ops), or_all(&ops).count_ones(), "{label}");
                assert_eq!(
                    or_count(&ops),
                    wordwise(&ops, |a, b| a | b).count_ones(),
                    "{label}"
                );
                assert_eq!(xor_count(&ops), xor_all(&ops).count_ones(), "{label}");
                assert_eq!(
                    xor_count(&ops),
                    wordwise(&ops, |a, b| a ^ b).count_ones(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn and_not_matches_assign() {
        for len in boundary_lengths() {
            let a = sample(len, 1);
            let b = sample(len, 2);
            let mut want = a.clone();
            want.and_not_assign(&b);
            assert_eq!(fold(len, &minus(&a, &b)), want, "len {len}");
            assert_eq!(wordwise(&[&a, &b], |a, b| a & !b), want, "len {len}");
            assert_eq!(
                fold_count(len, &minus(&a, &b)),
                want.count_ones(),
                "len {len}"
            );
        }
    }

    /// `program` composed from the binary `BitVec` operations, one pass
    /// and one temporary per operator — what [`fold`] replaces.
    fn fold_pairwise(len: usize, program: &Fold<&BitVec>) -> BitVec {
        let mut acc = program
            .seed
            .map_or_else(|| BitVec::ones(len), BitVec::clone);
        for step in &program.steps {
            match *step {
                FoldStep::And(b) => acc.and_assign(b),
                FoldStep::Or(b) => acc.or_assign(b),
                FoldStep::AndNot(b) => acc.and_assign(&b.complement()),
                FoldStep::AndXor(a, b) => acc.and_assign(&(a ^ b)),
            }
        }
        if program.complement {
            acc.not_assign();
        }
        if let Some(mask) = program.mask {
            acc.and_assign(mask);
        }
        acc
    }

    /// [`fold`] against [`fold_pairwise`], whose plain `BitVec` loops are
    /// the word-at-a-time tier here.
    #[test]
    fn fold_matches_pairwise_composition_on_both_tiers() {
        // Lengths around the word, lane and block boundaries, several
        // blocks, and the empty bitmap.
        let block = 64 * BLOCK_WORDS;
        for len in [
            0usize,
            1,
            63,
            64,
            65,
            777,
            block - 1,
            block,
            block + 65,
            3 * block + 7,
        ] {
            let owned: Vec<BitVec> = (0..7).map(|k| sample(len, 40 + k)).collect();
            let o: Vec<&BitVec> = owned.iter().collect();
            let step_lists = [
                vec![],
                vec![FoldStep::And(o[1])],
                vec![FoldStep::Or(o[1])],
                vec![
                    FoldStep::And(o[1]),
                    FoldStep::Or(o[2]),
                    FoldStep::And(o[3]),
                    FoldStep::Or(o[4]),
                ],
                vec![
                    FoldStep::AndNot(o[1]),
                    FoldStep::AndXor(o[2], o[3]),
                    FoldStep::And(o[4]),
                ],
                vec![
                    FoldStep::AndXor(o[1], o[2]),
                    FoldStep::AndXor(o[3], o[4]),
                    FoldStep::AndXor(o[5], o[6]),
                ],
            ];
            for steps in &step_lists {
                for seed in [None, Some(o[0])] {
                    for complement in [false, true] {
                        for mask in [None, Some(o[6])] {
                            let program = Fold {
                                seed,
                                steps: steps.clone(),
                                complement,
                                mask,
                            };
                            let got = fold(len, &program);
                            assert_eq!(got, fold_pairwise(len, &program), "len {len} {program:?}");
                            assert_eq!(got.words().len(), crate::words_for(len));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fold_keeps_the_tail_canonical_and_folds_views() {
        // All ones, and the complement of all zeros, on a ragged length.
        let ones = fold::<&BitVec>(65, &Fold::default());
        assert_eq!(ones, BitVec::ones(65));
        assert_eq!(ones.words()[1], 1);
        let zeros = BitVec::zeros(65);
        let not_zeros = fold(
            65,
            &Fold {
                seed: Some(&zeros),
                complement: true,
                ..Fold::default()
            },
        );
        assert_eq!(not_zeros.words()[1], 1);

        // Window by window over views, the fold reassembles the whole.
        let owned: Vec<BitVec> = (0..4).map(|k| sample(64 * 1024 + 37, 70 + k)).collect();
        let program = Fold {
            seed: Some(&owned[0]),
            steps: vec![
                FoldStep::And(&owned[1]),
                FoldStep::AndXor(&owned[2], &owned[3]),
            ],
            complement: true,
            mask: Some(&owned[1]),
        };
        let whole = fold(owned[0].len(), &program);
        let mut got = Vec::new();
        let mut lo = 0;
        while lo < owned[0].len() {
            let hi = (lo + 4096).min(owned[0].len());
            let windowed = program.map(|b| b.view_range(lo, hi));
            got.extend_from_slice(fold(hi - lo, &windowed).words());
            lo = hi;
        }
        assert_eq!(BitVec::from_words(got, owned[0].len()), whole);
    }

    /// [`fold_count`] is the popcount of [`fold`] — and of the
    /// word-at-a-time composition — over random programs of every step
    /// kind, with and without seed, complement and mask, on ragged lengths
    /// of up to three blocks and on views at word offsets.
    #[test]
    fn fold_count_is_the_popcount_of_fold() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for case in 0..300 {
            let len = match case % 3 {
                0 => next(200),
                1 => next(3 * 64 * BLOCK_WORDS),
                _ => 64 * BLOCK_WORDS * (1 + next(2)) + next(3) * 63,
            };
            let owned: Vec<BitVec> = (0..6).map(|k| sample(len, case * 8 + k)).collect();
            let o = |i: usize| &owned[i];
            let steps = (0..next(6))
                .map(|_| match next(4) {
                    0 => FoldStep::And(o(next(6))),
                    1 => FoldStep::Or(o(next(6))),
                    2 => FoldStep::AndNot(o(next(6))),
                    _ => FoldStep::AndXor(o(next(6)), o(next(6))),
                })
                .collect();
            let program = Fold {
                seed: (next(2) == 0).then(|| o(next(6))),
                steps,
                complement: next(2) == 0,
                mask: (next(2) == 0).then(|| o(next(6))),
            };
            let want = fold(len, &program).count_ones();
            assert_eq!(fold_count(len, &program), want, "len {len} {program:?}");
            assert_eq!(fold_pairwise(len, &program).count_ones(), want, "len {len}");
            let lo = 64 * next(len / 64 + 1);
            let windowed = program.map(|b| b.view_range(lo, len));
            assert_eq!(
                fold_count(len - lo, &windowed),
                fold(len - lo, &windowed).count_ones(),
                "len {len} from {lo}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fold_mismatched_lengths_panic() {
        let (a, b) = (BitVec::zeros(128), BitVec::zeros(192));
        let _ = fold(
            128,
            &Fold {
                seed: Some(&a),
                steps: vec![FoldStep::Or(&b)],
                ..Fold::default()
            },
        );
    }

    #[test]
    fn canonical_tail_preserved() {
        // All-ones operands: results must stay masked past `len`.
        let a = BitVec::ones(65);
        let b = BitVec::ones(65);
        let o = or_all(&[&a, &b]);
        assert_eq!(o.count_ones(), 65);
        assert_eq!(o.words()[1], 1);
        let x = xor_all(&[&a, &b]);
        assert_eq!(x.count_ones(), 0);
        // Empty, all-zeros and all-ones operands mixed, at tail lengths
        // where the canonical-form mask matters.
        for len in [0usize, 1, 64, 65, 512 + 7] {
            let zeros = BitVec::zeros(len);
            let ones = BitVec::ones(len);
            for ops in [
                vec![&zeros, &zeros],
                vec![&ones, &ones],
                vec![&zeros, &ones, &zeros],
                vec![&ones, &zeros, &ones, &ones],
            ] {
                let label = format!("len {len} fan-in {}", ops.len());
                assert_eq!(or_all(&ops), wordwise(&ops, |a, b| a | b), "or {label}");
                assert_eq!(xor_all(&ops), wordwise(&ops, |a, b| a ^ b), "xor {label}");
                assert_eq!(
                    count_and(&ops),
                    wordwise(&ops, |a, b| a & b).count_ones(),
                    "count {label}"
                );
            }
            assert_eq!(or_all(&[&ones, &ones]), ones, "len {len}");
        }
    }

    #[test]
    fn empty_length_operands() {
        let a = BitVec::zeros(0);
        let b = BitVec::zeros(0);
        assert_eq!(or_all(&[&a, &b]).len(), 0);
        assert_eq!(or_count(&[&a, &b]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one operand")]
    fn empty_operand_list_panics() {
        let _ = and_all::<&BitVec>(&[]);
    }

    #[test]
    fn views_feed_the_same_kernels() {
        let owned: Vec<BitVec> = (0..4).map(|k| sample(64 * 1024 + 37, 90 + k)).collect();
        let full: Vec<&BitVec> = owned.iter().collect();
        let whole = and_all(&full);
        // Reassemble the whole-bitmap result segment by segment.
        let seg_bits = 4096;
        let mut got = Vec::new();
        let mut lo = 0;
        while lo < owned[0].len() {
            let hi = (lo + seg_bits).min(owned[0].len());
            let views: Vec<_> = owned.iter().map(|b| b.view_range(lo, hi)).collect();
            let part = and_all(&views);
            assert_eq!(part.count_ones(), count_and(&views), "{lo}..{hi}");
            got.extend_from_slice(part.words());
            lo = hi;
        }
        assert_eq!(BitVec::from_words(got, owned[0].len()), whole);
        // Pairwise view ops agree with their whole-bitmap counterparts.
        let (a, b) = (&owned[0], &owned[1]);
        assert_eq!(
            fold(4096, &minus(a.view_range(0, 4096), b.view_range(0, 4096))),
            fold(
                4096,
                &minus(
                    &a.view_range(0, 4096).to_bitvec(),
                    &b.view_range(0, 4096).to_bitvec()
                )
            ),
        );
        let mut acc = a.view_range(64, 4096 + 64).to_bitvec();
        acc.or_assign_view(b.view_range(64, 4096 + 64));
        let mut want = a.view_range(64, 4096 + 64).to_bitvec();
        want.or_assign(&b.view_range(64, 4096 + 64).to_bitvec());
        assert_eq!(acc, want);
        // Word-aligned windows, a ragged final one included, against the
        // word-at-a-time tier and against their materialized copies.
        let len = owned[0].len();
        for (lo, hi) in [(0usize, 4096), (4096, 8192 + 64), (63 * 1024, len)] {
            let views: Vec<_> = owned.iter().map(|b| b.view_range(lo, hi)).collect();
            let label = format!("view {lo}..{hi}");
            assert_eq!(and_all(&views), wordwise(&views, |a, b| a & b), "{label}");
            assert_eq!(or_all(&views), wordwise(&views, |a, b| a | b), "{label}");
            assert_eq!(
                or_count(&views),
                wordwise(&views, |a, b| a | b).count_ones(),
                "{label}"
            );
            assert_eq!(
                fold(hi - lo, &minus(views[0], views[1])),
                wordwise(&views[..2], |a, b| a & !b),
                "{label}"
            );
            let mats: Vec<BitVec> = views.iter().map(|v| v.to_bitvec()).collect();
            let mat_refs: Vec<&BitVec> = mats.iter().collect();
            assert_eq!(or_all(&views), or_all(&mat_refs), "{label}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        let _ = or_all(&[&a, &b]);
    }

    #[test]
    fn csa_count_is_exact() {
        // Lengths that hit the 4×LANES CSA body, its scalar tail, the
        // empty case, and multi-step bodies with ragged remainders.
        for n_words in [0usize, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 200] {
            let a: Vec<u64> = (0..n_words as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 3))
                .collect();
            let b: Vec<u64> = (0..n_words as u64)
                .map(|i| i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(17))
                .collect();
            let want_or: usize = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x | y).count_ones() as usize)
                .sum();
            assert_eq!(csa_count_fused::<OpOr>(&a, &b), want_or, "{n_words} words");
            let want_and: usize = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x & y).count_ones() as usize)
                .sum();
            assert_eq!(
                csa_count_fused::<OpAnd>(&a, &b),
                want_and,
                "{n_words} words"
            );
            // Single-bitmap counting path: OpOr with both slices aliased.
            let want_self: usize = a.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(
                csa_count_fused::<OpOr>(&a, &a),
                want_self,
                "{n_words} words"
            );
        }
        let full = vec![u64::MAX; 37];
        assert_eq!(csa_count_fused::<OpOr>(&full, &full), 37 * 64);
        let empty = vec![0u64; 41];
        assert_eq!(csa_count_fused::<OpAnd>(&empty, &empty), 0);
    }

    /// Leaves an all-ones buffer one word longer than `len` bits on the
    /// spare list: `zeros` takes it from the list, so the list keeps it
    /// when it is dropped, and a `len`-bit result that takes it finds its
    /// tail word all ones too.
    fn spill_ones(len: usize) {
        let mut ones = BitVec::zeros(len + 64);
        ones.set_all();
        drop(ones);
    }

    /// Full-length results written into a buffer an all-ones bitmap just
    /// left on the spare list carry none of its bits: `zeros`, `fold`
    /// (complement, mask, all-ones seed), the k-ary kernels over 2 and 3
    /// operands and `threshold_k` (`k = 1` and `k = n` included), against
    /// references that never take from the list. The length is past the
    /// list's 128 KiB floor, with a ragged tail.
    #[test]
    fn a_recycled_buffer_never_leaks_a_bit() {
        let len = (crate::spare::SPARE_MIN_WORDS * 64) + 5;
        let ops: Vec<BitVec> = (0..5).map(|s| sample(len, 70 + s)).collect();
        let refs: Vec<&BitVec> = ops.iter().collect();

        spill_ones(len);
        let zeros = BitVec::zeros(len);
        assert_eq!(zeros.words().len(), crate::words_for(len));
        assert!(zeros.words().iter().all(|&w| w == 0));

        let programs = [
            // An all-ones seed, complemented and masked.
            Fold {
                seed: None,
                steps: vec![FoldStep::AndNot(refs[0])],
                complement: true,
                mask: Some(refs[1]),
            },
            // All ones, unmasked: the tail must be cleared.
            Fold::default(),
            // All zeros, by complement.
            Fold {
                complement: true,
                ..Fold::default()
            },
            Fold {
                seed: Some(refs[2]),
                steps: vec![FoldStep::Or(refs[3]), FoldStep::AndXor(refs[0], refs[4])],
                complement: false,
                mask: Some(refs[1]),
            },
        ];
        for (i, program) in programs.iter().enumerate() {
            spill_ones(len);
            assert_eq!(
                fold(len, program),
                fold_pairwise(len, program),
                "program {i}"
            );
        }
        for fan_in in [2, 3] {
            let ops = &refs[..fan_in];
            spill_ones(len);
            assert_eq!(and_all(ops), wordwise(ops, |a, b| a & b), "and {fan_in}");
            spill_ones(len);
            assert_eq!(or_all(ops), wordwise(ops, |a, b| a | b), "or {fan_in}");
            spill_ones(len);
            assert_eq!(xor_all(ops), wordwise(ops, |a, b| a ^ b), "xor {fan_in}");
        }
        for k in 1..=5 {
            spill_ones(len);
            assert_eq!(
                threshold_k(&refs, k),
                threshold_reference(&refs, k),
                "k {k}"
            );
        }
    }

    /// Per-row popcount reference for the threshold kernels.
    fn threshold_reference(ops: &[&BitVec], k: usize) -> BitVec {
        BitVec::from_fn(ops[0].len(), |i| {
            ops.iter().filter(|b| b.get(i)).count() >= k
        })
    }

    /// The word-at-a-time tier of the threshold kernels: the one-word
    /// counter network they keep for the ragged tail, driven over every
    /// word. Returns the bitmap and the count it reports. `1 ≤ k ≤ n`.
    fn threshold_wordwise<T: KernelOperand>(operands: &[T], k: usize) -> (BitVec, usize) {
        let ops: Vec<&[u64]> = operands.iter().map(KernelOperand::words).collect();
        let mut out = vec![0u64; ops[0].len()];
        let levels = counter_levels(ops.len());
        let count = threshold_block::<1, true>(&ops, 0, ops[0].len(), k as u64, levels, &mut out);
        (BitVec::from_words(out, operands[0].len()), count)
    }

    #[test]
    fn threshold_matches_per_row_reference_on_both_tiers() {
        for len in [
            1usize,
            63,
            64,
            65,
            127,
            128,
            1024,
            4096,
            4096 + 17,
            8 * 1024 + 7,
        ] {
            for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 16] {
                let owned: Vec<BitVec> = (0..n).map(|j| sample(len, 0xA0 + j as u64)).collect();
                let ops: Vec<&BitVec> = owned.iter().collect();
                for k in 0..=(n + 1) {
                    let label = format!("len {len} n {n} k {k}");
                    let want = threshold_reference(&ops, k);
                    assert_eq!(threshold_k(&ops, k), want, "{label}");
                    assert_eq!(count_threshold_k(&ops, k), want.count_ones(), "{label}");
                    if (1..=n).contains(&k) {
                        assert_eq!(
                            threshold_wordwise(&ops, k),
                            (want.clone(), want.count_ones()),
                            "word at a time {label}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_degenerate_cases() {
        let owned: Vec<BitVec> = (0..3).map(|j| sample(500, 7 + j)).collect();
        let ops: Vec<&BitVec> = owned.iter().collect();
        // k = 0: every row matches; k > n: none do.
        assert_eq!(threshold_k(&ops, 0), BitVec::ones(500));
        assert_eq!(count_threshold_k(&ops, 0), 500);
        assert_eq!(threshold_k(&ops, 4), BitVec::zeros(500));
        assert_eq!(count_threshold_k(&ops, 4), 0);
        // k = 1 / k = n collapse to the union / intersection kernels.
        assert_eq!(threshold_k(&ops, 1), or_all(&ops));
        assert_eq!(threshold_k(&ops, 3), and_all(&ops));
    }

    #[test]
    fn threshold_canonical_tail_preserved() {
        // Saturated operands on a ragged length: the result must stay
        // masked past `len` so equality against canonical bitmaps holds.
        let ops: Vec<BitVec> = (0..5).map(|_| BitVec::ones(65)).collect();
        let refs: Vec<&BitVec> = ops.iter().collect();
        let got = threshold_k(&refs, 3);
        assert_eq!(got, BitVec::ones(65));
        assert_eq!(got.words()[1], 1);
        assert_eq!(count_threshold_k(&refs, 3), 65);
    }

    #[test]
    fn threshold_over_views_matches_whole() {
        let owned: Vec<BitVec> = (0..6).map(|j| sample(64 * 1024 + 37, 50 + j)).collect();
        let full: Vec<&BitVec> = owned.iter().collect();
        let whole = threshold_k(&full, 3);
        let seg_bits = 4096;
        let mut got = Vec::new();
        let mut lo = 0;
        while lo < owned[0].len() {
            let hi = (lo + seg_bits).min(owned[0].len());
            let views: Vec<_> = owned.iter().map(|b| b.view_range(lo, hi)).collect();
            let part = threshold_k(&views, 3);
            assert_eq!(
                part.count_ones(),
                count_threshold_k(&views, 3),
                "{lo}..{hi}"
            );
            got.extend_from_slice(part.words());
            lo = hi;
        }
        assert_eq!(BitVec::from_words(got, owned[0].len()), whole);
        // Windows, a ragged final one included, against the word-at-a-time
        // tier and against their materialized copies.
        for (lo, hi) in [(0usize, 4096), (60 * 1024, owned[0].len())] {
            let views: Vec<_> = owned.iter().map(|b| b.view_range(lo, hi)).collect();
            let mats: Vec<BitVec> = views.iter().map(|v| v.to_bitvec()).collect();
            let mat_refs: Vec<&BitVec> = mats.iter().collect();
            for k in [2usize, 4, 5] {
                let got = threshold_k(&views, k);
                assert_eq!(got, threshold_wordwise(&views, k).0, "{lo}..{hi} k {k}");
                assert_eq!(got, threshold_k(&mat_refs, k), "{lo}..{hi} k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one operand")]
    fn threshold_empty_operand_list_panics() {
        let _ = threshold_k::<&BitVec>(&[], 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn threshold_mismatched_lengths_panic() {
        let a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        let _ = threshold_k(&[&a, &b], 1);
    }
}
