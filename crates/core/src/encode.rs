//! The word-level encoder under [`BitmapIndex::build`] and
//! [`rebuild_slot`]: a column becomes the stored words of its bitmaps 64
//! rows at a time.
//!
//! Every stored bitmap is a Boolean function of its component's equality
//! bitmaps (§2): `E^v` holds the rows whose digit is `v`, range
//! `B^j = E^0 ∨ … ∨ E^j` and interval `I^j = E^j ∨ … ∨ E^{j+m−1}`. For
//! each 64-row chunk the encoder therefore ORs every row's bit into the
//! equality word of its digit, then derives each stored word from those
//! equality words — as they are, as a running OR, or as an `m`-wide
//! sliding window — masked by the chunk's live rows (in range, not null).
//! Every output word is written once, in order, except in an equality
//! component with more digits than a chunk has rows: there each row ORs
//! straight into its digit's stored word.
//!
//! [`BitmapIndex::build`]: crate::BitmapIndex::build
//! [`rebuild_slot`]: crate::rebuild_slot

use bindex_bitvec::{words_for, BitVec, WORD_BITS};
use bindex_relation::Column;

use crate::encoding::{Encoding, IndexSpec};
use crate::error::Result;

/// Largest base whose equality words are all written every chunk. An
/// equality component with more digits than a chunk has rows writes only
/// the words its rows touch (see [`Component::sparse`]).
const DENSE_MAX_BASE: usize = WORD_BITS;

/// The stored words of every bitmap of every component:
/// `result[i - 1][j]` is stored bitmap `j` of component `i`, in the slot
/// order of [`Encoding`].
pub(crate) fn encode_index(
    column: &Column,
    null_mask: Option<&BitVec>,
    spec: &IndexSpec,
) -> Result<Vec<Vec<Vec<u64>>>> {
    spec.check_covers(column.cardinality())?;
    let card = column.cardinality() as usize;
    let bases = spec.base.as_lsb_slice();
    // Component-major: component `i`'s digits of values `0..card` are
    // `table[i * card..][..card]`.
    let mut table = vec![0u32; bases.len() * card];
    for v in 0..card {
        let mut rest = v as u32;
        for (i, &b) in bases.iter().enumerate() {
            table[i * card + v] = rest % b;
            rest /= b;
        }
    }
    let n_words = words_for(column.len());
    let comps = bases
        .iter()
        .map(|&b| Component::new(spec.encoding, b, n_words))
        .collect();
    Ok(encode(column, null_mask, &table, comps))
}

/// The stored words of bitmap `slot` of component `comp` (1-based) alone.
/// One stored bitmap is itself a binary digit — a row is in it or not
/// ([`Encoding::bit_for`]) — so it is encoded as a base-2 equality
/// component, whose one stored bitmap `E^1` is the slot.
pub(crate) fn encode_slot(
    column: &Column,
    null_mask: Option<&BitVec>,
    spec: &IndexSpec,
    comp: usize,
    slot: usize,
) -> Result<Vec<u64>> {
    spec.check_covers(column.cardinality())?;
    let bases = spec.base.as_lsb_slice();
    let b = bases[comp - 1];
    let lower = &bases[..comp - 1];
    let table: Vec<u32> = (0..column.cardinality())
        .map(|v| {
            let digit = lower.iter().fold(v, |rest, &lb| rest / lb) % b;
            u32::from(spec.encoding.bit_for(b, digit, slot))
        })
        .collect();
    let bit = Component::new(Encoding::Equality, 2, words_for(column.len()));
    let mut out = encode(column, null_mask, &table, vec![bit]);
    Ok(out.swap_remove(0).swap_remove(0))
}

/// Runs `comps` over the column one 64-row chunk at a time; component `i`
/// reads its digits from `table[i * cardinality..]`.
fn encode(
    column: &Column,
    null_mask: Option<&BitVec>,
    table: &[u32],
    mut comps: Vec<Component>,
) -> Vec<Vec<Vec<u64>>> {
    let digits: Vec<&[u32]> = table.chunks_exact(column.cardinality() as usize).collect();
    let nulls = null_mask.map(BitVec::words);
    let mut tail = [0u32; WORD_BITS];
    for (w, chunk) in column.values().chunks(WORD_BITS).enumerate() {
        let rows = u64::MAX >> (WORD_BITS - chunk.len());
        let live = rows & !nulls.map_or(0, |nulls| nulls[w]);
        // A chunk of one value (a clustered column's common case) sets one
        // equality word per component, with no per-row work.
        let run = chunk.iter().all(|&v| v == chunk[0]);
        // Every chunk is 64 rows, so the row loops unroll: the last one is
        // padded with value 0, and `live` masks the padding out.
        let chunk: &[u32; WORD_BITS] = match chunk.try_into() {
            Ok(full) => full,
            Err(_) => {
                tail[..chunk.len()].copy_from_slice(chunk);
                &tail
            }
        };
        for (c, &digits) in comps.iter_mut().zip(&digits) {
            if run {
                c.encode_run(w, digits[chunk[0] as usize] as usize, live);
            } else {
                c.encode_chunk(w, chunk, digits, live);
            }
        }
    }
    comps.into_iter().map(|c| c.out).collect()
}

/// One component's scratch equality words and output buffers.
struct Component {
    encoding: Encoding,
    /// Equality words of the current chunk, one per digit value `0..b`.
    eq: Vec<u64>,
    /// The stored bitmaps' words, one zeroed buffer per stored slot.
    out: Vec<Vec<u64>>,
}

impl Component {
    fn new(encoding: Encoding, b: u32, n_words: usize) -> Self {
        Self {
            encoding,
            eq: vec![0; b as usize],
            out: (0..encoding.stored_bitmaps(b))
                .map(|_| vec![0; n_words])
                .collect(),
        }
    }

    /// Whether this component's stored bitmaps are its equality words with
    /// more digits than a chunk has rows: each row then lands straight in
    /// its digit's stored word, and untouched words stay zero.
    fn sparse(&self) -> bool {
        self.encoding == Encoding::Equality && self.eq.len() > DENSE_MAX_BASE
    }

    /// Encodes the values of rows `64w .. 64w + 64` into word `w` of every
    /// stored bitmap; `digits[v]` is this component's digit of value `v`,
    /// and only the rows set in `live` enter any bitmap.
    fn encode_chunk(&mut self, w: usize, chunk: &[u32; WORD_BITS], digits: &[u32], live: u64) {
        if self.sparse() {
            let mut bit = 1u64;
            for &v in chunk {
                self.out[digits[v as usize] as usize][w] |= bit & live;
                bit <<= 1;
            }
            return;
        }
        if self.eq.len() == 2 {
            // A binary digit accumulates in a register, last row first:
            // `ones * 2 + digit` is `ones << 1 | digit` as one shift-and-add.
            let mut ones = 0u64;
            for &v in chunk.iter().rev() {
                ones = ones * 2 + u64::from(digits[v as usize]);
            }
            self.eq[0] = !ones;
            self.eq[1] = ones;
        } else {
            self.eq.fill(0);
            let mut bit = 1u64;
            for &v in chunk {
                self.eq[digits[v as usize] as usize] |= bit;
                bit <<= 1;
            }
        }
        self.derive(w, live);
    }

    /// [`Component::encode_chunk`] for a chunk whose rows all have digit
    /// `digit`.
    fn encode_run(&mut self, w: usize, digit: usize, live: u64) {
        if self.sparse() {
            self.out[digit][w] = live;
        } else {
            self.eq.fill(0);
            self.eq[digit] = live;
            self.derive(w, live);
        }
    }

    /// Writes word `w` of every stored bitmap from the chunk's equality
    /// words.
    fn derive(&mut self, w: usize, live: u64) {
        let (eq, out) = (&self.eq, &mut self.out);
        match self.encoding {
            Encoding::Equality if eq.len() == 2 => out[0][w] = eq[1] & live,
            Encoding::Equality => {
                for (o, &e) in out.iter_mut().zip(eq) {
                    o[w] = e & live;
                }
            }
            Encoding::Range => {
                let mut le = 0;
                for (o, &e) in out.iter_mut().zip(eq) {
                    le |= e;
                    o[w] = le & live;
                }
            }
            Encoding::Interval => {
                // The equality words are disjoint, so the window slides by
                // adding the next digit and dropping its lowest one.
                let m = out.len();
                let mut window = eq[..m - 1].iter().fold(0, |acc, &e| acc | e);
                for (j, o) in out.iter_mut().enumerate() {
                    window |= eq[j + m - 1];
                    o[w] = window & live;
                    window &= !eq[j];
                }
            }
        }
    }
}
