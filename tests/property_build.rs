//! The word-level encoder behind `BitmapIndex::{build, build_with_nulls}`
//! and `rebuild_slot` against the per-row rule `Encoding::bit_for`, which
//! `BitmapIndex::verify` checks row by row.
//!
//! Every encoding over the benchmark's bases, the binary Bit-Sliced base,
//! a mixed base, the Value-List base (more digits than a 64-row word) and
//! single components with `b = 2` and `b = 3` (the edges of the interval
//! width `m`); at row counts on both sides of a word boundary; with no
//! nulls, scattered nulls, nulls at a word boundary and on the last row,
//! and every row null.

use bindex::bitvec::{words_for, WORD_BITS};
use bindex::core::rebuild_slot;
use bindex::relation::{Column, Rng};
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec};

const ROWS: &[usize] = &[0, 1, 63, 64, 65, 4_097];

fn bases() -> Vec<Base> {
    vec![
        Base::uniform(10, 3).unwrap(),
        Base::uniform(2, 10).unwrap(),
        Base::from_msb(&[3, 7, 50]).unwrap(),
        Base::single(1000).unwrap(),
        Base::single(2).unwrap(),
        Base::single(3).unwrap(),
    ]
}

/// Named null masks over `rows` rows; `None` builds without nulls.
fn null_masks(rows: usize) -> Vec<(&'static str, Option<BitVec>)> {
    let marked =
        |f: &dyn Fn(usize) -> bool| Some(BitVec::from_bools(&(0..rows).map(f).collect::<Vec<_>>()));
    vec![
        ("none", None),
        ("every 7th", marked(&|r| r % 7 == 0)),
        (
            "63, 64, last",
            marked(&|r| r == 63 || r == 64 || r + 1 == rows),
        ),
        ("all", marked(&|_| true)),
    ]
}

/// Values below `min(product, 1000)` in runs of `run` equal values (1:
/// uniform), with the largest value on row 0 so the top digit of every
/// component occurs. Runs of 100 make whole 64-row chunks of one value
/// and chunks that straddle two.
fn column(base: &Base, rows: usize, run: usize, rng: &mut Rng) -> Column {
    let card = base.product().min(1000) as u32;
    let mut values = Vec::with_capacity(rows);
    while values.len() < rows {
        let v = if values.is_empty() {
            card - 1
        } else {
            rng.below_u32(card)
        };
        values.extend(std::iter::repeat_n(v, run.min(rows - values.len())));
    }
    Column::new(values, card)
}

/// `bm` holds exactly `rows` bits: no word and no bit past the last row.
fn assert_tail_clear(bm: &BitVec, rows: usize, what: &str) {
    assert_eq!(bm.len(), rows, "{what}");
    assert_eq!(bm.words().len(), words_for(rows), "{what}");
    if !rows.is_multiple_of(WORD_BITS) {
        let last = bm.words()[rows / WORD_BITS];
        assert_eq!(
            last >> (rows % WORD_BITS),
            0,
            "{what}: bits past row {rows}"
        );
    }
}

#[test]
fn encoder_matches_the_per_row_rule() {
    let mut rng = Rng::seed_from_u64(0xB11D);
    for base in bases() {
        for (&rows, run) in ROWS.iter().flat_map(|r| [(r, 1), (r, 100)]) {
            let col = column(&base, rows, run, &mut rng);
            for (mask_name, mask) in null_masks(rows) {
                for encoding in [Encoding::Equality, Encoding::Range, Encoding::Interval] {
                    let spec = IndexSpec::new(base.clone(), encoding);
                    let case = format!("{spec}, {rows} rows in runs of {run}, nulls {mask_name}");
                    let idx = match &mask {
                        Some(m) => BitmapIndex::build_with_nulls(&col, m, spec.clone()),
                        None => BitmapIndex::build(&col, spec.clone()),
                    }
                    .unwrap();
                    idx.verify(&col).unwrap_or_else(|e| panic!("{case}: {e}"));
                    if let Some(nn) = idx.nn() {
                        assert_tail_clear(nn, rows, &format!("{case}: B_nn"));
                    }
                    for (ci, slots) in idx.components().iter().enumerate() {
                        assert_eq!(slots.len() as u32, spec.stored_in_component(ci + 1));
                        for (slot, stored) in slots.iter().enumerate() {
                            let what = format!("{case}: component {} slot {slot}", ci + 1);
                            assert_tail_clear(stored, rows, &what);
                            let rebuilt =
                                rebuild_slot(&col, mask.as_ref(), &spec, ci + 1, slot).unwrap();
                            assert_eq!(&rebuilt, stored, "{what}: rebuild_slot");
                        }
                    }
                }
            }
        }
    }
}
