//! Integration tests of the compression substrate against the paper's
//! Section 9 expectations, plus the WAH extension.

use bindex::compress::wah::WahBitmap;
use bindex::compress::{Codec, CodecKind, Lzss, Rle};
use bindex::relation::gen;
use bindex::storage::{MemStore, StorageScheme, StoredIndex};
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};

fn range_index(n: usize, c: u32, seed: u64, msb: &[u32]) -> BitmapIndex {
    let col = gen::uniform(n, c, seed);
    BitmapIndex::build(
        &col,
        IndexSpec::new(Base::from_msb(msb).unwrap(), Encoding::Range),
    )
    .unwrap()
}

fn scheme_bytes(idx: &BitmapIndex, scheme: StorageScheme, codec: CodecKind) -> u64 {
    StoredIndex::create(MemStore::new(), idx.components(), idx.nn(), scheme, codec)
        .unwrap()
        .total_stored_bytes()
}

#[test]
fn cs_compresses_best_for_single_component_range_index() {
    // Section 9.1: each CS row of a range-encoded component is a
    // `1…10…0` pattern, far more regular than the value-dependent BS
    // bitmaps — so cCS < cBS on high-cardinality single-component indexes.
    let idx = range_index(20_000, 200, 51, &[200]);
    let ccs = scheme_bytes(&idx, StorageScheme::ComponentLevel, CodecKind::Lzss);
    let cbs = scheme_bytes(&idx, StorageScheme::BitmapLevel, CodecKind::Lzss);
    let bs = scheme_bytes(&idx, StorageScheme::BitmapLevel, CodecKind::None);
    assert!(ccs < cbs, "cCS {ccs} vs cBS {cbs}");
    assert!(ccs * 5 < bs, "cCS {ccs} vs BS {bs}");
}

#[test]
fn compression_gain_shrinks_with_decomposition() {
    // Section 9.3: once an index is decomposed, compressing saves little.
    let col = gen::uniform(20_000, 64, 52);
    let ratio = |msb: &[u32]| {
        let idx = BitmapIndex::build(
            &col,
            IndexSpec::new(Base::from_msb(msb).unwrap(), Encoding::Range),
        )
        .unwrap();
        let c = scheme_bytes(&idx, StorageScheme::ComponentLevel, CodecKind::Lzss) as f64;
        let raw = scheme_bytes(&idx, StorageScheme::BitmapLevel, CodecKind::None) as f64;
        c / raw
    };
    let one = ratio(&[64]);
    let six = ratio(&[2, 2, 2, 2, 2, 2]);
    assert!(one < 0.7, "single-component ratio {one}");
    assert!(six > 0.9, "six-component ratio {six}");
    assert!(one < six);
}

#[test]
fn rle_beats_lzss_never_on_structured_bitmaps() {
    // LZSS subsumes pure run-length redundancy up to token overhead.
    let col = gen::sorted_uniform(50_000, 40, 53);
    let idx = BitmapIndex::build(
        &col,
        IndexSpec::new(Base::single(40).unwrap(), Encoding::Range),
    )
    .unwrap();
    for bm in idx.components()[0].iter().step_by(7) {
        let bytes = bm.to_bytes();
        let r = Rle.compress(&bytes).len();
        let l = Lzss::default().compress(&bytes).len();
        assert!(l <= r + 16, "lzss {l} vs rle {r}");
    }
}

#[test]
fn wah_matches_plain_evaluation() {
    // Evaluate A <= v through compressed-form WAH operations only and
    // compare with the BitVec pipeline: same foundsets.
    let col = gen::uniform(5000, 30, 54);
    let idx = range_index(5000, 30, 54, &[5, 6]);
    // A <= 17: digits of 17 in base <5,6>: 17 = 2*6 + 5 -> v1=5=b1-1, v2=2.
    // R = (B2^2 AND ones) OR B2^1 ... use the generic identity on WAH.
    let b2_2 = WahBitmap::from_bitvec(idx.bitmap(2, 2));
    let b2_1 = WahBitmap::from_bitvec(idx.bitmap(2, 1));
    let all = WahBitmap::from_bitvec(&bindex::BitVec::ones(5000));
    // v1 = 5 = b1-1, so component 1 contributes the all-ones bitmap.
    let got = b2_2.and(&all).or(&b2_1);
    let expect = bindex::core::eval::naive::evaluate(
        &col,
        bindex::relation::query::SelectionQuery::new(bindex::relation::query::Op::Le, 17),
    );
    assert_eq!(got.to_bitvec(), expect);
}

#[test]
fn wah_is_smaller_on_sparse_equality_bitmaps() {
    // Value-List bitmaps have density 1/C: WAH shines there.
    let col = gen::uniform(100_000, 500, 55);
    let idx = BitmapIndex::build(&col, IndexSpec::value_list(500).unwrap()).unwrap();
    let bm = idx.bitmap(1, 42);
    let wah = WahBitmap::from_bitvec(bm);
    let raw = bm.to_bytes();
    assert!(
        wah.compressed_bytes() * 3 < raw.len(),
        "wah {} vs raw {}",
        wah.compressed_bytes(),
        raw.len()
    );
    let lz = Lzss::default().compress(&raw);
    // Density 1/500 ~ every 62nd byte nonzero: LZSS also compresses, but
    // WAH supports ops in compressed form — verify one for good measure.
    assert!(!lz.is_empty());
    assert_eq!(wah.not().to_bitvec(), bm.complement());
}

#[test]
fn codec_kind_dispatch_equivalence() {
    let data = gen::uniform(3000, 256, 56)
        .values()
        .iter()
        .map(|&v| v as u8)
        .collect::<Vec<_>>();
    for kind in [CodecKind::Rle, CodecKind::Lzss, CodecKind::Deflate] {
        let direct = match kind {
            CodecKind::Rle => Rle.compress(&data),
            CodecKind::Lzss => Lzss::default().compress(&data),
            CodecKind::Deflate => bindex::compress::Deflate::default().compress(&data),
            CodecKind::None => unreachable!(),
        };
        assert_eq!(kind.compress(&data), direct);
        assert_eq!(kind.decompress(&direct, data.len()).unwrap(), data);
    }
}
