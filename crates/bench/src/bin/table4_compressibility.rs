//! **Table 4** — Compressibility of the three storage schemes (cBS, cCS,
//! cIS) relative to the uncompressed BS size, for the space-optimal
//! indexes with 1–6 components, on both TPC-D-derived data sets.
//!
//! Reproduced shape claims: CS-organized indexes compress best (each
//! row-major component row is a `1…10…` pattern under range encoding),
//! and compression effectiveness falls as the number of components grows.
//! The last column is the WAH ablation (a bitmap-native codec the paper
//! predates): the bitmaps' total WAH footprint against BS.

use bindex::compress::wah::WahBitmap;
use bindex::compress::CodecKind;
use bindex::core::design::space_opt::space_optimal;
use bindex::relation::tpcd;
use bindex::storage::{MemStore, StorageScheme, StoredIndex};
use bindex::{BitmapIndex, Encoding, IndexSpec};
use bindex_bench::{f2, print_table, Csv};

fn main() {
    // Deflate (LZ77 + Huffman) is the zlib substitution; --lzss compares
    // the entropy-free variant.
    let codec = if std::env::args().any(|a| a == "--lzss") {
        CodecKind::Lzss
    } else {
        CodecKind::Deflate
    };
    let scale = tpcd::scale_from_env();
    let data = [
        ("1 (Lineitem.Quantity)", tpcd::lineitem_quantity(scale, 7)),
        ("2 (Order.Order-Date)", tpcd::order_orderdate(scale, 7)),
    ];

    let mut csv = Csv::create(
        "table4_compressibility",
        &[
            "data_set", "base", "bs_bytes", "cbs_pct", "ccs_pct", "cis_pct", "wah_pct",
        ],
    )
    .unwrap();

    for (name, column) in &data {
        let c = column.cardinality();
        let mut rows = Vec::new();
        for n in 1..=6usize {
            let base = space_optimal(c, n).expect("n <= max components");
            let spec = IndexSpec::new(base.clone(), Encoding::Range);
            let idx = BitmapIndex::build(column, spec).unwrap();
            let size = |scheme, codec| -> u64 {
                StoredIndex::create(MemStore::new(), idx.components(), idx.nn(), scheme, codec)
                    .unwrap()
                    .total_stored_bytes()
            };
            let bs = size(StorageScheme::BitmapLevel, CodecKind::None);
            let cbs = size(StorageScheme::BitmapLevel, codec);
            let ccs = size(StorageScheme::ComponentLevel, codec);
            let cis = size(StorageScheme::IndexLevel, codec);
            let p = |x: u64| 100.0 * x as f64 / bs as f64;
            let wah: usize = idx
                .components()
                .iter()
                .flatten()
                .map(|bm| WahBitmap::from_bitvec(bm).compressed_bytes())
                .sum();
            let wah_pct = p(wah as u64);
            csv.row(&[
                &name,
                &base,
                &bs,
                &f2(p(cbs)),
                &f2(p(ccs)),
                &f2(p(cis)),
                &f2(wah_pct),
            ])
            .unwrap();
            rows.push(vec![
                base.to_string(),
                bs.to_string(),
                format!("{}%", f2(p(cbs))),
                format!("{}%", f2(p(ccs))),
                format!("{}%", f2(p(cis))),
                format!("{}%", f2(wah_pct)),
            ]);
        }
        print_table(
            &format!("Table 4: compressibility vs uncompressed BS, data set {name}"),
            &[
                "base of index I",
                "size under BS (bytes)",
                "cBS",
                "cCS",
                "cIS",
                "WAH (ablation)",
            ],
            &rows,
        );
    }
    println!("\n(Paper, zlib: cCS compresses best; gains shrink as components grow.)");
    println!(
        "Codec used: {} (the zlib substitution; --lzss for the entropy-free ablation).",
        codec.name()
    );
    println!("CSV: {}", csv.path().display());
}
