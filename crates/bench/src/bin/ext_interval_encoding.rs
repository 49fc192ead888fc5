//! **Extension experiment** — interval encoding (Chan & Ioannidis's
//! SIGMOD 1999 follow-up) added as a third point on this paper's encoding
//! axis: `⌈b/2⌉` window bitmaps per component, ≤ 2 scans per digit
//! predicate.
//!
//! The experiment redraws Figure 9's tradeoff frontiers with all three
//! encodings and verifies the follow-up paper's headline on this
//! substrate: for single-component indexes, interval encoding halves the
//! space of range encoding at comparable expected scans.

use bindex::core::cost::{expected_scans, time_range_paper};
use bindex::core::design::frontier::{all_points, pareto};
use bindex::core::eval::Algorithm;
use bindex::{Base, Encoding};
use bindex_bench::{f3, print_table, write_artifact, Csv, RunProvenance};

fn main() {
    let cards: Vec<u32> = {
        let args: Vec<u32> = std::env::args()
            .skip(1)
            .filter_map(|s| s.parse().ok())
            .collect();
        if args.is_empty() {
            vec![100, 1000]
        } else {
            args
        }
    };

    let mut csv = Csv::create(
        "ext_interval_encoding",
        &[
            "cardinality",
            "encoding",
            "base",
            "space_bitmaps",
            "time_scans",
        ],
    )
    .unwrap();

    for &c in &cards {
        let mut rows = Vec::new();
        for encoding in [Encoding::Equality, Encoding::Range, Encoding::Interval] {
            for p in pareto(all_points(c, encoding, usize::MAX)) {
                csv.row(&[&c, &encoding.name(), &p.base, &p.space, &f3(p.time)])
                    .unwrap();
                rows.push(vec![
                    encoding.name().to_string(),
                    p.base.to_string(),
                    p.space.to_string(),
                    f3(p.time),
                ]);
            }
        }
        print_table(
            &format!("Extension: encoding frontiers incl. interval, C = {c}"),
            &["encoding", "base", "space (bitmaps)", "time (exp. scans)"],
            &rows,
        );

        // Headline check: single-component interval vs range.
        let base = Base::single(c).unwrap();
        let iv_space = u64::from(c.div_ceil(2));
        let iv_time = expected_scans(&base, c, Algorithm::IntervalEval);
        let r_space = u64::from(c - 1);
        let r_time = time_range_paper(&base);
        println!(
            "\nC = {c}, single component: interval {iv_space} bitmaps @ {} scans vs range {r_space} bitmaps @ {} scans",
            f3(iv_time),
            f3(r_time)
        );
        assert!(iv_space * 2 <= r_space + 2);
        assert!(
            iv_time < r_time + 1.0,
            "interval time within 1 scan of range"
        );
    }
    println!("\n(1999 paper's headline: half the space at <= 2 scans per digit predicate.)");
    println!("CSV: {}", csv.path().display());

    // Hand-rolled JSON (no serde in the dependency set).
    let provenance = RunProvenance::capture(1);
    let cards_json: Vec<String> = cards.iter().map(u32::to_string).collect();
    let json = format!(
        "{{\n  \"experiment\": \"interval_encoding\",\n  {prov},\n  \
         \"cardinalities\": [{cards}],\n  \
         \"headline\": \"interval halves range space at comparable scans\"\n}}\n",
        prov = provenance.json_fields(),
        cards = cards_json.join(", "),
    );
    write_artifact("interval_encoding", &json).expect("write json");
}
