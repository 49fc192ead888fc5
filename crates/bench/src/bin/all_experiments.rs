//! Runs the paper's evaluation in sequence — every `fig*` / `table*` /
//! `intro_breakeven` reproduction, then the interval-encoding,
//! physical-layout and threshold extensions. Equivalent to invoking each
//! `cargo run --release -p bindex-bench --bin <experiment>` by hand;
//! arguments are forwarded to each child, so `--quick` sends every CSV to
//! `target/smoke/` but shrinks only the children that have a smoke
//! workload (`ext_physical_layout`, `ext_threshold`).

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "intro_breakeven",
    "table1_worst_case",
    "fig08_eval_algorithms",
    "fig09_encoding_tradeoff",
    "fig10_tradeoff_all",
    "fig11_knee",
    "fig13_bounds",
    "fig14_candidate_set",
    "table2_heuristic",
    "table3_data",
    "table4_compressibility",
    "fig16_compression",
    "fig17_buffering",
    "ext_interval_encoding",
    "ext_physical_layout",
    "ext_threshold",
];

fn main() {
    let forwarded: Vec<String> = std::env::args().skip(1).collect();

    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for name in EXPERIMENTS {
        println!("\n########## {name} ##########");
        let mut cmd = Command::new(bin_dir.join(name));
        cmd.args(&forwarded);
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            failed.push(*name);
        }
    }
    if failed.is_empty() {
        println!(
            "\nAll {} experiments completed; CSVs in results/.",
            EXPERIMENTS.len()
        );
    } else {
        eprintln!("\nFAILED experiments: {failed:?}");
        std::process::exit(1);
    }
}
