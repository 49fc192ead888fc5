//! The benchmark driver.
//!
//! ```text
//! driver run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! driver repeat [N] [--seed N] [--seconds S]
//! driver smoke
//! driver manifest
//! ```
//!
//! `run --workload NAME` measures one workload in this process and ends
//! its standard output with one JSON object (the acceptance contract's
//! result line). Without `--workload` each workload runs in a child
//! process of its own, so `peak_rss_mb` is that workload's alone.

use std::process::{Command, ExitCode, Stdio};

use bbench::catalog::{self, END_TO_END, PER_LAYER};
use bbench::json::{self, Value};
use bbench::run::{self, RunConfig, RunResult};
use bbench::spec::{self, Scale, Workload};
use bbench::stats;

const USAGE: &str = "usage: driver run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
       driver repeat [N] [--seed N] [--seconds S]
       driver smoke
       driver manifest";

struct Options {
    workload: Option<Workload>,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Put end-to-end and per-layer metrics in one result line (what the
    /// driver asks of its own children; the acceptance contract's line
    /// holds one set or the other).
    all_metrics: bool,
    /// Bare arguments (the N of `repeat N`).
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        scale: Scale::Full,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        all_metrics: false,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                o.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--scale" => {
                let name = value("--scale")?;
                o.scale = Scale::parse(&name).ok_or(format!("unknown scale {name:?}"))?;
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0|1` is the
            // acceptance driver's spelling.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--all-metrics" => o.all_metrics = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

fn metric_value(value: Option<f64>, unit: &str) -> Value {
    Value::obj([
        ("value", value.map_or(Value::Null, Value::Num)),
        ("unit", Value::str(unit)),
    ])
}

/// The contract's result line: end-to-end metrics untraced, per-layer
/// metrics traced; both with `all_metrics`.
fn result_line(result: &RunResult, trace: bool, all_metrics: bool) -> Value {
    let mut metrics: Vec<(&str, Value)> = Vec::new();
    if !trace || all_metrics {
        metrics.extend(END_TO_END.iter().map(|m| {
            let v = result
                .end_to_end
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v);
            (m.name, metric_value(v, m.unit))
        }));
    }
    if trace {
        metrics.extend(PER_LAYER.iter().map(|m| {
            let v = result.layer.get(m.name).copied().flatten();
            (m.name, metric_value(v, m.unit))
        }));
    }
    Value::obj([
        ("correct", Value::Bool(result.tally.failed == 0)),
        ("attempted", Value::Num(result.tally.attempted as f64)),
        ("failed", Value::Num(result.tally.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
}

fn print_table(cfg: &RunConfig, result: &RunResult) {
    println!(
        "workload {} seed {} window {} s scale {} T {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.scale.name(),
        spec::parallelism()
    );
    println!("  end-to-end:");
    for (name, value) in &result.end_to_end {
        let unit = catalog::end_to_end(name).map_or("", |m| m.unit);
        println!("    {name:<34} {value:>16.4} {unit}");
    }
    let unit_of = |name: &str| {
        PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    if result.layer.is_empty() {
        for (name, value) in &result.extra {
            println!("    {name:<34} {value:>16.4} {}", unit_of(name));
        }
    } else {
        println!("  per-layer:");
        for m in &PER_LAYER {
            match result.layer.get(m.name).copied().flatten() {
                Some(v) => println!("    {:<34} {v:>16.4} {}", m.name, m.unit),
                None => println!("    {:<34} {:>16} {}", m.name, "null", m.unit),
            }
        }
    }
    println!(
        "  attempted {} failed {} error_rate {}",
        result.tally.attempted,
        result.tally.failed,
        result.tally.failed as f64 / result.tally.attempted.max(1) as f64
    );
}

fn run_in_process(cfg: RunConfig, all_metrics: bool) -> ExitCode {
    match run::run(cfg) {
        Ok(result) => {
            print_table(&cfg, &result);
            println!("{}", result_line(&result, cfg.trace, all_metrics).render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {} failed: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in a child process; returns its parsed result line.
fn run_child(cfg: RunConfig, echo: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", cfg.workload.name()])
        .args(["--scale", cfg.scale.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--all-metrics")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or("");
    if echo {
        for line in text.lines().filter(|l| *l != last) {
            println!("{line}");
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}",
            cfg.workload.name(),
            output.status
        ));
    }
    json::parse(last).map_err(|e| format!("{}: bad result line: {e}", cfg.workload.name()))
}

fn is_correct(line: &Value) -> bool {
    line.get("correct") == Some(&Value::Bool(true))
}

/// `run` without `--workload`: each workload in its own process; with
/// `--trace` that one run also makes the traced pass and runs the probes.
fn run_all(o: &Options) -> ExitCode {
    let mut all = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        let cfg = RunConfig {
            workload,
            scale: o.scale,
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
        };
        match run_child(cfg, true) {
            Ok(line) => {
                ok &= is_correct(&line);
                all.push((workload.name().to_string(), line));
            }
            Err(e) => {
                eprintln!("error: {e}");
                ok = false;
            }
        }
    }
    println!("{}", Value::Obj(all).render());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_of(line: &Value, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `repeat N`: the suite N times on the same build; min / median / max and
/// spread per end-to-end metric per workload. Fails when a quartile spread
/// (the acceptance driver's rule) exceeds the metric's bound.
fn repeat(o: &Options) -> ExitCode {
    let n: usize = match o.positional.first().map(|s| s.parse()) {
        None => 5,
        Some(Ok(n)) if n >= 2 => n,
        _ => {
            eprintln!("repeat needs N >= 2");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut samples: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()];
    for rep in 0..n {
        for (wi, workload) in Workload::ALL.into_iter().enumerate() {
            let cfg = RunConfig {
                workload,
                scale: o.scale,
                seed: o.seed + rep as u64,
                seconds: o.seconds,
                trace: false,
            };
            match run_child(cfg, false) {
                Ok(line) => {
                    ok &= is_correct(&line);
                    for (mi, m) in END_TO_END.iter().enumerate() {
                        if let Some(v) = metric_of(&line, m.name) {
                            samples[wi][mi].push(v);
                        }
                    }
                    eprintln!("repeat {}/{n}: {} done", rep + 1, workload.name());
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "workload", "metric", "min", "median", "max", "range/med", "iqr/med", "bound"
    );
    for (wi, workload) in Workload::ALL.into_iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let v = &samples[wi][mi];
            if v.len() < 2 {
                println!("{:<14} {:<22} too few samples", workload.name(), m.name);
                ok = false;
                continue;
            }
            let med = stats::median(v);
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            let range = if med == 0.0 { 0.0 } else { (max - min) / med };
            let iqr = stats::quartile_spread(v);
            // setup_s is gated on its median only, not on its spread.
            let over = iqr > m.bound && m.name != "setup_s";
            ok &= !over;
            println!(
                "{:<14} {:<22} {min:>12.4} {med:>12.4} {max:>12.4} {range:>9.4} {iqr:>9.4} {:>6.2}{}",
                workload.name(),
                m.name,
                m.bound,
                if over { "  SPREAD EXCEEDS BOUND" } else { "" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `smoke`: every workload at 2^14 rows with a 1 s window, traced; checks
/// that every metric of the catalogue is printed under its name with its
/// unit and parses as a number, and that every answer was right.
fn smoke() -> ExitCode {
    let mut problems = Vec::new();
    let expected: Vec<(&str, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect();
    for workload in Workload::ALL {
        let cfg = RunConfig {
            workload,
            scale: Scale::Smoke,
            seed: 1,
            seconds: 1.0,
            trace: true,
        };
        let line = match run_child(cfg, false) {
            Ok(line) => line,
            Err(e) => {
                problems.push(e);
                continue;
            }
        };
        let tag = workload.name();
        if !is_correct(&line) {
            problems.push(format!("{tag}: answers were wrong or operations failed"));
        }
        let printed = line.get("metrics").map_or(&[][..], Value::members);
        if printed.len() != expected.len() {
            problems.push(format!(
                "{tag}: {} metrics printed, {} expected",
                printed.len(),
                expected.len()
            ));
        }
        for &(name, unit) in &expected {
            match line.get("metrics").and_then(|m| m.get(name)) {
                None => problems.push(format!("{tag}: {name} is missing")),
                Some(m) => {
                    if m.get("unit").and_then(Value::as_str) != Some(unit) {
                        problems.push(format!("{tag}: {name} has the wrong unit"));
                    }
                    if m.get("value").and_then(Value::as_f64).is_none() {
                        problems.push(format!("{tag}: {name} is not a number"));
                    }
                }
            }
        }
        println!("smoke: {tag} checked");
    }
    if problems.is_empty() {
        println!(
            "smoke: ok, {} metrics named, with units, numeric, on {} workloads",
            expected.len(),
            Workload::ALL.len()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("smoke: {p}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "run" => match options.workload {
            Some(workload) => run_in_process(
                RunConfig {
                    workload,
                    scale: options.scale,
                    seed: options.seed,
                    seconds: options.seconds,
                    trace: options.trace,
                },
                options.all_metrics,
            ),
            None => run_all(&options),
        },
        "repeat" => repeat(&options),
        "smoke" => smoke(),
        "manifest" => {
            print!("{}", catalog::benchmark_json().render_pretty());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
