//! `tadbench`: the repository's benchmark. One invocation runs one named
//! workload from a `--seed`, checks every score it gets back, prints every
//! metric by name with its unit, and ends its standard output with one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! tadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tadbench --workload <name> --repeat-check <N> [--seconds <s>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant and prints the per-layer metrics instead, writing the harness
//! spans to a `trace.jsonl` next to the executable. See `README.md` in
//! this directory for the glossary.

mod drive;
mod metrics;
mod micro;
mod oracle;
mod procfs;
mod setup;
mod stats;
mod stream;
mod trace;
mod train;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{END_TO_END, WORKLOADS};
use workloads::{Opts, RunResult};

const USAGE: &str =
    "usage: tadbench --workload <routed_paced|routed_sat|engine_wide_sat|train_eval> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat-check <N>]";

struct Cli {
    opts: Opts,
    repeat_check: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Opts { workload: String::new(), seed: 1, seconds: 15.0, trace: false },
        repeat_check: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cli.opts.workload = value.clone(),
            "--seed" => cli.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cli.opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cli.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat-check" => cli.repeat_check = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cli.opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cli.opts.workload));
    }
    if !(cli.opts.seconds >= 1.0 && cli.opts.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", cli.opts.seconds));
    }
    if cli.repeat_check.is_some_and(|n| n < 2) {
        return Err("--repeat-check needs at least 2 runs".to_string());
    }
    Ok(cli)
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// checkout with a loose ref (the driver's checkouts are not).
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha.to_string()
    }
}

/// The compiler on the path — the one `cargo run` just built with.
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

fn host_facts(opts: &Opts) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload".into(), opts.workload.clone()),
        ("seed".into(), opts.seed.to_string()),
        ("seconds".into(), opts.seconds.to_string()),
        ("trace".into(), u8::from(opts.trace).to_string()),
        ("available_parallelism".into(), cores.to_string()),
        ("rustc".into(), rustc_version()),
        ("git_sha".into(), git_sha()),
        (
            "proc".into(),
            if procfs::peak_rss_mb().is_some() { "available" } else { "unavailable" }.into(),
        ),
    ]
}

/// The last line of standard output: the contract's JSON object.
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN; a non-finite value already made the run incorrect.
            let value = if value.is_finite() { value.to_string() } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn trace_path(opts: &Opts) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join("tadbench-trace").join(format!("{}-seed{}.trace.jsonl", opts.workload, opts.seed))
}

fn run_once(cli: &Cli) -> ExitCode {
    let opts = &cli.opts;
    let mut result = workloads::run(opts);
    for (k, v) in host_facts(opts).iter().chain(&result.facts) {
        println!("# {k}: {v}");
    }
    if opts.trace {
        let path = trace_path(opts);
        match trace::write_jsonl(&path, &mut result.spans) {
            Ok(()) => println!("# trace: {} spans in {}", result.spans.len(), path.display()),
            Err(e) => println!("# trace: cannot write {}: {e}", path.display()),
        }
    }
    println!("# ops_attempted: {}", result.attempted);
    println!("# ops_failed: {}", result.failed);
    for (name, value, unit) in &result.metrics {
        println!("{name} = {value} {unit}");
    }
    let finite = result.metrics.iter().all(|m| m.1.is_finite());
    result.correct &= finite;
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pulls `"name": {"value": X` out of a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Pulls `(name, value)` out of a `# name (reported, ungated): value, ...`
/// fact line.
fn reported_in(line: &str) -> Option<(String, f64)> {
    let (name, rest) = line.strip_prefix("# ")?.split_once(" (reported, ungated): ")?;
    let value = rest.split(',').next()?.trim().parse().ok()?;
    Some((name.to_string(), value))
}

/// `--repeat-check N`: runs the workload `N` times (seeds 1..=N), each in
/// a fresh child process, and prints per end-to-end metric the median,
/// quartiles and inter-quartile range as a share of the median, against
/// the metric's bound. Fails when a spread exceeds half its bound —
/// except `setup_s`, whose spread the driver does not judge either (it
/// compares only the medians of two sets against the bound).
fn repeat_check(cli: &Cli, runs: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut lines = Vec::new();
    let mut reported: Vec<(String, f64)> = Vec::new();
    for seed in 1..=runs {
        let out = Command::new(&exe)
            .args(["--workload", &cli.opts.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &cli.opts.seconds.to_string(), "--trace", "0"])
            .output()
            .expect("run child benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        if !out.status.success() || !last.contains("\"correct\": true") {
            println!("run {seed} failed ({}); its output:\n{stdout}", out.status);
            return ExitCode::FAILURE;
        }
        println!("run {seed}: {last}");
        lines.push(last);
        reported.extend(stdout.lines().find_map(reported_in));
    }
    println!();
    for (k, v) in host_facts(&cli.opts).iter().filter(|(k, _)| k != "seed" && k != "trace") {
        println!("# {k}: {v}");
    }
    println!("# runs: {runs} (seeds 1..={runs})");
    println!(
        "{:<22} {:>6} {:>14} {:>14} {:>14} {:>10} {:>7} {:>10}  verdict",
        "metric", "better", "q1", "median", "q3", "iqr/med", "bound", "iqr/bound"
    );
    let mut ok = true;
    for m in &END_TO_END {
        let values: Vec<f64> = lines.iter().filter_map(|l| metric_in(l, m.name)).collect();
        let (Some(q), Some(spread)) = (stats::quartiles(&values), stats::iqr_share(&values)) else {
            println!("{:<22} missing from {} runs", m.name, runs - values.len());
            ok = false;
            continue;
        };
        let judged = m.name != "setup_s";
        let pass = spread <= m.bound / 2.0;
        ok &= pass || !judged;
        println!(
            "{:<22} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>10.5} {:>7} {:>10.3}  {}",
            m.name,
            if m.higher_is_better { "higher" } else { "lower" },
            q[0],
            stats::median(&values),
            q[2],
            spread,
            m.bound,
            spread / m.bound,
            match (pass, judged) {
                (true, _) => "ok",
                (false, true) => "TOO NOISY",
                (false, false) => "over half its bound (spread not judged)",
            }
        );
    }
    // The workload's speed metric, for the record: reported, not judged.
    if let Some((name, _)) = reported.first() {
        let values: Vec<f64> = reported.iter().map(|r| r.1).collect();
        if let (Some(q), Some(spread)) = (stats::quartiles(&values), stats::iqr_share(&values)) {
            println!(
                "{:<22} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>10.5} {:>7} {:>10}  reported, ungated",
                name,
                "",
                q[0],
                stats::median(&values),
                q[2],
                spread,
                "-",
                "-"
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("tadbench: refusing to measure a debug build; run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("tadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.repeat_check {
        Some(runs) => repeat_check(&cli, runs),
        None => run_once(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cli = parse_args(&args("--workload routed_sat --seed 7 --seconds 20 --trace 1"))
            .expect("valid");
        assert_eq!(cli.opts.workload, "routed_sat");
        assert_eq!((cli.opts.seed, cli.opts.seconds, cli.opts.trace), (7, 20.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload routed_sat --trace 2")).is_err());
        assert!(parse_args(&args("--workload routed_sat --seed")).is_err());
        assert!(parse_args(&args("--workload routed_sat --repeat-check 1")).is_err());
    }

    #[test]
    fn result_line_round_trips_through_the_repeat_check_parser() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s"), ("seg_p50_ms", 2.5, "ms")],
            facts: Vec::new(),
            spans: Vec::new(),
        };
        let line = result_json(&r);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"seg_p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(metric_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(&line, "seg_p50_ms"), Some(2.5));
        assert_eq!(metric_in(&line, "absent"), None);
        assert_eq!(
            reported_in("# seg_p50_ms (reported, ungated): 2.3974, calm 1.9711"),
            Some(("seg_p50_ms".to_string(), 2.3974))
        );
        assert_eq!(
            reported_in("# train_tokens_per_s (reported, ungated): 16304.3").unwrap().1,
            16304.3
        );
        assert_eq!(reported_in("# seed: 3"), None);
    }
}
