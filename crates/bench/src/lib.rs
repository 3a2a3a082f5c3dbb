//! # tad-bench
//!
//! Benchmark harness for the CausalTAD reproduction: the `paper` binary
//! regenerates every table and figure of the paper's evaluation section,
//! `tadbench` is the repository benchmark, and two plain-`main` benches
//! (`cargo bench -p tad-bench --bench <name>`) time what neither covers:
//! `fleet`, the `fleet_wave` sweep (`push_state` vs `push_batch` over wave
//! and hidden widths; the one bench that writes an artefact,
//! `BENCH_score.json`), and `substrate`, the kernels, shortest paths, city
//! generation and map matching underneath.
//!
//! `cargo run --release -p tad-bench --bin paper -- <artefact>...`:
//!
//! | Artefact | Paper artefact |
//! |---|---|
//! | `table1` | Table I — in-distribution evaluation |
//! | `table2` | Table II — out-of-distribution evaluation |
//! | `table3` | Table III — TG-VAE / RP-VAE ablation |
//! | `fig4` | Fig. 4 — per-segment score visualisation |
//! | `fig5` | Fig. 5 — stability vs shift ratio |
//! | `fig6` | Fig. 6 — metric vs observed ratio |
//! | `fig7` | Fig. 7 — training scalability + inference runtime |
//! | `fig8` | Fig. 8 — λ sweep |
//! | `ablation` | extra design ablations (road constraint, SD decoder, §V-E.3 scaling, tied SD embedding, SD NLL in the score) |
//! | `hostile` | corruption × sanitization-policy ROC-AUC grid |
//! | `all` | Tables I/II + Figs 5/6/7b/8 + training times |
//!
//! Every artefact reads one fit per city: a [`Study`] generates each city
//! once and fits the baseline roster and the default CausalTAD once per
//! city, on first use.
//! `paper` accepts `--scale quick|paper`, `--city xian|chengdu|both`,
//! `--out <dir>` (CSV dumps) and `--epochs <n>`; README "Reproducing the
//! paper" has the commands. Other binaries: `diagnose` (per-pool score
//! decomposition + λ sweep, a debugging tool) and `tadbench` (the
//! repository benchmark, which also carries sustained serving load).

pub mod experiments;
pub mod opts;
pub mod suite;

pub use opts::{CityChoice, Opts};
pub use suite::Study;

/// The `"host": {..}` member every checked-in `BENCH_*.json` starts with:
/// a figure is only comparable to another taken on the same cores, the
/// same compiler and a known commit.
pub fn host_json() -> String {
    let line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
    };
    format!(
        "\"host\": {{\"available_parallelism\": {}, \"rustc\": \"{}\", \"git_sha\": \"{}\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        line("rustc", &["--version"]),
        line("git", &["describe", "--always", "--dirty"]),
    )
}
