//! Reproduces the paper's tables and figures: name the artefacts, get their
//! Markdown tables (and CSVs with `--out`).
//!
//! ```sh
//! cargo run --release -p tad-bench --bin paper -- table1 fig8 --scale quick --city xian
//! cargo run --release -p tad-bench --bin paper -- all --scale paper --out results/
//! ```
//!
//! Every artefact reads one [`Study`]: each selected city is generated
//! once, and the baseline roster and the default CausalTAD are each
//! fitted once per city, when the first artefact that needs them runs.
//! `table3`, `fig8` and `hostile` fit CausalTAD only; the tables and
//! figures that compare methods fit the roster too. `all` regenerates the
//! bulk of the evaluation (Tables I/II and Figs. 5/6/7b/8 plus the
//! recorded training times). See the `tad-bench` crate docs for the
//! artefact list.

use tad_bench::{Opts, Study};

const ARTEFACTS: [&str; 11] = [
    "table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation", "hostile",
    "all",
];

/// Splits the command line into artefact names (the bare words) and the
/// [`Opts`] flags, each of which takes one value.
fn split_args(mut args: impl Iterator<Item = String>) -> (Vec<String>, Vec<String>) {
    let (mut names, mut flags) = (Vec::new(), Vec::new());
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            flags.push(arg);
            flags.extend(args.next());
        } else {
            names.push(arg);
        }
    }
    (names, flags)
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: paper <artefact>... [--scale quick|paper] [--city xian|chengdu|both] \
         [--out <dir>] [--epochs <n>]\nartefacts: {}",
        ARTEFACTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let (names, flags) = split_args(std::env::args().skip(1));
    let opts = Opts::parse(flags.into_iter()).unwrap_or_else(|msg| usage(&msg));
    if names.is_empty() {
        usage("name at least one artefact");
    }
    // Refuse a typo before hours of training, not after.
    if let Some(bad) = names.iter().find(|n| !ARTEFACTS.contains(&n.as_str())) {
        usage(&format!("unknown artefact {bad:?}"));
    }

    let study = Study::new(opts);
    for name in &names {
        match name.as_str() {
            "table1" => study.emit("table1_id", &study.table1()),
            "table2" => study.emit("table2_ood", &study.table2()),
            "table3" => study.emit("table3_ablation", &study.table3()),
            "fig4" => study.emit("fig4_score_map", &study.fig4()),
            "fig5" => study.emit("fig5_stability", &study.fig5()),
            "fig6" => study.emit("fig6_online", &study.fig6()),
            "fig7" => {
                study.emit("fig7a_training", &study.fig7a());
                study.emit("fig7b_inference", &study.fig7b());
            }
            "fig8" => study.emit("fig8_lambda", &study.fig8()),
            "ablation" => study.emit("ablation_design", &study.ablation_design()),
            "hostile" => study.emit("hostile_streams", &study.hostile_streams()),
            "all" => {
                study.emit("table1_id", &study.table1());
                study.emit("table2_ood", &study.table2());
                study.emit("fig5_stability", &study.fig5());
                study.emit("fig6_online", &study.fig6());
                study.emit("fig7b_inference", &study.fig7b());
                study.emit("fig8_lambda", &study.fig8());
                study.emit("training_times", &study.training_times());
            }
            _ => unreachable!("artefact names were checked above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_words_are_artefacts_and_every_flag_keeps_its_value() {
        let args = ["table1", "--scale", "quick", "fig8", "--city", "xian", "--out"];
        let (names, flags) = split_args(args.iter().map(|s| s.to_string()));
        assert_eq!(names, ["table1", "fig8"]);
        assert_eq!(flags, ["--scale", "quick", "--city", "xian", "--out"]);
        // The dangling flag is `Opts::parse`'s to refuse.
        assert!(Opts::parse(flags.into_iter()).is_err());
    }
}
