//! Reproduces the paper's tables and figures: name the artefacts, get their
//! Markdown tables (and CSVs with `--out`).
//!
//! ```sh
//! cargo run --release -p tad-bench --bin paper -- table1 fig8 --scale quick --city xian
//! cargo run --release -p tad-bench --bin paper -- all --scale paper --out results/
//! ```
//!
//! Whatever needs the full trained roster (`table1`, `table2`, `fig5`,
//! `fig6`, `fig7`, `fig8`, `all`) shares one training pass; `all` is the
//! cheapest way to regenerate the bulk of the evaluation (Tables I/II and
//! Figs. 5/6/7b/8 plus the recorded training times). See the `tad-bench`
//! crate docs for the artefact list.

use tad_bench::{
    ablation_design, emit, fig4, fig7a, fleet_throughput, hostile_streams, table3, training_times,
    Opts, Study,
};

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

    let mut trained: Option<Study> = None;
    for name in &names {
        match name.as_str() {
            "table1" => emit(&opts, "table1_id", &study(&mut trained, &opts).table1()),
            "table2" => emit(&opts, "table2_ood", &study(&mut trained, &opts).table2()),
            "table3" => emit(&opts, "table3_ablation", &table3(&opts)),
            "fig4" => emit(&opts, "fig4_score_map", &fig4(&opts)),
            "fig5" => emit(&opts, "fig5_stability", &study(&mut trained, &opts).fig5()),
            "fig6" => emit(&opts, "fig6_online", &study(&mut trained, &opts).fig6()),
            "fig7" => {
                emit(&opts, "fig7a_training", &fig7a(&opts));
                emit(&opts, "fig7b_inference", &study(&mut trained, &opts).fig7b());
                emit(&opts, "fig7c_fleet", &fleet_throughput(&opts));
            }
            "fig8" => emit(&opts, "fig8_lambda", &study(&mut trained, &opts).fig8()),
            "ablation" => emit(&opts, "ablation_design", &ablation_design(&opts)),
            "hostile" => emit(&opts, "hostile_streams", &hostile_streams(&opts)),
            "all" => {
                let study = study(&mut trained, &opts);
                emit(&opts, "table1_id", &study.table1());
                emit(&opts, "table2_ood", &study.table2());
                emit(&opts, "fig5_stability", &study.fig5());
                emit(&opts, "fig6_online", &study.fig6());
                emit(&opts, "fig7b_inference", &study.fig7b());
                emit(&opts, "fig8_lambda", &study.fig8());
                emit(&opts, "training_times", &training_times(study));
            }
            _ => unreachable!("artefact names were checked above"),
        }
    }
}

/// The full roster trained on every selected city: one pass, run when the
/// first artefact that needs it is reached and shared by the rest.
fn study<'a>(trained: &'a mut Option<Study>, opts: &Opts) -> &'a mut Study {
    trained.get_or_insert_with(|| Study::run(opts.clone()))
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
