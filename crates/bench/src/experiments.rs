//! One function per table/figure of the paper's evaluation section (§VI).
//!
//! Every function prints a Markdown table mirroring the paper's rows/series
//! and returns it (the `paper` binary also dumps CSV via `--out`). Absolute
//! values differ from the paper — the substrate is a synthetic city on CPU —
//! but the *shape* (method ordering, ID→OOD degradation, λ optimum, O(1)
//! updates, linear scalability) is the reproduction target; README
//! "Reproducing the paper" has the commands that regenerate it.

use std::hint::black_box;
use std::time::Instant;

use causaltad::CausalTad;
use tad_baselines::Detector;
use tad_eval::harness::{evaluate, evaluate_at_ratio, mix_normals};
use tad_eval::parts::{evaluate_parts, ScoreParts};
use tad_eval::report::{improvement_pct, Table};
use tad_eval::wrappers::CausalTadDetector;
use tad_trajsim::{CityDatasets, Trajectory};

use crate::opts::Opts;
use crate::suite::{causaltad_config, selected_cities, train_full_roster, TrainedSuite};

/// Timed passes behind each Fig. 7b cell, as many as `substrate` takes
/// for its slowest rows.
const FIG7B_PASSES: usize = 11;

/// A full study: every selected city trained with the complete roster.
pub struct Study {
    pub opts: Opts,
    pub suites: Vec<TrainedSuite>,
}

impl Study {
    /// Generates the cities and trains the roster on each.
    pub fn run(opts: Opts) -> Self {
        let suites = selected_cities(&opts).iter().map(|c| train_full_roster(c, &opts)).collect();
        Study { opts, suites }
    }

    fn quality_table(&self, title: &str, ood: bool) -> Table {
        let mut columns = vec!["Method".to_string()];
        for suite in &self.suites {
            for anomaly in ["Detour", "Switch"] {
                columns.push(format!("{} {anomaly} ROC-AUC", suite.city.name));
                columns.push(format!("{} {anomaly} PR-AUC", suite.city.name));
            }
        }
        let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut table = Table::new(title, &col_refs);

        // Collect per-method metric vectors so the Improvement row can
        // compare CausalTAD against the best baseline per column.
        let method_names: Vec<&str> = self.suites[0].all().iter().map(|(n, _)| *n).collect();
        let mut per_method: Vec<Vec<f64>> = vec![Vec::new(); method_names.len()];
        for suite in &self.suites {
            let data = &suite.city.data;
            let normals = if ood { &data.test_ood } else { &data.test_id };
            for anomalies in [&data.detour, &data.switch] {
                for (mi, (_, det)) in suite.all().iter().enumerate() {
                    let r = evaluate(*det, normals, anomalies);
                    per_method[mi].push(r.roc_auc);
                    per_method[mi].push(r.pr_auc);
                }
            }
        }
        for (mi, name) in method_names.iter().enumerate() {
            let mut row = vec![name.to_string()];
            row.extend(per_method[mi].iter().map(|&x| Table::metric(x)));
            table.push_row(row);
        }
        // Improvement row: CausalTAD (last) vs best baseline, per column.
        let causal_idx = method_names.len() - 1;
        let mut row = vec!["Improvement".to_string()];
        for col in 0..per_method[0].len() {
            let baselines: Vec<f64> = per_method[..causal_idx].iter().map(|m| m[col]).collect();
            row.push(improvement_pct(per_method[causal_idx][col], &baselines));
        }
        table.push_row(row);
        table
    }

    /// Table I: in-distribution evaluation.
    pub fn table1(&self) -> Table {
        self.quality_table("Table I — In-distribution evaluation", false)
    }

    /// Table II: out-of-distribution evaluation.
    pub fn table2(&self) -> Table {
        self.quality_table("Table II — Out-of-distribution evaluation", true)
    }

    /// Fig. 5: stability under distribution-shift ratio α (Detour, first
    /// city).
    pub fn fig5(&self) -> Table {
        let suite = &self.suites[0];
        let mut table = Table::new(
            format!("Fig. 5 — Stability vs shift ratio α ({} & Detour)", suite.city.name),
            &["Method", "alpha", "ROC-AUC", "PR-AUC"],
        );
        for (name, det) in suite.all() {
            if name == "iBOAT" || name == "BetaVAE" || name == "FactorVAE" {
                continue; // the paper's Fig. 5 tracks the Seq2Seq family + CausalTAD
            }
            for step in 0..=5 {
                let alpha = step as f64 / 5.0;
                let normals = mix_normals(
                    &suite.city.data.test_id,
                    &suite.city.data.test_ood,
                    alpha,
                    42 + step as u64,
                );
                let r = evaluate(det, &normals, &suite.city.data.detour);
                table.push_row(vec![
                    name.to_string(),
                    format!("{alpha:.1}"),
                    Table::metric(r.roc_auc),
                    Table::metric(r.pr_auc),
                ]);
            }
        }
        table
    }

    /// Fig. 6: online evaluation — metrics vs observed ratio.
    /// Panel (a): ID & Switch on the first city; panel (b): OOD & Switch on
    /// the last city (matching the paper's xian/chengdu panels).
    pub fn fig6(&self) -> Table {
        let mut table = Table::new(
            "Fig. 6 — Online evaluation (metric vs observed ratio)",
            &["Panel", "Method", "ratio", "ROC-AUC", "PR-AUC"],
        );
        let panels: [(&str, &TrainedSuite, bool); 2] = [
            ("a: ID & Switch", &self.suites[0], false),
            ("b: OOD & Switch", self.suites.last().expect("at least one suite"), true),
        ];
        for (panel, suite, ood) in panels {
            let normals: &[Trajectory] =
                if ood { &suite.city.data.test_ood } else { &suite.city.data.test_id };
            for (name, det) in suite.all() {
                if name == "iBOAT" || name == "BetaVAE" || name == "FactorVAE" {
                    continue; // paper compares the learning-based competitors
                }
                for step in 1..=5 {
                    let ratio = step as f64 / 5.0;
                    let r = evaluate_at_ratio(det, normals, &suite.city.data.switch, ratio);
                    table.push_row(vec![
                        panel.to_string(),
                        name.to_string(),
                        format!("{ratio:.1}"),
                        Table::metric(r.roc_auc),
                        Table::metric(r.pr_auc),
                    ]);
                }
            }
        }
        table
    }

    /// Fig. 7b: inference runtime per trajectory vs observed ratio — a
    /// whole-prefix scoring pass over 100 ID trips per detector and ratio,
    /// including the TG-VAE-only scorer (reusing the trained CausalTAD).
    /// One pass is about a millisecond, so each cell repeats it
    /// 11 times and reports the median and quartiles.
    pub fn fig7b(&self) -> Table {
        let suite = &self.suites[0];
        let mut table = Table::new(
            format!("Fig. 7b — Inference runtime per trajectory ({})", suite.city.name),
            &["Method", "ratio", "whole-prefix scoring µs/trajectory (median)", "q1", "q3"],
        );
        let test = &suite.city.data.test_id;
        let sample = &test[..test.len().min(100)];
        let mut time_rows = |name: &str, score_pool: &dyn Fn(f64)| {
            for step in 1..=5 {
                let ratio = step as f64 / 5.0;
                let mut us: Vec<f64> = (0..FIG7B_PASSES)
                    .map(|_| {
                        let started = Instant::now();
                        score_pool(ratio);
                        started.elapsed().as_secs_f64() * 1e6 / sample.len() as f64
                    })
                    .collect();
                us.sort_by(f64::total_cmp);
                let n = us.len();
                table.push_row(vec![
                    name.to_string(),
                    format!("{ratio:.1}"),
                    format!("{:.1}", us[n / 2]),
                    format!("{:.1}", us[n / 4]),
                    format!("{:.1}", us[3 * n / 4]),
                ]);
            }
        };
        for (name, det) in suite.all() {
            time_rows(name, &|ratio| {
                black_box(det.score_pool(sample, ratio));
            });
        }
        // TG-VAE scoring path shares the trained CausalTAD model: the same
        // pass, read as its likelihood part.
        let model = suite.causal.model().expect("trained");
        time_rows("TG-VAE", &|ratio| {
            let prefix_len = |t: &Trajectory| t.observed_prefix(ratio).len();
            let states = model.score_pool(sample, prefix_len, |_, _| {});
            black_box(states.iter().map(|s| s.likelihood_nll()).sum::<f64>());
        });
        table
    }

    /// Fig. 8: λ sweep on all combinations, each a view of one scoring
    /// pass per pool.
    pub fn fig8(&self) -> Table {
        let mut table = Table::new(
            "Fig. 8 — Performance of CausalTAD under different λ",
            &["City", "Combo", "lambda", "ROC-AUC", "PR-AUC"],
        );
        for suite in &self.suites {
            let model = suite.causal.model().expect("trained");
            let [id, ood, detour, switch] = test_parts(model, &suite.city.data);
            for lambda in [0.0, 0.01, 0.05, 0.1, 0.5, 1.0] {
                for (split, normals) in [("ID", &id), ("OOD", &ood)] {
                    for (anomaly, anomalies) in [("Detour", &detour), ("Switch", &switch)] {
                        let r = evaluate_parts(normals, anomalies, |p| p.full(lambda));
                        table.push_row(vec![
                            suite.city.name.clone(),
                            format!("{split}-{anomaly}"),
                            format!("{lambda}"),
                            Table::metric(r.roc_auc),
                            Table::metric(r.pr_auc),
                        ]);
                    }
                }
            }
        }
        table
    }
}

/// The parts of a city's test pools: `[test_id, test_ood, detour, switch]`.
fn test_parts(model: &CausalTad, data: &CityDatasets) -> [Vec<ScoreParts>; 4] {
    [&data.test_id, &data.test_ood, &data.detour, &data.switch].map(|p| ScoreParts::of(model, p))
}

/// Table III: ablation study. It fits one CausalTAD per city (not the
/// baseline roster) and reads its three rows off that model's parts: the
/// full score, the TG-VAE likelihood alone and the RP-VAE ELBO alone.
pub fn table3(opts: &Opts) -> Table {
    let cities = selected_cities(opts);
    let mut columns = vec!["Method".to_string(), "Metric".to_string()];
    for city in &cities {
        for split in ["ID", "OOD"] {
            for anomaly in ["Detour", "Switch"] {
                columns.push(format!("{} {split} {anomaly}", city.name));
            }
        }
    }
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new("Table III — Ablation study (TG-VAE / RP-VAE)", &col_refs);

    let cfg = causaltad_config(opts.scale, opts.epochs);
    let lambda = cfg.lambda;
    let views = [
        ("CausalTAD", ScoreParts::full as fn(&ScoreParts, f64) -> f64),
        ("TG-VAE", |p, _| p.nll),
        ("RP-VAE", |p, _| p.neg_elbo),
    ];
    let mut rows: Vec<Vec<String>> = (views.iter())
        .flat_map(|(name, _)| ["PR-AUC", "ROC-AUC"].map(|m| vec![name.to_string(), m.to_string()]))
        .collect();
    for city in &cities {
        let mut model = CausalTad::new(&city.net, cfg.clone());
        model.fit(&city.data.train);
        let [id, ood, detour, switch] = test_parts(&model, &city.data);
        for normals in [&id, &ood] {
            for anomalies in [&detour, &switch] {
                for ((_, view), pair) in views.iter().zip(rows.chunks_mut(2)) {
                    let r = evaluate_parts(normals, anomalies, |p| view(p, lambda));
                    pair[0].push(Table::metric(r.pr_auc));
                    pair[1].push(Table::metric(r.roc_auc));
                }
            }
        }
    }
    rows.into_iter().for_each(|row| table.push_row(row));
    table
}

/// Fig. 4: per-segment anomaly scores of a normal trajectory with an
/// unseen SD pair, under VSAE and under CausalTAD (likelihood, scaling,
/// debiased), plus the ground-truth segment popularity for reference.
pub fn fig4(opts: &Opts) -> Table {
    let cities = selected_cities(opts);
    let city = &cities[0];
    let suite = train_full_roster(city, opts);
    let vsae = suite.detector("VSAE").expect("VSAE trained");
    let model = suite.causal.model().expect("trained");
    let lambda = model.config().lambda;

    // The visualised trip: the longest OOD normal trajectory.
    let trip =
        suite.city.data.test_ood.iter().max_by_key(|t| t.len()).expect("OOD split non-empty");

    let mut table = Table::new(
        format!("Fig. 4 — Per-segment scores of a normal OOD trajectory ({})", city.name),
        &[
            "idx",
            "segment",
            "popularity",
            "VSAE marginal score",
            "CausalTAD nll",
            "CausalTAD log-scale",
            "CausalTAD debiased",
        ],
    );

    let mut trace = Vec::with_capacity(trip.len());
    model.score_pool(std::slice::from_ref(trip), Trajectory::len, |_, step| trace.push(step));
    let mut vsae_marginals = Vec::with_capacity(trip.len());
    let mut prev_vsae = 0.0f64;
    for (i, step) in trace.iter().enumerate() {
        // VSAE's marginal per-segment score: prefix-score difference.
        let cur = vsae.score_prefix(trip, i + 1);
        let vsae_marginal = if i == 0 { cur } else { cur - prev_vsae };
        prev_vsae = cur;
        vsae_marginals.push(vsae_marginal);
        table.push_row(vec![
            i.to_string(),
            step.segment.to_string(),
            format!("{:.3}", city.pref.relative_popularity(tad_roadnet::SegmentId(step.segment))),
            format!("{vsae_marginal:.3}"),
            format!("{:.3}", step.nll),
            format!("{:.3}", step.log_scale),
            format!("{:.3}", step.debiased(lambda)),
        ]);
    }

    // The paper's Fig. 4 is a road map coloured by per-segment scores; emit
    // both panels as SVGs when --out is set.
    if let Some(dir) = &opts.out_dir {
        use tad_roadnet::render::{render_svg, Highlight, RenderOptions};
        let normalise = |values: &[f64]| -> Vec<f64> {
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let span = (hi - lo).max(1e-12);
            values.iter().map(|v| (v - lo) / span).collect()
        };
        let causal_values: Vec<f64> = trace.iter().map(|s| s.debiased(lambda)).collect();
        for (name, values) in [("fig4_vsae", &vsae_marginals), ("fig4_causaltad", &causal_values)] {
            let highlights: Vec<Highlight> = trace
                .iter()
                .zip(normalise(values))
                .map(|(step, v)| Highlight {
                    segment: tad_roadnet::SegmentId(step.segment),
                    value: v,
                    color: None,
                })
                .collect();
            let svg = render_svg(&suite.city.net, &highlights, &RenderOptions::default());
            let path = dir.join(format!("{name}.svg"));
            if std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &svg)).is_ok() {
                eprintln!("wrote {path:?}");
            }
        }
    }
    table
}

/// Fig. 7a: training scalability — wall-clock time vs training-set size.
pub fn fig7a(opts: &Opts) -> Table {
    let cities = selected_cities(opts);
    let city = &cities[0];
    let mut table = Table::new(
        format!("Fig. 7a — Training time vs train-set fraction ({})", city.name),
        &["Method", "fraction", "trajectories", "seconds"],
    );
    let c_cfg = causaltad_config(opts.scale, opts.epochs.or(Some(4)));
    let b_cfg = crate::suite::baseline_config(opts.scale, opts.epochs.or(Some(4)));
    for step in 1..=5 {
        let frac = step as f64 / 5.0;
        let n = ((city.data.train.len() as f64) * frac).round() as usize;
        let subset = &city.data.train[..n];

        let mut causal = CausalTadDetector::new(c_cfg.clone());
        let started = Instant::now();
        causal.fit(&city.net, subset);
        table.push_row(vec![
            "CausalTAD".into(),
            format!("{frac:.1}"),
            n.to_string(),
            format!("{:.2}", started.elapsed().as_secs_f64()),
        ]);

        let mut vsae = tad_baselines::Vsae::vsae(b_cfg.clone());
        let started = Instant::now();
        vsae.fit(&city.net, subset);
        table.push_row(vec![
            "VSAE".into(),
            format!("{frac:.1}"),
            n.to_string(),
            format!("{:.2}", started.elapsed().as_secs_f64()),
        ]);

        let mut gmv = tad_baselines::GmVsae::new(b_cfg.clone(), 4);
        let started = Instant::now();
        gmv.fit(&city.net, subset);
        table.push_row(vec![
            "GM-VSAE".into(),
            format!("{frac:.1}"),
            n.to_string(),
            format!("{:.2}", started.elapsed().as_secs_f64()),
        ]);
    }
    table
}

/// Extra design ablations (the switches documented on
/// [`causaltad::CausalTadConfig`]): road-constrained decoding, SD decoder
/// (posterior collapse), and the §V-E.3 time-factorised scaling extension.
pub fn ablation_design(opts: &Opts) -> Table {
    let cities = selected_cities(opts);
    let city = &cities[0];
    let base = causaltad_config(opts.scale, opts.epochs);
    let variants: Vec<(&str, causaltad::CausalTadConfig)> = vec![
        ("full", base.clone()),
        ("no-road-constraint", {
            let mut c = base.clone();
            c.disable_road_constraint = true;
            c
        }),
        ("no-sd-decoder", {
            let mut c = base.clone();
            c.disable_sd_decoder = true;
            c
        }),
        ("time-factorised-scaling", {
            let mut c = base.clone();
            c.time_factorised_scaling = true;
            c
        }),
        // The reproduction adjustment documented on
        // `CausalTadConfig::score_includes_sd_nll` reverted to the paper's
        // ambiguous literal reading, plus the tied-embedding variant:
        ("tied-sd-embedding", {
            let mut c = base.clone();
            c.tie_sd_embedding = true;
            c
        }),
        ("score-with-sd-nll", {
            let mut c = base;
            c.score_includes_sd_nll = true;
            c
        }),
    ];
    let mut table = Table::new(
        format!("Design ablations ({})", city.name),
        &["Variant", "ID-Detour ROC", "OOD-Detour ROC", "ID-Switch ROC", "OOD-Switch ROC"],
    );
    for (name, cfg) in variants {
        let mut det = CausalTadDetector::new(cfg);
        eprintln!("training variant {name} ...");
        det.fit(&city.net, &city.data.train);
        let id_d = evaluate(&det, &city.data.test_id, &city.data.detour);
        let ood_d = evaluate(&det, &city.data.test_ood, &city.data.detour);
        let id_s = evaluate(&det, &city.data.test_id, &city.data.switch);
        let ood_s = evaluate(&det, &city.data.test_ood, &city.data.switch);
        table.push_row(vec![
            name.to_string(),
            Table::metric(id_d.roc_auc),
            Table::metric(ood_d.roc_auc),
            Table::metric(id_s.roc_auc),
            Table::metric(ood_s.roc_auc),
        ]);
    }
    table
}

/// Training-time summary table from a study's recorded times.
pub fn training_times(study: &Study) -> Table {
    let mut table = Table::new("Training wall-clock", &["City", "Method", "seconds"]);
    for suite in &study.suites {
        for (name, dur) in &suite.train_times {
            table.push_row(vec![
                suite.city.name.clone(),
                name.clone(),
                format!("{:.2}", dur.as_secs_f64()),
            ]);
        }
    }
    table
}

/// Fleet-scoring throughput (Fig. 7c, systems extension): events/sec of
/// the `tad-serve` engine vs a naive loop that advances each session's
/// `OnlineScorer` one `push` at a time, across concurrent-session counts.
///
/// "fleet x1" runs the engine with a single shard, isolating the gain of
/// micro-batched stepping (matrix-matrix GRU steps + step cache);
/// "fleet xN" adds shard parallelism on top.
pub fn fleet_throughput(opts: &Opts) -> Table {
    use tad_serve::FleetConfig;

    let cities = selected_cities(opts);
    let city = &cities[0];
    let cfg = causaltad_config(opts.scale, opts.epochs.or(Some(2)));
    let mut model = causaltad::CausalTad::new(&city.net, cfg);
    model.fit(&city.data.train);
    let model = std::sync::Arc::new(model);
    let shards = FleetConfig::default().num_shards;

    let mut table = Table::new(
        format!("Fig. 7c — Fleet scoring throughput ({})", city.name),
        &[
            "sessions",
            "events",
            "naive events/s",
            "fleet x1 events/s",
            &format!("fleet x{shards} events/s"),
            "speedup x1",
            &format!("speedup x{shards}"),
        ],
    );

    for &sessions in &[64usize, 512, 4096] {
        let walks = fleet_walks(&model, sessions, 24, 9);
        let events: usize = walks.iter().map(|w| w.len()).sum();

        let naive_eps = events as f64 / time_naive_fleet(&model, &walks);
        let one_eps = events as f64 / time_engine_fleet(&model, &walks, 1);
        let many_eps = events as f64 / time_engine_fleet(&model, &walks, shards);

        table.push_row(vec![
            sessions.to_string(),
            events.to_string(),
            format!("{naive_eps:.0}"),
            format!("{one_eps:.0}"),
            format!("{many_eps:.0}"),
            format!("{:.2}x", one_eps / naive_eps),
            format!("{:.2}x", many_eps / naive_eps),
        ]);
    }
    table
}

/// Valid successor-following walks for `sessions` concurrent trips.
pub fn fleet_walks(
    model: &causaltad::CausalTad,
    sessions: usize,
    len: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..sessions)
        .map(|i| {
            let mut walk = vec![(i % model.vocab()) as u32];
            while walk.len() < len {
                let succ = model.successors_of(*walk.last().expect("non-empty"));
                if succ.is_empty() {
                    break;
                }
                walk.push(succ[rng.gen_range(0..succ.len())]);
            }
            walk
        })
        .collect()
}

/// Seconds to replay every walk through per-session `OnlineScorer::push`
/// loops (the pre-`tad-serve` serving strategy), interleaved round-robin
/// like real fleet telemetry.
fn time_naive_fleet(model: &causaltad::CausalTad, walks: &[Vec<u32>]) -> f64 {
    let started = Instant::now();
    let mut scorers: Vec<_> =
        walks.iter().map(|w| model.online(w[0], *w.last().expect("non-empty"), 0)).collect();
    let longest = walks.iter().map(Vec::len).max().unwrap_or(0);
    for step in 0..longest {
        for (scorer, walk) in scorers.iter_mut().zip(walks) {
            if let Some(&seg) = walk.get(step) {
                scorer.push(seg);
            }
        }
    }
    started.elapsed().as_secs_f64()
}

/// Seconds for the `tad-serve` engine to ingest and score the same
/// interleaved stream and drain (including channel + thread overhead).
/// Events are fed from several producer threads, as gateway frontends
/// would; each producer owns a disjoint slice of the fleet so per-trip
/// order is preserved.
fn time_engine_fleet(
    model: &std::sync::Arc<causaltad::CausalTad>,
    walks: &[Vec<u32>],
    shards: usize,
) -> f64 {
    use tad_serve::{Event, FleetConfig, FleetEngine};
    const PRODUCERS: usize = 4;
    let started = Instant::now();
    let engine = FleetEngine::builder(std::sync::Arc::clone(model))
        .config(FleetConfig {
            num_shards: shards,
            queue_capacity: 8192,
            max_sessions_per_shard: walks.len().max(16),
            ..FleetConfig::default()
        })
        .build()
        .expect("trained model");
    let chunk = walks.len().div_ceil(PRODUCERS);
    std::thread::scope(|scope| {
        for (p, slice) in walks.chunks(chunk).enumerate() {
            let engine = &engine;
            scope.spawn(move || {
                let base = (p * chunk) as u64;
                let mut buf: Vec<Event> = Vec::with_capacity(2048);
                let flush = |buf: &mut Vec<Event>, force: bool| {
                    if buf.len() >= 1024 || (force && !buf.is_empty()) {
                        engine.submit_all(buf.drain(..)).expect("engine live");
                    }
                };
                for (i, walk) in slice.iter().enumerate() {
                    buf.push(Event::TripStart {
                        id: base + i as u64,
                        source: walk[0],
                        dest: *walk.last().expect("non-empty"),
                        time_slot: 0,
                    });
                }
                flush(&mut buf, true);
                let longest = slice.iter().map(Vec::len).max().unwrap_or(0);
                for step in 0..longest {
                    for (i, walk) in slice.iter().enumerate() {
                        if let Some(&seg) = walk.get(step) {
                            buf.push(Event::Segment { id: base + i as u64, seg });
                            flush(&mut buf, false);
                        }
                    }
                }
                for i in 0..slice.len() {
                    buf.push(Event::TripEnd { id: base + i as u64 });
                }
                flush(&mut buf, true);
            });
        }
    });
    engine.shutdown();
    started.elapsed().as_secs_f64()
}

/// Hostile-stream AUC grid: corruption channels × sanitization policies.
///
/// Every cell corrupts the test sets with a seeded fault model and scores
/// them through a [`tad_serve::FleetEngine`] carrying the cell's
/// [`tad_serve::StreamPolicy`] — the full admission path a production
/// gateway runs, not the offline `Detector::score` shortcut. Reported per
/// city on the ID normals vs Detour anomalies split:
///
/// * rows — clean stream, duplicates (30%), adjacent reorders (30%),
///   drops (15%), and a mixed channel with all five faults on;
/// * columns — ROC-AUC with the policy off, with sanitization on
///   (dedup window 2, reorder window 3, gaps scored through), and with
///   sanitization plus `GapPolicy::Reset`; each with its delta against
///   the city's clean × off baseline.
pub fn hostile_streams(opts: &Opts) -> Table {
    use tad_eval::hostile::hostile_cell;
    use tad_serve::{GapPolicy, StreamPolicy};
    use tad_trajsim::CorruptionConfig;

    let corruptions = [
        ("clean", CorruptionConfig::default()),
        ("duplicates 30%", CorruptionConfig::duplicates(0.30, 11)),
        ("reorders 30%", CorruptionConfig::reorders(0.30, 12)),
        ("drops 15%", CorruptionConfig::drops(0.15, 13)),
        (
            "mixed",
            CorruptionConfig {
                duplicate_prob: 0.15,
                reorder_prob: 0.15,
                drop_prob: 0.08,
                jitter_prob: 0.05,
                teleport_prob: 0.02,
                seed: 14,
            },
        ),
    ];
    let policies = [
        ("off", StreamPolicy::default()),
        (
            "sanitize",
            StreamPolicy { dedup_window: 2, reorder_window: 3, gap: GapPolicy::ScoreThrough },
        ),
        (
            "sanitize+reset",
            StreamPolicy { dedup_window: 2, reorder_window: 3, gap: GapPolicy::Reset },
        ),
    ];

    let mut columns: Vec<String> = vec!["City".into(), "Corruption".into()];
    for (name, _) in &policies {
        columns.push(format!("{name} ROC-AUC"));
        columns.push(format!("{name} Δ"));
    }
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Hostile streams — ROC-AUC under corruption × policy (ID normals vs Detour)",
        &column_refs,
    );

    for city in &selected_cities(opts) {
        let cfg = causaltad_config(opts.scale, opts.epochs);
        let mut model = causaltad::CausalTad::new(&city.net, cfg);
        eprintln!("training CausalTAD on {} ...", city.name);
        model.fit(&city.data.train);
        let model = std::sync::Arc::new(model);
        let normals = &city.data.test_id;
        let anomalies = &city.data.detour;

        let mut baseline = None;
        for (corruption_name, corruption) in &corruptions {
            let mut row = vec![city.name.clone(), corruption_name.to_string()];
            for (policy_name, policy) in &policies {
                eprintln!("  cell {corruption_name} × {policy_name} ...");
                let r = hostile_cell(&model, &city.net, policy, corruption, normals, anomalies);
                let base = *baseline.get_or_insert(r.roc_auc);
                row.push(Table::metric(r.roc_auc));
                row.push(format!("{:+.4}", r.roc_auc - base));
            }
            table.push_row(row);
        }
    }
    table
}

/// Prints a table to stdout and writes its CSV artefact.
pub fn emit(opts: &Opts, name: &str, table: &Table) {
    println!("{}", table.to_markdown());
    opts.write_csv(name, &table.to_csv());
}
