//! Training-path benchmarks: epoch wall-clock, tokens/s and GMAC/s for
//! forward+backward on the fig7 workload at every width `tadbench` trains
//! at, plus kernel-level timings of the matmul layouts at training shapes
//! and of the GRU recurrence's own products.
//!
//! Four trainers run the same data with identical rng streams:
//!
//! * `reference_scalar` — the pre-vectorisation path: one trajectory per
//!   tape, unfused GRU steps, per-transition CE nodes
//!   (`CausalTad::trajectory_loss_reference`). Default widths only.
//! * `microbatch_1` — the fused sequential path (one trajectory per tape,
//!   pooled tape memory). Default widths only.
//! * `microbatch_8` — the production path: 8 trajectories row-stacked per
//!   tape pass, the whole ragged recurrence one tape node. Every width:
//!   `default` (hidden 48, the routed `tadbench` workloads), `paper_scale`
//!   (hidden 128, `train_eval`) and `wide` (embed 64 / hidden 256 / latent
//!   32, `engine_wide_sat`).
//! * `fit` — `causaltad::Trainer::fit` itself, i.e. `CausalTad::fit` minus
//!   `precompute_scaling`: what every set-up actually pays. The three rows
//!   above are this file's own one-tape loop over
//!   `CausalTad::trajectory_loss_batch`; `fit` runs the TG-VAE and the
//!   RP-VAE as two lanes on two threads and must end every epoch on
//!   `microbatch_8`'s loss, to the bit. Every width.
//!
//! Besides the Criterion report, the run writes machine-readable
//! `BENCH_train.json` (override the path with `BENCH_TRAIN_OUT`) with the
//! host it was taken on and the same figures at the parent commit beside
//! them, so the perf trajectory is tracked PR-over-PR, and **asserts** that
//! the micro-batched epoch losses track the scalar reference and `fit`'s
//! equal `microbatch_8`'s — a kernel or trainer regression fails the bench
//! run, not just the numbers — and that seven
//! rows through the recurrent backward product do not cost twice what
//! eight do (the leftover rows of a row tile must never fall back to a
//! serial dot chain).
//!
//! `CRITERION_QUICK=1` shrinks the workload for CI smoke runs.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use causaltad::{CausalTad, CausalTadConfig, Trainer};
use tad_autodiff::optim::Adam;
use tad_autodiff::{PackedRhs, Tape, Tensor};
use tad_eval::cities::{xian_s, Scale};
use tad_trajsim::{generate_city, Trajectory};

fn quick_mode() -> bool {
    std::env::var("CRITERION_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// The true pre-vectorisation epoch time on this workload at default
/// widths, measured at the seed of the vectorisation PR (commit b660a21:
/// unblocked scalar kernels, allocation-per-node tape, per-trajectory
/// training) on the 1-core container of that time. `reference_scalar`
/// below reconstructs that *formulation* but runs on today's substrate
/// (tiled kernels, pooled tape), so it is faster than the real pre-PR path.
const PRE_PR_SECONDS_PER_EPOCH: f64 = 0.567;

/// The parent of the two-lane trainer (`Trainer::fit` one tape, one
/// thread), measured with this same bench file on the host named in
/// `BENCH_train.json`'s `host` block, full (non-quick) mode, alternated
/// with runs of this change; the median of three. Trainers: `(width,
/// trainer, seconds per epoch)`; kernels: `(name, µs per call)`. Only the
/// `fit` rows run code that differs between the two commits — the other
/// rows and the kernels say how fast the host was in that series.
const PARENT_COMMIT: &str = "6ee447e";
const PARENT_TRAINERS: [(&str, &str, f64); 8] = [
    ("default", "reference_scalar", 0.3588),
    ("default", "microbatch_1", 0.2173),
    ("default", "microbatch_8", 0.1234),
    ("default", "fit", 0.1288),
    ("paper_scale", "microbatch_8", 0.3429),
    ("paper_scale", "fit", 0.3759),
    ("wide", "microbatch_8", 0.9204),
    ("wide", "fit", 0.9454),
];
const PARENT_KERNELS: [(&str, f64); 18] = [
    ("matmul_t_128x48x514", 106.33),
    ("matmul_tn_128x514x48", 99.48),
    ("matmul_8x24x144", 1.06),
    ("matmul_t_131x256x514", 568.92),
    ("h_u_per_call_pack_m1", 12.01),
    ("h_u_packed_once_m1", 17.08),
    ("h_u_per_call_pack_m8", 73.43),
    ("h_u_packed_once_m8", 50.07),
    ("dgh_ut_per_call_pack_m1", 115.82),
    ("dgh_ut_packed_once_m1", 18.18),
    ("dgh_ut_per_call_pack_m5", 142.23),
    ("dgh_ut_packed_once_m5", 45.70),
    ("dgh_ut_per_call_pack_m7", 141.10),
    ("dgh_ut_packed_once_m7", 46.72),
    ("dgh_ut_per_call_pack_m8", 160.50),
    ("dgh_ut_packed_once_m8", 50.83),
    ("du_per_step_25x8", 1737.83),
    ("du_stacked_200", 1470.83),
];

/// The fig7 workload: the xian-s quick-scale city (600 training
/// trajectories at full size; CI smoke uses a 100-trajectory slice).
fn workload() -> (tad_trajsim::City, usize) {
    let city = generate_city(&xian_s(Scale::Quick));
    let take = if quick_mode() { 100.min(city.data.train.len()) } else { city.data.train.len() };
    (city, take)
}

/// One model width the bench trains at.
struct Width {
    label: &'static str,
    cfg: fn() -> CausalTadConfig,
    /// Epochs of a full (non-quick) run.
    epochs: usize,
    /// Run the scalar reference and the sequential trainer too (and assert
    /// the loss equivalence); the scalar path is too slow to be worth it
    /// past default widths.
    all_trainers: bool,
}

/// `tadbench`'s `wide_model()` widths (`engine_wide_sat`).
fn wide() -> CausalTadConfig {
    CausalTadConfig {
        embed_dim: 64,
        hidden_dim: 256,
        latent_dim: 32,
        ..CausalTadConfig::test_scale()
    }
}

const WIDTHS: [Width; 3] = [
    Width { label: "default", cfg: CausalTadConfig::default, epochs: 4, all_trainers: true },
    Width {
        label: "paper_scale",
        cfg: CausalTadConfig::paper_scale,
        epochs: 2,
        all_trainers: false,
    },
    Width { label: "wide", cfg: wide, epochs: 2, all_trainers: false },
];

/// One optimiser epoch of the pre-vectorisation scalar path, mirroring the
/// `Trainer` loop structure (same shuffle stream, same 1/batch scaling).
fn epoch_reference(
    model: &mut CausalTad,
    train: &[Trajectory],
    order: &mut [usize],
    tape: &mut Tape,
    adam: &mut Adam,
    rng: &mut StdRng,
) -> f64 {
    let cfg = model.config().clone();
    order.shuffle(rng);
    let mut epoch_loss = 0.0f64;
    let mut counted = 0usize;
    for batch in order.chunks(cfg.batch_size) {
        let scale = 1.0 / batch.len() as f32;
        for &idx in batch {
            let t = &train[idx];
            if t.len() < 2 {
                continue;
            }
            let segments: Vec<u32> = t.segments.iter().map(|s| s.0).collect();
            tape.reset();
            let loss = model.trajectory_loss_reference(tape, &segments, t.time_slot, rng);
            epoch_loss += tape.value(loss).get(0, 0) as f64;
            counted += 1;
            let scaled = tape.scale(loss, scale);
            tape.backward(scaled, model.store_mut());
        }
        if cfg.grad_clip > 0.0 {
            model.store_mut().clip_grad_norm(cfg.grad_clip);
        }
        adam.step(model.store_mut());
    }
    epoch_loss / counted.max(1) as f64
}

/// One optimiser epoch of the micro-batched path (same loop skeleton).
fn epoch_microbatch(
    model: &mut CausalTad,
    train: &[Trajectory],
    order: &mut [usize],
    tape: &mut Tape,
    adam: &mut Adam,
    rng: &mut StdRng,
    micro_batch: usize,
) -> f64 {
    let cfg = model.config().clone();
    order.shuffle(rng);
    let mut epoch_loss = 0.0f64;
    let mut counted = 0usize;
    for batch in order.chunks(cfg.batch_size) {
        let scale = 1.0 / batch.len() as f32;
        let eligible: Vec<&Trajectory> =
            batch.iter().map(|&idx| &train[idx]).filter(|t| t.len() >= 2).collect();
        for chunk in eligible.chunks(micro_batch) {
            tape.reset();
            let loss = model.trajectory_loss_batch(tape, chunk, rng);
            epoch_loss += tape.value(loss).get(0, 0) as f64;
            counted += chunk.len();
            let scaled = tape.scale(loss, scale);
            tape.backward(scaled, model.store_mut());
        }
        if cfg.grad_clip > 0.0 {
            model.store_mut().clip_grad_norm(cfg.grad_clip);
        }
        adam.step(model.store_mut());
    }
    epoch_loss / counted.max(1) as f64
}

/// Analytic MAC count of forward+backward for one epoch. Backward of a
/// `m·k·n` matmul costs two products of the same volume (`dA`, `dB`), so
/// each forward MAC is counted three times. Elementwise work is excluded —
/// this is the conventional "useful GEMM work" normalisation.
fn epoch_macs(model: &CausalTad, train: &[Trajectory]) -> f64 {
    let cfg = model.config();
    let (de, dh, dl, rp_dl) = (cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim, cfg.rp_latent_dim);
    let vocab = model.vocab();
    let mut fwd = 0.0f64;
    for t in train {
        if t.len() < 2 {
            continue;
        }
        // TG-VAE fixed cost: encoder, Gaussian head, SD decoder (two
        // full-vocab heads), decoder init.
        fwd += (2 * de * dh + dh * 2 * dl + dl * dh + 2 * dh * vocab + dl * dh) as f64;
        for w in t.segments.windows(2) {
            // GRU step + road-constrained head.
            let cands = model.successors_of(w[0].0).len();
            fwd += (de * 3 * dh + dh * 3 * dh + dh * cands) as f64;
        }
        // RP-VAE per token: encoder, head, decoder hidden, full-vocab head.
        fwd += (t.len() * (de * dh + dh * 2 * rp_dl + rp_dl * dh + dh * vocab)) as f64;
    }
    3.0 * fwd
}

struct TrainRun {
    width: &'static str,
    label: &'static str,
    seconds_per_epoch: f64,
    tokens_per_s: f64,
    gmacs: f64,
    epoch_losses: Vec<f64>,
}

impl TrainRun {
    /// A finished run of `epoch_losses.len()` epochs over `train` that
    /// took `wall_s` seconds.
    fn new(
        width: &Width,
        label: &'static str,
        model: &CausalTad,
        train: &[Trajectory],
        wall_s: f64,
        epoch_losses: Vec<f64>,
    ) -> TrainRun {
        let tokens: usize = train.iter().map(|t| t.len()).sum();
        let secs = wall_s / epoch_losses.len() as f64;
        TrainRun {
            width: width.label,
            label,
            seconds_per_epoch: secs,
            tokens_per_s: tokens as f64 / secs,
            gmacs: epoch_macs(model, train) / secs / 1e9,
            epoch_losses,
        }
    }
}

impl Width {
    /// Epochs of this run.
    fn run_epochs(&self) -> usize {
        if quick_mode() {
            2
        } else {
            self.epochs
        }
    }
}

fn run_trainer(
    width: &Width,
    label: &'static str,
    city: &tad_trajsim::City,
    take: usize,
    micro_batch: Option<usize>,
) -> TrainRun {
    let train = &city.data.train[..take];
    let cfg = (width.cfg)();
    let epochs = width.run_epochs();
    let mut model = CausalTad::new(&city.net, cfg.clone());
    let mut adam = Adam::new(model.store(), cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut tape = Tape::new();
    let mut epoch_losses = Vec::with_capacity(epochs);
    let started = Instant::now();
    for _ in 0..epochs {
        let mean = match micro_batch {
            None => epoch_reference(&mut model, train, &mut order, &mut tape, &mut adam, &mut rng),
            Some(mb) => {
                epoch_microbatch(&mut model, train, &mut order, &mut tape, &mut adam, &mut rng, mb)
            }
        };
        epoch_losses.push(mean);
    }
    let wall_s = started.elapsed().as_secs_f64();
    TrainRun::new(width, label, &model, train, wall_s, epoch_losses)
}

/// `Trainer::fit` over the same data, seed and epochs as the loops above.
fn run_fit(width: &Width, city: &tad_trajsim::City, take: usize) -> TrainRun {
    let train = &city.data.train[..take];
    let cfg = CausalTadConfig { epochs: width.run_epochs(), ..(width.cfg)() };
    let mut model = CausalTad::new(&city.net, cfg);
    let report = Trainer::fit(&mut model, train);
    let wall_s = report.wall_time.as_secs_f64();
    TrainRun::new(width, "fit", &model, train, wall_s, report.epoch_losses)
}

/// One timed kernel: µs per call and the GMAC/s that is.
struct KernelRun {
    name: String,
    us: f64,
    gmacs: f64,
}

fn write_json(runs: &[TrainRun], take: usize, tokens: usize, kernels: &[KernelRun]) {
    // `cargo bench` runs with the package directory as cwd; default to the
    // workspace root so the artefact lands next to README.md.
    let path = std::env::var("BENCH_TRAIN_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json").to_string()
    });
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", tad_bench::host_json()));
    out.push_str(&format!(
        "  \"workload\": {{\"city\": \"xian-s\", \"scale\": \"quick\", \"trajectories\": {take}, \"tokens_per_epoch\": {tokens}, \"quick_mode\": {}}},\n",
        quick_mode()
    ));
    out.push_str(&format!(
        "  \"baseline_pre_pr\": {{\"seconds_per_epoch\": {PRE_PR_SECONDS_PER_EPOCH}, \"note\": \"default widths, measured at seed commit b660a21 on the full (non-quick) workload, on the 1-core container of that time\"}},\n",
    ));
    out.push_str("  \"widths\": {\n");
    for (w, width) in WIDTHS.iter().enumerate() {
        let cfg = (width.cfg)();
        let epochs = width.run_epochs();
        out.push_str(&format!(
            "    \"{}\": {{\n      \"config\": {{\"embed_dim\": {}, \"hidden_dim\": {}, \"latent_dim\": {}, \"rp_latent_dim\": {}, \"batch_size\": {}, \"micro_batch\": {}, \"epochs\": {epochs}}},\n      \"trainers\": {{\n",
            width.label, cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim, cfg.rp_latent_dim, cfg.batch_size, cfg.micro_batch
        ));
        let of_width: Vec<&TrainRun> = runs.iter().filter(|r| r.width == width.label).collect();
        for (i, r) in of_width.iter().enumerate() {
            // Parent and pre-PR figures were measured on the full workload;
            // quick-mode slices are not comparable to them.
            let parent = PARENT_TRAINERS
                .iter()
                .find(|&&(w, t, _)| w == r.width && t == r.label)
                .filter(|_| !quick_mode())
                .map_or("null".to_string(), |&(_, _, s)| format!("{s:.6}"));
            let vs_pre_pr = if quick_mode() || !width.all_trainers {
                "null".to_string()
            } else {
                format!("{:.2}", PRE_PR_SECONDS_PER_EPOCH / r.seconds_per_epoch)
            };
            out.push_str(&format!(
                "        \"{}\": {{\"seconds_per_epoch\": {:.6}, \"parent_seconds_per_epoch\": {parent}, \"tokens_per_s\": {:.1}, \"gmacs_fwd_bwd\": {:.3}, \"speedup_vs_pre_pr\": {vs_pre_pr}, \"final_loss\": {:.9}}}{}\n",
                r.label,
                r.seconds_per_epoch,
                r.tokens_per_s,
                r.gmacs,
                r.epoch_losses.last().copied().unwrap_or(f64::NAN),
                if i + 1 < of_width.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!("      }}\n    }}{}\n", if w + 1 < WIDTHS.len() { "," } else { "" }));
    }
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"parent\": {{\"commit\": \"{PARENT_COMMIT}\", \"note\": \"parent_* figures: this bench at the parent commit on this host, full mode, median of three runs alternated with runs of this change; only the fit rows run code that differs between the two commits\"}},\n",
    ));
    out.push_str("  \"kernels\": {\n");
    for (i, k) in kernels.iter().enumerate() {
        let parent = PARENT_KERNELS
            .iter()
            .find(|&&(name, _)| name == k.name)
            .filter(|_| !quick_mode())
            .map_or("null".to_string(), |&(_, us)| format!("{us:.2}"));
        out.push_str(&format!(
            "    \"{}\": {{\"us\": {:.2}, \"parent_us\": {parent}, \"gmacs\": {:.2}}}{}\n",
            k.name,
            k.us,
            k.gmacs,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

/// Times one kernel at a fixed shape over one slice of time budget.
fn time_kernel(name: impl Into<String>, macs_per_call: usize, mut call: impl FnMut()) -> KernelRun {
    // Warm-up.
    call();
    let slice = if quick_mode() { 0.004 } else { 0.05 };
    let started = Instant::now();
    let mut calls = 0u64;
    while started.elapsed().as_secs_f64() < slice {
        call();
        calls += 1;
    }
    let secs = started.elapsed().as_secs_f64() / calls as f64;
    KernelRun { name: name.into(), us: secs * 1e6, gmacs: macs_per_call as f64 / secs / 1e9 }
}

/// Kernel-level timings at the training hot shapes: the full-vocab head
/// and the batched GRU projection at default widths, then the recurrence's
/// own products at `wide` widths (hidden 256) — the forward `h·U`, the
/// backward `dgh·Uᵀ` at full and leftover row counts, and `dU` — each the
/// way the per-step composition issued it (`U` re-packed by every call)
/// and the way the whole-recurrence node does (`U`/`Uᵀ` packed once per
/// pass, one stacked `dU` product).
fn kernel_runs(vocab: usize) -> Vec<KernelRun> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut rand = |r: usize, c: usize| Tensor::rand_uniform(r, c, -1.0, 1.0, &mut rng);
    let mut kernels = Vec::new();

    let (n_rows, dh) = (128usize, 48usize);
    let x = rand(n_rows, dh);
    let w = rand(vocab, dh);
    let mut logits = Tensor::zeros(n_rows, vocab);
    let g = rand(n_rows, vocab);
    let mut dw = Tensor::zeros(vocab, dh);
    kernels.push(time_kernel(
        format!("matmul_t_{n_rows}x{dh}x{vocab}"),
        n_rows * dh * vocab,
        || x.matmul_t_into(&w, &mut logits),
    ));
    kernels.push(time_kernel(
        format!("matmul_tn_{n_rows}x{vocab}x{dh}"),
        n_rows * vocab * dh,
        || g.matmul_tn_into(&x, &mut dw),
    ));
    let (gru_x, gru_w) = (rand(8, 24), rand(24, 144));
    let mut gru_out = Tensor::zeros(8, 144);
    kernels.push(time_kernel("matmul_8x24x144", 8 * 24 * 144, || {
        gru_x.matmul_into(&gru_w, &mut gru_out)
    }));

    // A ragged head at hidden 256: 131 rows leave three to the short tile.
    let hd = 256usize;
    let (x, w) = (rand(131, hd), rand(vocab, hd));
    let mut logits = Tensor::zeros(131, vocab);
    kernels.push(time_kernel(format!("matmul_t_131x{hd}x{vocab}"), 131 * hd * vocab, || {
        x.matmul_t_into(&w, &mut logits)
    }));

    let u = rand(hd, 3 * hd);
    let packed = |pack: fn(&Tensor, Tensor) -> PackedRhs, k: usize, n: usize| {
        let (rows, cols) = PackedRhs::storage_shape(k, n);
        pack(&u, Tensor::zeros(rows, cols))
    };
    let packed_u = packed(PackedRhs::pack, hd, 3 * hd);
    let packed_ut = packed(PackedRhs::pack_transposed, 3 * hd, hd);
    for m in [1usize, 8] {
        let h = rand(m, hd);
        let mut gh = Tensor::zeros(m, 3 * hd);
        kernels.push(time_kernel(format!("h_u_per_call_pack_m{m}"), m * hd * 3 * hd, || {
            h.matmul_into(&u, &mut gh)
        }));
        kernels.push(time_kernel(format!("h_u_packed_once_m{m}"), m * hd * 3 * hd, || {
            packed_u.matmul_into(h.data(), gh.data_mut())
        }));
    }
    for m in [1usize, 5, 7, 8] {
        let dgh = rand(m, 3 * hd);
        let mut dh = Tensor::zeros(m, hd);
        kernels.push(time_kernel(format!("dgh_ut_per_call_pack_m{m}"), m * hd * 3 * hd, || {
            dgh.matmul_t_acc_into(&u, &mut dh)
        }));
        kernels.push(time_kernel(format!("dgh_ut_packed_once_m{m}"), m * hd * 3 * hd, || {
            packed_ut.matmul_acc_into(dgh.data(), dh.data_mut())
        }));
    }
    // dU over a 25-step, 8-row recurrence.
    let (steps, m) = (25usize, 8usize);
    let (h_stack, dgh_stack) = (rand(steps * m, hd), rand(steps * m, 3 * hd));
    let step_rows = |t: &Tensor, s: usize| {
        Tensor::from_vec(m, t.cols(), t.data()[s * m * t.cols()..(s + 1) * m * t.cols()].to_vec())
    };
    let per_step: Vec<(Tensor, Tensor)> =
        (0..steps).map(|s| (step_rows(&h_stack, s), step_rows(&dgh_stack, s))).collect();
    let mut du = Tensor::zeros(hd, 3 * hd);
    kernels.push(time_kernel("du_per_step_25x8", steps * m * hd * 3 * hd, || {
        du.fill_zero();
        for (h, dgh) in &per_step {
            h.matmul_tn_acc_into(dgh, &mut du);
        }
    }));
    kernels.push(time_kernel("du_stacked_200", steps * m * hd * 3 * hd, || {
        h_stack.matmul_tn_into(&dgh_stack, &mut du)
    }));
    kernels
}

fn bench_training(c: &mut Criterion) {
    let (city, take) = workload();
    let tokens: usize = city.data.train[..take].iter().map(|t| t.len()).sum();

    let mut runs = Vec::new();
    for width in &WIDTHS {
        if width.all_trainers {
            runs.push(run_trainer(width, "reference_scalar", &city, take, None));
            runs.push(run_trainer(width, "microbatch_1", &city, take, Some(1)));
        }
        runs.push(run_trainer(width, "microbatch_8", &city, take, Some(8)));
        runs.push(run_fit(width, &city, take));
    }
    for r in &runs {
        println!(
            "train_epoch/{:<12} {:<18} {:>9.4} s/epoch  {:>9.0} tokens/s  {:>7.2} GMAC/s  final loss {:.6}",
            r.width, r.label, r.seconds_per_epoch, r.tokens_per_s, r.gmacs, r.epoch_losses.last().unwrap()
        );
    }

    // Regression guard: the micro-batched losses must track the scalar
    // reference per epoch. A broken kernel or backward rule shows up here
    // long before the timings drift.
    for width in WIDTHS.iter().filter(|w| w.all_trainers) {
        let of_width: Vec<&TrainRun> = runs.iter().filter(|r| r.width == width.label).collect();
        let reference = of_width[0];
        for r in &of_width[1..] {
            for (epoch, (a, b)) in r.epoch_losses.iter().zip(&reference.epoch_losses).enumerate() {
                let rel = (a - b).abs() / b.abs().max(1e-12);
                assert!(
                    rel < 1e-4,
                    "{} {}: epoch {epoch} loss {a} diverged from reference {b} (rel {rel:e})",
                    r.width,
                    r.label
                );
            }
        }
    }

    // The two-lane trainer is the one-tape loop run on two threads: same
    // noise, same sums in the same order, so the same losses to the bit.
    for width in &WIDTHS {
        let losses_of = |label: &str| {
            let run = runs.iter().find(|r| r.width == width.label && r.label == label);
            &run.expect("every width runs both").epoch_losses
        };
        assert_eq!(
            losses_of("fit"),
            losses_of("microbatch_8"),
            "{}: Trainer::fit left the one-tape loop's losses",
            width.label
        );
    }

    // Five passes over the whole list, the fastest reading of each kernel
    // kept: a slow phase of the shared host lasts longer than one kernel's
    // slice, so repeats must be spread out to step around it.
    let kernels = (0..5)
        .map(|_| kernel_runs(city.net.num_segments()))
        .reduce(|best, pass| {
            best.into_iter().zip(pass).map(|(a, b)| if b.us < a.us { b } else { a }).collect()
        })
        .expect("five passes");
    for k in &kernels {
        println!("kernel/{:<28} {:>9.2} us  {:>8.2} GMAC/s", k.name, k.us, k.gmacs);
    }
    // No row count is a trap: seven rows are one full tile and a three-row
    // short tile on the same panels, never a serial chain per element
    // (which made them cost 3.8x eight rows before the whole-recurrence node).
    let us_of = |name: &str| kernels.iter().find(|k| k.name == name).expect("timed kernel").us;
    for form in ["per_call_pack", "packed_once"] {
        let (seven, eight) =
            (us_of(&format!("dgh_ut_{form}_m7")), us_of(&format!("dgh_ut_{form}_m8")));
        assert!(
            seven < 2.0 * eight,
            "dgh_ut_{form}: 7 rows took {seven:.1} us against {eight:.1} us for 8"
        );
    }

    write_json(&runs, take, tokens, &kernels);

    // Keep a Criterion entry so the harness records something per run.
    c.bench_function("training/noop_marker", |b| b.iter(|| std::hint::black_box(0)));
}

criterion_group!(training, bench_training);
criterion_main!(training);
