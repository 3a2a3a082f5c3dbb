//! The four workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics, ladder, spans).

use std::collections::BTreeMap;
use std::sync::Arc;

use causaltad::CausalTadConfig;
use tad_metrics::{HistogramSnapshot, MetricsSnapshot};
use tad_serve::{FleetEngine, FleetImage};

use crate::drive::{engine_closed, engine_paced, tcp_closed, tcp_paced, Outcome, Pace, Plan};
use crate::metrics::{Layers, END_TO_END};
use crate::micro;
use crate::oracle::{aucs, block_median_rate, calm_round_rate, median_round_rate, Aucs};
use crate::procfs::{group_deltas, peak_rss_mb, sample_threads, Group, GroupCpu, ThreadStat};
use crate::setup::{
    fleet_config, routed_model, timed, wide_model, Cluster, Depth, Invalidating, World,
};
use crate::stats::{median, percentile};
use crate::trace::{total_ns, Span, Tracer};
use crate::train;

/// `routed_paced`: 10 000 live trips, 250 of them report every 5 ms
/// (50 000 segments/s, each trip every 200 ms). At 500 per tick a burst
/// keeps this host's pipeline busy for over half the tick, and queueing
/// amplifies every host slow-down: interleaved ten-run sets of the p50
/// spread 16 % at 500 per tick and 8 % at 250.
const PACE: Pace = Pace { slots: 10_000, per_tick: 250, tick_ns: 5_000_000 };
/// `routed_sat`: producer connections and live trips per connection.
const SAT_CONNS: usize = 2;
const SAT_SLOTS: usize = 10_000;
/// `engine_wide_sat`: shards, live trips, cohort cap.
const WIDE_SHARDS: usize = 2;
const WIDE_SLOTS: usize = 32_768;
const WIDE_COHORT: usize = 8_192;

/// Untimed lead-in of every serving phase, seconds.
const WARMUP_S: f64 = 2.0;
/// Set-ups per untraced serving run: the reported set-up time is their
/// median (the driver's contract asks for several set-ups in a run). The
/// wide model's set-up takes four times as long, so it gets fewer.
const ROUTED_SETUPS: usize = 5;
const WIDE_SETUPS: usize = 3;
/// Equal blocks of measured rounds a closed loop's `segments_per_s` is
/// the median of.
const BLOCKS: usize = 6;
/// Measured seconds of each ladder depth, and its lead-in.
const LADDER_S: f64 = 5.0;
const LADDER_WARMUP_S: f64 = 1.0;

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Replay-order seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
}

/// What a run found.
pub struct RunResult {
    /// Every output checked out and nothing invalidated the run.
    pub correct: bool,
    /// Operations attempted (segments sent, or trajectories scored).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run facts for the report: model widths, input hash, counters.
    pub facts: Vec<(String, String)>,
    /// Harness spans of a traced run.
    pub spans: Vec<Span>,
}

/// Thread and registry samples taken at the edges of a traced phase.
struct Probe {
    threads: Option<BTreeMap<u32, ThreadStat>>,
    backend: Option<MetricsSnapshot>,
    router: Option<MetricsSnapshot>,
}

fn probe_cluster(cluster: &Cluster) -> Probe {
    Probe {
        threads: sample_threads(),
        backend: Some(cluster.backend_metrics()),
        router: cluster.router_metrics(),
    }
}

fn probe_engine(engine: &FleetEngine) -> Probe {
    Probe { threads: sample_threads(), backend: Some(engine.metrics()), router: None }
}

/// The observations a histogram gained between two snapshots.
fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let Some(a) = after.histogram(name) else { return HistogramSnapshot::empty() };
    let mut out = a.clone();
    if let Some(b) = before.histogram(name) {
        for (o, &c) in out.counts.iter_mut().zip(&b.counts) {
            *o = o.saturating_sub(c);
        }
        out.count = a.count.saturating_sub(b.count);
        out.sum = a.sum.wrapping_sub(b.sum);
    }
    out
}

fn model_facts(cfg: &CausalTadConfig) -> String {
    format!(
        "embed {} / hidden {} / latent {} / rp_latent {} / epochs {}",
        cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim, cfg.rp_latent_dim, cfg.epochs
    )
}

/// CPU per group between two probes.
fn cpu_between(p0: &Probe, p1: &Probe) -> BTreeMap<Group, GroupCpu> {
    match (&p0.threads, &p1.threads) {
        (Some(a), Some(b)) => group_deltas(a, b),
        _ => BTreeMap::new(),
    }
}

/// µs of serving-thread CPU per segment.
fn serving_cpu_us(cpu: &BTreeMap<Group, GroupCpu>, segments: u64) -> f64 {
    let ns: u64 = cpu.iter().filter(|(g, _)| g.is_serving()).map(|(_, c)| c.run_ns).sum();
    ns as f64 / 1e3 / segments.max(1) as f64
}

/// Fills the thread-group metrics (source T).
fn thread_layers(layers: &mut Layers, cpu: &BTreeMap<Group, GroupCpu>, segments: u64) {
    let per_seg = |c: &GroupCpu| c.run_ns as f64 / 1e3 / segments.max(1) as f64;
    for (group, prefix) in [
        (Group::RouterFront, "router.front"),
        (Group::RouterMux, "router.mux"),
        (Group::NetEvloop, "net.evloop"),
        (Group::ServeShard, "serve.shard"),
    ] {
        let c = cpu.get(&group).copied().unwrap_or_default();
        layers.set(&format!("{prefix}.cpu_us_per_seg"), per_seg(&c));
        layers.set(&format!("{prefix}.runq_wait_share"), c.runq_wait_share());
    }
    let gen = cpu.get(&Group::Generator).copied().unwrap_or_default();
    layers.set("gen.cpu_us_per_seg", per_seg(&gen));
    let serving: Vec<&GroupCpu> =
        cpu.iter().filter(|(g, _)| g.is_serving()).map(|(_, c)| c).collect();
    let total: u64 = serving.iter().map(|c| c.run_ns).sum();
    let share = |groups: &[Group]| {
        let ns: u64 = groups.iter().filter_map(|g| cpu.get(g)).map(|c| c.run_ns).sum();
        ns as f64 / total.max(1) as f64
    };
    layers.set("stack.cpu_us_per_seg", serving_cpu_us(cpu, segments));
    layers.set(
        "stack.router_net_cpu_share",
        share(&[Group::RouterFront, Group::RouterMux, Group::NetEvloop]),
    );
    layers.set("stack.shard_cpu_share", share(&[Group::ServeShard]));
    layers.set("stack.serving_threads", serving.iter().map(|c| c.threads).sum::<usize>() as f64);
}

/// Fills the registry metrics (source R) from the phase's deltas.
fn registry_layers(layers: &mut Layers, p0: &Probe, p1: &Probe) {
    if let (Some(b0), Some(b1)) = (&p0.backend, &p1.backend) {
        let h = |name: &str| hist_delta(b0, b1, name);
        layers.set("net.cohort_width.p50", h("net.cohort_width").p50() as f64);
        layers.set("net.cohort_conns.p50", h("net.cohort_conns").p50() as f64);
        layers.set("net.poll_tick_ns.p50", h("net.poll_tick_ns").p50() as f64);
        layers.set("net.poll_tick_ns.p99", h("net.poll_tick_ns").p99() as f64);
        layers.set("net.frame_decode_ns.p50", h("net.frame_decode_ns").p50() as f64);
        layers.set("serve.batch_width.p50", h("serve.batch_width").p50() as f64);
        layers.set("serve.batch_width.p99", h("serve.batch_width").p99() as f64);
        // `serve.score_latency_ns` is the wall time of one model-step
        // wave, recorded once per segment of the wave.
        layers.set("serve.wave_ns.p50", h("serve.score_latency_ns").p50() as f64);
        layers.set("serve.wave_ns.p99", h("serve.score_latency_ns").p99() as f64);
    }
    if let (Some(r0), Some(r1)) = (&p0.router, &p1.router) {
        layers.set("router.forward_ns.p50", hist_delta(r0, r1, "router.forward_ns").p50() as f64);
        layers.set("router.fanin_depth.p99", hist_delta(r0, r1, "router.fanin_depth").p99() as f64);
    }
}

fn invalidating_layers(layers: &mut Layers, inv: &Invalidating) {
    layers.set("net.backpressure_replies", inv.backpressure_replies as f64);
    layers.set("net.responses_dropped", inv.responses_dropped as f64);
    layers.set("net.slow_consumer_pauses", inv.slow_consumer_pauses as f64);
    layers.set("serve.evictions", inv.evictions as f64);
}

fn auc_layers(layers: &mut Layers, full: &Aucs, tg: &Aucs) {
    for (i, combo) in ["id_detour", "id_switch", "ood_detour", "ood_switch"].iter().enumerate() {
        layers.set(&format!("eval.{combo}_roc_auc"), full.roc[i]);
        layers.set(&format!("eval.{combo}_pr_auc"), full.pr[i]);
    }
    layers.set("eval.ood_debias_gain_auc", full.ood_roc - tg.ood_roc);
}

/// Relative worsening of the paced loop's p50 in the traced (odd)
/// windows against the untraced (even) ones: median against median.
fn paced_trace_overhead(window_p50s: &[f64]) -> f64 {
    let of = |parity: usize| -> f64 {
        let windows: Vec<f64> = window_p50s.iter().skip(parity).step_by(2).copied().collect();
        median(&windows)
    };
    of(1) / of(0) - 1.0
}

/// Shares of generator wall time by span kind.
fn span_layers(layers: &mut Layers, spans: &[Span], wall_ns: u64) {
    let share = |name: &str| total_ns(spans, name) as f64 / wall_ns.max(1) as f64;
    layers.set("gen.encode_send_share", share("gen.encode_send"));
    layers.set("gen.barrier_wait_share", share("gen.barrier_wait"));
    layers.set("gen.recv_decode_share", share("gen.recv_decode"));
}

/// The end-to-end rows of a serving run.
struct Served {
    full: Aucs,
    tg: Aucs,
    auc_s: f64,
}

fn served_aucs<P>(world: &World, out: &Outcome<P>) -> Option<Served> {
    let (auc_s, pair) = timed(|| {
        Some((
            aucs(&world.pool, &out.verifier.served)?,
            aucs(&world.pool, &out.verifier.served_tg)?,
        ))
    });
    let (full, tg) = pair?;
    Some(Served { full, tg, auc_s })
}

/// Whether the AUCs computed from served scores equal the reference's.
fn aucs_match_reference(world: &World, served: &Served) -> bool {
    let finals: Vec<f64> = world.reference.scores.iter().map(|t| t[t.len() - 1]).collect();
    aucs(&world.pool, &finals) == Some(served.full)
        && aucs(&world.pool, &world.reference.tg_final) == Some(served.tg)
}

/// A serving phase: a warm-up, then `--seconds` of measurement.
fn serving_plan(opts: &Opts) -> Plan {
    Plan { seed: opts.seed, warmup_s: WARMUP_S, seconds: opts.seconds, traced: opts.trace }
}

/// Runs the workload's own phase against `cluster` (routed) or an
/// in-process engine (wide).
fn run_phase(
    workload: &str,
    world: &World,
    cluster: Option<&Cluster>,
    plan: Plan,
    finish: &mut dyn FnMut(&FleetEngine),
) -> Outcome<Probe> {
    match (workload, cluster) {
        ("routed_paced", Some(c)) => tcp_paced(c.addr(), world, plan, PACE, &|| probe_cluster(c)),
        ("routed_sat", Some(c)) => {
            tcp_closed(c.addr(), world, plan, SAT_CONNS, SAT_SLOTS, &|| probe_cluster(c))
        }
        _ => {
            engine_closed(world, plan, WIDE_SHARDS, WIDE_SLOTS, WIDE_COHORT, &probe_engine, finish)
        }
    }
}

fn is_routed(workload: &str) -> bool {
    workload.starts_with("routed")
}

fn push_common_facts<P>(
    facts: &mut Vec<(String, String)>,
    world: &World,
    out: &Outcome<P>,
    inv: &Invalidating,
) {
    facts.push(("model".into(), model_facts(world.model.config())));
    facts.push(("stream_hash".into(), format!("{:016x}", out.hash.0)));
    facts.push((
        "pool".into(),
        format!("{} trips, {} segments", world.pool.trips.len(), world.pool.segments()),
    ));
    facts.push(("scores_verified".into(), out.verifier.ok.to_string()));
    facts.push(("trips_completed".into(), out.verifier.completes.to_string()));
    let missing = out.attempted.saturating_sub(out.verifier.ok);
    facts.push(("scores_missing".into(), missing.to_string()));
    facts.push(("faults".into(), format!("{:?}", out.verifier.faults)));
    facts.push(("invalidating".into(), format!("{inv:?}")));
    facts.push(("train_final_loss".into(), format!("{:.9}", world.final_loss)));
}

/// One set-up of a serving workload: the world, and for the routed
/// workloads the running stack. `times.servers_s` is filled in.
fn set_up(workload: &str) -> (World, Option<Cluster>) {
    let mut world = World::build(if is_routed(workload) { routed_model() } else { wide_model() });
    let (servers_s, cluster) = timed(|| {
        if is_routed(workload) {
            return Some(Cluster::start(&world.model, Depth::Router));
        }
        // The wide workload's engine is built inside its driver; building
        // one here keeps "servers up" in its set-up time too.
        FleetEngine::builder(Arc::clone(&world.model))
            .config(fleet_config(WIDE_SHARDS))
            .build()
            .expect("build fleet engine")
            .shutdown();
        None
    });
    world.times.servers_s = servers_s;
    (world, cluster)
}

/// The issue's speed metrics on the workloads it ticked them for, as
/// `(name, median reading, calm reading)`. Reported, not gated.
fn speed_of(workload: &str, out: &mut Outcome<Probe>) -> (&'static str, f64, f64) {
    if workload == "routed_paced" {
        let r = &mut out.recorder;
        ("seg_p50_ms", r.median_percentile_ms(0.5), r.calm_percentile_ms(0.5))
    } else {
        ("segments_per_s", block_median_rate(&out.rounds, BLOCKS), calm_round_rate(&out.rounds))
    }
}

/// A serving workload, untraced: set up several times, run the phase
/// once on the last set-up, report the end-to-end metrics.
fn serving_untraced(opts: &Opts) -> RunResult {
    let workload = opts.workload.as_str();
    let setups = if is_routed(workload) { ROUTED_SETUPS } else { WIDE_SETUPS };
    let (mut world, mut cluster) = set_up(workload);
    let mut setup_s = vec![world.times.total_s()];
    for _ in 1..setups {
        // The previous set-up goes before the next is built, so the peak
        // RSS never holds two.
        if let Some(c) = cluster {
            c.shutdown();
        }
        drop(world);
        (world, cluster) = set_up(workload);
        setup_s.push(world.times.total_s());
    }
    let rss_after_setup = peak_rss_mb();
    let mut out = run_phase(workload, &world, cluster.as_ref(), serving_plan(opts), &mut |_| {});
    let inv = cluster.as_ref().map(|c| c.invalidating()).unwrap_or_default();
    if let Some(c) = cluster {
        c.shutdown();
    }
    let served = served_aucs(&world, &out);
    let quality_ok = served.as_ref().is_some_and(|s| aucs_match_reference(&world, s));
    let failed = out.failed();
    let mut facts = Vec::new();
    push_common_facts(&mut facts, &world, &out, &inv);
    facts.push(("setup_breakdown".into(), format!("{:?}", world.times)));
    facts.push(("setup_samples_s".into(), format!("{setup_s:.3?}")));
    facts.push(("peak_rss_mb_after_setup".into(), format!("{rss_after_setup:.1?}")));
    let (name, value, calm) = speed_of(workload, &mut out);
    facts.push((format!("{name} (reported, ungated)"), format!("{value:.4}, calm {calm:.4}")));
    let (id, ood, ratio) = served.as_ref().map_or((f64::NAN, f64::NAN, f64::NAN), |s| {
        (s.full.id_roc, s.full.ood_roc, s.full.ood_roc / s.tg.ood_roc)
    });
    let values = [median(&setup_s), peak_rss_mb().unwrap_or(f64::NAN), id, ood, ratio];
    RunResult {
        correct: failed == 0 && inv.is_clean() && quality_ok,
        attempted: out.attempted,
        failed,
        metrics: END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)).collect(),
        facts,
        spans: Vec::new(),
    }
}

/// One ladder depth's outcome: serving CPU per segment, throughput, and
/// the p50 latency.
struct Rung {
    cpu_us_per_seg: f64,
    segments_per_s: f64,
    p50_ms: f64,
    batch_width_p50: f64,
    failed: u64,
}

fn rung_of(mut out: Outcome<Probe>, paced: bool) -> Rung {
    let cpu = cpu_between(&out.probes.0, &out.probes.1);
    let width = match (&out.probes.0.backend, &out.probes.1.backend) {
        (Some(b0), Some(b1)) => hist_delta(b0, b1, "serve.batch_width").p50() as f64,
        _ => 0.0,
    };
    Rung {
        cpu_us_per_seg: serving_cpu_us(&cpu, out.probe_segments),
        // Paced: what was delivered inside the grid; closed: as the
        // workload's own metric. The p50 is the paced loop's alone.
        segments_per_s: if paced {
            out.recorder.total() as f64 / LADDER_S
        } else {
            block_median_rate(&out.rounds, BLOCKS)
        },
        p50_ms: if paced { out.recorder.median_percentile_ms(0.5) } else { 0.0 },
        batch_width_p50: width,
        failed: out.failed(),
    }
}

/// The ladder of a routed workload: the identical stream replayed at L3
/// (router + two backends), L2 (one two-shard backend) and L1 (in-process
/// two-shard engine), plus L0 (bare `push_batch` at L1's wave width) for
/// the closed loop. Layer self-costs are differences of adjacent depths,
/// so they sum to the L3 figure by construction.
fn routed_ladder(opts: &Opts, world: &World, layers: &mut Layers) -> u64 {
    let paced = opts.workload == "routed_paced";
    let plan =
        Plan { seed: opts.seed, warmup_s: LADDER_WARMUP_S, seconds: LADDER_S, traced: false };
    let over_sockets = |depth: Depth| -> Rung {
        let cluster = Cluster::start(&world.model, depth);
        let probe = || probe_cluster(&cluster);
        let out = if paced {
            tcp_paced(cluster.addr(), world, plan, PACE, &probe)
        } else {
            tcp_closed(cluster.addr(), world, plan, SAT_CONNS, SAT_SLOTS, &probe)
        };
        cluster.shutdown();
        rung_of(out, paced)
    };
    let l3 = over_sockets(Depth::Router);
    let l2 = over_sockets(Depth::Net);
    let l1 = rung_of(
        if paced {
            engine_paced(world, plan, 2, PACE, &probe_engine)
        } else {
            engine_closed(
                world,
                plan,
                2,
                SAT_CONNS * SAT_SLOTS,
                WIDE_COHORT,
                &probe_engine,
                &mut |_| {},
            )
        },
        paced,
    );
    for (name, rung) in [("l3", &l3), ("l2", &l2), ("l1", &l1)] {
        layers.set(&format!("ladder.{name}.cpu_us_per_seg"), rung.cpu_us_per_seg);
        layers.set(&format!("ladder.{name}.segments_per_s"), rung.segments_per_s);
        layers.set(&format!("ladder.{name}.p50_ms"), rung.p50_ms);
    }
    layers.set("router.hop.cpu_us_per_seg", l3.cpu_us_per_seg - l2.cpu_us_per_seg);
    layers.set("net.hop.cpu_us_per_seg", l2.cpu_us_per_seg - l1.cpu_us_per_seg);
    layers.set("router.hop.p50_ms", l3.p50_ms - l2.p50_ms);
    layers.set("net.hop.p50_ms", l2.p50_ms - l1.p50_ms);
    layers.set("serve.engine.p50_ms", l1.p50_ms);
    bare_model_rung(world, layers, l1.cpu_us_per_seg, l1.batch_width_p50);
    l3.failed + l2.failed + l1.failed
}

/// L0: bare `push_batch` waves as wide as the engine's median wave; what
/// the engine costs beyond that is its own overhead (queues, session
/// store, callbacks).
fn bare_model_rung(world: &World, layers: &mut Layers, l1_cpu_us: f64, width: f64) {
    let width = (width as usize).clamp(1, 8_192);
    let l0_us = micro::push_batch_ns_per_seg(&world.model, &world.pool, width) / 1e3;
    layers.set("ladder.l0.cpu_us_per_seg", l0_us);
    layers.set("ladder.l0.segments_per_s", 1e6 / l0_us);
    layers.set("core.model.cpu_us_per_seg", l0_us);
    layers.set("serve.overhead.cpu_us_per_seg", l1_cpu_us - l0_us);
}

/// Times snapshot capture, delta capture and restore on the live fleet.
fn persistence_spans(world: &World, engine: &FleetEngine, layers: &mut Layers) {
    let (snapshot_s, blob) = timed(|| engine.snapshot_bytes().expect("snapshot"));
    layers.set("serve.snapshot_ms", snapshot_s * 1e3);
    layers.set("serve.snapshot_mb", blob.len() as f64 / (1 << 20) as f64);
    let (delta_s, _) = timed(|| {
        engine.checkpoint().expect("checkpoint");
        engine.delta_bytes().expect("delta")
    });
    layers.set("serve.delta_ms", delta_s * 1e3);
    let image: FleetImage = tad_serve::image_from_bytes(blob).expect("own snapshot decodes");
    let (restore_s, restored) = timed(|| {
        FleetEngine::restore(Arc::clone(&world.model), image)
            .config(fleet_config(WIDE_SHARDS))
            .build()
            .expect("restore")
    });
    layers.set("serve.restore_ms", restore_s * 1e3);
    restored.shutdown();
}

/// A serving workload, traced: one set-up, the phase with thread/registry
/// probes and spans on alternating windows, the guard spans on the live
/// fleet, the ladder, and the micro spans.
fn serving_traced(opts: &Opts) -> RunResult {
    let workload = opts.workload.as_str();
    let (world, cluster) = set_up(workload);
    let mut layers = Layers::default();
    let plan = serving_plan(opts);
    let mut finish = |engine: &FleetEngine| persistence_spans(&world, engine, &mut layers);
    let mut out = run_phase(workload, &world, cluster.as_ref(), plan, &mut finish);

    let cpu = cpu_between(&out.probes.0, &out.probes.1);
    thread_layers(&mut layers, &cpu, out.probe_segments);
    registry_layers(&mut layers, &out.probes.0, &out.probes.1);
    let inv = cluster.as_ref().map(|c| c.invalidating()).unwrap_or_default();
    invalidating_layers(&mut layers, &inv);
    if let Some(router) = cluster.as_ref().and_then(|c| c.router()) {
        // Two sweeps over the fleet the phase left live: the first is a
        // full capture per backend, the second a delta.
        for name in ["router.checkpoint_full_ms", "router.checkpoint_delta_ms"] {
            let (s, sweep) = timed(|| router.checkpoint());
            sweep.expect("checkpoint sweep");
            layers.set(name, s * 1e3);
        }
    }
    if let Some(c) = cluster {
        c.shutdown();
    }

    let (name, value, calm) = speed_of(workload, &mut out);
    layers.set(name, value);
    layers.set(&format!("calm.{name}"), calm);
    let paced = workload == "routed_paced";
    if paced {
        let p50s = out.recorder.window_percentiles_ms(0.5);
        layers.set("trace.overhead_share", paced_trace_overhead(&p50s));
        layers.set("tail.seg_p90_ms", out.recorder.median_percentile_ms(0.90));
        layers.set("tail.seg_p99_ms", out.recorder.median_percentile_ms(0.99));
        layers.set("tail.seg_p999_ms", out.recorder.median_percentile_ms(0.999));
        let mut all = out.recorder.all_samples();
        let over = all.iter().filter(|&&ns| ns > 20_000_000).count();
        layers.set("tail.over_20ms_share", over as f64 / all.len().max(1) as f64);
        layers.set(
            "tail.run_p99_ms",
            percentile(&mut all, 0.99).map_or(0.0, |ns| f64::from(ns) / 1e6),
        );
        for (name, q) in [("gen.tick_late_p50_us", 0.5), ("gen.tick_late_p99_us", 0.99)] {
            let late = percentile(&mut out.tick_late_ns, q).map_or(0.0, |ns| f64::from(ns) / 1e3);
            layers.set(name, late);
        }
        span_layers(&mut layers, &out.spans, (plan.bins() / 2) as u64 * plan.bin_ns());
    } else {
        let (plain, traced) =
            (median_round_rate(&out.rounds, false), median_round_rate(&out.rounds, true));
        layers.set("trace.overhead_share", 1.0 - traced / plain);
        span_layers(&mut layers, &out.spans, total_ns(&out.spans, "round"));
    }

    let served = served_aucs(&world, &out);
    let quality_ok = served.as_ref().is_some_and(|s| aucs_match_reference(&world, s));
    if let Some(s) = &served {
        auc_layers(&mut layers, &s.full, &s.tg);
        layers.set("eval.auc_s", s.auc_s);
    }
    layers.set("trajsim.generate_city_s", world.times.city_s);
    layers.set("core.fit_s.xian", world.times.fit_s);
    layers.set("core.train_final_loss", world.final_loss);

    let mut ladder_failed = 0;
    if is_routed(workload) {
        ladder_failed = routed_ladder(opts, &world, &mut layers);
        let own = layers.get("stack.cpu_us_per_seg");
        layers.set("ladder.l3_vs_traced_cpu_ratio", layers.get("ladder.l3.cpu_us_per_seg") / own);
    } else {
        let own = layers.get("stack.cpu_us_per_seg");
        layers.set("ladder.l1.cpu_us_per_seg", own);
        layers.set("ladder.l1.segments_per_s", value);
        let width = layers.get("serve.batch_width.p50");
        bare_model_rung(&world, &mut layers, own, width);
    }
    micro::run(&world.model, &world.pool, &mut layers);

    let failed = out.failed() + ladder_failed;
    let mut facts = Vec::new();
    push_common_facts(&mut facts, &world, &out, &inv);
    RunResult {
        correct: failed == 0 && inv.is_clean() && quality_ok,
        attempted: out.attempted,
        failed,
        metrics: layers.rows(),
        facts,
        spans: out.spans,
    }
}

/// `train_eval`, traced or not: the work is the same single-threaded
/// sequence; the traced run additionally samples the thread groups (to
/// show that no serving thread exists) and runs the micro spans.
fn train_eval(opts: &Opts) -> RunResult {
    let mut tracer = Tracer { enabled: opts.trace, spans: Vec::new() };
    let threads0 = opts.trace.then(sample_threads).flatten();
    let result = train::run(&mut tracer);
    let attempted: u64 = result.cities.iter().map(|c| c.scored).sum();
    let failed: u64 = result.cities.iter().map(|c| c.failed).sum();
    let full = Aucs::mean(result.cities.iter().map(|c| &c.aucs));
    let tg = Aucs::mean(result.cities.iter().map(|c| &c.tg_aucs));
    let cfg = CausalTadConfig { epochs: train::EPOCHS, ..CausalTadConfig::paper_scale() };
    let mut facts = vec![
        ("model".to_string(), model_facts(&cfg)),
        ("input_hash".to_string(), format!("{:016x}", result.input_hash.0)),
        ("seed_note".to_string(), "offline workload: inputs do not depend on --seed".to_string()),
    ];
    for (name, c) in ["xian", "chengdu"].iter().zip(&result.cities) {
        facts.push((
            name.to_string(),
            format!(
                "fit {:.3} s, {} tokens/epoch, final loss {:.9}",
                c.fit_s, c.train_tokens, c.final_loss
            ),
        ));
    }
    let correct = failed == 0 && result.cities.iter().all(|c| c.final_loss.is_finite());
    if !opts.trace {
        facts.push((
            "train_tokens_per_s (reported, ungated)".to_string(),
            format!("{:.1}", result.train_tokens_per_s()),
        ));
        let values = [
            result.setup_s,
            peak_rss_mb().unwrap_or(f64::NAN),
            full.id_roc,
            full.ood_roc,
            full.ood_roc / tg.ood_roc,
        ];
        return RunResult {
            correct,
            attempted,
            failed,
            metrics: END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)).collect(),
            facts,
            spans: Vec::new(),
        };
    }
    let mut layers = Layers::default();
    if let (Some(a), Some(b)) = (threads0, sample_threads()) {
        // The offline workload starts no serving thread: every thread
        // group but the generator (this thread) stays at zero.
        let serving: usize = group_deltas(&a, &b)
            .iter()
            .filter(|(g, _)| g.is_serving())
            .map(|(_, c)| c.threads)
            .sum();
        layers.set("stack.serving_threads", serving as f64);
    }
    layers.set("train_tokens_per_s", result.train_tokens_per_s());
    layers.set("trajsim.generate_city_s", result.generate_city_s);
    layers.set("core.fit_s.xian", result.cities[0].fit_s);
    layers.set("core.fit_s.chengdu", result.cities[1].fit_s);
    layers.set("core.offline_score_segments_per_s", result.score_segments_per_s());
    layers.set("core.train_final_loss", result.mean(|c| c.final_loss));
    layers.set("eval.auc_s", result.mean(|c| c.auc_s));
    auc_layers(&mut layers, &full, &tg);
    // Micro spans at this workload's widths, on an untrained model: the
    // kernels' cost does not depend on the weights.
    let city = tad_trajsim::generate_city(&train::city_configs()[0]);
    let mut model = causaltad::CausalTad::new(&city.net, cfg);
    model.precompute_scaling();
    micro::run(&model, &crate::stream::Pool::from_city(&city), &mut layers);
    RunResult { correct, attempted, failed, metrics: layers.rows(), facts, spans: tracer.spans }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> RunResult {
    match (opts.workload.as_str(), opts.trace) {
        ("train_eval", _) => train_eval(opts),
        (_, false) => serving_untraced(opts),
        (_, true) => serving_traced(opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_trajsim::{generate_city, CityConfig};

    /// The oracle end to end on a small fixture: scores served by a real
    /// engine verify bit for bit, the AUCs computed from them equal the
    /// AUCs of offline `CausalTad::score`, and another seed replays the
    /// pool in another order to the very same AUCs.
    #[test]
    fn served_aucs_equal_offline_aucs_whatever_the_seed() {
        let city = generate_city(&CityConfig::test_scale(7));
        let cfg = CausalTadConfig { epochs: 1, ..CausalTadConfig::test_scale() };
        let world = World::from_city(&city, cfg);
        let d = &city.data;
        let offline: Vec<f64> = d
            .test_id
            .iter()
            .chain(&d.test_ood)
            .chain(&d.detour)
            .chain(&d.switch)
            .map(|t| world.model.score(t))
            .collect();
        let want = aucs(&world.pool, &offline).expect("offline scores for every pool trip");
        let run = |seed: u64| {
            let plan = Plan { seed, warmup_s: 0.05, seconds: 1.5, traced: false };
            let out = engine_closed(&world, plan, 2, 64, 50, &|_| (), &mut |_| {});
            assert_eq!(out.failed(), 0, "every score bit-identical, exactly once");
            assert!(out.attempted > 0 && out.verifier.ok == out.attempted);
            (served_aucs(&world, &out).expect("every pool trip served").full, out.hash)
        };
        let (a, hash_a) = run(1);
        let (b, hash_b) = run(2);
        assert_eq!(a, want);
        assert_eq!(b, want);
        assert_ne!(hash_a, hash_b, "another seed, another replay order");
        assert_eq!(run(1).1, hash_a, "same seed, same request stream");
    }
}
