//! The benchmark's metric tables: the end-to-end metrics every untraced
//! run prints (mirrored in `BENCHMARK.json`) and the per-layer metrics
//! every traced run prints. Names, units and directions live here and
//! nowhere else.

use std::collections::BTreeMap;

/// The four workloads.
pub const WORKLOADS: [&str; 4] = ["routed_paced", "routed_sat", "engine_wide_sat", "train_eval"];

/// One end-to-end metric: name, unit, whether higher is better, and the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Regression bound, share of the median.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: higher, bound }
}

/// The end-to-end metrics, in print order: the ones that repeat within
/// the issue's 10 % on this host. `setup_s` is the exception the driver's
/// contract makes (it must be listed, with the largest bound). The speed
/// metrics (`seg_p50_ms`, `segments_per_s`, `train_tokens_per_s`) did not
/// repeat within half of 10 % and head the per-layer list instead.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.1),
    e2e("id_roc_auc", "auc", true, 0.005),
    e2e("ood_roc_auc", "auc", true, 0.005),
    e2e("ood_debias_auc_ratio", "ratio", true, 0.005),
];

/// The per-layer metrics: name, unit, whether higher is better.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // The issue's speed metrics: reported on the workloads it ticked, not
    // gated. `calm.*` reads the same windows/rounds at their calm decile.
    ("seg_p50_ms", "ms", false),
    ("segments_per_s", "1/s", true),
    ("train_tokens_per_s", "1/s", true),
    ("calm.seg_p50_ms", "ms", false),
    ("calm.segments_per_s", "1/s", true),
    // Thread groups (source T).
    ("router.front.cpu_us_per_seg", "us", false),
    ("router.front.runq_wait_share", "share", false),
    ("router.mux.cpu_us_per_seg", "us", false),
    ("router.mux.runq_wait_share", "share", false),
    ("net.evloop.cpu_us_per_seg", "us", false),
    ("net.evloop.runq_wait_share", "share", false),
    ("serve.shard.cpu_us_per_seg", "us", false),
    ("serve.shard.runq_wait_share", "share", false),
    ("gen.cpu_us_per_seg", "us", false),
    ("gen.tick_late_p50_us", "us", false),
    ("gen.tick_late_p99_us", "us", false),
    ("stack.cpu_us_per_seg", "us", false),
    ("stack.router_net_cpu_share", "share", false),
    ("stack.shard_cpu_share", "share", true),
    ("stack.serving_threads", "count", false),
    // Ladder (source L).
    ("ladder.l3.cpu_us_per_seg", "us", false),
    ("ladder.l2.cpu_us_per_seg", "us", false),
    ("ladder.l1.cpu_us_per_seg", "us", false),
    ("ladder.l0.cpu_us_per_seg", "us", false),
    ("ladder.l3.segments_per_s", "1/s", true),
    ("ladder.l2.segments_per_s", "1/s", true),
    ("ladder.l1.segments_per_s", "1/s", true),
    ("ladder.l0.segments_per_s", "1/s", true),
    ("ladder.l3_vs_traced_cpu_ratio", "ratio", false),
    ("router.hop.cpu_us_per_seg", "us", false),
    ("net.hop.cpu_us_per_seg", "us", false),
    ("serve.overhead.cpu_us_per_seg", "us", false),
    ("core.model.cpu_us_per_seg", "us", false),
    ("ladder.l3.p50_ms", "ms", false),
    ("ladder.l2.p50_ms", "ms", false),
    ("ladder.l1.p50_ms", "ms", false),
    ("router.hop.p50_ms", "ms", false),
    ("net.hop.p50_ms", "ms", false),
    ("serve.engine.p50_ms", "ms", false),
    // Registry series (source R), over the measured phase.
    ("router.forward_ns.p50", "ns", false),
    ("router.fanin_depth.p99", "count", false),
    ("net.cohort_width.p50", "count", true),
    ("net.cohort_conns.p50", "count", true),
    ("net.poll_tick_ns.p50", "ns", false),
    ("net.poll_tick_ns.p99", "ns", false),
    ("net.frame_decode_ns.p50", "ns", false),
    ("serve.batch_width.p50", "count", true),
    ("serve.batch_width.p99", "count", true),
    ("serve.wave_ns.p50", "ns", false),
    ("serve.wave_ns.p99", "ns", false),
    // Invalidating counts: must be 0.
    ("net.backpressure_replies", "count", false),
    ("net.responses_dropped", "count", false),
    ("net.slow_consumer_pauses", "count", false),
    ("serve.evictions", "count", false),
    // Spans around one public call (source S).
    ("router.checkpoint_full_ms", "ms", false),
    ("router.checkpoint_delta_ms", "ms", false),
    ("net.codec.segment_ns", "ns", false),
    ("net.codec.score_ns", "ns", false),
    ("serve.snapshot_ms", "ms", false),
    ("serve.delta_ms", "ms", false),
    ("serve.restore_ms", "ms", false),
    ("serve.snapshot_mb", "MB", false),
    ("core.push_batch_ns_per_seg.w64", "ns", false),
    ("core.push_batch_ns_per_seg.w512", "ns", false),
    ("core.push_batch_ns_per_seg.w2048", "ns", false),
    ("core.push_state_ns_per_seg", "ns", false),
    ("core.step_cache_mb", "MB", false),
    ("core.fit_s.xian", "s", false),
    ("core.fit_s.chengdu", "s", false),
    ("core.offline_score_segments_per_s", "1/s", true),
    ("core.train_final_loss", "loss", false),
    ("autodiff.gmacs.matmul_t", "GMAC/s", true),
    ("autodiff.gmacs.matmul_tn", "GMAC/s", true),
    ("autodiff.gmacs.matmul", "GMAC/s", true),
    ("trajsim.generate_city_s", "s", false),
    ("eval.auc_s", "s", false),
    // Exact-repeat quality numbers.
    ("eval.id_detour_roc_auc", "auc", true),
    ("eval.id_switch_roc_auc", "auc", true),
    ("eval.ood_detour_roc_auc", "auc", true),
    ("eval.ood_switch_roc_auc", "auc", true),
    ("eval.id_detour_pr_auc", "auc", true),
    ("eval.id_switch_pr_auc", "auc", true),
    ("eval.ood_detour_pr_auc", "auc", true),
    ("eval.ood_switch_pr_auc", "auc", true),
    ("eval.ood_debias_gain_auc", "auc", true),
    // Harness spans: share of a tick/round spent in each generator step.
    ("gen.encode_send_share", "share", false),
    ("gen.barrier_wait_share", "share", false),
    ("gen.recv_decode_share", "share", false),
    // Tails of the paced workload: reported, not gated.
    ("tail.seg_p90_ms", "ms", false),
    ("tail.seg_p99_ms", "ms", false),
    ("tail.seg_p999_ms", "ms", false),
    ("tail.run_p99_ms", "ms", false),
    ("tail.over_20ms_share", "share", false),
    ("trace.overhead_share", "share", false),
];

/// A traced run's per-layer values. Starts with every metric at 0 (the
/// layer did not run on this workload) so every run prints the full set.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    /// Panics on a name that is not in [`PER_LAYER`] — a typo, not a
    /// run-time condition.
    pub fn set(&mut self, name: &str, value: f64) {
        *self.0.get_mut(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}")) = value;
    }

    /// The value of one metric.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// `(name, value, unit)` in table order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|&(name, unit, _)| (name, self.0[name], unit)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS);
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// tables. Skipped when the file is not there (a bare copy of the
    /// benchmark directory).
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        // The manifest is this directory's or `tad-bench`'s, depending on
        // which package built the test.
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(text) = manifest
            .ancestors()
            .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok())
        else {
            return;
        };
        for m in &END_TO_END {
            let better = if m.higher_is_better { "higher" } else { "lower" };
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, better, m.bound
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for &(name, unit, higher) in PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            let row =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
        assert_eq!(text.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(text.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
    }
}
