//! End-to-end integration tests spanning all crates: city generation →
//! training → scoring → metrics, plus the consistency guarantees the
//! online detector makes.

use causaltad::{CausalTad, CausalTadConfig};
use tad_eval::harness::evaluate;
use tad_eval::metrics::roc_auc;
use tad_trajsim::{generate_city, City, CityConfig, Label};

fn quick_city(seed: u64) -> City {
    let mut cfg = CityConfig::test_scale(seed);
    cfg.num_candidate_pairs = 16;
    cfg.trajs_per_pair = 10;
    cfg.num_anomalies = 40;
    generate_city(&cfg)
}

fn quick_model(city: &City, epochs: usize) -> CausalTad {
    let cfg = CausalTadConfig { epochs, ..Default::default() };
    let mut model = CausalTad::new(&city.net, cfg);
    let report = model.fit(&city.data.train);
    assert!(!report.diverged, "training diverged: {:?}", report.epoch_losses);
    model
}

#[test]
fn detects_id_anomalies_well_above_chance() {
    let city = quick_city(1000);
    let model = quick_model(&city, 8);
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for t in &city.data.test_id {
        scores.push(model.score(t));
        labels.push(false);
    }
    for t in city.data.detour.iter().chain(&city.data.switch) {
        scores.push(model.score(t));
        labels.push(true);
    }
    let auc = roc_auc(&scores, &labels);
    assert!(auc > 0.75, "ID detection should be well above chance, got {auc:.3}");
}

#[test]
fn online_scoring_is_prefix_consistent() {
    // Scoring a prefix then continuing must equal scoring the whole
    // trajectory in one pass: the online state carries everything.
    let city = quick_city(1001);
    let model = quick_model(&city, 3);
    for t in city.data.test_id.iter().take(10) {
        let sd = t.sd_pair();
        let mut full = model.online(sd.source.0, sd.dest.0, t.time_slot);
        for &seg in &t.segments {
            full.push(seg.0);
        }

        let mid = t.len() / 2;
        let mut split = model.online(sd.source.0, sd.dest.0, t.time_slot);
        for &seg in &t.segments[..mid] {
            split.push(seg.0);
        }
        let prefix_score = split.score();
        assert_eq!(prefix_score, model.score_prefix(t, mid));
        for &seg in &t.segments[mid..] {
            split.push(seg.0);
        }
        assert!((full.score() - split.score()).abs() < 1e-9);
    }
}

#[test]
fn score_components_are_finite_for_every_pool() {
    let city = quick_city(1002);
    let model = quick_model(&city, 3);
    let pools = [
        &city.data.train,
        &city.data.test_id,
        &city.data.test_ood,
        &city.data.detour,
        &city.data.switch,
    ];
    for pool in pools {
        for t in pool.iter().take(20) {
            let s = model.score(t);
            assert!(s.is_finite(), "non-finite score for {:?} trajectory", t.label);
        }
    }
}

#[test]
fn lambda_sweep_is_well_defined_without_retraining() {
    let city = quick_city(1003);
    let model = quick_model(&city, 3);
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
    for &seg in &t.segments {
        scorer.push(seg.0);
    }
    let mut last = f64::NAN;
    for lambda in [0.0, 0.05, 0.1, 0.5, 1.0] {
        let s = scorer.state().score(lambda);
        assert!(s.is_finite());
        assert_ne!(s, last, "distinct lambdas must change the score");
        last = s;
    }
}

#[test]
fn persisted_parameters_reproduce_scores() {
    use causaltad::{model_from_bytes, model_to_bytes};
    let city = quick_city(1004);
    let model = quick_model(&city, 3);
    // Round-trip the whole model — configuration, scaling table and every
    // parameter — through the `TADW` codec, as a serving process loading
    // it would.
    let blob = model_to_bytes(&model);
    let restored = model_from_bytes(&city.net, blob.clone()).expect("decode");
    assert_eq!(model_to_bytes(&restored), blob, "canonical re-encode");
    for id in model.store().ids() {
        assert_eq!(restored.store().value(id), model.store().value(id));
        assert_eq!(restored.store().name(id), model.store().name(id));
    }

    // Offline, streamed and batched scoring all agree to the bit.
    let trips: Vec<_> = city.data.test_id.iter().chain(&city.data.detour).take(12).collect();
    let start = |m: &CausalTad| -> Vec<_> {
        let state = |t: &&tad_trajsim::Trajectory| {
            let sd = t.sd_pair();
            m.start_state(sd.source.0, sd.dest.0, t.time_slot).expect("valid request")
        };
        trips.iter().map(state).collect()
    };
    let (mut ours, mut theirs) = (start(&model), start(&restored));
    let (mut ours_wave, mut theirs_wave) = (start(&model), start(&restored));
    let caches = (model.build_step_cache(), restored.build_step_cache());
    let bits = |scores: Vec<f64>| scores.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    for step in 0..trips.iter().map(|t| t.len()).min().expect("trips") {
        let segs: Vec<u32> = trips.iter().map(|t| t.segments[step].0).collect();
        for (i, &seg) in segs.iter().enumerate() {
            let (a, b) =
                (model.push_state(&mut ours[i], seg), restored.push_state(&mut theirs[i], seg));
            assert_eq!(a.to_bits(), b.to_bits(), "push_state, trip {i} step {step}");
        }
        assert_eq!(
            bits(model.push_batch(Some(&caches.0), &mut ours_wave, &segs)),
            bits(restored.push_batch(Some(&caches.1), &mut theirs_wave, &segs)),
            "push_batch, step {step}"
        );
    }
    assert_eq!(ours, theirs);
    assert_eq!(ours_wave, theirs_wave);
    for t in &trips {
        assert_eq!(model.score(t).to_bits(), restored.score(t).to_bits());
    }
}

#[test]
fn generated_anomalies_are_labelled_and_distinct() {
    let city = quick_city(1005);
    for t in &city.data.detour {
        assert_eq!(t.label, Label::Detour);
        assert!(city.net.is_connected_path(&t.segments));
    }
    for t in &city.data.switch {
        assert_eq!(t.label, Label::Switch);
        assert!(city.net.is_connected_path(&t.segments));
    }
}

#[test]
fn harness_evaluate_matches_manual_metrics() {
    let city = quick_city(1006);
    let model = quick_model(&city, 3);
    // Wrap the core model manually as the harness would use a detector.
    struct Wrap<'a>(&'a CausalTad);
    impl tad_baselines::Detector for Wrap<'_> {
        fn name(&self) -> &'static str {
            "wrap"
        }
        fn fit(&mut self, _: &tad_roadnet::RoadNetwork, _: &[tad_trajsim::Trajectory]) {}
        fn score_prefix(&self, t: &tad_trajsim::Trajectory, n: usize) -> f64 {
            self.0.score_prefix(t, n)
        }
    }
    let det = Wrap(&model);
    let r = evaluate(&det, &city.data.test_id, &city.data.detour);
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for t in &city.data.test_id {
        scores.push(model.score(t));
        labels.push(false);
    }
    for t in &city.data.detour {
        scores.push(model.score(t));
        labels.push(true);
    }
    assert!((r.roc_auc - roc_auc(&scores, &labels)).abs() < 1e-12);
}
