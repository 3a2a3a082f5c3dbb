//! Trajectory *generation* from a trained model.
//!
//! CausalTAD is an implicit generative model: given an SD pair it defines
//! `P(T | c)` autoregressively over the road network. Sampling from it
//! yields plausible routes for a pair — useful for route suggestion, for
//! inspecting what the model believes "normal" looks like, and as a test
//! that the decoder learned the data distribution (generated routes should
//! score as normal).

use rand::Rng;

use tad_autodiff::logsumexp;

use crate::model::CausalTad;
use crate::tgvae::StepScratch;

/// Controls for [`sample_route`].
#[derive(Clone, Debug)]
pub struct GenerateConfig {
    /// Hard cap on generated length (guards against wandering).
    pub max_len: usize,
    /// Softmax temperature: 0 < t < 1 sharpens towards the argmax route,
    /// t = 1 samples the model faithfully.
    pub temperature: f64,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig { max_len: 256, temperature: 1.0 }
    }
}

/// Outcome of a generation attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenerateOutcome {
    /// The route reached the destination segment.
    ReachedDestination,
    /// `max_len` was hit before reaching the destination.
    LengthCapped,
    /// A dead end with no successors was reached (only possible on
    /// degenerate networks).
    DeadEnd,
}

/// Samples a route for `(source, dest)` from the trained decoder,
/// following the road network's successor constraint at every step.
/// Returns the segment walk (starting at `source`) and how it ended.
pub fn sample_route<R: Rng + ?Sized>(
    model: &CausalTad,
    source: u32,
    dest: u32,
    cfg: &GenerateConfig,
    rng: &mut R,
) -> (Vec<u32>, GenerateOutcome) {
    assert!(cfg.temperature > 0.0, "temperature must be positive");
    let (store, plan) = (model.store(), model.plan());
    let mut scratch = StepScratch::default();
    let (mut h, _) = model.tg.start(store, plan, &mut scratch.buf, source, dest);
    let mut walk = vec![source];
    let mut cur = source;

    while walk.len() < cfg.max_len {
        model.tg.advance(plan, &mut scratch, h.data_mut(), cur);
        if cur == dest && walk.len() > 1 {
            return (walk, GenerateOutcome::ReachedDestination);
        }
        let cands = model.successors_of(cur);
        if cands.is_empty() {
            return (walk, GenerateOutcome::DeadEnd);
        }
        let logits = model.tg.candidate_logits(store, &mut scratch.buf, h.data(), cands);
        let next = sample_categorical(logits, cfg.temperature, rng);
        cur = cands[next];
        walk.push(cur);
        if cur == dest {
            return (walk, GenerateOutcome::ReachedDestination);
        }
    }
    (walk, GenerateOutcome::LengthCapped)
}

/// Samples an index from temperature-scaled softmax logits.
fn sample_categorical<R: Rng + ?Sized>(logits: &[f32], temperature: f64, rng: &mut R) -> usize {
    let scaled: Vec<f32> = logits.iter().map(|&x| x / temperature as f32).collect();
    let lse = logsumexp(&scaled);
    let mut u: f64 = rng.gen_range(0.0..1.0);
    for (i, &x) in scaled.iter().enumerate() {
        let p = ((x - lse) as f64).exp();
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    scaled.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CausalTadConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tad_trajsim::{generate_city, CityConfig, Trajectory};

    fn trained() -> (tad_trajsim::City, CausalTad) {
        let city = generate_city(&CityConfig::test_scale(810));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 20;
        let mut model = CausalTad::new(&city.net, cfg);
        model.fit(&city.data.train);
        (city, model)
    }

    #[test]
    fn generated_routes_are_valid_walks() {
        let (city, model) = trained();
        let mut rng = StdRng::seed_from_u64(1);
        let t = &city.data.train[0];
        let sd = t.sd_pair();
        for _ in 0..5 {
            let (walk, _) =
                sample_route(&model, sd.source.0, sd.dest.0, &GenerateConfig::default(), &mut rng);
            let path: Vec<_> = walk.iter().map(|&s| tad_roadnet::SegmentId(s)).collect();
            assert!(city.net.is_connected_path(&path), "generated walk must follow the network");
            assert_eq!(walk[0], sd.source.0);
        }
    }

    #[test]
    fn low_temperature_reaches_trained_destination() {
        let (city, model) = trained();
        let mut rng = StdRng::seed_from_u64(2);
        // Use the SD pair with the most training examples.
        let mut counts = std::collections::HashMap::new();
        for t in &city.data.train {
            *counts.entry(t.sd_pair()).or_insert(0usize) += 1;
        }
        // Deterministic tie-break: `max_by_key` alone would pick an
        // arbitrary pair among equal counts (HashMap order is seeded per
        // process), making the test flaky.
        let (&sd, _) = counts.iter().max_by_key(|(&sd, &c)| (c, sd.source.0, sd.dest.0)).unwrap();
        let cfg = GenerateConfig { temperature: 0.3, max_len: 128 };
        let reached = (0..10)
            .filter(|_| {
                let (_, outcome) = sample_route(&model, sd.source.0, sd.dest.0, &cfg, &mut rng);
                outcome == GenerateOutcome::ReachedDestination
            })
            .count();
        assert!(
            reached >= 5,
            "low-temperature sampling should usually reach the destination ({reached}/10)"
        );
    }

    #[test]
    fn generated_routes_score_as_normal() {
        let (city, model) = trained();
        let mut rng = StdRng::seed_from_u64(3);
        let t = &city.data.train[0];
        let sd = t.sd_pair();
        let cfg = GenerateConfig { temperature: 0.5, max_len: 128 };
        let (walk, outcome) = sample_route(&model, sd.source.0, sd.dest.0, &cfg, &mut rng);
        if outcome == GenerateOutcome::ReachedDestination {
            let gen_traj = Trajectory::normal(
                walk.iter().map(|&s| tad_roadnet::SegmentId(s)).collect(),
                t.time_slot,
            );
            let gen_score = model.score(&gen_traj) / gen_traj.len() as f64;
            let detour_score = model.score(&city.data.detour[0]) / city.data.detour[0].len() as f64;
            assert!(
                gen_score < detour_score,
                "model-generated route ({gen_score:.2}/seg) should look more normal than a detour ({detour_score:.2}/seg)"
            );
        }
    }

    #[test]
    fn sample_categorical_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(4);
        // Heavily peaked logits: index 1 should dominate.
        let logits = [0.0f32, 8.0, 0.0];
        let hits = (0..100).filter(|_| sample_categorical(&logits, 1.0, &mut rng) == 1).count();
        assert!(hits > 90, "{hits}");
    }
}
