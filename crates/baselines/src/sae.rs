//! SAE: sequence autoencoder baseline (Malhotra et al., 2016).
//!
//! A plain Seq2Seq model: a GRU encoder summarises the trajectory into a
//! hidden state, a GRU decoder reconstructs it with teacher forcing, and
//! the reconstruction error is the anomaly score.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tad_autodiff::train::TrainReport;
use tad_autodiff::{ParamStore, Tape, Var};
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

use crate::detector::{BaselineConfig, Detector};
use crate::seq::{chunk_tokens, fit_store, tokens, SeqCore};

/// The SAE detector.
pub struct Sae {
    cfg: BaselineConfig,
    inner: Option<Inner>,
}

struct Inner {
    store: ParamStore,
    core: SeqCore,
}

impl Sae {
    /// Creates an unfitted SAE.
    pub fn new(cfg: BaselineConfig) -> Self {
        Sae { cfg, inner: None }
    }

    fn inner(&self) -> &Inner {
        self.inner.as_ref().expect("SAE: call fit() before scoring")
    }

    /// Registers the parameters, initialised from the `cfg.seed` stream.
    fn init(&self, net: &RoadNetwork) -> Inner {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut store = ParamStore::new();
        let core = SeqCore::new(&mut store, "sae", net.num_segments(), &self.cfg, false, &mut rng);
        Inner { store, core }
    }

    /// Trains a fresh set of parameters on `train`.
    fn train(&self, net: &RoadNetwork, train: &[Trajectory]) -> (Inner, TrainReport) {
        let mut inner = self.init(net);
        let mut store = std::mem::take(&mut inner.store);
        let report = fit_store(&mut store, &self.cfg, train, |tape, store, batch, _| {
            inner.loss(tape, store, batch)
        });
        inner.store = store;
        (inner, report)
    }
}

impl Inner {
    /// A chunk's summed reconstruction loss, its parameters read from
    /// `store` — training holds them outside `self` while it runs.
    fn loss(&self, tape: &mut Tape, store: &ParamStore, chunk: &[&Trajectory]) -> Var {
        let (toks, slots) = chunk_tokens(chunk);
        let h = self.core.encode(tape, store, &toks, &slots);
        self.core.decode_nll(tape, store, h, &toks, &slots)
    }
}

impl Detector for Sae {
    fn name(&self) -> &'static str {
        "SAE"
    }

    fn fit(&mut self, net: &RoadNetwork, train: &[Trajectory]) {
        self.inner = Some(self.train(net, train).0);
    }

    fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64 {
        let inner = self.inner();
        let toks = tokens(traj);
        let n = prefix_len.clamp(2.min(toks.len()), toks.len());
        let prefix = &toks[..n];
        let h = inner.core.infer_encode(&inner.store, prefix, traj.time_slot);
        inner.core.infer_decode_nll(&inner.store, &h, prefix, traj.time_slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::reference::{assert_tracks, param_bits, train_loop, trained_digest};
    use tad_trajsim::{generate_city, City, CityConfig};

    #[test]
    fn trained_bits_match_their_checked_in_digests() {
        // Test city 7: `tests/cities.rs` pins its bytes.
        let city = generate_city(&CityConfig::test_scale(7));
        let mut sae = Sae::new(BaselineConfig::test_scale());
        sae.fit(&city.net, &city.data.train);
        let scores = city.data.test_id.iter().map(|t| sae.score(t));
        assert_eq!(
            trained_digest(&sae.inner().store, scores),
            "params 0xbe37e8a7e2ca5477 scores 0x5125d5dc5fd2bf36"
        );
    }

    /// The reference loop's epoch losses and trained store, the batches
    /// handed to the loss in tape passes of `per_pass`.
    fn reference_fit(sae: &Sae, city: &City, per_pass: usize) -> (Vec<f64>, ParamStore) {
        let mut reference = sae.init(&city.net);
        let mut store = std::mem::take(&mut reference.store);
        let losses = train_loop(
            &mut store,
            &sae.cfg,
            &city.data.train,
            per_pass,
            |tape, store, chunk, _| reference.loss(tape, store, chunk),
        );
        (losses, store)
    }

    #[test]
    fn fit_matches_the_parent_loop_bit_for_bit() {
        let city = generate_city(&CityConfig::test_scale(403));
        // The second learning rate overshoots: the first epoch is the best
        // one, so the restore is exercised.
        for lr in [BaselineConfig::test_scale().lr, 1.0] {
            let sae = Sae::new(BaselineConfig { lr, ..BaselineConfig::test_scale() });
            let (expected, store) = reference_fit(&sae, &city, sae.cfg.batch_size);
            let (inner, report) = sae.train(&city.net, &city.data.train);
            assert_eq!(report.epoch_losses, expected, "lr {lr}");
            assert_eq!(param_bits(&inner.store), param_bits(&store), "lr {lr}");
        }
    }

    #[test]
    fn fit_tracks_the_per_example_parent_loop() {
        let city = generate_city(&CityConfig::test_scale(403));
        let sae = Sae::new(BaselineConfig::test_scale());
        let (expected, _) = reference_fit(&sae, &city, 1);
        let (_, report) = sae.train(&city.net, &city.data.train);
        assert_tracks(&report.epoch_losses, &expected, "SAE");
    }

    #[test]
    fn sae_separates_anomalies_from_training_routes() {
        let city = generate_city(&CityConfig::test_scale(400));
        let mut sae = Sae::new(BaselineConfig::test_scale());
        sae.fit(&city.net, &city.data.train);
        let mean = |ts: &[Trajectory]| -> f64 {
            ts.iter().map(|t| sae.score(t)).sum::<f64>() / ts.len() as f64
        };
        assert!(
            mean(&city.data.detour) > mean(&city.data.test_id),
            "detours should reconstruct worse"
        );
    }

    #[test]
    #[should_panic(expected = "call fit()")]
    fn scoring_before_fit_panics() {
        let city = generate_city(&CityConfig::test_scale(401));
        let sae = Sae::new(BaselineConfig::test_scale());
        let _ = sae.score(&city.data.test_id[0]);
    }

    #[test]
    fn prefix_scores_defined_for_all_lengths() {
        let city = generate_city(&CityConfig::test_scale(402));
        let mut sae = Sae::new(BaselineConfig::test_scale());
        sae.fit(&city.net, &city.data.train);
        let t = &city.data.test_id[0];
        for len in 1..=t.len() {
            assert!(sae.score_prefix(t, len).is_finite());
        }
    }
}
