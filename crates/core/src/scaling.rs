//! Precomputed debiasing scaling factors (paper §V-C / §V-D).
//!
//! For every token `v` the table stores the Monte-Carlo estimate of
//! `log E_{e ~ Q2(E|v)}[1 / P(v | e)]`, evaluated in log domain for
//! numerical safety:
//!
//! ```text
//! log E[1/P] ≈ logsumexp_m(-log P_m(v)) - log M,   e_m ~ Q2(E | v)
//! ```
//!
//! Because the scaling factor factorises over segments, the whole table is
//! computed once after training ("the scaling factors can be calculated and
//! stored in advance during inference to support online anomaly detection"),
//! and each online update is a single lookup.
//!
//! The table also stores a per-token ELBO estimate of `log P(v)` so the
//! RP-VAE can act as a stand-alone detector in the ablation study
//! (Table III, row "RP-VAE").

use bytes::{BufMut, Bytes, BytesMut};
use rand::Rng;

use tad_autodiff::nn::gaussian_kl;
use tad_autodiff::{logsumexp, ParamStore, Tensor};
use tad_codec::{ReadError, Reader};

use crate::config::CausalTadConfig;

use crate::rpvae::RpVae;

/// Precomputed per-token scaling factors and RP-VAE likelihoods.
#[derive(Clone, Debug)]
pub struct ScalingTable {
    /// `log E[1/P(v|e)]` per token.
    log_scale: Vec<f64>,
    /// ELBO estimate of `log P(v)` per token (reconstruction − KL).
    elbo: Vec<f64>,
    vocab: usize,
    time_factorised: bool,
    num_slots: usize,
}

/// Tokens [`ScalingTable::compute`] encodes and decodes together: the
/// decoder's `tokens x hidden` output head is packed once per product, so
/// a tile of 8 tokens pays for it an eighth as often as a token alone
/// (57 -> 34 ms at hidden 256 / 8 samples), while a tile's logits
/// (`8 · M x tokens`) stay a few megabytes at paper scale.
const TOKEN_TILE: usize = 8;

impl ScalingTable {
    /// Computes the table for every token of `rp` with `mc_samples` draws.
    pub fn compute<R: Rng + ?Sized>(
        rp: &RpVae,
        store: &ParamStore,
        mc_samples: usize,
        rng: &mut R,
    ) -> Self {
        Self::compute_tiled(rp, store, mc_samples, rng, TOKEN_TILE)
    }

    /// [`ScalingTable::compute`] in tiles of `tile` tokens. Every entry is
    /// the same whatever the tile, bit for bit: a row of a product does
    /// not depend on the rows stacked with it, and the Gaussian draws are
    /// taken token by token, sample by sample, in every tiling.
    fn compute_tiled<R: Rng + ?Sized>(
        rp: &RpVae,
        store: &ParamStore,
        mc_samples: usize,
        rng: &mut R,
        tile: usize,
    ) -> Self {
        assert!(mc_samples >= 1, "need at least one Monte-Carlo sample");
        let tokens: Vec<u32> = (0..rp.num_tokens() as u32).collect();
        let mut log_scale = Vec::with_capacity(tokens.len());
        let mut elbo = Vec::with_capacity(tokens.len());
        let mut neg_logps = Vec::with_capacity(mc_samples);

        for ids in tokens.chunks(tile) {
            let (mu, logvar) = rp.encode(store, ids);
            let latent = mu.cols();
            // Each token's M samples as consecutive rows.
            let mut z = Tensor::zeros(ids.len() * mc_samples, latent);
            for (r, z_row) in z.data_mut().chunks_exact_mut(latent).enumerate() {
                let t = r / mc_samples;
                for (c, z) in z_row.iter_mut().enumerate() {
                    let std = (0.5 * logvar.get(t, c)).exp();
                    *z = mu.get(t, c) + std * gauss(rng) as f32;
                }
            }
            let logits = rp.decode_logits(store, &z);
            for (t, &v) in ids.iter().enumerate() {
                // KL(q(e|v) || N(0, I)) in closed form.
                let kl = gaussian_kl(mu.row(t), logvar.row(t));
                neg_logps.clear();
                let mut logp_sum = 0.0f64;
                for m in 0..mc_samples {
                    let row = logits.row(t * mc_samples + m);
                    let logp = (row[v as usize] - logsumexp(row)) as f64;
                    neg_logps.push(-logp as f32);
                    logp_sum += logp;
                }
                log_scale.push(logsumexp(&neg_logps) as f64 - (mc_samples as f64).ln());
                elbo.push(logp_sum / mc_samples as f64 - kl);
            }
        }

        ScalingTable {
            log_scale,
            elbo,
            vocab: rp.vocab(),
            time_factorised: rp.is_time_factorised(),
            num_slots: rp.num_slots(),
        }
    }

    /// `log E[1/P(t_i|e_i)]` for a segment observed in a time slot.
    #[inline]
    pub fn log_scale(&self, seg: u32, slot: u8) -> f64 {
        self.log_scale[self.token_index(seg, slot)]
    }

    /// ELBO estimate of `log P(t_i)` for the stand-alone RP-VAE detector.
    #[inline]
    pub fn elbo(&self, seg: u32, slot: u8) -> f64 {
        self.elbo[self.token_index(seg, slot)]
    }

    fn token_index(&self, seg: u32, slot: u8) -> usize {
        if self.time_factorised {
            (slot as usize % self.num_slots) * self.vocab + seg as usize
        } else {
            seg as usize
        }
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.log_scale.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.log_scale.is_empty()
    }

    /// Serialises the table (little-endian; used by the model codec).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.log_scale.len() * 16);
        buf.put_u32_le(self.vocab as u32);
        buf.put_u8(self.time_factorised as u8);
        buf.put_u32_le(self.num_slots as u32);
        buf.put_u32_le(self.log_scale.len() as u32);
        for (&ls, &e) in self.log_scale.iter().zip(self.elbo.iter()) {
            buf.put_f64_le(ls);
            buf.put_f64_le(e);
        }
        buf.freeze()
    }

    /// Deserialises a table written by [`ScalingTable::to_bytes`].
    ///
    /// # Errors
    /// Returns the [`ReadError`] naming the malformation (truncated header,
    /// truncated entries, zero slots, an entry-count/vocab mismatch, or
    /// trailing bytes); never panics.
    pub fn from_bytes(bytes: Bytes) -> Result<Self, ReadError> {
        let mut r = Reader::new(&bytes);
        let vocab = r.u32("scaling header")? as usize;
        let time_factorised = r.flag("scaling header")?;
        let num_slots = r.u32("scaling header")? as usize;
        let n = r.count(8 + 8, "scaling entries")?;
        // `token_index` takes `slot % num_slots` and indexes `n` entries.
        let tokens = if time_factorised { vocab.checked_mul(num_slots) } else { Some(vocab) };
        if num_slots == 0 || tokens != Some(n) {
            return Err(ReadError::Malformed("scaling entry count"));
        }
        let mut log_scale = Vec::with_capacity(n);
        let mut elbo = Vec::with_capacity(n);
        for _ in 0..n {
            log_scale.push(r.f64("scaling entries")?);
            elbo.push(r.f64("scaling entries")?);
        }
        r.finish()?;
        Ok(ScalingTable { log_scale, elbo, vocab, time_factorised, num_slots })
    }

    /// True when this table indexes the tokens a model of `vocab` segments
    /// built from `cfg` looks up — what the model codec checks before it
    /// pairs a decoded table with decoded parameters.
    pub(crate) fn fits(&self, vocab: usize, cfg: &CausalTadConfig) -> bool {
        self.vocab == vocab
            && self.time_factorised == cfg.time_factorised_scaling
            && (!self.time_factorised || self.num_slots == cfg.num_time_slots)
    }
}

fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CausalTadConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tad_autodiff::optim::Adam;
    use tad_autodiff::{Gradients, Tape};

    fn trained_rp(vocab: usize, freq: &[usize]) -> (ParamStore, RpVae) {
        let cfg = CausalTadConfig::test_scale();
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let rp = RpVae::new(&mut store, vocab, &cfg, &mut rng);
        let (mut adam, mut grads) = (Adam::new(&store, 0.01), Gradients::new(&store));
        let batch: Vec<u32> = freq
            .iter()
            .enumerate()
            .flat_map(|(tok, &n)| std::iter::repeat_n(tok as u32, n))
            .collect();
        for _ in 0..120 {
            let mut tape = Tape::new();
            let loss = rp.loss(&mut tape, &store, &batch, &mut rng);
            tape.backward(loss, &store, &mut grads);
            adam.step(&mut store, &mut grads);
        }
        (store, rp)
    }

    #[test]
    fn popular_tokens_get_smaller_scaling() {
        // Token 0 very popular, token 4 rare.
        let (store, rp) = trained_rp(5, &[16, 4, 4, 4, 1]);
        let mut rng = StdRng::seed_from_u64(9);
        let table = ScalingTable::compute(&rp, &store, 32, &mut rng);
        assert_eq!(table.len(), 5);
        assert!(
            table.log_scale(0, 0) < table.log_scale(4, 0),
            "popular {} vs rare {}",
            table.log_scale(0, 0),
            table.log_scale(4, 0)
        );
    }

    #[test]
    fn log_scale_nonnegative_ish() {
        // E[1/P] >= 1 by Jensen whenever P <= 1, so log E[1/P] >= 0.
        let (store, rp) = trained_rp(5, &[8, 8, 8, 8, 8]);
        let mut rng = StdRng::seed_from_u64(10);
        let table = ScalingTable::compute(&rp, &store, 16, &mut rng);
        for v in 0..5u32 {
            assert!(table.log_scale(v, 0) > -1e-9, "v={v}: {}", table.log_scale(v, 0));
        }
    }

    #[test]
    fn elbo_ranks_popularity() {
        let (store, rp) = trained_rp(5, &[16, 4, 4, 4, 1]);
        let mut rng = StdRng::seed_from_u64(11);
        let table = ScalingTable::compute(&rp, &store, 32, &mut rng);
        assert!(table.elbo(0, 0) > table.elbo(4, 0));
    }

    #[test]
    fn token_tiles_compute_the_per_token_table_bit_for_bit() {
        // A tile of one is the per-token loop the table was first computed
        // with; the tile `compute` uses, one that does not divide the
        // token count and one wider than it must give its every bit.
        for (hidden_dim, time_factorised_scaling, samples) in [(20, true, 3), (64, false, 8)] {
            let cfg = CausalTadConfig {
                hidden_dim,
                time_factorised_scaling,
                ..CausalTadConfig::test_scale()
            };
            let mut rng = StdRng::seed_from_u64(13);
            let mut store = ParamStore::new();
            let rp = RpVae::new(&mut store, 21, &cfg, &mut rng);
            let table = |tile: usize| {
                let mut rng = StdRng::seed_from_u64(14);
                ScalingTable::compute_tiled(&rp, &store, samples, &mut rng, tile)
            };
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let per_token = table(1);
            assert_eq!(per_token.len(), rp.num_tokens());
            for tile in [TOKEN_TILE, 5, 1000] {
                let tiled = table(tile);
                assert_eq!(bits(&tiled.log_scale), bits(&per_token.log_scale), "tile {tile}");
                assert_eq!(bits(&tiled.elbo), bits(&per_token.elbo), "tile {tile}");
            }
        }
    }

    #[test]
    fn time_factorised_table_has_slot_entries() {
        let mut cfg = CausalTadConfig::test_scale();
        cfg.time_factorised_scaling = true;
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let rp = RpVae::new(&mut store, 6, &cfg, &mut rng);
        let table = ScalingTable::compute(&rp, &store, 4, &mut rng);
        assert_eq!(table.len(), 6 * cfg.num_time_slots);
        // Different slots may map to different entries without panicking.
        let _ = table.log_scale(5, 0);
        let _ = table.log_scale(5, 3);
    }
}
