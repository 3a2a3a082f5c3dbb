//! Binary persistence for trained CausalTAD models and live scorer
//! sessions.
//!
//! Two codecs live here, both one checksummed [`tad_codec::envelope`]
//! read back through the checked [`Reader`], so hostile bytes are a typed
//! error and never a panic:
//!
//! * **Model codec** ([`model_to_bytes`] / [`model_from_bytes`], magic
//!   `TADW`, version 2) — serialises the configuration, the precomputed
//!   scaling table (optional) and every parameter tensor, so a model
//!   trained offline can be shipped to an online-detection service. The
//!   road network is *not* embedded — the caller supplies it at load time
//!   (it defines the successor sets), and the codec verifies the
//!   vocabulary matches. Version 1 (magic `TADM`, no checksum) is refused.
//! * **Session codec** ([`state_to_bytes`] / [`state_from_bytes`], magic
//!   `TADC`, version 3) — serialises one in-flight [`ScorerState`] (bf16
//!   hidden row, score accumulators, last segment, time slot, segment
//!   count) so a serving layer can persist live sessions across a restart
//!   (see `tad-serve`'s fleet snapshots, which embed these blobs). Version
//!   2 (an f32 row) and version 1 (a per-segment trace in place of the
//!   count) are refused.

use bytes::{BufMut, Bytes, BytesMut};
use tad_autodiff::ParamStore;
use tad_codec::{envelope_payload, seal_envelope, Reader};
use tad_roadnet::RoadNetwork;

use crate::config::CausalTadConfig;
use crate::model::CausalTad;
use crate::online::ScorerState;
use crate::scaling::ScalingTable;

const MAGIC: &[u8; 4] = b"TADW";
const VERSION: u16 = 2;

const STATE_MAGIC: &[u8; 4] = b"TADC";
const STATE_VERSION: u16 = 3;

/// Errors produced when decoding a serialized model.
#[derive(Debug, PartialEq, Eq)]
pub enum ModelCodecError {
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (bit rot or tampering).
    ChecksumMismatch,
    /// The payload parsed but violated a structural invariant (a zero
    /// dimension, a scaling table that does not index the configured
    /// tokens, trailing bytes).
    Malformed(&'static str),
    /// The parameter blob failed to decode, or does not hold exactly the
    /// tensors a model of the stored configuration registers.
    BadParams,
    /// The supplied road network's segment count does not match the model.
    VocabMismatch {
        /// Segment count the model was trained on.
        expected: usize,
        /// Segment count of the supplied road network.
        actual: usize,
    },
}

impl std::fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelCodecError::BadMagic => write!(f, "bad magic bytes"),
            ModelCodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            ModelCodecError::Truncated(what) => write!(f, "truncated input at {what}"),
            ModelCodecError::ChecksumMismatch => write!(f, "model payload checksum mismatch"),
            ModelCodecError::Malformed(what) => write!(f, "malformed model: {what}"),
            ModelCodecError::BadParams => {
                write!(f, "parameter blob failed to decode or does not fit the configuration")
            }
            ModelCodecError::VocabMismatch { expected, actual } => {
                write!(f, "model was trained on {expected} segments, network has {actual}")
            }
        }
    }
}

impl std::error::Error for ModelCodecError {}

tad_codec::codec_error_from!(ModelCodecError);

/// Serialises a trained model.
pub fn model_to_bytes(model: &CausalTad) -> Bytes {
    let cfg = model.config();
    let mut buf = BytesMut::with_capacity(1024);

    // Config block.
    buf.put_u32_le(model.vocab() as u32);
    buf.put_u32_le(cfg.embed_dim as u32);
    buf.put_u32_le(cfg.hidden_dim as u32);
    buf.put_u32_le(cfg.latent_dim as u32);
    buf.put_u32_le(cfg.rp_latent_dim as u32);
    buf.put_f64_le(cfg.lambda);
    buf.put_u32_le(cfg.scaling_mc_samples as u32);
    buf.put_u32_le(cfg.num_time_slots as u32);
    buf.put_u8(flag_bits(cfg));
    buf.put_u64_le(cfg.seed);

    // Scaling table.
    match model.scaling() {
        Some(table) => {
            buf.put_u8(1);
            let blob = table.to_bytes();
            buf.put_u32_le(blob.len() as u32);
            buf.put_slice(&blob);
        }
        None => buf.put_u8(0),
    }

    // Parameters.
    let params = model.store().to_bytes();
    buf.put_u32_le(params.len() as u32);
    buf.put_slice(&params);
    seal_envelope(MAGIC, VERSION, buf.freeze())
}

/// Restores a model serialized by [`model_to_bytes`] against a road
/// network (which must have the same segment count the model was trained
/// on).
///
/// Nothing the size of the model is allocated on the blob's say-so: the
/// parameters decode first (bounded by the input's length), and the
/// constructor that initialises a fresh model then claims them one by one
/// — name and shape compared, nothing drawn, no second store.
///
/// # Errors
/// Returns the [`ModelCodecError`] naming what failed: wrong magic or
/// version, a truncation point, a checksum mismatch, a vocabulary mismatch
/// against `net`, or parameters, dimensions and scaling table that do not
/// describe one model. Decoding never panics.
pub fn model_from_bytes(net: &RoadNetwork, bytes: Bytes) -> Result<CausalTad, ModelCodecError> {
    let mut r = Reader::new(envelope_payload(MAGIC, VERSION, &bytes)?);
    let vocab = r.u32("config")? as usize;
    if vocab != net.num_segments() {
        return Err(ModelCodecError::VocabMismatch { expected: vocab, actual: net.num_segments() });
    }
    let mut cfg = CausalTadConfig {
        embed_dim: r.u32("config")? as usize,
        hidden_dim: r.u32("config")? as usize,
        latent_dim: r.u32("config")? as usize,
        rp_latent_dim: r.u32("config")? as usize,
        lambda: r.f64("config")?,
        scaling_mc_samples: r.u32("config")? as usize,
        num_time_slots: r.u32("config")? as usize,
        ..CausalTadConfig::default()
    };
    apply_flag_bits(&mut cfg, r.u8("config")?);
    cfg.seed = r.u64("config")?;
    let scaling = r.opt("scaling flag", |r| r.blob("scaling blob"))?;
    let params = r.blob("param blob")?;
    r.finish()?;

    let dims = [vocab, cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim, cfg.rp_latent_dim];
    if dims.contains(&0)
        || cfg.scaling_mc_samples == 0
        || (cfg.time_factorised_scaling && cfg.num_time_slots == 0)
    {
        return Err(ModelCodecError::Malformed("zero model dimension"));
    }
    let store = ParamStore::from_slice(params).map_err(|_| ModelCodecError::BadParams)?;
    let mut model = CausalTad::on_store(net, cfg, store).map_err(|_| ModelCodecError::BadParams)?;
    model.scaling = scaling.map(|blob| ScalingTable::from_bytes(blob.into())).transpose()?;
    if model.scaling.as_ref().is_some_and(|table| !table.fits(vocab, &model.cfg)) {
        return Err(ModelCodecError::Malformed("scaling table does not fit the configuration"));
    }
    Ok(model)
}

/// Errors produced when decoding a serialized [`ScorerState`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateCodecError {
    /// Magic bytes did not match `TADC`.
    BadMagic,
    /// Unsupported session-format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (bit rot or tampering).
    ChecksumMismatch,
    /// The payload parsed but violated a structural invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for StateCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateCodecError::BadMagic => write!(f, "bad session magic bytes"),
            StateCodecError::BadVersion(v) => write!(f, "unsupported session version {v}"),
            StateCodecError::Truncated(what) => write!(f, "truncated session input at {what}"),
            StateCodecError::ChecksumMismatch => write!(f, "session payload checksum mismatch"),
            StateCodecError::Malformed(what) => write!(f, "malformed session payload: {what}"),
        }
    }
}

impl std::error::Error for StateCodecError {}

tad_codec::codec_error_from!(StateCodecError);

/// Serialises one live [`ScorerState`]. The blob is self-describing
/// (magic, version, length-prefixed payload, checksum) so it can be stored
/// standalone or embedded length-prefixed inside a larger snapshot.
pub fn state_to_bytes(state: &ScorerState) -> Bytes {
    let mut payload = BytesMut::with_capacity(40 + state.h.len() * 2);
    payload.put_u32_le(state.h.len() as u32);
    for &b in state.h.iter() {
        payload.put_u16_le(b);
    }
    payload.put_f64_le(state.base_nll);
    payload.put_f64_le(state.traj_nll);
    payload.put_f64_le(state.scale_log_sum);
    match state.last {
        Some(seg) => {
            payload.put_u8(1);
            payload.put_u32_le(seg);
        }
        None => payload.put_u8(0),
    }
    payload.put_u8(state.time_slot);
    payload.put_u32_le(state.segments);
    seal_envelope(STATE_MAGIC, STATE_VERSION, payload.freeze())
}

/// Restores a state serialized by [`state_to_bytes`]. The whole input must
/// be one session blob (trailing bytes are rejected); decoding never
/// panics, whatever the input.
///
/// # Errors
/// Returns the [`StateCodecError`] naming what failed: wrong magic or
/// version, a truncation point, a checksum mismatch, or a structural
/// violation of the payload.
pub fn state_from_bytes(bytes: Bytes) -> Result<ScorerState, StateCodecError> {
    let payload = envelope_payload(STATE_MAGIC, STATE_VERSION, &bytes)?;
    let mut r = Reader::new(payload);
    let h = r.seq(2, "hidden row", |r, _| r.u16("hidden row"))?.into_boxed_slice();
    let base_nll = r.f64("accumulators")?;
    let traj_nll = r.f64("accumulators")?;
    let scale_log_sum = r.f64("accumulators")?;
    let last = r.opt("last-segment flag", |r| r.u32("last segment"))?;
    let time_slot = r.u8("time slot")?;
    let segments = r.u32("segment count")?;
    r.finish()?;
    Ok(ScorerState { h, base_nll, traj_nll, scale_log_sum, last, time_slot, segments })
}

fn flag_bits(cfg: &CausalTadConfig) -> u8 {
    (cfg.time_factorised_scaling as u8)
        | ((cfg.disable_sd_decoder as u8) << 1)
        | ((cfg.tie_sd_embedding as u8) << 2)
        | ((cfg.score_includes_sd_nll as u8) << 3)
        | ((cfg.disable_road_constraint as u8) << 4)
}

fn apply_flag_bits(cfg: &mut CausalTadConfig, flags: u8) {
    cfg.time_factorised_scaling = flags & 1 != 0;
    cfg.disable_sd_decoder = flags & 2 != 0;
    cfg.tie_sd_embedding = flags & 4 != 0;
    cfg.score_includes_sd_nll = flags & 8 != 0;
    cfg.disable_road_constraint = flags & 16 != 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_trajsim::{generate_city, CityConfig};

    /// One trained model shared by every test in this module (training in
    /// debug mode is expensive).
    fn trained() -> &'static (tad_trajsim::City, CausalTad) {
        static SHARED: std::sync::OnceLock<(tad_trajsim::City, CausalTad)> =
            std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let city = generate_city(&CityConfig::test_scale(700));
            let mut cfg = CausalTadConfig::test_scale();
            cfg.epochs = 2;
            let mut model = CausalTad::new(&city.net, cfg);
            model.fit(&city.data.train);
            (city, model)
        })
    }

    #[test]
    fn roundtrip_preserves_scores_exactly() {
        let (city, model) = trained();
        let blob = model_to_bytes(model);
        let restored = model_from_bytes(&city.net, blob).expect("decode");
        for t in city.data.test_id.iter().take(5).chain(city.data.detour.iter().take(5)) {
            assert_eq!(model.score(t), restored.score(t));
        }
    }

    #[test]
    fn a_decoded_model_re_encodes_to_the_blob_it_came_from() {
        let (city, _) = trained();
        let timed = CausalTadConfig {
            time_factorised_scaling: true,
            tie_sd_embedding: true,
            ..CausalTadConfig::test_scale()
        };
        for cfg in [CausalTadConfig::test_scale(), CausalTadConfig::default(), timed] {
            let mut model = CausalTad::new(&city.net, cfg);
            model.precompute_scaling();
            let blob = model_to_bytes(&model);
            let restored = model_from_bytes(&city.net, blob.clone()).expect("decode");
            assert!(restored.store().same_layout(model.store()));
            assert_eq!(restored.tg_params, model.tg_params);
            assert_eq!(model_to_bytes(&restored), blob);
        }
    }

    #[test]
    fn parameters_of_the_other_embedding_tying_are_refused() {
        // The flag byte follows seven u32s and one f64 of configuration;
        // re-sealed, so only the constructor's walk can refuse the blob.
        const FLAGS_AT: usize = 7 * 4 + 8;
        let (city, _) = trained();
        for tied in [true, false] {
            let cfg = CausalTadConfig { tie_sd_embedding: tied, ..CausalTadConfig::test_scale() };
            let blob = model_to_bytes(&CausalTad::new(&city.net, cfg));
            let mut payload = envelope_payload(MAGIC, VERSION, &blob).expect("sealed").to_vec();
            assert_eq!(payload[FLAGS_AT] & 4 != 0, tied);
            payload[FLAGS_AT] ^= 4;
            let lying = seal_envelope(MAGIC, VERSION, payload.into());
            assert_eq!(model_from_bytes(&city.net, lying).err(), Some(ModelCodecError::BadParams));
            assert!(model_from_bytes(&city.net, blob).is_ok(), "tied = {tied}");
        }
    }

    #[test]
    fn vocab_mismatch_rejected() {
        let (_, model) = trained();
        let other = generate_city(&CityConfig::test_scale(701));
        let blob = model_to_bytes(model);
        match model_from_bytes(&other.net, blob) {
            Err(ModelCodecError::VocabMismatch { .. }) => {}
            other => panic!("expected VocabMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_blob_rejected() {
        let (city, model) = trained();
        let blob = model_to_bytes(model);
        let cut = blob.slice(0..blob.len() / 2);
        assert!(model_from_bytes(&city.net, cut).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let (city, model) = trained();
        let mut raw = model_to_bytes(model).to_vec();
        raw[0] = b'Z';
        assert!(matches!(
            model_from_bytes(&city.net, Bytes::from(raw)),
            Err(ModelCodecError::BadMagic)
        ));
    }

    fn live_state(model: &CausalTad, t: &tad_trajsim::Trajectory, upto: usize) -> ScorerState {
        let sd = t.sd_pair();
        let mut state =
            model.start_state(sd.source.0, sd.dest.0, t.time_slot).expect("valid request");
        for &seg in &t.segments[..upto] {
            model.push_state(&mut state, seg.0);
        }
        state
    }

    #[test]
    fn state_roundtrip_is_exact_and_resumable() {
        let (city, model) = trained();
        let t = &city.data.test_id[0];
        let mid = t.len() / 2;
        let state = live_state(model, t, mid);
        let blob = state_to_bytes(&state);
        let mut restored = state_from_bytes(blob.clone()).expect("decode");
        assert_eq!(restored, state);
        // Canonical encoding: re-encoding the decoded state is byte-for-byte
        // identical.
        assert_eq!(state_to_bytes(&restored).to_vec(), blob.to_vec());
        // Resuming the restored state matches resuming the original exactly.
        let mut original = state;
        for &seg in &t.segments[mid..] {
            let a = model.push_state(&mut original, seg.0);
            let b = model.push_state(&mut restored, seg.0);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn default_state_roundtrips() {
        let state = ScorerState::default();
        let restored = state_from_bytes(state_to_bytes(&state)).expect("decode");
        assert_eq!(restored, state);
        assert_eq!(restored.hidden_width(), 0);
    }

    #[test]
    fn state_decode_rejects_corruption_without_panicking() {
        let (city, model) = trained();
        let state = live_state(model, &city.data.test_id[0], 3);
        let blob = state_to_bytes(&state).to_vec();

        // Wrong magic.
        let mut raw = blob.clone();
        raw[0] ^= 0xFF;
        assert_eq!(state_from_bytes(Bytes::from(raw)), Err(StateCodecError::BadMagic));

        // Wrong version.
        let mut raw = blob.clone();
        raw[4] = 0xEE;
        assert!(matches!(state_from_bytes(Bytes::from(raw)), Err(StateCodecError::BadVersion(_))));

        // Every truncation point errors instead of panicking.
        for cut in 0..blob.len() {
            assert!(state_from_bytes(Bytes::from(blob[..cut].to_vec())).is_err(), "cut={cut}");
        }

        // Any single-bit flip in the body is caught (magic/version flips are
        // caught by the header checks above; the rest by the checksum).
        for byte in 6..blob.len() {
            let mut raw = blob.clone();
            raw[byte] ^= 1;
            assert!(state_from_bytes(Bytes::from(raw)).is_err(), "byte={byte}");
        }

        // Trailing garbage is rejected.
        let mut raw = blob.clone();
        raw.push(0);
        assert_eq!(
            state_from_bytes(Bytes::from(raw)),
            Err(StateCodecError::Malformed("trailing bytes after checksum"))
        );
    }

    #[test]
    fn huge_crafted_state_lengths_error_instead_of_panicking() {
        // Payload length u64::MAX with almost no bytes behind it: the
        // checked envelope guard must fail, not wrap.
        let mut raw = Vec::new();
        raw.extend_from_slice(STATE_MAGIC);
        raw.extend_from_slice(&STATE_VERSION.to_le_bytes());
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        assert_eq!(state_from_bytes(Bytes::from(raw)), Err(StateCodecError::Truncated("payload")));
        // A checksummed payload claiming a near-u32::MAX hidden width.
        let payload = u32::MAX.to_le_bytes().to_vec();
        let blob = seal_envelope(STATE_MAGIC, STATE_VERSION, Bytes::from(payload));
        assert_eq!(state_from_bytes(blob), Err(StateCodecError::Truncated("hidden row")));
    }

    #[test]
    fn a_version_1_session_blob_is_refused_typed() {
        // Version 1 carried the per-segment trace where version 2 has a
        // count: a valid v1 blob (one trace entry) under a good checksum.
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        payload.put_f32_le(0.5);
        [1.0f64, 2.0, 3.0].iter().for_each(|&x| payload.put_f64_le(x));
        payload.put_u8(1);
        payload.put_u32_le(4);
        payload.put_u8(0);
        payload.put_u32_le(1);
        payload.put_u32_le(4);
        payload.put_f64_le(0.5);
        payload.put_f64_le(0.1);
        let blob = seal_envelope(STATE_MAGIC, 1, payload.freeze());
        assert_eq!(state_from_bytes(blob), Err(StateCodecError::BadVersion(1)));
    }

    #[test]
    fn a_version_2_session_blob_is_refused_typed() {
        // Version 2 carried the hidden row as f32s where version 3 has
        // bf16: a valid v2 blob (a two-value row) under a good checksum.
        let mut payload = BytesMut::new();
        payload.put_u32_le(2);
        payload.put_f32_le(0.5);
        payload.put_f32_le(-1.25);
        [1.0f64, 2.0, 3.0].iter().for_each(|&x| payload.put_f64_le(x));
        payload.put_u8(1);
        payload.put_u32_le(4);
        payload.put_u8(0);
        payload.put_u32_le(1);
        let blob = seal_envelope(STATE_MAGIC, 2, payload.freeze());
        assert_eq!(state_from_bytes(blob), Err(StateCodecError::BadVersion(2)));
    }

    #[test]
    fn config_flags_roundtrip() {
        let mut cfg = CausalTadConfig::test_scale();
        cfg.time_factorised_scaling = true;
        cfg.score_includes_sd_nll = true;
        cfg.tie_sd_embedding = false;
        let bits = flag_bits(&cfg);
        let mut restored = CausalTadConfig::default();
        apply_flag_bits(&mut restored, bits);
        assert!(restored.time_factorised_scaling);
        assert!(restored.score_includes_sd_nll);
        assert!(!restored.tie_sd_embedding);
        assert!(!restored.disable_sd_decoder);
    }
}
