//! Pins what the tape-free step allocates: once a thread has scored a
//! trip (so the model's inference plan and the thread's step buffers
//! exist), [`CausalTad::push_state`] allocates nothing at any trip length
//! — the state keeps a segment count, not a per-segment history — and
//! [`CausalTad::start_state`] allocates the hidden row of the state it
//! returns, two bytes a value: no f32 row to round it from, no embedding,
//! gate, logit or full-vocabulary intermediate, with or without the SD
//! reconstruction term.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test: nothing else allocates while a call is measured.

mod counting;

use causaltad::{CausalTad, CausalTadConfig};
use tad_trajsim::{generate_city, CityConfig};

#[test]
fn a_push_allocates_nothing_and_a_start_only_its_hidden_row() {
    let city = generate_city(&CityConfig::test_scale(206));
    for score_includes_sd_nll in [false, true] {
        let cfg = CausalTadConfig {
            hidden_dim: 64,
            score_includes_sd_nll,
            ..CausalTadConfig::test_scale()
        };
        // A state keeps its hidden row as bf16 bits.
        let hidden_bytes = cfg.hidden_dim * std::mem::size_of::<u16>();
        let mut model = CausalTad::new(&city.net, cfg);
        model.precompute_scaling();
        let vocab = model.vocab() as u32;
        assert!(vocab as usize * 4 > 2 * hidden_bytes, "a vocabulary row would show");
        let walk = |from: u32, len: usize| -> Vec<u32> {
            let mut walk = vec![from];
            while walk.len() < len {
                let succ = model.successors_of(*walk.last().expect("non-empty"));
                walk.push(succ.first().copied().unwrap_or((walk.len() as u32 * 3) % vocab));
            }
            walk
        };

        // The first trip builds the plan and sizes the thread's buffers.
        let mut warm = model.start_state(1, 2, 0).expect("in vocabulary");
        for seg in walk(1, 3) {
            model.push_state(&mut warm, seg);
        }

        let (state, grew) = counting::peak_growth(|| model.start_state(3, 9, 1));
        let mut state = state.expect("in vocabulary");
        assert_eq!(grew, hidden_bytes, "sd_nll {score_includes_sd_nll}: start_state");

        for seg in walk(3, 41) {
            let len = state.len();
            let (_, grew) = counting::peak_growth(|| model.push_state(&mut state, seg));
            assert_eq!(grew, 0, "sd_nll {score_includes_sd_nll}: push at length {len}");
        }
        assert_eq!(state.len(), 41);
    }
}
