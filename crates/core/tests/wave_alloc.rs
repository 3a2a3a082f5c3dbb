//! Pins the tiled wave's memory property: the heap a
//! [`CausalTad::push_batch`] call holds at its peak is one row tile of
//! scratch plus the returned scores, however many sessions the wave
//! carries. No `n x hidden` or `n x 3·hidden` matrix may come back.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test: nothing else allocates while the wave is measured.

mod counting;

use causaltad::{CausalTad, CausalTadConfig, ScorerState};
use tad_trajsim::{generate_city, CityConfig};

const WIDTH: usize = 8192;

#[test]
fn push_batch_peak_heap_is_one_tile_not_the_wave() {
    let city = generate_city(&CityConfig::test_scale(204));
    let cfg = CausalTadConfig { hidden_dim: 64, ..CausalTadConfig::test_scale() };
    let (embed, hidden) = (cfg.embed_dim, cfg.hidden_dim);
    let mut model = CausalTad::new(&city.net, cfg);
    model.precompute_scaling();
    let cache = model.build_step_cache();
    let vocab = model.vocab() as u32;
    let tile = model.wave_tile_rows();
    assert!(WIDTH >= 16 * tile, "the wave must dwarf a tile for the bound to mean anything");

    // Mid-trip sessions (a predecessor), every fourth one behind the same
    // junction so tiles hold shared successor groups.
    let hub = (0..vocab).find(|&s| model.successors_of(s).len() >= 2).expect("a junction");
    let prev_of = |i: u32| if i.is_multiple_of(4) { hub } else { i % vocab };
    let segs: Vec<u32> = (0..WIDTH as u32)
        .map(|i| {
            let succ = model.successors_of(prev_of(i));
            succ.get(i as usize % succ.len().max(1)).copied().unwrap_or(i % vocab)
        })
        .collect();
    let sessions = |n: usize| -> Vec<ScorerState> {
        (0..n as u32)
            .map(|i| {
                let h = (0..hidden).map(|c| ((i as usize * 31 + c * 7) % 97) as f32 / 97.0 - 0.5);
                ScorerState::from_parts(h.collect(), 0.0, 0.0, 0.0, Some(prev_of(i)), 0, 1)
            })
            .collect()
    };

    for cache in [Some(&cache), None] {
        // Thread-local kernel panels and lazily built tables come first.
        model.push_batch(cache, &mut sessions(tile + 1), &segs[..tile + 1]);

        let mut wave = sessions(WIDTH);
        let (scores, extra) = counting::peak_growth(|| model.push_batch(cache, &mut wave, &segs));
        assert_eq!(scores.len(), WIDTH);

        let f32s = std::mem::size_of::<f32>();
        // Stacked hidden rows + gate pre-activations, the tile's candidate
        // / NLL / grouping lists, and a successor group's gathered rows
        // (at worst the whole tile).
        let tile_scratch = tile * 4 * hidden * f32s + tile * 64 + tile * hidden * f32s;
        // Without a step cache the tile's embeddings and input gates too.
        let uncached = if cache.is_some() { 0 } else { tile * (embed + 3 * hidden) * f32s };
        let scores_bytes = WIDTH * std::mem::size_of::<f64>();
        let budget = tile_scratch + uncached + scores_bytes + 4096;
        assert!(
            extra <= budget,
            "cache {}: peak heap grew {extra} B during the wave; one tile plus scores is {budget} B",
            cache.is_some()
        );
        assert!(extra >= scores_bytes, "the allocator is counting: {extra} B");
        assert!(budget < WIDTH * hidden * f32s / 2, "budget is far below one n x hidden matrix");
    }
}
