//! Pins what one live session costs a shard beyond its hidden row and its
//! trace: at most 192 bytes, which hold its 128-byte store slot and its
//! trip-id map entry (~34 B at these store sizes). A slot that carries
//! its own segment queue and unused policy rings fails it: such a
//! 248-byte slot read 298 B here.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test: nothing else allocates while an engine is measured.

#[path = "../../core/tests/counting/mod.rs"]
mod counting;

use std::sync::Arc;

use causaltad::{CausalTad, CausalTadConfig, SegmentTrace};
use tad_serve::{Event, FleetConfig, FleetEngine};
use tad_trajsim::{generate_city, CityConfig};

/// Trips per submitted chunk. Each chunk is flushed before the next, so
/// every drain is one chunk wide and the drain's scratch is the same
/// however many sessions the engine holds.
const CHUNK: usize = 256;

#[test]
fn a_live_session_costs_its_hidden_row_its_trace_and_at_most_192_bytes() {
    let city = generate_city(&CityConfig::test_scale(208));
    let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
    model.precompute_scaling();
    let model = Arc::new(model);
    let hidden = model.config().hidden_dim;
    let trips: Vec<_> = city.data.train.iter().filter(|t| t.len() >= 3).collect();

    // The live heap an engine holds once `sessions` trips have each been
    // started and pushed 3 segments.
    let live_with = |sessions: usize| {
        let cfg =
            FleetConfig { num_shards: 1, max_sessions_per_shard: 1 << 14, ..Default::default() };
        let (engine, grew) = counting::live_growth(|| {
            let engine =
                FleetEngine::builder(Arc::clone(&model)).config(cfg).build().expect("scaled model");
            for first in (0..sessions).step_by(CHUNK) {
                let events = (first..sessions.min(first + CHUNK)).flat_map(|i| {
                    let t = trips[i % trips.len()];
                    let (sd, id) = (t.sd_pair(), i as u64);
                    let start = Event::TripStart {
                        id,
                        source: sd.source.0,
                        dest: sd.dest.0,
                        time_slot: t.time_slot,
                    };
                    let segs = t.segments[..3].iter().map(move |s| Event::Segment { id, seg: s.0 });
                    std::iter::once(start).chain(segs)
                });
                engine.submit_all(events.collect::<Vec<_>>()).expect("engine live");
                engine.flush().expect("shard live");
            }
            engine
        });
        assert_eq!(engine.stats().active_sessions, sessions as u64);
        engine.shutdown();
        grew
    };

    // The first engine also derives the model's inference plan.
    live_with(1_024);
    let (small, large) = (live_with(1_024), live_with(8_192));
    let per_session = (large - small) as f64 / (8_192 - 1_024) as f64;

    // A trip's trace after 3 pushes, at the capacity the push path gives it.
    let t = trips[0];
    let mut scorer = model.online(t.sd_pair().source.0, t.sd_pair().dest.0, t.time_slot);
    for seg in &t.segments[..3] {
        scorer.push(seg.0);
    }
    let trace_bytes = scorer.into_state().into_trace().capacity() * size_of::<SegmentTrace>();

    let overhead = per_session - (4 * hidden + trace_bytes) as f64;
    println!(
        "{per_session:.1} B per live session: {} B hidden row, {trace_bytes} B trace, \
         {overhead:.1} B the rest",
        4 * hidden
    );
    assert!(overhead <= 192.0, "a live session costs {overhead:.1} B beyond its row and trace");
}
