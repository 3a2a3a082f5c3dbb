//! Pins what one live session costs a shard beyond its hidden row (bf16,
//! `2·hidden` bytes): at most 192 bytes, which hold its 104-byte store
//! slot and its trip-id map entry (~34 B at these store sizes), and the
//! same after 1 000 scored
//! segments as after 10 (a session keeps a segment count, not a
//! per-segment history). A session that keeps its trace grows with every
//! segment it scores; a slot that carries its own segment queue and
//! unused policy rings fails the bound (such a 248-byte slot read 298 B
//! here).
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test: nothing else allocates while an engine is measured.

#[path = "../../core/tests/counting/mod.rs"]
mod counting;

use std::sync::Arc;

use std::time::Instant;

use causaltad::{CausalTad, CausalTadConfig};
use tad_serve::session::{Session, SessionStore};
use tad_serve::{Event, FleetConfig, FleetEngine};
use tad_trajsim::{generate_city, CityConfig};

/// Trips per submitted chunk. Each chunk is flushed before the next, so
/// every drain is one chunk wide and the drain's scratch is the same
/// however many sessions the engine holds.
const CHUNK: usize = 256;

/// Segments each trip has scored when it is measured.
const SEGMENTS: usize = 10;

#[test]
fn a_live_session_costs_its_hidden_row_and_the_same_192_bytes_at_any_length() {
    let city = generate_city(&CityConfig::test_scale(208));
    let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
    model.precompute_scaling();
    let model = Arc::new(model);
    let hidden = model.config().hidden_dim;
    let trips: Vec<_> = city.data.train.iter().filter(|t| t.len() >= 3).collect();

    // The live heap an engine holds once `sessions` trips have each been
    // started and pushed `SEGMENTS` segments.
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
                    let segs = (0..SEGMENTS)
                        .map(move |r| Event::Segment { id, seg: t.segments[r % t.len()].0 });
                    std::iter::once(start).chain(segs)
                });
                engine.submit_all(events.collect::<Vec<_>>()).expect("engine live");
                engine.flush().expect("shard live");
            }
            engine
        });
        let stats = engine.stats();
        assert_eq!(stats.active_sessions, sessions as u64);
        assert_eq!(stats.segments_scored, (sessions * SEGMENTS) as u64);
        engine.shutdown();
        grew
    };

    // The live heap a shard's store holds once `CHUNK` trips have each
    // been started and pushed `segments` segments, on this thread.
    let store_with = |segments: usize| {
        let (store, grew) = counting::live_growth(|| {
            let mut store = SessionStore::new(CHUNK);
            for (i, t) in trips.iter().cycle().take(CHUNK).enumerate() {
                let sd = t.sd_pair();
                let mut state =
                    model.start_state(sd.source.0, sd.dest.0, t.time_slot).expect("in vocabulary");
                for round in 0..segments {
                    model.push_state(&mut state, t.segments[round % t.len()].0);
                }
                assert_eq!(state.len(), segments);
                store.insert(i as u64, Session::new(state, Instant::now()));
            }
            store
        });
        assert_eq!(store.len(), CHUNK);
        grew
    };

    // The first engine also derives the model's inference plan, the first
    // store this thread's step buffers.
    live_with(CHUNK);
    store_with(1);

    // A session's heap does not grow with the segments it has scored:
    // byte for byte, a store of sessions 1 000 segments in holds what one
    // of sessions 10 segments in does. (Measured on the store, on one
    // thread: an engine's live heap also holds, or not, the reply channel
    // of its last flush, depending on when its shard drops it.)
    let (short, long) = (store_with(SEGMENTS), store_with(1_000));
    assert_eq!(long, short, "{CHUNK} sessions 1 000 segments in vs 10");

    let (small, large) = (live_with(1_024), live_with(8_192));
    let per_session = (large - small) as f64 / (8_192 - 1_024) as f64;
    let overhead = per_session - (2 * hidden) as f64;
    println!(
        "{per_session:.1} B per live session: {} B hidden row, {overhead:.1} B the rest",
        2 * hidden
    );
    assert!(overhead <= 192.0, "a live session costs {overhead:.1} B beyond its hidden row");
}
