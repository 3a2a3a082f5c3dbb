//! The score callback's unit is the wave: `on_scores` is called once per
//! batched model step with that step's scores in wave order, and
//! `on_score` is the same deliveries seen one score at a time.

use std::sync::{Arc, Mutex};

use causaltad::{CausalTad, CausalTadConfig};
use tad_serve::{Event, FleetConfig, FleetEngine, ScoreUpdate};
use tad_trajsim::{generate_city, CityConfig};

#[test]
fn on_scores_gets_one_call_per_wave_and_on_score_the_same_scores_flattened() {
    const TRIPS: u64 = 8;
    const SEGMENTS: usize = 3;
    let city = generate_city(&CityConfig::test_scale(92));
    let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
    model.precompute_scaling();
    let model = Arc::new(model);
    let t = city.data.test_id.iter().find(|t| t.len() >= SEGMENTS).expect("a long enough trip");
    let sd = t.sd_pair();
    // Every start, then the trips' segments round-robin — one chunk, so
    // one drain: wave `k` is segment `k` of every trip, in start order.
    let mut events: Vec<Event> = (0..TRIPS)
        .map(|id| Event::TripStart {
            id,
            source: sd.source.0,
            dest: sd.dest.0,
            time_slot: t.time_slot,
        })
        .collect();
    for seg in &t.segments[..SEGMENTS] {
        events.extend((0..TRIPS).map(|id| Event::Segment { id, seg: seg.0 }));
    }
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };

    let waves: Arc<Mutex<Vec<Vec<ScoreUpdate>>>> = Arc::default();
    let sink = Arc::clone(&waves);
    let engine = FleetEngine::builder(Arc::clone(&model))
        .config(cfg.clone())
        .on_scores(move |wave| sink.lock().unwrap().push(wave.to_vec()))
        .build()
        .expect("scaling table is built");
    engine.submit_all(events.clone()).expect("engine is live");
    engine.flush().expect("shard live");
    engine.shutdown();
    let waves = std::mem::take(&mut *waves.lock().unwrap());

    assert_eq!(waves.len(), SEGMENTS, "one call per wave");
    for (k, wave) in waves.iter().enumerate() {
        let route: Vec<(u64, u32)> = wave.iter().map(|u| (u.id, u.seq)).collect();
        let expected: Vec<(u64, u32)> = (0..TRIPS).map(|id| (id, k as u32)).collect();
        assert_eq!(route, expected, "wave {k}");
    }

    let singles: Arc<Mutex<Vec<ScoreUpdate>>> = Arc::default();
    let sink = Arc::clone(&singles);
    let engine = FleetEngine::builder(model)
        .config(cfg)
        .on_score(move |u| sink.lock().unwrap().push(*u))
        .build()
        .expect("scaling table is built");
    engine.submit_all(events).expect("engine is live");
    engine.flush().expect("shard live");
    engine.shutdown();
    assert_eq!(*singles.lock().unwrap(), waves.concat());
}
