//! `FleetConfig::max_sessions_per_shard` through the engine: the build
//! rejects a cap the session store cannot hold, and a cap that is hit
//! inside one drain evicts the least recently used trip, queued segments
//! and all, while a trip started again in that drain scores from a fresh
//! state.

use std::sync::{Arc, Mutex};

use causaltad::{CausalTad, CausalTadConfig};
use tad_serve::{
    Completion, Event, FleetConfig, FleetEngine, ScoreUpdate, ServeError, TripOutcome,
};
use tad_trajsim::{generate_city, City, CityConfig};

/// A test city and an untrained model over it, ready to score.
fn city_and_model() -> (City, Arc<CausalTad>) {
    let city = generate_city(&CityConfig::test_scale(209));
    let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
    model.precompute_scaling();
    (city, Arc::new(model))
}

fn build_error(max_sessions_per_shard: usize) -> Option<ServeError> {
    let cfg = FleetConfig { num_shards: 1, max_sessions_per_shard, ..FleetConfig::default() };
    FleetEngine::builder(city_and_model().1).config(cfg).build().err()
}

#[test]
fn a_session_cap_of_zero_is_rejected() {
    assert_eq!(
        build_error(0),
        Some(ServeError::InvalidConfig("max_sessions_per_shard must be >= 1"))
    );
}

#[test]
fn a_session_cap_past_a_u32_slot_index_is_rejected() {
    assert_eq!(build_error(u32::MAX as usize), None, "the largest addressable cap builds");
    assert_eq!(
        build_error(u32::MAX as usize + 1),
        Some(ServeError::InvalidConfig("max_sessions_per_shard must be <= u32::MAX"))
    );
}

#[test]
fn a_trip_evicted_and_restarted_inside_one_drain_scores_only_its_new_segment() {
    let (city, model) = city_and_model();
    let t = city.data.train.iter().find(|t| t.len() >= 3).expect("a 3-segment trip");
    let (sd, slot) = (t.sd_pair(), t.time_slot);
    let start = |id| Event::TripStart { id, source: sd.source.0, dest: sd.dest.0, time_slot: slot };
    let seg = |id, i: usize| Event::Segment { id, seg: t.segments[i].0 };
    const A: u64 = 1;
    const B: u64 = 2;

    let outcomes: Arc<Mutex<Vec<TripOutcome>>> = Arc::default();
    let scores: Arc<Mutex<Vec<ScoreUpdate>>> = Arc::default();
    let (outcome_sink, score_sink) = (Arc::clone(&outcomes), Arc::clone(&scores));
    let cfg = FleetConfig { num_shards: 1, max_sessions_per_shard: 1, ..FleetConfig::default() };
    let engine = FleetEngine::builder(Arc::clone(&model))
        .config(cfg)
        .on_complete(move |outcome| outcome_sink.lock().unwrap().push(outcome))
        .on_score(move |update| score_sink.lock().unwrap().push(*update))
        .build()
        .expect("scaled model");
    // One chunk, so one drain: B's start evicts A with two segments
    // queued, A's second start evicts B, and only A' is left to score.
    let cohort = vec![
        start(A),
        seg(A, 0),
        seg(A, 1),
        start(B),
        start(A),
        seg(A, 2),
        Event::TripEnd { id: A },
    ];
    engine.submit_all(cohort).expect("engine live");
    engine.flush().expect("shard live");
    engine.shutdown();

    let outcomes = outcomes.lock().unwrap();
    let seen: Vec<_> = outcomes.iter().map(|o| (o.id, o.completion, o.segments)).collect();
    assert_eq!(
        seen,
        [(A, Completion::EvictedLru, 0), (B, Completion::EvictedLru, 0), (A, Completion::Ended, 1)]
    );

    let mut fresh = model.online(sd.source.0, sd.dest.0, slot);
    let want = fresh.push(t.segments[2].0);
    let scores = scores.lock().unwrap();
    let seen: Vec<_> = scores.iter().map(|s| (s.id, s.seq, s.segment, s.score.to_bits())).collect();
    assert_eq!(seen, [(A, 0, t.segments[2].0, want.to_bits())]);
}
