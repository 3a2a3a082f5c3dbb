//! Integration tests for the fleet engine: batched fleet scoring must be
//! numerically indistinguishable from running each trip through its own
//! sequential `OnlineScorer`, and the lifecycle features (completion
//! delivery, rejects, TTL eviction) must hold under interleaving.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use causaltad::{CausalTad, CausalTadConfig};
use tad_serve::{Completion, Event, FleetConfig, FleetEngine, TripOutcome};
use tad_trajsim::{generate_city, City, CityConfig, Trajectory};

/// One trained model shared by every test in this file (training in debug
/// mode is expensive).
fn trained() -> &'static (City, Arc<CausalTad>) {
    static SHARED: OnceLock<(City, Arc<CausalTad>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let city = generate_city(&CityConfig::test_scale(77));
        let cfg = CausalTadConfig { epochs: 2, ..CausalTadConfig::test_scale() };
        let mut model = CausalTad::new(&city.net, cfg);
        model.fit(&city.data.train);
        (city, Arc::new(model))
    })
}

fn sequential_score(model: &CausalTad, t: &Trajectory) -> f64 {
    let sd = t.sd_pair();
    let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
    let mut last = f64::NAN;
    for &seg in &t.segments {
        last = scorer.push(seg.0);
    }
    last
}

/// Round-robin interleaving of complete trip streams.
fn interleave(trips: &[&Trajectory]) -> Vec<Event> {
    let mut events = Vec::new();
    for (i, t) in trips.iter().enumerate() {
        let sd = t.sd_pair();
        events.push(Event::TripStart {
            id: i as u64,
            source: sd.source.0,
            dest: sd.dest.0,
            time_slot: t.time_slot,
        });
    }
    let longest = trips.iter().map(|t| t.len()).max().unwrap_or(0);
    for step in 0..longest {
        for (i, t) in trips.iter().enumerate() {
            if let Some(seg) = t.segments.get(step) {
                events.push(Event::Segment { id: i as u64, seg: seg.0 });
            }
            if step + 1 == t.len() {
                events.push(Event::TripEnd { id: i as u64 });
            }
        }
    }
    events
}

fn collecting_engine(
    model: Arc<CausalTad>,
    cfg: FleetConfig,
) -> (FleetEngine, Arc<Mutex<HashMap<u64, TripOutcome>>>) {
    let outcomes: Arc<Mutex<HashMap<u64, TripOutcome>>> = Arc::default();
    let sink = Arc::clone(&outcomes);
    let engine = FleetEngine::builder(model)
        .config(cfg)
        .on_complete(move |outcome| {
            sink.lock().unwrap().insert(outcome.id, outcome);
        })
        .build()
        .expect("trained model");
    (engine, outcomes)
}

#[test]
fn interleaved_fleet_scores_match_sequential_scorers() {
    let (city, model) = trained();
    let model = Arc::clone(model);
    let trips: Vec<&Trajectory> =
        city.data.test_id.iter().chain(city.data.detour.iter()).take(24).collect();
    let (engine, outcomes) = collecting_engine(
        Arc::clone(&model),
        FleetConfig { num_shards: 3, max_batch: 64, ..FleetConfig::default() },
    );
    for ev in interleave(&trips) {
        engine.submit(ev).expect("engine is live");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.trips_started, trips.len() as u64);
    assert_eq!(stats.trips_completed, trips.len() as u64);
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.rejected, 0);

    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), trips.len());
    for (i, t) in trips.iter().enumerate() {
        let outcome = &outcomes[&(i as u64)];
        assert_eq!(outcome.completion, Completion::Ended);
        assert_eq!(outcome.segments, t.len());
        let reference = sequential_score(&model, t);
        assert!(
            (outcome.score - reference).abs() < 1e-6,
            "trip {i}: fleet {} vs sequential {reference}",
            outcome.score
        );
    }
}

#[test]
fn bad_requests_are_rejected_not_fatal() {
    let (_city, model) = trained();
    let model = Arc::clone(model);
    let vocab = model.vocab() as u32;
    let (engine, outcomes) = collecting_engine(Arc::clone(&model), FleetConfig::default());

    // Off-network SD pair, segment for an unknown trip, out-of-vocab
    // segment, duplicate start, end of unknown trip.
    engine.submit(Event::TripStart { id: 1, source: vocab + 1, dest: 0, time_slot: 0 }).unwrap();
    engine.submit(Event::Segment { id: 99, seg: 0 }).unwrap();
    engine.submit(Event::TripStart { id: 2, source: 0, dest: 1, time_slot: 0 }).unwrap();
    engine.submit(Event::Segment { id: 2, seg: vocab + 5 }).unwrap();
    engine.submit(Event::TripStart { id: 2, source: 0, dest: 1, time_slot: 0 }).unwrap();
    engine.submit(Event::TripEnd { id: 42 }).unwrap();
    engine.submit(Event::Segment { id: 2, seg: 0 }).unwrap();
    engine.submit(Event::TripEnd { id: 2 }).unwrap();

    let stats = engine.shutdown();
    assert_eq!(stats.rejected, 5);
    assert_eq!(stats.trips_started, 1);
    assert_eq!(stats.trips_completed, 1);
    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[&2].segments, 1);
}

#[test]
fn silent_trips_are_ttl_evicted() {
    let (city, model) = trained();
    let model = Arc::clone(model);
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let cfg = FleetConfig {
        num_shards: 1,
        session_ttl: Duration::from_millis(30),
        ..FleetConfig::default()
    };
    let (engine, outcomes) = collecting_engine(Arc::clone(&model), cfg);
    engine
        .submit(Event::TripStart { id: 5, source: sd.source.0, dest: sd.dest.0, time_slot: 0 })
        .unwrap();
    engine.submit(Event::Segment { id: 5, seg: t.segments[0].0 }).unwrap();

    // Wait past the TTL plus a sweep interval; the trip never ends.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        {
            let outcomes = outcomes.lock().unwrap();
            if let Some(outcome) = outcomes.get(&5) {
                assert_eq!(outcome.completion, Completion::EvictedTtl);
                assert_eq!(outcome.segments, 1);
                break;
            }
        }
        assert!(std::time::Instant::now() < deadline, "TTL eviction never happened");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = engine.shutdown();
    assert_eq!(stats.evictions_ttl, 1);
    assert_eq!(stats.active_sessions, 0);
}

#[test]
fn shutdown_flushes_live_sessions() {
    let (city, model) = trained();
    let model = Arc::clone(model);
    let t = &city.data.test_id[1];
    let sd = t.sd_pair();
    let (engine, outcomes) = collecting_engine(Arc::clone(&model), FleetConfig::default());
    engine
        .submit(Event::TripStart { id: 9, source: sd.source.0, dest: sd.dest.0, time_slot: 0 })
        .unwrap();
    for &seg in &t.segments {
        engine.submit(Event::Segment { id: 9, seg: seg.0 }).unwrap();
    }
    // No TripEnd: shutdown must still deliver the partial trip.
    engine.shutdown();
    let outcomes = outcomes.lock().unwrap();
    let outcome = &outcomes[&9];
    assert_eq!(outcome.completion, Completion::Shutdown);
    assert_eq!(outcome.segments, t.len());
    assert!((outcome.score - sequential_score(&model, t)).abs() < 1e-6);
}

#[test]
fn live_snapshot_is_nonintrusive_and_restores_across_shard_counts() {
    let (city, model) = trained();
    let model = Arc::clone(model);
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(8).collect();
    let events = interleave(&trips);
    // Split after every trip has started and consumed roughly half its
    // segments.
    let split = trips.len() + (events.len() - trips.len()) / 2;

    let (engine, outcomes) = collecting_engine(
        Arc::clone(&model),
        FleetConfig { num_shards: 2, max_batch: 32, ..FleetConfig::default() },
    );
    for ev in &events[..split] {
        engine.submit(*ev).expect("engine is live");
    }
    let image = engine.snapshot().expect("all shards live");
    assert_eq!(image.num_shards, 2);
    // Trips short enough to have ended before the split are complete, not
    // captured; everything else must be in the image.
    let live_ids: std::collections::HashSet<u64> =
        image.sessions.iter().map(|rec| rec.id).collect();
    let live = image.sessions.len();
    assert!(live > 0 && live <= trips.len(), "unexpected live-session count {live}");

    // The capture must not disturb the donor engine: finish the stream on
    // it and check every score against the sequential reference.
    for ev in &events[split..] {
        engine.submit(*ev).expect("engine is live");
    }
    engine.shutdown();
    {
        let outcomes = outcomes.lock().unwrap();
        for (i, t) in trips.iter().enumerate() {
            let outcome = &outcomes[&(i as u64)];
            assert_eq!(outcome.completion, Completion::Ended);
            let reference = sequential_score(&model, t);
            assert!(
                (outcome.score - reference).abs() < 1e-6,
                "donor trip {i}: {} vs {reference}",
                outcome.score
            );
        }
    }

    // Restoring onto a different shard count replays the tail of the
    // stream to the same final scores.
    let restored_outcomes: Arc<Mutex<HashMap<u64, TripOutcome>>> = Arc::default();
    let sink = Arc::clone(&restored_outcomes);
    let restored = FleetEngine::restore(Arc::clone(&model), image)
        .config(FleetConfig { num_shards: 3, ..FleetConfig::default() })
        .on_complete(move |outcome| {
            sink.lock().unwrap().insert(outcome.id, outcome);
        })
        .build()
        .expect("snapshot fits the model");
    for ev in &events[split..] {
        restored.submit(*ev).expect("engine is live");
    }
    let stats = restored.shutdown();
    assert_eq!(stats.sessions_restored, live as u64);
    assert_eq!(stats.active_sessions, 0);
    let restored_outcomes = restored_outcomes.lock().unwrap();
    assert_eq!(restored_outcomes.len(), live);
    for (i, t) in trips.iter().enumerate() {
        if !live_ids.contains(&(i as u64)) {
            continue; // ended on the donor before the capture
        }
        let outcome = &restored_outcomes[&(i as u64)];
        assert_eq!(outcome.completion, Completion::Ended, "trip {i}");
        assert_eq!(outcome.segments, t.len());
        let reference = sequential_score(&model, t);
        assert!(
            (outcome.score - reference).abs() < 1e-6,
            "restored trip {i}: {} vs {reference}",
            outcome.score
        );
    }
}

#[test]
fn snapshot_that_does_not_fit_the_model_is_refused() {
    let (_city, model) = trained();
    let model = Arc::clone(model);
    use causaltad::ScorerState;
    use tad_serve::{FleetImage, ServeError, SessionRecord};
    let alien = SessionRecord {
        id: 7,
        // Three hidden units can never match a real model's hidden_dim.
        state: ScorerState::from_parts(vec![0.0, 1.0, 2.0], 0.0, 0.0, 0.0, None, 0, 0),
        pending: Vec::new(),
        ending: false,
        idle_micros: 0,
    };
    let image = FleetImage { num_shards: 1, sessions: vec![alien] };
    let err = FleetEngine::restore(model, image).build().err();
    assert_eq!(err, Some(ServeError::SnapshotMismatch { trip: 7, what: "hidden width" }));
}

#[test]
fn untrained_model_is_refused_at_build_time() {
    let city = generate_city(&CityConfig::test_scale(78));
    let model = Arc::new(CausalTad::new(&city.net, CausalTadConfig::test_scale()));
    let err = FleetEngine::builder(model).build().err();
    assert_eq!(err, Some(tad_serve::ServeError::ModelNotReady));
}

/// A checksum-valid `TADC` blob may claim any segment count. One claiming
/// `u32::MAX` is restored, scores a pending segment on restore and a
/// submitted one in a wave, and ends — the count saturates instead of
/// overflowing, and the scores are the honest session's, bit for bit.
#[test]
fn a_restored_session_claiming_u32_max_segments_scores_without_panicking_a_shard() {
    use causaltad::{state_from_bytes, state_to_bytes, OnlineScorer};
    use tad_codec::{envelope_payload, seal_envelope};
    use tad_serve::{FleetImage, ScoreUpdate, SessionRecord};

    let (city, model) = trained();
    let model = Arc::clone(model);
    let t = city.data.test_id.iter().find(|t| t.len() >= 3).expect("a trip of 3 segments");
    let segs: Vec<u32> = t.segments[..3].iter().map(|s| s.0).collect();
    let sd = t.sd_pair();
    let mut honest = OnlineScorer::from_state(
        &model,
        model.start_state(sd.source.0, sd.dest.0, t.time_slot).expect("in vocabulary"),
    );
    honest.push(segs[0]);

    // The count is the payload's last field: rewrite it and re-seal.
    let blob = state_to_bytes(honest.state());
    let mut payload = envelope_payload(b"TADC", 3, &blob).expect("a v3 blob").to_vec();
    let at = payload.len() - 4;
    payload[at..].copy_from_slice(&u32::MAX.to_le_bytes());
    let hostile = state_from_bytes(seal_envelope(b"TADC", 3, payload.into())).expect("valid");
    assert_eq!(hostile.len(), u32::MAX as usize);

    let record = SessionRecord {
        id: 5,
        state: hostile,
        pending: vec![segs[1]],
        ending: false,
        idle_micros: 0,
    };
    let image = FleetImage { num_shards: 1, sessions: vec![record] };
    let scores: Arc<Mutex<Vec<ScoreUpdate>>> = Arc::default();
    let outcomes: Arc<Mutex<Vec<TripOutcome>>> = Arc::default();
    let (score_sink, outcome_sink) = (Arc::clone(&scores), Arc::clone(&outcomes));
    let engine = FleetEngine::restore(Arc::clone(&model), image)
        .config(FleetConfig { num_shards: 1, ..FleetConfig::default() })
        .on_score(move |u| score_sink.lock().unwrap().push(*u))
        .on_complete(move |o| outcome_sink.lock().unwrap().push(o))
        .build()
        .expect("the image fits the model");
    engine.submit(Event::Segment { id: 5, seg: segs[2] }).expect("engine is live");
    engine.submit(Event::TripEnd { id: 5 }).expect("engine is live");
    let stats = engine.shutdown();
    assert_eq!((stats.segments_scored, stats.trips_completed), (2, 1));

    let reference: Vec<f64> = segs[1..].iter().map(|&s| honest.push(s)).collect();
    let scores = scores.lock().unwrap();
    assert_eq!(scores.len(), 2);
    for (u, (&seg, want)) in scores.iter().zip(segs[1..].iter().zip(&reference)) {
        assert_eq!((u.id, u.seq, u.segment), (5, u32::MAX - 1, seg));
        assert_eq!(u.score.to_bits(), want.to_bits());
    }
    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].completion, Completion::Ended);
    assert_eq!(outcomes[0].segments, u32::MAX as usize);
    assert_eq!(outcomes[0].score.to_bits(), reference[1].to_bits());
}
