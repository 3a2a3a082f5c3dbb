//! Fleet admission control on the engine itself. The queue-depth arm
//! ([`FleetConfig::admission_queue_watermark`]): while the
//! `serve.ingest_inflight` gauge is at or above the watermark, new
//! `TripStart`s are shed and events of already-admitted trips keep scoring.
//! The session arm ([`FleetConfig::admission_session_watermark`]) on the
//! bulk path: `submit_all` sheds a chunk's new trips like a cohort does.
//!
//! Sleep-free: an `on_score` callback parked on a channel holds the single
//! shard mid-wave, so what is submitted meanwhile stays queued (the gauge
//! drops when a batch is *drained*, not when it is scored) and every gauge
//! reading below is exact; the session count is exact after a `flush`.

use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, OnceLock};

use causaltad::{CausalTad, CausalTadConfig};
use tad_serve::{CohortOutcome, Event, FleetConfig, FleetEngine, SubmitError, TripId};
use tad_trajsim::{generate_city, City, CityConfig, Trajectory};

/// `(trip, seq, score bits)` of every score delivery, in delivery order.
type Scores = Arc<Mutex<Vec<(TripId, u32, u64)>>>;

/// One trained model for the binary, and a test trip of 5+ segments.
fn trained() -> (&'static Arc<CausalTad>, &'static Trajectory) {
    static SHARED: OnceLock<(City, Arc<CausalTad>)> = OnceLock::new();
    let (city, model) = SHARED.get_or_init(|| {
        let city = generate_city(&CityConfig::test_scale(91));
        let cfg = CausalTadConfig { epochs: 1, ..CausalTadConfig::test_scale() };
        let mut model = CausalTad::new(&city.net, cfg);
        model.fit(&city.data.train);
        (city, Arc::new(model))
    });
    let t = city.data.test_id.iter().find(|t| t.len() >= 5).expect("a trip of 5+ segments");
    (model, t)
}

#[test]
fn queue_watermark_sheds_new_trips_while_the_admitted_trip_keeps_scoring() {
    let (model, t) = trained();
    let sd = t.sd_pair();
    let start =
        |id| Event::TripStart { id, source: sd.source.0, dest: sd.dest.0, time_slot: t.time_slot };
    let seg = |id, i: usize| Event::Segment { id, seg: t.segments[i].0 };

    // What trip 1 scores on an engine nothing ever loads.
    let unloaded: Scores = Arc::default();
    let sink = Arc::clone(&unloaded);
    let engine = FleetEngine::builder(Arc::clone(model))
        .config(FleetConfig { num_shards: 1, ..FleetConfig::default() })
        .on_score(move |u| sink.lock().unwrap().push((u.id, u.seq, u.score.to_bits())))
        .build()
        .expect("trained model");
    engine.submit(start(1)).expect("engine is live");
    for i in 0..t.len() {
        engine.submit(seg(1, i)).expect("engine is live");
    }
    engine.flush().expect("shard live");
    engine.shutdown();

    // The loaded engine: trip 1's first score delivery parks the shard.
    let loaded: Scores = Arc::default();
    let sink = Arc::clone(&loaded);
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let engine = FleetEngine::builder(Arc::clone(model))
        .config(FleetConfig {
            num_shards: 1,
            admission_queue_watermark: 2,
            ..FleetConfig::default()
        })
        .on_score(move |u| {
            sink.lock().unwrap().push((u.id, u.seq, u.score.to_bits()));
            if u.seq == 0 {
                entered_tx.send(()).expect("test is waiting");
                release_rx.lock().unwrap().recv().expect("test releases the shard");
            }
        })
        .build()
        .expect("trained model");
    let inflight = || engine.metrics().gauge("serve.ingest_inflight");

    engine.submit(start(1)).expect("below the watermark");
    engine.submit(seg(1, 0)).expect("below the watermark");
    entered_rx.recv().expect("the shard reaches the first score");
    // Both events were drained before the wave that is now parked.
    assert_eq!(inflight(), Some(0));
    engine.submit(seg(1, 1)).expect("admitted trip");
    assert!(!engine.admission_overloaded(), "one queued event is below the watermark");
    engine.submit(seg(1, 2)).expect("admitted trip");
    assert_eq!(inflight(), Some(2));
    assert!(engine.admission_overloaded());

    // New trips are shed on every submit path and handed back...
    for refused in [engine.submit(start(2)), engine.try_submit(start(2))] {
        match refused {
            Err(SubmitError::Shed(ev)) => assert_eq!(ev, start(2)),
            other => panic!("expected Shed, got {other:?}"),
        }
    }
    // ...a cohort's new trip together with its same-cohort segment, while
    // the admitted trip's segment in that cohort passes.
    let outcome = engine.try_submit_cohort(vec![start(3), seg(3, 0), seg(1, 3)]);
    assert_eq!(outcome, CohortOutcome { accepted: 1, shed: vec![0, 1], ..Default::default() });
    for i in 4..t.len() {
        engine.submit(seg(1, i)).expect("admitted trip");
    }
    assert_eq!(inflight(), Some(t.len() as i64 - 1));

    release_tx.send(()).expect("the shard is parked");
    engine.flush().expect("shard live");
    assert_eq!(*loaded.lock().unwrap(), *unloaded.lock().unwrap(), "trip 1 scores bit for bit");
    assert_eq!(engine.metrics().counter("serve.admission_shed"), Some(4));
    // The backlog is gone, so new trips are admitted again.
    assert_eq!(inflight(), Some(0));
    engine.submit(start(2)).expect("below the watermark again");
    let stats = engine.shutdown();
    assert_eq!(stats.trips_started, 2);
}

/// `submit_all` applies the cohort's shed rule: above the session
/// watermark a chunk's new trip is handed back with its same-chunk
/// segment, while the admitted trip's segments in that chunk score.
#[test]
fn submit_all_sheds_new_trips_above_the_session_watermark() {
    let (model, t) = trained();
    let sd = t.sd_pair();
    let start =
        |id| Event::TripStart { id, source: sd.source.0, dest: sd.dest.0, time_slot: t.time_slot };
    let seg = |id, i: usize| Event::Segment { id, seg: t.segments[i].0 };
    let scores: Scores = Arc::default();
    let sink = Arc::clone(&scores);
    let engine = FleetEngine::builder(Arc::clone(model))
        .config(FleetConfig {
            num_shards: 2,
            admission_session_watermark: 1,
            ..FleetConfig::default()
        })
        .on_score(move |u| sink.lock().unwrap().push((u.id, u.seq, u.score.to_bits())))
        .build()
        .expect("trained model");

    engine.submit_all([start(1), seg(1, 0)]).expect("below the watermark");
    engine.flush().expect("shards live");
    assert!(engine.admission_overloaded(), "one live session is at the watermark");

    match engine.submit_all([start(2), seg(1, 1), seg(2, 0), seg(1, 2)]) {
        Err(SubmitError::ShedChunk(shed)) => assert_eq!(shed, [start(2), seg(2, 0)]),
        other => panic!("expected ShedChunk, got {other:?}"),
    }
    engine.flush().expect("shards live");
    let scored: Vec<(TripId, u32)> =
        scores.lock().unwrap().iter().map(|&(id, seq, _)| (id, seq)).collect();
    assert_eq!(scored, [(1, 0), (1, 1), (1, 2)], "only the admitted trip scored");
    assert_eq!(engine.metrics().counter("serve.admission_shed"), Some(2));
    let stats = engine.shutdown();
    assert_eq!((stats.trips_started, stats.events_ingested), (1, 4));
}
