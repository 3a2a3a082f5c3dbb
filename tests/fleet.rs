//! Umbrella-level integration: the fleet engine re-exported through
//! `causaltad_suite::serve` scores interleaved trips identically to the
//! sequential `OnlineScorer`, the fallible `start_state` entry rejects
//! bad requests without panicking, and a trip scored across a
//! snapshot/restore boundary produces the same final score as one scored
//! in a single uninterrupted engine.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use causaltad_suite::core::{CausalTad, CausalTadConfig, OnlineError};
use causaltad_suite::serve::{
    image_from_bytes, image_to_bytes, Completion, Event, FleetConfig, FleetEngine,
};
use causaltad_suite::trajsim::{generate_city, City, CityConfig, Trajectory};

/// One trained model shared by every test in this file (training in debug
/// mode is expensive).
fn trained() -> &'static (City, Arc<CausalTad>) {
    static SHARED: OnceLock<(City, Arc<CausalTad>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let city = generate_city(&CityConfig::test_scale(321));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 1;
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

/// Round-robin interleaving of complete trip streams: all starts first,
/// then one segment per live trip per step, each trip's end right after
/// its last segment.
fn interleave(trips: &[&Trajectory]) -> Vec<Event> {
    let mut events = Vec::new();
    for (id, t) in trips.iter().enumerate() {
        let sd = t.sd_pair();
        events.push(Event::TripStart {
            id: id as u64,
            source: sd.source.0,
            dest: sd.dest.0,
            time_slot: t.time_slot,
        });
    }
    let longest = trips.iter().map(|t| t.len()).max().unwrap_or(0);
    for step in 0..longest {
        for (id, t) in trips.iter().enumerate() {
            if let Some(seg) = t.segments.get(step) {
                events.push(Event::Segment { id: id as u64, seg: seg.0 });
            }
            if step + 1 == t.len() {
                events.push(Event::TripEnd { id: id as u64 });
            }
        }
    }
    events
}

#[test]
fn umbrella_fleet_matches_sequential_and_rejects_bad_requests() {
    let (city, model) = trained();
    let model = Arc::clone(model);

    // Bad requests come back as errors, not panics.
    let vocab = model.vocab() as u32;
    assert!(matches!(
        model.start_state(vocab + 1, 0, 0),
        Err(OnlineError::SegmentOutOfRange { .. })
    ));
    assert!(model.start_state(0, 1, 0).is_ok());

    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let outcomes: Arc<Mutex<HashMap<u64, (f64, Completion)>>> = Arc::default();
    let sink = Arc::clone(&outcomes);
    let engine = FleetEngine::builder(Arc::clone(&model))
        .config(FleetConfig { num_shards: 2, ..FleetConfig::default() })
        .on_complete(move |o| {
            sink.lock().unwrap().insert(o.id, (o.score, o.completion));
        })
        .build()
        .expect("trained model");

    for ev in interleave(&trips) {
        engine.submit(ev).unwrap();
    }
    let stats = engine.shutdown();
    assert_eq!(stats.trips_completed, trips.len() as u64);

    let outcomes = outcomes.lock().unwrap();
    for (id, t) in trips.iter().enumerate() {
        let reference = sequential_score(&model, t);
        let (fleet_score, completion) = outcomes[&(id as u64)];
        assert_eq!(completion, Completion::Ended);
        assert!(
            (fleet_score - reference).abs() < 1e-6,
            "trip {id}: fleet {fleet_score} vs sequential {reference}"
        );
    }
}

/// The trip an event belongs to.
fn trip_of(ev: &Event) -> u64 {
    match *ev {
        Event::TripStart { id, .. } | Event::Segment { id, .. } | Event::TripEnd { id } => id,
    }
}

/// The cohort-submission contract behind the network tier's
/// cross-connection micro-batching: `try_submit_cohort` scores an
/// interleaved stream **bit-identically** to per-event `submit`, and when
/// a shard queue is saturated it bounces whole shard groups by index —
/// never a prefix — so each trip's events in a cohort are either all
/// accepted in order or all returned to the caller. Bounced events are
/// resubmitted (in their original relative order) until accepted, and the
/// end-to-end result must still match to the bit.
#[test]
fn cohort_submission_matches_per_event_ingest_and_bounces_whole_groups() {
    use causaltad_suite::serve::ScoreUpdate;

    let (city, model) = trained();
    let model = Arc::clone(model);
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(8).collect();
    let events = interleave(&trips);

    type Bits = Arc<Mutex<(HashMap<(u64, u32), u64>, HashMap<u64, (u64, usize)>)>>;
    let engine_with = |cfg: FleetConfig, sink: &Bits| {
        let scores = Arc::clone(sink);
        let finals = Arc::clone(sink);
        FleetEngine::builder(Arc::clone(&model))
            .config(cfg)
            .on_score(move |u: &ScoreUpdate| {
                scores.lock().unwrap().0.insert((u.id, u.seq), u.score.to_bits());
            })
            .on_complete(move |o| {
                if o.completion == Completion::Ended {
                    finals.lock().unwrap().1.insert(o.id, (o.score.to_bits(), o.segments));
                }
            })
            .build()
            .expect("trained model")
    };

    let reference: Bits = Arc::default();
    let engine = engine_with(FleetConfig { num_shards: 2, ..FleetConfig::default() }, &reference);
    for &ev in &events {
        engine.submit(ev).unwrap();
    }
    engine.shutdown();

    // Capacity-1 shard queues: back-to-back cohorts saturate them while
    // the workers are mid-batch, forcing real `full` bounces.
    let cohorted: Bits = Arc::default();
    let cfg =
        FleetConfig { num_shards: 2, queue_capacity: 1, max_batch: 8, ..FleetConfig::default() };
    let engine = engine_with(cfg, &cohorted);
    let mut feed = events.iter().copied();
    let mut carry: Vec<Event> = Vec::new();
    let mut bounced_cohorts = 0u64;
    let mut spins = 0u64;
    loop {
        let mut cohort = carry;
        carry = Vec::new();
        while cohort.len() < 7 {
            let Some(ev) = feed.next() else { break };
            cohort.push(ev);
        }
        if cohort.is_empty() {
            break;
        }
        let outcome = engine.try_submit_cohort(cohort.clone());
        assert!(outcome.closed.is_empty(), "live engine reported closed shards");
        let full: std::collections::HashSet<usize> = outcome.full.iter().copied().collect();
        assert_eq!(outcome.accepted as usize + full.len(), cohort.len(), "events went missing");
        // The whole-group contract, observed through trip routing: a trip
        // never splits between accepted and bounced within one cohort.
        for (i, a) in cohort.iter().enumerate() {
            for (j, b) in cohort.iter().enumerate() {
                if trip_of(a) == trip_of(b) {
                    assert_eq!(
                        full.contains(&i),
                        full.contains(&j),
                        "trip {} split across a bounce",
                        trip_of(a)
                    );
                }
            }
        }
        if !full.is_empty() {
            bounced_cohorts += 1;
            let mut indexes = outcome.full;
            indexes.sort_unstable(); // original relative order
            carry = indexes.into_iter().map(|i| cohort[i]).collect();
            spins += 1;
            assert!(spins < 10_000_000, "bounced cohort never drained");
        }
    }
    engine.shutdown();
    assert!(bounced_cohorts > 0, "capacity-1 queues never bounced a cohort");

    let reference = reference.lock().unwrap();
    let cohorted = cohorted.lock().unwrap();
    assert_eq!(cohorted.0, reference.0, "per-segment score bits diverged");
    assert_eq!(cohorted.1, reference.1, "final score bits diverged");
}

/// The warm-restart acceptance test: stream interleaved trips into an
/// engine, capture a fleet snapshot mid-flight, kill the engine, restore
/// the snapshot **through its serialized bytes** into a fresh engine with
/// a different shard count, finish the stream there, and require every
/// final score to match an uninterrupted sequential run.
#[test]
fn trip_scored_across_snapshot_restore_boundary_matches_uninterrupted_run() {
    let (city, model) = trained();
    let model = Arc::clone(model);
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(10).collect();
    let events = interleave(&trips);
    // Cut after all starts plus roughly 40% of the remaining traffic, so
    // the capture happens genuinely mid-trip for most sessions.
    let split = trips.len() + (events.len() - trips.len()) * 2 / 5;

    type FinalScores = Arc<Mutex<HashMap<u64, (f64, usize, Completion)>>>;
    let outcomes: FinalScores = Arc::default();
    let record = |sink: &FinalScores| {
        let sink = Arc::clone(sink);
        move |o: causaltad_suite::serve::TripOutcome| {
            // Shutdown flushes of the donor engine are not final results;
            // keep only genuine completions.
            if o.completion == Completion::Ended {
                sink.lock().unwrap().insert(o.id, (o.score, o.segments, o.completion));
            }
        }
    };

    let donor = FleetEngine::builder(Arc::clone(&model))
        .config(FleetConfig { num_shards: 2, max_batch: 32, ..FleetConfig::default() })
        .on_complete(record(&outcomes))
        .build()
        .expect("trained model");
    for ev in &events[..split] {
        donor.submit(*ev).unwrap();
    }
    let blob = donor.snapshot_bytes().expect("all shards live");
    donor.shutdown(); // the "crash": live sessions on the donor are gone

    let image = image_from_bytes(blob.clone()).expect("snapshot decodes");
    // The persisted artifact is stable: re-encoding reproduces it.
    assert_eq!(image_to_bytes(&image).to_vec(), blob.to_vec());
    let live: Vec<u64> = image.sessions.iter().map(|rec| rec.id).collect();
    assert!(!live.is_empty(), "capture point should leave sessions in flight");

    let restored = FleetEngine::restore(Arc::clone(&model), image)
        .config(FleetConfig { num_shards: 3, max_batch: 32, ..FleetConfig::default() })
        .on_complete(record(&outcomes))
        .build()
        .expect("snapshot fits the model");
    for ev in &events[split..] {
        restored.submit(*ev).unwrap();
    }
    let stats = restored.shutdown();
    assert_eq!(stats.sessions_restored, live.len() as u64);
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.rejected, 0);

    // Between the donor (trips ended pre-capture) and the restored engine
    // (everything else), every trip must have exactly one final score —
    // equal to the uninterrupted sequential reference.
    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), trips.len());
    for (id, t) in trips.iter().enumerate() {
        let reference = sequential_score(&model, t);
        let (score, segments, completion) = outcomes[&(id as u64)];
        assert_eq!(completion, Completion::Ended, "trip {id}");
        assert_eq!(segments, t.len(), "trip {id}");
        assert!(
            (score - reference).abs() < 1e-6,
            "trip {id}: across-restart {score} vs uninterrupted {reference}"
        );
    }
}

/// The incremental-snapshot acceptance test: a checkpoint plus the `TADD`
/// delta chain folded over it restores a fleet **bit-identically** to a
/// full image captured at the same quiesce point. Two engines are
/// restored from the two artifacts and fed the identical remaining
/// stream; every final score must match to the bit (and the sequential
/// reference to 1e-6).
#[test]
fn delta_chain_restore_matches_full_snapshot_restore_bit_exactly() {
    use causaltad_suite::serve::{delta_from_bytes, DeltaBase};

    let (city, model) = trained();
    let model = Arc::clone(model);
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(10).collect();
    let events = interleave(&trips);
    let tail = events.len() - trips.len();
    // Three capture points mid-stream: checkpoint, then two deltas.
    let (a, b, c) = (trips.len() + tail / 5, trips.len() + tail / 2, trips.len() + tail * 4 / 5);

    type FinalScores = Arc<Mutex<HashMap<u64, (u64, usize)>>>;
    let record = |sink: &FinalScores| {
        let sink = Arc::clone(sink);
        move |o: causaltad_suite::serve::TripOutcome| {
            if o.completion == Completion::Ended {
                sink.lock().unwrap().insert(o.id, (o.score.to_bits(), o.segments));
            }
        }
    };

    let donor_finals: FinalScores = Arc::default();
    let donor = FleetEngine::builder(Arc::clone(&model))
        .config(FleetConfig { num_shards: 2, ..FleetConfig::default() })
        .on_complete(record(&donor_finals))
        .build()
        .expect("trained model");
    for ev in &events[..a] {
        donor.submit(*ev).unwrap();
    }
    let (base_image, epoch) = donor.checkpoint().expect("checkpoint arms the chain");
    for ev in &events[a..b] {
        donor.submit(*ev).unwrap();
    }
    let d1 = donor.delta_bytes().expect("first delta");
    for ev in &events[b..c] {
        donor.submit(*ev).unwrap();
    }
    let d2 = donor.delta_bytes().expect("second delta");
    // Same quiesce point, captured the expensive way: a full image.
    let full = donor.snapshot().expect("full capture at the same cut");
    donor.shutdown();

    // Fold the chain through its serialized `TADD` form — the blobs a
    // durable log would replay.
    let mut base = DeltaBase::new(base_image, epoch);
    for blob in [d1, d2] {
        let delta = delta_from_bytes(blob).expect("TADD decodes");
        assert!(delta.sessions.len() < full.sessions.len() + trips.len());
        base.apply(&delta).expect("chain applies in order");
    }
    assert_eq!(base.applied(), 2);
    let folded = base.into_image();
    assert!(!folded.sessions.is_empty(), "cut point leaves sessions live");

    // Restore both artifacts and finish the identical stream on each.
    let mut finals: Vec<HashMap<u64, (u64, usize)>> = Vec::new();
    for image in [folded, full] {
        let sink: FinalScores = Arc::default();
        let restored = FleetEngine::restore(Arc::clone(&model), image)
            .config(FleetConfig { num_shards: 2, ..FleetConfig::default() })
            .on_complete(record(&sink))
            .build()
            .expect("restore");
        for ev in &events[c..] {
            restored.submit(*ev).unwrap();
        }
        let stats = restored.shutdown();
        assert_eq!(stats.rejected, 0);
        finals.push(Arc::try_unwrap(sink).unwrap().into_inner().unwrap());
    }
    let (chain_finals, full_finals) = (&finals[0], &finals[1]);
    assert_eq!(chain_finals, full_finals, "delta-chain restore diverged from full restore");

    // And the union with the donor's pre-capture completions covers every
    // trip, matching the uninterrupted sequential reference.
    let donor_finals = donor_finals.lock().unwrap();
    for (id, t) in trips.iter().enumerate() {
        let id = id as u64;
        let (bits, segments) =
            *chain_finals.get(&id).or_else(|| donor_finals.get(&id)).expect("every trip ends");
        assert_eq!(segments, t.len(), "trip {id}");
        let reference = sequential_score(&model, t);
        assert!(
            (f64::from_bits(bits) - reference).abs() < 1e-6,
            "trip {id}: chained {0} vs sequential {reference}",
            f64::from_bits(bits)
        );
    }
}
