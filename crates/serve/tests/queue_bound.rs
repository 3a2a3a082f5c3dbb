//! The shard queue's bound, exactly: `queue_capacity` counts queue
//! messages (an event, a chunk, a control message), a full queue bounces
//! `try_submit` / `try_submit_cohort` and blocks `submit`, order is FIFO
//! with control messages included, and a producer blocked on a full queue
//! is released with `Closed` when the shard worker dies.
//!
//! Sleep-free: a 1-shard engine is parked mid-wave by an `on_scores`
//! callback waiting on a channel the test holds, so whatever is submitted
//! meanwhile stays queued and every full/not-full reading is exact. The
//! only timed waits are a blocked `submit` that must *not* return within
//! 100 ms, and a bound on how long a released one may take.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use causaltad::{CausalTad, CausalTadConfig};
use tad_serve::{
    CohortOutcome, Event, FleetConfig, FleetEngine, SnapshotError, SubmitError, TripId,
};
use tad_trajsim::{generate_city, City, CityConfig, Trajectory};

/// A 1-shard engine over a shared model whose every `on_scores` call
/// records `(seq, segment)` of its scores, reports on `entered` and then
/// waits on the gate: a message there panics the shard thread, and
/// dropping the gate lets every wave through.
struct Parked {
    engine: Arc<FleetEngine>,
    scores: Arc<Mutex<Vec<(u32, u32)>>>,
    entered: Receiver<()>,
    gate: Sender<()>,
}

/// One scaled (untrained) model for the binary, and a test trip of 8+
/// segments.
fn model_and_trip() -> (&'static Arc<CausalTad>, &'static Trajectory) {
    static SHARED: OnceLock<(City, Arc<CausalTad>)> = OnceLock::new();
    let (city, model) = SHARED.get_or_init(|| {
        let city = generate_city(&CityConfig::test_scale(91));
        let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
        model.precompute_scaling();
        (city, Arc::new(model))
    });
    let t = city.data.test_id.iter().find(|t| t.len() >= 8).expect("a trip of 8+ segments");
    (model, t)
}

fn parked(queue_capacity: usize) -> Parked {
    let (model, _) = model_and_trip();
    let scores: Arc<Mutex<Vec<(u32, u32)>>> = Arc::default();
    let sink = Arc::clone(&scores);
    let (entered_tx, entered) = channel();
    let (gate, gate_rx) = channel();
    let gate_rx = Mutex::new(gate_rx);
    let engine = FleetEngine::builder(Arc::clone(model))
        .config(FleetConfig { num_shards: 1, queue_capacity, ..FleetConfig::default() })
        .on_scores(move |wave| {
            sink.lock().unwrap().extend(wave.iter().map(|u| (u.seq, u.segment)));
            let _ = entered_tx.send(());
            if gate_rx.lock().unwrap().recv().is_ok() {
                panic!("the test kills the shard");
            }
        })
        .build()
        .expect("scaled model");
    Parked { engine: Arc::new(engine), scores, entered, gate }
}

const TRIP: TripId = 1;

fn start() -> Event {
    let (_, t) = model_and_trip();
    let sd = t.sd_pair();
    Event::TripStart { id: TRIP, source: sd.source.0, dest: sd.dest.0, time_slot: t.time_slot }
}

fn seg_id(i: usize) -> u32 {
    model_and_trip().1.segments[i].0
}

fn seg(i: usize) -> Event {
    Event::Segment { id: TRIP, seg: seg_id(i) }
}

/// A `submit` running on a thread of its own.
struct Elsewhere {
    done: Receiver<Result<(), SubmitError>>,
    thread: JoinHandle<()>,
}

impl Elsewhere {
    fn submit(engine: &Arc<FleetEngine>, ev: Event) -> Self {
        let engine = Arc::clone(engine);
        let (done_tx, done) = channel();
        let thread = std::thread::spawn(move || {
            done_tx.send(engine.submit(ev)).expect("the test is waiting");
        });
        Elsewhere { done, thread }
    }

    /// Asserts the submit has not returned within 100 ms.
    fn assert_blocked(&self) {
        let early = self.done.recv_timeout(Duration::from_millis(100));
        assert!(
            matches!(early, Err(RecvTimeoutError::Timeout)),
            "submit returned while the queue was full: {early:?}"
        );
    }

    /// The submit's outcome, once it returns. A submit that never does
    /// fails the test instead of hanging it: the thread is joined only
    /// after it has answered.
    fn outcome(self) -> Result<(), SubmitError> {
        let outcome = match self.done.recv_timeout(Duration::from_secs(60)) {
            Ok(outcome) => outcome,
            Err(e) => panic!("the blocked submit was never released: {e:?}"),
        };
        self.thread.join().expect("the submitting thread");
        outcome
    }
}

#[test]
fn a_full_queue_bounces_try_submits_blocks_submit_and_keeps_fifo_order() {
    let Parked { engine, scores, entered, gate } = parked(3);

    // The first wave parks the shard, which took the chunk: the queue is
    // empty again.
    engine.submit_all([start(), seg(0)]).expect("engine is live");
    entered.recv().expect("the shard reaches the first wave");

    // Exactly three messages fit, a two-event chunk counting as one...
    engine.try_submit(seg(1)).expect("1st message");
    let chunk = engine.try_submit_cohort(vec![seg(2), seg(3)]);
    assert_eq!(chunk, CohortOutcome { accepted: 2, ..CohortOutcome::default() });
    engine.try_submit(seg(4)).expect("3rd message");

    // ...and the fourth is handed back: an event as `Full`, a cohort as
    // its whole group.
    match engine.try_submit(seg(5)) {
        Err(SubmitError::Full(ev)) => assert_eq!(ev, seg(5)),
        other => panic!("expected Full, got {other:?}"),
    }
    let bounced = engine.try_submit_cohort(vec![seg(5), seg(6)]);
    assert_eq!(bounced, CohortOutcome { full: vec![0, 1], ..CohortOutcome::default() });
    assert_eq!(engine.stats().events_ingested, 6);

    // A blocking submit waits while the shard is parked...
    let blocked = Elsewhere::submit(&engine, seg(5));
    blocked.assert_blocked();
    assert_eq!(engine.stats().events_ingested, 6);

    // ...and enters the queue once the shard drains it.
    drop(gate);
    let outcome = blocked.outcome();
    assert!(outcome.is_ok(), "submit after the release: {outcome:?}");
    engine.submit(seg(6)).expect("engine is live");

    // A flush issued after the events returns once all of them are
    // scored, and they were scored in submission order.
    engine.flush().expect("shard live");
    let want: Vec<(u32, u32)> = (0..7).map(|i| (i as u32, seg_id(i))).collect();
    assert_eq!(*scores.lock().unwrap(), want);
}

#[test]
fn a_producer_blocked_on_a_full_queue_gets_closed_when_the_worker_dies() {
    let Parked { engine, entered, gate, .. } = parked(1);

    engine.submit_all([start(), seg(0)]).expect("engine is live");
    entered.recv().expect("the shard reaches the first wave");
    engine.try_submit(seg(1)).expect("the one place");
    assert!(matches!(engine.try_submit(seg(2)), Err(SubmitError::Full(_))));

    let blocked = Elsewhere::submit(&engine, seg(2));
    blocked.assert_blocked();

    // The shard panics mid-wave; nothing will ever drain the queue again.
    gate.send(()).expect("the shard is parked");
    match blocked.outcome() {
        Err(SubmitError::Closed(ev)) => assert_eq!(ev, seg(2)),
        other => panic!("expected Closed, got {other:?}"),
    }

    // Every later path sees the dead shard, full queue or not.
    assert!(matches!(engine.try_submit(seg(3)), Err(SubmitError::Closed(_))));
    assert!(matches!(engine.submit(seg(3)), Err(SubmitError::Closed(_))));
    assert_eq!(engine.try_submit_cohort(vec![seg(3)]).closed, vec![0]);
    assert_eq!(engine.flush(), Err(SnapshotError::ShardUnavailable { shard: 0 }));
}
