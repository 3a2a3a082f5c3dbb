//! The reply path in bytes, on scripted I/O (one thread, exact schedules,
//! no sockets, no sleeps): a response is encoded once, by whoever pushes
//! it, and what the producer's socket sees is those bytes, in push order,
//! under every accounting rule the struct queue kept — `response_queue`
//! bounds frames and drops exactly the overflow, `frames_out` counts a
//! frame when it is handed to the transport, a short write resumes on the
//! exact byte. The router half: a `Score` frame is relayed as the bytes it
//! arrived in once its envelope verifies, a corrupted one relays nothing,
//! and the failover replay filter works on relayed bytes as it did on
//! decoded structs.

// Half of the shared harness serves the socket batteries only.
#[allow(dead_code)]
mod common;

use std::sync::Arc;

use bytes::BytesMut;
use causaltad_suite::net::{
    request_to_bytes, response_into, response_to_bytes, ErrorCode, EventLoop, FrontCounters,
    FrontDoor, FrontShared, IngestCore, NetConfig, Request, Response, TripComplete,
};
use causaltad_suite::router::{backend_for, RouterConfig, RouterLoop};
use causaltad_suite::serve::{
    image_to_bytes, Completion, FleetConfig, FleetEngine, FleetImage, FleetSnapshot, PolicyAction,
    ScoreUpdate,
};
use causaltad_suite::trajsim::Trajectory;
use common::script::{
    parse_written, scripted_conn, ScriptedHandle, ScriptedIo, ScriptedSource, Tick,
};
use common::{interleave, trained, trip_of};

type ScriptedDoor = FrontDoor<ScriptedSource, ScriptedIo>;

fn score(id: u64, seq: u32) -> Response {
    Response::Score(ScoreUpdate {
        id,
        seq,
        segment: 40 + seq,
        score: id as f64 + 0.5,
        nll: 0.25 * seq as f64,
        log_scale: -0.125,
    })
}

/// What a shard hands the front door for one wave and one connection: the
/// frames of `responses` back to back, in room sized to them.
fn chunk(responses: &[Response]) -> BytesMut {
    let len = responses.iter().map(|resp| response_to_bytes(resp).len()).sum();
    let mut chunk = BytesMut::with_capacity(len);
    responses.iter().for_each(|resp| response_into(resp, &mut chunk));
    chunk
}

fn wire(responses: &[Response]) -> Vec<u8> {
    responses.iter().flat_map(|resp| response_to_bytes(resp).to_vec()).collect()
}

/// Runs a front door over `ticks` the way a server does — poll, the
/// server's part (`serve`, told the tick's index), finish — and tears it
/// down when the schedule ends.
fn run_door(
    front: &Arc<FrontShared>,
    ticks: Vec<Tick>,
    mut serve: impl FnMut(usize, &ScriptedDoor),
) {
    let mut door = ScriptedDoor::new(Arc::clone(front), ScriptedSource::new(ticks));
    let mut events = Vec::new();
    let mut tick = 0;
    while let Some(started) = door.poll(&mut events) {
        events.clear();
        serve(tick, &door);
        door.finish_tick(started);
        tick += 1;
    }
    door.teardown_all();
}

/// Two shards' deliveries interleave on two connections — waves as
/// chunks, a completion, a policy notice and an admin reply as single
/// frames between them — and each connection's byte stream is the
/// concatenation of `response_to_bytes` of its responses in delivery
/// order: nothing re-encoded differently, reordered, or merged across
/// connections.
#[test]
fn interleaved_waves_and_single_frames_reach_each_connection_in_delivery_order() {
    let front = FrontShared::new(NetConfig::default(), FrontCounters::default());
    let (io0, conn0) = scripted_conn();
    let (io1, conn1) = scripted_conn();
    let complete = Response::TripComplete(TripComplete {
        id: 1,
        completion: Completion::Ended,
        score: 2.5,
        likelihood_nll: 3.0,
        scale_log_sum: 0.5,
        segments: 1,
    });
    let notice = Response::PolicyNotice { id: 12, action: PolicyAction::Reordered, seg: Some(9) };
    let stats = Response::Stats(FleetSnapshot::merged(&[]));
    // (connection, what one delivery carried), in delivery order; shard A
    // scores trips 1-3 and 11, shard B trips 4 and 12-13.
    let deliveries: Vec<(u64, Vec<Response>)> = vec![
        (0, vec![score(1, 0), score(2, 0), score(3, 0)]), // A, wave 0
        (1, vec![score(11, 0)]),
        (1, vec![score(12, 0), score(13, 0)]), // B, wave 0
        (0, vec![score(4, 0)]),
        (0, vec![complete.clone()]),           // A: trip 1 ended
        (0, vec![score(2, 1), score(3, 1)]),   // A, wave 1
        (1, vec![notice.clone()]),             // B: a policy outcome
        (1, vec![score(12, 1), score(13, 1)]), // B, wave 1
        (0, vec![stats.clone()]),              // the event loop answers a Flush
        (0, vec![score(4, 1)]),
        (1, vec![score(11, 1)]), // A, wave 2
    ];

    run_door(&front, vec![Tick::new().inject(io0).inject(io1), Tick::new()], |tick, door| {
        if tick != 1 {
            return;
        }
        for (conn, responses) in &deliveries {
            match &responses[..] {
                [Response::Stats(_)] => assert!(door.push_always(*conn, responses[0].clone())),
                [single @ (Response::TripComplete(_) | Response::PolicyNotice { .. })] => {
                    front.deliver(*conn, single.clone())
                }
                wave => front.deliver_chunk(*conn, chunk(wave), wave.len()),
            }
        }
    });

    for (conn, handle) in [(0, &conn0), (1, &conn1)] {
        let expected: Vec<Response> = deliveries
            .iter()
            .filter(|(to, _)| *to == conn)
            .flat_map(|(_, responses)| responses.clone())
            .collect();
        assert!(handle.take_written() == wire(&expected), "connection {conn}'s byte stream");
    }
    let frames: usize = deliveries.iter().map(|(_, responses)| responses.len()).sum();
    let stats = front.stats();
    assert_eq!((stats.frames_out as usize, stats.responses_dropped), (frames, 0));
}

/// `response_queue` bounds frames, whatever they arrive in: a chunk of
/// `N + k` frames into an empty queue of `N` leaves its first `N` frames
/// intact and counts exactly `k` dropped; `frames_out` counts the `N` when
/// they are handed to the transport. Single pushes see the same bound,
/// and replies that must not be dropped ignore it.
#[test]
fn a_chunk_over_the_queue_bound_keeps_its_leading_frames_and_counts_the_rest_dropped() {
    const N: usize = 5;
    const K: usize = 3;
    let cfg = NetConfig { response_queue: N, ..NetConfig::default() };
    let front = FrontShared::new(cfg, FrontCounters::default());
    let (io, conn) = scripted_conn();
    let wave: Vec<Response> = (0..(N + K) as u64).map(|id| score(id, 0)).collect();
    let late = score(99, 0);
    let barrier = Response::Stats(FleetSnapshot::merged(&[]));

    run_door(&front, vec![Tick::new().inject(io), Tick::new(), Tick::new()], |tick, door| {
        match tick {
            1 => {
                front.deliver_chunk(0, chunk(&wave), wave.len());
                // The queue is full: a bounded single push is refused (its
                // caller counts it), an unbounded one is not.
                assert!(!door.push(0, late.clone()));
                assert!(door.push_always(0, barrier.clone()));
                assert_eq!(front.stats().frames_out, 0, "nothing was handed over yet");
            }
            2 => {
                // The tick's end drained the queue: there is room again.
                assert_eq!(front.stats().frames_out as usize, N + 1);
                assert!(door.push(0, late.clone()));
                door.push_chunk(0, chunk(&wave), wave.len());
                assert_eq!(front.stats().responses_dropped as usize, K + (K + 1));
            }
            _ => {}
        }
    });

    let mut expected = wave[..N].to_vec();
    expected.push(barrier);
    expected.push(late);
    expected.extend_from_slice(&wave[..N - 1]);
    assert_eq!(conn.take_written(), wire(&expected));
    let stats = front.stats();
    assert_eq!(stats.responses_dropped as usize, 2 * K + 1, "both chunks' overflow, counted");
    assert_eq!(stats.frames_out as usize, expected.len());
}

/// A transport that takes a chunk a few bytes at a time, stalls in the
/// middle of a frame, and stalls again in the middle of the next chunk
/// still ends up with every byte once: the write resumes exactly where
/// the short one stopped.
#[test]
fn a_short_write_that_splits_a_chunk_mid_frame_resumes_on_the_exact_byte() {
    let front = FrontShared::new(NetConfig::default(), FrontCounters::default());
    let (io, conn) = scripted_conn();
    let first: Vec<Response> = (0..4).map(|id| score(id, 0)).collect();
    let second: Vec<Response> = (0..4).map(|id| score(id, 1)).collect();
    let frame = wire(&first[..1]).len();
    let all = wire(&[first.clone(), second.clone()].concat());
    // One frame and a bit, then up to the middle of the second chunk's
    // second frame, then everything — seven bytes per write throughout.
    let stalls = [frame + frame / 3, 5 * frame + frame / 2];
    conn.set_write_cap(7);
    conn.set_write_window(stalls[0]);

    let (seen, open) = (conn.clone(), conn.clone());
    let (head, middle) = (all[..stalls[0]].to_vec(), all[stalls[0]..stalls[1]].to_vec());
    let ticks = vec![
        Tick::new().inject(io),
        Tick::new(),
        Tick::new()
            .act(move || {
                assert_eq!(seen.take_written(), head, "stalled mid-frame, on the byte");
                seen.set_write_window(stalls[1] - stalls[0]);
            })
            .writable(0),
        Tick::new()
            .act(move || {
                assert_eq!(open.take_written(), middle, "resumed there, stalled mid-chunk");
                open.set_write_window(usize::MAX);
            })
            .writable(0),
    ];
    run_door(&front, ticks, |tick, _| {
        if tick == 1 {
            front.deliver_chunk(0, chunk(&first), first.len());
            front.deliver_chunk(0, chunk(&second), second.len());
        }
    });

    assert_eq!(conn.take_written(), all[stalls[1]..], "and the rest, once");
    let stats = front.stats();
    assert_eq!((stats.frames_out, stats.responses_dropped, stats.slow_consumer_pauses), (8, 0, 0));
}

/// The wave-level hand-off through a real engine, where it is
/// deterministic: one shard, every frame of a tick in one cohort, so a
/// connection's responses come in the callback order of an in-process
/// engine fed the same events. Two connections share every wave (the
/// higher-numbered one read first, so the wave is not grouped as it
/// stands) and each gets exactly its own subsequence, frame for frame.
#[test]
fn one_shard_delivers_each_connection_its_subsequence_of_the_wave_order() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(6).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    // Two ticks' worth, cut mid-stream: the second tick's waves follow
    // the first tick's completions (if any) on the same queues.
    let halves = [&events[..events.len() / 2], &events[events.len() / 2..]];
    let conn_of = |trip: u64| trip % 2;

    let order = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (scores, completions) = (Arc::clone(&order), Arc::clone(&order));
    let engine = FleetEngine::builder(Arc::clone(model))
        .config(cfg.clone())
        .on_score(move |u| scores.lock().unwrap().push(Response::Score(*u)))
        .on_complete(move |o| completions.lock().unwrap().push(Response::TripComplete(o.into())))
        .build()
        .expect("trained model");
    for half in halves {
        engine.submit_all(half.to_vec()).expect("accepted");
        engine.flush().expect("quiesced");
    }
    engine.shutdown();
    let order = std::mem::take(&mut *order.lock().unwrap());

    let (io0, conn0) = scripted_conn();
    let (io1, conn1) = scripted_conn();
    let handles = [conn0, conn1];
    let flush = request_to_bytes(&Request::Flush).to_vec();
    let mut ticks = vec![Tick::new().inject(io0).inject(io1)];
    for half in halves {
        for (conn, handle) in handles.iter().enumerate() {
            let mut stream: Vec<u8> = half
                .iter()
                .filter(|ev| conn_of(trip_of(ev)) == conn as u64)
                .flat_map(|ev| request_to_bytes(&Request::from(*ev)).to_vec())
                .collect();
            stream.extend_from_slice(&flush);
            handle.push_read(&stream);
        }
        ticks.push(Tick::new().readable(1).readable(0));
    }
    let core = IngestCore::build(Arc::clone(model), cfg, NetConfig::default()).expect("core");
    EventLoop::new(Arc::clone(&core), ScriptedSource::new(ticks)).run();

    for (conn, handle) in handles.iter().enumerate() {
        let got: Vec<Response> = parse_written(&handle.take_written())
            .into_iter()
            .filter(|resp| !matches!(resp, Response::Stats(_)))
            .collect();
        let expected: Vec<Response> = order
            .iter()
            .filter(|resp| match resp {
                Response::Score(u) => conn_of(u.id) == conn as u64,
                Response::TripComplete(tc) => conn_of(tc.id) == conn as u64,
                _ => unreachable!("the reference records scores and completions"),
            })
            .cloned()
            .collect();
        assert!(got.len() > 2 * trips.len(), "connection {conn} saw whole waves");
        assert!(got == expected, "connection {conn}: its subsequence of the delivery order");
    }
    assert_eq!(core.net_stats().responses_dropped, 0);
    IngestCore::finish(core);
}

// ---------------------------------------------------------------------------
// The router's fan-in: `Score` frames relayed as bytes
// ---------------------------------------------------------------------------

type ScriptedRouter = RouterLoop<ScriptedSource, ScriptedIo>;

const PRODUCER: u64 = 0;

fn link_key(idx: usize) -> u64 {
    ScriptedRouter::link_key(idx)
}

fn scripted_links(n: usize) -> (Vec<ScriptedIo>, Vec<ScriptedHandle>) {
    (0..n).map(|_| scripted_conn()).unzip()
}

fn requests(reqs: &[Request]) -> Vec<u8> {
    reqs.iter().flat_map(|req| request_to_bytes(req).to_vec()).collect()
}

fn trip_start(id: u64) -> Request {
    Request::TripStart { id, source: 0, dest: 1, time_slot: 0 }
}

/// A backend link delivers a good `Score`, the next `Score` with one bit
/// flipped, and a good one after it — for every bit of the frame. The
/// producer gets the first frame's exact bytes and never a byte of the
/// other two: the corrupted frame is not relayed, nothing behind it is
/// trusted, and whatever the flip does to the framing the loop never
/// panics. (Without a standby the link's death then costs the trip one
/// typed `EngineClosed`, unless the flip left the loop waiting for a
/// longer frame than will ever arrive.)
#[test]
fn a_bit_flipped_score_frame_on_a_link_relays_nothing_and_never_panics() {
    let a = (0..).find(|&id| backend_for(id, 2) == 0).expect("ids are plentiful");
    let good = response_to_bytes(&score(a, 0)).to_vec();
    let victim = response_to_bytes(&score(a, 1)).to_vec();
    let after = response_to_bytes(&score(a, 2)).to_vec();
    for bit in 0..victim.len() * 8 {
        let mut flipped = victim.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let (producer_io, producer) = scripted_conn();
        let (link_ios, links) = scripted_links(2);
        producer.push_read(&requests(&[trip_start(a), Request::Segment { id: a, seg: 7 }]));
        links[0].push_read(&[&good[..], &flipped[..], &after[..]].concat());

        let source = ScriptedSource::new(vec![
            Tick::new().inject(producer_io).readable(PRODUCER),
            Tick::new().readable(link_key(0)),
            Tick::new(),
        ]);
        let mut router = ScriptedRouter::new(source, link_ios, 2, &RouterConfig::default());
        router.run();

        let written = producer.take_written();
        assert_eq!(written[..good.len()], good[..], "bit {bit}: the frame before the fault");
        let rest = parse_written(&written[good.len()..]);
        let link_failed = matches!(
            rest[..],
            [Response::Error { code: ErrorCode::EngineClosed, trip: Some(id), .. }] if id == a
        );
        assert!(rest.is_empty() || link_failed, "bit {bit}: relayed {rest:?}");
        assert_eq!(router.stats().backends_alive, 2 - link_failed as u64, "bit {bit}");
    }
}

/// Failover replay on relayed bytes: the promoted standby re-scores the
/// journaled tail, so it sends the `Score` the producer already has
/// (suppressed: `seq` below the trip's delivered mark, read out of the
/// frame without decoding it) and the one it never got (relayed, the
/// standby's bytes). The producer sees each score exactly once, then the
/// answer to the `Flush` it sent while the loop was held, and nothing is
/// counted dropped.
#[test]
fn the_replay_filter_suppresses_a_relayed_duplicate_and_passes_the_new_score() {
    let a = 5;
    let (producer_io, producer) = scripted_conn();
    let (link_ios, links) = scripted_links(2);
    let ingest =
        [trip_start(a), Request::Segment { id: a, seg: 7 }, Request::Segment { id: a, seg: 8 }];
    producer.push_read(&requests(&ingest));
    producer.push_read(&requests(&[Request::Flush]));
    // The active link scores segment 0, then dies.
    links[0].push_read(&wire(&[score(a, 0)]));
    links[0].eof();
    // The standby answers the recovery script — the install, then the
    // replayed tail's scores and the fence's barrier reply — and, once it
    // is the mapped link, the producer's barrier.
    let install = Request::Install { image: image_to_bytes(&FleetImage::default()) };
    let barrier = Response::Stats(FleetSnapshot::merged(&[]));
    links[1].push_read(&wire(&[Response::Installed { sessions: 0 }]));
    links[1].push_read(&wire(&[score(a, 0), score(a, 1), barrier.clone()]));
    links[1].push_read(&wire(std::slice::from_ref(&barrier)));
    let flush = requests(&[Request::Flush]).len();
    let installing = requests(&[install]).len();
    let replayed = installing + requests(&ingest).len() + flush;

    let (asked, fenced, released) = (links[1].clone(), links[1].clone(), links[1].clone());
    let source = ScriptedSource::new(vec![
        Tick::new().inject(producer_io).readable(PRODUCER),
        Tick::new().readable(link_key(0)),
        // EOF: the link is reaped, the loop held and the driver started
        // before the producer's `Flush` decodes, so it is parked.
        Tick::new().readable(link_key(0)).readable(PRODUCER),
        Tick::idle_until(move || asked.written_len() >= installing),
        Tick::new().readable(link_key(1)),
        Tick::idle_until(move || fenced.written_len() >= replayed),
        Tick::new().readable(link_key(1)),
        // The driver's last act on the loop releases the hold; the parked
        // `Flush` replays onto the promoted link.
        Tick::idle_until(move || released.written_len() >= replayed + flush),
        Tick::new().readable(link_key(1)),
    ]);
    // One active link, one standby.
    let mut router = ScriptedRouter::new(source, link_ios, 1, &RouterConfig::default());
    router.run();

    let answered = match &barrier {
        Response::Stats(stats) => {
            Response::Stats(FleetSnapshot::merged(std::slice::from_ref(stats)))
        }
        _ => unreachable!(),
    };
    assert_eq!(
        parse_written(&producer.take_written()),
        [score(a, 0), score(a, 1), answered],
        "each score once, then the barrier"
    );
    assert_eq!(links[1].written_len(), replayed + flush, "install, the tail, a fence, the barrier");
    let stats = router.stats();
    assert_eq!((stats.failovers, stats.backends_alive, stats.responses_dropped), (1, 1, 0));
}
