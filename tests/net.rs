//! Loopback integration for the `tad-net` front-end: scores fed over TCP
//! are **bit-identical** to in-process `FleetEngine` ingest (including
//! across a snapshot served over the wire and restored into a fresh
//! server), backpressure accounting is exact, and hostile bytes on a live
//! socket are answered with a typed error and a clean hang-up — never a
//! wedged or crashed server.
//!
//! Bit-exactness holds regardless of how events land in micro-batches
//! because `CausalTad::push_batch` is bit-identical to sequential
//! `push_state` for every cohort composition — so two engines fed the
//! same per-trip event order produce identical f64 score bits even though
//! their timing-dependent batch compositions differ.

mod common;

use std::sync::Arc;

use causaltad_suite::net::{Client, ClientError, ErrorCode, NetError, NetServer, Response};
use causaltad_suite::serve::{image_from_bytes, Completion, Event, FleetConfig};
use causaltad_suite::trajsim::Trajectory;
use common::{
    assert_bit_identical, drain, in_process, interleave, send_events, trained, trip_of, Produced,
};

#[test]
fn network_scores_match_in_process_ingest_bit_exactly() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg.clone());
    assert_eq!(reference.finals.len(), trips.len());

    let server =
        NetServer::builder(Arc::clone(model)).fleet_config(cfg).bind("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    send_events(&mut client, &events);
    let stats = client.flush().expect("barrier");
    assert_eq!(stats.trips_completed, trips.len() as u64);
    assert_eq!(stats.rejected, 0);

    let mut network = Produced::default();
    drain(&mut client, &mut network);
    assert_bit_identical(&network, &reference);

    // Each trip produced exactly one score per segment, in order.
    for (id, t) in trips.iter().enumerate() {
        for seq in 0..t.len() as u32 {
            assert!(network.scores.contains_key(&(id as u64, seq)), "trip {id} seq {seq}");
        }
    }

    let net_stats = server.net_stats();
    assert_eq!(net_stats.responses_dropped, 0);
    assert_eq!(net_stats.connections_accepted, 1);
    server.shutdown();
}

/// Multi-connection ingest: several concurrent clients streaming disjoint
/// trips each receive exactly their own trips' responses — per-trip
/// response routing never cross-delivers — and the union of what they
/// received is still bit-identical to in-process ingest.
#[test]
fn concurrent_clients_never_cross_deliver_responses() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(9).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg.clone());

    let server =
        NetServer::builder(Arc::clone(model)).fleet_config(cfg).bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    const CLIENTS: u64 = 3;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let own: Vec<Event> =
                events.iter().copied().filter(|ev| trip_of(ev) % CLIENTS == c).collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                send_events(&mut client, &own);
                client.flush().expect("barrier");
                let mut got = Produced::default();
                drain(&mut client, &mut got);
                got
            })
        })
        .collect();
    let mut network = Produced::default();
    for (c, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("client thread");
        for &(id, _) in got.scores.keys() {
            assert_eq!(id % CLIENTS, c as u64, "score cross-delivered to client {c}");
        }
        for &id in got.finals.keys() {
            assert_eq!(id % CLIENTS, c as u64, "completion cross-delivered to client {c}");
        }
        network.scores.extend(got.scores);
        network.finals.extend(got.finals);
    }
    assert_bit_identical(&network, &reference);
    let net_stats = server.net_stats();
    assert_eq!(net_stats.connections_accepted, CLIENTS);
    assert_eq!(net_stats.responses_dropped, 0);
    server.shutdown();
}

/// The read-timeout regression guard: a server that accepts and then
/// never replies must not hang the blocking client forever — with a
/// configured read timeout, the barrier fails promptly with the typed
/// [`ClientError::Timeout`].
#[test]
fn read_timeout_turns_a_dead_server_into_a_typed_error() {
    use std::time::{Duration, Instant};

    // A "server" that accepts the connection, then goes silent while
    // keeping the socket open (no EOF, no reply — the pathological case a
    // timeout exists for; a *closed* socket already surfaces as
    // `Disconnected`).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let hold = std::thread::spawn(move || {
        let conn = listener.accept().ok();
        let _ = release_rx.recv(); // hold the socket open, silently
        drop(conn);
    });

    let mut client = Client::connect(addr)
        .expect("connect")
        .with_read_timeout(Some(Duration::from_millis(200)))
        .expect("socket accepts a read timeout");
    client.trip_start(1, 0, 1, 0).expect("write");
    let started = Instant::now();
    match client.flush() {
        Err(ClientError::Timeout) => {}
        other => panic!("expected ClientError::Timeout, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5), "the timeout must fire promptly, not hang");
    release_tx.send(()).expect("release the holder");
    hold.join().expect("holder thread");
}

/// The remote-warm-restart acceptance test: stream half the fleet into
/// server A over TCP, capture a snapshot **over the wire**, kill A,
/// restore the blob into a fresh server B, finish the stream there, and
/// require every per-segment and final score (across both phases) to be
/// bit-identical to one uninterrupted in-process engine.
#[test]
fn snapshot_served_over_wire_restores_bit_exactly() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(10).collect();
    let events = interleave(&trips);
    let split = trips.len() + (events.len() - trips.len()) * 2 / 5;
    let cfg = || FleetConfig { num_shards: 2, max_batch: 32, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg());

    let mut network = Produced::default();

    // Phase A: half the traffic, then a snapshot over the wire.
    let server_a = NetServer::builder(Arc::clone(model))
        .fleet_config(cfg())
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client_a = Client::connect(server_a.local_addr()).expect("connect");
    send_events(&mut client_a, &events[..split]);
    client_a.flush().expect("barrier");
    let blob = client_a.snapshot().expect("snapshot over the wire");
    drain(&mut client_a, &mut network);
    drop(client_a);
    server_a.shutdown(); // the "crash": A's live sessions are gone

    // Phase B: restore the wire-served blob into a fresh server (different
    // shard count), reconnect, finish the stream.
    let image = image_from_bytes(blob).expect("blob decodes");
    let restored_count = image.sessions.len();
    assert!(restored_count > 0, "capture point should leave sessions in flight");
    let server_b = NetServer::builder(Arc::clone(model))
        .fleet_config(FleetConfig { num_shards: 3, max_batch: 32, ..FleetConfig::default() })
        .resume(image)
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client_b = Client::connect(server_b.local_addr()).expect("connect");
    send_events(&mut client_b, &events[split..]);
    let stats = client_b.flush().expect("barrier");
    assert_eq!(stats.sessions_restored, restored_count as u64);
    drain(&mut client_b, &mut network);

    assert_bit_identical(&network, &reference);
    assert_eq!(server_b.net_stats().responses_dropped, 0);
    server_b.shutdown();
}

/// Backpressure accounting is exact: with a tiny ingest queue, every
/// segment either produces a score or an explicit `Backpressure` reply —
/// nothing is silently buffered or lost.
#[test]
fn backpressure_replies_account_for_every_event() {
    let (city, model) = trained();
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let server = NetServer::builder(Arc::clone(model))
        .fleet_config(FleetConfig {
            num_shards: 1,
            queue_capacity: 8,
            max_batch: 4,
            ..FleetConfig::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.trip_start(1, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    const BURST: usize = 2000;
    for _ in 0..BURST {
        client.segment(1, t.segments[0].0).expect("write");
    }
    client.flush().expect("barrier");
    // The queue is empty after the barrier, so the end cannot bounce.
    client.trip_end(1).expect("write");
    client.flush().expect("barrier");

    let mut scores = 0usize;
    let mut bounced = 0usize;
    let mut completed = None;
    while let Some(resp) = client.try_recv() {
        match resp {
            Response::Score(_) => scores += 1,
            Response::Error { code: ErrorCode::Backpressure, trip: Some(1), .. } => bounced += 1,
            Response::TripComplete(tc) => completed = Some(tc),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(scores + bounced, BURST, "every segment scored or bounced");
    let completed = completed.expect("trip completed");
    assert_eq!(completed.completion, Completion::Ended);
    assert_eq!(completed.segments(), scores, "engine scored exactly the accepted events");
    // Accounting only holds if no response was dropped server-side.
    let net_stats = server.net_stats();
    assert_eq!(net_stats.responses_dropped, 0);
    // Every bounce was counted by the observability layer too.
    assert_eq!(net_stats.backpressure_replies, bounced as u64);
    server.shutdown();
}

/// Events naming out-of-vocabulary segments get a typed `Rejected` reply
/// (the engine would drop them silently), and — the regression this
/// guards — a rejected `TripStart` does not strand its trip id: the same
/// id can start validly afterwards on the same connection.
#[test]
fn out_of_vocab_events_get_typed_rejects_without_stranding_trip_ids() {
    let (city, model) = trained();
    let vocab = model.vocab() as u32;
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let server = NetServer::builder(Arc::clone(model)).bind("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Bad SD endpoint: typed reject, id not claimed.
    client.trip_start(5, vocab + 7, sd.dest.0, t.time_slot).expect("write");
    client.flush().expect("barrier");
    match client.try_recv() {
        Some(Response::Error { code: ErrorCode::Rejected, trip: Some(5), .. }) => {}
        other => panic!("expected Rejected for trip 5, got {other:?}"),
    }

    // The same id now starts validly; an out-of-vocab segment mid-trip is
    // rejected without killing the session.
    client.trip_start(5, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    client.segment(5, t.segments[0].0).expect("write");
    client.segment(5, vocab + 1).expect("write");
    client.segment(5, t.segments[1].0).expect("write");
    client.trip_end(5).expect("write");
    let stats = client.flush().expect("barrier");
    assert_eq!(stats.trips_completed, 1);

    let mut scores = 0;
    let mut rejects = 0;
    let mut completed = None;
    while let Some(resp) = client.try_recv() {
        match resp {
            Response::Score(_) => scores += 1,
            Response::Error { code: ErrorCode::Rejected, trip: Some(5), .. } => rejects += 1,
            Response::TripComplete(tc) => completed = Some(tc),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!((scores, rejects), (2, 1), "two scored segments, one typed reject");
    let completed = completed.expect("trip completed");
    assert_eq!(completed.completion, Completion::Ended);
    assert_eq!(completed.segments(), 2);
    server.shutdown();
}

/// The cross-connection duplicate-`TripStart` regression. A trip can be
/// live in the engine while *unclaimed* on the server (a warm restart
/// restores the session, and no `TripStart` ever arrives to claim it).
/// A second producer starting that id used to slip past the accept-time
/// claim check, get silently rejected by the engine, and leave its stale
/// claim stealing the true owner's score route. Now the engine's
/// quarantine classification reaches the net layer: the offender gets the
/// same typed `Rejected` reply an accept-time duplicate gets, its claim
/// is released, and the owner's stream is unperturbed — bit-identical to
/// an uninterrupted in-process run.
#[test]
fn duplicate_trip_start_across_connections_is_rejected_without_stealing_the_route() {
    let (city, model) = trained();
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let split = t.len() / 2;
    let cfg = || FleetConfig { num_shards: 2, ..FleetConfig::default() };

    // Reference: the whole trip through one uninterrupted engine.
    let mut events = vec![Event::TripStart {
        id: 1,
        source: sd.source.0,
        dest: sd.dest.0,
        time_slot: t.time_slot,
    }];
    events.extend(t.segments.iter().map(|seg| Event::Segment { id: 1, seg: seg.0 }));
    events.push(Event::TripEnd { id: 1 });
    let reference = in_process(model, &events, cfg());

    // Phase A: the owner streams half the trip, snapshots, server dies.
    let server_a = NetServer::builder(Arc::clone(model))
        .fleet_config(cfg())
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut owner = Client::connect(server_a.local_addr()).expect("connect");
    owner.trip_start(1, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    for seg in &t.segments[..split] {
        owner.segment(1, seg.0).expect("write");
    }
    owner.flush().expect("barrier");
    let blob = owner.snapshot().expect("snapshot over the wire");
    let mut produced = Produced::default();
    drain(&mut owner, &mut produced);
    drop(owner);
    server_a.shutdown();

    // Phase B: warm restart — trip 1 is live in the engine, claimed by
    // nobody. An impostor connection starts it *before* the owner
    // re-attaches.
    let image = image_from_bytes(blob).expect("blob decodes");
    let server_b = NetServer::builder(Arc::clone(model))
        .fleet_config(cfg())
        .resume(image)
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut impostor = Client::connect(server_b.local_addr()).expect("connect");
    impostor.trip_start(1, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    impostor.flush().expect("barrier");
    match impostor.try_recv() {
        Some(Response::Error { code: ErrorCode::Rejected, trip: Some(1), .. }) => {}
        other => panic!("impostor expected a typed Rejected for trip 1, got {other:?}"),
    }
    assert_eq!(impostor.try_recv(), None, "nothing else may route to the impostor yet");

    // The owner re-attaches (no TripStart — the session is live) and
    // finishes the trip. Every remaining score must route to it.
    let mut owner = Client::connect(server_b.local_addr()).expect("connect");
    for seg in &t.segments[split..] {
        owner.segment(1, seg.0).expect("write");
    }
    owner.trip_end(1).expect("write");
    let stats = owner.flush().expect("barrier");
    assert_eq!(stats.trips_completed, 1);
    drain(&mut owner, &mut produced);
    assert_bit_identical(&produced, &reference);

    // And still nothing leaked to the impostor.
    impostor.flush().expect("barrier");
    assert_eq!(impostor.try_recv(), None, "the owner's stream leaked to the impostor");
    assert_eq!(server_b.net_stats().responses_dropped, 0);
    server_b.shutdown();
}

/// Ingest sanitization end-to-end over the wire: a server configured with
/// a dedup window scores a duplicated stream bit-identically to the clean
/// trip, and every drop is surfaced to the producer as a typed
/// [`Response::PolicyNotice`] frame (and counted in the wire metrics).
#[test]
fn policy_notices_surface_sanitization_over_the_wire() {
    use causaltad_suite::serve::{PolicyAction, StreamPolicy};

    let (city, model) = trained();
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();

    // Reference: the clean trip through an unpoliced in-process engine.
    let mut clean = vec![Event::TripStart {
        id: 1,
        source: sd.source.0,
        dest: sd.dest.0,
        time_slot: t.time_slot,
    }];
    clean.extend(t.segments.iter().map(|seg| Event::Segment { id: 1, seg: seg.0 }));
    clean.push(Event::TripEnd { id: 1 });
    let reference = in_process(model, &clean, FleetConfig::default());

    let server = NetServer::builder(Arc::clone(model))
        .fleet_config(FleetConfig {
            policy: StreamPolicy { dedup_window: 2, ..StreamPolicy::default() },
            ..FleetConfig::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.trip_start(1, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    for seg in &t.segments {
        // At-least-once transport: every segment arrives twice.
        client.segment(1, seg.0).expect("write");
        client.segment(1, seg.0).expect("write");
    }
    client.trip_end(1).expect("write");
    let stats = client.flush().expect("barrier");
    assert_eq!(stats.trips_completed, 1);

    let mut produced = Produced::default();
    let mut notices = Vec::new();
    while let Some(resp) = client.try_recv() {
        match resp {
            Response::Score(u) => {
                produced.scores.insert((u.id, u.seq), u.score.to_bits());
            }
            Response::TripComplete(tc) => {
                if tc.completion == Completion::Ended {
                    produced.finals.insert(tc.id, (tc.score.to_bits(), tc.segments()));
                }
            }
            Response::PolicyNotice { id, action, seg } => notices.push((id, action, seg)),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_bit_identical(&produced, &reference);
    assert_eq!(notices.len(), t.len(), "one notice per duplicated segment");
    for (i, &(id, action, seg)) in notices.iter().enumerate() {
        assert_eq!(id, 1);
        assert_eq!(action, PolicyAction::DedupDropped);
        assert_eq!(seg, Some(t.segments[i].0), "notices arrive in stream order");
    }
    let metrics = client.metrics().expect("metrics over the wire");
    assert_eq!(metrics.counter("serve.dedup_dropped"), Some(t.len() as u64));
    assert_eq!(server.net_stats().responses_dropped, 0);
    server.shutdown();
}

/// Hostile bytes on a live socket: the server answers with a typed
/// `BadFrame` error, hangs up that connection, and keeps serving others.
#[test]
fn hostile_bytes_get_a_typed_error_and_a_clean_hangup() {
    use causaltad_suite::net::{read_response, RecvError, DEFAULT_MAX_FRAME, FRAME_VERSION};
    use std::io::Write;

    let (city, model) = trained();
    let server = NetServer::builder(Arc::clone(model)).bind("127.0.0.1:0").expect("bind");

    // Pure garbage: bad magic.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(&[0xDE; 64]).expect("write garbage");
    raw.flush().expect("flush");
    match read_response(&mut raw, DEFAULT_MAX_FRAME).expect("server replies before hangup") {
        Some(Response::Error { code: ErrorCode::BadFrame, .. }) => {}
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    // The server hangs up after a framing error.
    assert!(matches!(read_response(&mut raw, DEFAULT_MAX_FRAME), Ok(None) | Err(RecvError::Io(_))));

    // A crafted length prefix far beyond the server's cap: refused without
    // allocation, same typed reply.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut frame = Vec::new();
    frame.extend_from_slice(b"TADN");
    frame.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    frame.extend_from_slice(&u64::MAX.to_le_bytes());
    raw.write_all(&frame).expect("write header");
    raw.flush().expect("flush");
    match read_response(&mut raw, DEFAULT_MAX_FRAME).expect("server replies before hangup") {
        Some(Response::Error { code: ErrorCode::BadFrame, detail, .. }) => {
            assert!(detail.contains("exceeds"), "detail: {detail}");
        }
        other => panic!("expected BadFrame error, got {other:?}"),
    }

    // The server is still healthy: a well-behaved client works.
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.trip_start(9, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    client.segment(9, t.segments[0].0).expect("write");
    client.trip_end(9).expect("write");
    let stats = client.flush().expect("barrier");
    assert_eq!(stats.trips_completed, 1);
    // Both hostile connections were counted as malformed, the healthy one
    // was not.
    assert_eq!(server.net_stats().malformed_frames, 2);
    server.shutdown();
}

/// Observability end-to-end on a single server: a `MetricsRequest` over
/// the wire returns a snapshot **bit-identical** (struct equality and
/// re-encoded bytes) to the server's in-process registry at a quiesced
/// point, covering both the serve tier (`serve.*`) and the net tier
/// (`net.*`) — and the per-connection frame counters account for every
/// frame that crossed the socket.
/// A zero bound makes a server that never answers: a zero
/// `max_frame_len` refuses every request, a zero `response_queue` drops
/// every reply, and a zero `write_highwater` never writes a frame, not
/// even a `Flush` reply. `bind` refuses each, naming the field.
#[test]
fn a_zero_net_bound_is_rejected_naming_the_field() {
    let (_, model) = trained();
    let zeroed = [
        ("max_frame_len must be >= 1", NetConfig { max_frame_len: 0, ..NetConfig::default() }),
        ("response_queue must be >= 1", NetConfig { response_queue: 0, ..NetConfig::default() }),
        ("write_highwater must be >= 1", NetConfig { write_highwater: 0, ..NetConfig::default() }),
    ];
    for (want, net) in zeroed {
        match NetServer::builder(Arc::clone(model)).net_config(net).bind("127.0.0.1:0") {
            Err(NetError::InvalidConfig(what)) => assert_eq!(what, want),
            Err(other) => panic!("{want}: expected InvalidConfig, got {other}"),
            Ok(server) => {
                server.shutdown();
                panic!("{want}: bind accepted a zero bound");
            }
        }
    }
}

#[test]
fn wire_metrics_match_in_process_registry_and_frame_counters_add_up() {
    use causaltad_suite::metrics::snapshot_to_bytes;
    use std::time::{Duration, Instant};

    let (city, model) = trained();
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let server = NetServer::builder(Arc::clone(model)).bind("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let n = t.segments.len() as u64;
    client.trip_start(1, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    for seg in &t.segments {
        client.segment(1, seg.0).expect("write");
    }
    client.trip_end(1).expect("write");
    let stats = client.flush().expect("barrier");
    assert_eq!(stats.trips_completed, 1);

    let wire = client.metrics().expect("metrics over the wire");

    // Quiesced (flush barrier passed, no other traffic): the in-process
    // registry must be the same snapshot, down to the encoded bytes.
    let local = server.metrics();
    assert_eq!(wire, local, "wire metrics must equal the in-process registry");
    assert_eq!(snapshot_to_bytes(&wire), snapshot_to_bytes(&local));

    // The shared registry covers both tiers: one latency sample per scored
    // segment on the serve side...
    let lat = wire.histogram("serve.score_latency_ns").expect("serve histogram");
    assert_eq!(lat.count, n, "one score-latency sample per segment");
    // ...and one decode sample per frame on the net side. The decode of
    // the MetricsRequest itself is recorded *before* dispatch, so the
    // frame that asked the question is already in the answer.
    let decode = wire.histogram("net.frame_decode_ns").expect("net histogram");
    assert_eq!(decode.count, n + 4, "start + segments + end + flush + metrics");
    // The queue-depth gauge is back to zero once the barrier drained it.
    assert_eq!(wire.gauge("serve.ingest_inflight"), Some(0));

    // Per-connection counters: every inbound frame accounted, nothing
    // malformed, nothing bounced.
    let conns = server.connection_stats();
    assert_eq!(conns.len(), 1);
    assert_eq!(conns[0].frames_in, n + 4);
    assert_eq!(conns[0].malformed_frames, 0);
    assert_eq!(conns[0].backpressure_replies, 0);
    // frames_out is bumped by the writer thread *after* the socket write,
    // so poll briefly: n scores + TripComplete + Stats + Metrics.
    let expect_out = n + 3;
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let out = server.connection_stats()[0].frames_out;
        if out == expect_out {
            break;
        }
        assert!(Instant::now() < deadline, "frames_out stuck at {out}, want {expect_out}");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Server-lifetime totals mirror the single connection.
    let totals = server.net_stats();
    assert_eq!(totals.frames_in, n + 4);
    assert_eq!(totals.frames_out, expect_out);
    assert_eq!(totals.malformed_frames, 0);
    assert_eq!(totals.backpressure_replies, 0);
    server.shutdown();
}

/// Bounded reconnect, failure side: against an address that accepts and
/// immediately drops every connection, a retry-enabled client spends
/// exactly its configured attempt budget — sleeping its jittered backoff
/// between dials — and then fails with the typed
/// [`ClientError::Retrying`], never an unbounded dial loop.
#[test]
fn client_retry_budget_is_bounded_and_typed() {
    use causaltad_suite::net::RetryPolicy;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let dropper = std::thread::spawn(move || {
        // Accept-and-drop: every connection dies before a byte is served.
        while !stopped.load(Ordering::Relaxed) {
            drop(listener.accept());
        }
    });

    let policy = RetryPolicy {
        max_reconnects: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
    };
    let mut client = Client::connect(addr).expect("first dial is accepted").with_retry(policy);
    client.trip_start(1, 0, 1, 0).expect("write lands in the OS buffer");
    match client.flush() {
        Err(ClientError::Retrying { attempts, last }) => {
            assert_eq!(attempts, 3, "exactly the configured budget");
            assert!(
                !matches!(*last, ClientError::Server { .. }),
                "only transport failures are retried, got {last:?}"
            );
        }
        other => panic!("expected ClientError::Retrying, got {other:?}"),
    }
    stop.store(true, Ordering::Relaxed);
    // Unblock the accept loop with one throwaway dial.
    drop(std::net::TcpStream::connect(addr));
    dropper.join().expect("dropper thread");
}

/// Bounded reconnect, recovery side: the first connection through a flaky
/// front dies mid-call, the client silently redials inside the same call,
/// and the whole trip then streams through the fresh connection with
/// scores bit-identical to in-process ingest — the producer never sees
/// the outage.
#[test]
fn client_reconnects_through_an_outage_and_scores_stay_bit_identical() {
    use causaltad_suite::net::RetryPolicy;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::time::Duration;

    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(3).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let server =
        NetServer::builder(Arc::clone(model)).fleet_config(cfg).bind("127.0.0.1:0").expect("bind");
    let target = server.local_addr();

    // A flaky front: the first connection is dropped on the floor (the
    // outage), every later one is pumped byte-for-byte to the real server.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let front = listener.local_addr().expect("addr");
    let proxy = std::thread::spawn(move || {
        drop(listener.accept());
        let Ok((client_sock, _)) = listener.accept() else { return };
        let server_sock = TcpStream::connect(target).expect("dial real server");
        let up = {
            let (mut r, mut w) =
                (client_sock.try_clone().expect("clone"), server_sock.try_clone().expect("clone"));
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut r, &mut w);
                let _ = w.shutdown(Shutdown::Write);
            })
        };
        let (mut r, mut w) = (server_sock, client_sock);
        let _ = std::io::copy(&mut r, &mut w);
        let _ = w.shutdown(Shutdown::Write);
        up.join().expect("upstream pump");
    });

    let mut client = Client::connect(front).expect("first dial").with_retry(RetryPolicy {
        max_reconnects: 5,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(8),
    });
    // The dead first connection surfaces inside this call; the client
    // redials and the barrier lands on the real server.
    client.flush().expect("flush survives the outage via reconnect");

    send_events(&mut client, &events);
    let stats = client.flush().expect("barrier");
    assert_eq!(stats.trips_completed, trips.len() as u64);
    let mut produced = Produced::default();
    drain(&mut client, &mut produced);
    assert_bit_identical(&produced, &reference);

    drop(client); // EOF ends the proxy pumps
    proxy.join().expect("proxy thread");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Deterministic event-loop batteries: the production `EventLoop` driven by
// the scripted readiness harness (`tests/common/script.rs`) — exact partial
// reads, short writes, pause/resume schedules that real sockets cannot be
// made to produce on demand — plus the 256-connection loopback sweep.
// ---------------------------------------------------------------------------

use causaltad_suite::net::{request_to_bytes, EventLoop, IngestCore, NetConfig, Request};
use common::script::{parse_written, scripted_conn, ScriptedSource, Tick};

/// The wire request a fleet event becomes.
fn event_request(ev: &Event) -> Request {
    match *ev {
        Event::TripStart { id, source, dest, time_slot } => {
            Request::TripStart { id, source, dest, time_slot }
        }
        Event::Segment { id, seg } => Request::Segment { id, seg },
        Event::TripEnd { id } => Request::TripEnd { id },
    }
}

/// One encoded request frame.
fn frame_bytes(ev: &Event) -> Vec<u8> {
    request_to_bytes(&event_request(ev)).to_vec()
}

/// Sorts decoded responses into the bit-level `Produced` record, counting
/// `Stats` barriers and typed errors along the way.
fn sort_responses(responses: Vec<Response>) -> (Produced, usize, Vec<(ErrorCode, Option<u64>)>) {
    let mut produced = Produced::default();
    let mut stats = 0usize;
    let mut errors = Vec::new();
    for resp in responses {
        match resp {
            Response::Score(u) => {
                produced.scores.insert((u.id, u.seq), u.score.to_bits());
            }
            Response::TripComplete(tc) => {
                if tc.completion == Completion::Ended {
                    produced.finals.insert(tc.id, (tc.score.to_bits(), tc.segments()));
                }
            }
            Response::Stats(_) => stats += 1,
            Response::Error { code, trip, .. } => errors.push((code, trip)),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    (produced, stats, errors)
}

/// The tentpole property, proven deterministically: two connections whose
/// frames arrive split at awkward byte boundaries across a scripted
/// readiness schedule (every tick completes one frame per connection and
/// leaves a partial frame buffered) coalesce into **cross-connection
/// cohorts** — observable in the `net.cohort_conns` histogram — and the
/// scores written back are bit-identical to in-process ingest, with no
/// cross-connection delivery.
#[test]
fn scripted_event_loop_coalesces_cross_connection_cohorts_bit_identically() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(2).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let conn_frames: Vec<Vec<Vec<u8>>> = (0..2u64)
        .map(|c| events.iter().filter(|ev| trip_of(ev) == c).map(frame_bytes).collect())
        .collect();
    let streams: Vec<Vec<u8>> = conn_frames.iter().map(|f| f.concat()).collect();
    // Tick boundaries sit 5 bytes past each frame boundary: every tick
    // completes exactly one frame per connection and buffers 5 bytes of
    // the next — partial-frame reassembly on every single tick.
    let bounds: Vec<Vec<usize>> = conn_frames
        .iter()
        .map(|frames| {
            let total: usize = frames.iter().map(Vec::len).sum();
            let mut cum = 0usize;
            frames
                .iter()
                .map(|f| {
                    cum += f.len();
                    (cum + 5).min(total)
                })
                .collect()
        })
        .collect();

    let (io0, h0) = scripted_conn();
    let (io1, h1) = scripted_conn();
    let handles = [h0, h1];

    let mut ticks = vec![Tick::new().inject(io0).inject(io1)];
    let mut pos = [0usize; 2];
    let max_ticks = bounds.iter().map(Vec::len).max().unwrap();
    for t in 0..max_ticks {
        let mut tick = Tick::new();
        for c in 0..2 {
            if let Some(&end) = bounds[c].get(t) {
                if end > pos[c] {
                    handles[c].push_read(&streams[c][pos[c]..end]);
                    pos[c] = end;
                    tick = tick.readable(c as u64);
                }
            }
        }
        ticks.push(tick);
    }
    // Flush barrier on both connections in one final tick: the `Stats`
    // reply is queued only after every delivery above it, and the tick's
    // dirty-drain writes everything to the scripted transports.
    let flush = request_to_bytes(&Request::Flush);
    handles[0].push_read(&flush);
    handles[1].push_read(&flush);
    ticks.push(Tick::new().readable(0).readable(1));

    let core = IngestCore::build(Arc::clone(model), cfg, NetConfig::default()).expect("core");
    let source = ScriptedSource::new(ticks);
    let log = source.log_handle();
    EventLoop::new(Arc::clone(&core), source).run();

    let mut union = Produced::default();
    let mut total_frames_in = 0u64;
    for (c, handle) in handles.iter().enumerate() {
        let (produced, stats, errors) = sort_responses(parse_written(&handle.take_written()));
        assert!(errors.is_empty(), "conn {c} got errors: {errors:?}");
        assert_eq!(stats, 1, "conn {c} flush barriers");
        for key in produced.scores.keys() {
            assert_eq!(key.0, c as u64, "score cross-delivered to conn {c}");
        }
        for id in produced.finals.keys() {
            assert_eq!(*id, c as u64, "completion cross-delivered to conn {c}");
        }
        union.scores.extend(produced.scores);
        union.finals.extend(produced.finals);
        total_frames_in += conn_frames[c].len() as u64 + 1;
    }
    assert_bit_identical(&union, &reference);

    // The prize: ticks where both connections contributed events were
    // submitted as one cohort spanning 2 connections.
    let snapshot = core.metrics();
    let cohort_conns = snapshot.histogram("net.cohort_conns").expect("recorded");
    assert_eq!(cohort_conns.max, 2, "no cross-connection cohort was ever formed");
    let cohort_width = snapshot.histogram("net.cohort_width").expect("recorded");
    assert!(cohort_width.max >= 2, "no multi-event cohort was ever formed");

    let ns = core.net_stats();
    assert_eq!(ns.frames_in, total_frames_in);
    assert_eq!(ns.responses_dropped, 0);
    assert_eq!(ns.malformed_frames, 0);
    assert_eq!(ns.backpressure_replies, 0);
    assert_eq!(ns.slow_consumer_pauses, 0);
    // Neither connection was ever read-paused.
    assert!(
        log.lock().unwrap().iter().all(|(_, i)| i.readable),
        "a healthy connection lost read interest"
    );
    IngestCore::finish(core);
}

/// The slow-consumer regression battery, proven deterministically: a
/// stalled reader (zero-byte write window) crosses the write high-water
/// mark, gets its reads paused (observable as an interest transition) and
/// exactly one typed `Backpressure` notice, holds only bounded
/// writer-queue memory (excess responses are counted dropped, not
/// buffered) — while a healthy connection flowing through the same loop
/// is never stalled and stays bit-identical. When the reader drains, the
/// backlog flushes and reads resume.
#[test]
fn scripted_slow_consumer_pauses_bounded_and_resumes_while_healthy_conn_flows() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(9).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    // Sized so the stalled firehose (8 trips, ≥48 score frames in one
    // burst) overflows both the 32-entry response queue and the 256-byte
    // write high-water, while the healthy connection's single-trip burst
    // fits the queue comfortably.
    let net = NetConfig { response_queue: 32, write_highwater: 256, ..NetConfig::default() };
    const STALLED_TRIPS: u64 = 8;
    let healthy_trip: u64 = STALLED_TRIPS;

    let (io0, h0) = scripted_conn();
    let (io1, h1) = scripted_conn();
    h0.set_write_window(0); // the stalled reader: accepts nothing

    let flush = request_to_bytes(&Request::Flush);
    let mut s0 = Vec::new();
    for ev in events.iter().filter(|ev| trip_of(ev) < STALLED_TRIPS) {
        s0.extend_from_slice(&frame_bytes(ev));
    }
    s0.extend_from_slice(&flush);
    h0.push_read(&s0);
    let mut s1 = Vec::new();
    for ev in events.iter().filter(|ev| trip_of(ev) == healthy_trip) {
        s1.extend_from_slice(&frame_bytes(ev));
    }
    s1.extend_from_slice(&flush);
    h1.push_read(&s1);

    let h0_widen = h0.clone();
    let ticks = vec![
        Tick::new().inject(io0).inject(io1),
        // Firehose all eight trips; the flush barrier queues every
        // response, the stalled transport accepts none, and the sweep
        // pauses reads.
        Tick::new().readable(0),
        // The healthy connection does a full trip + barrier while conn 0
        // sits paused.
        Tick::new().readable(1),
        // The slow reader finally drains: backlog flushes, reads resume.
        Tick::new().act(move || h0_widen.set_write_window(usize::MAX)).writable(0),
        Tick::new(),
    ];

    let core = IngestCore::build(Arc::clone(model), cfg, net).expect("core");
    let source = ScriptedSource::new(ticks);
    let log = source.log_handle();
    EventLoop::new(Arc::clone(&core), source).run();

    // The stalled connection: bounded memory, typed notice, and exactly
    // the bounded queue's worth of responses kept (bit-identical ones).
    let written0 = h0.take_written();
    assert!(written0.len() <= 4096, "writer memory unbounded: {} bytes", written0.len());
    let (got0, stats0, errors0) = sort_responses(parse_written(&written0));
    assert_eq!(stats0, 1, "the flush barrier reply still arrives");
    assert_eq!(
        errors0,
        vec![(ErrorCode::Backpressure, None)],
        "exactly one typed slow-consumer notice"
    );
    assert_eq!(
        got0.scores.len() + got0.finals.len(),
        32,
        "exactly the bounded queue's responses survive"
    );
    for (key, bits) in &got0.scores {
        assert!(key.0 < STALLED_TRIPS, "cross-delivered score at {key:?}");
        assert_eq!(reference.scores.get(key), Some(bits), "kept score bits at {key:?}");
    }
    for (id, fin) in &got0.finals {
        assert_eq!(reference.finals.get(id), Some(fin), "kept final bits for trip {id}");
    }

    // The healthy connection: complete and bit-identical throughout.
    let (got1, stats1, errors1) = sort_responses(parse_written(&h1.take_written()));
    assert_eq!(stats1, 1);
    assert!(errors1.is_empty(), "healthy conn got errors: {errors1:?}");
    let healthy_scores = reference.scores.iter().filter(|((id, _), _)| *id == healthy_trip).count();
    assert_eq!(got1.scores.len(), healthy_scores, "healthy conn missed responses");
    for (key, bits) in &got1.scores {
        assert_eq!(reference.scores.get(key), Some(bits), "score bits at {key:?}");
    }
    assert_eq!(got1.finals.get(&healthy_trip), reference.finals.get(&healthy_trip), "final");

    let ns = core.net_stats();
    assert_eq!(ns.slow_consumer_pauses, 1, "exactly one pause episode");
    assert!(ns.responses_dropped > 0, "excess responses must be dropped, not buffered");

    // Interest transitions: pause (readable off, write backlog on), then
    // resume (readable back on, backlog gone).
    let log = log.lock().unwrap();
    let pause = log
        .iter()
        .position(|&(k, i)| k == 0 && !i.readable && i.writable)
        .expect("pause transition logged");
    assert!(
        log[pause..].iter().any(|&(k, i)| k == 0 && i.readable && !i.writable),
        "resume transition must follow the pause"
    );
    drop(log);
    IngestCore::finish(core);
}

/// The connection-scaling equivalence sweep on real sockets: 256
/// concurrent loopback connections, each owning one live trip, with
/// events interleaved round-robin across all of them — scores come back
/// bit-identical to in-process ingest, nothing is cross-delivered, and
/// nothing is dropped.
#[test]
fn loopback_256_connections_score_bit_identically_with_no_cross_delivery() {
    use std::time::Duration;

    let (city, model) = trained();
    let base: Vec<&Trajectory> = city.data.test_id.iter().collect();
    const CONNS: usize = 256;
    // 256 live trips: trip id c rides connection c (trajectories reused
    // cyclically; the engine keys routing and state on the id).
    let trips: Vec<&Trajectory> = (0..CONNS).map(|c| base[c % base.len()]).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());
    assert_eq!(reference.finals.len(), CONNS);

    let server =
        NetServer::builder(Arc::clone(model)).fleet_config(cfg).bind("127.0.0.1:0").expect("bind");
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| {
            Client::connect(server.local_addr())
                .expect("connect")
                .with_write_timeout(Some(Duration::from_secs(30)))
                .expect("write timeout")
        })
        .collect();
    for ev in &events {
        send_events(&mut clients[trip_of(ev) as usize], std::slice::from_ref(ev));
    }
    for client in &mut clients {
        client.flush().expect("barrier");
    }

    let mut union = Produced::default();
    for (c, client) in clients.iter_mut().enumerate() {
        let mut got = Produced::default();
        drain(client, &mut got);
        for key in got.scores.keys() {
            assert_eq!(key.0, c as u64, "score cross-delivered to connection {c}");
        }
        for id in got.finals.keys() {
            assert_eq!(*id, c as u64, "completion cross-delivered to connection {c}");
        }
        union.scores.extend(got.scores);
        union.finals.extend(got.finals);
    }
    assert_bit_identical(&union, &reference);

    let ns = server.net_stats();
    assert_eq!(ns.connections_accepted, CONNS as u64);
    assert_eq!(ns.responses_dropped, 0);
    assert_eq!(ns.malformed_frames, 0);
    assert_eq!(ns.slow_consumer_pauses, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Admission-control and overload-protection batteries (scripted): the
// token-bucket rate limiter, idle reaping, the connection quota, and the
// fleet-wide admission watermark — each proven against the production
// `EventLoop` with exact typed-error accounting and bit-identical scoring
// for everything admitted.
// ---------------------------------------------------------------------------

/// The complete wire stream of one trip under an explicit id: start,
/// every segment, end.
fn trip_events(id: u64, t: &Trajectory) -> Vec<Event> {
    let sd = t.sd_pair();
    let mut events =
        vec![Event::TripStart { id, source: sd.source.0, dest: sd.dest.0, time_slot: t.time_slot }];
    events.extend(t.segments.iter().map(|seg| Event::Segment { id, seg: seg.0 }));
    events.push(Event::TripEnd { id });
    events
}

/// Concatenated frame bytes for a slice of events.
fn stream_bytes(events: &[Event]) -> Vec<u8> {
    events.iter().flat_map(frame_bytes).collect()
}

/// The rate-limit battery: a connection that overdraws its token bucket
/// gets **exactly one** typed `Throttled` notice per episode (with a
/// positive `retry_after_ms` hint), its reads pause — observable as an
/// interest transition, exactly like the slow-consumer path — and after
/// the bucket refills, reads resume and the connection keeps streaming.
/// Every event decoded before the pause is admitted and scored
/// **bit-identically**; throttling delays traffic, it never corrupts it.
#[test]
fn scripted_rate_limit_throttles_once_per_episode_and_resumes_bit_identically() {
    use std::time::Duration;

    let (city, model) = trained();
    let base: Vec<&Trajectory> = city.data.test_id.iter().take(2).collect();
    let trip0 = trip_events(0, base[0]);
    let trip1 = trip_events(1, base[1]);
    let all: Vec<Event> = trip0.iter().chain(trip1.iter()).copied().collect();
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &all, cfg.clone());

    // A bucket of 2 tokens refilled at 10/s: each trip (>= 3 events)
    // overdraws it within one tick, and a ~1s pause between bursts
    // refills it back to the cap.
    let net =
        NetConfig { rate_limit_segments_per_s: 10, rate_limit_burst: 2, ..NetConfig::default() };

    let (io0, h0) = scripted_conn();
    h0.push_read(&stream_bytes(&trip0)); // tick 2: episode one
    let mut second = stream_bytes(&trip1); // tick 4: episode two + barrier
    second.extend_from_slice(&request_to_bytes(&Request::Flush));
    h0.push_read(&second);

    let ticks = vec![
        Tick::new().inject(io0),
        Tick::new().readable(0),
        // Real time passes: the bucket refills past zero and the sweep
        // ends the episode, restoring read interest.
        Tick::new().act(|| std::thread::sleep(Duration::from_millis(1100))),
        Tick::new().readable(0),
        Tick::new().act(|| std::thread::sleep(Duration::from_millis(1100))),
        Tick::new(),
    ];

    let core = IngestCore::build(Arc::clone(model), cfg, net).expect("core");
    let source = ScriptedSource::new(ticks);
    let log = source.log_handle();
    EventLoop::new(Arc::clone(&core), source).run();

    let responses = parse_written(&h0.take_written());
    // Both throttle notices carry a positive pacing hint.
    for resp in &responses {
        if let Response::Error { code, retry_after_ms, .. } = resp {
            assert_eq!(*code, ErrorCode::Throttled);
            assert!(
                retry_after_ms.is_some_and(|ms| ms > 0),
                "throttle notice must carry a positive retry_after_ms"
            );
        }
    }
    let (got, stats, errors) = sort_responses(responses);
    assert_eq!(stats, 1, "the flush barrier reply still arrives");
    assert_eq!(
        errors,
        vec![(ErrorCode::Throttled, None), (ErrorCode::Throttled, None)],
        "exactly one typed notice per throttle episode"
    );
    assert_bit_identical(&got, &reference);

    let ns = core.net_stats();
    assert_eq!(ns.throttled_replies, 2, "exactly two throttle episodes");
    assert_eq!(ns.slow_consumer_pauses, 0, "throttling is not the slow-consumer path");
    assert_eq!(ns.responses_dropped, 0);
    let snapshot = core.metrics();
    assert_eq!(snapshot.counter("net.throttled"), Some(2));

    // Interest transitions: pause (readable off) then resume, twice.
    let log = log.lock().unwrap();
    let pauses = log.iter().filter(|&&(k, i)| k == 0 && !i.readable).count();
    let resumes = log.iter().filter(|&&(k, i)| k == 0 && i.readable).count();
    assert_eq!(pauses, 2, "one read pause per episode");
    assert!(resumes >= 2, "reads must resume after each episode");
    drop(log);
    IngestCore::finish(core);
}

/// The idle-reaping battery: a connection holding a live trip is **never**
/// reaped, no matter how long it sits idle past the timeout — its claims
/// survive until the trip completes — while a connection whose trips have
/// all finished is reaped with a typed `IdleTimeout` notice *after* every
/// queued response was delivered.
#[test]
fn scripted_idle_reaping_spares_live_trips_and_notifies_finished_conns() {
    use std::time::Duration;

    let (city, model) = trained();
    let base: Vec<&Trajectory> = city.data.test_id.iter().take(2).collect();
    let trip0 = trip_events(0, base[0]);
    let trip1 = trip_events(1, base[1]);
    let all: Vec<Event> = trip0.iter().chain(trip1.iter()).copied().collect();
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &all, cfg.clone());

    // A 50ms timeout against scripted 100ms idle gaps: every sleep tick
    // pushes both connections well past the threshold, so the live-trip
    // guard is the only thing keeping conn 0 alive.
    let net = NetConfig { idle_timeout: Some(Duration::from_millis(50)), ..NetConfig::default() };
    let flush = request_to_bytes(&Request::Flush);
    let nap = || std::thread::sleep(Duration::from_millis(100));

    let (io0, h0) = scripted_conn();
    let (io1, h1) = scripted_conn();
    // Conn 0 starts its trip but holds it open (no TripEnd yet).
    let held = &trip0[..trip0.len() - 1];
    h0.push_read(&stream_bytes(held));
    // Conn 1 runs a complete trip, plus a barrier so its completion (and
    // the live-trip release) has landed before the next idle scan.
    let mut full = stream_bytes(&trip1);
    full.extend_from_slice(&flush);
    h1.push_read(&full);
    // Conn 0 finally ends its trip (with its own barrier) two scans later.
    let mut finish = stream_bytes(&trip0[trip0.len() - 1..]);
    finish.extend_from_slice(&flush);
    h0.push_read(&finish);

    let ticks = vec![
        Tick::new().inject(io0).inject(io1),
        Tick::new().readable(0).readable(1),
        // Two idle gaps pass: conn 1 (no live trips) is reaped; conn 0
        // (one live trip) survives both despite sitting idle 4x the
        // timeout.
        Tick::new().act(nap),
        Tick::new().act(nap),
        Tick::new().readable(0),
        Tick::new().act(nap),
        Tick::new(),
    ];

    let core = IngestCore::build(Arc::clone(model), cfg, net).expect("core");
    let source = ScriptedSource::new(ticks);
    EventLoop::new(Arc::clone(&core), source).run();

    let mut union = Produced::default();
    for (c, handle) in [h0, h1].iter().enumerate() {
        let responses = parse_written(&handle.take_written());
        // The reap notice is the *last* frame: everything scored was
        // delivered before the close — reaping never drops responses.
        match responses.last() {
            Some(Response::Error { code: ErrorCode::IdleTimeout, trip: None, .. }) => {}
            other => panic!("conn {c}: expected a final IdleTimeout notice, got {other:?}"),
        }
        let (got, stats, errors) = sort_responses(responses);
        assert_eq!(stats, 1, "conn {c} flush barriers");
        assert_eq!(errors, vec![(ErrorCode::IdleTimeout, None)], "conn {c} notices");
        for key in got.scores.keys() {
            assert_eq!(key.0, c as u64, "score cross-delivered to conn {c}");
        }
        union.scores.extend(got.scores);
        union.finals.extend(got.finals);
    }
    assert_bit_identical(&union, &reference);

    let ns = core.net_stats();
    assert_eq!(ns.idle_reaped, 2, "both conns reaped once their trips finished");
    assert_eq!(ns.responses_dropped, 0);
    let snapshot = core.metrics();
    assert_eq!(snapshot.counter("net.idle_reaped"), Some(2));
    IngestCore::finish(core);
}

/// The connection-quota battery: a transport over `max_connections` is
/// answered with one clean typed `ConnLimit` error — a decodable frame,
/// not a silent hangup — and never registered, while the admitted
/// connection streams bit-identically, unaffected.
#[test]
fn scripted_connection_quota_rejects_typed_not_a_hangup() {
    let (city, model) = trained();
    let trip = trip_events(0, city.data.test_id.first().expect("trips"));
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &trip, cfg.clone());

    let net = NetConfig { max_connections: 1, ..NetConfig::default() };

    let (io0, h0) = scripted_conn();
    let (io1, h1) = scripted_conn();
    let mut stream = stream_bytes(&trip);
    stream.extend_from_slice(&request_to_bytes(&Request::Flush));
    h0.push_read(&stream);

    let ticks = vec![Tick::new().inject(io0).inject(io1), Tick::new().readable(0), Tick::new()];

    let core = IngestCore::build(Arc::clone(model), cfg, net).expect("core");
    let source = ScriptedSource::new(ticks);
    EventLoop::new(Arc::clone(&core), source).run();

    // The rejected transport got exactly one decodable typed error.
    let rejected = parse_written(&h1.take_written());
    match rejected.as_slice() {
        [Response::Error {
            code: ErrorCode::ConnLimit,
            trip: None,
            retry_after_ms: None,
            detail,
        }] => {
            assert!(detail.contains("quota"), "detail names the quota: {detail}");
        }
        other => panic!("expected exactly one ConnLimit error, got {other:?}"),
    }

    // The admitted connection is untouched: full bit-identical stream.
    let (got, stats, errors) = sort_responses(parse_written(&h0.take_written()));
    assert_eq!(stats, 1);
    assert!(errors.is_empty(), "admitted conn got errors: {errors:?}");
    assert_bit_identical(&got, &reference);

    let ns = core.net_stats();
    assert_eq!(ns.conns_rejected, 1);
    assert_eq!(ns.connections_accepted, 1, "the rejected transport was never registered");
    let snapshot = core.metrics();
    assert_eq!(snapshot.counter("net.conns_rejected"), Some(1));
    IngestCore::finish(core);
}

/// The admission-watermark battery: with the fleet at its session
/// watermark, a **new** `TripStart` (and its same-cohort events) is shed
/// with a typed `Throttled` reply carrying the engine's configured retry
/// hint — while the already-admitted trips keep scoring bit-identically.
/// Shed counts are exact on both the serve and net ledgers.
#[test]
fn scripted_admission_watermark_sheds_new_trips_while_inflight_keep_scoring() {
    use std::time::Duration;

    let (city, model) = trained();
    let base: Vec<&Trajectory> = city.data.test_id.iter().take(3).collect();
    let trip0 = trip_events(0, base[0]);
    let trip1 = trip_events(1, base[1]);
    let cfg = FleetConfig {
        num_shards: 2,
        admission_session_watermark: 2,
        admission_retry_after: Duration::from_millis(250),
        ..FleetConfig::default()
    };
    // The reference scores only what admission admits: trips 0 and 1.
    let admitted: Vec<Event> = trip0.iter().chain(trip1.iter()).copied().collect();
    let reference = in_process(model, &admitted, cfg.clone());

    let flush = request_to_bytes(&Request::Flush);
    let (io0, h0) = scripted_conn();
    // Tick 2: both trips start (admitted — the fleet was empty when the
    // cohort entered). The barrier pins active_sessions at 2 before the
    // next tick's admission check.
    let mut first = Vec::new();
    first.extend_from_slice(&frame_bytes(&trip0[0]));
    first.extend_from_slice(&frame_bytes(&trip1[0]));
    first.extend_from_slice(&flush);
    h0.push_read(&first);
    // Tick 3: at the watermark, trip 2 tries to start and stream one
    // segment — both shed — while trips 0 and 1 stream their bodies.
    let sd2 = base[2].sd_pair();
    let start2 = Event::TripStart {
        id: 2,
        source: sd2.source.0,
        dest: sd2.dest.0,
        time_slot: base[2].time_slot,
    };
    let seg2 = Event::Segment { id: 2, seg: base[2].segments[0].0 };
    let mut second = Vec::new();
    second.extend_from_slice(&frame_bytes(&start2));
    second.extend_from_slice(&frame_bytes(&seg2));
    second.extend_from_slice(&stream_bytes(&trip0[1..]));
    second.extend_from_slice(&stream_bytes(&trip1[1..]));
    second.extend_from_slice(&flush);
    h0.push_read(&second);

    let ticks = vec![
        Tick::new().inject(io0),
        Tick::new().readable(0),
        Tick::new().readable(0),
        Tick::new(),
    ];

    let core = IngestCore::build(Arc::clone(model), cfg, NetConfig::default()).expect("core");
    let source = ScriptedSource::new(ticks);
    EventLoop::new(Arc::clone(&core), source).run();

    let responses = parse_written(&h0.take_written());
    // Every shed reply names the refused trip and carries the engine's
    // configured pacing hint.
    for resp in &responses {
        if let Response::Error { code, trip, retry_after_ms, .. } = resp {
            assert_eq!(*code, ErrorCode::Throttled);
            assert_eq!(*trip, Some(2), "only trip 2 is shed");
            assert_eq!(*retry_after_ms, Some(250), "the FleetConfig retry hint rides the wire");
        }
    }
    let (got, stats, errors) = sort_responses(responses);
    assert_eq!(stats, 2, "both flush barriers answered");
    assert_eq!(
        errors,
        vec![(ErrorCode::Throttled, Some(2)), (ErrorCode::Throttled, Some(2))],
        "the shed TripStart and its same-cohort segment each get a typed reply"
    );
    assert!(
        got.scores.keys().all(|&(id, _)| id < 2) && !got.finals.contains_key(&2),
        "a shed trip must never score"
    );
    assert_bit_identical(&got, &reference);

    let snapshot = core.metrics();
    assert_eq!(snapshot.counter("serve.admission_shed"), Some(2));
    assert_eq!(snapshot.counter("net.throttled"), Some(2));
    let ns = core.net_stats();
    assert_eq!(ns.throttled_replies, 2);
    assert_eq!(ns.responses_dropped, 0);
    IngestCore::finish(core);
}
