//! End-to-end equivalence battery for the `tad-router` tier: scores fed
//! through a router over N independent `tad-net` backends are
//! **bit-identical** to a single in-process `FleetEngine` ingesting the
//! same event stream — for every cohort composition, across fleet sizes,
//! across a routed snapshot captured from N backends and restored onto M,
//! and under partial failure (a dead backend surfaces typed errors while
//! healthy backends keep scoring).
//!
//! Bit-exactness holds because the router preserves per-trip event order
//! end to end (pure trip→backend assignment, one FIFO pipeline per
//! backend) and `CausalTad::push_batch` is bit-identical to sequential
//! `push_state` for every cohort composition — so it does not matter
//! which engine a trip lands on or how its events batch up there.

mod common;

use std::net::{Shutdown, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use causaltad_suite::core::CausalTad;
use causaltad_suite::net::{Client, ClientError, ErrorCode, NetConfig, NetServer, Response};
use causaltad_suite::router::{backend_for, split_image, RouterServer};
use causaltad_suite::serve::{image_from_bytes, Completion, Event, FleetConfig};
use causaltad_suite::trajsim::Trajectory;
use common::{
    assert_bit_identical, drain, in_process, interleave, send_events, trained, trip_of, Produced,
};

/// Spins up `n` independent backend servers and a router over all of them.
fn spawn_fleet(
    model: &Arc<CausalTad>,
    n: usize,
    cfg: FleetConfig,
) -> (Vec<NetServer>, RouterServer) {
    spawn_fleet_on(model, n, cfg, NetConfig::default())
}

/// [`spawn_fleet`] with the backends' front-door config.
fn spawn_fleet_on(
    model: &Arc<CausalTad>,
    n: usize,
    cfg: FleetConfig,
    net: NetConfig,
) -> (Vec<NetServer>, RouterServer) {
    let backends: Vec<NetServer> = (0..n)
        .map(|_| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(cfg.clone())
                .net_config(net.clone())
                .bind("127.0.0.1:0")
                .expect("bind backend")
        })
        .collect();
    let router = RouterServer::builder()
        .backends(backends.iter().map(|b| b.local_addr()))
        .bind("127.0.0.1:0")
        .expect("bind router");
    (backends, router)
}

/// The core acceptance test: for 2- and 3-backend fleets, every
/// per-segment and final score produced through the router is
/// bit-identical to one in-process engine fed the same stream, the
/// aggregated `Flush` stats count the whole fleet, and each backend saw
/// exactly its partition of the trips.
#[test]
fn routed_scores_match_in_process_ingest_bit_exactly() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg.clone());
    assert_eq!(reference.finals.len(), trips.len());

    for n_backends in [2usize, 3] {
        let (backends, router) = spawn_fleet(model, n_backends, cfg.clone());
        let mut client = Client::connect(router.local_addr()).expect("connect");
        send_events(&mut client, &events);
        let stats = client.flush().expect("fleet-wide barrier");
        assert_eq!(stats.trips_completed, trips.len() as u64, "aggregated completion count");
        assert_eq!(stats.rejected, 0);

        let mut routed = Produced::default();
        drain(&mut client, &mut routed);
        assert_bit_identical(&routed, &reference);

        // Trip stickiness: each backend engine started exactly the trips
        // the partitioner assigns it, and nothing else.
        for (idx, backend) in backends.iter().enumerate() {
            let own = (0..trips.len() as u64)
                .filter(|&id| backend_for(id, n_backends as u32) == idx as u32)
                .count() as u64;
            assert_eq!(backend.stats().trips_started, own, "backend {idx} partition");
        }
        let rstats = router.stats();
        assert_eq!(rstats.responses_dropped, 0);
        assert_eq!(rstats.backends_alive, n_backends as u64);
        router.shutdown();
        for backend in backends {
            backend.shutdown();
        }
    }
}

/// The routed warm-restart acceptance test: stream half the fleet through
/// a router over 2 backends, capture the **merged** snapshot over the
/// wire, kill the whole tier, re-partition the capture onto 3 fresh
/// backends with `split_image`, finish the stream through a new router —
/// and require every score across both phases to be bit-identical to one
/// uninterrupted in-process engine.
#[test]
fn routed_snapshot_restores_n_to_m_bit_exactly() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(10).collect();
    let events = interleave(&trips);
    let split = trips.len() + (events.len() - trips.len()) * 2 / 5;
    let cfg = || FleetConfig { num_shards: 2, max_batch: 32, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg());

    let mut routed = Produced::default();

    // Phase A: 2 backends, half the traffic, merged snapshot over the wire.
    let (backends_a, router_a) = spawn_fleet(model, 2, cfg());
    let mut client_a = Client::connect(router_a.local_addr()).expect("connect");
    send_events(&mut client_a, &events[..split]);
    client_a.flush().expect("barrier");
    let blob = client_a.snapshot().expect("merged snapshot over the wire");
    drain(&mut client_a, &mut routed);
    drop(client_a);
    router_a.shutdown();
    for backend in backends_a {
        backend.shutdown(); // the "crash": every live session is gone
    }

    // Phase B: re-partition the 2-backend capture onto a 3-backend fleet.
    let image = image_from_bytes(blob).expect("merged blob decodes");
    let captured = image.sessions.len();
    assert!(captured > 0, "capture point should leave sessions in flight");
    let parts = split_image(image, 3);
    for (idx, part) in parts.iter().enumerate() {
        for rec in &part.sessions {
            assert_eq!(
                backend_for(rec.id, 3),
                idx as u32,
                "restore partition must align with event routing"
            );
        }
    }
    let backends_b: Vec<NetServer> = parts
        .into_iter()
        .map(|part| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(FleetConfig {
                    num_shards: 3,
                    max_batch: 32,
                    ..FleetConfig::default()
                })
                .resume(part)
                .bind("127.0.0.1:0")
                .expect("bind restored backend")
        })
        .collect();
    let router_b = RouterServer::builder()
        .backends(backends_b.iter().map(|b| b.local_addr()))
        .bind("127.0.0.1:0")
        .expect("bind router");
    let mut client_b = Client::connect(router_b.local_addr()).expect("connect");
    send_events(&mut client_b, &events[split..]);
    let stats = client_b.flush().expect("barrier");
    assert_eq!(stats.sessions_restored, captured as u64, "aggregated restore count");
    drain(&mut client_b, &mut routed);

    assert_bit_identical(&routed, &reference);
    assert_eq!(router_b.stats().responses_dropped, 0);
    router_b.shutdown();
    for backend in backends_b {
        backend.shutdown();
    }
}

/// Fan-in isolation: producers streaming disjoint trips through the same
/// router concurrently — two, then 64 thin connections each owning one
/// trip — each receive exactly their own trips' responses (their union
/// still bit-identical to in-process ingest), and a `TripStart` for an id
/// another live connection owns is refused with a typed reject that does
/// not disturb the owner.
#[test]
fn router_fans_in_to_the_owning_front_connection_only() {
    let (city, model) = trained();
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let (backends, router) = spawn_fleet(model, 2, cfg.clone());
    let addr = router.local_addr();

    // 8 trips over 2 producers, then 64 over 64 (trajectories reused
    // cyclically; the engine keys routing and state on the id).
    for (producers, n_trips) in [(2u64, 8), (64, 64)] {
        let trips: Vec<&Trajectory> = city.data.test_id.iter().cycle().take(n_trips).collect();
        let events = interleave(&trips);
        let reference = in_process(model, &events, cfg.clone());
        let handles: Vec<_> = (0..producers)
            .map(|producer| {
                let own: Vec<Event> = events
                    .iter()
                    .copied()
                    .filter(|ev| trip_of(ev) % producers == producer)
                    .collect();
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
        let mut routed = Produced::default();
        for (producer, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("producer thread");
            for &(id, _) in got.scores.keys() {
                assert_eq!(id % producers, producer as u64, "cross-delivered score");
            }
            for &id in got.finals.keys() {
                assert_eq!(id % producers, producer as u64, "cross-delivered completion");
            }
            routed.scores.extend(got.scores);
            routed.finals.extend(got.finals);
        }
        assert_bit_identical(&routed, &reference);
    }

    // Ownership is enforced at the router: a second connection cannot
    // start a trip a live connection owns.
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let mut owner = Client::connect(addr).expect("connect");
    let mut intruder = Client::connect(addr).expect("connect");
    owner.trip_start(100, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    owner.flush().expect("barrier");
    intruder.trip_start(100, sd.source.0, sd.dest.0, t.time_slot).expect("write");
    intruder.flush().expect("barrier");
    match intruder.try_recv() {
        Some(Response::Error { code: ErrorCode::Rejected, trip: Some(100), .. }) => {}
        other => panic!("expected Rejected for trip 100, got {other:?}"),
    }
    owner.segment(100, t.segments[0].0).expect("write");
    owner.trip_end(100).expect("write");
    owner.flush().expect("barrier");
    let mut scored = 0;
    let mut completed = false;
    while let Some(resp) = owner.try_recv() {
        match resp {
            Response::Score(u) => {
                assert_eq!(u.id, 100);
                scored += 1;
            }
            Response::TripComplete(tc) => {
                assert_eq!((tc.id, tc.completion), (100, Completion::Ended));
                completed = true;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!((scored, completed), (1, true), "the owner's trip was undisturbed");
    router.shutdown();
    let live: u64 = backends.into_iter().map(|b| b.shutdown().active_sessions).sum();
    assert_eq!(live, 0, "every trip was ended");
}

/// Sanitization through the routed tier: backends configured with a dedup
/// window score a duplicated multi-trip stream bit-identically to the
/// clean stream through one in-process engine, and every
/// `PolicyNotice` fans in to the front connection that owns the trip —
/// the producer sees the same notices it would get talking to a backend
/// directly, and the fleet-merged metrics count every drop and every
/// off-network jump scored through.
#[test]
fn policy_notices_fan_in_through_the_router_to_the_owner() {
    use causaltad_suite::serve::{PolicyAction, StreamPolicy};

    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(6).collect();
    // Every trip ends on an off-network jump: a segment that is neither a
    // road-graph successor of its last one nor on the trip. The default
    // `GapPolicy::ScoreThrough` admits it, charged as an unpoliced engine
    // charges it, and says so with a notice.
    let jump = |t: &Trajectory| -> u32 {
        let last = t.segments.last().expect("non-empty trip").0;
        (0..)
            .find(|&s| {
                !model.successors_of(last).contains(&s) && t.segments.iter().all(|seg| seg.0 != s)
            })
            .expect("a segment off the trip")
    };
    let clean: Vec<Event> = interleave(&trips)
        .into_iter()
        .flat_map(|ev| match ev {
            Event::TripEnd { id } => vec![Event::Segment { id, seg: jump(trips[id as usize]) }, ev],
            other => vec![other],
        })
        .collect();
    // At-least-once transport: every segment frame arrives twice.
    let dirty: Vec<Event> = clean
        .iter()
        .flat_map(|&ev| match ev {
            Event::Segment { .. } => vec![ev, ev],
            other => vec![other],
        })
        .collect();
    let segments: usize = trips.iter().map(|t| t.len() + 1).sum();

    // Reference: the *clean* stream through one unpoliced engine.
    let reference = in_process(model, &clean, FleetConfig::default());

    let cfg = FleetConfig {
        num_shards: 2,
        policy: StreamPolicy { dedup_window: 2, ..StreamPolicy::default() },
        ..FleetConfig::default()
    };
    let (backends, router) = spawn_fleet(model, 2, cfg);
    let addr = router.local_addr();
    let handles: Vec<_> = (0..2u64)
        .map(|producer| {
            let own: Vec<Event> =
                dirty.iter().copied().filter(|ev| trip_of(ev) % 2 == producer).collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                send_events(&mut client, &own);
                client.flush().expect("barrier");
                let mut got = Produced::default();
                let mut notices = Vec::new();
                while let Some(resp) = client.try_recv() {
                    match resp {
                        Response::Score(u) => {
                            got.scores.insert((u.id, u.seq), u.score.to_bits());
                        }
                        Response::TripComplete(tc) => {
                            if tc.completion == Completion::Ended {
                                got.finals.insert(tc.id, (tc.score.to_bits(), tc.segments()));
                            }
                        }
                        Response::PolicyNotice { id, action, seg } => {
                            assert!(seg.is_some());
                            notices.push((id, action));
                        }
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
                (got, notices)
            })
        })
        .collect();
    let mut routed = Produced::default();
    let (mut dedup_notices, mut gap_notices) = (0u64, 0u64);
    for (producer, handle) in handles.into_iter().enumerate() {
        let (got, notices) = handle.join().expect("producer thread");
        for &(id, action) in &notices {
            assert_eq!(id % 2, producer as u64, "notice fanned in to the wrong producer");
            match action {
                PolicyAction::DedupDropped => dedup_notices += 1,
                PolicyAction::GapScoredThrough => gap_notices += 1,
                other => panic!("unexpected policy action: {other:?}"),
            }
        }
        routed.scores.extend(got.scores);
        routed.finals.extend(got.finals);
    }
    assert_bit_identical(&routed, &reference);
    assert_eq!(dedup_notices, segments as u64, "one notice per duplicated segment");
    assert_eq!(gap_notices, trips.len() as u64, "one notice per off-network jump");

    // The fleet-merged metrics balance the wire notices: every policy
    // action was both counted and delivered, none invented.
    let mut client = Client::connect(addr).expect("connect");
    let fleet = client.metrics().expect("fleet metrics");
    assert_eq!(fleet.counter("serve.dedup_dropped"), Some(dedup_notices));
    assert_eq!(fleet.counter("serve.gap_score_through"), Some(gap_notices));
    assert_eq!(router.stats().responses_dropped, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The observability acceptance test: one `MetricsRequest` against the
/// router returns the fleet view — every backend's registry plus the
/// router's own — and that wire-merged snapshot is **bit-identical**
/// (struct equality and re-encoded bytes) to merging the same registries
/// in process. Arrival order at the barrier cannot matter because the
/// histogram merge is an exact element-wise sum, hence commutative.
///
/// Run twice: over unlimited backends, then over backends whose ingest
/// rate limit throttles the router's links. The second run adds the
/// throttle ledger: every episode notice a backend emitted
/// (`net.throttled`) was counted exactly once at the router, on the link
/// it came from (`router.backend.N.throttled`, summing to
/// `router.throttled`). No wait is needed: a link's throttle notices are
/// queued ahead of its reply to the `Flush` barrier.
#[test]
fn fleet_metrics_merged_over_the_wire_match_in_process_aggregation() {
    use causaltad_suite::metrics::{snapshot_to_bytes, MetricsSnapshot};

    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(10).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    // A bucket of 4 refilled at 500 events/s: each link's share of the
    // stream arrives in a burst that overdraws it.
    let limited =
        NetConfig { rate_limit_segments_per_s: 500, rate_limit_burst: 4, ..NetConfig::default() };
    for net in [NetConfig::default(), limited] {
        let rate_limited = net.rate_limit_segments_per_s > 0;
        let (backends, router) = spawn_fleet_on(model, 2, cfg.clone(), net);
        let mut client = Client::connect(router.local_addr()).expect("connect");
        send_events(&mut client, &events);
        client.flush().expect("fleet barrier");
        let mut routed = Produced::default();
        drain(&mut client, &mut routed);
        assert_eq!(routed.finals.len(), trips.len());

        let fleet = client.metrics().expect("fleet metrics over the wire");

        // In-process ground truth, computed after the wire answer at a
        // quiesced point: the same registries must merge to the same bits.
        let parts: Vec<MetricsSnapshot> =
            backends.iter().map(|b| b.metrics()).chain([router.metrics()]).collect();
        let expect = MetricsSnapshot::merged(&parts);
        assert_eq!(fleet, expect, "wire-merged fleet metrics must equal in-process aggregation");
        assert_eq!(
            snapshot_to_bytes(&fleet),
            snapshot_to_bytes(&expect),
            "wire-merged fleet metrics must re-encode to identical bytes"
        );

        // The single snapshot covers all three tiers. Serve: one latency
        // sample per scored segment, fleet-wide.
        let segments: u64 = trips.iter().map(|t| t.segments.len() as u64).sum();
        let lat = fleet.histogram("serve.score_latency_ns").expect("serve histogram");
        assert_eq!(lat.count, segments, "one fleet-wide latency sample per segment");
        // Router: one forward sample per ingest event, and the per-backend
        // split sums to the total.
        let fwd = fleet.histogram("router.forward_ns").expect("router histogram");
        assert_eq!(fwd.count, events.len() as u64, "one forward sample per ingest event");
        let per_backend: u64 = (0..2)
            .map(|i| {
                fleet.histogram(&format!("router.backend.{i}.forward_ns")).map_or(0, |h| h.count)
            })
            .sum();
        assert_eq!(per_backend, fwd.count, "per-backend forwards sum to the fleet total");
        // Net: both backends decoded frames.
        assert!(fleet.histogram("net.frame_decode_ns").expect("net histogram").count > 0);

        // The throttle ledger, link by link, then fleet-wide.
        let counter = |snapshot: &MetricsSnapshot, name: &str| snapshot.counter(name).unwrap_or(0);
        for (i, backend) in parts[..2].iter().enumerate() {
            assert_eq!(
                counter(&fleet, &format!("router.backend.{i}.throttled")),
                counter(backend, "net.throttled"),
                "link {i}: the router counts every throttle notice its backend emitted"
            );
        }
        let throttled = counter(&fleet, "net.throttled");
        assert_eq!(throttled > 0, rate_limited, "throttling engages exactly under a rate limit");
        assert_eq!(counter(&fleet, "router.throttled"), throttled, "router throttle ledger");
        assert_eq!(counter(&fleet, "net.idle_reaped"), 0, "no collateral reaping");
        assert_eq!(counter(&fleet, "net.conns_rejected"), 0, "no collateral rejects");

        router.shutdown();
        for backend in backends {
            backend.shutdown();
        }
    }
}

/// Fault injection: killing one backend mid-stream surfaces typed
/// `EngineClosed` errors for its trips to the affected front connection —
/// both for the loss itself and for any later event routed to the dead
/// backend — while trips on the healthy backend keep scoring, complete
/// normally, and the fleet-wide flush barrier still answers.
#[test]
fn dead_backend_surfaces_typed_errors_without_stalling_healthy_trips() {
    let (city, model) = trained();
    let id_dead = (0..).find(|&i| backend_for(i, 2) == 0).expect("some id maps to backend 0");
    let id_live = (0..).find(|&i| backend_for(i, 2) == 1).expect("some id maps to backend 1");
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (mut backends, router) = spawn_fleet(model, 2, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");

    for &id in &[id_dead, id_live] {
        client.trip_start(id, sd.source.0, sd.dest.0, t.time_slot).expect("write");
        client.segment(id, t.segments[0].0).expect("write");
    }
    client.flush().expect("both backends healthy");

    // Kill the backend owning `id_dead`; wait for the router to notice
    // the dead link (it learns asynchronously, from the broken socket).
    backends.remove(0).shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.stats().backends_alive != 1 {
        assert!(Instant::now() < deadline, "router never noticed the dead backend");
        std::thread::sleep(Duration::from_millis(10));
    }

    client.segment(id_dead, t.segments[1].0).expect("write");
    client.segment(id_live, t.segments[1].0).expect("write");
    client.trip_end(id_live).expect("write");
    let stats = client.flush().expect("flush must still answer over the surviving backend");
    assert_eq!(stats.trips_completed, 1);

    let mut dead_errors = 0;
    let mut live_scores = 0;
    let mut live_final = None;
    while let Some(resp) = client.try_recv() {
        match resp {
            Response::Error { code: ErrorCode::EngineClosed, trip: Some(id), .. } => {
                assert_eq!(id, id_dead, "only the dead backend's trip errors");
                dead_errors += 1;
            }
            Response::Score(u) => {
                if u.id == id_live {
                    live_scores += 1;
                } else {
                    assert_eq!(u.id, id_dead, "pre-kill score for the doomed trip");
                }
            }
            Response::TripComplete(tc) => {
                assert_eq!((tc.id, tc.completion), (id_live, Completion::Ended));
                live_final = Some(tc);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(dead_errors >= 1, "the dead trip surfaced at least one typed error");
    assert_eq!(live_scores, 2, "the healthy trip scored every segment");
    assert_eq!(live_final.expect("healthy trip completed").segments(), 2);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Liveness for producers wedged behind a dead link: a backend that
/// stalls (never reads) fills the link's write buffer, then its bounded
/// channel, until the front reader blocks in the channel send — the
/// designed backpressure point. When that backend then dies, the mux
/// must drop the link's channel receiver at reap time so the blocked
/// producer is woken with a send error immediately, and the router's
/// shutdown (which queues a per-link `Close` on that same channel) must
/// complete instead of hanging on the full channel. A second, healthy
/// backend keeps the mux thread running, so receiver cleanup cannot be
/// deferred to mux exit.
#[test]
fn dead_stalled_backend_unblocks_producers_and_shutdown() {
    let (city, model) = trained();
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let (source, dest, slot) = (sd.source.0, sd.dest.0, t.time_slot);

    // Victim backend 0: accepts the router's link and never reads.
    let stall = TcpListener::bind("127.0.0.1:0").expect("bind stalled backend");
    let stall_addr = stall.local_addr().expect("stalled backend addr");
    let accepter = std::thread::spawn(move || {
        let (sock, _) = stall.accept().expect("accept router link");
        sock
    });

    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let healthy =
        NetServer::builder(Arc::clone(model)).fleet_config(cfg).bind("127.0.0.1:0").expect("bind");
    let router = RouterServer::builder()
        .backends([stall_addr, healthy.local_addr()])
        .bind("127.0.0.1:0")
        .expect("bind router");
    let victim_sock = accepter.join().expect("router connected to the stalled backend");

    // Producer: hammer trips owned by the stalled backend until told to
    // stop (it cannot make progress while the victim is alive and every
    // buffer in between is full).
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let sent = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (progress, halt) = (Arc::clone(&sent), Arc::clone(&stop));
    let producer = std::thread::spawn(move || {
        for id in (0..u64::MAX).filter(|&i| backend_for(i, 2) == 0) {
            if halt.load(Ordering::Relaxed) || client.trip_start(id, source, dest, slot).is_err() {
                break;
            }
            progress.fetch_add(1, Ordering::Relaxed);
        }
    });

    // Wait until the producer is actually wedged: the sent counter stops
    // moving once every buffer between client and victim is full and the
    // front reader is blocked in the link channel send.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let before = sent.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(300));
        if sent.load(Ordering::Relaxed) == before {
            break;
        }
        assert!(Instant::now() < deadline, "producer never hit the backpressure point");
    }
    assert!(!producer.is_finished(), "producer must be blocked, not errored, pre-kill");

    // Kill the victim. The mux reaps the link; dropping the channel
    // receiver is what wakes the front reader blocked in the send.
    victim_sock.shutdown(Shutdown::Both).expect("kill victim link");
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.stats().backends_alive != 1 {
        assert!(Instant::now() < deadline, "router never noticed the dead backend");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The woken front reader drains the backlog (typed errors now, no
    // forwarding), so the producer's writes start landing again: resumed
    // progress is the observable proof that the blocked channel send was
    // failed rather than leaked.
    let wedged = sent.load(Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(20);
    while sent.load(Ordering::Relaxed) == wedged {
        assert!(Instant::now() < deadline, "producer was never unblocked after the link died");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Stop the producer while its writes still flow (after the router's
    // front sockets close, a blocked client write can linger for the
    // whole TCP orphan timeout — kernel behaviour, not router liveness).
    stop.store(true, Ordering::Relaxed);
    producer.join().expect("producer thread");

    // Shutdown queues a blocking per-link `Close`: this hangs forever if
    // the dead link's channel receiver leaked with a full channel.
    let shut = std::thread::spawn(move || router.shutdown());
    let deadline = Instant::now() + Duration::from_secs(20);
    while !shut.is_finished() {
        assert!(Instant::now() < deadline, "router shutdown hung on the dead link's channel");
        std::thread::sleep(Duration::from_millis(20));
    }
    shut.join().expect("shutdown thread");
    healthy.shutdown();
}

/// Liveness under racing failure: fleet-wide flush barriers hammered
/// while a backend dies mid-stream must *always* resolve — with
/// aggregated stats (before the kill, or over the survivor once the dead
/// link is noticed) or a typed barrier failure (when the kill lands
/// mid-barrier) — never by hanging. This is the regression guard for the
/// staging race where a barrier accepted onto a dying backend's channel
/// missed both the wire and the backend-down sweep.
#[test]
fn flush_barriers_racing_a_backend_kill_always_resolve() {
    let (_, model) = trained();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (mut backends, router) = spawn_fleet(model, 2, cfg);
    let mut client = Client::connect(router.local_addr())
        .expect("connect")
        .with_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout set");

    let victim = backends.remove(0);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        victim.shutdown();
    });
    let mut served = 0usize;
    let mut failed = 0usize;
    for _ in 0..200 {
        match client.flush() {
            Ok(_) => served += 1,
            // The kill landed mid-barrier: a typed failure, not a hang.
            Err(ClientError::Server { .. }) => failed += 1,
            Err(ClientError::Timeout) => {
                panic!(
                    "flush hung: a barrier was never resolved (after {served} ok, {failed} failed)"
                )
            }
            Err(other) => panic!("unexpected flush failure: {other}"),
        }
    }
    killer.join().expect("killer thread");
    assert!(served > 0, "flushes must keep being served before and after the kill");
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Availability tier: failover, drain/handoff, rebalance, barrier semantics
// ---------------------------------------------------------------------------

use causaltad_suite::router::{RouterAdminError, RouterError};

/// Spins up `n` active backends plus `s` standbys and a router over all
/// of them. The returned server list is actives first, then standbys.
fn spawn_fleet_with_standbys(
    model: &Arc<CausalTad>,
    n: usize,
    s: usize,
    cfg: FleetConfig,
) -> (Vec<NetServer>, RouterServer) {
    let backends: Vec<NetServer> = (0..n + s)
        .map(|_| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(cfg.clone())
                .bind("127.0.0.1:0")
                .expect("bind backend")
        })
        .collect();
    let router = RouterServer::builder()
        .backends(backends.iter().take(n).map(|b| b.local_addr()))
        .standbys(backends.iter().skip(n).map(|b| b.local_addr()))
        .bind("127.0.0.1:0")
        .expect("bind router");
    (backends, router)
}

/// Drains a client like [`drain`] but also counts raw `Score` and
/// `TripComplete` frames — the exactly-once ledger a `Produced` map
/// (keyed, last-write-wins) cannot see duplicates in.
fn drain_counted(client: &mut Client, produced: &mut Produced) -> (usize, usize) {
    let mut scores = 0usize;
    let mut completes = 0usize;
    while let Some(resp) = client.try_recv() {
        match resp {
            Response::Score(u) => {
                scores += 1;
                produced.scores.insert((u.id, u.seq), u.score.to_bits());
            }
            Response::TripComplete(tc) => {
                completes += 1;
                if tc.completion == Completion::Ended {
                    produced.finals.insert(tc.id, (tc.score.to_bits(), tc.segments()));
                }
            }
            Response::Error { code, trip, detail, .. } => {
                panic!("unexpected error frame: {code} trip={trip:?} {detail}")
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    (scores, completes)
}

/// The failover acceptance test: checkpoint the fleet (full, then
/// incremental `TADD` captures), keep streaming, kill an active backend,
/// keep streaming *through the failover* — and require the producer's
/// complete response stream to be bit-identical to an uninterrupted
/// in-process engine, with every score delivered exactly once and zero
/// error frames.
#[test]
fn failover_to_standby_is_bit_identical_and_exactly_once() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };

    let reference = in_process(model, &events, cfg.clone());
    let total_segments = reference.scores.len();

    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();
    let (mut raw_scores, mut raw_completes) = (0usize, 0usize);
    let count = |pair: (usize, usize), raw_scores: &mut usize, raw_completes: &mut usize| {
        *raw_scores += pair.0;
        *raw_completes += pair.1;
    };

    // Phase 1: stream a third, checkpoint — every capture is a full
    // image (nothing is armed yet).
    let (a, b) = (events.len() / 3, events.len() * 2 / 3);
    send_events(&mut client, &events[..a]);
    client.flush().expect("barrier");
    count(drain_counted(&mut client, &mut routed), &mut raw_scores, &mut raw_completes);
    let sweep = router.checkpoint().expect("first checkpoint sweep");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (2, 0), "cold sweep is full");

    // Phase 2: more churn, checkpoint again — now the chains are armed
    // and every capture is an incremental delta.
    send_events(&mut client, &events[a..b]);
    client.flush().expect("barrier");
    count(drain_counted(&mut client, &mut routed), &mut raw_scores, &mut raw_completes);
    let sweep = router.checkpoint().expect("second checkpoint sweep");
    assert_eq!((sweep.full_captures, sweep.delta_captures), (0, 2), "warm sweep is delta");

    // Phase 3: kill active backend 0 and keep streaming without waiting
    // for the router to notice — producers must ride the failover out.
    backends.remove(0).shutdown();
    send_events(&mut client, &events[b..]);
    client.flush().expect("flush rides out the failover");
    count(drain_counted(&mut client, &mut routed), &mut raw_scores, &mut raw_completes);

    assert_bit_identical(&routed, &reference);
    assert_eq!(raw_scores, total_segments, "every score exactly once, no duplicates");
    assert_eq!(raw_completes, trips.len(), "every completion exactly once");

    let stats = router.stats();
    assert_eq!(stats.failovers, 1, "exactly one promotion");
    assert_eq!(stats.standbys_available, 0, "the standby was consumed");
    assert_eq!(stats.partition_epoch, 1, "the map flipped once");
    assert!(stats.last_recovery_micros > 0, "recovery time was measured");
    assert_eq!(stats.backends_alive, 2, "two of three links remain");
    let metrics = router.metrics();
    assert_eq!(metrics.counter("router.failovers"), Some(1));

    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Failover with *no checkpoint ever taken*: the journal base is the
/// empty fleet and the tail is the entire forwarded history, so the
/// promoted standby replays the dead backend's whole life — still
/// bit-identical, still exactly-once.
#[test]
fn failover_without_checkpoint_replays_from_the_empty_base() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(8).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();

    let split = events.len() / 2;
    send_events(&mut client, &events[..split]);
    client.flush().expect("barrier");
    let (s1, c1) = drain_counted(&mut client, &mut routed);
    backends.remove(0).shutdown();
    send_events(&mut client, &events[split..]);
    client.flush().expect("flush rides out the failover");
    let (s2, c2) = drain_counted(&mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    assert_eq!(s1 + s2, reference.scores.len(), "every score exactly once");
    assert_eq!(c1 + c2, trips.len(), "every completion exactly once");
    assert_eq!(router.stats().failovers, 1);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The replay ledger under a stream policy: a trip that trips the dedup
/// policy *and completes* between the checkpoint and the kill is in the
/// journal tail, so the promoted standby replays its whole life — scores,
/// the `PolicyNotice`, the completion — for a route that is long gone.
/// All of it is replay-induced and must be suppressed (counted in
/// `router.replay_suppressed`), never counted as a dropped response: the
/// producer already has every one of those replies, exactly once.
#[test]
fn failover_replay_suppresses_policy_notices_of_finished_trips() {
    use causaltad_suite::serve::{PolicyAction, StreamPolicy};

    let (city, model) = trained();
    let mut on_victim = (0..).filter(|&id| backend_for(id, 2) == 0);
    let (done_id, live_id) = (on_victim.next().unwrap(), on_victim.next().unwrap());
    let (done, live) = (&city.data.test_id[0], &city.data.test_id[1]);
    let events_of = |id: u64, t: &Trajectory| -> Vec<Event> {
        let sd = t.sd_pair();
        let start =
            Event::TripStart { id, source: sd.source.0, dest: sd.dest.0, time_slot: t.time_slot };
        let segments = t.segments.iter().map(move |seg| Event::Segment { id, seg: seg.0 });
        std::iter::once(start).chain(segments).chain([Event::TripEnd { id }]).collect()
    };
    let (done_events, live_events) = (events_of(done_id, done), events_of(live_id, live));
    let clean: Vec<Event> = done_events.iter().chain(&live_events).copied().collect();
    let reference = in_process(model, &clean, FleetConfig::default());

    let cfg = FleetConfig {
        num_shards: 2,
        policy: StreamPolicy { dedup_window: 2, ..StreamPolicy::default() },
        ..FleetConfig::default()
    };
    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();
    let mut notices = Vec::new();
    fn collect(client: &mut Client, routed: &mut Produced, notices: &mut Vec<(u64, PolicyAction)>) {
        while let Some(resp) = client.try_recv() {
            match resp {
                Response::Score(u) => {
                    let fresh = routed.scores.insert((u.id, u.seq), u.score.to_bits()).is_none();
                    assert!(fresh, "score ({}, {}) delivered twice", u.id, u.seq);
                }
                Response::TripComplete(tc) => {
                    let fresh =
                        routed.finals.insert(tc.id, (tc.score.to_bits(), tc.segments())).is_none();
                    assert!(fresh, "trip {} completed twice", tc.id);
                }
                Response::PolicyNotice { id, action, .. } => notices.push((id, action)),
                other => panic!("unexpected response: {other:?}"),
            }
        }
    }

    router.checkpoint().expect("checkpoint: everything after it is journal tail");
    // The finished trip, its first segment arriving twice; then the first
    // two segments of a trip that will live through the failover.
    send_events(&mut client, &done_events[..2]);
    send_events(&mut client, &done_events[1..]);
    send_events(&mut client, &live_events[..3]);
    client.flush().expect("barrier");
    collect(&mut client, &mut routed, &mut notices);
    assert_eq!(notices, [(done_id, PolicyAction::DedupDropped)], "the one pre-crash notice");
    assert!(routed.finals.contains_key(&done_id), "the trip finished before the kill");

    backends.remove(0).shutdown();
    send_events(&mut client, &live_events[3..]);
    client.flush().expect("flush rides out the failover");
    collect(&mut client, &mut routed, &mut notices);

    assert_bit_identical(&routed, &reference);
    assert_eq!(notices.len(), 1, "the producer saw the notice exactly once");
    let stats = router.stats();
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.responses_dropped, 0, "replayed replies are suppressed, not dropped");
    // The finished trip's scores, notice and completion, plus the live
    // trip's two pre-crash scores.
    let replayed = done.segments.len() as u64 + 2 + 2;
    assert_eq!(router.metrics().counter("router.replay_suppressed"), Some(replayed));
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The drain/handoff acceptance test: migrate a partition between two
/// *running* backends mid-stream (3 backends + 1 standby), then rotate a
/// second partition onto the backend the first handoff freed — producers
/// keep streaming throughout and the full response stream stays
/// bit-identical to an uninterrupted in-process run.
#[test]
fn live_handoff_between_running_backends_is_invisible_to_producers() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let (backends, router) = spawn_fleet_with_standbys(model, 3, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();

    let (a, b) = (events.len() / 3, events.len() * 2 / 3);
    send_events(&mut client, &events[..a]);
    // The flush makes the live-session population deterministic (the
    // topology gate quiesces frames in flight through the router, but
    // not bytes still unread on the front socket).
    client.flush().expect("barrier");
    let moved = router.handoff(1).expect("handoff partition 1 to the standby");
    assert!(moved.sessions_moved > 0, "live sessions travelled");
    assert_eq!(moved.epoch, 1);

    send_events(&mut client, &events[a..b]);
    client.flush().expect("barrier");
    // Rotate again: the backend freed by the first handoff is the pool
    // now, so a second handoff (of another partition) must succeed.
    let moved = router.handoff(0).expect("handoff partition 0 onto the freed backend");
    assert!(moved.sessions_moved > 0);
    assert_eq!(moved.epoch, 2);

    send_events(&mut client, &events[b..]);
    client.flush().expect("barrier");
    drain(&mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    let stats = router.stats();
    assert_eq!(stats.partition_epoch, 2);
    assert_eq!(stats.standbys_available, 1, "handoffs rotate, they do not consume");
    assert!(router.metrics().counter("router.handoff_sessions").unwrap_or(0) > 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// A handoff that fails before the standby was touched must give it back:
/// the source of partition 0 is dead and unrecoverable (a zero-length
/// journal is discarded by the first forwarded frame, so its death starts
/// no failover), its drain fails typed — and the standby is still in the
/// pool for the healthy partition's handoff that follows.
#[test]
fn handoff_with_an_undrainable_source_returns_the_standby_to_the_pool() {
    let (city, model) = trained();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let mut backends: Vec<NetServer> = (0..3)
        .map(|_| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(cfg.clone())
                .bind("127.0.0.1:0")
                .expect("bind backend")
        })
        .collect();
    let router = RouterServer::builder()
        .backends(backends.iter().take(2).map(|b| b.local_addr()))
        .standbys(backends.iter().skip(2).map(|b| b.local_addr()))
        .config(RouterConfig { journal_limit: 0, ..RouterConfig::default() })
        .bind("127.0.0.1:0")
        .expect("bind router");
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    for id in [id_on(0, 0), id_on(1, 0)] {
        client.trip_start(id, sd.source.0, sd.dest.0, t.time_slot).expect("write");
        client.segment(id, t.segments[0].0).expect("write");
    }
    client.flush().expect("both backends healthy");
    assert_eq!(router.stats().standbys_available, 1);

    backends.remove(0).shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.stats().backends_alive != 2 {
        assert!(Instant::now() < deadline, "router never noticed the dead backend");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(router.stats().failovers, 0, "an unrecoverable link starts no failover");

    match router.handoff(0) {
        Err(RouterAdminError::Backend { backend: 0, .. }) => {}
        other => panic!("expected the dead source's drain to fail typed, got {other:?}"),
    }
    let stats = router.stats();
    assert_eq!(stats.standbys_available, 1, "the untouched standby went back to the pool");
    assert_eq!(stats.partition_epoch, 0, "a failed handoff never flips the map");

    let moved = router.handoff(1).expect("the healthy partition moves onto that standby");
    assert_eq!((moved.sessions_moved, moved.epoch), (1, 1));
    assert_eq!(router.stats().standbys_available, 1, "handoffs rotate, they do not consume");
    client.segment(id_on(1, 0), t.segments[1].0).expect("write");
    client.flush().expect("the moved trip keeps scoring");
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The rebalance acceptance test: shrink a 3-partition fleet onto 2
/// backends mid-stream. Every live session is drained, merged, re-split
/// with the same pure partitioner that routes future events, and
/// installed — so scoring continues bit-identically on the new topology
/// and the freed backend joins the standby pool.
#[test]
fn rebalance_shrinks_the_fleet_mid_stream_bit_identically() {
    let (city, model) = trained();
    let trips: Vec<&Trajectory> = city.data.test_id.iter().take(12).collect();
    let events = interleave(&trips);
    let cfg = FleetConfig { num_shards: 2, ..FleetConfig::default() };
    let reference = in_process(model, &events, cfg.clone());

    let (backends, router) = spawn_fleet_with_standbys(model, 3, 1, cfg);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut routed = Produced::default();

    let split = events.len() / 2;
    send_events(&mut client, &events[..split]);
    client.flush().expect("barrier");
    assert_eq!(router.num_backends(), 3);
    let moved = router.rebalance(2).expect("shrink 3 partitions onto 2 backends");
    assert!(moved.sessions_moved > 0, "live sessions re-partitioned");
    assert_eq!(router.num_backends(), 2);

    send_events(&mut client, &events[split..]);
    client.flush().expect("barrier");
    drain(&mut client, &mut routed);

    assert_bit_identical(&routed, &reference);
    assert_eq!(
        router.stats().standbys_available,
        2,
        "the freed backend joined the untouched standby"
    );
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Typed refusals of the admin surface: impossible topologies and an
/// empty standby pool fail with structured errors (never hangs, never
/// partial flips), and availability-tier admin frames arriving at the
/// *front door* are rejected typed instead of being misrouted.
#[test]
fn admin_surface_fails_typed_on_impossible_requests() {
    let (_, model) = trained();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (backends, router) = spawn_fleet(model, 2, cfg);

    match router.handoff(7) {
        Err(RouterAdminError::NoSuchPartition { partition: 7, partitions: 2 }) => {}
        other => panic!("expected NoSuchPartition, got {other:?}"),
    }
    match router.handoff(0) {
        Err(RouterAdminError::NoStandby) => {}
        other => panic!("expected NoStandby (no pool), got {other:?}"),
    }
    match router.rebalance(0) {
        Err(RouterAdminError::InvalidTopology(_)) => {}
        other => panic!("expected InvalidTopology, got {other:?}"),
    }
    match router.rebalance(3) {
        Err(RouterAdminError::NoStandby) => {}
        other => panic!("expected NoStandby (cannot grow past the pool), got {other:?}"),
    }
    assert_eq!(router.stats().partition_epoch, 0, "failed admin ops never flip the map");

    // Front-door rejection of point-to-point admin frames.
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let rejected = |err: ClientError| match err {
        ClientError::Server { code: ErrorCode::Rejected, trip: None, .. } => {}
        other => panic!("expected typed front-door rejection, got {other:?}"),
    };
    rejected(client.delta().expect_err("delta is point-to-point"));
    rejected(client.drain().expect_err("drain is point-to-point"));
    let empty =
        causaltad_suite::serve::image_to_bytes(&causaltad_suite::serve::FleetImage::default());
    rejected(client.install(empty).expect_err("install is point-to-point"));
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// The router's zero bounds: a zero `max_frame_len` refuses every
/// request, and a zero `response_queue` drops every reply and, through
/// the front door's write mark sized from it, never writes one. `bind`
/// refuses each, naming the field.
#[test]
fn a_zero_router_bound_is_rejected_naming_the_field() {
    let (_, model) = trained();
    let backend = NetServer::builder(Arc::clone(model)).bind("127.0.0.1:0").expect("bind backend");
    let frame = RouterConfig { max_frame_len: 0, ..RouterConfig::default() };
    let queue = RouterConfig { response_queue: 0, ..RouterConfig::default() };
    for (want, cfg) in
        [("max_frame_len must be >= 1", frame), ("response_queue must be >= 1", queue)]
    {
        let built = RouterServer::builder().backends([backend.local_addr()]).config(cfg);
        match built.bind("127.0.0.1:0") {
            Err(RouterError::InvalidConfig(what)) => assert_eq!(what, want),
            Err(other) => panic!("{want}: expected InvalidConfig, got {other}"),
            Ok(router) => {
                router.shutdown();
                panic!("{want}: bind accepted a zero bound");
            }
        }
    }
    backend.shutdown();
}

/// The barrier-under-membership-change regression guard (with a standby
/// this time): flush barriers hammered across a backend kill must all
/// resolve — served before the kill, restaged onto the promoted standby,
/// or failed typed in the narrow staging race — and once the failover
/// completes, every subsequent barrier must succeed against the new map.
#[test]
fn barriers_across_a_failover_wait_for_the_new_map_or_fail_typed() {
    let (_, model) = trained();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (mut backends, router) = spawn_fleet_with_standbys(model, 2, 1, cfg);
    let mut client = Client::connect(router.local_addr())
        .expect("connect")
        .with_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout set");

    let victim = backends.remove(0);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        victim.shutdown();
    });
    let mut served = 0usize;
    let mut failed = 0usize;
    for _ in 0..200 {
        match client.flush() {
            Ok(_) => served += 1,
            Err(ClientError::Server { .. }) => failed += 1,
            Err(ClientError::Timeout) => {
                panic!("flush hung across the failover (after {served} ok, {failed} failed)")
            }
            Err(other) => panic!("unexpected flush failure: {other}"),
        }
    }
    killer.join().expect("killer thread");
    assert!(served > 0, "barriers kept being served across the failover");

    // Deterministic tail: once the promotion is visible, barriers are
    // all-success again — over both mapped backends.
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.stats().failovers != 1 {
        assert!(Instant::now() < deadline, "failover never completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    for _ in 0..50 {
        client.flush().expect("post-failover barriers always succeed");
    }
    assert_eq!(router.stats().standbys_available, 0);
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

/// Connection churn through the front door: 200 producers each start a
/// trip, stream one segment and hang up without reading. Every
/// connection is counted, none stays open, and hanging up frees the
/// trip's route — so a fresh connection that streams for one of those
/// trips (whose session lives on in its backend) lazily re-attaches and
/// gets the trip's remaining scores.
#[test]
fn front_connection_churn_counts_every_connection_and_frees_its_routes() {
    let (city, model) = trained();
    let t = &city.data.test_id[0];
    let sd = t.sd_pair();
    let cfg = FleetConfig { num_shards: 1, ..FleetConfig::default() };
    let (backends, router) = spawn_fleet(model, 2, cfg);

    for id in 0..200u64 {
        let mut client = Client::connect(router.local_addr()).expect("connect");
        client.trip_start(id, sd.source.0, sd.dest.0, t.time_slot).expect("write");
        client.segment(id, t.segments[0].0).expect("write");
        client.flush_writes().expect("flush");
    }
    // The hang-ups race the acceptor: a connection may be closed by its
    // producer before the router has even adopted it.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = router.stats();
        if (stats.fronts_accepted, stats.fronts_open) == (200, 0) {
            break;
        }
        assert!(Instant::now() < deadline, "connections uncounted or lingering: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let id = 137;
    let mut client = Client::connect(router.local_addr()).expect("connect");
    client.segment(id, t.segments[1].0).expect("write");
    client.trip_end(id).expect("write");
    let stats = client.flush().expect("fleet barrier");
    assert_eq!(stats.trips_started, 200, "every churned connection's trip reached a backend");
    let mut produced = Produced::default();
    drain(&mut client, &mut produced);
    // Segment 0's score raced the old connection's hang-up: it was
    // dropped with that connection or, if scored later, lands here.
    assert!(produced.scores.contains_key(&(id, 1)), "the re-attached trip's next score");
    assert!(produced.scores.keys().all(|&(trip, _)| trip == id), "no other trip's scores");
    assert_eq!(produced.finals.len(), 1);
    assert_eq!(produced.finals[&id].1, 2, "the trip completed with both its segments");
    assert_eq!(router.stats().fronts_accepted, 201);

    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The router loop on scripted I/O: one thread, exact readiness schedules
// ---------------------------------------------------------------------------

use causaltad_suite::net::{request_to_bytes, response_to_bytes, Request};
use causaltad_suite::router::{RouterConfig, RouterLoop};
use causaltad_suite::serve::{FleetSnapshot, ScoreUpdate};
use common::script::{
    parse_written, scripted_conn, ScriptedHandle, ScriptedIo, ScriptedSource, Tick,
};

type ScriptedRouter = RouterLoop<ScriptedSource, ScriptedIo>;

/// The producer is the first (only) injected connection.
const PRODUCER: u64 = 0;

fn link_key(idx: usize) -> u64 {
    ScriptedRouter::link_key(idx)
}

/// `n` scripted backend transports and the test's handles on them.
fn scripted_links(n: usize) -> (Vec<ScriptedIo>, Vec<ScriptedHandle>) {
    (0..n).map(|_| scripted_conn()).unzip()
}

fn wire(reqs: &[Request]) -> Vec<u8> {
    reqs.iter().flat_map(|req| request_to_bytes(req).to_vec()).collect()
}

fn trip_start(id: u64) -> Request {
    Request::TripStart { id, source: 0, dest: 1, time_slot: 0 }
}

/// The first trip id the two-partition map sends to link `idx`.
fn id_on(idx: u32, skip: usize) -> u64 {
    (0..).filter(|&id| backend_for(id, 2) == idx).nth(skip).expect("ids are plentiful")
}

/// One thread, no sockets: an ingest frame's bytes reach exactly the link
/// `backend_for` names, and the `Score` that link sends back comes out on
/// the producer connection that owns the trip.
#[test]
fn scripted_router_forwards_to_the_mapped_link_and_fans_the_score_back_in() {
    let (a, b) = (id_on(0, 0), id_on(1, 0));
    let (producer_io, producer) = scripted_conn();
    let (link_ios, links) = scripted_links(2);
    let to_link0 = [trip_start(a), Request::Segment { id: a, seg: 7 }];
    let to_link1 = [trip_start(b)];
    producer.push_read(&wire(&[to_link0[0].clone(), to_link1[0].clone(), to_link0[1].clone()]));
    let score = Response::Score(ScoreUpdate {
        id: a,
        seq: 0,
        segment: 7,
        score: 1.5,
        nll: 0.25,
        log_scale: -0.5,
    });
    links[0].push_read(&response_to_bytes(&score));

    let source = ScriptedSource::new(vec![
        Tick::new().inject(producer_io).readable(PRODUCER),
        Tick::new().readable(link_key(0)),
    ]);
    let mut router = ScriptedRouter::new(source, link_ios, 2, &RouterConfig::default());
    router.run();

    assert_eq!(links[0].take_written(), wire(&to_link0), "link 0 got its trip, in order");
    assert_eq!(links[1].take_written(), wire(&to_link1), "link 1 got the other trip only");
    assert_eq!(producer.take_written(), response_to_bytes(&score).to_vec());
    assert_eq!(router.stats().responses_dropped, 0);
}

/// A link's stream ends at a frame boundary and there is no standby: each
/// live trip on it gets exactly one typed `EngineClosed`, and a `Flush`
/// afterwards is still answered, over the surviving link alone.
#[test]
fn scripted_link_eof_fails_its_trips_once_and_flush_answers_over_the_survivor() {
    let (a1, a2, b) = (id_on(0, 0), id_on(0, 1), id_on(1, 0));
    let (producer_io, producer) = scripted_conn();
    let (link_ios, links) = scripted_links(2);
    producer.push_read(&wire(&[trip_start(a1), trip_start(b), trip_start(a2)]));
    producer.push_read(&wire(&[Request::Flush]));
    links[0].eof();
    let stats = Response::Stats(FleetSnapshot::merged(&[]));
    links[1].push_read(&response_to_bytes(&stats));

    let source = ScriptedSource::new(vec![
        Tick::new().inject(producer_io).readable(PRODUCER),
        Tick::new().readable(link_key(0)),
        Tick::new().readable(PRODUCER),
        Tick::new().readable(link_key(1)),
    ]);
    let mut router = ScriptedRouter::new(source, link_ios, 2, &RouterConfig::default());
    router.run();

    let mut replies = parse_written(&producer.take_written());
    assert_eq!(replies.pop(), Some(stats), "the barrier answered, last, over link 1 alone");
    let mut failed: Vec<u64> = replies
        .iter()
        .map(|resp| match resp {
            Response::Error { code: ErrorCode::EngineClosed, trip: Some(id), .. } => *id,
            other => panic!("expected a trip-scoped EngineClosed, got {other:?}"),
        })
        .collect();
    failed.sort_unstable();
    assert_eq!(failed, [a1.min(a2), a1.max(a2)], "one error per live trip on the dead link");
    assert_eq!(links[1].take_written(), wire(&[trip_start(b), Request::Flush]));
    let stats = router.stats();
    assert_eq!((stats.backends_alive, stats.responses_dropped), (1, 0));
}

/// A link whose socket accepts nothing builds a write backlog; at the
/// high-water mark the router stops *reading the producer* (a pause, not
/// an error, and not a blocked loop), and when the socket reopens
/// everything flows again with no frame lost or reordered.
#[test]
fn scripted_link_backlog_holds_producer_reads_and_resumes_losslessly() {
    let a = id_on(0, 0);
    let (producer_io, producer) = scripted_conn();
    let (link_ios, links) = scripted_links(2);
    // ~1.5 MiB for link 0: past the 1 MiB mark, read 256 KiB per tick.
    let mut sent = vec![trip_start(a)];
    let frame_len = request_to_bytes(&Request::Segment { id: a, seg: 0 }).len();
    sent.extend((0..(3 << 19) / frame_len as u32).map(|seg| Request::Segment { id: a, seg }));
    let sent = wire(&sent);
    producer.push_read(&sent);
    links[0].set_write_window(0);

    let reads = (3 << 19) / tad_net::READ_BUDGET + 2;
    let mut ticks = vec![Tick::new().inject(producer_io).readable(PRODUCER)];
    ticks.extend((0..reads).map(|_| Tick::new().readable(PRODUCER)));
    let (stalled, reopened) = (links[0].clone(), links[0].clone());
    ticks.push(
        Tick::new()
            .act(move || {
                assert_eq!(stalled.written_len(), 0, "the stalled socket took nothing");
                reopened.set_write_window(usize::MAX);
            })
            .writable(link_key(0)),
    );
    ticks.extend((0..reads).map(|_| Tick::new().readable(PRODUCER)));
    let source = ScriptedSource::new(ticks);
    let interest = source.log_handle();
    let mut router = ScriptedRouter::new(source, link_ios, 2, &RouterConfig::default());
    router.run();

    let producer_reads: Vec<bool> = (interest.lock().unwrap().iter())
        .filter(|(key, _)| *key == PRODUCER)
        .map(|(_, interest)| interest.readable)
        .collect();
    assert_eq!(producer_reads[..3], [true, false, true], "read, held at the mark, resumed");
    assert!(links[0].take_written() == sent, "every frame reached link 0, in order");
    assert_eq!(links[1].written_len(), 0);
    assert!(producer.take_written().is_empty(), "a held producer is told nothing");
}

/// Frames decoded in the tick that reaps a recoverable link are parked,
/// ingest and barriers alike, and answered in arrival order on release:
/// a `Flush` that arrived after two parked segments is answered after
/// them. (Here the standby dies too, so the release is the abandoned
/// recovery and every answer is a typed `EngineClosed` — which makes the
/// order visible on the producer's socket without a scripted backend.)
#[test]
fn scripted_hold_parks_frames_and_answers_a_later_flush_after_them() {
    let a = 5;
    let (producer_io, producer) = scripted_conn();
    let (link_ios, links) = scripted_links(2);
    producer.push_read(&wire(&[trip_start(a), Request::Segment { id: a, seg: 1 }]));
    producer.push_read(&wire(&[
        Request::Segment { id: a, seg: 2 },
        Request::TripEnd { id: a },
        Request::Flush,
    ]));
    links[0].eof();
    links[1].eof();

    let answered = producer.clone();
    let source = ScriptedSource::new(vec![
        Tick::new().inject(producer_io).readable(PRODUCER),
        // The active link dies first, then the producer's frames decode:
        // the hold is already engaged when they are handled.
        Tick::new().readable(link_key(0)).readable(PRODUCER),
        Tick::new().readable(link_key(1)),
        // The recovery driver (the one other thread) finds no standby and
        // releases the hold; the loop ticks only when it is woken.
        Tick::idle_until(move || answered.written_len() > 0),
    ]);
    // One active link, one standby.
    let mut router = ScriptedRouter::new(source, link_ios, 1, &RouterConfig::default());
    router.run();

    let replies: Vec<Option<u64>> = parse_written(&producer.take_written())
        .into_iter()
        .map(|resp| match resp {
            Response::Error { code: ErrorCode::EngineClosed, trip, .. } => trip,
            other => panic!("expected EngineClosed, got {other:?}"),
        })
        .collect();
    // The live trip's loss, the two parked ingest frames, then the flush.
    assert_eq!(replies, [Some(a), Some(a), Some(a), None]);
    let stats = router.stats();
    assert_eq!((stats.failovers, stats.backends_alive, stats.responses_dropped), (0, 0, 0));
}
