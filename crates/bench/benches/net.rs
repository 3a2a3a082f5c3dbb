//! Network front-end benchmarks: frame-codec throughput (frames/s for the
//! hot frame types) and end-to-end loopback scoring throughput
//! (scored segments/s through `NetServer` + `Client` over 127.0.0.1) —
//! a connection-count sweep (1 to 256 concurrent producers against the
//! readiness event loop), and routed through a `tad-router` tier over two
//! backend servers.
//!
//! Besides the Criterion report, the run writes machine-readable
//! `BENCH_net.json` (override the path with `BENCH_NET_OUT`) so the wire
//! path's perf trajectory is tracked PR-over-PR, and **asserts** that
//! every streamed segment came back scored — a routing or backpressure
//! regression fails the bench run, not just the numbers.
//!
//! `CRITERION_QUICK=1` shrinks the workload for CI smoke runs.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use causaltad::{CausalTad, CausalTadConfig, SegmentTrace};
use tad_bench::fleet_walks;
use tad_eval::cities::{xian_s, Scale};
use tad_net::{
    request_from_bytes, request_to_bytes, response_from_bytes, response_into, response_to_bytes,
    Client, NetServer, Request, Response, TripComplete,
};
use tad_router::RouterServer;
use tad_serve::{Completion, FleetConfig, ScoreUpdate};

/// The parent of the byte-queue reply path (a `VecDeque<Response>` per
/// connection, one hand-off and one re-encode per score per hop),
/// measured with this same bench on the host named in `BENCH_net.json`'s
/// `host` block, full (non-quick) mode, alternated with runs of this
/// change; the median of three. Passes: `(name, scored segments per
/// second)`; codec: `(name, frames per second)`.
const PARENT_COMMIT: &str = "964ad4a";
const PARENT_PASSES: [(&str, f64); 7] = [
    ("loopback", 157_776.2),
    ("loopback_conns1", 155_834.8),
    ("loopback_conns4", 134_367.2),
    ("loopback_conns64", 147_224.0),
    ("loopback_conns256", 117_862.0),
    ("loopback_multi4", 134_367.2),
    ("routed_2backends", 144_353.8),
];
const PARENT_CODEC: [(&str, f64); 6] = [
    ("segment_request_encode", 12_179_965.0),
    ("segment_request_decode", 14_515_798.0),
    ("score_response_encode", 8_960_029.0),
    ("score_response_decode", 8_667_916.0),
    ("trip_complete_24seg_encode", 751_364.0),
    ("trip_complete_24seg_decode", 1_190_279.0),
];

/// The parent's figure for `name`, as JSON (`null` in quick mode — its
/// slices are not comparable — and for figures not taken at the parent).
fn parent_of(table: &[(&str, f64)], name: &str, digits: usize) -> String {
    table
        .iter()
        .find(|&&(n, _)| n == name)
        .filter(|_| !quick_mode())
        .map_or("null".to_string(), |&(_, v)| format!("{v:.digits$}"))
}

fn quick_mode() -> bool {
    std::env::var("CRITERION_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// The hot request on the wire: one segment event.
fn segment_request() -> Request {
    Request::Segment { id: 0x1234_5678, seg: 4242 }
}

/// The hot response on the wire: one per-segment score.
fn score_response() -> Response {
    Response::Score(ScoreUpdate {
        id: 0x1234_5678,
        seq: 17,
        segment: 4242,
        score: 3.25,
        nll: 1.5,
        log_scale: 0.125,
    })
}

/// The big response: a finished trip with a serving-realistic 24-segment
/// trace.
fn trip_complete_response() -> Response {
    Response::TripComplete(TripComplete {
        id: 0x1234_5678,
        completion: Completion::Ended,
        score: 12.5,
        likelihood_nll: 14.0,
        scale_log_sum: 1.5,
        trace: (0..24)
            .map(|i| SegmentTrace { segment: i, nll: 0.25 * i as f64, log_scale: 0.125 })
            .collect(),
    })
}

/// Median-of-reps frames/s for one closure.
fn frames_per_s(mut f: impl FnMut()) -> f64 {
    let per_rep = if quick_mode() { 2_000 } else { 50_000 };
    let reps = 5;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..per_rep {
            f();
        }
        samples.push(per_rep as f64 / t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[reps / 2]
}

fn bench_frame_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_codec");
    let cases: Vec<(&str, Request)> = vec![("segment_request", segment_request())];
    for (name, req) in &cases {
        let blob = request_to_bytes(req);
        group.bench_function(format!("encode/{name}"), |b| b.iter(|| request_to_bytes(req)));
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| request_from_bytes(blob.clone()).expect("valid frame"))
        });
    }
    let responses: Vec<(&str, Response)> = vec![
        ("score_response", score_response()),
        ("trip_complete_24seg", trip_complete_response()),
    ];
    for (name, resp) in &responses {
        let blob = response_to_bytes(resp);
        group.bench_function(format!("encode/{name}"), |b| b.iter(|| response_to_bytes(resp)));
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| response_from_bytes(blob.clone()).expect("valid frame"))
        });
    }
    group.finish();
}

fn trained_model() -> Arc<CausalTad> {
    let city = tad_trajsim::generate_city(&xian_s(Scale::Quick));
    let cfg = CausalTadConfig {
        embed_dim: 64,
        hidden_dim: 256,
        latent_dim: 32,
        epochs: 1,
        ..CausalTadConfig::test_scale()
    };
    let mut model = CausalTad::new(&city.net, cfg);
    model.fit(&city.data.train);
    Arc::new(model)
}

/// One full loopback pass: stream every walk through a TCP client, flush,
/// drain, and assert every segment came back scored. Returns
/// (elapsed seconds, events sent, segments scored).
fn loopback_pass(model: &Arc<CausalTad>, walks: &[Vec<u32>]) -> (f64, u64, u64) {
    let server = NetServer::builder(Arc::clone(model))
        .fleet_config(FleetConfig {
            num_shards: 2,
            queue_capacity: 65_536,
            ..FleetConfig::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let total_segments: usize = walks.iter().map(|w| w.len()).sum();
    let start = Instant::now();
    for (id, walk) in walks.iter().enumerate() {
        client.trip_start(id as u64, walk[0], *walk.last().expect("non-empty"), 0).expect("write");
    }
    let longest = walks.iter().map(|w| w.len()).max().unwrap_or(0);
    for step in 0..longest {
        for (id, walk) in walks.iter().enumerate() {
            if let Some(&seg) = walk.get(step) {
                client.segment(id as u64, seg).expect("write");
            }
            if step + 1 == walk.len() {
                client.trip_end(id as u64).expect("write");
            }
        }
    }
    let stats = client.flush().expect("barrier");
    let mut scores = 0u64;
    while let Some(resp) = client.try_recv() {
        match resp {
            Response::Score(_) => scores += 1,
            Response::TripComplete(_) => {}
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        scores as usize, total_segments,
        "every streamed segment must come back scored (no drops, no backpressure losses)"
    );
    assert_eq!(stats.trips_completed, walks.len() as u64);
    server.shutdown();
    (elapsed, (walks.len() * 2 + total_segments) as u64, scores)
}

/// Streams every walk to `addr` across `conns` concurrent client
/// connections (walk `i` belongs to connection `i % conns`), flushes each,
/// and counts the scores received. Returns (elapsed seconds, total scores).
fn stream_walks(addr: std::net::SocketAddr, walks: &[Vec<u32>], conns: usize) -> (f64, u64) {
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|conn| {
            let slice: Vec<(u64, Vec<u32>)> = walks
                .iter()
                .enumerate()
                .filter(|(i, _)| i % conns == conn)
                .map(|(i, w)| (i as u64, w.clone()))
                .collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (id, walk) in &slice {
                    client
                        .trip_start(*id, walk[0], *walk.last().expect("non-empty"), 0)
                        .expect("write");
                }
                let longest = slice.iter().map(|(_, w)| w.len()).max().unwrap_or(0);
                for step in 0..longest {
                    for (id, walk) in &slice {
                        if let Some(&seg) = walk.get(step) {
                            client.segment(*id, seg).expect("write");
                        }
                        if step + 1 == walk.len() {
                            client.trip_end(*id).expect("write");
                        }
                    }
                }
                client.flush().expect("barrier");
                let mut scores = 0u64;
                while let Some(resp) = client.try_recv() {
                    match resp {
                        Response::Score(_) => scores += 1,
                        Response::TripComplete(_) => {}
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
                scores
            })
        })
        .collect();
    let scored: u64 = handles.into_iter().map(|h| h.join().expect("producer")).sum();
    (start.elapsed().as_secs_f64(), scored)
}

/// Multi-connection variant of [`loopback_pass`]: the same fleet split
/// across `conns` concurrent producers (PR 4's number was
/// single-connection — this measures the per-connection thread path and
/// response routing under contention).
fn multi_conn_pass(model: &Arc<CausalTad>, walks: &[Vec<u32>], conns: usize) -> (f64, u64, u64) {
    let server = NetServer::builder(Arc::clone(model))
        .fleet_config(FleetConfig {
            num_shards: 2,
            queue_capacity: 65_536,
            ..FleetConfig::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind");
    let total_segments: usize = walks.iter().map(|w| w.len()).sum();
    let (elapsed, scored) = stream_walks(server.local_addr(), walks, conns);
    assert_eq!(
        scored as usize, total_segments,
        "every streamed segment must come back scored across all connections"
    );
    let stats = server.shutdown();
    assert_eq!(stats.trips_completed, walks.len() as u64);
    (elapsed, (walks.len() * 2 + total_segments) as u64, scored)
}

/// Routed variant: the same fleet through a `tad-router` tier over
/// `backends` independent `tad-net` servers, `conns` producers on the
/// front door — the cross-process sharding data path end to end.
fn routed_pass(
    model: &Arc<CausalTad>,
    walks: &[Vec<u32>],
    backends: usize,
    conns: usize,
) -> (f64, u64, u64) {
    let servers: Vec<NetServer> = (0..backends)
        .map(|_| {
            NetServer::builder(Arc::clone(model))
                .fleet_config(FleetConfig {
                    num_shards: 2,
                    queue_capacity: 65_536,
                    ..FleetConfig::default()
                })
                .bind("127.0.0.1:0")
                .expect("bind backend")
        })
        .collect();
    let router = RouterServer::builder()
        .backends(servers.iter().map(|s| s.local_addr()))
        .bind("127.0.0.1:0")
        .expect("bind router");
    let total_segments: usize = walks.iter().map(|w| w.len()).sum();
    let (elapsed, scored) = stream_walks(router.local_addr(), walks, conns);
    assert_eq!(
        scored as usize, total_segments,
        "every routed segment must come back scored (no drops across the tier)"
    );
    assert_eq!(router.stats().responses_dropped, 0);
    router.shutdown();
    let completed: u64 = servers.into_iter().map(|s| s.shutdown().trips_completed).sum();
    assert_eq!(completed, walks.len() as u64);
    (elapsed, (walks.len() * 2 + total_segments) as u64, scored)
}

/// Median full pass of one workload closure.
fn median_pass(reps: usize, mut pass: impl FnMut() -> (f64, u64, u64)) -> (f64, u64, u64) {
    let mut passes = Vec::with_capacity(reps);
    for _ in 0..reps {
        passes.push(pass());
    }
    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    passes[passes.len() / 2]
}

fn bench_loopback(c: &mut Criterion) {
    let model = trained_model();
    let (sessions, len) = if quick_mode() { (64, 8) } else { (512, 24) };
    const CONNS: usize = 4;
    const BACKENDS: usize = 2;
    /// The readiness-loop scaling sweep: from one connection to far past
    /// the worker count, proving cross-connection micro-batching holds
    /// throughput as the fleet fans out.
    const SWEEP: [usize; 4] = [1, 4, 64, 256];
    let walks = fleet_walks(&model, sessions, len, 97);

    let mut group = c.benchmark_group("loopback");
    group.sample_size(10);
    group.bench_function(format!("stream_{sessions}x{len}"), |b| {
        b.iter(|| loopback_pass(&model, &walks))
    });
    group.bench_function(format!("stream_{sessions}x{len}_conns{CONNS}"), |b| {
        b.iter(|| multi_conn_pass(&model, &walks, CONNS))
    });
    group.bench_function(format!("routed_{sessions}x{len}_backends{BACKENDS}"), |b| {
        b.iter(|| routed_pass(&model, &walks, BACKENDS, CONNS))
    });
    group.finish();

    // Machine-readable artefact: median of a few full passes per path,
    // with the full connection sweep.
    let reps = if quick_mode() { 2 } else { 5 };
    let (elapsed, events, scored) = median_pass(reps, || loopback_pass(&model, &walks));
    let sweep: Vec<(String, (f64, u64, u64))> = SWEEP
        .iter()
        .map(|&conns| {
            let pass = median_pass(reps, || multi_conn_pass(&model, &walks, conns));
            (format!("loopback_conns{conns}"), pass)
        })
        .collect();
    let multi = sweep[1].1;
    let routed = median_pass(reps, || routed_pass(&model, &walks, BACKENDS, CONNS));

    let codec = [
        (
            "segment_request_encode",
            frames_per_s(|| {
                std::hint::black_box(request_to_bytes(&segment_request()));
            }),
        ),
        ("segment_request_decode", {
            let blob = request_to_bytes(&segment_request());
            frames_per_s(move || {
                std::hint::black_box(request_from_bytes(blob.clone()).expect("valid"));
            })
        }),
        (
            "score_response_encode",
            frames_per_s(|| {
                std::hint::black_box(response_to_bytes(&score_response()));
            }),
        ),
        ("score_response_into", {
            // The reply path's encoder: frames sealed in place, back to
            // back, in a buffer that already has the room (one wave's
            // chunk; cleared every 1 024 frames here).
            let mut chunk = bytes::BytesMut::with_capacity(1024 * 64);
            frames_per_s(move || {
                if chunk.len() + 64 > chunk.capacity() {
                    chunk.truncate(0);
                }
                response_into(std::hint::black_box(&score_response()), &mut chunk);
            })
        }),
        ("score_response_decode", {
            let blob = response_to_bytes(&score_response());
            frames_per_s(move || {
                std::hint::black_box(response_from_bytes(blob.clone()).expect("valid"));
            })
        }),
        (
            "trip_complete_24seg_encode",
            frames_per_s(|| {
                std::hint::black_box(response_to_bytes(&trip_complete_response()));
            }),
        ),
        ("trip_complete_24seg_decode", {
            let blob = response_to_bytes(&trip_complete_response());
            frames_per_s(move || {
                std::hint::black_box(response_from_bytes(blob.clone()).expect("valid"));
            })
        }),
    ];
    let mut passes: Vec<(String, (f64, u64, u64))> =
        vec![("loopback".to_string(), (elapsed, events, scored))];
    passes.extend(sweep);
    // Continuity keys for the PR-over-PR trajectory.
    passes.push(("loopback_multi4".to_string(), multi));
    passes.push(("routed_2backends".to_string(), routed));
    write_json(sessions, len, events, &passes, &codec);
}

fn write_json(
    sessions: usize,
    len: usize,
    events: u64,
    passes: &[(String, (f64, u64, u64))],
    codec: &[(&str, f64)],
) {
    // `cargo bench` runs with the package directory as cwd; default to the
    // workspace root so the artefact lands next to README.md.
    let path = std::env::var("BENCH_NET_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json").to_string()
    });
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", tad_bench::host_json()));
    out.push_str(&format!(
        "  \"workload\": {{\"sessions\": {sessions}, \"walk_len\": {len}, \"events\": {events}, \"quick_mode\": {}}},\n",
        quick_mode()
    ));
    out.push_str(&format!(
        "  \"parent\": {{\"commit\": \"{PARENT_COMMIT}\", \"note\": \"parent_* figures: this bench at the parent commit on this host, full mode, median of three runs alternated with runs of this change; null where not taken\"}},\n",
    ));
    for (name, (elapsed, events, scored)) in passes {
        out.push_str(&format!(
            "  \"{name}\": {{\"elapsed_s\": {elapsed:.6}, \"scored_segments\": {scored}, \"scored_segments_per_s\": {:.1}, \"parent_scored_segments_per_s\": {}, \"events_per_s\": {:.1}}},\n",
            *scored as f64 / elapsed,
            parent_of(&PARENT_PASSES, name, 1),
            *events as f64 / elapsed,
        ));
    }
    out.push_str("  \"frame_codec_frames_per_s\": {\n");
    for (i, (name, fps)) in codec.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {{\"frames_per_s\": {fps:.0}, \"parent_frames_per_s\": {}}}{}\n",
            parent_of(&PARENT_CODEC, name, 0),
            if i + 1 < codec.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

criterion_group!(benches, bench_frame_codec, bench_loopback);
criterion_main!(benches);
