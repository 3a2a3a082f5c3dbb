//! Cross-crate property-based tests: invariants that must hold for *any*
//! generated city, trajectory, or parameter setting.

mod common;

use std::sync::Arc;

use causaltad_suite::autodiff::ParamStore;
use causaltad_suite::codec::{seal_envelope, ReadError, Reader, ENVELOPE_HEADER_LEN};
use causaltad_suite::core::{
    model_from_bytes, model_to_bytes, state_from_bytes, state_to_bytes, CausalTad, CausalTadConfig,
    ModelCodecError, ScalingTable, ScorerState, StateCodecError,
};
use causaltad_suite::metrics::{
    snapshot_from_bytes, snapshot_to_bytes, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
use causaltad_suite::net::{
    request_from_bytes, request_to_bytes, response_from_bytes, response_to_bytes, Client, Conn,
    ErrorCode, FrameError, NetServer, ReadStatus, Request, Response, TripComplete,
    DEFAULT_MAX_FRAME, FRAME_MAGIC,
};
use causaltad_suite::router::{backend_for, split_image, RouterServer};
use causaltad_suite::serve::{
    delta_from_bytes, delta_to_bytes, image_from_bytes, image_to_bytes, Completion, DeltaBase,
    DeltaChainError, Event, FleetConfig, FleetDelta, FleetImage, FleetSnapshot, GapPolicy,
    PolicyAction, ScoreUpdate, SessionRecord, SnapshotCodecError, StreamPolicy,
};
use common::script::scripted_conn;
use common::{
    assert_bit_identical, drain, in_process, interleave, send_events, trained, trip_of, Produced,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tad_roadnet::codec::{network_from_bytes, network_to_bytes, NetCodecError};
use tad_roadnet::dijkstra::{length_cost, node_shortest_path, segment_shortest_path};
use tad_roadnet::grid::{generate_grid_city, GridCityConfig};
use tad_roadnet::{NodeId, RoadNetwork};
use tad_trajsim::codec::{datasets_from_bytes, datasets_to_bytes, DataCodecError};
use tad_trajsim::{corrupt_dataset, generate_city, CityConfig, CorruptionConfig, Trajectory};

/// Largest fleet the snapshot property tests exercise (the codec itself
/// has no cap below `u32::MAX` sessions).
const MAX_SNAPSHOT_SESSIONS: usize = 64;

/// Deterministically builds an arbitrary live-looking scorer state: random
/// hidden width (including the inert zero-width placeholder), random score
/// accumulators, and a segment count anywhere in `u32` (small ones most
/// often).
fn arb_state(rng: &mut StdRng) -> ScorerState {
    let hidden_width = rng.gen_range(0usize..48);
    let hidden: Vec<f32> = (0..hidden_width).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
    let last = if rng.gen_bool(0.8) { Some(rng.gen_range(0u32..10_000)) } else { None };
    let segments = rng.next_u32() >> rng.gen_range(0u32..32);
    ScorerState::from_parts(
        hidden,
        rng.gen_range(-100.0f64..100.0),
        rng.gen_range(-100.0f64..100.0),
        rng.gen_range(-100.0f64..100.0),
        last,
        rng.gen_range(0u8..96),
        segments,
    )
}

fn arb_record(id: u64, rng: &mut StdRng) -> SessionRecord {
    let pending_len = rng.gen_range(0usize..6);
    SessionRecord {
        id,
        state: arb_state(rng),
        pending: (0..pending_len).map(|_| rng.gen_range(0u32..10_000)).collect(),
        ending: rng.gen_bool(0.1),
        idle_micros: rng.gen_range(0u64..600_000_000),
    }
}

fn arb_image(sessions: usize, rng: &mut StdRng) -> FleetImage {
    FleetImage {
        num_shards: rng.gen_range(1u32..16),
        sessions: (0..sessions as u64).map(|id| arb_record(id, rng)).collect(),
    }
}

/// An arbitrary wire request, covering every frame type.
fn arb_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0u8..9) {
        0 => Request::TripStart {
            id: rng.gen_range(0u64..u64::MAX),
            source: rng.gen_range(0u32..100_000),
            dest: rng.gen_range(0u32..100_000),
            time_slot: rng.gen_range(0u8..96),
        },
        1 => Request::Segment {
            id: rng.gen_range(0u64..u64::MAX),
            seg: rng.gen_range(0u32..100_000),
        },
        2 => Request::TripEnd { id: rng.gen_range(0u64..u64::MAX) },
        3 => Request::Flush,
        4 => Request::SnapshotRequest,
        5 => Request::MetricsRequest,
        6 => Request::DeltaRequest,
        7 => {
            let len = rng.gen_range(0usize..256);
            let image: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            Request::Install { image: image.into() }
        }
        _ => Request::Drain,
    }
}

/// An arbitrary metrics snapshot built the only way real ones are: by
/// recording into a live [`Registry`] — so it is canonical by
/// construction (name-ordered entries, derived histogram counts).
fn arb_metrics(rng: &mut StdRng) -> MetricsSnapshot {
    let registry = Registry::new();
    for i in 0..rng.gen_range(0usize..4) {
        registry.counter(&format!("tier{}.counter.{i}", rng.gen_range(0u8..3))).add(rng.next_u64());
    }
    for i in 0..rng.gen_range(0usize..3) {
        registry
            .gauge(&format!("tier{}.gauge.{i}", rng.gen_range(0u8..3)))
            .set(rng.next_u64() as i64);
    }
    for i in 0..rng.gen_range(0usize..3) {
        let h = registry.histogram(&format!("tier{}.hist.{i}", rng.gen_range(0u8..3)));
        for _ in 0..rng.gen_range(0usize..32) {
            // Bias towards small values but cover the full u64 range.
            let v: u64 = rng.next_u64() >> rng.gen_range(0u32..64);
            h.record_n(v, rng.gen_range(1u64..1_000));
        }
    }
    registry.snapshot()
}

/// An arbitrary wire response, covering every frame type.
fn arb_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0u8..10) {
        0 => Response::Score(ScoreUpdate {
            id: rng.gen_range(0u64..u64::MAX),
            seq: rng.gen_range(0u32..10_000),
            segment: rng.gen_range(0u32..100_000),
            score: rng.gen_range(-100.0f64..100.0),
            nll: rng.gen_range(-100.0f64..100.0),
            log_scale: rng.gen_range(-10.0f64..10.0),
        }),
        1 => Response::TripComplete(TripComplete {
            id: rng.gen_range(0u64..u64::MAX),
            completion: match rng.gen_range(0u8..4) {
                0 => Completion::Ended,
                1 => Completion::EvictedTtl,
                2 => Completion::EvictedLru,
                _ => Completion::Shutdown,
            },
            score: rng.gen_range(-100.0f64..100.0),
            likelihood_nll: rng.gen_range(-100.0f64..100.0),
            scale_log_sum: rng.gen_range(-100.0f64..100.0),
            segments: rng.next_u32() >> rng.gen_range(0u32..32),
        }),
        2 => Response::Stats(FleetSnapshot {
            events_ingested: rng.gen_range(0u64..u64::MAX),
            segments_scored: rng.gen_range(0u64..u64::MAX),
            trips_started: rng.gen_range(0u64..u64::MAX),
            trips_completed: rng.gen_range(0u64..u64::MAX),
            evictions_ttl: rng.gen_range(0u64..u64::MAX),
            evictions_lru: rng.gen_range(0u64..u64::MAX),
            rejected: rng.gen_range(0u64..u64::MAX),
            off_graph_hits: rng.gen_range(0u64..u64::MAX),
            batches: rng.gen_range(0u64..u64::MAX),
            active_sessions: rng.gen_range(0u64..u64::MAX),
            sessions_restored: rng.gen_range(0u64..u64::MAX),
            uptime_secs: rng.gen_range(0.0f64..1e9),
            events_per_sec: rng.gen_range(0.0f64..1e9),
            mean_batch_size: rng.gen_range(0.0f64..1e6),
        }),
        3 => {
            let detail_len = rng.gen_range(0usize..200);
            Response::Error {
                code: match rng.gen_range(0u8..8) {
                    0 => ErrorCode::Backpressure,
                    1 => ErrorCode::Rejected,
                    2 => ErrorCode::EngineClosed,
                    3 => ErrorCode::BadFrame,
                    4 => ErrorCode::SnapshotFailed,
                    5 => ErrorCode::Throttled,
                    6 => ErrorCode::ConnLimit,
                    _ => ErrorCode::IdleTimeout,
                },
                trip: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..u64::MAX)),
                retry_after_ms: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..600_000)),
                detail: (0..detail_len).map(|_| char::from(rng.gen_range(b' '..b'~'))).collect(),
            }
        }
        4 => {
            let len = rng.gen_range(0usize..256);
            let image: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            Response::Snapshot { image: image.into() }
        }
        5 => Response::PolicyNotice {
            id: rng.gen_range(0u64..u64::MAX),
            action: PolicyAction::from_wire_byte(rng.gen_range(0u8..9)).expect("valid wire byte"),
            seg: rng.gen_bool(0.5).then(|| rng.gen_range(0u32..100_000)),
        },
        6 => Response::Metrics(arb_metrics(rng)),
        7 => {
            let len = rng.gen_range(0usize..256);
            let delta: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            Response::Delta { delta: delta.into() }
        }
        8 => Response::Installed { sessions: rng.gen_range(0u64..u64::MAX) },
        _ => {
            let len = rng.gen_range(0usize..256);
            let image: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            Response::Drained { image: image.into() }
        }
    }
}

/// An arbitrary incremental capture for a given chain position: random
/// tombstones and random dirtied sessions (duplicate ids included — an
/// upsert is legal any number of times).
fn arb_delta(base_epoch: u64, seq: u64, sessions: usize, rng: &mut StdRng) -> FleetDelta {
    FleetDelta {
        base_epoch,
        seq,
        num_shards: rng.gen_range(1u32..16),
        removed: (0..rng.gen_range(0usize..6)).map(|_| rng.gen_range(0u64..1_000)).collect(),
        sessions: (0..sessions).map(|_| arb_record(rng.gen_range(0u64..1_000), rng)).collect(),
    }
}

/// Like [`drain`], but tolerating the [`Response::PolicyNotice`] frames a
/// policy-enabled server interleaves with its scores.
fn drain_with_notices(client: &mut Client, produced: &mut Produced) {
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
            Response::PolicyNotice { .. } => {}
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

/// Pins the trip→backend partitioner to golden assignments. The function
/// is pure, so matching these constants proves determinism across
/// processes and restarts (no seeded `RandomState` can hide in it) — and
/// any change to the hash silently re-partitions every live fleet, so it
/// must show up here as a deliberate, reviewed diff.
#[test]
fn partitioner_matches_golden_assignments() {
    let golden: &[(u64, u32, u32)] = &[
        (0, 2, 0),
        (1, 2, 0),
        (2, 2, 0),
        (3, 2, 0),
        (12345, 2, 1),
        (u64::MAX, 2, 0),
        (0, 3, 0),
        (1, 3, 0),
        (7, 3, 2),
        (1000, 3, 1),
        (0, 8, 0),
        (41, 8, 1),
        (9999, 8, 7),
        (1 << 40, 8, 7),
        (123456789, 16, 0),
        (u64::MAX, 16, 3),
    ];
    for &(trip, backends, want) in golden {
        assert_eq!(backend_for(trip, backends), want, "backend_for({trip}, {backends})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any generated grid city is strongly connected and has only valid
    /// segment endpoints.
    #[test]
    fn generated_cities_are_strongly_connected(seed in 0u64..500, w in 4usize..9, h in 4usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GridCityConfig { width: w, height: h, missing_edge_prob: 0.15, ..GridCityConfig::tiny() };
        let net = generate_grid_city(&cfg, &mut rng);
        prop_assert!(net.is_strongly_connected());
        for s in net.segment_ids() {
            let seg = net.segment(s);
            prop_assert!(seg.from.index() < net.num_nodes());
            prop_assert!(seg.to.index() < net.num_nodes());
            prop_assert!(seg.length > 0.0);
        }
    }

    /// Node-space Dijkstra between random nodes returns a valid connected
    /// walk anchored at the endpoints, and its cost equals the summed
    /// segment lengths.
    #[test]
    fn dijkstra_paths_are_valid_walks(seed in 0u64..500, a in 0u32..36, b in 0u32..36) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let (from, to) = (NodeId(a), NodeId(b));
        let r = node_shortest_path(&net, from, to, length_cost(&net)).expect("connected city");
        prop_assert!(net.is_connected_path(&r.segments));
        let total: f64 = r.segments.iter().map(|&s| net.segment(s).length).sum();
        prop_assert!((total - r.cost).abs() < 1e-9);
        if a != b {
            prop_assert_eq!(net.segment(r.segments[0]).from, from);
            prop_assert_eq!(net.segment(*r.segments.last().unwrap()).to, to);
        }
    }

    /// Segment-space Dijkstra is never cheaper when a segment is banned.
    #[test]
    fn banning_segments_never_shortens_paths(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let start = net.segment_ids().next().unwrap();
        let goal = net.segment_ids().last().unwrap();
        let Some(free) = segment_shortest_path(&net, start, goal, length_cost(&net)) else {
            return Ok(());
        };
        if free.segments.len() < 3 {
            return Ok(());
        }
        let banned = free.segments[1];
        if let Some(constrained) = segment_shortest_path(&net, start, goal, |s| {
            if s == banned { None } else { Some(net.segment(s).length) }
        }) {
            prop_assert!(constrained.cost >= free.cost - 1e-9);
            prop_assert!(!constrained.segments.contains(&banned));
        }
    }

    /// Dataset serialization round-trips for arbitrary generated cities.
    #[test]
    fn dataset_codec_roundtrips(seed in 0u64..100) {
        let city = generate_city(&CityConfig::test_scale(seed));
        let restored = datasets_from_bytes(datasets_to_bytes(&city.data)).unwrap();
        prop_assert_eq!(restored.train, city.data.train);
        prop_assert_eq!(restored.detour, city.data.detour);
        prop_assert_eq!(restored.switch, city.data.switch);
    }

    /// Every trajectory of a generated city is a valid walk whose label
    /// matches its split, and anomalies keep their base SD pair.
    #[test]
    fn city_trajectory_invariants(seed in 0u64..100) {
        let city = generate_city(&CityConfig::test_scale(seed));
        for t in city.data.train.iter().chain(&city.data.test_id).chain(&city.data.test_ood) {
            prop_assert!(t.label == tad_trajsim::Label::Normal);
            prop_assert!(city.net.is_connected_path(&t.segments));
        }
        for t in &city.data.detour {
            prop_assert!(t.label == tad_trajsim::Label::Detour);
            prop_assert!(city.net.is_connected_path(&t.segments));
        }
    }

    /// ROC-AUC is invariant under any positive affine transform of scores.
    #[test]
    fn roc_auc_affine_invariant(
        scores in prop::collection::vec(-100.0f64..100.0, 4..40),
        scale in 0.001f64..100.0,
        shift in -50.0f64..50.0,
    ) {
        let labels: Vec<bool> = scores.iter().enumerate().map(|(i, _)| i % 3 == 0).collect();
        let transformed: Vec<f64> = scores.iter().map(|s| s * scale + shift).collect();
        let a = tad_eval::metrics::roc_auc(&scores, &labels);
        let b = tad_eval::metrics::roc_auc(&transformed, &labels);
        prop_assert!((a - b).abs() < 1e-9);
    }

    /// PR-AUC is bounded by (0, 1] and at least the positive rate for any
    /// scoring.
    #[test]
    fn pr_auc_bounds(
        scores in prop::collection::vec(-10.0f64..10.0, 6..30),
    ) {
        let labels: Vec<bool> = scores.iter().enumerate().map(|(i, _)| i % 2 == 0).collect();
        let ap = tad_eval::metrics::pr_auc(&scores, &labels);
        let pos_rate = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;
        prop_assert!(ap > 0.0 && ap <= 1.0);
        // Average precision of any ranking is at least ~pos_rate * k factor;
        // use the loose lower bound AP >= pos_rate / n.
        prop_assert!(ap >= pos_rate / labels.len() as f64);
    }

    /// Arbitrary scorer states round-trip through the session codec
    /// byte-for-byte: `decode(encode(x)) == x` and re-encoding the decoded
    /// state reproduces the exact blob.
    #[test]
    fn scorer_state_codec_roundtrips(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = arb_state(&mut rng);
        let blob = state_to_bytes(&state);
        let decoded = state_from_bytes(blob.clone());
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        let decoded = decoded.unwrap();
        prop_assert_eq!(&decoded, &state);
        prop_assert_eq!(state_to_bytes(&decoded).to_vec(), blob.to_vec());
    }

    /// Fleet snapshots round-trip for any session count, including the
    /// empty fleet and the strategy's maximum.
    #[test]
    fn fleet_snapshot_codec_roundtrips(seed in 0u64..10_000, n in 0usize..17) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Always exercise the boundary counts alongside the drawn one.
        for sessions in [0, n, MAX_SNAPSHOT_SESSIONS] {
            let image = arb_image(sessions, &mut rng);
            let blob = image_to_bytes(&image);
            let decoded = image_from_bytes(blob.clone());
            prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
            let decoded = decoded.unwrap();
            prop_assert_eq!(&decoded, &image);
            prop_assert_eq!(image_to_bytes(&decoded).to_vec(), blob.to_vec());
        }
    }

    /// Corrupt session blobs — truncated anywhere, or with any single bit
    /// flipped — always come back as a typed error, never a panic, and
    /// header corruption maps to the matching variant.
    #[test]
    fn corrupt_state_blobs_decode_to_typed_errors(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blob = state_to_bytes(&arb_state(&mut rng)).to_vec();

        let cut = rng.gen_range(0usize..blob.len());
        prop_assert!(state_from_bytes(blob[..cut].to_vec().into()).is_err(), "cut={cut}");

        let byte = rng.gen_range(0usize..blob.len());
        let bit = rng.gen_range(0u32..8);
        let mut flipped = blob.clone();
        flipped[byte] ^= 1 << bit;
        let err = state_from_bytes(flipped.into());
        prop_assert!(err.is_err(), "flip byte {byte} bit {bit} was accepted");
        match (byte, err.unwrap_err()) {
            (0..=3, StateCodecError::BadMagic) => {}
            (0..=3, other) => {
                return Err(TestCaseError::fail(format!("magic flip gave {other:?}")));
            }
            (4..=5, StateCodecError::BadVersion(_)) => {}
            (4..=5, other) => {
                return Err(TestCaseError::fail(format!("version flip gave {other:?}")));
            }
            _ => {} // body flips: Truncated or ChecksumMismatch, both fine
        }
    }

    /// The same battery for whole fleet snapshots: wrong magic, wrong
    /// version, every truncation, and random bit flips are all typed
    /// errors — `cargo test` proving the absence of any panic path.
    #[test]
    fn corrupt_fleet_snapshots_decode_to_typed_errors(seed in 0u64..10_000, n in 0usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blob = image_to_bytes(&arb_image(n, &mut rng)).to_vec();

        let mut wrong_magic = blob.clone();
        wrong_magic[1] = b'X';
        prop_assert_eq!(
            image_from_bytes(wrong_magic.into()).unwrap_err(),
            SnapshotCodecError::BadMagic
        );

        let mut wrong_version = blob.clone();
        wrong_version[4] = 0x42;
        match image_from_bytes(wrong_version.into()).unwrap_err() {
            SnapshotCodecError::BadVersion(0x42) => {}
            other => return Err(TestCaseError::fail(format!("version flip gave {other:?}"))),
        }

        let cut = rng.gen_range(0usize..blob.len());
        prop_assert!(image_from_bytes(blob[..cut].to_vec().into()).is_err(), "cut={cut}");

        for _ in 0..8 {
            let byte = rng.gen_range(0usize..blob.len());
            let bit = rng.gen_range(0u32..8);
            let mut flipped = blob.clone();
            flipped[byte] ^= 1 << bit;
            prop_assert!(
                image_from_bytes(flipped.into()).is_err(),
                "flip byte {byte} bit {bit} was accepted"
            );
        }
    }

    /// The trip→backend assignment is stable (identical on repeated
    /// calls) and in range for arbitrary trip ids and fleet sizes — the
    /// stickiness invariant the router tier's bit-exactness rests on.
    #[test]
    fn partitioner_is_stable_and_in_range(seed in 0u64..10_000, backends in 1u32..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let trip = rng.gen_range(0u64..u64::MAX);
            let b = backend_for(trip, backends);
            prop_assert!(b < backends, "backend_for({trip}, {backends}) = {b}");
            prop_assert_eq!(b, backend_for(trip, backends));
        }
    }

    /// Any trip-id distribution — dense sequential, strided, or uniformly
    /// random — balances across the fleet within tolerance (every backend
    /// within 2x of the fair share; the binomial noise at this sample
    /// size is far smaller).
    #[test]
    fn partitioner_balances_arbitrary_id_distributions(seed in 0u64..10_000, backends in 2u32..9) {
        const TRIPS: u64 = 4096;
        let mut rng = StdRng::seed_from_u64(seed);
        let base = rng.gen_range(0u64..u64::MAX / 2);
        let stride = rng.gen_range(1u64..1_000_000);
        for mode in 0..3 {
            let mut counts = vec![0u64; backends as usize];
            for i in 0..TRIPS {
                let trip = match mode {
                    0 => i,
                    1 => base.wrapping_add(i.wrapping_mul(stride)),
                    _ => rng.gen_range(0u64..u64::MAX),
                };
                counts[backend_for(trip, backends) as usize] += 1;
            }
            let mean = TRIPS / u64::from(backends);
            for (b, &c) in counts.iter().enumerate() {
                prop_assert!(
                    c > mean / 2 && c < mean * 2,
                    "mode {} backend {}/{} got {} of {} trips (mean {})",
                    mode, b, backends, c, TRIPS, mean
                );
            }
        }
    }

    /// `split_image` routes every captured session to exactly the backend
    /// the router will send its future events to, loses nothing, and
    /// merging the parts reproduces the original session set — the
    /// restore-alignment invariant behind N→M warm restarts.
    #[test]
    fn split_image_aligns_with_trip_routing(seed in 0u64..10_000, n in 0usize..33, backends in 1u32..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let image = arb_image(n, &mut rng);
        let parts = split_image(image.clone(), backends);
        prop_assert_eq!(parts.len(), backends as usize);
        let total: usize = parts.iter().map(|p| p.sessions.len()).sum();
        prop_assert_eq!(total, image.sessions.len());
        for (idx, part) in parts.iter().enumerate() {
            for rec in &part.sessions {
                prop_assert_eq!(backend_for(rec.id, backends), idx as u32);
            }
        }
        let mut merged = FleetImage::merge(parts);
        merged.sessions.sort_by_key(|r| r.id);
        let mut want = image.sessions;
        want.sort_by_key(|r| r.id);
        prop_assert_eq!(merged.sessions, want);
    }

    /// `TADD` delta blobs round-trip byte-for-byte for any churn size —
    /// including the empty delta (no dirtied sessions, no tombstones) a
    /// quiet interval produces: `decode(encode(x)) == x` and re-encoding
    /// the decoded delta reproduces the exact blob.
    #[test]
    fn fleet_delta_codec_roundtrips(seed in 0u64..10_000, n in 0usize..17) {
        let mut rng = StdRng::seed_from_u64(seed);
        for sessions in [0, n, MAX_SNAPSHOT_SESSIONS] {
            let mut delta = arb_delta(
                rng.gen_range(1u64..1_000),
                rng.gen_range(1u64..1_000),
                sessions,
                &mut rng,
            );
            if sessions == 0 {
                delta.removed.clear(); // the fully empty quiet-interval delta
            }
            let blob = delta_to_bytes(&delta);
            let decoded = delta_from_bytes(blob.clone());
            prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
            let decoded = decoded.unwrap();
            prop_assert_eq!(&decoded, &delta);
            prop_assert_eq!(delta_to_bytes(&decoded).to_vec(), blob.to_vec());
        }
    }

    /// Corrupt `TADD` blobs — wrong magic, wrong version, truncated
    /// anywhere, or with random bits flipped — always decode to a typed
    /// [`SnapshotCodecError`], never a panic and never a silently wrong
    /// delta (the sealed-envelope checksum catches every body flip).
    #[test]
    fn corrupt_fleet_deltas_decode_to_typed_errors(seed in 0u64..10_000, n in 0usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let delta = arb_delta(rng.gen_range(1u64..1_000), rng.gen_range(1u64..1_000), n, &mut rng);
        let blob = delta_to_bytes(&delta).to_vec();

        let mut wrong_magic = blob.clone();
        wrong_magic[1] = b'X';
        prop_assert_eq!(
            delta_from_bytes(wrong_magic.into()).unwrap_err(),
            SnapshotCodecError::BadMagic
        );

        let mut wrong_version = blob.clone();
        wrong_version[4] = 0x42;
        match delta_from_bytes(wrong_version.into()).unwrap_err() {
            SnapshotCodecError::BadVersion(0x42) => {}
            other => return Err(TestCaseError::fail(format!("version flip gave {other:?}"))),
        }

        let cut = rng.gen_range(0usize..blob.len());
        prop_assert!(delta_from_bytes(blob[..cut].to_vec().into()).is_err(), "cut={cut}");

        for _ in 0..8 {
            let byte = rng.gen_range(0usize..blob.len());
            let bit = rng.gen_range(0u32..8);
            let mut flipped = blob.clone();
            flipped[byte] ^= 1 << bit;
            prop_assert!(
                delta_from_bytes(flipped.into()).is_err(),
                "flip byte {byte} bit {bit} was accepted"
            );
        }
    }

    /// A delta chain applies if and only if it is *exactly* the next link:
    /// wrong epoch, skipped seq, and replayed seq are all typed
    /// [`DeltaChainError`]s that leave the base untouched, while the
    /// in-order chain (fed through its serialized `TADD` form) applies
    /// clean — the fold can never silently reconstruct a wrong fleet.
    #[test]
    fn delta_chains_reject_out_of_order_links_typed(seed in 0u64..10_000, n in 0usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let epoch = rng.gen_range(1u64..1_000);
        let mut base = DeltaBase::new(arb_image(n, &mut rng), epoch);
        let untouched = base.image().clone();

        // Wrong chain: different epoch, skipped seq, replayed seq.
        let foreign = arb_delta(epoch + 1, 1, 1, &mut rng);
        match base.apply(&foreign) {
            Err(DeltaChainError::BaseMismatch { expected_epoch, found_epoch }) => {
                prop_assert_eq!((expected_epoch, found_epoch), (epoch, epoch + 1));
            }
            other => return Err(TestCaseError::fail(format!("epoch mismatch gave {other:?}"))),
        }
        let skipped = arb_delta(epoch, 2, 1, &mut rng);
        match base.apply(&skipped) {
            Err(DeltaChainError::OutOfOrder { expected_seq: 1, found_seq: 2 }) => {}
            other => return Err(TestCaseError::fail(format!("seq skip gave {other:?}"))),
        }
        prop_assert_eq!(base.applied(), 0);
        prop_assert_eq!(base.image(), &untouched);

        // The real chain, folded through its serialized form.
        for seq in 1..=3u64 {
            let link = arb_delta(epoch, seq, rng.gen_range(0usize..4), &mut rng);
            let link = delta_from_bytes(delta_to_bytes(&link)).expect("TADD round-trip");
            prop_assert!(base.apply(&link).is_ok(), "in-order link {seq} rejected");
            // Replaying the link just applied is typed, not idempotent.
            match base.apply(&link) {
                Err(DeltaChainError::OutOfOrder { expected_seq, found_seq }) => {
                    prop_assert_eq!((expected_seq, found_seq), (seq + 1, seq));
                }
                other => return Err(TestCaseError::fail(format!("replay gave {other:?}"))),
            }
        }
        prop_assert_eq!(base.applied(), 3);
    }

    /// Every wire request frame type round-trips byte-for-byte:
    /// `decode(encode(x)) == x` and re-encoding reproduces the blob.
    #[test]
    fn wire_request_frames_roundtrip(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = arb_request(&mut rng);
        let blob = request_to_bytes(&req);
        let decoded = request_from_bytes(blob.clone());
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        let decoded = decoded.unwrap();
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(request_to_bytes(&decoded).to_vec(), blob.to_vec());
    }

    /// Every wire response frame type round-trips byte-for-byte, score
    /// f64 bits included.
    #[test]
    fn wire_response_frames_roundtrip(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resp = arb_response(&mut rng);
        let blob = response_to_bytes(&resp);
        let decoded = response_from_bytes(blob.clone());
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        let decoded = decoded.unwrap();
        prop_assert_eq!(&decoded, &resp);
        prop_assert_eq!(response_to_bytes(&decoded).to_vec(), blob.to_vec());
    }

    /// A frame decoded in the wrong direction (request as response or vice
    /// versa) is a typed error, never a misparse.
    #[test]
    fn wire_direction_confusion_is_typed(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(
            response_from_bytes(request_to_bytes(&arb_request(&mut rng))).unwrap_err(),
            FrameError::UnexpectedKind { expected: "response", got: "request" }
        );
        prop_assert_eq!(
            request_from_bytes(response_to_bytes(&arb_response(&mut rng))).unwrap_err(),
            FrameError::UnexpectedKind { expected: "request", got: "response" }
        );
    }

    /// Corrupt wire frames — truncated anywhere, or with any bit flipped —
    /// decode to typed errors from *both* decoders, never a panic, and
    /// header corruption maps to the matching variant. (The exhaustive
    /// every-byte × every-bit battery runs in `tad-net`'s unit tests;
    /// this mirrors the randomized style of the state/snapshot batteries
    /// above over arbitrary frames.)
    #[test]
    fn corrupt_wire_frames_decode_to_typed_errors(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blob = if rng.gen_bool(0.5) {
            request_to_bytes(&arb_request(&mut rng)).to_vec()
        } else {
            response_to_bytes(&arb_response(&mut rng)).to_vec()
        };

        let cut = rng.gen_range(0usize..blob.len());
        prop_assert!(request_from_bytes(blob[..cut].to_vec().into()).is_err(), "cut={cut}");
        prop_assert!(response_from_bytes(blob[..cut].to_vec().into()).is_err(), "cut={cut}");

        for _ in 0..8 {
            let byte = rng.gen_range(0usize..blob.len());
            let bit = rng.gen_range(0u32..8);
            let mut flipped = blob.clone();
            flipped[byte] ^= 1 << bit;
            let err = request_from_bytes(flipped.clone().into());
            prop_assert!(err.is_err(), "flip byte {byte} bit {bit} accepted as request");
            match (byte, err.unwrap_err()) {
                (0..=3, FrameError::BadMagic) => {}
                (0..=3, other) => {
                    return Err(TestCaseError::fail(format!("magic flip gave {other:?}")));
                }
                (4..=5, FrameError::BadVersion(_)) => {}
                (4..=5, other) => {
                    return Err(TestCaseError::fail(format!("version flip gave {other:?}")));
                }
                _ => {} // body flips: Truncated/ChecksumMismatch/kind errors, all fine
            }
            prop_assert!(
                response_from_bytes(flipped.into()).is_err(),
                "flip byte {byte} bit {bit} accepted as response"
            );
        }
    }

    /// The hostile-stream equivalence property: an arbitrarily corrupted
    /// interleaving — duplicated, reordered, and truncated per-trip
    /// streams, with some trips losing their `TripEnd` entirely — fed
    /// under one sampled [`StreamPolicy`] produces **bit-identical**
    /// scores through all three ingest tiers: direct in-process
    /// `FleetEngine`, the `tad-net` TCP front-end, and a `tad-router`
    /// over two backends. When the sampled policy is all-off, the strict
    /// [`drain`] additionally proves the wire carries *zero* policy
    /// frames — the policies-off path is observably identical to the
    /// pre-policy engine.
    #[test]
    fn hostile_streams_sanitize_identically_across_ingest_tiers(seed in 0u64..10_000) {
        let (city, model) = trained();
        let mut rng = StdRng::seed_from_u64(seed);
        let clean: Vec<Trajectory> = city.data.test_id.iter().take(5).cloned().collect();
        let corruption = CorruptionConfig {
            duplicate_prob: rng.gen_range(0.0..0.35),
            reorder_prob: rng.gen_range(0.0..0.35),
            drop_prob: rng.gen_range(0.0..0.2),
            jitter_prob: 0.0,
            teleport_prob: 0.0,
            seed: rng.next_u64(),
        };
        let dirty = corrupt_dataset(&city.net, &clean, &corruption);
        let refs: Vec<&Trajectory> = dirty.iter().collect();
        let mut events = interleave(&refs);
        // Truncation faults: some trips never see their TripEnd (the
        // producer died mid-trip); their sessions stay live to shutdown.
        let cut_ends: Vec<u64> =
            (0..refs.len() as u64).filter(|_| rng.gen_bool(0.2)).collect();
        events.retain(|ev| {
            !(matches!(ev, Event::TripEnd { .. }) && cut_ends.contains(&trip_of(ev)))
        });
        let policy = StreamPolicy {
            dedup_window: if rng.gen_bool(0.5) { rng.gen_range(1usize..4) } else { 0 },
            reorder_window: if rng.gen_bool(0.5) { rng.gen_range(1usize..4) } else { 0 },
            gap: if rng.gen_bool(0.5) { GapPolicy::Reset } else { GapPolicy::ScoreThrough },
        };
        let cfg = FleetConfig { num_shards: 2, policy: policy.clone(), ..FleetConfig::default() };

        let direct = in_process(model, &events, cfg.clone());

        // Network tier: same stream, same policy, over TCP.
        let server = NetServer::builder(Arc::clone(model))
            .fleet_config(cfg.clone())
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        send_events(&mut client, &events);
        client.flush().expect("barrier");
        let mut over_net = Produced::default();
        if policy.is_off() {
            drain(&mut client, &mut over_net);
        } else {
            drain_with_notices(&mut client, &mut over_net);
        }
        assert_bit_identical(&over_net, &direct);
        prop_assert_eq!(server.net_stats().responses_dropped, 0);
        server.shutdown();

        // Routed tier: the same stream through a router over two policy-
        // enabled backends.
        let backends: Vec<NetServer> = (0..2)
            .map(|_| {
                NetServer::builder(Arc::clone(model))
                    .fleet_config(cfg.clone())
                    .bind("127.0.0.1:0")
                    .expect("bind backend")
            })
            .collect();
        let router = RouterServer::builder()
            .backends(backends.iter().map(|b| b.local_addr()))
            .bind("127.0.0.1:0")
            .expect("bind router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        send_events(&mut client, &events);
        client.flush().expect("fleet barrier");
        let mut routed = Produced::default();
        if policy.is_off() {
            drain(&mut client, &mut routed);
        } else {
            drain_with_notices(&mut client, &mut routed);
        }
        assert_bit_identical(&routed, &direct);
        prop_assert_eq!(router.stats().responses_dropped, 0);
        router.shutdown();
        for backend in backends {
            backend.shutdown();
        }
    }

    /// The nonblocking read path reassembles frames bit-identically under
    /// *any* fragmentation: one arbitrary frame split at **every** byte
    /// boundary, and arbitrary multi-frame streams chopped into random
    /// chunks with a `WouldBlock` between each — driven through the same
    /// [`Conn`] state machine the production event loop uses, under
    /// random per-call read budgets.
    #[test]
    fn nonblocking_partial_reads_reassemble_frames_bit_identically(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);

        // Exhaustive: one frame, split at every single byte boundary.
        let single = request_to_bytes(&arb_request(&mut rng)).to_vec();
        for cut in 1..single.len() {
            let (io, h) = scripted_conn();
            h.push_read(&single[..cut]);
            h.push_read(&single[cut..]);
            h.eof();
            let mut conn = Conn::new(io, DEFAULT_MAX_FRAME);
            let mut out = Vec::new();
            loop {
                match conn.read_frames(usize::MAX, &mut out) {
                    Ok(ReadStatus::Eof) => break,
                    Ok(_) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("cut {cut}: {e}"))),
                }
            }
            prop_assert_eq!(out.len(), 1);
            prop_assert_eq!(out[0].to_vec(), single.clone());
        }

        // Randomized: a multi-frame stream in arbitrary small chunks.
        let reqs: Vec<Request> =
            (0..rng.gen_range(1usize..10)).map(|_| arb_request(&mut rng)).collect();
        let frames: Vec<Vec<u8>> = reqs.iter().map(|r| request_to_bytes(r).to_vec()).collect();
        let stream: Vec<u8> = frames.concat();
        let (io, h) = scripted_conn();
        let mut pos = 0usize;
        while pos < stream.len() {
            let len = rng.gen_range(1usize..=(stream.len() - pos).min(31));
            h.push_read(&stream[pos..pos + len]);
            pos += len;
        }
        h.eof();
        let mut conn = Conn::new(io, DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        let mut spins = 0u32;
        loop {
            match conn.read_frames(rng.gen_range(1usize..4096), &mut out) {
                Ok(ReadStatus::Eof) => break,
                Ok(_) => {}
                Err(e) => return Err(TestCaseError::fail(format!("reassembly: {e}"))),
            }
            spins += 1;
            prop_assert!(spins < 100_000, "read loop did not terminate");
        }
        prop_assert_eq!(out.len(), frames.len());
        for (got, want) in out.iter().zip(&frames) {
            prop_assert_eq!(&got.to_vec(), want);
        }
        for (got, want) in out.iter().zip(&reqs) {
            prop_assert_eq!(&request_from_bytes(got.clone()).unwrap(), want);
        }
    }

    /// The nonblocking write path drains bit-identically under *any*
    /// short-write pattern: frames queued in random slices against a
    /// blocked transport, then flushed under random per-call caps and
    /// random window replenishments — the bytes on the wire are exactly
    /// the queued stream, and the backlog never survives a full drain.
    #[test]
    fn short_writes_drain_queued_frames_bit_identically(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resps: Vec<Response> =
            (0..rng.gen_range(1usize..10)).map(|_| arb_response(&mut rng)).collect();
        let stream: Vec<u8> =
            resps.iter().flat_map(|r| response_to_bytes(r).to_vec()).collect();

        let (io, h) = scripted_conn();
        h.set_write_window(0); // peer socket full: nothing drains yet
        let mut conn = Conn::new(io, DEFAULT_MAX_FRAME);
        let mut pos = 0usize;
        while pos < stream.len() {
            let len = rng.gen_range(1usize..=(stream.len() - pos).min(101));
            conn.queue_bytes(&stream[pos..pos + len]);
            pos += len;
            if rng.gen_bool(0.3) {
                prop_assert!(!conn.flush_writes().expect("write"), "drained through a 0 window");
            }
        }
        prop_assert_eq!(conn.write_backlog(), stream.len());
        prop_assert!(conn.wants_write());

        let mut spins = 0u32;
        loop {
            h.set_write_cap(rng.gen_range(1usize..64));
            h.set_write_window(rng.gen_range(1usize..64));
            if conn.flush_writes().expect("write") {
                break;
            }
            spins += 1;
            prop_assert!(spins < 100_000, "write loop did not terminate");
        }
        prop_assert!(!conn.wants_write());
        prop_assert_eq!(conn.write_backlog(), 0);
        prop_assert_eq!(h.take_written(), stream);
    }

    /// Hostile read interleavings — raw garbage spliced after valid
    /// frames, a bit flipped anywhere in a frame, or a frame truncated
    /// mid-body with a fresh frame behind it — never panic the read
    /// path: every frame before the corruption is delivered bit-exact,
    /// and the corruption itself surfaces as a typed error at one of the
    /// two validation layers (a framing `RecvError` from the assembler,
    /// or a checksum/decode `FrameError` on the emitted frame).
    #[test]
    fn hostile_read_interleavings_are_typed_errors_never_panics(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let clean: Vec<Vec<u8>> = (0..rng.gen_range(0usize..4))
            .map(|_| request_to_bytes(&arb_request(&mut rng)).to_vec())
            .collect();
        let mut stream: Vec<u8> = clean.concat();
        match rng.gen_range(0u8..3) {
            0 => {
                // Raw garbage splice (first byte pinned off the magic so
                // detection is deterministic).
                let mut garbage: Vec<u8> =
                    (0..rng.gen_range(1usize..64)).map(|_| rng.gen_range(0u8..=255)).collect();
                if garbage[0] == FRAME_MAGIC[0] {
                    garbage[0] ^= 0xFF;
                }
                stream.extend_from_slice(&garbage);
            }
            1 => {
                // One bit flipped anywhere in an otherwise valid frame.
                let mut f = request_to_bytes(&arb_request(&mut rng)).to_vec();
                let byte = rng.gen_range(0usize..f.len());
                f[byte] ^= 1 << rng.gen_range(0u32..8);
                stream.extend_from_slice(&f);
            }
            _ => {
                // Framing lost: a frame truncated mid-body, then a fresh
                // valid frame whose bytes land inside the torn envelope.
                let f = request_to_bytes(&arb_request(&mut rng)).to_vec();
                let cut = rng.gen_range(1usize..f.len());
                stream.extend_from_slice(&f[..cut]);
                stream.extend_from_slice(&request_to_bytes(&arb_request(&mut rng)));
            }
        }

        let (io, h) = scripted_conn();
        let mut pos = 0usize;
        while pos < stream.len() {
            let len = rng.gen_range(1usize..=(stream.len() - pos).min(31));
            h.push_read(&stream[pos..pos + len]);
            pos += len;
        }
        h.eof();
        let mut conn = Conn::new(io, DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        let mut failure = None;
        let mut spins = 0u32;
        loop {
            match conn.read_frames(rng.gen_range(1usize..4096), &mut out) {
                Ok(ReadStatus::Eof) => break,
                Ok(_) => {}
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            spins += 1;
            prop_assert!(spins < 100_000, "read loop did not terminate");
        }
        let tail_hostile = out.len() > clean.len()
            && request_from_bytes(out[clean.len()].clone()).is_err();
        prop_assert!(failure.is_some() || tail_hostile, "hostile stream was accepted cleanly");
        prop_assert!(out.len() >= clean.len(), "a clean-prefix frame was lost");
        for (got, want) in out.iter().zip(&clean) {
            prop_assert_eq!(&got.to_vec(), want);
        }
    }

    /// Any metrics snapshot a registry can produce round-trips through the
    /// `TADM` codec byte-for-byte: `decode(encode(x)) == x` and
    /// re-encoding the decoded snapshot reproduces the exact blob — the
    /// bijection the router's fleet merge relies on.
    #[test]
    fn metrics_snapshot_codec_roundtrips(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let snapshot = arb_metrics(&mut rng);
        let blob = snapshot_to_bytes(&snapshot);
        let decoded = snapshot_from_bytes(blob.clone());
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        let decoded = decoded.unwrap();
        prop_assert_eq!(&decoded, &snapshot);
        prop_assert_eq!(snapshot_to_bytes(&decoded).to_vec(), blob.to_vec());
    }

    /// Histogram merge is exactly associative and commutative — grouping
    /// and order of backends can never change a fleet-wide histogram, so
    /// any merge tree (router fan-in, offline aggregation, re-merges)
    /// produces bit-identical results.
    #[test]
    fn histogram_merge_is_associative_and_commutative(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut parts: Vec<HistogramSnapshot> = Vec::new();
        for _ in 0..3 {
            let h = Histogram::new();
            for _ in 0..rng.gen_range(0usize..48) {
                let v: u64 = rng.next_u64() >> rng.gen_range(0u32..64);
                h.record_n(v, rng.gen_range(1u64..1_000));
            }
            parts.push(h.snapshot());
        }
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);
        let ab = HistogramSnapshot::merged(&[a.clone(), b.clone()]);
        let bc = HistogramSnapshot::merged(&[b.clone(), c.clone()]);
        let left = HistogramSnapshot::merged(&[ab.clone(), c.clone()]);
        let right = HistogramSnapshot::merged(&[a.clone(), bc]);
        let flat = HistogramSnapshot::merged(&parts);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &flat);
        prop_assert_eq!(HistogramSnapshot::merged(&[b.clone(), a.clone()]), ab);
        // The identity element: merging with an empty histogram is a no-op.
        prop_assert_eq!(&HistogramSnapshot::merged(&[a.clone(), HistogramSnapshot::empty()]), a);

        // The same holds one level up, for whole snapshots keyed by name —
        // the discipline the router's fleet fan-in relies on.
        let (x, y, z) = (arb_metrics(&mut rng), arb_metrics(&mut rng), arb_metrics(&mut rng));
        let xy = MetricsSnapshot::merged(&[x.clone(), y.clone()]);
        let yz = MetricsSnapshot::merged(&[y.clone(), z.clone()]);
        let snap_left = MetricsSnapshot::merged(&[xy.clone(), z.clone()]);
        let snap_right = MetricsSnapshot::merged(&[x.clone(), yz]);
        prop_assert_eq!(&snap_left, &snap_right);
        prop_assert_eq!(MetricsSnapshot::merged(&[y, x]), xy);
        prop_assert_eq!(
            snapshot_from_bytes(snapshot_to_bytes(&snap_left)).unwrap(),
            snap_left
        );
    }
}

/// The exhaustive corruption battery for the `TADM` metrics codec: every
/// single-bit flip of every byte of a representative snapshot either
/// fails to decode (typed error, no panic) or decodes to a *different*
/// snapshot — no corruption can silently impersonate the original.
#[test]
fn metrics_blob_every_bit_flip_is_detected_or_distinct() {
    let registry = Registry::new();
    registry.counter("net.backpressure_replies").add(7);
    registry.gauge("serve.ingest_inflight").set(-3);
    let h = registry.histogram("serve.score_latency_ns");
    h.record(0);
    h.record(900);
    h.record_n(125_000, 64);
    h.record(u64::MAX);
    let snapshot = registry.snapshot();
    let blob = snapshot_to_bytes(&snapshot).to_vec();

    for cut in 0..blob.len() {
        assert!(snapshot_from_bytes(blob[..cut].to_vec().into()).is_err(), "cut={cut} accepted");
    }
    for byte in 0..blob.len() {
        for bit in 0..8 {
            let mut flipped = blob.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok(decoded) = snapshot_from_bytes(flipped.into()) {
                assert_ne!(
                    decoded, snapshot,
                    "flip byte {byte} bit {bit} decoded back to the original"
                );
            }
        }
    }
}

/// Concurrent recorders never lose a sample: hammering one histogram from
/// several threads yields a snapshot whose count and sum match the work
/// submitted exactly (the lock-free hot path is relaxed, but nothing is
/// dropped or double-counted).
#[test]
fn concurrent_histogram_recorders_are_exact() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25_000;
    let registry = std::sync::Arc::new(Registry::new());
    let h = registry.histogram("serve.score_latency_ns");
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = std::sync::Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("recorder thread");
    }
    let snapshot = h.snapshot();
    assert_eq!(snapshot.count, THREADS * PER_THREAD);
    let n = THREADS * PER_THREAD;
    assert_eq!(snapshot.sum, n * (n - 1) / 2);
    assert_eq!(snapshot.min, 0);
    assert_eq!(snapshot.max, n - 1);
    // And the registry-level snapshot carries the identical histogram.
    assert_eq!(registry.snapshot().histogram("serve.score_latency_ns").unwrap(), &snapshot);
}

/// The single-bit flips a corruption battery tries on a `len`-byte blob:
/// every bit of the first and last 512 bytes, plus 4 096 seeded positions
/// in the middle of a blob longer than that.
fn battery_flips(len: usize) -> Vec<(usize, u32)> {
    let edges = (0..len.min(512)).chain(len.saturating_sub(512).max(512)..len);
    let mut flips: Vec<(usize, u32)> = edges.flat_map(|at| (0..8).map(move |b| (at, b))).collect();
    if len > 1024 {
        let mut rng = StdRng::seed_from_u64(len as u64);
        flips.extend((0..4096).map(|_| (rng.gen_range(512..len - 512), rng.gen_range(0u32..8))));
    }
    flips
}

/// The battery every byte format gets. `decode` returns the re-encoding
/// of what it decoded, or `None` for a typed error (a panic fails the
/// test by itself). The blob must round-trip canonically; every
/// truncation must be an error; and a single-bit flip must be an error
/// too — or, in a format that carries no checksum (`sealed == false`), a
/// faithful decode of the flipped bytes: never `Ok` with contents that
/// encode to anything else.
fn byte_format_battery(blob: &[u8], sealed: bool, decode: impl Fn(&[u8]) -> Option<Vec<u8>>) {
    assert_eq!(decode(blob).as_deref(), Some(blob), "canonical round-trip");
    for cut in 0..blob.len() {
        assert!(decode(&blob[..cut]).is_none(), "cut={cut} of {} accepted", blob.len());
    }
    let mut flipped = blob.to_vec();
    for (byte, bit) in battery_flips(blob.len()) {
        flipped[byte] ^= 1 << bit;
        if let Some(again) = decode(&flipped) {
            assert!(!sealed, "flip byte {byte} bit {bit} passed a checksum");
            assert_eq!(again, flipped, "flip byte {byte} bit {bit} decoded to other contents");
        }
        flipped[byte] ^= 1 << bit;
    }
}

/// A small model with pairwise distinct widths (a swapped pair changes a
/// shape) on a 16-node grid, scaling table included: ~10 KB sealed, so the
/// batteries below stay cheap in an unoptimised build.
fn tiny_model() -> (RoadNetwork, CausalTad) {
    let grid = GridCityConfig { width: 4, height: 4, ..GridCityConfig::tiny() };
    let net = generate_grid_city(&grid, &mut StdRng::seed_from_u64(7));
    let cfg = CausalTadConfig {
        embed_dim: 5,
        hidden_dim: 7,
        latent_dim: 3,
        rp_latent_dim: 2,
        scaling_mc_samples: 2,
        ..CausalTadConfig::test_scale()
    };
    let mut model = CausalTad::new(&net, cfg);
    model.precompute_scaling();
    (net, model)
}

/// Hand-built parameter blob: `(name, rows, cols)` per record, zeros for
/// as many values as `values` says (a lying shape has none behind it).
fn param_blob(count: u32, records: &[(&str, u32, u32, usize)]) -> Vec<u8> {
    let mut raw = count.to_le_bytes().to_vec();
    for &(name, rows, cols, values) in records {
        raw.extend_from_slice(&(name.len() as u32).to_le_bytes());
        raw.extend_from_slice(name.as_bytes());
        raw.extend_from_slice(&rows.to_le_bytes());
        raw.extend_from_slice(&cols.to_le_bytes());
        raw.extend_from_slice(&vec![0u8; values * 4]);
    }
    raw
}

/// The parameter-blob codec (no checksum of its own: it travels inside
/// the sealed model): canonical round-trip, every truncation typed, bit
/// flips typed or faithful, and the crafted inputs that used to panic —
/// an absurd count, a `2^31 x 2^31` shape, a duplicate name — are typed.
#[test]
fn param_store_codec_survives_the_corruption_battery() {
    let (_, model) = tiny_model();
    let blob = model.store().to_bytes().to_vec();
    byte_format_battery(&blob, false, |raw| {
        ParamStore::from_bytes(raw.to_vec().into()).ok().map(|store| store.to_bytes().to_vec())
    });

    let decode = |raw: Vec<u8>| ParamStore::from_bytes(raw.into()).err();
    assert_eq!(decode(param_blob(u32::MAX, &[])), Some(ReadError::Truncated("param count")));
    for (rows, cols) in [(1 << 31, 1 << 31), (u32::MAX, u32::MAX), (1, u32::MAX), (3, 2)] {
        let lying = param_blob(1, &[("w", rows, cols, 5)]);
        assert_eq!(decode(lying), Some(ReadError::Truncated("values")), "{rows} x {cols}");
    }
    assert_eq!(
        decode(param_blob(2, &[("w", 1, 2, 2), ("w", 1, 1, 1)])),
        Some(ReadError::Malformed("duplicate parameter name"))
    );
    assert_eq!(
        decode(param_blob(1, &[("w", 1, 2, 3)])),
        Some(ReadError::Malformed("trailing payload bytes"))
    );
    // Degenerate but well-formed: a huge empty shape reserves nothing.
    assert_eq!(decode(param_blob(1, &[("w", 1 << 31, 0, 0)])), None);
}

/// The scaling-table codec: the same battery, plus the header checks its
/// lookups rely on — `slot % num_slots` and `log_scale[token]` run on the
/// shard thread at scoring time, so a zero slot count or a table shorter
/// than its vocabulary must not decode.
#[test]
fn scaling_table_codec_survives_the_corruption_battery() {
    let (_, model) = tiny_model();
    let blob = model.scaling().expect("precomputed").to_bytes().to_vec();
    byte_format_battery(&blob, false, |raw| {
        ScalingTable::from_bytes(raw.to_vec().into()).ok().map(|table| table.to_bytes().to_vec())
    });

    let table = |vocab: u32, time_factorised: u8, slots: u32, announced: u32, entries: usize| {
        let mut raw = vocab.to_le_bytes().to_vec();
        raw.push(time_factorised);
        raw.extend_from_slice(&slots.to_le_bytes());
        raw.extend_from_slice(&announced.to_le_bytes());
        raw.extend_from_slice(&vec![0u8; entries * 16]);
        ScalingTable::from_bytes(raw.into()).map(|t| t.len())
    };
    assert_eq!(table(3, 0, 1, 3, 3), Ok(3));
    assert_eq!(table(3, 1, 2, 6, 6), Ok(6));
    let bad_count = Err(ReadError::Malformed("scaling entry count"));
    assert_eq!(table(3, 0, 0, 3, 3), bad_count, "num_slots = 0");
    assert_eq!(table(3, 1, 0, 0, 0), bad_count, "num_slots = 0, time-factorised");
    assert_eq!(table(3, 0, 1, 2, 2), bad_count, "shorter than vocab");
    assert_eq!(table(3, 1, 2, 3, 3), bad_count, "shorter than vocab x slots");
    assert_eq!(table(u32::MAX, 1, u32::MAX, 4, 4), bad_count, "token count overflows");
    assert_eq!(table(3, 2, 1, 3, 3), Err(ReadError::Malformed("scaling header")), "flag byte");
    assert_eq!(table(3, 0, 1, u32::MAX, 3), Err(ReadError::Truncated("scaling entries")));
}

/// Splits a `TADW` blob's payload into its config block, scaling blob and
/// parameter blob, so a test can swap one and re-seal the rest.
fn model_parts(blob: &[u8]) -> (Vec<u8>, Option<Vec<u8>>, Vec<u8>) {
    let mut r = Reader::new(&blob[ENVELOPE_HEADER_LEN..blob.len() - 8]);
    let config = r.bytes(4 * 5 + 8 + 4 * 2 + 1 + 8, "config").unwrap().to_vec();
    let scaling = r.opt("scaling flag", |r| r.blob("scaling blob")).unwrap().map(<[u8]>::to_vec);
    let params = r.blob("param blob").unwrap().to_vec();
    r.finish().unwrap();
    (config, scaling, params)
}

/// Seals model parts back into a `TADW` blob with a **valid** checksum.
fn model_blob(config: &[u8], scaling: Option<&[u8]>, params: &[u8]) -> Vec<u8> {
    let mut payload = config.to_vec();
    match scaling {
        Some(table) => {
            payload.push(1);
            payload.extend_from_slice(&(table.len() as u32).to_le_bytes());
            payload.extend_from_slice(table);
        }
        None => payload.push(0),
    }
    payload.extend_from_slice(&(params.len() as u32).to_le_bytes());
    payload.extend_from_slice(params);
    seal_envelope(b"TADW", 2, payload.into()).to_vec()
}

/// The model codec: the sealed battery (every truncation and every bit
/// flip is a typed error — none panics, none loads as a different model),
/// then the inputs only a checksum cannot stop: a blob re-sealed with a
/// valid checksum around parameters, dimensions or a scaling table that
/// do not describe one model.
#[test]
fn model_codec_survives_the_corruption_battery() {
    let (net, model) = tiny_model();
    let blob = model_to_bytes(&model).to_vec();
    byte_format_battery(&blob, true, |raw| {
        model_from_bytes(&net, raw.to_vec().into()).ok().map(|m| model_to_bytes(&m).to_vec())
    });

    let decode = |raw: Vec<u8>| model_from_bytes(&net, raw.into()).err();
    let (config, scaling, params) = model_parts(&blob);
    let scaling = scaling.expect("the tiny model carries its table");
    assert_eq!(decode(model_blob(&config, Some(&scaling), &params)), None, "parts reassemble");
    assert_eq!(decode(model_blob(&config, None, &params)), None, "the table is optional");

    // The pre-envelope format: bare magic + version 1.
    let mut v1 = blob.clone();
    v1[4] = 1;
    assert_eq!(decode(v1), Some(ModelCodecError::BadVersion(1)));
    let mut old_magic = blob.clone();
    old_magic[..4].copy_from_slice(b"TADM");
    assert_eq!(decode(old_magic), Some(ModelCodecError::BadMagic));

    // Parameters that are not the configured model's: one renamed, one
    // reshaped (same scalars, transposed), one dropped, one named twice.
    let store = ParamStore::from_bytes(params.clone().into()).expect("valid parameters");
    type Edit<'a> = &'a dyn Fn(usize, &str, (usize, usize)) -> Option<(String, (usize, usize))>;
    let params_with = |edit: Edit| {
        let (mut count, mut records) = (0u32, Vec::new());
        for (i, id) in store.ids().enumerate() {
            let value = store.value(id);
            let Some((name, (rows, cols))) = edit(i, store.name(id), value.shape()) else {
                continue;
            };
            count += 1;
            records.extend_from_slice(&(name.len() as u32).to_le_bytes());
            records.extend_from_slice(name.as_bytes());
            records.extend_from_slice(&(rows as u32).to_le_bytes());
            records.extend_from_slice(&(cols as u32).to_le_bytes());
            records.extend(value.data().iter().flat_map(|x| x.to_le_bytes()));
        }
        [count.to_le_bytes().to_vec(), records].concat()
    };
    let keep = |name: &str, shape| Some((name.to_string(), shape));
    assert_eq!(params_with(&|_, name, shape| keep(name, shape)), params, "faithful rebuild");
    let first = store.name(store.ids().next().expect("parameters")).to_string();
    let edits: [(&str, Edit); 4] = [
        ("renamed", &|i, name, shape| keep(if i == 2 { "tg.renamed" } else { name }, shape)),
        ("reshaped", &|i, name, (r, c)| keep(name, if i == 2 { (c, r) } else { (r, c) })),
        ("dropped", &|i, name, shape| if i == 2 { None } else { keep(name, shape) }),
        ("named twice", &|i, name, shape| keep(if i == 2 { &first } else { name }, shape)),
    ];
    for (what, edit) in edits {
        let bad = params_with(edit);
        assert_ne!(bad, params, "{what}");
        let sealed = model_blob(&config, Some(&scaling), &bad);
        assert_eq!(decode(sealed), Some(ModelCodecError::BadParams), "{what}");
    }

    // Dimensions the parameters do not account for (config block:
    // vocab, embed, hidden, latent, rp_latent as u32s).
    for (field, value) in [(2usize, 1u32 << 30), (1, 6), (3, u32::MAX), (4, 3)] {
        let mut widened = config.clone();
        widened[field * 4..field * 4 + 4].copy_from_slice(&value.to_le_bytes());
        let sealed = model_blob(&widened, Some(&scaling), &params);
        assert_eq!(decode(sealed), Some(ModelCodecError::BadParams), "field {field} = {value}");
    }
    let mut zeroed = config.clone();
    zeroed[8..12].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        decode(model_blob(&zeroed, Some(&scaling), &params)),
        Some(ModelCodecError::Malformed(_))
    ));
    let mut other_vocab = config.clone();
    other_vocab[..4].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        decode(model_blob(&other_vocab, Some(&scaling), &params)),
        Some(ModelCodecError::VocabMismatch { expected: 7, .. })
    ));

    // A scaling table that would fault at scoring time: zero slots, one
    // entry short, or self-consistent but for another vocabulary.
    let vocab = net.num_segments() as u32;
    let table = |vocab: u32, slots: u32, entries: u32| {
        let mut raw = vocab.to_le_bytes().to_vec();
        raw.push(0);
        raw.extend_from_slice(&slots.to_le_bytes());
        raw.extend_from_slice(&entries.to_le_bytes());
        raw.extend_from_slice(&vec![0u8; entries as usize * 16]);
        raw
    };
    assert_eq!(decode(model_blob(&config, Some(&table(vocab, 1, vocab)), &params)), None);
    for bad in [table(vocab, 0, vocab), table(vocab, 1, vocab - 1), table(vocab - 1, 1, vocab - 1)]
    {
        assert!(matches!(
            decode(model_blob(&config, Some(&bad), &params)),
            Some(ModelCodecError::Malformed(_))
        ));
    }
    let mut time_factorised = config.clone();
    time_factorised[36] |= 1; // flag byte: vocab, 4 dims, lambda, 2 u32s precede it
    assert_eq!(
        decode(model_blob(&time_factorised, Some(&scaling), &params)),
        Some(ModelCodecError::BadParams),
        "a time-factorised RP-VAE registers more tokens"
    );
}

/// The `TADR` road-network codec: the sealed battery, then absurd counts
/// under a valid checksum.
#[test]
fn road_network_codec_survives_the_corruption_battery() {
    let net = generate_grid_city(&GridCityConfig::tiny(), &mut StdRng::seed_from_u64(4));
    let blob = network_to_bytes(&net).to_vec();
    byte_format_battery(&blob, true, |raw| {
        network_from_bytes(raw.to_vec().into()).ok().map(|n| network_to_bytes(&n).to_vec())
    });

    let sealed = |payload: Vec<u8>| network_from_bytes(seal_envelope(b"TADR", 2, payload.into()));
    let huge = u32::MAX.to_le_bytes();
    assert_eq!(sealed(huge.to_vec()).err(), Some(NetCodecError::Truncated("nodes")));
    let no_nodes = [0u32.to_le_bytes(), huge].concat();
    assert_eq!(sealed(no_nodes).err(), Some(NetCodecError::Truncated("segments")));
    let mut v1 = blob.clone();
    v1[4] = 1;
    assert_eq!(network_from_bytes(v1.into()).err(), Some(NetCodecError::BadVersion(1)));
}

/// The `TADT` dataset codec: the sealed battery, then absurd counts under
/// a valid checksum (the trajectory count used to size a reservation
/// unchecked).
#[test]
fn dataset_codec_survives_the_corruption_battery() {
    let city = generate_city(&CityConfig::test_scale(12));
    let blob = datasets_to_bytes(&city.data).to_vec();
    byte_format_battery(&blob, true, |raw| {
        datasets_from_bytes(raw.to_vec().into()).ok().map(|d| datasets_to_bytes(&d).to_vec())
    });

    let sealed = |payload: Vec<u8>| datasets_from_bytes(seal_envelope(b"TADT", 2, payload.into()));
    let huge = u32::MAX.to_le_bytes();
    assert_eq!(sealed(huge.to_vec()).err(), Some(DataCodecError::Truncated("trajectories")));
    // One trajectory announcing u32::MAX segments.
    let lying = [&1u32.to_le_bytes()[..], &[0, 0], &huge].concat();
    assert_eq!(sealed(lying).err(), Some(DataCodecError::Truncated("segments")));
    let bad_label = [&1u32.to_le_bytes()[..], &[9, 0], &0u32.to_le_bytes()].concat();
    assert_eq!(sealed(bad_label).err(), Some(DataCodecError::BadLabel(9)));
    let mut v1 = blob.clone();
    v1[4] = 1;
    assert_eq!(datasets_from_bytes(v1.into()).err(), Some(DataCodecError::BadVersion(1)));
}
