//! The four load drivers: closed-loop rounds and open-loop paced ticks,
//! each over `TADN` sockets (router or backend) and against an in-process
//! [`FleetEngine`]. All four replay the same [`Slots`] stream, check every
//! reply through a [`Sink`], and time a warm-up followed by a measured
//! phase on one fixed grid of bins.
//!
//! The drivers use only public APIs: `tad_net::{write_request,
//! read_response}` on plain `TcpStream`s, and `FleetEngine`'s
//! `try_submit_cohort` / `flush` / callbacks.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use tad_net::{read_response, write_request, Request, Response, DEFAULT_MAX_FRAME};
use tad_serve::{Event, FleetEngine, TripOutcome};

use crate::oracle::{now_ns, Paced, Recorder, Round, Sink, Verifier};
use crate::setup::{fleet_config, World};
use crate::stream::{id_slot, Slots, StreamHash, BASE_TURN};
use crate::trace::{Span, Tracer};

/// Timing of one driver run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Replay-order seed.
    pub seed: u64,
    /// Untimed lead-in, seconds.
    pub warmup_s: f64,
    /// Measured phase, seconds; it is cut into 1 s windows.
    pub seconds: f64,
    /// Record harness spans during the odd windows (the even ones stay
    /// untraced, which is what the tracing overhead is measured against).
    pub traced: bool,
}

impl Plan {
    /// Bins of the measured phase: one per second, at least two.
    pub fn bins(&self) -> usize {
        (self.seconds.round() as usize).max(2)
    }

    /// Length of one bin, ns.
    pub fn bin_ns(&self) -> u64 {
        (self.seconds * 1e9 / self.bins() as f64) as u64
    }

    fn measured_ns(&self) -> u64 {
        self.bin_ns() * self.bins() as u64
    }

    fn warmup_ns(&self) -> u64 {
        (self.warmup_s * 1e9) as u64
    }

    /// The measured phase's empty timing grid, starting at `origin_ns`.
    fn grid(&self, origin_ns: u64) -> Recorder {
        Recorder::new(origin_ns, self.bin_ns(), self.bins())
    }

    /// Whether spans are kept at `t_ns` given the grid's `origin_ns`.
    fn tracing_at(&self, origin_ns: u64, t_ns: u64) -> bool {
        self.traced && t_ns >= origin_ns && ((t_ns - origin_ns) / self.bin_ns()) % 2 == 1
    }
}

/// What a driver run produced. `P` is whatever the caller's probe
/// returns (thread and registry samples in a traced run, `()` otherwise).
pub struct Outcome<P> {
    /// Merged correctness tallies and served scores.
    pub verifier: Verifier,
    /// Merged timing grid of the measured phase.
    pub recorder: Recorder,
    /// Closed loops: each producer's rounds that began inside the
    /// measured phase.
    pub rounds: Vec<Vec<Round>>,
    /// Segment events sent over the whole run (prefill and warm-up too).
    pub attempted: u64,
    /// Hash of the generated event stream's fixed prefix.
    pub hash: StreamHash,
    /// Harness spans (empty unless the plan is traced).
    pub spans: Vec<Span>,
    /// Open loop only: how late each measured tick started, ns.
    pub tick_late_ns: Vec<u32>,
    /// Probe results at the start and end of the measured phase.
    pub probes: (P, P),
    /// Segments scored between the two probes.
    pub probe_segments: u64,
}

impl<P> Outcome<P> {
    /// Segments sent but not verified, plus every bad delivery.
    pub fn failed(&self) -> u64 {
        self.verifier.faults.total() + self.attempted.saturating_sub(self.verifier.ok)
    }
}

/// One `TADN` connection driven with the public wire functions.
struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

/// Bytes buffered before a write; a round is sent in several writes so
/// the server starts on it while the rest is still being encoded.
const WRITE_CHUNK: usize = 64 << 10;

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect to the serving stack");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::with_capacity(256 << 10, stream.try_clone().expect("clone socket"));
        Wire { stream, reader, buf: Vec::with_capacity(2 * WRITE_CHUNK) }
    }

    fn queue(&mut self, req: &Request) {
        write_request(&mut self.buf, req).expect("encode into memory");
        if self.buf.len() >= WRITE_CHUNK {
            self.send();
        }
    }

    fn queue_events(&mut self, events: &[Event]) {
        for &ev in events {
            self.queue(&Request::from(ev));
        }
    }

    fn send(&mut self) {
        self.stream.write_all(&self.buf).expect("socket write");
        self.buf.clear();
    }

    fn recv(reader: &mut BufReader<TcpStream>) -> Response {
        read_response(reader, DEFAULT_MAX_FRAME).expect("socket read").expect("server closed")
    }

    /// Sends one prefill wave and waits for all its replies. A producer
    /// that wrote the whole prefill before reading anything would leave
    /// more replies queued behind its socket than the router's
    /// per-connection response queue holds, and the router drops the rest.
    fn exchange(&mut self, events: &[Event], sink: &mut Sink) {
        self.queue_events(events);
        self.barrier(sink);
    }

    /// Sends a `Flush` and delivers replies until its `Stats` arrives.
    /// Returns when the `Flush` was written and when the first reply was
    /// decoded.
    fn barrier(&mut self, sink: &mut Sink) -> (u64, u64) {
        self.queue(&Request::Flush);
        self.send();
        let sent = now_ns();
        let mut first = None;
        loop {
            let resp = Wire::recv(&mut self.reader);
            first.get_or_insert_with(now_ns);
            if deliver(sink, resp) {
                return (sent, first.expect("set above"));
            }
        }
    }
}

/// Hands one reply to the sink. Returns whether it was a barrier's
/// `Stats`. Anything but a score, a completion or `Stats` is a failure.
fn deliver(sink: &mut Sink, resp: Response) -> bool {
    match resp {
        Response::Score(u) => sink.score(&u),
        Response::TripComplete(tc) => {
            let segments = tc.segments();
            sink.verifier.on_complete(tc.id, tc.completion, tc.score, tc.likelihood_nll, segments);
        }
        Response::Stats(_) => return true,
        _ => sink.verifier.on_error(),
    }
    false
}

fn new_sink(world: &World, base: usize, n: usize, stride: u64) -> Sink {
    let verifier = Verifier::new(Arc::clone(&world.pool), Arc::clone(&world.reference), base, n);
    Sink::new(verifier, stride)
}

fn sleep_until(t_ns: u64) {
    let now = now_ns();
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

fn spawn_named<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    index: usize,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .name(format!("tadbench-gen-{index}"))
        .spawn_scoped(scope, f)
        .expect("spawn generator thread")
}

/// What one generator thread (or one engine sink) hands back.
struct Part {
    verifier: Verifier,
    recorder: Recorder,
    rounds: Vec<Round>,
    attempted: u64,
    hash: StreamHash,
    spans: Vec<Span>,
}

impl Part {
    fn of(sink: Sink, slots: &Slots, rounds: Vec<Round>, spans: Vec<Span>) -> Part {
        Part {
            verifier: sink.verifier,
            recorder: sink.recorder,
            rounds,
            attempted: slots.segments_sent,
            hash: slots.hash,
            spans,
        }
    }
}

/// Folds the parts (all on one grid, in producer order) into an outcome.
fn merge<P>(parts: Vec<Part>, probes: (P, P), tick_late_ns: Vec<u32>) -> Outcome<P> {
    let mut parts = parts.into_iter();
    let Part { mut verifier, mut recorder, rounds, mut attempted, hash: first_hash, mut spans } =
        parts.next().expect("at least one part");
    let mut rounds = vec![rounds];
    let mut hash = StreamHash::default();
    hash.fold(first_hash);
    for part in parts {
        verifier.absorb(&part.verifier);
        recorder.absorb(part.recorder);
        rounds.push(part.rounds);
        attempted += part.attempted;
        hash.fold(part.hash);
        spans.extend(part.spans);
    }
    // Only generators run rounds (the engine's extra sinks bring none).
    rounds.retain(|r| !r.is_empty());
    let probe_segments = recorder.total();
    Outcome {
        verifier,
        recorder,
        rounds,
        attempted,
        hash,
        spans,
        tick_late_ns,
        probes,
        probe_segments,
    }
}

/// Closed loop over sockets: `conns` producer connections (one thread
/// each) with `slots_per_conn` live trips each. A round is one segment per
/// live trip, then `Flush`; the next round starts when the `Stats` reply
/// — and with it every score of the round — is in.
pub fn tcp_closed<P>(
    addr: SocketAddr,
    world: &World,
    plan: Plan,
    conns: usize,
    slots_per_conn: usize,
    probe: &dyn Fn() -> P,
) -> Outcome<P> {
    let order = Arc::new(world.pool.order(plan.seed));
    let ready = Barrier::new(conns + 1);
    let origin = AtomicU64::new(0);
    let (parts, probes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (order, ready, origin) = (Arc::clone(&order), &ready, &origin);
                spawn_named(scope, c, move || {
                    let base = c * slots_per_conn;
                    let cursor = c * order.len() / conns;
                    let mut slots =
                        Slots::new(Arc::clone(&world.pool), order, base, slots_per_conn, cursor, 1);
                    let mut sink = new_sink(world, base, slots_per_conn, 1);
                    let mut wire = Wire::connect(addr);
                    slots.prefill(plan.seed, |_| BASE_TURN, |evs| wire.exchange(evs, &mut sink));
                    ready.wait();
                    ready.wait();
                    let origin_ns = origin.load(Ordering::SeqCst);
                    let end_ns = origin_ns + plan.measured_ns();
                    sink.start_phase(plan.grid(origin_ns), None);
                    let mut tracer = Tracer::default();
                    let mut rounds = Vec::new();
                    let mut events = Vec::with_capacity(slots_per_conn * 2);
                    let mut turn = BASE_TURN;
                    loop {
                        let t_round = now_ns();
                        if t_round >= end_ns {
                            break;
                        }
                        tracer.enabled = plan.tracing_at(origin_ns, t_round);
                        events.clear();
                        for s in 0..slots_per_conn {
                            slots.step(s, turn, &mut events);
                        }
                        wire.queue_events(&events);
                        let (t_sent, t_first) = wire.barrier(&mut sink);
                        let t_done = now_ns();
                        if t_round >= origin_ns {
                            rounds.push(Round {
                                start_ns: t_round,
                                end_ns: t_done,
                                segments: slots_per_conn as u64,
                                traced: tracer.enabled,
                            });
                        }
                        tracer.span("round", "", turn, t_round, t_done);
                        tracer.span("gen.encode_send", "round", turn, t_round, t_sent);
                        tracer.span("gen.barrier_wait", "round", turn, t_sent, t_first);
                        tracer.span("gen.recv_decode", "round", turn, t_first, t_done);
                        turn += 1;
                    }
                    // Stay alive until the closing probe has read this
                    // thread's CPU time.
                    ready.wait();
                    Part::of(sink, &slots, rounds, tracer.spans)
                })
            })
            .collect();
        ready.wait();
        let origin_ns = now_ns() + plan.warmup_ns();
        origin.store(origin_ns, Ordering::SeqCst);
        ready.wait();
        sleep_until(origin_ns);
        let p0 = probe();
        sleep_until(origin_ns + plan.measured_ns());
        let p1 = probe();
        ready.wait();
        let parts: Vec<Part> =
            handles.into_iter().map(|h| h.join().expect("producer thread")).collect();
        (parts, (p0, p1))
    });
    merge(parts, probes, Vec::new())
}

/// Shape of an open-loop run: `slots` live trips, `per_tick` of them
/// sending their next segment every `tick_ns`, so each trip reports every
/// `slots / per_tick` ticks — a fleet on a GPS cadence.
#[derive(Clone, Copy, Debug)]
pub struct Pace {
    /// Live trips.
    pub slots: usize,
    /// Segments per tick.
    pub per_tick: usize,
    /// Tick period, ns.
    pub tick_ns: u64,
}

/// Time between the end of a paced run's prefill and its first tick.
const PACED_LEAD_NS: u64 = 20_000_000;

impl Pace {
    fn stride(&self) -> u64 {
        (self.slots / self.per_tick) as u64
    }

    /// The turn at which local slot `s` first sends a segment.
    fn first_turn(&self, s: usize) -> u64 {
        BASE_TURN + (s / self.per_tick) as u64
    }

    fn ticks(&self, plan: &Plan) -> u64 {
        (plan.warmup_ns() + plan.measured_ns()) / self.tick_ns
    }
}

/// Runs the tick schedule: sleeps to each tick's due time, lets `emit`
/// build and send that tick's events, and returns how late each measured
/// tick started plus the tick spans.
fn run_ticks(
    plan: &Plan,
    pace: &Pace,
    t0_ns: u64,
    slots: &mut Slots,
    mut emit: impl FnMut(&[Event]),
) -> (Vec<u32>, Vec<Span>) {
    let origin_ns = t0_ns + plan.warmup_ns();
    let stride = pace.stride();
    let mut late = Vec::new();
    let mut tracer = Tracer::default();
    let mut events = Vec::with_capacity(pace.per_tick * 2);
    for k in 0..pace.ticks(plan) {
        let due = t0_ns + k * pace.tick_ns;
        sleep_until(due);
        let started = now_ns();
        if due >= origin_ns {
            late.push((started - due).min(u64::from(u32::MAX)) as u32);
        }
        tracer.enabled = plan.tracing_at(origin_ns, due);
        let turn = BASE_TURN + k;
        let group = (k % stride) as usize;
        events.clear();
        for s in group * pace.per_tick..(group + 1) * pace.per_tick {
            slots.step(s, turn, &mut events);
        }
        emit(&events);
        let done = now_ns();
        tracer.span("tick", "", turn, started, done);
        tracer.span("gen.encode_send", "tick", turn, started, done);
    }
    (late, tracer.spans)
}

/// Open loop over one socket: a sender thread follows the tick schedule
/// no matter how the system keeps up, a receiver thread decodes replies;
/// each score's latency counts from its tick's **due** time.
pub fn tcp_paced<P>(
    addr: SocketAddr,
    world: &World,
    plan: Plan,
    pace: Pace,
    probe: &dyn Fn() -> P,
) -> Outcome<P> {
    let order = Arc::new(world.pool.order(plan.seed));
    let stride = pace.stride();
    let mut slots = Slots::new(Arc::clone(&world.pool), order, 0, pace.slots, 0, stride);
    let mut wire = Wire::connect(addr);
    let mut sink = new_sink(world, 0, pace.slots, stride);
    slots.prefill(plan.seed, |s| pace.first_turn(s), |evs| wire.exchange(evs, &mut sink));

    let t0_ns = now_ns() + PACED_LEAD_NS;
    let origin_ns = t0_ns + plan.warmup_ns();
    sink.start_phase(plan.grid(origin_ns), Some(Paced { t0_ns, tick_ns: pace.tick_ns }));
    let Wire { stream, mut reader, mut buf } = wire;
    let mut writer = stream;
    // Generator threads stay alive until the closing probe has read
    // their CPU time.
    let probed = Barrier::new(3);
    let (late, mut spans, recv_spans, probes) = std::thread::scope(|scope| {
        let sender = spawn_named(scope, 0, || {
            let out = run_ticks(&plan, &pace, t0_ns, &mut slots, |events| {
                for &ev in events {
                    write_request(&mut buf, &Request::from(ev)).expect("encode into memory");
                }
                writer.write_all(&buf).expect("socket write");
                buf.clear();
            });
            write_request(&mut writer, &Request::Flush).expect("socket write");
            probed.wait();
            out
        });
        let receiver = spawn_named(scope, 1, || {
            let mut tracer = Tracer { enabled: plan.traced, spans: Vec::new() };
            let mut burst: Option<u64> = None;
            loop {
                // An empty buffer means the next read blocks: whatever
                // was decoded since the last block is one burst, caused
                // by the tick in progress when it began.
                if reader.buffer().is_empty() {
                    if let Some(start) = burst.take() {
                        let turn = BASE_TURN + (start - t0_ns) / pace.tick_ns;
                        tracer.span("gen.recv_decode", "tick", turn, start, now_ns());
                    }
                }
                let resp = Wire::recv(&mut reader);
                if plan.traced && burst.is_none() {
                    let now = now_ns();
                    if plan.tracing_at(origin_ns, now) {
                        burst = Some(now);
                    }
                }
                if deliver(&mut sink, resp) {
                    probed.wait();
                    return tracer.spans;
                }
            }
        });
        sleep_until(origin_ns);
        let p0 = probe();
        sleep_until(origin_ns + plan.measured_ns());
        let p1 = probe();
        probed.wait();
        let (late, spans) = sender.join().expect("sender thread");
        let recv_spans = receiver.join().expect("receiver thread");
        (late, spans, recv_spans, (p0, p1))
    });
    spans.extend(recv_spans);
    merge(vec![Part::of(sink, &slots, Vec::new(), spans)], probes, late)
}

/// The shard-side sinks of an in-process engine run, one per slot parity
/// class so the shard workers never contend on a lock.
type EngineSinks = Arc<Vec<Mutex<Sink>>>;

fn engine_with_sinks(
    world: &World,
    shards: usize,
    slots: usize,
    stride: u64,
) -> (FleetEngine, EngineSinks) {
    let sinks: EngineSinks =
        Arc::new((0..shards).map(|_| Mutex::new(new_sink(world, 0, slots, stride))).collect());
    let (on_score, on_complete) = (Arc::clone(&sinks), Arc::clone(&sinks));
    let engine = FleetEngine::builder(Arc::clone(&world.model))
        .config(fleet_config(shards))
        .on_score(move |u| {
            let sink = &on_score[id_slot(u.id) % on_score.len()];
            sink.lock().expect("sink lock").score(u);
        })
        .on_complete(move |o: TripOutcome| {
            let sink = &on_complete[id_slot(o.id) % on_complete.len()];
            sink.lock().expect("sink lock").verifier.on_complete(
                o.id,
                o.completion,
                o.score,
                o.likelihood_nll,
                o.segments,
            );
        })
        .build()
        .expect("build fleet engine");
    (engine, sinks)
}

/// Submits `events` in cohorts of at most `cohort`; a bounced, shed or
/// refused event is a failure.
fn submit(engine: &FleetEngine, sinks: &EngineSinks, events: &[Event], cohort: usize) {
    for chunk in events.chunks(cohort) {
        let out = engine.try_submit_cohort(chunk.to_vec());
        let refused = out.full.len() + out.closed.len() + out.shed.len();
        if refused > 0 {
            let mut sink = sinks[0].lock().expect("sink lock");
            (0..refused).for_each(|_| sink.verifier.on_error());
        }
    }
}

/// Submits one prefill wave and waits until it is scored. Without the
/// barrier the generator runs up to a shard queue's capacity ahead of the
/// workers, and how far depends on the moment: the run's peak RSS was set
/// here, 5 to 30 MB above the steady state.
fn prefill_wave(engine: &FleetEngine, sinks: &EngineSinks, events: &[Event], cohort: usize) {
    submit(engine, sinks, events, cohort);
    engine.flush().expect("prefill barrier");
}

fn start_phase(sinks: &EngineSinks, plan: &Plan, origin_ns: u64, paced: Option<Paced>) {
    for sink in sinks.iter() {
        sink.lock().expect("sink lock").start_phase(plan.grid(origin_ns), paced);
    }
}

/// Copies the sinks' state out, one part per sink. Must run before the
/// engine shuts down: the shutdown flushes live sessions as
/// `Completion::Shutdown`, which the verifier would (rightly, mid-run)
/// count as failures.
fn harvest(sinks: &EngineSinks, slots: &Slots, rounds: Vec<Round>, spans: Vec<Span>) -> Vec<Part> {
    let mut parts: Vec<Part> = sinks
        .iter()
        .map(|sink| {
            let sink = sink.lock().expect("sink lock");
            Part {
                verifier: sink.verifier.clone(),
                recorder: sink.recorder.clone(),
                rounds: Vec::new(),
                attempted: 0,
                hash: StreamHash::default(),
                spans: Vec::new(),
            }
        })
        .collect();
    // The stream is the generator's, not any one sink's.
    parts[0].rounds = rounds;
    parts[0].attempted = slots.segments_sent;
    parts[0].hash = slots.hash;
    parts[0].spans = spans;
    parts
}

/// Closed loop against an in-process engine: each round submits one
/// segment per live trip in cohorts of at most `cohort` events, then
/// `flush()`es; scores arrive through `on_score` on the shard threads.
/// `finish` runs on the still-live fleet after the measured phase (the
/// traced run times snapshot capture there).
pub fn engine_closed<P>(
    world: &World,
    plan: Plan,
    shards: usize,
    slots_n: usize,
    cohort: usize,
    probe: &dyn Fn(&FleetEngine) -> P,
    finish: &mut dyn FnMut(&FleetEngine),
) -> Outcome<P> {
    let order = Arc::new(world.pool.order(plan.seed));
    let (engine, sinks) = engine_with_sinks(world, shards, slots_n, 1);
    let mut slots = Slots::new(Arc::clone(&world.pool), order, 0, slots_n, 0, 1);
    slots.prefill(plan.seed, |_| BASE_TURN, |evs| prefill_wave(&engine, &sinks, evs, cohort));

    let origin_ns = now_ns() + plan.warmup_ns();
    let end_ns = origin_ns + plan.measured_ns();
    start_phase(&sinks, &plan, origin_ns, None);
    let mut tracer = Tracer::default();
    let mut rounds = Vec::new();
    let mut events = Vec::with_capacity(slots_n * 2);
    let mut turn = BASE_TURN;
    let mut opening = None;
    // The generator is this thread, so the probes sit on the first round
    // boundary past each edge of the grid.
    let (p0, sent0, p1) = loop {
        let t_round = now_ns();
        if t_round >= origin_ns && opening.is_none() {
            opening = Some((probe(&engine), slots.segments_sent));
        }
        if t_round >= end_ns {
            let (p0, sent0) = opening.take().expect("the grid starts before it ends");
            break (p0, sent0, probe(&engine));
        }
        tracer.enabled = plan.tracing_at(origin_ns, t_round);
        events.clear();
        for s in 0..slots_n {
            slots.step(s, turn, &mut events);
        }
        submit(&engine, &sinks, &events, cohort);
        let t_sent = now_ns();
        engine.flush().expect("round barrier");
        let t_done = now_ns();
        if t_round >= origin_ns {
            rounds.push(Round {
                start_ns: t_round,
                end_ns: t_done,
                segments: slots_n as u64,
                traced: tracer.enabled,
            });
        }
        tracer.span("round", "", turn, t_round, t_done);
        tracer.span("gen.encode_send", "round", turn, t_round, t_sent);
        tracer.span("gen.barrier_wait", "round", turn, t_sent, t_done);
        turn += 1;
    };
    let parts = harvest(&sinks, &slots, rounds, tracer.spans);
    finish(&engine);
    engine.shutdown();
    let mut out = merge(parts, (p0, p1), Vec::new());
    out.probe_segments = slots.segments_sent - sent0;
    out
}

/// Open loop against an in-process engine (the ladder's L1 for the paced
/// workload): each tick's events are one cohort, nothing waits for
/// scores, and latency counts from the tick's due time to `on_score`.
pub fn engine_paced<P>(
    world: &World,
    plan: Plan,
    shards: usize,
    pace: Pace,
    probe: &dyn Fn(&FleetEngine) -> P,
) -> Outcome<P> {
    let order = Arc::new(world.pool.order(plan.seed));
    let stride = pace.stride();
    let (engine, sinks) = engine_with_sinks(world, shards, pace.slots, stride);
    let mut slots = Slots::new(Arc::clone(&world.pool), order, 0, pace.slots, 0, stride);
    slots.prefill(
        plan.seed,
        |s| pace.first_turn(s),
        |evs| prefill_wave(&engine, &sinks, evs, usize::MAX),
    );

    let t0_ns = now_ns() + PACED_LEAD_NS;
    let origin_ns = t0_ns + plan.warmup_ns();
    start_phase(&sinks, &plan, origin_ns, Some(Paced { t0_ns, tick_ns: pace.tick_ns }));
    let probed = Barrier::new(2);
    let (late, spans, probes) = std::thread::scope(|scope| {
        let (engine, sinks, slots, probed) = (&engine, &sinks, &mut slots, &probed);
        let sender = spawn_named(scope, 0, move || {
            let out = run_ticks(&plan, &pace, t0_ns, slots, |events| {
                submit(engine, sinks, events, usize::MAX)
            });
            probed.wait();
            out
        });
        sleep_until(origin_ns);
        let p0 = probe(engine);
        sleep_until(origin_ns + plan.measured_ns());
        let p1 = probe(engine);
        probed.wait();
        let (late, spans) = sender.join().expect("sender thread");
        (late, spans, (p0, p1))
    });
    engine.flush().expect("final barrier");
    let parts = harvest(&sinks, &slots, Vec::new(), spans);
    engine.shutdown();
    merge(parts, probes, late)
}
