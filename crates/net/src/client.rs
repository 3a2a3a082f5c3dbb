//! Blocking client for the `TADN` protocol: one reused TCP connection,
//! buffered pipelined writes, and a local queue for the asynchronous
//! responses that arrive between barriers.
//!
//! The protocol is pipelined: ingest requests (`trip_start` / `segment` /
//! `trip_end`) are fire-and-forget writes, and the server pushes
//! [`Response::Score`] / [`Response::TripComplete`] frames back whenever
//! its shards score something (plus [`Response::PolicyNotice`] frames
//! when the engine's ingest sanitization policies touch one of this
//! connection's trips). Two barrier calls give the stream
//! structure: [`Client::flush`] (everything sent so far is scored and its
//! responses received) and [`Client::snapshot`] (a fleet image for remote
//! warm restart). While waiting for a barrier reply the client parks
//! every other response in an internal queue, which [`Client::try_recv`]
//! and [`Client::recv`] drain.
//!
//! Writes are buffered and only flushed when a reply is needed (or by
//! [`Client::flush_writes`]), so a producer streaming thousands of
//! segment frames pays one syscall per batch, not per event.

use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::Bytes;
use tad_metrics::MetricsSnapshot;
use tad_serve::{FleetSnapshot, TripId};

use crate::frame::{ErrorCode, FrameError, Request, Response, DEFAULT_MAX_FRAME};
use crate::wire::{read_response, write_request, RecvError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The server sent bytes that do not decode as a response frame; the
    /// connection is no longer usable.
    Frame(FrameError),
    /// The server closed the connection while a reply was pending.
    Disconnected,
    /// No bytes arrived within the configured read timeout
    /// ([`Client::with_read_timeout`]) — the defence against a dead or
    /// wedged server hanging the blocking reader forever. The read
    /// position within a frame is unknown after a timeout, so the
    /// connection must be treated as unusable: reconnect rather than
    /// retry on it.
    Timeout,
    /// The server answered a barrier request with an error frame.
    Server {
        /// What the server reported.
        code: ErrorCode,
        /// The trip the failure concerned, when there was one.
        trip: Option<TripId>,
        /// The server's pacing hint for [`ErrorCode::Throttled`] replies.
        /// With a [`RetryPolicy`] configured, [`Client`] honors it: the
        /// call sleeps at least this long (on the same connection) before
        /// retrying.
        retry_after: Option<Duration>,
        /// Human-readable context from the server.
        detail: String,
    },
    /// Every reconnect attempt the configured [`RetryPolicy`] allowed has
    /// been spent without restoring the connection.
    Retrying {
        /// Reconnect attempts consumed before giving up.
        attempts: u32,
        /// The last failure observed (the original error when no
        /// reconnect ever succeeded enough to retry the call).
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "wire protocol error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Timeout => write!(f, "no response within the read timeout"),
            ClientError::Server { code, trip: Some(id), detail, .. } if !detail.is_empty() => {
                write!(f, "server error for trip {id}: {code} ({detail})")
            }
            ClientError::Server { code, trip: Some(id), .. } => {
                write!(f, "server error for trip {id}: {code}")
            }
            ClientError::Server { code, detail, .. } if !detail.is_empty() => {
                write!(f, "server error: {code} ({detail})")
            }
            ClientError::Server { code, .. } => write!(f, "server error: {code}"),
            ClientError::Retrying { attempts, last } => {
                write!(f, "gave up after {attempts} reconnect attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(e) => ClientError::Io(e),
            RecvError::Frame(e) => ClientError::Frame(e),
        }
    }
}

/// Bounds on the client's automatic reconnect behaviour, enabled with
/// [`Client::with_retry`]. Between attempts the client sleeps an
/// exponentially growing delay (doubling from `base_delay`, capped at
/// `max_delay`) scaled by a random jitter factor in `[0.5, 1.0]` so a
/// fleet of producers bounced by the same outage does not reconnect in
/// lockstep.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total reconnect attempts one client call may spend before failing
    /// with [`ClientError::Retrying`].
    pub max_reconnects: u32,
    /// Sleep before the first reconnect attempt.
    pub base_delay: Duration,
    /// Cap on the exponentially growing sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_reconnects: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

/// A blocking `TADN` client over one reused TCP connection. See the
/// module docs for the pipelining model.
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    queue: VecDeque<Response>,
    max_frame_len: usize,
    addrs: Vec<SocketAddr>,
    retry: Option<RetryPolicy>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    /// xorshift64 state for backoff jitter (no RNG dependency).
    jitter: u64,
}

impl Client {
    /// Connects to a [`crate::NetServer`] (enables `TCP_NODELAY`).
    ///
    /// # Errors
    /// [`ClientError::Io`] when the connection cannot be established (or
    /// the address resolves to nothing).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = TcpStream::connect(&addrs[..])?;
        let _ = stream.set_nodelay(true);
        let writer = BufWriter::new(stream.try_clone()?);
        // Seed the jitter stream from per-process identity so concurrent
        // producers desynchronize; the constant keeps a zero pid seed
        // non-degenerate.
        let jitter = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(std::process::id());
        Ok(Client {
            reader: stream,
            writer,
            queue: VecDeque::new(),
            max_frame_len: DEFAULT_MAX_FRAME,
            addrs,
            retry: None,
            read_timeout: None,
            write_timeout: None,
            jitter,
        })
    }

    /// Enables bounded automatic reconnect: when a call fails on a
    /// transport error (I/O, disconnect, timeout, or undecodable bytes),
    /// the client re-dials the original address under `policy`'s backoff
    /// schedule and retries the call, failing with
    /// [`ClientError::Retrying`] only once the attempt budget is spent.
    ///
    /// Reconnection re-establishes the *transport*, not the stream state:
    /// responses that were in flight on the old connection are lost, and
    /// the server re-routes this client's live trips to the new
    /// connection lazily (on its next event per trip). Typed server
    /// replies ([`ClientError::Server`]) are never retried.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        self.retry = Some(policy);
        self
    }

    /// Raises (or lowers) the cap on incoming frame payloads — raise it
    /// when snapshots of very large fleets exceed the 64 MiB default.
    pub fn with_max_frame_len(mut self, max: usize) -> Client {
        self.max_frame_len = max;
        self
    }

    /// Bounds how long a blocking read ([`Client::flush`],
    /// [`Client::snapshot`], [`Client::recv`]) waits for the server
    /// before failing with [`ClientError::Timeout`]. Without one — the
    /// default — a dead or wedged server hangs the reader forever.
    ///
    /// `None` restores unbounded blocking. After a timeout fires the
    /// connection is desynchronized (the read may have stopped mid-frame)
    /// and must be replaced, so pick a timeout comfortably above the
    /// slowest expected barrier, not a retry interval.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the socket refuses the option (a zero
    /// duration, or a closed socket).
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Result<Client, ClientError> {
        self.reader.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(self)
    }

    /// Bounds every blocking socket *write*: when the server has paused
    /// reading this connection (slow-consumer throttling — see
    /// [`crate::NetConfig::write_highwater`]) and the kernel send buffer
    /// fills, a send surfaces as the typed [`ClientError::Timeout`]
    /// instead of blocking forever. `None` restores unbounded blocking.
    /// Like a read timeout, a fired write timeout leaves the stream
    /// position unknown: reconnect rather than retry on the connection.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the socket refuses the option (a zero
    /// duration, or a closed socket).
    pub fn with_write_timeout(mut self, timeout: Option<Duration>) -> Result<Client, ClientError> {
        self.reader.set_write_timeout(timeout)?;
        self.write_timeout = timeout;
        Ok(self)
    }

    /// Opens a scoring session for a trip (fire-and-forget; buffered).
    ///
    /// # Errors
    /// [`ClientError::Io`] when the write fails.
    pub fn trip_start(
        &mut self,
        id: TripId,
        source: u32,
        dest: u32,
        time_slot: u8,
    ) -> Result<(), ClientError> {
        self.send(&Request::TripStart { id, source, dest, time_slot })
    }

    /// Streams one traversed road segment (fire-and-forget; buffered).
    /// The server will push a [`Response::Score`] back once scored.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the write fails.
    pub fn segment(&mut self, id: TripId, seg: u32) -> Result<(), ClientError> {
        self.send(&Request::Segment { id, seg })
    }

    /// Ends a trip (fire-and-forget; buffered). The server will push a
    /// [`Response::TripComplete`] back with the final score.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the write fails.
    pub fn trip_end(&mut self, id: TripId) -> Result<(), ClientError> {
        self.send(&Request::TripEnd { id })
    }

    /// Writes any request frame (fire-and-forget; buffered).
    ///
    /// # Errors
    /// [`ClientError::Io`] when the write fails.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        write_request(&mut self.writer, req)?;
        Ok(())
    }

    /// Pushes buffered request frames to the socket without waiting for
    /// anything. Barrier calls do this implicitly.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the flush fails.
    pub fn flush_writes(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Quiesce barrier: sends [`Request::Flush`] and blocks until the
    /// server's [`Response::Stats`] reply. When this returns, every event
    /// accepted from this connection so far has been scored, and all its
    /// `Score` / `TripComplete` / backpressure responses are available
    /// through [`Client::try_recv`].
    ///
    /// # Errors
    /// [`ClientError::Io`] / [`ClientError::Frame`] on transport failures,
    /// [`ClientError::Disconnected`] when the server hangs up first, and
    /// [`ClientError::Server`] when the server reports the barrier failed
    /// (e.g. the engine shut down).
    pub fn flush(&mut self) -> Result<FleetSnapshot, ClientError> {
        self.barrier(&Request::Flush, Client::queue_or_fail, |resp| match resp {
            Response::Stats(stats) => Ok(stats),
            other => Err(other),
        })
    }

    /// Remote warm-restart capture: sends [`Request::SnapshotRequest`] and
    /// blocks until the serialized [`tad_serve::FleetImage`] arrives.
    /// Decode with [`tad_serve::image_from_bytes`] and feed to
    /// [`crate::NetServerBuilder::resume`] (or
    /// [`tad_serve::FleetEngine::restore`]) elsewhere.
    ///
    /// # Errors
    /// [`ClientError::Io`] / [`ClientError::Frame`] on transport failures,
    /// [`ClientError::Disconnected`] when the server hangs up first, and
    /// [`ClientError::Server`] when the capture failed server-side.
    pub fn snapshot(&mut self) -> Result<Bytes, ClientError> {
        self.barrier(&Request::SnapshotRequest, Client::queue_or_fail, |resp| match resp {
            Response::Snapshot { image } => Ok(image),
            other => Err(other),
        })
    }

    /// Metrics barrier: sends [`Request::MetricsRequest`] and blocks until
    /// the server's [`Response::Metrics`] snapshot arrives. Against a
    /// single server this is the engine + net-layer registry; against a
    /// `tad-router` admin endpoint it is the fleet-wide merge of every
    /// live backend's snapshot plus the router's own `router.*` metrics.
    ///
    /// # Errors
    /// [`ClientError::Io`] / [`ClientError::Frame`] on transport failures,
    /// [`ClientError::Disconnected`] when the server hangs up first, and
    /// [`ClientError::Server`] when the server reports a fatal error
    /// instead.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        self.barrier(&Request::MetricsRequest, Client::queue_or_fail, |resp| match resp {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(other),
        })
    }

    /// Delta-snapshot barrier: sends [`Request::DeltaRequest`] and blocks
    /// until the serialized [`tad_serve::FleetDelta`] (`TADD` blob)
    /// arrives — the increment of the server's checkpoint chain since its
    /// previous capture. Decode with [`tad_serve::delta_from_bytes`] and
    /// apply through [`tad_serve::DeltaBase`].
    ///
    /// # Errors
    /// Transport failures as for [`Client::snapshot`];
    /// [`ClientError::Server`] when no checkpoint has armed delta
    /// tracking yet, or when sent to a router front (admin frames are
    /// refused there).
    pub fn delta(&mut self) -> Result<Bytes, ClientError> {
        self.barrier(&Request::DeltaRequest, Client::queue_or_fail_admin, |resp| match resp {
            Response::Delta { delta } => Ok(delta),
            other => Err(other),
        })
    }

    /// Live-restore barrier: sends [`Request::Install`] with a serialized
    /// [`tad_serve::FleetImage`] and blocks until the server confirms the
    /// sessions were delivered into its **running** engine, returning how
    /// many arrived. The target half of a drain/handoff or a failover
    /// restore.
    ///
    /// # Errors
    /// Transport failures as for [`Client::snapshot`];
    /// [`ClientError::Server`] when the blob does not decode, the engine
    /// refuses it (shard queues closed), or a router front rejects the
    /// admin frame.
    pub fn install(&mut self, image: Bytes) -> Result<u64, ClientError> {
        self.barrier(&Request::Install { image }, Client::queue_or_fail_admin, |resp| match resp {
            Response::Installed { sessions } => Ok(sessions),
            other => Err(other),
        })
    }

    /// Drain barrier: sends [`Request::Drain`] and blocks until the
    /// server hands over every live session as a serialized
    /// [`tad_serve::FleetImage`], **removing** them from its engine
    /// without firing completions — the source half of a handoff. Feed
    /// the blob to [`Client::install`] on the destination.
    ///
    /// # Errors
    /// Transport failures as for [`Client::snapshot`];
    /// [`ClientError::Server`] when the capture failed server-side or a
    /// router front rejects the admin frame.
    pub fn drain(&mut self) -> Result<Bytes, ClientError> {
        self.barrier(&Request::Drain, Client::queue_or_fail_admin, |resp| match resp {
            Response::Drained { image } => Ok(image),
            other => Err(other),
        })
    }

    /// Pops the next already-received response, if any (never touches the
    /// socket).
    pub fn try_recv(&mut self) -> Option<Response> {
        self.queue.pop_front()
    }

    /// Pops the next response, reading from the socket (after pushing any
    /// buffered writes) when the local queue is empty. Blocks until a
    /// response arrives.
    ///
    /// # Errors
    /// [`ClientError::Io`] / [`ClientError::Frame`] on transport failures,
    /// [`ClientError::Disconnected`] when the server hangs up.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if let Some(resp) = self.queue.pop_front() {
            return Ok(resp);
        }
        self.flush_writes()?;
        self.read_one()
    }

    /// One blocking socket read. A timeout configured with
    /// [`Client::with_read_timeout`] surfaces as the typed
    /// [`ClientError::Timeout`] (the platform reports it as `WouldBlock`
    /// or `TimedOut` depending on the OS).
    fn read_one(&mut self) -> Result<Response, ClientError> {
        match read_response(&mut self.reader, self.max_frame_len) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err(ClientError::Disconnected),
            Err(RecvError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(ClientError::Timeout)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Parks an out-of-band response while waiting for a barrier reply —
    /// except fatal connection-level error frames (no trip named, code
    /// beyond the pacing notices), which fail the barrier itself. Errors
    /// that *name a trip* concern that trip, not the barrier — e.g. a
    /// router reporting one backend's loss while the rest of the fleet
    /// still answers — so they stay in the stream for the application,
    /// like the backpressure, reject, and throttle pacing notices
    /// (`Throttled` without a trip is the rate limiter asking the
    /// producer to slow down, not a barrier failure).
    fn queue_or_fail(&mut self, resp: Response) -> Result<(), ClientError> {
        match resp {
            Response::Error { code, trip: None, retry_after_ms, detail }
                if !matches!(
                    code,
                    ErrorCode::Backpressure | ErrorCode::Rejected | ErrorCode::Throttled
                ) =>
            {
                Err(ClientError::Server {
                    code,
                    trip: None,
                    retry_after: retry_after_ms.map(Duration::from_millis),
                    detail,
                })
            }
            other => {
                self.queue.push_back(other);
                Ok(())
            }
        }
    }

    /// Stricter parker for the admin barriers (`delta` / `install` /
    /// `drain`): *any* error frame not naming a trip fails the call —
    /// including `Rejected`, which is how a router front refuses admin
    /// frames outright, and `Throttled`, which [`Client::retry_loop`]
    /// turns into a paced same-connection retry under the configured
    /// [`RetryPolicy`]. Trip-scoped errors and backpressure stay in the
    /// stream as usual.
    fn queue_or_fail_admin(&mut self, resp: Response) -> Result<(), ClientError> {
        match resp {
            Response::Error { code, trip: None, retry_after_ms, detail }
                if !matches!(code, ErrorCode::Backpressure) =>
            {
                Err(ClientError::Server {
                    code,
                    trip: None,
                    retry_after: retry_after_ms.map(Duration::from_millis),
                    detail,
                })
            }
            other => {
                self.queue.push_back(other);
                Ok(())
            }
        }
    }

    /// The one barrier behind `flush` / `snapshot` / `metrics` / `delta` /
    /// `install` / `drain`: under [`Client::retry_loop`], sends `req`,
    /// pushes the buffered writes, and reads until `pick` takes a
    /// response as the reply, handing every response it gives back to
    /// `park` — [`Client::queue_or_fail`] or
    /// [`Client::queue_or_fail_admin`].
    fn barrier<T>(
        &mut self,
        req: &Request,
        park: fn(&mut Client, Response) -> Result<(), ClientError>,
        pick: impl Fn(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        self.retry_loop(|c| {
            c.send(req)?;
            c.flush_writes()?;
            loop {
                match pick(c.read_one()?) {
                    Ok(reply) => return Ok(reply),
                    Err(other) => park(c, other)?,
                }
            }
        })
    }

    /// Runs `op`, and on a transport failure dials a fresh connection
    /// under the retry policy (when one is configured) and runs `op`
    /// again — one attempt budget across the whole call, however the
    /// failures interleave. Typed [`ClientError::Server`] replies are
    /// never retried, with one exception: a `Throttled` reply is the
    /// server pacing this sender, so the call sleeps the larger of the
    /// backoff step and the server's `retry_after` hint and retries on
    /// the **same** connection (the transport is healthy — reconnecting
    /// would only evade the admission controller).
    fn retry_loop<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempts: u32 = 0;
        loop {
            let mut last = match op(self) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if let ClientError::Server { code: ErrorCode::Throttled, retry_after, .. } = &last {
                let hint = *retry_after;
                let policy = match self.retry {
                    Some(policy) => policy,
                    None => return Err(last),
                };
                if attempts >= policy.max_reconnects {
                    return Err(ClientError::Retrying { attempts, last: Box::new(last) });
                }
                attempts += 1;
                let backoff = self.backoff_delay(&policy, attempts);
                std::thread::sleep(hint.map_or(backoff, |h| backoff.max(h)));
                continue;
            }
            let policy = match self.retry {
                Some(policy) if retryable(&last) => policy,
                _ => return Err(last),
            };
            loop {
                if attempts >= policy.max_reconnects {
                    return Err(ClientError::Retrying { attempts, last: Box::new(last) });
                }
                attempts += 1;
                std::thread::sleep(self.backoff_delay(&policy, attempts));
                match self.reconnect() {
                    Ok(()) => break,
                    Err(e) => last = e,
                }
            }
        }
    }

    /// Replaces the socket pair with a fresh connection to the original
    /// address (same `TCP_NODELAY` and read-timeout settings). Responses
    /// already parked in the local queue survive; anything in flight on
    /// the old connection is gone.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(&self.addrs[..])?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        let writer = BufWriter::new(stream.try_clone()?);
        self.reader = stream;
        self.writer = writer;
        Ok(())
    }

    /// Exponential backoff with multiplicative jitter in `[0.5, 1.0]`.
    fn backoff_delay(&mut self, policy: &RetryPolicy, attempt: u32) -> Duration {
        let mut delay = policy.base_delay.min(policy.max_delay);
        for _ in 1..attempt {
            delay = delay.saturating_mul(2).min(policy.max_delay);
        }
        // xorshift64 — deterministic per client, decorrelated across
        // processes; no RNG crate needed for a jitter factor.
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        delay.mul_f64(0.5 + 0.5 * unit)
    }
}

/// Whether an error is a transport failure a reconnect can cure.
fn retryable(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(_)
            | ClientError::Disconnected
            | ClientError::Timeout
            | ClientError::Frame(_)
    )
}
