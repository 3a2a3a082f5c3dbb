//! The router's backend side: one pipelined TCP connection per `tad-net`
//! backend, all of them owned by a single readiness-driven mux thread
//! built from the same event-loop primitives as the `tad-net` server
//! ([`tad_net::Conn`] + [`tad_net::PollSource`]). Each link keeps a
//! bounded forwarding channel; senders arm a per-link flag and wake the
//! poller, and the mux drains channels into per-link write buffers,
//! flushes them as sockets accept bytes, and reassembles response frames
//! incrementally as backends answer.
//!
//! Ordering is the load-bearing property. All router traffic to one
//! backend travels a single connection, fed by a single bounded channel
//! drained in FIFO order by the mux — so the order in which frames enter
//! the channel is the order they hit the backend's socket, and the
//! backend answers admin frames in that same order on the same
//! connection. Every request that expects a trip-less reply — a front
//! barrier (`Flush` / `SnapshotRequest` / `MetricsRequest`), a
//! router-driven checkpoint capture, an `Install`, a `Drain`, or a replay
//! fence — is staged as a [`PendingEntry`] in the link's single pending
//! queue *atomically with* the channel send (under the link's stage
//! lock), so queue order always equals wire order and the head of the
//! queue is always the request the backend's next trip-less reply
//! answers. Crucially, an entry is in the queue from the moment its frame
//! is accepted: any link death observed by the mux (read EOF, a framing
//! fault, a write failure, or an orderly `Close`) runs the backend-down
//! sweep and drains every staged entry, so no caller can wait forever on
//! a reply that will never come.
//!
//! Backpressure is two-stage: the mux stops draining a link's channel
//! once that link's write backlog crosses a high-water mark, the bounded
//! channel then fills, and `send` finally blocks the *producer* (a front
//! worker or replay thread). One stalled backend never blocks the mux
//! itself: its frames wait in its own buffer/channel while other links
//! keep flowing.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SendError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use tad_net::{
    request_to_bytes, response_from_bytes, Conn, EventSource, Interest, PollSource, PollWaker,
    ReadStatus, Request, Response,
};

use crate::server::{BarrierKind, Core};

/// Per-link, per-tick cap on bytes decoded from a backend, so one
/// snapshot-sized reply burst cannot starve the other links' reads.
const READ_BUDGET: usize = 1 << 20;

/// Stop draining a link's channel once this many bytes sit unflushed in
/// its write buffer; the bounded channel behind it then provides the
/// blocking backpressure to producers.
const WRITE_HIGHWATER: usize = 1 << 20;

/// One frame bound for a backend, queued behind the backend's mux link.
pub(crate) enum BackendMsg {
    /// A frame forwarded verbatim (ingest or a staged admin frame; the
    /// sender stages pending entries, not the mux).
    Forward(Request),
    /// Orderly shutdown: flush what is buffered and close the link.
    Close,
}

/// The sending half of a backend link's forwarding channel: a bounded
/// channel send plus a poller wake, so the mux learns about new frames
/// without spinning. The armed flag dedups wakes — one notify covers any
/// number of sends between mux ticks.
pub(crate) struct LinkSender {
    tx: SyncSender<BackendMsg>,
    armed: Arc<AtomicBool>,
    waker: PollWaker,
}

impl LinkSender {
    pub(crate) fn new(
        tx: SyncSender<BackendMsg>,
        armed: Arc<AtomicBool>,
        waker: PollWaker,
    ) -> LinkSender {
        LinkSender { tx, armed, waker }
    }

    /// Queues a message for the mux, blocking when the channel is full
    /// (the backpressure point for producers).
    ///
    /// # Errors
    /// The mux dropped the receiving half — the link is gone.
    pub(crate) fn send(&self, msg: BackendMsg) -> Result<(), SendError<BackendMsg>> {
        self.tx.send(msg)?;
        if !self.armed.swap(true, Ordering::AcqRel) {
            self.waker.wake();
        }
        Ok(())
    }
}

/// The mux-side half of one backend link, handed to [`backend_mux`] at
/// bind time.
pub(crate) struct MuxLink {
    /// Receiving half of the forwarding channel.
    pub(crate) rx: Receiver<BackendMsg>,
    /// Cleared by the mux each time it drains the channel; see
    /// [`LinkSender::send`].
    pub(crate) armed: Arc<AtomicBool>,
    /// The connected backend socket (already nonblocking).
    pub(crate) stream: TcpStream,
}

/// One in-flight request on a backend link that will be answered by a
/// trip-less reply, staged in wire order.
pub(crate) enum PendingEntry {
    /// A front-facing fleet barrier and its barrier id.
    Barrier(BarrierKind, u64),
    /// A router-driven round-trip — a checkpoint capture
    /// (`SnapshotRequest` or `DeltaRequest`), an `Install`, a `Drain`, or
    /// a replay fence (`Flush`); the driver blocks on the channel.
    Admin {
        /// Whether a trip-less reply is one this request can be answered
        /// by; anything else at the head of the queue is a desync.
        accepts: fn(&Response) -> bool,
        /// Where the reply (or the reason there will be none) goes.
        reply: SyncSender<Result<Response, String>>,
    },
}

/// The single per-link pending queue (see the module docs for the
/// ordering contract).
#[derive(Default)]
pub(crate) struct Pending {
    queue: Mutex<VecDeque<PendingEntry>>,
}

impl Pending {
    pub(crate) fn push(&self, entry: PendingEntry) {
        self.queue.lock().expect("pending queue").push_back(entry);
    }

    pub(crate) fn pop(&self) -> Option<PendingEntry> {
        self.queue.lock().expect("pending queue").pop_front()
    }

    /// Undoes a stage whose channel send failed. The caller still holds
    /// the stage lock, so nobody staged after it: the entry — unless the
    /// down sweep already drained it — is the tail.
    pub(crate) fn unstage_tail(&self, matches: impl Fn(&PendingEntry) -> bool) {
        let mut queue = self.queue.lock().expect("pending queue");
        if queue.back().is_some_and(matches) {
            queue.pop_back();
        }
    }

    /// Atomically takes every staged entry (the backend-down sweep).
    pub(crate) fn drain_all(&self) -> Vec<PendingEntry> {
        self.queue.lock().expect("pending queue").drain(..).collect()
    }
}

/// Mux-side state for one backend link.
struct LinkIo {
    conn: Conn<TcpStream>,
    /// Receiving half of the forwarding channel; dropped (taken) the
    /// moment the link dies, so producers blocked in [`LinkSender::send`]
    /// on a full channel — and all future senders — get `SendError`
    /// immediately instead of waiting on a receiver nobody drains.
    rx: Option<Receiver<BackendMsg>>,
    armed: Arc<AtomicBool>,
    interest: Interest,
    /// Still registered with the poller.
    open: bool,
    /// `Close` received (or the channel hung up): flush the remaining
    /// backlog, then tear the link down.
    closing: bool,
}

/// Why a link must leave the mux.
enum LinkFault {
    /// Orderly `Close` fully flushed, a peer EOF, a framing fault, or a
    /// transport error — all terminal for a multiplexed link.
    Dead,
}

/// The single backend-side event loop: owns every link's socket, drains
/// forwarding channels into per-link write buffers, flushes as sockets
/// accept bytes, and fans reassembled response frames back in through
/// [`Core::on_backend_response`]. Every link death — orderly close,
/// channel disconnect, EOF, or a transport/frame error — runs
/// [`Core::backend_down`] for that link (idempotent; the heavyweight
/// failover half is guarded by the link's `down_handled` flag), then the
/// link is deregistered and the loop keeps serving the survivors. The
/// thread exits once no registered link remains.
pub(crate) fn backend_mux(
    mut source: PollSource,
    links: Vec<MuxLink>,
    core: Arc<Core>,
    max_frame: usize,
) {
    let mut ios: Vec<LinkIo> = Vec::with_capacity(links.len());
    for (idx, link) in links.into_iter().enumerate() {
        let conn = Conn::new(link.stream, max_frame);
        let interest = Interest { readable: true, writable: false };
        let open = source.register(idx as u64, conn.io(), interest).is_ok();
        // A link that never registers is dead on arrival: drop its
        // receiver too, so senders fail fast instead of filling the
        // channel and blocking forever.
        let rx = open.then_some(link.rx);
        if !open {
            Core::backend_down(&core, idx as u32);
        }
        ios.push(LinkIo { conn, rx, armed: link.armed, interest, open, closing: false });
    }

    let mut readiness = Vec::new();
    let mut frames: Vec<Bytes> = Vec::new();
    while ios.iter().any(|l| l.open) {
        if source.wait(&mut readiness, None).is_err() {
            break;
        }
        for r in readiness.drain(..) {
            let idx = r.key as usize;
            if idx >= ios.len() || !ios[idx].open {
                continue;
            }
            if r.writable && pump_link(&mut ios[idx]).is_err() {
                reap(&mut source, &mut ios[idx], &core, idx);
                continue;
            }
            if r.readable && read_link(&mut ios[idx], &core, idx, &mut frames).is_err() {
                reap(&mut source, &mut ios[idx], &core, idx);
            }
        }
        // Channel-armed links: producers queued frames since the last
        // drain (the notify that woke this tick may cover many sends).
        for (idx, l) in ios.iter_mut().enumerate() {
            if l.open && l.armed.swap(false, Ordering::AcqRel) && pump_link(l).is_err() {
                reap(&mut source, l, &core, idx);
            }
        }
        // Reconcile write interest with what is left unflushed.
        for (idx, l) in ios.iter_mut().enumerate() {
            if !l.open {
                continue;
            }
            let desired = Interest { readable: !l.closing, writable: l.conn.wants_write() };
            if desired != l.interest {
                if source.reregister(idx as u64, l.conn.io(), desired).is_ok() {
                    l.interest = desired;
                } else {
                    reap(&mut source, l, &core, idx);
                }
            }
        }
    }
    // Shutdown (or total backend loss): best-effort flush, then make
    // sure every link has run its down sweep.
    for (idx, l) in ios.iter_mut().enumerate() {
        if l.open {
            let _ = l.conn.flush_writes();
            reap(&mut source, l, &core, idx);
        }
    }
}

/// Moves frames channel → write buffer → socket for one link. Stops
/// draining the channel at the write high-water mark (bounded memory;
/// the channel then backpressures producers) and stops writing when the
/// socket would block (write readiness resumes it).
///
/// # Errors
/// The link is finished: its `Close` was fully flushed, or the transport
/// failed.
fn pump_link(l: &mut LinkIo) -> Result<(), LinkFault> {
    loop {
        let mut hit_empty = false;
        while !l.closing && l.conn.write_backlog() < WRITE_HIGHWATER {
            match l.rx.as_ref().map_or(Err(TryRecvError::Disconnected), Receiver::try_recv) {
                Ok(BackendMsg::Forward(req)) => l.conn.queue_bytes(&request_to_bytes(&req)),
                Ok(BackendMsg::Close) | Err(TryRecvError::Disconnected) => l.closing = true,
                Err(TryRecvError::Empty) => {
                    hit_empty = true;
                    break;
                }
            }
        }
        let drained = l.conn.flush_writes().map_err(|_| LinkFault::Dead)?;
        if !drained {
            // Socket full; the write-interest reconciliation pass keeps
            // the backlog registered and readiness resumes the flush.
            return Ok(());
        }
        if l.closing {
            // Everything buffered before the Close is on the wire.
            return Err(LinkFault::Dead);
        }
        if hit_empty {
            return Ok(());
        }
        // The channel drain stopped at the high-water mark but the socket
        // absorbed the whole backlog: keep going.
    }
}

/// Reads whatever the backend socket has (bounded per tick), reassembles
/// complete frames, and fans each one back in. Frames decoded before a
/// fault are still dispatched — they are valid replies. At the first
/// undecodable response the dispatch stops: a lost reply would misalign
/// the per-link pending FIFO, so frames past the corruption point must
/// not be matched against pending entries — the link dies and the down
/// sweep fails every staged entry instead.
///
/// # Errors
/// EOF, a framing fault, or a transport error: the multiplexed reply
/// stream cannot be trusted past this point, so the link is dead.
fn read_link(
    l: &mut LinkIo,
    core: &Arc<Core>,
    idx: usize,
    frames: &mut Vec<Bytes>,
) -> Result<(), LinkFault> {
    frames.clear();
    let status = l.conn.read_frames(READ_BUDGET, frames);
    let mut fault = false;
    for bytes in frames.drain(..) {
        match response_from_bytes(bytes) {
            Ok(resp) => core.on_backend_response(idx as u32, resp),
            Err(_) => {
                fault = true;
                break;
            }
        }
    }
    if fault {
        return Err(LinkFault::Dead);
    }
    match status {
        Ok(ReadStatus::WouldBlock) | Ok(ReadStatus::BudgetSpent) => Ok(()),
        Ok(ReadStatus::Eof) | Err(_) => Err(LinkFault::Dead),
    }
}

/// Removes a finished link from the poller and runs the (idempotent)
/// backend-down sweep: staged entries are drained — failed, or carried
/// into a failover — and front connections with live trips on this
/// backend get typed errors unless a standby can take over. Dropping the
/// channel receiver here is load-bearing: it wakes every producer
/// blocked in [`LinkSender::send`] on a full channel (and fails all
/// future sends) with `SendError`, upholding the module contract that no
/// caller can wait forever on a dead link — including the server's
/// blocking per-link `Close` send at shutdown.
fn reap(source: &mut PollSource, l: &mut LinkIo, core: &Arc<Core>, idx: usize) {
    let _ = source.deregister(idx as u64, l.conn.io());
    l.open = false;
    drop(l.rx.take());
    Core::backend_down(core, idx as u32);
}
