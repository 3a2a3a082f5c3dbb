//! The router's backend side: one pipelined connection per `tad-net`
//! backend, each a [`tad_net::Conn`] registered on the *same* readiness
//! source as the producer connections and driven by the same loop
//! thread ([`crate::RouterLoop`]). A [`Link`] is that connection plus
//! everything the loop keeps per backend — the pending queue, the
//! recovery journal, the replay flag — as plain fields: one thread owns
//! them, so nothing here is synchronised.
//!
//! Ordering is the load-bearing property. All router traffic to one
//! backend is appended to one write buffer by one thread, so the order
//! in which frames are queued is the order they hit the backend's
//! socket, and the backend answers admin frames in that same order on
//! the same connection. Every request that expects a trip-less reply — a
//! front barrier (`Flush` / `SnapshotRequest` / `MetricsRequest`), a
//! router-driven checkpoint capture, an `Install`, a `Drain`, or a replay
//! fence — is staged as a [`PendingEntry`] in the link's pending queue in
//! the same loop step that queues its frame, so queue order always equals
//! wire order and the head of the queue is always the request the
//! backend's next trip-less reply answers. An entry is in the queue from
//! the moment its frame is: any link death the loop observes (read EOF, a
//! framing fault, a write failure) drains every staged entry, so no
//! caller can wait forever on a reply that will never come.
//!
//! Backpressure is write-interest, not blocking: frames wait in the
//! link's write buffer while its socket is full, the loop keeps serving
//! every other connection, and once a mapped link's backlog reaches
//! [`WRITE_HIGHWATER`] the loop stops *reading producers* until it has
//! drained to half (see [`crate::RouterLoop`]).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::mpsc::SyncSender;

use tad_net::{request_into, Conn, EventSource, Interest, Request, Response};

use crate::journal::Journal;
use crate::server::BarrierKind;

/// A mapped link with this many unflushed bytes stops the loop reading
/// producers; reads resume once every mapped link is below half.
pub(crate) const WRITE_HIGHWATER: usize = 1 << 20;

/// Link transports are registered under `LINK_KEY | index`; the front
/// door numbers producer connections up from 0, so the two never meet.
pub(crate) const LINK_KEY: u64 = 1 << 63;

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

/// The link is finished: a peer EOF, a framing fault or a transport
/// error — all terminal for a multiplexed reply stream.
pub(crate) struct LinkDead;

/// One backend connection and what the loop keeps for it.
pub(crate) struct Link<T> {
    /// The connection; `None` once the link died (dropping the transport
    /// closed it, so the peer sees the close even if the fault was ours).
    /// The loop takes it out for the length of a read, whose visitor is
    /// the loop itself ([`crate::RouterLoop`]'s `on_link_ready`).
    pub(crate) conn: Option<Conn<T>>,
    interest: Interest,
    /// Requests in flight on this connection that expect trip-less
    /// replies, in wire order.
    pub(crate) pending: VecDeque<PendingEntry>,
    /// This link's recovery journal.
    pub(crate) journal: Journal,
    /// True while this link is the *target* of a journal replay; gates
    /// suppression of replay-induced replies that have no route (e.g.
    /// completions of trips that finished pre-crash).
    pub(crate) replaying: bool,
}

impl<T: Read + Write> Link<T> {
    /// Wraps a connected transport and registers it for reads. A link
    /// that cannot register is dead on arrival.
    pub(crate) fn new(
        source: &mut impl EventSource<T>,
        idx: u32,
        io: T,
        max_frame: usize,
        journal: Journal,
    ) -> Link<T> {
        let conn = Conn::new(io, max_frame);
        let interest = Interest { readable: true, writable: false };
        let registered = source.register(LINK_KEY | idx as u64, conn.io(), interest).is_ok();
        Link {
            conn: registered.then_some(conn),
            interest,
            pending: VecDeque::new(),
            journal,
            replaying: false,
        }
    }

    /// False once the connection failed; checked before forwarding.
    pub(crate) fn alive(&self) -> bool {
        self.conn.is_some()
    }

    /// Encodes one frame straight onto the write backlog (no I/O; the
    /// loop flushes every link once per tick). A dead link swallows it.
    pub(crate) fn queue(&mut self, req: &Request) {
        if let Some(conn) = &mut self.conn {
            conn.queue_with(|run| request_into(req, run));
        }
    }

    /// Bytes queued but not yet accepted by the socket.
    pub(crate) fn backlog(&self) -> usize {
        self.conn.as_ref().map_or(0, Conn::write_backlog)
    }

    /// Writes the backlog until the socket would block, then asks for
    /// write readiness exactly while a backlog remains.
    ///
    /// # Errors
    /// The transport failed, or the source refused the interest change.
    pub(crate) fn flush(
        &mut self,
        source: &mut impl EventSource<T>,
        idx: u32,
    ) -> Result<(), LinkDead> {
        let Some(conn) = &mut self.conn else { return Ok(()) };
        conn.flush_writes().map_err(|_| LinkDead)?;
        let desired = Interest { readable: true, writable: conn.wants_write() };
        if desired != self.interest {
            source.reregister(LINK_KEY | idx as u64, conn.io(), desired).map_err(|_| LinkDead)?;
            self.interest = desired;
        }
        Ok(())
    }

    /// Takes the link out of service: deregisters and drops the
    /// transport. `false` if it was already down.
    pub(crate) fn kill(&mut self, source: &mut impl EventSource<T>, idx: u32) -> bool {
        let Some(conn) = self.conn.take() else { return false };
        let _ = source.deregister(LINK_KEY | idx as u64, conn.io());
        true
    }
}
