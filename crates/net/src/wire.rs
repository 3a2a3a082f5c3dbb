//! Stream I/O for `TADN` frames: length-prefixed reads with a payload
//! cap, clean-EOF detection, request writes, and the incremental
//! [`FrameAssembler`] behind the nonblocking event loop.
//!
//! A reader fetches the fixed 14-byte envelope header first, validates
//! magic/version and the announced payload length **before sizing any
//! buffer**, then reads the rest of the frame and hands the whole
//! envelope to the frame codec (which re-verifies the checksum). A peer
//! announcing a payload longer than the cap is refused with
//! [`FrameError::TooLarge`] without any allocation — the defence against
//! memory-exhaustion by hostile length prefixes. The [`FrameAssembler`]
//! applies exactly the same validation order to bytes arriving in
//! arbitrary nonblocking chunks: a header is judged the moment its 14
//! bytes are buffered, so a hostile length prefix is refused even when
//! the rest of the "frame" never arrives.
//!
//! Small frames cost the heap nothing: [`read_response`] reads a frame
//! of up to 256 bytes into a stack array and decodes it in place,
//! [`write_request`] encodes into the calling thread's reused buffer, and
//! the assembler lends each frame as a slice of its own buffer.

use std::cell::RefCell;
use std::io::{Read, Write};

use bytes::BytesMut;
use tad_codec::{Reader, ENVELOPE_HEADER_LEN};

use crate::frame::{
    request_into, request_to_bytes, response_from_frame, FrameError, Request, Response,
    FRAME_MAGIC, FRAME_VERSION,
};

/// Longest whole frame, envelope included, [`read_response`] reads into a
/// stack array — room for every fixed-size reply (a `Score` is 59 bytes,
/// `Stats` 135). A longer one (an image, a metrics snapshot, a long error
/// detail) is read into a heap buffer sized to it.
const STACK_FRAME: usize = 256;

/// Why a frame could not be received from a stream.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying socket failed (including an EOF in the middle of a
    /// frame — a peer vanishing mid-frame is a transport error, not a
    /// clean close).
    Io(std::io::Error),
    /// The bytes received do not decode as a frame. Framing is lost after
    /// this: the connection should be closed.
    Frame(FrameError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "socket error: {e}"),
            RecvError::Frame(e) => write!(f, "wire protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<std::io::Error> for RecvError {
    fn from(e: std::io::Error) -> Self {
        RecvError::Io(e)
    }
}

impl From<FrameError> for RecvError {
    fn from(e: FrameError) -> Self {
        RecvError::Frame(e)
    }
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means the stream was
/// cleanly closed before the first byte (frame-aligned EOF); an EOF after
/// at least one byte is an `UnexpectedEof` error.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Validates a 14-byte envelope header and returns the announced payload
/// length. Magic is judged before version before length, so garbage bytes
/// report "bad magic", not a nonsense "frame too large".
fn validate_header(
    header: &[u8; ENVELOPE_HEADER_LEN],
    max_payload: usize,
) -> Result<u64, FrameError> {
    let mut r = Reader::new(header);
    if r.bytes(4, "header")? != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = r.u16("header")?;
    if version != FRAME_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let plen = r.u64("header")?;
    if plen > max_payload as u64 {
        return Err(FrameError::TooLarge { len: plen, max: max_payload });
    }
    Ok(plen)
}

/// Reads one whole envelope (header + payload + checksum) off the stream,
/// refusing payloads longer than `max_payload` before sizing anything: a
/// frame that fits goes into `small`, a longer one into `large`, resized
/// to it. `Ok(None)` is a clean frame-aligned EOF.
fn read_frame<'a>(
    r: &mut impl Read,
    max_payload: usize,
    small: &'a mut [u8; STACK_FRAME],
    large: &'a mut Vec<u8>,
) -> Result<Option<&'a [u8]>, RecvError> {
    let mut header = [0u8; ENVELOPE_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    // Validate the header before trusting the length: garbage magic means
    // garbage length, and the caller should learn "bad magic", not "frame
    // too large".
    let plen = validate_header(&header, max_payload)?;
    let total = ENVELOPE_HEADER_LEN + plen as usize + 8;
    let whole: &mut [u8] = if total <= STACK_FRAME {
        &mut small[..total]
    } else {
        large.resize(total, 0);
        large
    };
    whole[..ENVELOPE_HEADER_LEN].copy_from_slice(&header);
    if !read_exact_or_eof(r, &mut whole[ENVELOPE_HEADER_LEN..])? {
        return Err(RecvError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed mid-frame",
        )));
    }
    Ok(Some(whole))
}

/// Incremental `TADN` envelope reassembly for nonblocking reads: feed it
/// whatever chunk of bytes the socket produced — a byte, half a header,
/// three frames and a tail — and take complete envelopes out as they
/// form, each lent as a slice of the assembler's own buffer. This is the
/// event loop's counterpart of [`read_response`]'s blocking
/// header-then-payload read, with the identical validation
/// order: a header is judged ([`FrameError::BadMagic`] /
/// [`FrameError::BadVersion`] / [`FrameError::TooLarge`]) as soon as its
/// 14 bytes are buffered, **before** any payload-sized allocation, so a
/// hostile length prefix is refused even if the announced payload never
/// arrives.
///
/// After an error the stream's framing is lost; the assembler keeps
/// returning the same error and the connection should be closed
/// (property-tested against hostile split points in `tests/props.rs`).
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Cursor of the first unconsumed byte in `buf`: lending a frame
    /// moves it, and only [`FrameAssembler::feed`] compacts.
    start: usize,
    max_payload: usize,
}

impl FrameAssembler {
    /// An empty assembler refusing payloads longer than `max_payload`.
    pub fn new(max_payload: usize) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), start: 0, max_payload }
    }

    /// Appends one chunk of received bytes. The consumed prefix is
    /// dropped first once it is at least as long as what is still
    /// buffered, so moving the rest costs no more than the bytes consumed
    /// since the last move, and a reader that takes every frame after
    /// each feed keeps a buffer of one chunk plus a partial frame.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start >= self.buf.len() - self.start {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Lends the next complete envelope, if one has fully arrived, as a
    /// slice of the assembler's buffer — valid until the next call, and
    /// ready for [`crate::request_from_frame`] /
    /// [`crate::response_from_frame`] or [`crate::peek_score`]. `Ok(None)`
    /// means "keep feeding".
    ///
    /// # Errors
    /// The same typed [`FrameError`]s as the blocking reader, surfaced at
    /// the earliest byte that proves the stream hostile.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < ENVELOPE_HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; ENVELOPE_HEADER_LEN] =
            avail[..ENVELOPE_HEADER_LEN].try_into().expect("header slice");
        let plen = validate_header(&header, self.max_payload)? as usize;
        let total = ENVELOPE_HEADER_LEN + plen + 8;
        if avail.len() < total {
            return Ok(None);
        }
        let at = self.start;
        self.start += total;
        Ok(Some(&self.buf[at..at + total]))
    }

    /// Bytes buffered but not yet consumed by a complete frame — nonzero
    /// at EOF means the peer vanished mid-frame (a transport error, not a
    /// clean close).
    pub fn has_partial(&self) -> bool {
        self.start < self.buf.len()
    }
}

/// Reads one response frame. `Ok(None)` is a clean frame-aligned EOF.
/// A frame of up to 256 bytes (every fixed-size reply) is read into a
/// stack array and decoded in place; only a longer one is read into the
/// heap.
///
/// # Errors
/// [`RecvError::Io`] for transport failures (including mid-frame EOF),
/// [`RecvError::Frame`] for undecodable or over-long frames.
pub fn read_response(r: &mut impl Read, max_payload: usize) -> Result<Option<Response>, RecvError> {
    let mut small = [0u8; STACK_FRAME];
    let mut large = Vec::new();
    match read_frame(r, max_payload, &mut small, &mut large)? {
        Some(frame) => Ok(Some(response_from_frame(frame)?)),
        None => Ok(None),
    }
}

thread_local! {
    /// The calling thread's encode buffer for [`write_request`]: it grows
    /// to one small frame and is reused for every one after.
    static ENCODED: RefCell<BytesMut> = RefCell::new(BytesMut::new());
}

/// Writes one request frame (no flush — callers batch then flush). Every
/// request but an `Install` is encoded into the calling thread's reused
/// buffer, so sending one asks the heap for nothing; an image, which can
/// be as large as a fleet, gets a buffer of its own instead of leaving
/// one that size behind.
///
/// # Errors
/// Propagates the writer's I/O error.
pub fn write_request(w: &mut impl Write, req: &Request) -> std::io::Result<()> {
    if let Request::Install { .. } = req {
        return w.write_all(&request_to_bytes(req));
    }
    ENCODED.with_borrow_mut(|buf| {
        buf.truncate(0);
        request_into(req, buf);
        w.write_all(buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::heap_requests;
    use crate::frame::{response_to_bytes, ErrorCode, DEFAULT_MAX_FRAME};
    use bytes::Bytes;
    use tad_serve::ScoreUpdate;

    fn error(code: ErrorCode, trip: Option<u64>) -> Response {
        Response::Error { code, trip, retry_after_ms: None, detail: String::new() }
    }

    /// A reply too long for the stack array: it takes the heap path.
    fn long_snapshot() -> Response {
        Response::Snapshot { image: Bytes::from(vec![7u8; 2 * STACK_FRAME]) }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut buf: Vec<u8> = Vec::new();
        let resps = [
            error(ErrorCode::Backpressure, Some(1)),
            long_snapshot(),
            Response::Installed { sessions: 4 },
            error(ErrorCode::EngineClosed, None),
        ];
        for resp in &resps {
            buf.extend_from_slice(&response_to_bytes(resp));
        }
        let mut cursor = &buf[..];
        for resp in &resps {
            let got = read_response(&mut cursor, 1024).expect("read").expect("frame");
            assert_eq!(&got, resp);
        }
        assert!(read_response(&mut cursor, 1024).expect("clean eof").is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_io_error() {
        for resp in [Response::Installed { sessions: 3 }, long_snapshot()] {
            let buf = response_to_bytes(&resp);
            for cut in 1..buf.len() {
                let mut cursor = &buf[..cut];
                match read_response(&mut cursor, 1024) {
                    Err(RecvError::Io(e)) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut={cut}")
                    }
                    other => panic!("cut={cut}: expected UnexpectedEof, got {other:?}"),
                }
            }
        }
    }

    /// The client's small frames cost the heap nothing: a `Segment` is
    /// encoded in the thread's reused buffer, once that exists, and a
    /// `Score` is read into a stack array and decoded in place.
    #[test]
    fn a_segment_write_and_a_score_read_ask_the_heap_for_nothing() {
        let segment = Request::Segment { id: 7, seg: 3 };
        let mut sent = Vec::with_capacity(256);
        write_request(&mut sent, &segment).expect("vec write");
        let (wrote, requests) = heap_requests(|| write_request(&mut sent, &segment));
        wrote.expect("vec write");
        assert_eq!(requests, 0, "a segment write asked the heap");
        assert_eq!(
            sent,
            [request_to_bytes(&segment).to_vec(), request_to_bytes(&segment).to_vec()].concat()
        );

        let score = Response::Score(ScoreUpdate {
            id: 7,
            seq: 3,
            segment: 42,
            score: 1.25,
            nll: 0.5,
            log_scale: -0.25,
        });
        let blob = response_to_bytes(&score).to_vec();
        let mut cursor = &blob[..];
        let (read, requests) = heap_requests(|| read_response(&mut cursor, DEFAULT_MAX_FRAME));
        assert_eq!(requests, 0, "a score read asked the heap");
        assert_eq!(read.expect("read"), Some(score));
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let resp = Response::Error {
            code: ErrorCode::Rejected,
            trip: None,
            retry_after_ms: None,
            detail: "x".repeat(100),
        };
        let blob = response_to_bytes(&resp);
        let mut cursor = &blob[..];
        match read_response(&mut cursor, 16) {
            Err(RecvError::Frame(FrameError::TooLarge { max: 16, .. })) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The same frame passes with an adequate cap.
        let mut cursor = &blob[..];
        assert!(read_response(&mut cursor, 4096).expect("read").is_some());
    }

    #[test]
    fn assembler_reassembles_frames_split_at_every_boundary() {
        let mut blob: Vec<u8> = Vec::new();
        let reqs = [
            Request::TripStart { id: 7, source: 2, dest: 5, time_slot: 1 },
            Request::Segment { id: 7, seg: 3 },
            Request::Install { image: Bytes::from(vec![9u8; 5]) },
            Request::TripEnd { id: 7 },
        ];
        for req in &reqs {
            write_request(&mut blob, req).expect("vec write");
        }
        for cut in 0..=blob.len() {
            let mut asm = FrameAssembler::new(1024);
            let mut got = Vec::new();
            for chunk in [&blob[..cut], &blob[cut..]] {
                asm.feed(chunk);
                while let Some(frame) = asm.next_frame().expect("clean stream") {
                    got.push(crate::frame::request_from_frame(frame).expect("decodes"));
                }
            }
            assert_eq!(got, reqs, "cut={cut}");
            assert!(!asm.has_partial(), "cut={cut}: no residue after the last frame");
        }
    }

    #[test]
    fn assembler_judges_headers_before_payloads_exist() {
        // A hostile length prefix with no payload behind it: refused the
        // moment the 14th byte lands, exactly like the blocking reader.
        let mut asm = FrameAssembler::new(64);
        let mut header = Vec::new();
        header.extend_from_slice(b"TADN");
        header.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        header.extend_from_slice(&u64::MAX.to_le_bytes());
        asm.feed(&header[..13]);
        assert!(asm.next_frame().expect("13 bytes prove nothing").is_none());
        asm.feed(&header[13..]);
        match asm.next_frame() {
            Err(FrameError::TooLarge { max: 64, .. }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Framing is lost: the error repeats instead of resyncing.
        assert!(asm.next_frame().is_err());

        let mut asm = FrameAssembler::new(64);
        asm.feed(&[0xFF; 14]);
        match asm.next_frame() {
            Err(FrameError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn garbage_magic_surfaces_before_length() {
        // 14 bytes of garbage whose "length" field would be enormous: the
        // reader must report BadMagic, not TooLarge or an allocation.
        let raw = [0xFFu8; 14];
        let mut cursor = &raw[..];
        match read_response(&mut cursor, 64) {
            Err(RecvError::Frame(FrameError::BadMagic)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }
}
