//! Stream I/O for `TADN` frames: length-prefixed reads with a payload
//! cap, clean-EOF detection, buffered writes, and the incremental
//! [`FrameAssembler`] behind the nonblocking event loop.
//!
//! A reader fetches the fixed 14-byte envelope header first, validates
//! magic/version and the announced payload length **before allocating**,
//! then reads the rest of the frame and hands the whole envelope to the
//! frame codec (which re-verifies the checksum). A peer announcing a
//! payload longer than the cap is refused with
//! [`FrameError::TooLarge`] without any allocation — the defence against
//! memory-exhaustion by hostile length prefixes. The [`FrameAssembler`]
//! applies exactly the same validation order to bytes arriving in
//! arbitrary nonblocking chunks: a header is judged the moment its 14
//! bytes are buffered, so a hostile length prefix is refused even when
//! the rest of the "frame" never arrives.

use std::io::{Read, Write};

use bytes::Bytes;
use tad_codec::{Reader, ENVELOPE_HEADER_LEN};

use crate::frame::{
    request_to_bytes, response_from_bytes, FrameError, Request, Response, FRAME_MAGIC,
    FRAME_VERSION,
};

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
/// refusing payloads longer than `max_payload` before allocating.
/// `Ok(None)` is a clean frame-aligned EOF.
fn read_frame_bytes(r: &mut impl Read, max_payload: usize) -> Result<Option<Bytes>, RecvError> {
    let mut header = [0u8; ENVELOPE_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    // Validate the header before trusting the length: garbage magic means
    // garbage length, and the caller should learn "bad magic", not "frame
    // too large".
    let plen = validate_header(&header, max_payload)?;
    // One allocation for the whole envelope: the body is read directly
    // into its final resting place behind the copied header.
    let mut whole = vec![0u8; ENVELOPE_HEADER_LEN + plen as usize + 8];
    whole[..ENVELOPE_HEADER_LEN].copy_from_slice(&header);
    if !read_exact_or_eof(r, &mut whole[ENVELOPE_HEADER_LEN..])? {
        return Err(RecvError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed mid-frame",
        )));
    }
    Ok(Some(Bytes::from(whole)))
}

/// Incremental `TADN` envelope reassembly for nonblocking reads: feed it
/// whatever chunk of bytes the socket produced — a byte, half a header,
/// three frames and a tail — and pull complete envelopes out as they
/// form. This is the event loop's counterpart of [`read_response`]'s
/// blocking header-then-payload read, with the identical validation
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
    /// Cursor of the first unconsumed byte in `buf` (compacted lazily so
    /// per-frame extraction is not O(buffered bytes)).
    start: usize,
    max_payload: usize,
}

/// Compact the assembler's buffer once the dead prefix crosses this many
/// bytes (or the buffer empties, which is free).
const ASSEMBLER_COMPACT_AT: usize = 64 << 10;

impl FrameAssembler {
    /// An empty assembler refusing payloads longer than `max_payload`.
    pub fn new(max_payload: usize) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), start: 0, max_payload }
    }

    /// Appends one chunk of received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= ASSEMBLER_COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete envelope, if one has fully arrived.
    /// `Ok(None)` means "keep feeding"; the returned [`Bytes`] is a whole
    /// envelope ready for [`crate::request_from_bytes`] /
    /// [`crate::response_from_bytes`].
    ///
    /// # Errors
    /// The same typed [`FrameError`]s as the blocking reader, surfaced at
    /// the earliest byte that proves the stream hostile.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
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
        let frame = Bytes::from(avail[..total].to_vec());
        self.start += total;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed by a complete frame — nonzero
    /// at EOF means the peer vanished mid-frame (a transport error, not a
    /// clean close).
    pub fn has_partial(&self) -> bool {
        self.start < self.buf.len()
    }
}

/// Reads one response frame. `Ok(None)` is a clean frame-aligned EOF.
///
/// # Errors
/// [`RecvError::Io`] for transport failures (including mid-frame EOF),
/// [`RecvError::Frame`] for undecodable or over-long frames.
pub fn read_response(r: &mut impl Read, max_payload: usize) -> Result<Option<Response>, RecvError> {
    match read_frame_bytes(r, max_payload)? {
        Some(bytes) => Ok(Some(response_from_bytes(bytes)?)),
        None => Ok(None),
    }
}

/// Writes one request frame (no flush — callers batch then flush).
///
/// # Errors
/// Propagates the writer's I/O error.
pub fn write_request(w: &mut impl Write, req: &Request) -> std::io::Result<()> {
    w.write_all(&request_to_bytes(req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{response_to_bytes, ErrorCode};

    fn error(code: ErrorCode, trip: Option<u64>) -> Response {
        Response::Error { code, trip, retry_after_ms: None, detail: String::new() }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut buf: Vec<u8> = Vec::new();
        let resps = [
            error(ErrorCode::Backpressure, Some(1)),
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
        let buf = response_to_bytes(&Response::Installed { sessions: 3 });
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
                    got.push(crate::frame::request_from_bytes(frame).expect("decodes"));
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
