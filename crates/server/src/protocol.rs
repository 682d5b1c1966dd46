//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one frame: a 4-byte little-endian body length
//! followed by the body. Request bodies start with an opcode byte,
//! response bodies with a status byte. All integers are little-endian.
//!
//! ```text
//! request  := u32 len | op:u8 payload
//!   GET      (0x01)  page:u64
//!   PUT      (0x02)  page:u64 data:bytes            (data fills the page
//!                                                    from offset 0)
//!   SCAN     (0x03)  start:u64 len:u32
//!   STATS    (0x04)
//!   SHUTDOWN (0x05)
//!   METRICS  (0x06)
//!   EXEMPLARS(0x07)
//!
//! response := u32 len | status:u8 payload
//!   OK       (0x00)  GET: page bytes; PUT/SHUTDOWN: empty;
//!                    SCAN: count:u32 checksum:u64 (FNV-1a over contents);
//!                    STATS: UTF-8 JSON;
//!                    METRICS: UTF-8 Prometheus-style text exposition;
//!                    EXEMPLARS: UTF-8 Chrome-trace JSON (flight
//!                    recorder's captured slow/failed requests)
//!   BUSY     (0x01)  shed by admission control (waiting room full)
//!   DROPPED  (0x02)  deadline exceeded while waiting
//!   ERR      (0x03)  UTF-8 message
//!   ERR_IO   (0x04)  UTF-8 message: storage failed after retries; the
//!                    pool repaired itself and the request may simply be
//!                    retried
//! ```

use std::io::{self, Read, Write};

/// Largest accepted frame body. Bounds server-side allocation per
/// connection; a page plus headers fits comfortably.
pub const MAX_FRAME: usize = 1 << 20;

/// Longest SCAN a single request may ask for.
pub const MAX_SCAN_LEN: u32 = 1 << 16;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read one page.
    Get {
        /// Page id.
        page: u64,
    },
    /// Overwrite the head of one page.
    Put {
        /// Page id.
        page: u64,
        /// Bytes written from offset 0 (at most the page size).
        data: Vec<u8>,
    },
    /// Touch `len` consecutive pages, returning a checksum.
    Scan {
        /// First page id.
        start: u64,
        /// Number of pages.
        len: u32,
    },
    /// Fetch the server's metrics as JSON.
    Stats,
    /// Ask the server to stop accepting and drain.
    Shutdown,
    /// Fetch the server's metrics as Prometheus-style text exposition.
    Metrics,
    /// Fetch the flight recorder's captured exemplars as Chrome-trace
    /// JSON (loadable in Perfetto).
    Exemplars,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; payload depends on the request.
    Ok(Vec<u8>),
    /// Shed by admission control before queueing.
    Busy,
    /// Dropped after waiting: its deadline passed before it got an
    /// execution slot.
    Dropped,
    /// Malformed request or execution failure.
    Err(String),
    /// Storage I/O failed after the pool's retry budget. Transient by
    /// contract: the frame involved was repaired, so retrying the same
    /// request is safe and succeeds once the device recovers.
    IoError(String),
}

/// Decode failure (maps to an `ERR` reply and connection close).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_SCAN: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_METRICS: u8 = 0x06;
const OP_EXEMPLARS: u8 = 0x07;

const ST_OK: u8 = 0x00;
const ST_BUSY: u8 = 0x01;
const ST_DROPPED: u8 = 0x02;
const ST_ERR: u8 = 0x03;
const ST_IO_ERR: u8 = 0x04;

impl Request {
    /// Serialize the body (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Get { page } => {
                let mut b = Vec::with_capacity(9);
                b.push(OP_GET);
                b.extend_from_slice(&page.to_le_bytes());
                b
            }
            Request::Put { page, data } => {
                let mut b = Vec::with_capacity(9 + data.len());
                b.push(OP_PUT);
                b.extend_from_slice(&page.to_le_bytes());
                b.extend_from_slice(data);
                b
            }
            Request::Scan { start, len } => {
                let mut b = Vec::with_capacity(13);
                b.push(OP_SCAN);
                b.extend_from_slice(&start.to_le_bytes());
                b.extend_from_slice(&len.to_le_bytes());
                b
            }
            Request::Stats => vec![OP_STATS],
            Request::Shutdown => vec![OP_SHUTDOWN],
            Request::Metrics => vec![OP_METRICS],
            Request::Exemplars => vec![OP_EXEMPLARS],
        }
    }

    /// The request's opcode byte (also the first byte of
    /// [`encode`](Self::encode)'s output).
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Get { .. } => OP_GET,
            Request::Put { .. } => OP_PUT,
            Request::Scan { .. } => OP_SCAN,
            Request::Stats => OP_STATS,
            Request::Shutdown => OP_SHUTDOWN,
            Request::Metrics => OP_METRICS,
            Request::Exemplars => OP_EXEMPLARS,
        }
    }

    /// Parse a body produced by [`encode`](Self::encode).
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        let (&op, rest) = body
            .split_first()
            .ok_or_else(|| ProtocolError("empty request".into()))?;
        match op {
            OP_GET => Ok(Request::Get {
                page: read_u64(rest, "GET page")?,
            }),
            OP_PUT => {
                if rest.len() < 8 {
                    return Err(ProtocolError("PUT needs a page id".into()));
                }
                let page = u64::from_le_bytes(rest[..8].try_into().unwrap());
                Ok(Request::Put {
                    page,
                    data: rest[8..].to_vec(),
                })
            }
            OP_SCAN => {
                if rest.len() != 12 {
                    return Err(ProtocolError("SCAN needs start+len".into()));
                }
                let start = u64::from_le_bytes(rest[..8].try_into().unwrap());
                let len = u32::from_le_bytes(rest[8..].try_into().unwrap());
                if len == 0 || len > MAX_SCAN_LEN {
                    return Err(ProtocolError(format!(
                        "SCAN len {len} outside 1..={MAX_SCAN_LEN}"
                    )));
                }
                Ok(Request::Scan { start, len })
            }
            OP_STATS if rest.is_empty() => Ok(Request::Stats),
            OP_SHUTDOWN if rest.is_empty() => Ok(Request::Shutdown),
            OP_METRICS if rest.is_empty() => Ok(Request::Metrics),
            OP_EXEMPLARS if rest.is_empty() => Ok(Request::Exemplars),
            OP_STATS | OP_SHUTDOWN | OP_METRICS | OP_EXEMPLARS => {
                Err(ProtocolError("unexpected payload".into()))
            }
            other => Err(ProtocolError(format!("unknown opcode 0x{other:02x}"))),
        }
    }
}

impl Response {
    /// Serialize the body (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok(payload) => {
                let mut b = Vec::with_capacity(1 + payload.len());
                b.push(ST_OK);
                b.extend_from_slice(payload);
                b
            }
            Response::Busy => vec![ST_BUSY],
            Response::Dropped => vec![ST_DROPPED],
            Response::Err(msg) => {
                let mut b = Vec::with_capacity(1 + msg.len());
                b.push(ST_ERR);
                b.extend_from_slice(msg.as_bytes());
                b
            }
            Response::IoError(msg) => {
                let mut b = Vec::with_capacity(1 + msg.len());
                b.push(ST_IO_ERR);
                b.extend_from_slice(msg.as_bytes());
                b
            }
        }
    }

    /// Parse a body produced by [`encode`](Self::encode).
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let (&st, rest) = body
            .split_first()
            .ok_or_else(|| ProtocolError("empty response".into()))?;
        match st {
            ST_OK => Ok(Response::Ok(rest.to_vec())),
            ST_BUSY => Ok(Response::Busy),
            ST_DROPPED => Ok(Response::Dropped),
            ST_ERR => Ok(Response::Err(String::from_utf8_lossy(rest).into_owned())),
            ST_IO_ERR => Ok(Response::IoError(
                String::from_utf8_lossy(rest).into_owned(),
            )),
            other => Err(ProtocolError(format!("unknown status 0x{other:02x}"))),
        }
    }
}

fn read_u64(b: &[u8], what: &str) -> Result<u64, ProtocolError> {
    if b.len() != 8 {
        return Err(ProtocolError(format!(
            "{what}: expected 8 bytes, got {}",
            b.len()
        )));
    }
    Ok(u64::from_le_bytes(b.try_into().unwrap()))
}

/// Check a frame header's claimed body length before trusting it. Every
/// valid body carries at least an opcode/status byte, so a zero-length
/// frame is as malformed as an oversized one — and rejecting both at
/// the header keeps a garbage 4-byte prefix from ever sizing a server
/// allocation.
pub fn validate_frame_len(len: usize) -> Result<(), ProtocolError> {
    if len == 0 {
        return Err(ProtocolError("zero-length frame".into()));
    }
    if len > MAX_FRAME {
        return Err(ProtocolError(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME} limit"
        )));
    }
    Ok(())
}

/// Write one frame (header + body) and flush.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    write_frame_unflushed(w, body)?;
    w.flush()
}

/// Write one frame without flushing — the pipelined client batches
/// several frames into one kernel write and flushes before reading.
pub fn write_frame_unflushed(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Read one frame body into `buf`. Returns `Ok(false)` on clean EOF at
/// a frame boundary (peer closed), `Err` on truncation, zero-length, or
/// oversize.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    read_frame_inner(r, buf, None)
}

/// [`read_frame`] for a socket with a read timeout. A timeout between
/// frames calls `on_idle` and keeps waiting; a timeout mid-frame just
/// keeps reading, so a slow sender is never cut off.
pub fn read_frame_or_idle(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    on_idle: &mut dyn FnMut(),
) -> io::Result<bool> {
    read_frame_inner(r, buf, Some(on_idle))
}

/// With `on_idle` absent, a timeout is an error like any other.
fn read_frame_inner(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    mut on_idle: Option<&mut dyn FnMut()>,
) -> io::Result<bool> {
    // Whether a read error is a timeout to wait through (and, between
    // frames, report as idleness).
    let mut waits = |e: &io::Error, at_boundary: bool| {
        let timeout = matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        );
        match on_idle.as_mut() {
            Some(idle) if timeout => {
                if at_boundary {
                    idle();
                }
                true
            }
            _ => e.kind() == io::ErrorKind::Interrupted,
        }
    };
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if waits(&e, filled == 0) => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    validate_frame_len(len)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    buf.resize(len, 0);
    let mut got = 0;
    while got < len {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => got += n,
            Err(e) if waits(&e, false) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Incremental frame decoder for nonblocking transports.
///
/// A readiness loop gets bytes in whatever fragments the kernel
/// delivers — half a header, three frames and a torn fourth, one byte
/// at a time from a slowloris. [`push`](Self::push) accepts any
/// fragment; [`next_frame`](Self::next_frame) yields complete bodies in
/// order. The length prefix is validated the moment its 4 bytes are
/// present (zero-length and oversized frames are rejected *before* the
/// body is buffered), and a decoder that has reported a protocol error
/// stays poisoned: framing is unrecoverable once the byte stream is
/// suspect, so the connection must be dropped.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Parse position within `buf` (consumed bytes are compacted away
    /// frame by frame).
    pos: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer a fragment read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet returned as a frame — a torn header
    /// or partially received body.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame body, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes"; `Err` means the stream is
    /// malformed and every later call will keep erring.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError("decoder poisoned by an earlier error".into()));
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if let Err(e) = validate_frame_len(len) {
            self.poisoned = true;
            self.buf = Vec::new();
            self.pos = 0;
            return Err(e);
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let body = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(body))
    }

    fn compact(&mut self) {
        // Drop consumed bytes once nothing torn straddles them; keeps
        // the buffer from growing with connection lifetime.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// FNV-1a over a byte slice; SCAN replies carry this checksum so clients
/// can verify content without shipping every page back.
pub fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    let mut h = if init == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        init
    };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Get { page: 7 },
            Request::Put {
                page: u64::MAX,
                data: vec![1, 2, 3],
            },
            Request::Put {
                page: 0,
                data: Vec::new(),
            },
            Request::Scan { start: 10, len: 4 },
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
            Request::Exemplars,
        ];
        for req in cases {
            assert_eq!(req.encode()[0], req.opcode());
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Ok(vec![9, 8, 7]),
            Response::Ok(Vec::new()),
            Response::Busy,
            Response::Dropped,
            Response::Err("no such page".into()),
            Response::IoError("injected read fault on page 7".into()),
        ];
        for resp in cases {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_bodies_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Request::decode(&[OP_GET, 1, 2]).is_err());
        assert!(Request::decode(&[OP_SCAN, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(Request::decode(&[OP_STATS, 1]).is_err());
        assert!(Request::decode(&[OP_METRICS, 1]).is_err());
        assert!(Request::decode(&[OP_EXEMPLARS, 1]).is_err());
        assert!(Response::decode(&[0xEE]).is_err());
        // SCAN len over the cap.
        let mut b = vec![OP_SCAN];
        b.extend_from_slice(&0u64.to_le_bytes());
        b.extend_from_slice(&(MAX_SCAN_LEN + 1).to_le_bytes());
        assert!(Request::decode(&b).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Get { page: 3 }.encode()).unwrap();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(Request::decode(&buf).unwrap(), Request::Get { page: 3 });
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(Request::decode(&buf).unwrap(), Request::Stats);
        assert!(!read_frame(&mut r, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn truncated_and_oversize_frames_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3, 4]).unwrap();
        let mut r = &wire[..wire.len() - 1];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).is_err());

        let mut r = &wire[..2];
        assert!(read_frame(&mut r, &mut buf).is_err());

        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        let mut r = &huge[..];
        assert!(read_frame(&mut r, &mut buf).is_err());
    }

    /// Frame `req` onto a wire image.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, body).unwrap();
        wire
    }

    #[test]
    fn decoder_handles_one_byte_at_a_time() {
        let mut wire = framed(&Request::Get { page: 99 }.encode());
        wire.extend(framed(&Request::Scan { start: 5, len: 3 }.encode()));
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in &wire {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(
            Request::decode(&frames[0]).unwrap(),
            Request::Get { page: 99 }
        );
        assert_eq!(
            Request::decode(&frames[1]).unwrap(),
            Request::Scan { start: 5, len: 3 }
        );
        assert_eq!(dec.buffered(), 0, "nothing torn left behind");
    }

    #[test]
    fn decoder_handles_arbitrary_split_points() {
        // Three frames, split at every possible boundary (header torn,
        // body torn, frames glued) — the decoder must produce the same
        // three bodies regardless of fragmentation.
        let bodies = [
            Request::Put {
                page: 3,
                data: vec![7; 33],
            }
            .encode(),
            Request::Stats.encode(),
            Request::Get { page: 1 }.encode(),
        ];
        let mut wire = Vec::new();
        for b in &bodies {
            wire.extend(framed(b));
        }
        for split in 1..wire.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in [&wire[..split], &wire[split..]] {
                dec.push(chunk);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got.len(), 3, "split at {split}");
            for (g, want) in got.iter().zip(&bodies) {
                assert_eq!(g, want, "split at {split}");
            }
        }
    }

    #[test]
    fn decoder_rejects_zero_length_and_oversized_headers() {
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        assert!(dec.next_frame().is_err(), "zero-length frame");
        // Poisoned: even a now-valid frame is refused.
        dec.push(&framed(&Request::Stats.encode()));
        assert!(dec.next_frame().is_err(), "decoder must stay poisoned");

        let mut dec = FrameDecoder::new();
        dec.push(&((MAX_FRAME + 1) as u32).to_le_bytes());
        assert!(dec.next_frame().is_err(), "oversized frame");

        // The oversize check must fire from the header alone, before
        // any body bytes arrive (no allocation sized by garbage).
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_le_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_waits_on_truncated_body_without_erring() {
        let wire = framed(
            &Request::Put {
                page: 8,
                data: vec![1; 64],
            }
            .encode(),
        );
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..wire.len() - 1]); // all but the last body byte
        assert_eq!(dec.next_frame().unwrap(), None, "mid-body: need more");
        assert_eq!(dec.buffered(), wire.len() - 1);
        dec.push(&wire[wire.len() - 1..]);
        let body = dec.next_frame().unwrap().expect("complete now");
        assert!(matches!(
            Request::decode(&body).unwrap(),
            Request::Put { page: 8, .. }
        ));
    }

    #[test]
    fn decoder_rejects_garbage_after_valid_frames() {
        let mut dec = FrameDecoder::new();
        dec.push(&framed(&Request::Get { page: 2 }.encode()));
        // Garbage "header" claiming an enormous body.
        dec.push(&[0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(dec.next_frame().unwrap().is_some(), "valid frame first");
        assert!(dec.next_frame().is_err(), "then the garbage header");
    }

    #[test]
    fn blocking_read_frame_rejects_zero_length() {
        let wire = 0u32.to_le_bytes();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        let err = read_frame(&mut r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A socket stand-in: each step yields some bytes or one timeout.
    struct Scripted(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut bytes)) => {
                    let n = bytes.len().min(out.len());
                    out[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn idle_reads_report_only_boundary_timeouts() {
        let body = Request::Get { page: 9 }.encode();
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        // Idle twice before the frame, then time out mid-header and
        // mid-body: the frame still arrives whole, and only the two
        // boundary timeouts count as idleness.
        let mut r = Scripted(
            [
                None,
                None,
                Some(wire[..2].to_vec()),
                None,
                Some(wire[2..6].to_vec()),
                None,
                Some(wire[6..].to_vec()),
            ]
            .into_iter()
            .collect(),
        );
        let mut idles = 0;
        let mut buf = Vec::new();
        assert!(read_frame_or_idle(&mut r, &mut buf, &mut || idles += 1).unwrap());
        assert_eq!(Request::decode(&buf).unwrap(), Request::Get { page: 9 });
        assert_eq!(idles, 2);
        assert!(!read_frame_or_idle(&mut r, &mut buf, &mut || idles += 1).unwrap());
        // Without an idle hook a timeout is an error, as before.
        let mut r = Scripted([None].into_iter().collect());
        let err = read_frame(&mut r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn fnv_is_stable_and_chains() {
        let a = fnv1a(0, b"hello");
        assert_eq!(a, fnv1a(0, b"hello"));
        assert_ne!(a, fnv1a(0, b"hellp"));
        let chained = fnv1a(fnv1a(0, b"he"), b"llo");
        assert_eq!(chained, a);
    }
}
