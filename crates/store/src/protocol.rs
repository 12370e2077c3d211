//! The wire protocol of the report store: small, length-prefixed, checksummed
//! binary frames over a plain TCP stream.
//!
//! Three requests exist — `GET` (fetch the entry for a key), `PUT` (publish an
//! entry) and `STAT` (fetch the server's counters) — and five responses
//! (`HIT`, `MISS`, `OK`, `ERR`, `STATS`). Every frame carries:
//!
//! ```text
//! request:   magic:u32 | opcode:u8 | key:[u8;32] | len:u32 | checksum:u64 | payload
//! response:  magic:u32 | status:u8 |               len:u32 | checksum:u64 | payload
//! ```
//!
//! (little-endian integers; `key` is the fixed-width lower-case hex form of a
//! [`SimKey`](virgo::SimKey), all zeroes for `STAT`). The checksum is FNV-1a
//! over the payload bytes, so wire corruption is detected *before* the payload
//! is parsed; the payload of `GET`/`PUT` is itself the self-verifying snapshot
//! envelope produced by `SimReport::to_cache_json` (format tag, version,
//! embedded key, payload checksum), so an entry is checked end to end: once on
//! the wire and once at rest.
//!
//! Both sides treat any malformed frame (bad magic, oversized length, checksum
//! mismatch, unknown opcode) as a fatal protocol error for that connection —
//! the stream is no longer in sync, so the only safe move is to drop it. A
//! connection dropped mid-frame (e.g. a client killed mid-`PUT`) therefore
//! never yields a partial entry: the receiver's `read_exact` fails and the
//! frame is discarded whole.

use std::io::{self, Read, Write};

/// Frame magic: `b"VGS1"` little-endian — rejects non-protocol peers and
/// desynchronized streams on the first four bytes.
pub const MAGIC: u32 = u32::from_le_bytes(*b"VGS1");

/// Upper bound on a frame payload. The largest real snapshot envelopes are a
/// few hundred KiB; anything beyond this is a protocol error, not a report.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Length of the fixed-width hex key field ([`virgo::SimKey::to_hex`]).
pub const KEY_LEN: usize = 32;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Fetch the entry stored under a key.
    Get = 1,
    /// Publish an entry under a key.
    Put = 2,
    /// Fetch the server's aggregate counters.
    Stat = 3,
}

impl Opcode {
    fn from_u8(v: u8) -> Option<Opcode> {
        match v {
            1 => Some(Opcode::Get),
            2 => Some(Opcode::Put),
            3 => Some(Opcode::Stat),
            _ => None,
        }
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// `GET`: the entry exists; the payload is its snapshot envelope.
    Hit = 1,
    /// `GET`: no entry under that key.
    Miss = 2,
    /// `PUT`: the entry was validated and stored.
    Ok = 3,
    /// The request was understood but refused (e.g. a corrupt `PUT` payload);
    /// the payload is a human-readable reason.
    Err = 4,
    /// `STAT`: the payload is a JSON rendering of the server counters.
    Stats = 5,
}

impl Status {
    fn from_u8(v: u8) -> Option<Status> {
        match v {
            1 => Some(Status::Hit),
            2 => Some(Status::Miss),
            3 => Some(Status::Ok),
            4 => Some(Status::Err),
            5 => Some(Status::Stats),
            _ => None,
        }
    }
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What the peer wants.
    pub opcode: Opcode,
    /// Fixed-width hex key (all zeroes for `STAT`).
    pub key: [u8; KEY_LEN],
    /// Payload bytes (empty except for `PUT`).
    pub payload: Vec<u8>,
}

impl Request {
    /// The key field as UTF-8, if it is well-formed lower-case hex.
    pub fn key_hex(&self) -> Option<&str> {
        let s = std::str::from_utf8(&self.key).ok()?;
        s.chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
            .then_some(s)
    }
}

/// One parsed response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The verdict.
    pub status: Status,
    /// Payload bytes (entry envelope, error reason or stats JSON).
    pub payload: Vec<u8>,
}

/// FNV-1a over `bytes` — the frame-level payload checksum. Not
/// cryptographic; it exists to catch wire corruption and truncation, the
/// same duty the snapshot envelope's own checksum performs at rest.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn protocol_error(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("store protocol: {what}"),
    )
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_payload(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let len = read_u32(r)?;
    if len > MAX_PAYLOAD {
        return Err(protocol_error("payload exceeds MAX_PAYLOAD"));
    }
    let expected = read_u64(r)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if checksum64(&payload) != expected {
        return Err(protocol_error("payload checksum mismatch"));
    }
    Ok(payload)
}

/// Sends one frame — `header`, then the payload's length, checksum and
/// bytes — from a single buffer with a single `write_all`, so a socket
/// never holds back the tail of a frame waiting for the peer's ACK of its
/// head (Nagle's algorithm against a delayed ACK).
fn write_frame(w: &mut impl Write, header: &[u8], payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > u64::from(MAX_PAYLOAD) {
        return Err(protocol_error("payload exceeds MAX_PAYLOAD"));
    }
    let mut frame = Vec::with_capacity(header.len() + 12 + payload.len());
    frame.extend_from_slice(header);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Serializes one request frame.
pub fn write_request(
    w: &mut impl Write,
    opcode: Opcode,
    key: &[u8; KEY_LEN],
    payload: &[u8],
) -> io::Result<()> {
    let mut header = [0u8; 5 + KEY_LEN];
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = opcode as u8;
    header[5..].copy_from_slice(key);
    write_frame(w, &header, payload)
}

/// Parses one request frame (blocking until complete or the stream errors).
pub fn read_request(r: &mut impl Read) -> io::Result<Request> {
    if read_u32(r)? != MAGIC {
        return Err(protocol_error("bad request magic"));
    }
    let mut op = [0u8; 1];
    r.read_exact(&mut op)?;
    let opcode = Opcode::from_u8(op[0]).ok_or_else(|| protocol_error("unknown opcode"))?;
    let mut key = [0u8; KEY_LEN];
    r.read_exact(&mut key)?;
    let payload = read_payload(r)?;
    Ok(Request {
        opcode,
        key,
        payload,
    })
}

/// Serializes one response frame.
pub fn write_response(w: &mut impl Write, status: Status, payload: &[u8]) -> io::Result<()> {
    let [m0, m1, m2, m3] = MAGIC.to_le_bytes();
    write_frame(w, &[m0, m1, m2, m3, status as u8], payload)
}

/// Parses one response frame.
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    if read_u32(r)? != MAGIC {
        return Err(protocol_error("bad response magic"));
    }
    let mut st = [0u8; 1];
    r.read_exact(&mut st)?;
    let status = Status::from_u8(st[0]).ok_or_else(|| protocol_error("unknown status"))?;
    let payload = read_payload(r)?;
    Ok(Response { status, payload })
}

/// Renders a key string into the fixed-width frame field.
///
/// # Panics
///
/// Panics if `key_hex` is not exactly [`KEY_LEN`] bytes — keys come from
/// [`virgo::SimKey::to_hex`], which is fixed-width by construction.
pub fn key_field(key_hex: &str) -> [u8; KEY_LEN] {
    let bytes = key_hex.as_bytes();
    assert_eq!(bytes.len(), KEY_LEN, "store keys are 32-char hex");
    let mut field = [0u8; KEY_LEN];
    field.copy_from_slice(bytes);
    field
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let key = key_field(&"ab".repeat(16));
        let mut buf = Vec::new();
        write_request(&mut buf, Opcode::Put, &key, b"{\"hello\":1}").unwrap();
        let parsed = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(parsed.opcode, Opcode::Put);
        assert_eq!(parsed.key, key);
        assert_eq!(parsed.payload, b"{\"hello\":1}");
        assert_eq!(parsed.key_hex(), Some("ab".repeat(16).as_str()));
    }

    #[test]
    fn response_roundtrip() {
        let mut buf = Vec::new();
        write_response(&mut buf, Status::Hit, b"payload").unwrap();
        let parsed = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(parsed.status, Status::Hit);
        assert_eq!(parsed.payload, b"payload");
    }

    #[test]
    fn corrupt_payload_is_rejected_by_checksum() {
        let key = key_field(&"00".repeat(16));
        let mut buf = Vec::new();
        write_request(&mut buf, Opcode::Put, &key, b"abcdefgh").unwrap();
        // Flip one payload byte; the header checksum no longer matches.
        let n = buf.len();
        buf[n - 3] ^= 0x40;
        let err = read_request(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_partial_entry() {
        let key = key_field(&"11".repeat(16));
        let mut buf = Vec::new();
        write_request(&mut buf, Opcode::Put, &key, &vec![7u8; 1024]).unwrap();
        buf.truncate(buf.len() / 2); // the peer died mid-PUT
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn bad_magic_and_unknown_opcode_fail() {
        let key = key_field(&"22".repeat(16));
        let mut buf = Vec::new();
        write_request(&mut buf, Opcode::Get, &key, b"").unwrap();
        let mut garbled = buf.clone();
        garbled[0] ^= 0xff;
        assert!(read_request(&mut garbled.as_slice()).is_err());
        let mut unknown = buf.clone();
        unknown[4] = 200;
        assert!(read_request(&mut unknown.as_slice()).is_err());
    }

    #[test]
    fn uppercase_or_non_hex_keys_are_refused() {
        let mut req = Request {
            opcode: Opcode::Get,
            key: key_field(&"ab".repeat(16)),
            payload: Vec::new(),
        };
        assert!(req.key_hex().is_some());
        req.key[0] = b'G';
        assert_eq!(req.key_hex(), None);
        req.key[0] = b'A';
        assert_eq!(req.key_hex(), None, "keys are canonical lower-case hex");
    }

    /// A sink that records the size of every `write` call.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Each frame leaves in one write: a frame split over several small
    /// writes stalls on Nagle's algorithm against the peer's delayed ACK.
    #[test]
    fn each_frame_takes_exactly_one_write() {
        let key = key_field(&"cd".repeat(16));
        for payload in [&b""[..], b"{\"entry\":7}"] {
            let mut w = CountingWriter::default();
            write_request(&mut w, Opcode::Put, &key, payload).unwrap();
            assert_eq!(w.writes, vec![4 + 1 + KEY_LEN + 4 + 8 + payload.len()]);
            let mut w = CountingWriter::default();
            write_response(&mut w, Status::Hit, payload).unwrap();
            assert_eq!(w.writes, vec![4 + 1 + 4 + 8 + payload.len()]);
        }
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }
}
