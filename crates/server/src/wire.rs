//! The length-prefixed wire protocol shared by server and client.
//!
//! Every message is one *frame*:
//!
//! ```text
//! u32 LE  body length (bytes that follow; at most MAX_FRAME)
//! u16 LE  magic  = 0x4C4F ("OL")
//! u8      version = 2
//! u8      kind    (request or reply discriminant)
//! ...     kind-specific payload
//! ```
//!
//! Strings are `u16 LE length + bytes` (keys and values are bounded by
//! [`durable_objects::MAX_KV_STRING`], so they always fit). Update requests
//! carry the **client-pre-assigned** identity — `pid: u32, seq: u64` — which is
//! what makes a retry after a server kill-9 resolvable: the identity, not the
//! connection, names the operation.
//!
//! A frame the client has *read* was fully written by the server after the
//! operation's combining fence, so a received [`Reply::Value`] acknowledges
//! durability. The converse direction is the retry contract: a request whose
//! reply was never read must be resolved (`Request::Resolve`) before being
//! resubmitted under the same identity.

use durable_objects::{KvValue, MAX_KV_STRING};
use onll::OpId;
use std::io::{self, Read, Write};

/// Frame magic: "OL" little-endian.
pub const MAGIC: u16 = 0x4C4F;
/// Protocol version this build speaks. Version 2 dropped the commit-lock
/// read (`GET_LATEST`, kind `0x08`) and its `STATS_OK` counter.
pub const VERSION: u8 = 2;
/// Upper bound on a frame body; anything larger is a protocol error.
pub const MAX_FRAME: u32 = 16 * 1024;

/// Shard marker in [`Reply::Value`] for answers not served by a single shard
/// (global reads such as `Len`).
pub const NO_SHARD: u32 = u32::MAX;

const KIND_HELLO: u8 = 0x01;
const KIND_PUT: u8 = 0x02;
const KIND_DELETE: u8 = 0x03;
const KIND_GET: u8 = 0x04;
const KIND_RESOLVE: u8 = 0x05;
const KIND_STATS: u8 = 0x06;
const KIND_PING: u8 = 0x07;

const KIND_HELLO_OK: u8 = 0x81;
const KIND_VALUE: u8 = 0x82;
const KIND_RESOLVED: u8 = 0x83;
const KIND_STATS_OK: u8 = 0x84;
const KIND_ERROR: u8 = 0x85;
const KIND_PONG: u8 = 0x86;
const KIND_BUSY: u8 = 0x87;
const KIND_UNAVAILABLE: u8 = 0x88;

/// Client-to-server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Claim deterministic client slot `index` on every shard. Must be the
    /// first request of a connection.
    Hello {
        /// Publication-slot index; the session's per-shard pid is `index + 1`.
        index: u32,
    },
    /// Insert/overwrite under a client-assigned identity.
    Put {
        /// The pre-assigned per-shard identity of this update.
        op_id: OpId,
        /// Key (routes the operation to its shard).
        key: String,
        /// Value.
        value: String,
    },
    /// Remove a key under a client-assigned identity.
    Delete {
        /// The pre-assigned per-shard identity of this update.
        op_id: OpId,
        /// Key (routes the operation to its shard).
        key: String,
    },
    /// Read a key (no identity: reads are fence-free and idempotent). Served
    /// from the shard's published snapshot — lock-free and linearizable: it
    /// sees every write acknowledged to any session before it was sent.
    Get {
        /// Key to look up.
        key: String,
    },
    /// Exactly-once reply retrieval for an unacknowledged identity.
    Resolve {
        /// Shard the identity was minted for.
        shard: u32,
        /// The identity to resolve.
        op_id: OpId,
    },
    /// Persistence counters (for the load generator's fence accounting).
    Stats,
    /// Liveness probe.
    Ping,
}

/// Typed resolve outcome on the wire (mirrors [`onll::ResolveOutcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResolved {
    /// The identity executed; here is its return value. Do not resubmit.
    Executed(KvValue),
    /// The identity never executed; resubmitting it is safe.
    Unknown,
    /// The answer was compacted below a checkpoint floor. Permanent:
    /// resubmitting could double-apply.
    Truncated,
}

/// Server-to-client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Slot claimed. `next_seqs[s]` is the smallest unused sequence number of
    /// this session's identity space on shard `s` — a reconnecting client
    /// resumes its per-shard counters from these.
    HelloOk {
        /// Per-shard next unused sequence numbers, indexed by shard.
        next_seqs: Vec<u64>,
    },
    /// An update or read completed. For updates the value is returned **after**
    /// the combining fence: reading this frame is the durability
    /// acknowledgement.
    Value {
        /// Shard that served the operation ([`NO_SHARD`] for global reads).
        shard: u32,
        /// The operation's return value.
        value: KvValue,
    },
    /// Answer to [`Request::Resolve`].
    Resolved(WireResolved),
    /// Persistence counters, summed across every shard pool, plus the
    /// server's degradation health (timeout reaps, admission rejects, and the
    /// number of shards whose backend is poisoned).
    StatsOk {
        /// Persistent fences issued so far (setup + updates + maintenance).
        persistent_fences: u64,
        /// The maintenance subset (checkpoints, truncation).
        maintenance_fences: u64,
        /// Combining batches committed.
        batches: u64,
        /// Operations those batches carried.
        combined_ops: u64,
        /// Connections reaped for exceeding the idle timeout.
        timeouts: u64,
        /// Connections refused with [`Reply::Busy`] at admission.
        busy_rejects: u64,
        /// Shards currently degraded (backend poisoned; writes fail, reads
        /// keep serving). Zero on a healthy server.
        degraded_shards: u32,
        /// Reads served from published snapshots ([`Request::Get`]).
        snapshot_reads: u64,
    },
    /// The request failed. Retryable errors may be retried on a fresh
    /// connection (after resolving in-flight identities); permanent errors
    /// must not be.
    Error {
        /// False for permanent errors (invalid identity, truncated history).
        retryable: bool,
        /// Human-readable cause.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Admission control: the server is at `max_connections` and refuses this
    /// session. Sent once, immediately after accept, before any request is
    /// read; the connection is then closed. Retryable after backoff.
    Busy,
    /// The target shard's backend is poisoned: writes cannot be made durable.
    /// Reads keep serving from memory. Retryable only in the sense that a
    /// restarted (recovered) server may accept the operation; within one
    /// server incarnation the condition is permanent.
    Unavailable {
        /// Human-readable cause (the poisoning error).
        message: String,
    },
}

/// Errors of the codec itself (I/O, malformed frames).
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/stream error (includes clean EOF between frames).
    Io(io::Error),
    /// The peer sent bytes that are not a valid protocol frame.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn bad(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_KV_STRING);
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn take_str(bytes: &mut &[u8]) -> Result<String, WireError> {
    let len = take_u16(bytes)? as usize;
    if bytes.len() < len {
        return Err(bad("string runs past frame end"));
    }
    let (s, rest) = bytes.split_at(len);
    *bytes = rest;
    String::from_utf8(s.to_vec()).map_err(|_| bad("string is not UTF-8"))
}

fn take_u8(bytes: &mut &[u8]) -> Result<u8, WireError> {
    let (&b, rest) = bytes.split_first().ok_or_else(|| bad("truncated u8"))?;
    *bytes = rest;
    Ok(b)
}

fn take_u16(bytes: &mut &[u8]) -> Result<u16, WireError> {
    if bytes.len() < 2 {
        return Err(bad("truncated u16"));
    }
    let (v, rest) = bytes.split_at(2);
    *bytes = rest;
    Ok(u16::from_le_bytes(v.try_into().unwrap()))
}

fn take_u32(bytes: &mut &[u8]) -> Result<u32, WireError> {
    if bytes.len() < 4 {
        return Err(bad("truncated u32"));
    }
    let (v, rest) = bytes.split_at(4);
    *bytes = rest;
    Ok(u32::from_le_bytes(v.try_into().unwrap()))
}

fn take_u64(bytes: &mut &[u8]) -> Result<u64, WireError> {
    if bytes.len() < 8 {
        return Err(bad("truncated u64"));
    }
    let (v, rest) = bytes.split_at(8);
    *bytes = rest;
    Ok(u64::from_le_bytes(v.try_into().unwrap()))
}

fn put_op_id(buf: &mut Vec<u8>, op_id: OpId) {
    buf.extend_from_slice(&op_id.pid.to_le_bytes());
    buf.extend_from_slice(&op_id.seq.to_le_bytes());
}

fn take_op_id(bytes: &mut &[u8]) -> Result<OpId, WireError> {
    let pid = take_u32(bytes)?;
    let seq = take_u64(bytes)?;
    Ok(OpId::new(pid, seq))
}

fn put_value(buf: &mut Vec<u8>, value: &KvValue) {
    match value {
        KvValue::Value(v) => {
            buf.push(0);
            match v {
                Some(s) => {
                    buf.push(1);
                    put_str(buf, s);
                }
                None => buf.push(0),
            }
        }
        KvValue::Len(n) => {
            buf.push(1);
            buf.extend_from_slice(&(*n as u64).to_le_bytes());
        }
    }
}

fn take_value(bytes: &mut &[u8]) -> Result<KvValue, WireError> {
    match take_u8(bytes)? {
        0 => match take_u8(bytes)? {
            0 => Ok(KvValue::Value(None)),
            1 => Ok(KvValue::Value(Some(take_str(bytes)?))),
            other => Err(bad(format!("bad option tag {other}"))),
        },
        1 => Ok(KvValue::Len(take_u64(bytes)? as usize)),
        other => Err(bad(format!("bad value tag {other}"))),
    }
}

impl Request {
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Hello { index } => {
                buf.push(KIND_HELLO);
                buf.extend_from_slice(&index.to_le_bytes());
            }
            Request::Put { op_id, key, value } => {
                buf.push(KIND_PUT);
                put_op_id(buf, *op_id);
                put_str(buf, key);
                put_str(buf, value);
            }
            Request::Delete { op_id, key } => {
                buf.push(KIND_DELETE);
                put_op_id(buf, *op_id);
                put_str(buf, key);
            }
            Request::Get { key } => {
                buf.push(KIND_GET);
                put_str(buf, key);
            }
            Request::Resolve { shard, op_id } => {
                buf.push(KIND_RESOLVE);
                buf.extend_from_slice(&shard.to_le_bytes());
                put_op_id(buf, *op_id);
            }
            Request::Stats => buf.push(KIND_STATS),
            Request::Ping => buf.push(KIND_PING),
        }
    }

    fn decode_body(kind: u8, bytes: &mut &[u8]) -> Result<Self, WireError> {
        match kind {
            KIND_HELLO => Ok(Request::Hello {
                index: take_u32(bytes)?,
            }),
            KIND_PUT => Ok(Request::Put {
                op_id: take_op_id(bytes)?,
                key: take_str(bytes)?,
                value: take_str(bytes)?,
            }),
            KIND_DELETE => Ok(Request::Delete {
                op_id: take_op_id(bytes)?,
                key: take_str(bytes)?,
            }),
            KIND_GET => Ok(Request::Get {
                key: take_str(bytes)?,
            }),
            KIND_RESOLVE => Ok(Request::Resolve {
                shard: take_u32(bytes)?,
                op_id: take_op_id(bytes)?,
            }),
            KIND_STATS => Ok(Request::Stats),
            KIND_PING => Ok(Request::Ping),
            other => Err(bad(format!("unknown request kind {other:#04x}"))),
        }
    }
}

impl Reply {
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::HelloOk { next_seqs } => {
                buf.push(KIND_HELLO_OK);
                buf.extend_from_slice(&(next_seqs.len() as u32).to_le_bytes());
                for seq in next_seqs {
                    buf.extend_from_slice(&seq.to_le_bytes());
                }
            }
            Reply::Value { shard, value } => {
                buf.push(KIND_VALUE);
                buf.extend_from_slice(&shard.to_le_bytes());
                put_value(buf, value);
            }
            Reply::Resolved(outcome) => {
                buf.push(KIND_RESOLVED);
                match outcome {
                    WireResolved::Executed(v) => {
                        buf.push(0);
                        put_value(buf, v);
                    }
                    WireResolved::Unknown => buf.push(1),
                    WireResolved::Truncated => buf.push(2),
                }
            }
            Reply::StatsOk {
                persistent_fences,
                maintenance_fences,
                batches,
                combined_ops,
                timeouts,
                busy_rejects,
                degraded_shards,
                snapshot_reads,
            } => {
                buf.push(KIND_STATS_OK);
                for v in [
                    persistent_fences,
                    maintenance_fences,
                    batches,
                    combined_ops,
                    timeouts,
                    busy_rejects,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&degraded_shards.to_le_bytes());
                buf.extend_from_slice(&snapshot_reads.to_le_bytes());
            }
            Reply::Error { retryable, message } => {
                buf.push(KIND_ERROR);
                buf.push(*retryable as u8);
                put_str(buf, &truncate_message(message));
            }
            Reply::Pong => buf.push(KIND_PONG),
            Reply::Busy => buf.push(KIND_BUSY),
            Reply::Unavailable { message } => {
                buf.push(KIND_UNAVAILABLE);
                put_str(buf, &truncate_message(message));
            }
        }
    }

    fn decode_body(kind: u8, bytes: &mut &[u8]) -> Result<Self, WireError> {
        match kind {
            KIND_HELLO_OK => {
                let n = take_u32(bytes)? as usize;
                if n > 4096 {
                    return Err(bad("implausible shard count"));
                }
                let mut next_seqs = Vec::with_capacity(n);
                for _ in 0..n {
                    next_seqs.push(take_u64(bytes)?);
                }
                Ok(Reply::HelloOk { next_seqs })
            }
            KIND_VALUE => Ok(Reply::Value {
                shard: take_u32(bytes)?,
                value: take_value(bytes)?,
            }),
            KIND_RESOLVED => match take_u8(bytes)? {
                0 => Ok(Reply::Resolved(WireResolved::Executed(take_value(bytes)?))),
                1 => Ok(Reply::Resolved(WireResolved::Unknown)),
                2 => Ok(Reply::Resolved(WireResolved::Truncated)),
                other => Err(bad(format!("bad resolve tag {other}"))),
            },
            KIND_STATS_OK => Ok(Reply::StatsOk {
                persistent_fences: take_u64(bytes)?,
                maintenance_fences: take_u64(bytes)?,
                batches: take_u64(bytes)?,
                combined_ops: take_u64(bytes)?,
                timeouts: take_u64(bytes)?,
                busy_rejects: take_u64(bytes)?,
                degraded_shards: take_u32(bytes)?,
                snapshot_reads: take_u64(bytes)?,
            }),
            KIND_ERROR => Ok(Reply::Error {
                retryable: take_u8(bytes)? != 0,
                message: take_str(bytes)?,
            }),
            KIND_PONG => Ok(Reply::Pong),
            KIND_BUSY => Ok(Reply::Busy),
            KIND_UNAVAILABLE => Ok(Reply::Unavailable {
                message: take_str(bytes)?,
            }),
            other => Err(bad(format!("unknown reply kind {other:#04x}"))),
        }
    }
}

/// Error messages share the key/value string encoding, so cap their length.
fn truncate_message(message: &str) -> String {
    if message.len() <= MAX_KV_STRING {
        return message.to_string();
    }
    let mut end = MAX_KV_STRING;
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    message[..end].to_string()
}

fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), WireError> {
    debug_assert!(body.len() as u32 <= MAX_FRAME);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

fn frame_header(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
}

fn check_header(bytes: &mut &[u8]) -> Result<u8, WireError> {
    let magic = take_u16(bytes)?;
    if magic != MAGIC {
        return Err(bad(format!("bad magic {magic:#06x}")));
    }
    let version = take_u8(bytes)?;
    if version != VERSION {
        return Err(bad(format!("unsupported version {version}")));
    }
    take_u8(bytes)
}

/// Writes one request frame (flushes).
pub fn write_request(w: &mut impl Write, request: &Request) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(32);
    frame_header(&mut buf);
    request.encode_body(&mut buf);
    write_frame(w, &buf)
}

/// Reads one request frame. A clean EOF between frames surfaces as
/// [`WireError::Io`] with [`io::ErrorKind::UnexpectedEof`].
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    let body = read_frame(r)?;
    let mut bytes = body.as_slice();
    let kind = check_header(&mut bytes)?;
    let request = Request::decode_body(kind, &mut bytes)?;
    if !bytes.is_empty() {
        return Err(bad("trailing bytes after request"));
    }
    Ok(request)
}

/// Writes one reply frame (flushes).
pub fn write_reply(w: &mut impl Write, reply: &Reply) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(32);
    frame_header(&mut buf);
    reply.encode_body(&mut buf);
    write_frame(w, &buf)
}

/// Reads one reply frame.
pub fn read_reply(r: &mut impl Read) -> Result<Reply, WireError> {
    let body = read_frame(r)?;
    let mut bytes = body.as_slice();
    let kind = check_header(&mut bytes)?;
    let reply = Reply::decode_body(kind, &mut bytes)?;
    if !bytes.is_empty() {
        return Err(bad("trailing bytes after reply"));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &request).unwrap();
        let decoded = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, request);
    }

    fn roundtrip_reply(reply: Reply) {
        let mut buf = Vec::new();
        write_reply(&mut buf, &reply).unwrap();
        let decoded = read_reply(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, reply);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Hello { index: 7 });
        roundtrip_request(Request::Put {
            op_id: OpId::new(3, 99),
            key: "user:1".into(),
            value: "ada".into(),
        });
        roundtrip_request(Request::Delete {
            op_id: OpId::new(1, u64::MAX),
            key: String::new(),
        });
        roundtrip_request(Request::Get { key: "k".into() });
        roundtrip_request(Request::Resolve {
            shard: 2,
            op_id: OpId::new(4, 17),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Ping);
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_reply(Reply::HelloOk {
            next_seqs: vec![1, 42, 7],
        });
        roundtrip_reply(Reply::Value {
            shard: 1,
            value: KvValue::Value(Some("v".into())),
        });
        roundtrip_reply(Reply::Value {
            shard: NO_SHARD,
            value: KvValue::Len(12),
        });
        roundtrip_reply(Reply::Resolved(WireResolved::Executed(KvValue::Value(
            None,
        ))));
        roundtrip_reply(Reply::Resolved(WireResolved::Unknown));
        roundtrip_reply(Reply::Resolved(WireResolved::Truncated));
        roundtrip_reply(Reply::StatsOk {
            persistent_fences: 10,
            maintenance_fences: 2,
            batches: 3,
            combined_ops: 9,
            timeouts: 1,
            busy_rejects: 4,
            degraded_shards: 2,
            snapshot_reads: 1_000_000,
        });
        roundtrip_reply(Reply::Error {
            retryable: false,
            message: "nope".into(),
        });
        roundtrip_reply(Reply::Pong);
        roundtrip_reply(Reply::Busy);
        roundtrip_reply(Reply::Unavailable {
            message: "shard 1 poisoned: injected EIO".into(),
        });
    }

    #[test]
    fn rejects_bad_magic_version_and_oversize() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf[4] ^= 0xFF; // corrupt magic
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::Malformed(_))
        ));

        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        buf[6] = 9; // future version
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::Malformed(_))
        ));

        let oversize = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            read_request(&mut oversize.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_unknown_kinds() {
        // 0x08 was GET_LATEST before version 2.
        for kind in [0x00, 0x08, 0x09, 0x80, 0x89, 0xFF] {
            let mut buf = Vec::new();
            write_request(&mut buf, &Request::Ping).unwrap();
            buf[7] = kind;
            assert!(
                matches!(
                    read_request(&mut buf.as_slice()),
                    Err(WireError::Malformed(_))
                ),
                "request kind {kind:#04x}"
            );
            let mut buf = Vec::new();
            write_reply(&mut buf, &Reply::Pong).unwrap();
            buf[7] = kind;
            assert!(
                matches!(
                    read_reply(&mut buf.as_slice()),
                    Err(WireError::Malformed(_))
                ),
                "reply kind {kind:#04x}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes_and_truncation() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Hello { index: 1 }).unwrap();
        // Extend the declared length and append a stray byte.
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) + 1;
        buf[0..4].copy_from_slice(&len.to_le_bytes());
        buf.push(0xAB);
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::Malformed(_))
        ));

        // Truncated mid-frame: an I/O error, not a parse success.
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Get { key: "key".into() }).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn long_error_messages_are_truncated_to_fit() {
        let reply = Reply::Error {
            retryable: true,
            message: "x".repeat(500),
        };
        let mut buf = Vec::new();
        write_reply(&mut buf, &reply).unwrap();
        match read_reply(&mut buf.as_slice()).unwrap() {
            Reply::Error { message, .. } => assert_eq!(message.len(), MAX_KV_STRING),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}
