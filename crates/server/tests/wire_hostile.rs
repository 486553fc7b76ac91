//! Hostile-input properties of the wire codec: whatever bytes a peer sends —
//! random garbage, truncations, single-byte corruptions of valid frames — the
//! decoder must return `Ok` or `WireError`, never panic, never over-read, and
//! a frame that decodes must re-encode to a decodable frame (no "parsed but
//! unrepresentable" states a server handler could trip over).

use onll::OpId;
use onll_server::wire::{self, Reply, Request, WireResolved};
use proptest::prelude::*;
use std::io::Cursor;

/// Builds a syntactically valid request from primitive generator output.
fn request_from(select: u8, a: u32, b: u64, key: &str, value: &str) -> Request {
    let op_id = OpId::new(a % 64 + 1, b % (1 << 48) + 1);
    match select % 7 {
        0 => Request::Hello { index: a },
        1 => Request::Put {
            op_id,
            key: key.to_string(),
            value: value.to_string(),
        },
        2 => Request::Delete {
            op_id,
            key: key.to_string(),
        },
        3 => Request::Get {
            key: key.to_string(),
        },
        4 => Request::Resolve {
            shard: a % 8,
            op_id,
        },
        5 => Request::Stats,
        _ => Request::Ping,
    }
}

/// Builds a syntactically valid reply from primitive generator output.
fn reply_from(select: u8, a: u32, b: u64, text: &str) -> Reply {
    use durable_objects::KvValue;
    let value = if b.is_multiple_of(2) {
        KvValue::Value(if b.is_multiple_of(4) {
            Some(text.to_string())
        } else {
            None
        })
    } else {
        KvValue::Len((b % 1024) as usize)
    };
    match select % 8 {
        0 => Reply::HelloOk {
            next_seqs: vec![b % 100, b / 7 % 100],
        },
        1 => Reply::Value { shard: a, value },
        2 => Reply::Resolved(match b % 3 {
            0 => WireResolved::Executed(value),
            1 => WireResolved::Unknown,
            _ => WireResolved::Truncated,
        }),
        3 => Reply::StatsOk {
            persistent_fences: b,
            maintenance_fences: b / 3,
            batches: b / 5,
            combined_ops: b / 7,
            timeouts: b / 11,
            busy_rejects: b / 13,
            degraded_shards: a % 4,
            snapshot_reads: b / 17,
        },
        4 => Reply::Error {
            retryable: b.is_multiple_of(2),
            message: text.to_string(),
        },
        5 => Reply::Pong,
        6 => Reply::Busy,
        _ => Reply::Unavailable {
            message: text.to_string(),
        },
    }
}

/// Printable-ASCII string from arbitrary bytes, bounded like real keys.
fn ascii(bytes: &[u8]) -> String {
    bytes
        .iter()
        .take(200)
        .map(|&b| (b'a' + (b % 26)) as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic either decoder. (`Ok` is allowed — some
    /// byte soup happens to be a frame; the property is totality.)
    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = wire::read_request(&mut Cursor::new(bytes.clone()));
        let _ = wire::read_reply(&mut Cursor::new(bytes));
    }

    /// A single-byte corruption of a valid request frame either still decodes
    /// (the byte was in a don't-care position such as a string payload) or
    /// fails cleanly — it never panics and never over-reads the stream.
    #[test]
    fn corrupted_request_frames_fail_cleanly(
        select in any::<u8>(),
        a in any::<u32>(),
        b in any::<u64>(),
        key_bytes in proptest::collection::vec(any::<u8>(), 1..40),
        value_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        corrupt_at in any::<u16>(),
        corrupt_with in any::<u8>(),
    ) {
        let request = request_from(select, a, b, &ascii(&key_bytes), &ascii(&value_bytes));
        let mut frame = Vec::new();
        wire::write_request(&mut frame, &request).unwrap();

        let pos = corrupt_at as usize % frame.len();
        frame[pos] ^= corrupt_with | 1; // always actually flips a bit
        let mut cursor = Cursor::new(frame.clone());
        let _ = wire::read_request(&mut cursor);
        prop_assert!(
            cursor.position() as usize <= frame.len(),
            "decoder read past the buffer"
        );
    }

    /// Truncating a valid frame at any point is an error, not a panic — and
    /// never an `Ok` carrying a different meaning than the original.
    #[test]
    fn truncated_request_frames_are_rejected(
        select in any::<u8>(),
        a in any::<u32>(),
        b in any::<u64>(),
        key_bytes in proptest::collection::vec(any::<u8>(), 1..40),
        cut in any::<u16>(),
    ) {
        let request = request_from(select, a, b, &ascii(&key_bytes), "v");
        let mut frame = Vec::new();
        wire::write_request(&mut frame, &request).unwrap();
        let cut = cut as usize % frame.len(); // strictly shorter than the frame
        match wire::read_request(&mut Cursor::new(frame[..cut].to_vec())) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(
                decoded, request,
                "a truncated frame must not decode to something else"
            ),
        }
    }

    /// Round-trip: every representable request and reply survives
    /// encode → decode unchanged, including the degradation frames
    /// (`Busy`, `Unavailable`, the health fields of `StatsOk`).
    #[test]
    fn requests_and_replies_roundtrip(
        select in any::<u8>(),
        a in any::<u32>(),
        b in any::<u64>(),
        key_bytes in proptest::collection::vec(any::<u8>(), 1..40),
        value_bytes in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let request = request_from(select, a, b, &ascii(&key_bytes), &ascii(&value_bytes));
        let mut frame = Vec::new();
        wire::write_request(&mut frame, &request).unwrap();
        let decoded = wire::read_request(&mut Cursor::new(frame)).unwrap();
        prop_assert_eq!(decoded, request);

        let reply = reply_from(select, a, b, &ascii(&value_bytes));
        let mut frame = Vec::new();
        wire::write_reply(&mut frame, &reply).unwrap();
        let decoded = wire::read_reply(&mut Cursor::new(frame)).unwrap();
        prop_assert_eq!(decoded, reply);
    }

    /// The decoder consumes exactly one frame: bytes after it (the next
    /// pipelined request) are untouched.
    #[test]
    fn decoder_stops_at_the_frame_boundary(
        select in any::<u8>(),
        a in any::<u32>(),
        b in any::<u64>(),
        key_bytes in proptest::collection::vec(any::<u8>(), 1..40),
        trailing in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let request = request_from(select, a, b, &ascii(&key_bytes), "v");
        let mut frame = Vec::new();
        wire::write_request(&mut frame, &request).unwrap();
        let frame_len = frame.len();
        frame.extend_from_slice(&trailing);
        let mut cursor = Cursor::new(frame);
        let decoded = wire::read_request(&mut cursor).unwrap();
        prop_assert_eq!(decoded, request);
        prop_assert_eq!(cursor.position() as usize, frame_len);
    }
}
