//! Shared test specifications for the `onll` integration tests.

// Shared by several test binaries; not every binary uses every spec.
#![allow(dead_code)]

use onll::{OpCodec, SequentialSpec, SnapshotSpec};

/// A counter supporting `Add(k)` updates and a read returning the current value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSpec {
    pub value: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum CounterOp {
    Add(i64),
}

impl OpCodec for CounterOp {
    const MAX_ENCODED_SIZE: usize = 9;

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CounterOp::Add(k) => {
                buf.push(1);
                buf.extend_from_slice(&k.to_le_bytes());
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() == 9 && bytes[0] == 1 {
            Some(CounterOp::Add(i64::from_le_bytes(
                bytes[1..].try_into().ok()?,
            )))
        } else {
            None
        }
    }
}

impl SequentialSpec for CounterSpec {
    type UpdateOp = CounterOp;
    type ReadOp = ();
    type Value = i64;

    fn initialize() -> Self {
        CounterSpec { value: 0 }
    }

    fn apply(&mut self, op: &CounterOp) -> i64 {
        match op {
            CounterOp::Add(k) => self.value += k,
        }
        self.value
    }

    fn read(&self, _op: &()) -> i64 {
        self.value
    }
}

impl SnapshotSpec for CounterSpec {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.value.to_le_bytes());
    }

    fn decode_state(bytes: &[u8]) -> Option<Self> {
        Some(CounterSpec {
            value: i64::from_le_bytes(bytes.try_into().ok()?),
        })
    }
}

/// An append-only list of small integers; reads return the whole list (useful for
/// checking linearization *order*, not just final values).
#[derive(Debug, Clone, PartialEq)]
pub struct ListSpec {
    pub items: Vec<u32>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Append(pub u32);

impl OpCodec for Append {
    const MAX_ENCODED_SIZE: usize = 4;

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Append(u32::from_le_bytes(bytes.try_into().ok()?)))
    }
}

impl SequentialSpec for ListSpec {
    type UpdateOp = Append;
    type ReadOp = ();
    type Value = Vec<u32>;

    fn initialize() -> Self {
        ListSpec { items: Vec::new() }
    }

    fn apply(&mut self, op: &Append) -> Vec<u32> {
        self.items.push(op.0);
        self.items.clone()
    }

    fn read(&self, _op: &()) -> Vec<u32> {
        self.items.clone()
    }
}

impl SnapshotSpec for ListSpec {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        for item in &self.items {
            buf.extend_from_slice(&item.to_le_bytes());
        }
    }

    fn decode_state(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(4) {
            return None;
        }
        let items = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some(ListSpec { items })
    }
}
