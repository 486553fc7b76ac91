//! A blocking wire client with client-side identity assignment.
//!
//! The client owns its per-shard sequence counters: each update is stamped
//! with `(pid, seq)` *before* it is sent, so an operation whose reply never
//! arrived — lost connection, `SIGKILL`ed server — remains nameable. The
//! exactly-once recovery loop after a reconnect is:
//!
//! ```text
//! for each unacknowledged (shard, op_id):
//!     match client.resolve(shard, op_id)? {
//!         RetryOutcome::Executed(v) => take v, do not resubmit
//!         RetryOutcome::Unknown     => resubmit via *_with_id(op_id, ...)
//!         RetryOutcome::Truncated   => permanent error
//!     }
//! ```
//!
//! Shard routing is computed client-side with the same fixed-seed
//! [`HashRouter`] the server uses, so a retried operation's identity is always
//! resolved against (and replayed into) the shard it was minted for.

use crate::wire::{self, Reply, Request, WireError, WireResolved};
use durable_objects::KvValue;
use nvm_sim::{Counter, Telemetry};
use onll::OpId;
use onll_shard::{HashRouter, ShardRouter};
use std::io::BufWriter;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-visible failure of a request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure; the request's fate is unknown — resolve
    /// its identity after reconnecting.
    Wire(WireError),
    /// The server refused the request.
    Server {
        /// Whether a retry (on this or a fresh connection) can succeed.
        retryable: bool,
        /// Server-reported cause.
        message: String,
    },
    /// Admission control refused the connection ([`Reply::Busy`]). Retryable
    /// after backoff: a slot frees up when another session closes.
    Busy,
    /// The target shard cannot make writes durable ([`Reply::Unavailable`]).
    /// Retryable only across a server restart; [`ResilientSession`] keeps
    /// retrying until its deadline, then reports it as permanent.
    Unavailable {
        /// Server-reported cause (the poisoning error).
        message: String,
    },
    /// A [`ResilientSession`] exhausted its [`RetryPolicy::deadline`] without
    /// an acknowledgement. Permanent for this call; the operation's identity
    /// (if one was minted) was left resolvable.
    Deadline {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last error observed.
        last: String,
    },
}

impl ClientError {
    /// True if retrying (possibly on a fresh connection, after resolving
    /// in-flight identities) can succeed: transport failures, server-flagged
    /// retryable errors, `BUSY` admission rejects, and `Unavailable` (a
    /// restarted server may have recovered the shard). False for permanent
    /// outcomes: contract violations, truncated histories, and an exhausted
    /// retry deadline.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Wire(_) => true,
            ClientError::Server { retryable, .. } => *retryable,
            ClientError::Busy => true,
            ClientError::Unavailable { .. } => true,
            ClientError::Deadline { .. } => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { retryable, message } => {
                write!(f, "server error (retryable={retryable}): {message}")
            }
            ClientError::Busy => write!(f, "server busy: admission refused"),
            ClientError::Unavailable { message } => {
                write!(f, "shard unavailable: {message}")
            }
            ClientError::Deadline { attempts, last } => {
                write!(
                    f,
                    "deadline exceeded after {attempts} attempts (last: {last})"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Deadline and backoff schedule of a [`ResilientSession`].
///
/// Delays grow exponentially from [`RetryPolicy::base_delay`], are capped at
/// [`RetryPolicy::max_delay`], and carry deterministic jitter: attempt `n`
/// sleeps between half and all of the capped exponential, with the point in
/// that range a pure function of `(seed, n)`. Two policies with the same
/// fields produce byte-for-byte identical schedules — chaos runs replay from
/// a printed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total budget across all attempts of one operation; when it expires the
    /// operation fails with [`ClientError::Deadline`].
    pub deadline: Duration,
    /// Backoff before the second attempt (the first retry).
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: Duration::from_secs(10),
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with the given total deadline and defaults elsewhere.
    pub fn with_deadline(deadline: Duration) -> Self {
        RetryPolicy {
            deadline,
            ..Default::default()
        }
    }

    /// Sets the jitter seed (for replayable chaos schedules).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff before attempt `attempt + 1` (zero-based: `delay(0)` is
    /// slept after the first failure). Always `<= max_delay`; deterministic
    /// in `(self, attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exponential = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX));
        let cap = exponential.min(self.max_delay);
        let span = cap.as_micros() as u64;
        if span == 0 {
            return Duration::ZERO;
        }
        // Jitter over [span/2, span]: enough spread to de-synchronize
        // reconnect stampedes, bounded so tests can budget worst-case sleeps.
        let low = span / 2;
        let jitter = jitter_hash(self.seed, attempt) % (span - low + 1);
        Duration::from_micros(low + jitter)
    }
}

/// xorshift64* over a mix of seed and attempt: cheap, stateless, and stable
/// across platforms (no `std` RNG involved).
fn jitter_hash(seed: u64, attempt: u32) -> u64 {
    let mut x = seed ^ (attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x |= 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Typed answer of [`WireClient::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryOutcome {
    /// The identity executed with this return value; do not resubmit.
    Executed(KvValue),
    /// The identity never executed; resubmit it under the same identity.
    Unknown,
    /// The answer was compacted away; resubmitting could double-apply.
    /// Permanent.
    Truncated,
}

/// Persistence counters and health figures reported by [`WireClient::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Persistent fences issued so far across every shard pool.
    pub persistent_fences: u64,
    /// The maintenance subset (checkpoints, truncation).
    pub maintenance_fences: u64,
    /// Combining batches committed.
    pub batches: u64,
    /// Operations those batches carried.
    pub combined_ops: u64,
    /// Connections reaped for exceeding the idle timeout.
    pub timeouts: u64,
    /// Connections refused with `BUSY` at admission.
    pub busy_rejects: u64,
    /// Shards currently degraded (writes unavailable, reads serving).
    pub degraded_shards: u32,
    /// Reads served from published snapshots (`GET`).
    pub snapshot_reads: u64,
}

/// A connected session holding client slot `index` on every shard.
pub struct WireClient {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    index: u32,
    router: HashRouter,
    /// Next unused sequence number per shard, advanced on every send (not on
    /// every acknowledgement — identities must be unique even for lost ops).
    next_seqs: Vec<u64>,
}

impl WireClient {
    /// Connects and claims session slot `index`. The server seeds the
    /// per-shard sequence counters from durable state, so a session
    /// reconnecting after a crash resumes exactly where its identity space
    /// left off.
    pub fn connect(addr: impl ToSocketAddrs, index: u32) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone().map_err(WireError::Io)?;
        let mut writer = BufWriter::new(stream);
        wire::write_request(&mut writer, &Request::Hello { index })?;
        let mut reader = reader;
        match wire::read_reply(&mut reader)? {
            Reply::HelloOk { next_seqs } => Ok(WireClient {
                reader,
                writer,
                index,
                router: HashRouter::new(next_seqs.len()),
                next_seqs,
            }),
            Reply::Error { retryable, message } => Err(ClientError::Server { retryable, message }),
            Reply::Busy => Err(ClientError::Busy),
            other => Err(WireError::Malformed(format!("unexpected HELLO reply {other:?}")).into()),
        }
    }

    /// [`WireClient::connect`] with retries: a freshly released session slot
    /// may still be held by a dying predecessor connection (the server frees
    /// it when the old handler observes the disconnect), and a restarting
    /// server may not be accepting yet.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        index: u32,
        attempts: u32,
    ) -> Result<Self, ClientError> {
        let mut last = None;
        for attempt in 0..attempts {
            match Self::connect(addr.clone(), index) {
                Ok(client) => return Ok(client),
                Err(ClientError::Server {
                    retryable: false,
                    message,
                }) => {
                    return Err(ClientError::Server {
                        retryable: false,
                        message,
                    })
                }
                Err(e) => last = Some(e),
            }
            std::thread::sleep(Duration::from_millis(5 << attempt.min(6)));
        }
        Err(last.expect("at least one attempt"))
    }

    /// This session's slot index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// This session's per-shard process identifier (`index + 1`).
    pub fn pid(&self) -> u32 {
        self.index + 1
    }

    /// Number of shards the server partitions the key space over.
    pub fn num_shards(&self) -> usize {
        self.next_seqs.len()
    }

    /// The shard owning `key` (same fixed-seed routing as the server).
    pub fn shard_of(&self, key: &str) -> usize {
        ShardRouter::<str>::route(&self.router, key)
    }

    /// Mints the next identity for an update on `key`'s shard.
    pub fn assign_id(&mut self, key: &str) -> (usize, OpId) {
        let shard = self.shard_of(key);
        let seq = self.next_seqs[shard];
        self.next_seqs[shard] = seq + 1;
        (shard, OpId::new(self.pid(), seq))
    }

    fn note_id(&mut self, shard: usize, op_id: OpId) {
        self.next_seqs[shard] = self.next_seqs[shard].max(op_id.seq + 1);
    }

    /// Sends a `Put` without waiting for the reply; returns the identity the
    /// caller must later acknowledge ([`WireClient::read_value`]) or recover
    /// ([`WireClient::resolve`]). This split is what the crash tests drive:
    /// the server can die between this send and the reply.
    pub fn send_put(&mut self, key: &str, value: &str) -> Result<(usize, OpId), ClientError> {
        let (shard, op_id) = self.assign_id(key);
        wire::write_request(
            &mut self.writer,
            &Request::Put {
                op_id,
                key: key.to_string(),
                value: value.to_string(),
            },
        )?;
        Ok((shard, op_id))
    }

    /// Reads one `Value` reply (the durability acknowledgement of the oldest
    /// outstanding update on this connection).
    pub fn read_value(&mut self) -> Result<(u32, KvValue), ClientError> {
        match wire::read_reply(&mut self.reader)? {
            Reply::Value { shard, value } => Ok((shard, value)),
            Reply::Error { retryable, message } => Err(ClientError::Server { retryable, message }),
            Reply::Unavailable { message } => Err(ClientError::Unavailable { message }),
            other => Err(WireError::Malformed(format!("unexpected reply {other:?}")).into()),
        }
    }

    /// Insert/overwrite `key`, blocking until durable. Returns the previous
    /// value, the serving shard, and the acknowledged identity.
    pub fn put(&mut self, key: &str, value: &str) -> Result<(KvValue, usize, OpId), ClientError> {
        let (shard, op_id) = self.send_put(key, value)?;
        let (_, value) = self.read_value()?;
        Ok((value, shard, op_id))
    }

    /// Replays a `Put` under a caller-supplied identity (exactly-once retry;
    /// the caller must have observed [`RetryOutcome::Unknown`] for it first).
    pub fn put_with_id(
        &mut self,
        op_id: OpId,
        key: &str,
        value: &str,
    ) -> Result<(KvValue, usize), ClientError> {
        let shard = self.shard_of(key);
        self.note_id(shard, op_id);
        wire::write_request(
            &mut self.writer,
            &Request::Put {
                op_id,
                key: key.to_string(),
                value: value.to_string(),
            },
        )?;
        let (shard, value) = self.read_value()?;
        Ok((value, shard as usize))
    }

    /// Replays a `Delete` under a caller-supplied identity (exactly-once
    /// retry; the caller must have observed [`RetryOutcome::Unknown`] first).
    pub fn delete_with_id(
        &mut self,
        op_id: OpId,
        key: &str,
    ) -> Result<(KvValue, usize), ClientError> {
        let shard = self.shard_of(key);
        self.note_id(shard, op_id);
        wire::write_request(
            &mut self.writer,
            &Request::Delete {
                op_id,
                key: key.to_string(),
            },
        )?;
        let (shard, value) = self.read_value()?;
        Ok((value, shard as usize))
    }

    /// Removes `key`, blocking until durable.
    pub fn delete(&mut self, key: &str) -> Result<(KvValue, usize, OpId), ClientError> {
        let (shard, op_id) = self.assign_id(key);
        wire::write_request(
            &mut self.writer,
            &Request::Delete {
                op_id,
                key: key.to_string(),
            },
        )?;
        let (_, value) = self.read_value()?;
        Ok((value, shard, op_id))
    }

    /// Looks up `key` (fence-free on the server). Served from the shard's
    /// published snapshot: lock-free and linearizable, so it observes every
    /// write acknowledged to any session before this call.
    pub fn get(&mut self, key: &str) -> Result<KvValue, ClientError> {
        wire::write_request(
            &mut self.writer,
            &Request::Get {
                key: key.to_string(),
            },
        )?;
        let (_, value) = self.read_value()?;
        Ok(value)
    }

    /// Exactly-once recovery for an identity whose reply was lost.
    pub fn resolve(&mut self, shard: usize, op_id: OpId) -> Result<RetryOutcome, ClientError> {
        wire::write_request(
            &mut self.writer,
            &Request::Resolve {
                shard: shard as u32,
                op_id,
            },
        )?;
        match wire::read_reply(&mut self.reader)? {
            Reply::Resolved(WireResolved::Executed(v)) => Ok(RetryOutcome::Executed(v)),
            Reply::Resolved(WireResolved::Unknown) => Ok(RetryOutcome::Unknown),
            Reply::Resolved(WireResolved::Truncated) => Ok(RetryOutcome::Truncated),
            Reply::Error { retryable, message } => Err(ClientError::Server { retryable, message }),
            Reply::Unavailable { message } => Err(ClientError::Unavailable { message }),
            other => Err(WireError::Malformed(format!("unexpected reply {other:?}")).into()),
        }
    }

    /// Server-side persistence counters (summed over every shard pool).
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        wire::write_request(&mut self.writer, &Request::Stats)?;
        match wire::read_reply(&mut self.reader)? {
            Reply::StatsOk {
                persistent_fences,
                maintenance_fences,
                batches,
                combined_ops,
                timeouts,
                busy_rejects,
                degraded_shards,
                snapshot_reads,
            } => Ok(ServerStats {
                persistent_fences,
                maintenance_fences,
                batches,
                combined_ops,
                timeouts,
                busy_rejects,
                degraded_shards,
                snapshot_reads,
            }),
            Reply::Error { retryable, message } => Err(ClientError::Server { retryable, message }),
            other => Err(WireError::Malformed(format!("unexpected reply {other:?}")).into()),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        wire::write_request(&mut self.writer, &Request::Ping)?;
        match wire::read_reply(&mut self.reader)? {
            Reply::Pong => Ok(()),
            other => Err(WireError::Malformed(format!("unexpected reply {other:?}")).into()),
        }
    }

    /// Severs the connection without shutting it down cleanly (the
    /// disconnect-mid-request test's hammer).
    pub fn abandon(self) {
        let _ = self.reader.shutdown(std::net::Shutdown::Both);
    }
}

/// A self-healing session: a [`WireClient`] plus the reconnect / resolve /
/// replay loop, driven by a [`RetryPolicy`].
///
/// Each update mints its identity exactly once. If the acknowledgement is
/// lost — connection reset, server kill-9, `BUSY` reject on reconnect — the
/// session reconnects under the same slot index, resolves the identity, and
/// either adopts the executed result or replays the operation *under the same
/// identity*, so a retried operation can never double-apply. Permanent
/// outcomes ([`RetryOutcome::Truncated`], non-retryable server errors, an
/// exhausted deadline) surface as errors.
pub struct ResilientSession {
    addr: String,
    index: u32,
    policy: RetryPolicy,
    client: Option<WireClient>,
    retries: u64,
    retry_counter: Counter,
}

/// What one attempt should do with an in-flight update identity.
enum Attempt {
    /// First transmission (or the identity is known never to have executed).
    Send,
    /// The previous transmission's fate is unknown: resolve before sending.
    ResolveFirst,
}

impl ResilientSession {
    /// Creates a session for slot `index` at `addr`. Connection is lazy: the
    /// first operation dials (and re-dials, under the policy's schedule).
    pub fn new(addr: impl Into<String>, index: u32, policy: RetryPolicy) -> Self {
        ResilientSession {
            addr: addr.into(),
            index,
            policy,
            client: None,
            retries: 0,
            retry_counter: Telemetry::disabled().counter("client.retries"),
        }
    }

    /// Routes the `client.retries` counter into `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.retry_counter = telemetry.counter("client.retries");
        self
    }

    /// This session's slot index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The policy driving reconnects and backoff.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Total retries (reconnects + resends) across the session's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Severs the current connection mid-stream (chaos harness hammer). The
    /// next operation reconnects under the policy.
    pub fn drop_connection(&mut self) {
        if let Some(client) = self.client.take() {
            client.abandon();
        }
    }

    fn ensure_connected(&mut self) -> Result<&mut WireClient, ClientError> {
        if self.client.is_none() {
            self.client = Some(WireClient::connect(self.addr.as_str(), self.index)?);
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    /// Runs `op` until it succeeds, a permanent error surfaces, or the
    /// deadline expires. `op` is handed the connected client and the attempt
    /// mode; any retryable failure costs one backoff step and (for transport
    /// failures) the connection.
    fn run<T>(
        &mut self,
        mut op: impl FnMut(&mut WireClient, Attempt) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let started = Instant::now();
        let mut attempt: u32 = 0;
        let mut mode = Attempt::Send;
        loop {
            let result = self
                .ensure_connected()
                .and_then(|client| op(client, std::mem::replace(&mut mode, Attempt::Send)));
            let error = match result {
                Ok(value) => return Ok(value),
                Err(e) if !e.is_retryable() => return Err(e),
                Err(e) => e,
            };
            // A transport failure leaves the in-flight identity unresolved
            // and the connection unusable; a server-side retryable error was
            // a definitive (non-)answer on a healthy connection.
            if matches!(error, ClientError::Wire(_) | ClientError::Busy) {
                self.drop_connection();
                mode = Attempt::ResolveFirst;
            }
            let elapsed = started.elapsed();
            if elapsed >= self.policy.deadline {
                return Err(ClientError::Deadline {
                    attempts: attempt + 1,
                    last: error.to_string(),
                });
            }
            self.retries += 1;
            self.retry_counter.incr();
            let nap = self
                .policy
                .delay(attempt)
                .min(self.policy.deadline - elapsed);
            std::thread::sleep(nap);
            attempt += 1;
        }
    }

    /// Insert/overwrite `key` with exactly-once semantics across reconnects.
    /// Returns the previous value, the serving shard, and the identity.
    pub fn put(&mut self, key: &str, value: &str) -> Result<(KvValue, usize, OpId), ClientError> {
        let mut id: Option<(usize, OpId)> = None;
        let key_owned = key.to_string();
        let value_owned = value.to_string();
        self.run(move |client, mode| {
            let (shard, op_id) = *id.get_or_insert_with(|| client.assign_id(&key_owned));
            if let Attempt::ResolveFirst = mode {
                match client.resolve(shard, op_id)? {
                    RetryOutcome::Executed(v) => return Ok((v, shard, op_id)),
                    RetryOutcome::Unknown => {}
                    RetryOutcome::Truncated => {
                        return Err(ClientError::Server {
                            retryable: false,
                            message: format!("{op_id:?} truncated: outcome compacted away"),
                        })
                    }
                }
            }
            let (v, s) = client.put_with_id(op_id, &key_owned, &value_owned)?;
            Ok((v, s, op_id))
        })
    }

    /// Removes `key` with exactly-once semantics across reconnects.
    pub fn delete(&mut self, key: &str) -> Result<(KvValue, usize, OpId), ClientError> {
        let mut id: Option<(usize, OpId)> = None;
        let key_owned = key.to_string();
        self.run(move |client, mode| {
            let (shard, op_id) = *id.get_or_insert_with(|| client.assign_id(&key_owned));
            if let Attempt::ResolveFirst = mode {
                match client.resolve(shard, op_id)? {
                    RetryOutcome::Executed(v) => return Ok((v, shard, op_id)),
                    RetryOutcome::Unknown => {}
                    RetryOutcome::Truncated => {
                        return Err(ClientError::Server {
                            retryable: false,
                            message: format!("{op_id:?} truncated: outcome compacted away"),
                        })
                    }
                }
            }
            let (v, s) = client.delete_with_id(op_id, &key_owned)?;
            Ok((v, s, op_id))
        })
    }

    /// Looks up `key` (idempotent: plain retry, no identity bookkeeping).
    /// Snapshot path — see [`WireClient::get`].
    pub fn get(&mut self, key: &str) -> Result<KvValue, ClientError> {
        let key_owned = key.to_string();
        self.run(move |client, _| client.get(&key_owned))
    }

    /// Exactly-once recovery for an externally tracked identity.
    pub fn resolve(&mut self, shard: usize, op_id: OpId) -> Result<RetryOutcome, ClientError> {
        self.run(move |client, _| client.resolve(shard, op_id))
    }

    /// Server persistence/health counters, with retries.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.run(|client, _| client.stats())
    }
}
