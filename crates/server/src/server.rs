//! The accept loop, per-connection handlers, and graceful degradation.
//!
//! Robustness contract (exercised by `tests/chaos.rs`):
//!
//! * **Admission control** — beyond [`ServerConfig::max_connections`] live
//!   connections, an accept is answered with one typed [`Reply::Busy`] frame
//!   and closed. The client backs off and retries; no handler thread is
//!   spawned for rejected connections.
//! * **Idle timeouts** — a connection that sends nothing for
//!   [`ServerConfig::idle_timeout`] is reaped, freeing its session slot for a
//!   reconnect. Timeouts are counted in `STATS` and in the
//!   `server.timeouts` telemetry counter.
//! * **Graceful shutdown** — on SIGTERM (see [`install_sigterm_handler`]) the
//!   accept loop stops, handlers finish their in-flight request and close,
//!   in-flight combiner batches drain, and each shard publishes a final
//!   checkpoint before [`OnllServer::serve`] returns `Ok(())`. Every reply
//!   written before shutdown remains durable.
//! * **Degraded mode** — when a shard's backend is poisoned (a permanent
//!   injected or real IO error), writes routed to it fail fast with
//!   [`Reply::Unavailable`] while reads keep serving from memory. `STATS`
//!   reports the degraded shard count so supervisors can observe partial
//!   health. Transient injected faults do *not* degrade the shard; they
//!   surface as retryable errors.
//! * **Panic containment** — a panicking handler thread takes down its own
//!   connection only: the panic is caught, a typed retryable error frame is
//!   sent if the socket still writes, and the slot is freed.

use crate::wire::{self, Reply, Request, WireError, WireResolved};
use durable_objects::{KvOp, KvRead, KvSpec};
use nvm_sim::{BackendSpec, Counter, FaultPlan, Histogram, PmemConfig, Telemetry};
use onll::{OnllConfig, OnllError, ResolveOutcome};
use onll_shard::{CheckpointDaemon, HashRouter, ShardConfig, ShardedDurable, ShardedService};
use std::io::BufWriter;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable naming a poison-pill key: a `Put`/`Delete`/`Get` on
/// exactly this key panics the handling thread. Only for exercising panic
/// containment in tests — release builds keep the hook because the chaos
/// harness drives the release binary.
pub const TEST_PANIC_KEY_ENV: &str = "ONLL_TEST_PANIC_KEY";

/// How long a blocked reply write may stall before the connection is dropped
/// (a client that stops draining its socket must not pin a handler forever).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Granularity of the idle/shutdown poll in the per-connection read loop and
/// in the accept loop's shutdown watcher.
const POLL_QUANTUM: Duration = Duration::from_millis(25);

/// How long `serve` waits for its own probe connection to reach the
/// listener before it falls back to polling accept.
const WAKE_PROBE_TIMEOUT: Duration = Duration::from_secs(1);

/// How often each shard's checkpoint thread checks the ops-count trigger.
const CHECKPOINT_POLL: Duration = Duration::from_millis(25);

/// Configuration of an [`OnllServer`]'s file-backed sharded store.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory holding the per-shard pool files (created if missing; a
    /// restarted server pointed at the same directory recovers the store).
    pub dir: PathBuf,
    /// Number of shards (independent ONLL instances, fences in parallel).
    pub shards: usize,
    /// Maximum concurrent sessions. Session indices are `0..max_clients`.
    pub max_clients: usize,
    /// Per-shard log capacity in entries.
    pub log_capacity: usize,
    /// Simulated NVM capacity split across the shard pools.
    pub pmem_bytes: u64,
    /// Admission cap: accepts beyond this many live connections are answered
    /// with [`Reply::Busy`] and closed. Defaults to `max_clients + 2` (every
    /// session plus monitoring headroom).
    pub max_connections: usize,
    /// A connection idle (no request bytes) for this long is reaped and its
    /// session slot freed.
    pub idle_timeout: Duration,
    /// Scheduled IO faults installed into every shard pool (see
    /// [`FaultPlan`]). Empty by default.
    pub fault_plan: FaultPlan,
    /// Metric sink shared by the shard pools and the server's own
    /// `server.timeouts` / `server.busy_rejects` counters. Disabled by
    /// default.
    pub telemetry: Telemetry,
}

impl ServerConfig {
    /// A config rooted at `dir` with defaults sized for tests and the load
    /// generator: 2 shards, 8 sessions, 1Ki-entry logs. Every process slot
    /// owns a log whose entries are sized for a worst-case fuzzy window
    /// (`max_processes * group` operation slots), so the per-shard region
    /// scales with `(max_clients + 2)^2 * group * log_capacity`; raise
    /// `pmem_bytes` along with any of them.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            dir: dir.into(),
            shards: 2,
            max_clients: 8,
            log_capacity: 1024,
            pmem_bytes: 256 << 20,
            max_connections: 10,
            idle_timeout: Duration::from_secs(60),
            fault_plan: FaultPlan::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    fn shard_config(&self) -> ShardConfig {
        // Slots: pid 0 = combiner, pids 1..=max_clients = sessions, and the
        // highest for the shard's checkpoint thread. Batches are capped at
        // `min(group, live clients)`, so a group smaller than max_clients is
        // safe — it only splits oversized windows into two fences.
        let base = OnllConfig::default()
            .max_processes(self.max_clients + 2)
            .log_capacity(self.log_capacity)
            .group_persist(self.max_clients.clamp(2, 8))
            .checkpoint_every(256)
            .checkpoint_slot_bytes(256 * 1024);
        ShardConfig::named("server-kv")
            .shards(self.shards)
            .base(base)
            .pmem(
                PmemConfig::with_capacity(self.pmem_bytes)
                    .fault_plan(self.fault_plan.clone())
                    .telemetry(self.telemetry.clone()),
            )
            .backend(BackendSpec::file(&self.dir))
    }
}

/// Process-global SIGTERM latch, set by the handler installed with
/// [`install_sigterm_handler`] and polled by every [`OnllServer::serve`] loop.
static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn sigterm_handler(_signum: i32) {
    // Only async-signal-safe work here: a single atomic store.
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Installs a SIGTERM handler that requests graceful shutdown of every
/// [`OnllServer::serve`] loop in the process: stop accepting, finish in-flight
/// requests, drain combiner batches, publish a final checkpoint, return
/// `Ok(())`.
pub fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM_NUM: i32 = 15;
    unsafe {
        signal(SIGTERM_NUM, sigterm_handler);
    }
}

/// True once SIGTERM has been observed (diagnostics; `serve` polls this).
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::SeqCst)
}

/// Shared liveness/degradation state: connection accounting, health counters,
/// and the per-shard degraded latches.
pub struct ServerHealth {
    shutdown: AtomicBool,
    active: AtomicUsize,
    timeouts: AtomicU64,
    busy_rejects: AtomicU64,
    degraded: Box<[AtomicBool]>,
    timeout_counter: Counter,
    busy_counter: Counter,
    /// GET service time ("server.read_ns").
    read_hist: Histogram,
}

impl ServerHealth {
    fn new(shards: usize, telemetry: &Telemetry) -> Self {
        ServerHealth {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            timeouts: AtomicU64::new(0),
            busy_rejects: AtomicU64::new(0),
            degraded: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            timeout_counter: telemetry.counter("server.timeouts"),
            busy_counter: telemetry.counter("server.busy_rejects"),
            read_hist: telemetry.histogram("server.read_ns"),
        }
    }

    /// Asks every serve loop and handler to wind down (same effect as
    /// SIGTERM, callable in-process).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested (by SIGTERM or in-process).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || sigterm_received()
    }

    /// Live connection count.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Connections reaped for idling past the timeout.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::SeqCst)
    }

    /// Connections refused with [`Reply::Busy`].
    pub fn busy_rejects(&self) -> u64 {
        self.busy_rejects.load(Ordering::SeqCst)
    }

    /// Marks `shard` degraded: its backend refused a write with a permanent
    /// error; subsequent writes fail fast with [`Reply::Unavailable`].
    pub fn mark_degraded(&self, shard: usize) {
        if let Some(flag) = self.degraded.get(shard) {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// True if `shard`'s backend is poisoned.
    pub fn is_degraded(&self, shard: usize) -> bool {
        self.degraded
            .get(shard)
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Number of currently degraded shards.
    pub fn degraded_shards(&self) -> u32 {
        self.degraded
            .iter()
            .filter(|f| f.load(Ordering::SeqCst))
            .count() as u32
    }

    fn try_admit(&self, cap: usize) -> bool {
        self.active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok()
    }

    fn note_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::SeqCst);
        self.timeout_counter.incr();
    }

    fn note_busy(&self) {
        self.busy_rejects.fetch_add(1, Ordering::SeqCst);
        self.busy_counter.incr();
    }
}

/// Decrements the live-connection count when the handler exits — including by
/// panic, so a contained panic cannot leak its admission slot.
struct ConnectionGuard(Arc<ServerHealth>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A multi-threaded TCP server over a file-backed [`ShardedDurable`] KV store:
/// one handler thread per connection, all submitting into the per-shard
/// combiners of one [`ShardedService`] — concurrent sessions share persistent
/// fences exactly as in-process clients do.
pub struct OnllServer {
    store: ShardedDurable<KvSpec>,
    service: ShardedService<KvSpec>,
    config: ServerConfig,
    health: Arc<ServerHealth>,
    checkpointer: Mutex<Option<CheckpointDaemon>>,
    panic_key: Option<String>,
}

impl OnllServer {
    /// Opens the store at `config.dir`: recovers it if pool files exist
    /// (returning the recovered durable total), creates it fresh otherwise.
    ///
    /// Opening claims pid 0 of every shard for its combiner (the service is
    /// opened before anything else registers, so session slot `index` always
    /// maps to pid `index + 1`) and starts the store's one checkpointer,
    /// [`ShardedDurable::spawn_checkpointer`], on the slot above all
    /// sessions. It checks the ops-count trigger every 25 ms, and a combiner
    /// log three-quarters full wakes it at once. It runs for the life of the
    /// server; a graceful shutdown stops it after a final sync and
    /// checkpoint, while a kill-9 mid-checkpoint is just another
    /// crash the recovery path already handles (torn checkpoints fall back to
    /// the previous slot).
    pub fn open(config: ServerConfig) -> Result<(Self, u64), OnllError> {
        let shard_config = config.shard_config();
        let router = Arc::new(HashRouter::new(config.shards));
        let exists = shard_config
            .backend
            .pool_path("server-kv/shard0")
            .is_some_and(|p| p.exists());
        let (store, recovered) = if exists {
            let pools = shard_config.open_pools()?;
            let (store, report) =
                ShardedDurable::recover_with_checkpoints(pools, shard_config, router)?;
            // Checkpoint-inclusive: the sum of per-shard durable *execution
            // indices*, not `total_durable()` (which counts only the replayed
            // tails above checkpoints and so can shrink as checkpoints land).
            // A supervisor comparing this against its acknowledged-op count
            // needs a figure that never goes backwards.
            (store, report.durable_indices().iter().sum())
        } else {
            std::fs::create_dir_all(&config.dir)
                .map_err(|e| OnllError::Nvm(format!("create {}: {e}", config.dir.display())))?;
            (ShardedDurable::create(shard_config, router)?, 0)
        };
        // Opening the service seeds each shard's snapshot from its recovered
        // state: a client's first read after a restart sees everything
        // recovery replayed without waiting for a write batch.
        let service = store.service(config.max_clients)?;
        let health = Arc::new(ServerHealth::new(store.num_shards(), &config.telemetry));
        let checkpointer = store.spawn_checkpointer(CHECKPOINT_POLL)?;
        let panic_key = std::env::var(TEST_PANIC_KEY_ENV).ok();
        Ok((
            OnllServer {
                store,
                service,
                config,
                health,
                checkpointer: Mutex::new(Some(checkpointer)),
                panic_key,
            },
            recovered,
        ))
    }

    /// The underlying sharded store (for stats or invariant checks).
    pub fn store(&self) -> &ShardedDurable<KvSpec> {
        &self.store
    }

    /// The combining service the handlers submit into.
    pub fn service(&self) -> &ShardedService<KvSpec> {
        &self.service
    }

    /// Connection accounting and degradation state.
    pub fn health(&self) -> &Arc<ServerHealth> {
        &self.health
    }

    /// Accepts connections until shutdown is requested (SIGTERM or
    /// [`ServerHealth::request_shutdown`]), one handler thread per admitted
    /// connection. On shutdown: stops accepting, waits for handlers to finish
    /// their in-flight requests (bounded), lets every shard publish a final
    /// checkpoint, and returns `Ok(())`. Returns `Err` only if the listener
    /// itself fails.
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        let wake_addr = wake_address(listener.local_addr()?);
        if self.wake_reaches(&listener, wake_addr)? {
            self.accept_blocking(&listener, wake_addr)?;
        } else {
            self.accept_polling(&listener)?;
        }
        drop(listener);
        // Handlers observe the shutdown flag within one poll quantum and exit
        // after their current request; in-flight combiner batches complete
        // because every submitted rider blocks until its fence. The deadline
        // only guards against a handler wedged in a blocked write.
        let deadline = Instant::now() + WRITE_TIMEOUT;
        while self.health.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Every handler has exited, so the checkpointer's final pass sees
        // the final state and publishes it.
        drop(
            self.checkpointer
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take(),
        );
        Ok(())
    }

    /// Connects to `wake_addr` once and waits (bounded) for that probe to
    /// come out of `listener`, admitting any client queued ahead of it. True
    /// when the probe arrived: the blocking accept loop can then be woken by
    /// the same connect. Leaves the listener blocking when true, non-blocking
    /// when false.
    fn wake_reaches(&self, listener: &TcpListener, wake_addr: SocketAddr) -> std::io::Result<bool> {
        listener.set_nonblocking(true)?;
        let Ok(probe) = TcpStream::connect_timeout(&wake_addr, WAKE_PROBE_TIMEOUT) else {
            return Ok(false);
        };
        let probe_addr = probe.local_addr()?;
        let deadline = Instant::now() + WAKE_PROBE_TIMEOUT;
        loop {
            match listener.accept() {
                Ok((_, peer)) if peer == probe_addr => break,
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(false);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        listener.set_nonblocking(false)?;
        Ok(true)
    }

    /// Blocks in `accept`, so a connection is admitted the moment it
    /// arrives. To stop it, a watcher thread checks for the shutdown request
    /// once per [`POLL_QUANTUM`] and then connects to the listener itself;
    /// the loop sees the flag on that wake-up connection and drops it.
    fn accept_blocking(
        &self,
        listener: &TcpListener,
        wake_addr: SocketAddr,
    ) -> std::io::Result<()> {
        let accept_ended = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !accept_ended.load(Ordering::SeqCst) {
                    if self.health.shutdown_requested() && TcpStream::connect(wake_addr).is_ok() {
                        break;
                    }
                    std::thread::sleep(POLL_QUANTUM);
                }
            });
            let result = loop {
                match listener.accept() {
                    Ok(_) if self.health.shutdown_requested() => break Ok(()),
                    Ok((stream, _)) => self.admit(stream),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };
            accept_ended.store(true, Ordering::SeqCst);
            result
        })
    }

    /// Polls the non-blocking listener every 5 ms until shutdown is
    /// requested: the fallback when a connection to the listener's own
    /// address does not reach it, so a blocked accept could not be woken.
    fn accept_polling(&self, listener: &TcpListener) -> std::io::Result<()> {
        while !self.health.shutdown_requested() {
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn admit(&self, stream: TcpStream) {
        if !self.health.try_admit(self.config.max_connections) {
            self.health.note_busy();
            stream.set_nodelay(true).ok();
            stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
            let mut writer = BufWriter::new(stream);
            let _ = wire::write_reply(&mut writer, &Reply::Busy);
            return;
        }
        let service = self.service.clone();
        let store = self.store.clone();
        let health = self.health.clone();
        let idle_timeout = self.config.idle_timeout;
        let panic_key = self.panic_key.clone();
        std::thread::spawn(move || {
            let _guard = ConnectionGuard(health.clone());
            // Kept outside the handler so a contained panic can still answer
            // with a typed frame on the (possibly) live socket.
            let panic_stream = stream.try_clone().ok();
            let result = catch_unwind(AssertUnwindSafe(|| {
                handle_connection(
                    stream,
                    &service,
                    &store,
                    &health,
                    idle_timeout,
                    panic_key.as_deref(),
                )
            }));
            if let Err(panic) = result {
                let message = panic_message(panic.as_ref());
                eprintln!("connection handler panicked (contained): {message}");
                if let Some(stream) = panic_stream {
                    let mut writer = BufWriter::new(stream);
                    let _ = wire::write_reply(
                        &mut writer,
                        &Reply::Error {
                            retryable: true,
                            message: format!("internal error: handler panicked: {message}"),
                        },
                    );
                }
            }
        });
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }
}

/// Where a connection reaches a listener bound to `addr`: the loopback
/// address of the same family when it is bound to all interfaces, `addr`
/// itself otherwise (an IPv6 scope id and flow info are kept).
fn wake_address(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// True for errors worth retrying on a fresh connection (after resolving
/// in-flight identities); false for contract violations that will fail the
/// same way every time.
fn is_retryable(e: &OnllError) -> bool {
    !matches!(
        e,
        OnllError::InvalidOpId { .. } | OnllError::GroupTooLarge { .. }
    )
}

fn error_reply(e: &OnllError) -> Reply {
    Reply::Error {
        retryable: is_retryable(e),
        message: e.to_string(),
    }
}

/// Maps a failed update submission to its wire reply, latching the shard
/// degraded on permanent backend errors. Transient injected faults stay
/// retryable errors: the backend is healthy again on the next fence.
fn submit_error_reply(e: &OnllError, shard: usize, health: &ServerHealth) -> Reply {
    if let OnllError::Nvm(message) = e {
        if nvm_sim::message_is_transient(message) {
            return Reply::Error {
                retryable: true,
                message: message.clone(),
            };
        }
        health.mark_degraded(shard);
        return Reply::Unavailable {
            message: message.clone(),
        };
    }
    error_reply(e)
}

fn stats_reply(
    store: &ShardedDurable<KvSpec>,
    service: &ShardedService<KvSpec>,
    health: &ServerHealth,
) -> Reply {
    let stats = store.merged_stats();
    let (batches, combined_ops) = service.batch_stats();
    Reply::StatsOk {
        persistent_fences: stats.persistent_fences,
        maintenance_fences: stats.maintenance_fences,
        batches,
        combined_ops,
        timeouts: health.timeouts(),
        busy_rejects: health.busy_rejects(),
        degraded_shards: health.degraded_shards(),
        snapshot_reads: service.snapshot_reads(),
    }
}

/// Outcome of waiting for the next request on a connection.
enum NextRequest {
    /// A complete request frame arrived.
    Request(Request),
    /// The peer closed the connection (clean EOF).
    Disconnected,
    /// Graceful shutdown was requested; finish without reading more.
    Shutdown,
    /// The connection idled past the timeout and must be reaped.
    IdleTimeout,
}

/// Polls for the next request in [`POLL_QUANTUM`] slices so the handler can
/// observe shutdown and enforce the idle timeout without losing bytes: the
/// poll uses `peek`, and only once the frame's first byte has arrived does the
/// blocking `read_request` run (with the socket timeout widened to the idle
/// budget, so a slow-but-live peer can finish its frame).
fn next_request(
    reader: &mut TcpStream,
    idle_timeout: Duration,
    health: &ServerHealth,
) -> Result<NextRequest, WireError> {
    reader
        .set_read_timeout(Some(POLL_QUANTUM))
        .map_err(WireError::Io)?;
    let mut idle = Duration::ZERO;
    let mut probe = [0u8; 1];
    loop {
        if health.shutdown_requested() {
            return Ok(NextRequest::Shutdown);
        }
        match reader.peek(&mut probe) {
            Ok(0) => return Ok(NextRequest::Disconnected),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                idle += POLL_QUANTUM;
                if idle >= idle_timeout {
                    return Ok(NextRequest::IdleTimeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    reader
        .set_read_timeout(Some(idle_timeout.max(Duration::from_secs(1))))
        .map_err(WireError::Io)?;
    match wire::read_request(reader) {
        Ok(request) => Ok(NextRequest::Request(request)),
        Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Ok(NextRequest::Disconnected)
        }
        Err(WireError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            // Stalled mid-frame for the whole idle budget: reap it.
            Ok(NextRequest::IdleTimeout)
        }
        Err(e) => Err(e),
    }
}

/// Runs one connection to completion. The first request must be `Hello`; the
/// claimed per-shard client slots are released when the connection drops (so
/// the same session index can reconnect).
fn handle_connection(
    stream: TcpStream,
    service: &ShardedService<KvSpec>,
    store: &ShardedDurable<KvSpec>,
    health: &ServerHealth,
    idle_timeout: Duration,
    panic_key: Option<&str>,
) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);

    let poison_pill = |key: &str| {
        if panic_key == Some(key) {
            panic!("poison-pill key {key:?} ({TEST_PANIC_KEY_ENV})");
        }
    };

    // Session setup: claim the deterministic slot named by HELLO. Stats and
    // pings are allowed pre-HELLO (monitoring needs no identity).
    let mut client = loop {
        match next_request(&mut reader, idle_timeout, health)? {
            NextRequest::Request(Request::Hello { index }) => {
                match service.client_for(index as usize) {
                    Ok(mut client) => {
                        let next_seqs: Vec<u64> = (0..service.num_shards())
                            .map(|s| client.shard_client(s).peek_next_op_id().seq)
                            .collect();
                        wire::write_reply(&mut writer, &Reply::HelloOk { next_seqs })?;
                        break client;
                    }
                    // The slot may still be held by a dying predecessor
                    // connection; the client retries HELLO after a backoff.
                    Err(e) => wire::write_reply(&mut writer, &error_reply(&e))?,
                }
            }
            NextRequest::Request(Request::Stats) => {
                wire::write_reply(&mut writer, &stats_reply(store, service, health))?
            }
            NextRequest::Request(Request::Ping) => wire::write_reply(&mut writer, &Reply::Pong)?,
            NextRequest::Request(_) => wire::write_reply(
                &mut writer,
                &Reply::Error {
                    retryable: false,
                    message: "first request must be HELLO".into(),
                },
            )?,
            NextRequest::Disconnected | NextRequest::Shutdown => return Ok(()),
            NextRequest::IdleTimeout => {
                health.note_timeout();
                return Ok(());
            }
        }
    };

    loop {
        let request = match next_request(&mut reader, idle_timeout, health)? {
            NextRequest::Request(request) => request,
            NextRequest::Disconnected | NextRequest::Shutdown => return Ok(()),
            NextRequest::IdleTimeout => {
                health.note_timeout();
                return Ok(());
            }
        };
        let reply = match request {
            Request::Put { op_id, key, value } => {
                poison_pill(&key);
                let shard = client.shard_of(&key);
                if health.is_degraded(shard) {
                    Reply::Unavailable {
                        message: format!("shard {shard} degraded: backend poisoned"),
                    }
                } else {
                    match client.submit_routed_with_id(op_id, KvOp::Put(key, value)) {
                        Ok((value, shard, _)) => Reply::Value {
                            shard: shard as u32,
                            value,
                        },
                        Err(e) => submit_error_reply(&e, shard, health),
                    }
                }
            }
            Request::Delete { op_id, key } => {
                poison_pill(&key);
                let shard = client.shard_of(&key);
                if health.is_degraded(shard) {
                    Reply::Unavailable {
                        message: format!("shard {shard} degraded: backend poisoned"),
                    }
                } else {
                    match client.submit_routed_with_id(op_id, KvOp::Delete(key)) {
                        Ok((value, shard, _)) => Reply::Value {
                            shard: shard as u32,
                            value,
                        },
                        Err(e) => submit_error_reply(&e, shard, health),
                    }
                }
            }
            Request::Get { key } => {
                // Reads serve from memory even on a degraded shard: a
                // poisoned backend loses durability, not state. The snapshot
                // is published before any write's ack, so this lock-free read
                // observes every write acknowledged to any session.
                poison_pill(&key);
                let shard = client.shard_of(&key) as u32;
                let timer = health.read_hist.start_timer();
                let value = client.read_snapshot(&KvRead::Get(key));
                timer.stop();
                Reply::Value { shard, value }
            }
            Request::Resolve { shard, op_id } => {
                if (shard as usize) >= service.num_shards() {
                    Reply::Error {
                        retryable: false,
                        message: format!("shard {shard} out of range"),
                    }
                } else {
                    Reply::Resolved(match service.resolve_on(shard as usize, op_id) {
                        ResolveOutcome::Executed(value) => WireResolved::Executed(value),
                        ResolveOutcome::Unknown => WireResolved::Unknown,
                        // The reply was compacted below a checkpoint floor:
                        // permanently unanswerable, and the client must NOT
                        // resubmit (could double-apply).
                        ResolveOutcome::Truncated => WireResolved::Truncated,
                    })
                }
            }
            Request::Stats => stats_reply(store, service, health),
            Request::Ping => Reply::Pong,
            Request::Hello { .. } => Reply::Error {
                retryable: false,
                message: "session already established".into(),
            },
        };
        wire::write_reply(&mut writer, &reply)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddrV4, SocketAddrV6};

    #[test]
    fn wake_address_maps_only_unspecified_ips_to_loopback() {
        let any4: SocketAddr = "0.0.0.0:4000".parse().unwrap();
        assert_eq!(wake_address(any4), "127.0.0.1:4000".parse().unwrap());
        let any6: SocketAddr = "[::]:4000".parse().unwrap();
        assert_eq!(wake_address(any6), "[::1]:4000".parse().unwrap());
        let bound4 = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::new(10, 1, 2, 3), 4000));
        assert_eq!(wake_address(bound4), bound4);
    }

    #[test]
    fn wake_address_keeps_the_scope_of_a_link_local_v6_listener() {
        let ip = "fe80::1".parse().unwrap();
        let scoped = SocketAddr::V6(SocketAddrV6::new(ip, 4000, 7, 3));
        match wake_address(scoped) {
            SocketAddr::V6(a) => {
                assert_eq!((*a.ip(), a.port()), (ip, 4000));
                assert_eq!((a.flowinfo(), a.scope_id()), (7, 3));
            }
            other => panic!("changed family: {other}"),
        }
    }

    #[test]
    fn wake_probe_falls_back_to_polling_when_the_address_is_unreachable() {
        let dir = nvm_sim::ScratchDir::new("wake-probe").unwrap();
        let mut config = ServerConfig::new(dir.path());
        config.max_clients = 2;
        config.max_connections = 4;
        config.log_capacity = 64;
        config.pmem_bytes = 8 << 20;
        let (server, _) = OnllServer::open(config).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let wake_addr = wake_address(listener.local_addr().unwrap());
        assert!(server.wake_reaches(&listener, wake_addr).unwrap());

        // An address nothing listens on: the probe fails and the listener is
        // left non-blocking for the polling loop.
        let dead_addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        assert!(!server.wake_reaches(&listener, dead_addr).unwrap());
        let err = listener.accept().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        server.health().request_shutdown();
        server.accept_polling(&listener).unwrap();
    }
}
