//! Chaos harness: randomized-but-replayable fault schedules against a real
//! `onll_server` process, asserting the exactly-once contract end to end.
//!
//! Every source of nondeterminism derives from one seed (printed at the start
//! of each round; override with `CHAOS_SEED=<n>`), so a failing run replays:
//!
//! * which fault spec the server is started with (`--fault-spec`, driving the
//!   `nvm_sim::FaultPlan` inside every shard pool),
//! * when the chaos director kills the server (`SIGKILL`) or drains it
//!   politely (`SIGTERM`), and
//! * when clients deliberately drop their connections mid-stream.
//!
//! Clients run [`ResilientSession`] — reconnect, resolve, replay under the
//! same identity — and record every *acknowledged* `(key, value, shard,
//! op_id)`. The audit after the dust settles asserts, over a fresh
//! connection:
//!
//! 1. every acknowledged identity resolves `Executed` or `Truncated`
//!    (compacted below a checkpoint floor) — **never** `Unknown`: an
//!    acknowledged operation must have survived every crash, and
//! 2. every acknowledged key reads back the acknowledged value (keys are
//!    unique per operation, so the expected value is deterministic even with
//!    concurrent writers).
//!
//! The tier-1 `chaos_smoke` keeps one short seeded round in the default test
//! run; the seeded matrix (`chaos_matrix`) is `#[ignore]`d and run by the
//! nightly CI job. The remaining tests pin down the individual degradation
//! mechanisms: SIGTERM drain, admission control (`BUSY`), idle-session
//! reaping, handler panic containment, and permanent-fault degraded mode.

use remembering_consistently::nvm::ScratchDir;
use remembering_consistently::objects::KvValue;
use remembering_consistently::onll::OpId;
use remembering_consistently::server::{
    ClientError, ResilientSession, RetryOutcome, RetryPolicy, WireClient,
};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_onll_server");

/// Deterministic splitmix64; all chaos scheduling randomness flows from here.
/// (Not an LCG: round seeds are derived arithmetically from the base seed,
/// and an LCG's linearity would correlate their streams.)
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x2545F4914F6CDD1D) ^ 0x6A09E667F3BCC909)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn chaos_seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A spawned server process, killed on drop.
struct ServerProcess {
    child: Child,
    addr: String,
    port: u16,
    recovered: u64,
}

struct SpawnSpec<'a> {
    dir: &'a std::path::Path,
    port: u16,
    shards: usize,
    clients: usize,
    extra_args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl<'a> SpawnSpec<'a> {
    fn new(dir: &'a std::path::Path) -> Self {
        SpawnSpec {
            dir,
            port: 0,
            shards: 2,
            clients: 8,
            extra_args: Vec::new(),
            envs: Vec::new(),
        }
    }
}

impl ServerProcess {
    /// Spawns and waits for `READY`. Retries a few times: immediately after a
    /// SIGKILL the fixed port can still be settling, in which case the child
    /// exits before printing `READY`.
    fn spawn(spec: &SpawnSpec) -> Self {
        let mut last_err = String::new();
        for _ in 0..50 {
            match Self::try_spawn(spec) {
                Ok(server) => return server,
                Err(e) => {
                    last_err = e;
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        panic!("server did not come up on port {}: {last_err}", spec.port);
    }

    fn try_spawn(spec: &SpawnSpec) -> Result<Self, String> {
        let mut cmd = Command::new(SERVER_BIN);
        cmd.arg("serve")
            .arg("--dir")
            .arg(spec.dir)
            .args(["--port", &spec.port.to_string()])
            .args(["--shards", &spec.shards.to_string()])
            .args(["--clients", &spec.clients.to_string()])
            .args(spec.extra_args.iter())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in &spec.envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read READY: {e}"))?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.first() != Some(&"READY") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("no READY line (got {line:?})"));
        }
        let port: u16 = parts[1].parse().map_err(|e| format!("port: {e}"))?;
        let recovered: u64 = parts[2].parse().map_err(|e| format!("recovered: {e}"))?;
        Ok(ServerProcess {
            child,
            addr: format!("127.0.0.1:{port}"),
            port,
            recovered,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL: the crash the construction's recovery is built for.
    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
        // Drop runs after this, but the child is already reaped.
    }

    /// SIGTERM, then wait for the graceful drain to finish. Asserts exit 0:
    /// the drain path must complete the final checkpoint and exit cleanly.
    fn terminate_gracefully(mut self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        let exit = self.child.wait().expect("reap server");
        assert!(
            exit.success(),
            "graceful shutdown must exit 0, got {exit:?}"
        );
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn value_of(v: &KvValue) -> Option<&str> {
    match v {
        KvValue::Value(s) => s.as_deref(),
        KvValue::Len(_) => panic!("expected a value, got a length"),
    }
}

/// One acknowledged durable write, as seen by the client that performed it.
struct Acked {
    key: String,
    value: String,
    shard: usize,
    op_id: OpId,
}

/// The exactly-once audit (see the module docs).
fn audit(addr: &str, acked: &[Acked], seed: u64) {
    let mut reader = WireClient::connect_with_retry(addr, 0, 50).expect("connect auditor");
    for a in acked {
        match reader.resolve(a.shard, a.op_id).expect("resolve") {
            RetryOutcome::Unknown => panic!(
                "seed {seed}: acked {:?} ({}={}) resolves Unknown — an acknowledged \
                 write was lost",
                a.op_id, a.key, a.value
            ),
            RetryOutcome::Executed(_) | RetryOutcome::Truncated => {}
        }
        let got = reader.get(&a.key).expect("audit get");
        assert_eq!(
            value_of(&got),
            Some(a.value.as_str()),
            "seed {seed}: acked key {} must read back its acked value",
            a.key
        );
    }
}

/// One chaos round: `clients` resilient sessions write `ops_per_client`
/// uniquely-keyed values while the director restarts the server `restarts`
/// times (mostly SIGKILL, occasionally SIGTERM). Returns every acknowledged
/// write plus the final server incarnation for the audit.
#[allow(clippy::too_many_arguments)]
fn chaos_round(
    dir: &std::path::Path,
    seed: u64,
    round: u64,
    clients: u32,
    ops_per_client: usize,
    restarts: u32,
    fault_spec: Option<&str>,
    drop_every: Option<usize>,
) -> (Vec<Acked>, ServerProcess) {
    let mut spec = SpawnSpec::new(dir);
    if let Some(fs) = fault_spec {
        spec.extra_args = vec!["--fault-spec".into(), fs.into()];
    }
    let first = ServerProcess::spawn(&spec);
    let port = first.port;
    let addr = first.addr.clone();
    spec.port = port;

    let acked: Mutex<Vec<Acked>> = Mutex::new(Vec::new());
    let permanent: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let server = std::thread::scope(|scope| {
        for conn in 0..clients {
            let addr = addr.clone();
            let acked = &acked;
            let permanent = &permanent;
            scope.spawn(move || {
                let policy = RetryPolicy::with_deadline(Duration::from_secs(30))
                    .seed(seed ^ (conn as u64) << 8);
                let mut session = ResilientSession::new(addr, conn, policy);
                for k in 0..ops_per_client {
                    if let Some(every) = drop_every {
                        if k > 0 && k % every == 0 {
                            // A client-side disconnect mid-stream: the next
                            // operation reconnects and resolves first.
                            session.drop_connection();
                        }
                    }
                    let key = format!("s{seed}-r{round}-c{conn}-k{k}");
                    let value = format!("v{k}");
                    match session.put(&key, &value) {
                        Ok((prev, shard, op_id)) => {
                            assert_eq!(
                                value_of(&prev),
                                None,
                                "seed {seed}: unique key {key} written twice — \
                                 a replay double-applied"
                            );
                            acked.lock().unwrap().push(Acked {
                                key,
                                value,
                                shard,
                                op_id,
                            });
                        }
                        Err(e) => permanent.lock().unwrap().push(format!("{key}: {e}")),
                    }
                }
            });
        }

        // The chaos director: seeded restarts while the clients hammer away.
        let mut rng = Rng::new(seed ^ 0xD15EA5E);
        let mut server = first;
        for _ in 0..restarts {
            std::thread::sleep(Duration::from_millis(150 + rng.below(400)));
            if rng.below(4) == 0 {
                server.terminate_gracefully();
            } else {
                server.kill9();
            }
            // Recovery on the same directory and port; the fault spec is only
            // installed in the first incarnation (its event ordinals are
            // relative to process start and would re-fire during recovery).
            server = ServerProcess::spawn(&SpawnSpec {
                port,
                ..SpawnSpec::new(dir)
            });
        }
        // The last incarnation stays alive for the audit.
        server
    });

    let permanent = permanent.into_inner().unwrap();
    assert!(
        permanent.is_empty(),
        "seed {seed}: operations failed permanently under a recoverable \
         schedule: {permanent:?}"
    );
    (acked.into_inner().unwrap(), server)
}

#[test]
fn chaos_smoke() {
    let seed = chaos_seed(0xC0FFEE);
    eprintln!("chaos_smoke seed = {seed} (override with CHAOS_SEED)");
    let dir = ScratchDir::new("chaos-smoke").unwrap();
    let (acked, server) = chaos_round(
        dir.path(),
        seed,
        0,
        3,  // clients
        40, // ops per client
        2,  // restarts
        None,
        Some(13), // deliberate client disconnect every 13 ops
    );
    assert!(
        acked.len() >= 3 * 40 / 2,
        "most operations should be acknowledged (got {})",
        acked.len()
    );
    audit(&server.addr, &acked, seed);
    cross_session_reads(&server.addr, seed);
}

/// Real-time order across connections, on the incarnation that survived the
/// round: a PUT acknowledged to one session is visible to the very next GET
/// of another, because a snapshot GET is linearizable.
fn cross_session_reads(addr: &str, seed: u64) {
    let mut writer = WireClient::connect_with_retry(addr, 0, 50).expect("connect writer");
    let mut reader = WireClient::connect_with_retry(addr, 1, 50).expect("connect reader");
    for k in 0..40 {
        let key = format!("s{seed}-x{k}");
        let value = format!("v{k}");
        writer.put(&key, &value).expect("acked put");
        assert_eq!(
            value_of(&reader.get(&key).expect("cross-session get")),
            Some(value.as_str()),
            "seed {seed}: a GET on another session missed acked key {key}"
        );
    }
}

/// The nightly matrix: several seeds, injected backend faults (transient
/// EIOs, torn writes, fsync latency spikes), more restarts, more clients.
/// Replay a failure with `CHAOS_SEED=<printed seed> cargo test --test chaos
/// chaos_matrix -- --ignored`.
#[test]
#[ignore = "long-running seeded matrix; run via the nightly chaos CI job"]
fn chaos_matrix() {
    let base = chaos_seed(20260808);
    for round in 0..4u64 {
        let seed = base.wrapping_add(round.wrapping_mul(0x9E3779B97F4A7C15));
        let mut rng = Rng::new(seed);
        // A seed-derived fault spec; every variant is recoverable (transient
        // or torn — permanent EIOs are covered by the degraded-mode test
        // below). Ordinals start past store creation, which consumes ~68
        // pwrite/fsync events for two shards: a fault that fires *during*
        // creation fails the open, and the spawn retry would then re-fire it
        // against the half-created directory forever.
        let at = 120 + rng.below(150);
        let fault_spec = match rng.below(4) {
            0 => None,
            1 => Some(format!("seed={seed},transient-fsync-eio@{at}*2")),
            2 => Some(format!("seed={seed},torn@{at}")),
            _ => Some(format!("seed={seed},fsync-delay@{at}*4=3000")),
        };
        eprintln!(
            "chaos_matrix round {round}: seed = {seed}, fault_spec = {fault_spec:?} \
             (override base with CHAOS_SEED)"
        );
        let dir = ScratchDir::new(&format!("chaos-matrix-{round}")).unwrap();
        let (acked, server) = chaos_round(
            dir.path(),
            seed,
            round,
            4,  // clients
            80, // ops per client
            3,  // restarts
            fault_spec.as_deref(),
            Some(11),
        );
        assert!(
            acked.len() >= 4 * 80 / 2,
            "seed {seed}: most operations should be acknowledged (got {})",
            acked.len()
        );
        audit(&server.addr, &acked, seed);
    }
}

#[test]
fn graceful_sigterm_drains_and_recovers_everything() {
    let dir = ScratchDir::new("chaos-sigterm").unwrap();
    let server = ServerProcess::spawn(&SpawnSpec::new(dir.path()));
    let port = server.port;
    let addr = server.addr.clone();

    let mut client = WireClient::connect_with_retry(&addr, 1, 20).expect("connect");
    let mut acked = Vec::new();
    for k in 0..50 {
        let key = format!("g{k}");
        let (_, shard, op_id) = client.put(&key, &format!("v{k}")).expect("put");
        acked.push(Acked {
            key,
            value: format!("v{k}"),
            shard,
            op_id,
        });
    }
    client.abandon();

    // SIGTERM: stop accepting, drain, final checkpoint, exit 0.
    server.terminate_gracefully();

    // The restart recovers every acknowledged write — and, because the drain
    // published a final checkpoint, the recovered durable index covers them.
    let server = ServerProcess::spawn(&SpawnSpec {
        port,
        ..SpawnSpec::new(dir.path())
    });
    assert!(
        server.recovered >= 50,
        "drained server must recover all 50 acked writes, got {}",
        server.recovered
    );
    audit(&server.addr, &acked, 0);
}

#[test]
fn admission_control_rejects_and_then_admits() {
    let dir = ScratchDir::new("chaos-busy").unwrap();
    let mut spec = SpawnSpec::new(dir.path());
    spec.extra_args = vec!["--max-conns".into(), "2".into()];
    let server = ServerProcess::spawn(&spec);

    let c1 = WireClient::connect_with_retry(&server.addr, 1, 20).expect("first");
    let _c2 = WireClient::connect_with_retry(&server.addr, 2, 20).expect("second");

    // Third connection: a typed BUSY rejection, not a hang or a reset.
    match WireClient::connect(&server.addr, 3) {
        Err(ClientError::Busy) => {}
        Err(other) => panic!("expected Busy, got {other:?}"),
        Ok(_) => panic!("expected Busy, got an admitted session"),
    }

    // The rejection is visible in STATS (served over an admitted session) —
    // the `server.busy_rejects` telemetry counter backs this field.
    let mut probe = c1;
    let stats = probe.stats().expect("stats");
    assert!(stats.busy_rejects >= 1, "stats: {stats:?}");

    // Freeing a slot re-admits: drop one session, then the reject clears.
    probe.abandon();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match WireClient::connect(&server.addr, 3) {
            Ok(c) => {
                c.abandon();
                break;
            }
            Err(ClientError::Busy) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("expected eventual admission, got {e:?}"),
        }
    }
}

#[test]
fn idle_sessions_are_reaped_and_resilient_clients_recover() {
    let dir = ScratchDir::new("chaos-idle").unwrap();
    let mut spec = SpawnSpec::new(dir.path());
    spec.extra_args = vec!["--idle-timeout-ms".into(), "300".into()];
    let server = ServerProcess::spawn(&spec);

    // A raw client that goes quiet is reaped: its next request fails.
    let mut raw = WireClient::connect_with_retry(&server.addr, 1, 20).expect("connect");
    raw.put("warm", "up").expect("warm put");
    std::thread::sleep(Duration::from_millis(1200));
    assert!(
        raw.put("after", "idle").is_err(),
        "the server should have closed the idle session"
    );

    // A resilient session shrugs it off: reconnect, resolve, replay.
    let mut session = ResilientSession::new(
        server.addr.clone(),
        1,
        RetryPolicy::with_deadline(Duration::from_secs(10)).seed(1),
    );
    session.put("recovered", "yes").expect("resilient put");
    std::thread::sleep(Duration::from_millis(1200));
    session
        .put("recovered-again", "yes")
        .expect("put after idle reap");
    assert!(session.retries() >= 1, "the reap must have cost a retry");

    // The reap shows up in STATS via the `server.timeouts` counter.
    let stats = session.stats().expect("stats");
    assert!(stats.timeouts >= 1, "stats: {stats:?}");
}

#[test]
fn handler_panics_are_contained() {
    let dir = ScratchDir::new("chaos-panic").unwrap();
    let mut spec = SpawnSpec::new(dir.path());
    spec.envs = vec![("ONLL_TEST_PANIC_KEY".into(), "__chaos_panic__".into())];
    let server = ServerProcess::spawn(&spec);

    let mut client = WireClient::connect_with_retry(&server.addr, 1, 20).expect("connect");
    client.put("before", "ok").expect("normal put");

    // The poison-pill key panics the handler thread; the panic must come back
    // as a typed, retryable error frame — never a silent hang or a dead server.
    match client.put("__chaos_panic__", "boom") {
        Err(ClientError::Server { retryable, message }) => {
            assert!(retryable, "a panic is a retryable condition");
            assert!(
                message.contains("panicked"),
                "unexpected message: {message}"
            );
        }
        // The handler dies after replying, so the error can also surface as a
        // connection-level failure if the reply write raced the close.
        Err(ClientError::Wire(_)) => {}
        other => panic!("expected a contained panic error, got {other:?}"),
    }

    // The server survives: a fresh session works, and earlier data is intact.
    let mut fresh = WireClient::connect_with_retry(&server.addr, 2, 20).expect("reconnect");
    assert_eq!(value_of(&fresh.get("before").expect("get")), Some("ok"));
    fresh.put("after", "ok").expect("put after panic");
}

#[test]
fn permanent_fault_degrades_writes_but_serves_reads_until_restart() {
    let dir = ScratchDir::new("chaos-degraded").unwrap();
    let mut spec = SpawnSpec::new(dir.path());
    spec.shards = 1;
    // A permanent fsync EIO partway into the run: ordinal 200 clears store
    // creation comfortably and lands within the write loop below.
    spec.extra_args = vec!["--fault-spec".into(), "fsync-eio@200".into()];
    let server = ServerProcess::spawn(&spec);
    let port = server.port;

    let mut client = WireClient::connect_with_retry(&server.addr, 1, 20).expect("connect");
    let mut acked = Vec::new();
    let mut degraded_seen = false;
    for k in 0..1000 {
        let key = format!("d{k}");
        match client.put(&key, &format!("v{k}")) {
            Ok((_, shard, op_id)) => acked.push(Acked {
                key,
                value: format!("v{k}"),
                shard,
                op_id,
            }),
            Err(ClientError::Unavailable { .. }) => {
                // The first refusal carries the raw backend error; only
                // subsequent short-circuited writes say "degraded" — both are
                // typed Unavailable, which is what matters here.
                degraded_seen = true;
                break;
            }
            Err(e) => panic!("expected Unavailable at the fault point, got {e:?}"),
        }
    }
    assert!(
        degraded_seen,
        "the injected permanent fault never fired within 1000 puts"
    );
    assert!(!acked.is_empty(), "some writes must precede the fault");

    // Degraded mode: reads still serve, writes stay refused, STATS says so.
    // GETs ride the lock-free snapshot path, so a shard whose *write* path is
    // dead keeps answering from its last published (linearized, acked) prefix
    // — every acked key, not just the latest, and repeatedly.
    for a in &acked {
        assert_eq!(
            value_of(&client.get(&a.key).expect("degraded snapshot read")),
            Some(a.value.as_str()),
            "degraded shard must keep serving acked key {}",
            a.key
        );
    }
    match client.put("rejected", "x") {
        Err(ClientError::Unavailable { .. }) => {}
        other => panic!("degraded shard must refuse writes, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert!(stats.degraded_shards >= 1, "stats: {stats:?}");
    assert!(
        stats.snapshot_reads >= acked.len() as u64,
        "every degraded GET must be counted as a snapshot read: {stats:?}"
    );
    client.abandon();

    // A restart (fresh incarnation, no fault spec) recovers every acked write
    // and accepts writes again — degradation is per incarnation, not
    // persistent damage.
    server.kill9();
    let server = ServerProcess::spawn(&SpawnSpec {
        port,
        shards: 1,
        ..SpawnSpec::new(dir.path())
    });
    audit(&server.addr, &acked, 0);
    let mut healed = WireClient::connect_with_retry(&server.addr, 1, 20).expect("reconnect");
    healed.put("healed", "yes").expect("write after restart");
}
