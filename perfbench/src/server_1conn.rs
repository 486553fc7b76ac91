//! `server_1conn`: an `OnllServer` (2 shards, file backend) with one
//! `WireClient` connection over loopback, 50% `PUT` and 50% `GET` over 1k
//! keys. The user-facing path: the wire and the server handler set GET
//! latency; the per-put fsync and snapshot publication set PUT latency.

use crate::check::check_count;
use crate::measure::{keys, Rng};
use crate::{drive, Op, Params, Recovered, Replies, Run, Workload};
use durable_objects::{KvRead, KvValue};
use nvm_sim::{StatsSnapshot, ThreadStatsSnapshot};
use onll_server::{OnllServer, ServerConfig, WireClient};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const KEYS: usize = 1024;
const SEGMENT_PUTS: usize = 1024;
const SEGMENT_GETS: usize = 1024;
/// Acknowledged puts between a segment and the crash after it, so each
/// recovery replays a log tail. (The shards' own checkpoint threads run on a
/// timer, so the tail's length varies a little from cycle to cycle.)
const PUTS_BEFORE_CRASH: usize = 100;

/// A server serving on its own thread, and the workload's one connection.
struct Server1 {
    config: ServerConfig,
    server: Arc<OnllServer>,
    serving: JoinHandle<std::io::Result<()>>,
    client: WireClient,
    /// Bytes the shards' checkpoint threads stored during measured segments.
    checkpoint_bytes: u64,
}

/// Starts serving `server` on a loopback port and connects the client.
fn serve(
    server: OnllServer,
    config: ServerConfig,
    checkpoint_bytes: u64,
) -> Result<Server1, String> {
    let server = Arc::new(server);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener))
    };
    let client = WireClient::connect(addr, 0).map_err(|e| e.to_string())?;
    Ok(Server1 {
        config,
        server,
        serving,
        client,
        checkpoint_bytes,
    })
}

impl Server1 {
    fn pool_stats(&self) -> Vec<StatsSnapshot> {
        self.server
            .store()
            .pools()
            .iter()
            .map(|p| p.stats().snapshot())
            .collect()
    }

    fn snapshot_reads(&mut self) -> Result<u64, String> {
        self.client
            .stats()
            .map(|s| s.snapshot_reads)
            .map_err(|e| format!("STATS: {e}"))
    }

    /// Stops the server. With `crash`, every shard pool is frozen first, so
    /// nothing the shutdown writes reaches the files: what is left on disk
    /// is what the acknowledged fences made durable.
    fn stop(self, crash: bool) -> (ServerConfig, u64) {
        if crash {
            for pool in self.server.store().pools() {
                let _ = pool.crash();
            }
        }
        self.client.abandon();
        self.server.health().request_shutdown();
        let _ = self.serving.join().expect("serve thread");
        (self.config, self.checkpoint_bytes)
    }
}

impl Workload for Server1 {
    const WARMUP_SEGMENTS: usize = 1;
    const CRASH_CYCLES: usize = 15;

    fn segment_ops(&self, rng: &mut Rng) -> Vec<Op> {
        Op::mix(rng, KEYS, SEGMENT_PUTS, SEGMENT_GETS)
    }

    fn crash_tail(&self, rng: &mut Rng) -> Vec<Op> {
        (0..PUTS_BEFORE_CRASH).map(|_| Op::put(rng, KEYS)).collect()
    }

    /// Runs `ops` in order over the connection, each timed round trip. The
    /// server's `snapshot_reads` must grow by exactly the segment's GETs.
    fn segment(&mut self, keys: &[String], ops: &[Op], measured: bool) -> Replies {
        let (reads0, pools0) = (self.snapshot_reads()?, self.pool_stats());
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            let key = &keys[op.key];
            let t0 = Instant::now();
            let reply = match &op.put {
                Some(value) => self.client.put(key, value).map(|(prev, _, _)| prev),
                None => self.client.get(key),
            };
            let d = t0.elapsed();
            out.push((reply.map_err(|e| format!("{key}: {e}"))?, d));
        }
        let gets = ops.iter().filter(|op| op.put.is_none()).count() as u64;
        let reads = self.snapshot_reads()? - reads0;
        check_count("server snapshot reads against client GETs", reads, gets)?;
        if measured {
            self.checkpoint_bytes += checkpointer_bytes(&pools0, &self.pool_stats());
        }
        let busy = out.iter().map(|(_, d)| *d).sum();
        Ok((out, busy))
    }

    fn stats(&self) -> ThreadStatsSnapshot {
        self.server.store().merged_stats()
    }

    /// Recovery is timed from `OnllServer::open` to the reopened store's
    /// first answer on the snapshot path its GET handler serves from; the
    /// listener and the new connection come after.
    fn crash_and_recover(self, probe: &str) -> Result<(Self, Recovered), String> {
        let (config, checkpoint_bytes) = self.stop(true);
        let t0 = Instant::now();
        let (server, _) = OnllServer::open(config.clone()).map_err(|e| e.to_string())?;
        let first = server.service().read_snapshot(&KvRead::Get(probe.into()));
        let elapsed = t0.elapsed();
        let store = server.store();
        let shards = (0..store.num_shards()).map(|i| store.shard(i));
        let recovered = Recovered {
            first,
            elapsed,
            replayed_ops: shards.clone().map(|s| s.recovered_backlog() as f64).sum(),
            checkpoint_index: shards.map(|s| s.checkpoint_watermark() as f64).sum(),
        };
        Ok((serve(server, config, checkpoint_bytes)?, recovered))
    }

    fn audit_get(&mut self, key: &str) -> Result<KvValue, String> {
        self.client.get(key).map_err(|e| e.to_string())
    }

    fn key_count(&mut self) -> Result<usize, String> {
        match self.server.store().read_latest(&KvRead::Len) {
            KvValue::Len(n) => Ok(n),
            other => Err(format!("length read returned {other:?}")),
        }
    }

    fn finish(self, run: &mut Run) {
        let store = self.server.store();
        let max_live = (0..store.num_shards())
            .map(|i| store.shard(i).max_log_live_bytes())
            .max();
        let layers = &mut run.layers;
        layers.set("persist-log.max_live_bytes", max_live.unwrap_or(0) as f64);
        layers.set(
            "nvm-sim.ckpt_bytes_per_put",
            self.checkpoint_bytes as f64 / run.measured_puts.max(1) as f64,
        );
        let read = layers.get("server.read_ns_p50");
        if read > 0.0 {
            let wire = run.segments.median(|s| s.get_p50) - read;
            layers.set("server.wire_overhead_ns_p50", wire);
        }
        let (config, _) = self.stop(false);
        let _ = std::fs::remove_dir_all(&config.dir);
    }
}

pub fn run(p: &Params) -> Run {
    let mut rng = Rng::new(p.seed, 3);
    let keys = keys(KEYS);
    let dir = p.dir.join(format!(
        "server-{}-{}",
        std::process::id(),
        p.telemetry.is_enabled()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::new(&dir);
    config.shards = 2;
    config.max_clients = 1;
    config.max_connections = 3;
    config.pmem_bytes = 8 << 20;
    config.telemetry = p.telemetry.clone();
    let (server, _) = OnllServer::open(config.clone()).expect("open server");
    let mut store = serve(server, config, 0).expect("serve");
    let load = Op::load(&mut rng, KEYS);
    let loaded = store.segment(&keys, &load, false);
    let setup = p.start.elapsed();
    drive(store, p, rng, &keys, setup, &load, loaded)
}

/// Bytes stored by the shards' checkpoint threads: the threads all of whose
/// persistent fences were maintenance fences. (A connection handler's fences
/// are mostly its puts' own.)
fn checkpointer_bytes(before: &[StatsSnapshot], after: &[StatsSnapshot]) -> u64 {
    let mut bytes = 0;
    for (before, after) in before.iter().zip(after) {
        for &(slot, _) in &after.per_thread {
            let d = after.thread_delta(before, slot);
            if d.persistent_fences > 0 && d.maintenance_fences == d.persistent_fences {
                bytes += d.stored_bytes;
            }
        }
    }
    bytes
}
