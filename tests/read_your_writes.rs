//! Read-your-writes through the lock-free snapshot path.
//!
//! Snapshot reads serve a *published* linearized prefix, not the live trace —
//! so the recency contract has to be proven, not assumed. The combiner
//! publishes the new snapshot after its `commit` succeeds and **before** it
//! posts READY to the batch's riders; a client's acknowledgement therefore
//! happens-after the publish, and a snapshot read issued after the ack must
//! observe the acked write (and everything linearized before it).
//!
//! Covered here, on both backends:
//!
//! * every acked `Put` is visible to the same session's *next* snapshot read,
//!   under concurrent writers riding the same combiner batches, and
//! * the contract survives a `SIGKILL` of a real `onll_server` process: the
//!   restarted incarnation publishes its recovered prefix before accepting
//!   connections, so snapshot GETs observe every write acked by the previous
//!   incarnation.

use remembering_consistently::nvm::{BackendSpec, NvmPool, PmemConfig, ScratchDir};
use remembering_consistently::objects::{KvOp, KvRead, KvSpec, KvValue};
use remembering_consistently::onll::{Durable, OnllConfig};
use remembering_consistently::server::WireClient;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

const SERVER_BIN: &str = env!("CARGO_BIN_EXE_onll_server");

fn value_of(v: &KvValue) -> Option<&str> {
    match v {
        KvValue::Value(s) => s.as_deref(),
        KvValue::Len(_) => panic!("expected a value, got a length"),
    }
}

/// The in-process half: `threads` clients each ack a `Put` and immediately
/// snapshot-read it back through their own session, while the other threads
/// keep writing (so snapshots are republished under the readers' feet).
fn ack_then_snapshot_read(spec: BackendSpec) {
    let threads = 3;
    let ops = 60;
    let cfg = OnllConfig::named("ryw")
        // One process slot per client plus one for the service's combiner.
        .max_processes(threads + 1)
        .log_capacity(threads * ops + 64);
    let pool = NvmPool::provision(&spec, PmemConfig::with_capacity(64 << 20), &cfg.name)
        .expect("provision pool");
    let object = Durable::<KvSpec>::create(pool, cfg).expect("create object");
    let service = object.service(threads).expect("service");

    std::thread::scope(|scope| {
        for t in 0..threads {
            let service = service.clone();
            scope.spawn(move || {
                let mut client = service.client().expect("client slot");
                for k in 0..ops {
                    let key = format!("t{t}-k{k}");
                    let value = format!("v{k}");
                    client
                        .submit(KvOp::Put(key.clone(), value.clone()))
                        .expect("acked put");
                    // The ack happened-after the publish: this session's very
                    // next snapshot read must already see the write.
                    let got = client.read_snapshot(&KvRead::Get(key.clone()));
                    assert_eq!(
                        value_of(&got),
                        Some(value.as_str()),
                        "snapshot read after ack missed {key} — the snapshot \
                         was published after the ack, not before"
                    );
                }
            });
        }
    });

    // And the unkeyed service-level snapshot read agrees once quiesced.
    let got = service.read_snapshot(&KvRead::Len);
    assert_eq!(got, KvValue::Len(threads * ops));
}

#[test]
fn ack_then_snapshot_read_on_sim() {
    ack_then_snapshot_read(BackendSpec::Sim);
}

#[test]
fn ack_then_snapshot_read_on_file() {
    let dir = ScratchDir::new("ryw-file").unwrap();
    ack_then_snapshot_read(BackendSpec::file(dir.path()));
}

/// A spawned server process, killed on drop (`READY <port> <recovered>`).
struct ServerProcess {
    child: Child,
    addr: String,
    port: u16,
}

impl ServerProcess {
    fn spawn(dir: &std::path::Path, port: u16) -> Self {
        // Retry: immediately after a SIGKILL the fixed port can still be
        // settling, in which case the child exits before printing READY.
        for _ in 0..50 {
            let mut child = Command::new(SERVER_BIN)
                .arg("serve")
                .arg("--dir")
                .arg(dir)
                .args(["--port", &port.to_string()])
                .args(["--shards", "2", "--clients", "4"])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn onll_server");
            let stdout = child.stdout.take().expect("child stdout");
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line).ok();
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.first() == Some(&"READY") {
                let port: u16 = parts[1].parse().expect("port");
                return ServerProcess {
                    child,
                    addr: format!("127.0.0.1:{port}"),
                    port,
                };
            }
            let _ = child.kill();
            let _ = child.wait();
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        panic!("server did not come up on port {port}");
    }

    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn snapshot_reads_survive_a_kill9_restart() {
    let dir = ScratchDir::new("ryw-kill9").unwrap();
    let server = ServerProcess::spawn(dir.path(), 0);
    let port = server.port;

    // Ack writes, and check read-your-writes across the wire as we go: every
    // GET rides the snapshot path on the server side.
    let mut client = WireClient::connect_with_retry(&server.addr, 1, 20).expect("connect");
    let mut acked = Vec::new();
    for k in 0..80 {
        let key = format!("ryw{k}");
        let value = format!("v{k}");
        client.put(&key, &value).expect("acked put");
        assert_eq!(
            value_of(&client.get(&key).expect("get after ack")),
            Some(value.as_str()),
            "same-session snapshot GET after ack missed {key}"
        );
        acked.push((key, value));
    }
    client.abandon();

    // SIGKILL, recover on the same directory: the restarted server publishes
    // the recovered prefix as its seed snapshot *before* serving, so snapshot
    // GETs observe every previously acked write from the first request on.
    server.kill9();
    let server = ServerProcess::spawn(dir.path(), port);
    let mut reader = WireClient::connect_with_retry(&server.addr, 1, 20).expect("reconnect");
    for (key, value) in &acked {
        assert_eq!(
            value_of(&reader.get(key).expect("get after restart")),
            Some(value.as_str()),
            "snapshot GET after kill-9 restart missed acked key {key}"
        );
    }
    // The counters prove those GETs took the snapshot path, not the lock.
    let stats = reader.stats().expect("stats");
    assert!(
        stats.snapshot_reads >= acked.len() as u64,
        "stats: {stats:?}"
    );
}
