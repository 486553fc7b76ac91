//! Load generator for `onll_server`: drives the wire protocol from another
//! process and writes `BENCH_server.json`.
//!
//! For each connection count in `--conns`, spawns that many client threads
//! (session indices `0..N`), each performing `--ops-per-conn` durable `Put`s,
//! and records throughput, latency percentiles, and the server's persistent
//! fence counters before/after the round. The headline column is
//! `fences_per_op`: with N concurrent connections the per-shard combiners
//! amortize one fence over every rider in a batch, so the ratio must drop
//! below 1 as N grows (≈ 1/batch-size; the paper's Theorem 5.1 bound is the
//! N=1 ceiling of one fence per update).
//!
//! `--read-pct P` turns each round into a mixed workload: every connection
//! flips a deterministic per-thread coin and issues a snapshot `Get` instead
//! of a `Put` P% of the time. Reads target a zipfian-ish hot subset of the
//! 64-key space (min of three uniform draws, so key 0 is hottest), the shape
//! a cache-friendly read path must win on. GET latencies are recorded
//! separately from PUT latencies (`get_p50_us`/`get_p99_us` vs
//! `p50_us`/`p99_us`), and `throughput_ops_per_s` and `fences_per_op` keep
//! counting writes only — snapshot reads are fence-free by construction, so
//! folding them in would flatter the ratio. `throughput_ops_per_s` is each
//! connection's PUTs divided by the time it spent in PUTs, summed over the
//! connections, so the GETs' time does not dilute it; `elapsed_s` is the
//! round's wall time, GETs included.
//!
//! ```text
//! onll_load --addr 127.0.0.1:PORT [--conns 1,2,4,8] [--ops-per-conn 300]
//!           [--read-pct 0..100] [--out BENCH_server.json]
//! ```

use remembering_consistently::server::client::{ResilientSession, RetryPolicy};
use remembering_consistently::server::WireClient;
use std::io::Write;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    conns: Vec<usize>,
    ops_per_conn: usize,
    read_pct: u64,
    out: String,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: onll_load --addr HOST:PORT [--conns 1,2,4,8] [--ops-per-conn N] \
         [--read-pct 0..100] [--out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        addr: String::new(),
        conns: vec![1, 2, 4, 8],
        ops_per_conn: 300,
        read_pct: 0,
        out: "BENCH_server.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage("missing flag value"));
        match flag.as_str() {
            "--addr" => parsed.addr = value(),
            "--conns" => {
                parsed.conns = value()
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage("bad --conns")))
                    .collect()
            }
            "--ops-per-conn" => {
                parsed.ops_per_conn = value()
                    .parse()
                    .unwrap_or_else(|_| usage("bad --ops-per-conn"))
            }
            "--read-pct" => {
                parsed.read_pct = value().parse().unwrap_or_else(|_| usage("bad --read-pct"));
                if parsed.read_pct > 100 {
                    usage("--read-pct must be 0..=100");
                }
            }
            "--out" => parsed.out = value(),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if parsed.addr.is_empty() {
        usage("--addr is required");
    }
    parsed
}

/// Deterministic per-thread generator (64-bit LCG, MMIX constants): the op
/// mix and key skew are reproducible run to run, connection to connection.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Zipfian-ish hot-key index in `0..64`: the min of three uniform draws
    /// concentrates ~30% of reads on keys 0–3 while still touching the tail.
    fn hot_key(&mut self) -> u64 {
        (self.next() % 64)
            .min(self.next() % 64)
            .min(self.next() % 64)
    }
}

/// Per-connection resilience tally for one round.
struct ConnReport {
    conn: usize,
    ops: u64,
    gets: u64,
    errors: u64,
    retries: u64,
}

struct Round {
    connections: usize,
    ops: u64,
    gets: u64,
    elapsed_s: f64,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    get_p50_us: f64,
    get_p99_us: f64,
    fences: u64,
    maintenance_fences: u64,
    fences_per_op: f64,
    batches: u64,
    combined_ops: u64,
    errors: u64,
    retries: u64,
    server_timeouts: u64,
    server_busy_rejects: u64,
    per_connection: Vec<ConnReport>,
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[rank] as f64 / 1_000.0
}

/// One round: `connections` concurrent sessions, `ops_per_conn` ops each
/// (`read_pct`% snapshot gets against hot keys, the rest durable puts), fence
/// counters sampled around the whole round.
fn run_round(addr: &str, connections: usize, ops_per_conn: usize, read_pct: u64) -> Round {
    let mut probe = WireClient::connect_with_retry(addr, 0, 10).expect("connect stats probe");
    let before = probe.stats().expect("stats before round");
    probe.abandon();

    let started = Instant::now();
    let results: Vec<(Vec<u64>, Vec<u64>, ConnReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                scope.spawn(move || {
                    // Resilient sessions: a retryable hiccup (reset, BUSY,
                    // transient backend fault) costs latency, not the run.
                    let policy = RetryPolicy::with_deadline(Duration::from_secs(30))
                        .seed(0xB0A7 + conn as u64);
                    let mut session = ResilientSession::new(addr, conn as u32, policy);
                    let mut rng = Lcg(0x5EED ^ (conn as u64) << 17);
                    let mut lat = Vec::with_capacity(ops_per_conn);
                    let mut get_lat = Vec::with_capacity(ops_per_conn);
                    let mut errors = 0u64;
                    for k in 0..ops_per_conn {
                        if rng.next() % 100 < read_pct {
                            let key = format!("load-{conn}-{}", rng.hot_key());
                            let t0 = Instant::now();
                            match session.get(&key) {
                                Ok(_) => get_lat.push(t0.elapsed().as_nanos() as u64),
                                Err(e) => {
                                    errors += 1;
                                    eprintln!("conn {conn} get {k} failed permanently: {e}");
                                }
                            }
                            continue;
                        }
                        let key = format!("load-{conn}-{}", k % 64);
                        let value = format!("v{k}");
                        let t0 = Instant::now();
                        match session.put(&key, &value) {
                            Ok(_) => lat.push(t0.elapsed().as_nanos() as u64),
                            Err(e) => {
                                errors += 1;
                                eprintln!("conn {conn} op {k} failed permanently: {e}");
                            }
                        }
                    }
                    let report = ConnReport {
                        conn,
                        ops: lat.len() as u64,
                        gets: get_lat.len() as u64,
                        errors,
                        retries: session.retries(),
                    };
                    (lat, get_lat, report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    // PUTs per second of PUT time, per connection (they run side by side, so
    // their rates add up).
    let throughput = results
        .iter()
        .map(|(lat, _, _)| {
            let busy_s = lat.iter().sum::<u64>() as f64 / 1e9;
            if busy_s > 0.0 {
                lat.len() as f64 / busy_s
            } else {
                0.0
            }
        })
        .sum();

    let mut probe = WireClient::connect_with_retry(addr, 0, 10).expect("connect stats probe");
    let after = probe.stats().expect("stats after round");
    probe.abandon();

    let mut all = Vec::new();
    let mut all_gets = Vec::new();
    let mut per_connection = Vec::new();
    for (lat, get_lat, report) in results {
        all.extend(lat);
        all_gets.extend(get_lat);
        per_connection.push(report);
    }
    all.sort_unstable();
    all_gets.sort_unstable();
    let ops = all.len() as u64;
    let fences = after.persistent_fences - before.persistent_fences;
    let maintenance = after.maintenance_fences - before.maintenance_fences;
    Round {
        connections,
        ops,
        gets: all_gets.len() as u64,
        elapsed_s,
        // Write throughput: snapshot gets are counted and timed separately so
        // the headline number stays comparable across read mixes.
        throughput,
        p50_us: percentile_us(&all, 0.50),
        p99_us: percentile_us(&all, 0.99),
        get_p50_us: percentile_us(&all_gets, 0.50),
        get_p99_us: percentile_us(&all_gets, 0.99),
        fences,
        maintenance_fences: maintenance,
        // Checkpoint/compaction fences are maintenance, not part of the
        // per-update persist path Theorem 5.1 bounds; keep them out of the
        // headline ratio (they are still reported in their own column).
        fences_per_op: (fences - maintenance) as f64 / ops.max(1) as f64,
        batches: after.batches - before.batches,
        combined_ops: after.combined_ops - before.combined_ops,
        errors: per_connection.iter().map(|c| c.errors).sum(),
        retries: per_connection.iter().map(|c| c.retries).sum(),
        server_timeouts: after.timeouts - before.timeouts,
        server_busy_rejects: after.busy_rejects - before.busy_rejects,
        per_connection,
    }
}

fn main() {
    let args = parse_args();
    let mut rounds = Vec::new();
    for &connections in &args.conns {
        let round = run_round(&args.addr, connections, args.ops_per_conn, args.read_pct);
        eprintln!(
            "conns={:2}  {:8.0} puts/s  p50={:7.1}us  p99={:7.1}us  gets={} get_p50={:.1}us get_p99={:.1}us  fences/op={:.3}  (batches={} carrying {})  errors={} retries={} srv_timeouts={} srv_busy={}",
            round.connections,
            round.throughput,
            round.p50_us,
            round.p99_us,
            round.gets,
            round.get_p50_us,
            round.get_p99_us,
            round.fences_per_op,
            round.batches,
            round.combined_ops,
            round.errors,
            round.retries,
            round.server_timeouts,
            round.server_busy_rejects,
        );
        rounds.push(round);
    }

    let mut json = format!(
        "{{\n  \"bench\": \"onll-server\",\n  \"read_pct\": {},\n  \"rounds\": [\n",
        args.read_pct
    );
    for (i, r) in rounds.iter().enumerate() {
        let per_conn: Vec<String> = r
            .per_connection
            .iter()
            .map(|c| {
                format!(
                    "{{\"conn\": {}, \"ops\": {}, \"gets\": {}, \"errors\": {}, \"retries\": {}}}",
                    c.conn, c.ops, c.gets, c.errors, c.retries
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"connections\": {}, \"ops\": {}, \"gets\": {}, \"elapsed_s\": {:.4}, \
             \"throughput_ops_per_s\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"get_p50_us\": {:.1}, \"get_p99_us\": {:.1}, \
             \"fences\": {}, \"maintenance_fences\": {}, \"fences_per_op\": {:.4}, \
             \"batches\": {}, \"combined_ops\": {}, \
             \"errors\": {}, \"retries\": {}, \
             \"server_timeouts\": {}, \"server_busy_rejects\": {}, \
             \"per_connection\": [{}]}}{}\n",
            r.connections,
            r.ops,
            r.gets,
            r.elapsed_s,
            r.throughput,
            r.p50_us,
            r.p99_us,
            r.get_p50_us,
            r.get_p99_us,
            r.fences,
            r.maintenance_fences,
            r.fences_per_op,
            r.batches,
            r.combined_ops,
            r.errors,
            r.retries,
            r.server_timeouts,
            r.server_busy_rejects,
            per_conn.join(", "),
            if i + 1 < rounds.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(&args.out).expect("create --out file");
    file.write_all(json.as_bytes()).expect("write bench json");
    eprintln!("wrote {}", args.out);
}
