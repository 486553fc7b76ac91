//! A combiner log that nears full wakes its shard's checkpoint thread, so a
//! server whose log is smaller than the ops-count trigger keeps accepting
//! writes instead of answering `persistent log is full`.

use nvm_sim::ScratchDir;
use onll_server::{OnllServer, ServerConfig, WireClient};
use std::net::TcpListener;
use std::sync::Arc;

#[test]
fn small_logs_checkpoint_before_they_fill() {
    let dir = ScratchDir::new("log-backstop").unwrap();
    let mut config = ServerConfig::new(dir.path());
    config.max_clients = 2;
    config.max_connections = 4;
    // 64 entries per shard: far below the server's 256-op checkpoint trigger,
    // so only the capacity backstop can keep the logs from filling.
    config.log_capacity = 64;
    config.pmem_bytes = 8 << 20;
    let (server, _) = OnllServer::open(config).unwrap();
    let server = Arc::new(server);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener))
    };

    let mut client = WireClient::connect(addr, 0).unwrap();
    let failures: Vec<String> = (0..400)
        .filter_map(|i| {
            client
                .put(&format!("key-{}", i % 50), &format!("value-{i}"))
                .err()
                .map(|e| format!("put {i}: {e}"))
        })
        .collect();
    let watermarks: Vec<u64> = (0..server.store().num_shards())
        .map(|shard| server.store().shard(shard).checkpoint_watermark())
        .collect();
    server.health().request_shutdown();
    client.abandon();
    serving.join().unwrap().unwrap();

    assert!(
        failures.is_empty(),
        "{} of 400 puts failed, first: {:?}",
        failures.len(),
        failures.first()
    );
    assert!(
        watermarks.iter().all(|&w| w > 0),
        "a shard never checkpointed: watermarks {watermarks:?}"
    );
}
