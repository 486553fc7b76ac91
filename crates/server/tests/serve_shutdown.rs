//! `OnllServer::serve` blocks in `accept`, so a connection is admitted the
//! moment it arrives, and a shutdown requested from another thread wakes it.

use durable_objects::KvValue;
use nvm_sim::ScratchDir;
use onll_server::{OnllServer, ServerConfig, WireClient};
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[test]
fn serve_returns_promptly_after_shutdown_from_another_thread() {
    let dir = ScratchDir::new("serve-shutdown").unwrap();
    let mut config = ServerConfig::new(dir.path());
    config.max_clients = 2;
    config.max_connections = 4;
    config.log_capacity = 64;
    config.pmem_bytes = 8 << 20;
    let (server, _) = OnllServer::open(config).unwrap();
    let server = Arc::new(server);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (returned, serve_returned) = mpsc::channel();
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || {
            let result = server.serve(listener);
            let _ = returned.send(());
            result
        })
    };

    let mut client = WireClient::connect(addr, 0).unwrap();
    client.put("k", "v").unwrap();
    assert_eq!(client.get("k").unwrap(), KvValue::Value(Some("v".into())));

    // Shut down with the connection still open: the handler must notice and
    // close, and the blocked accept must wake.
    let requested = Instant::now();
    server.health().request_shutdown();
    serve_returned
        .recv_timeout(Duration::from_secs(10))
        .expect("serve returns after shutdown is requested");
    let waited = requested.elapsed();
    serving.join().unwrap().unwrap();
    assert!(
        waited < Duration::from_secs(2),
        "serve took {waited:?} to return after shutdown"
    );
    assert_eq!(server.health().active_connections(), 0);
    client.abandon();
}
