//! An update whose reply is lost in transit: the session cannot tell whether
//! it ran, so it resolves the identity on a new connection and adopts the
//! executed result instead of sending the update a second time.

use durable_objects::KvValue;
use nvm_sim::ScratchDir;
use onll_server::{OnllServer, ResilientSession, RetryOutcome, RetryPolicy, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Forwards each connection accepted on `listener` to `server`. Once
/// `lose_reply` is set, the next bytes the server sends are discarded and
/// both sides of that connection are closed, as if the network had lost the
/// reply after the server executed the request.
fn spawn_proxy(listener: TcpListener, server: SocketAddr, lose_reply: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(client) = client else { return };
            let upstream = TcpStream::connect(server).unwrap();
            let (mut from_client, mut to_server) =
                (client.try_clone().unwrap(), upstream.try_clone().unwrap());
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut from_client, &mut to_server);
                let _ = to_server.shutdown(Shutdown::Write);
            });
            let lose_reply = lose_reply.clone();
            std::thread::spawn(move || {
                let (mut from_server, mut to_client) = (upstream, client);
                let mut buf = [0u8; 4096];
                while let Ok(n @ 1..) = from_server.read(&mut buf) {
                    if lose_reply.swap(false, Ordering::AcqRel)
                        || to_client.write_all(&buf[..n]).is_err()
                    {
                        break;
                    }
                }
                let _ = to_client.shutdown(Shutdown::Both);
                let _ = from_server.shutdown(Shutdown::Both);
            });
        }
    });
}

#[test]
fn a_delete_whose_reply_is_lost_is_resolved_not_resent() {
    let dir = ScratchDir::new("lost-reply").unwrap();
    let mut config = ServerConfig::new(dir.path());
    config.max_clients = 2;
    config.max_connections = 4;
    config.log_capacity = 64;
    config.pmem_bytes = 8 << 20;
    let (server, _) = OnllServer::open(config).unwrap();
    let server = Arc::new(server);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server_addr = listener.local_addr().unwrap();
    let serving = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(listener))
    };
    let proxy = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy_addr = proxy.local_addr().unwrap();
    let lose_reply = Arc::new(AtomicBool::new(false));
    spawn_proxy(proxy, server_addr, lose_reply.clone());

    let policy = RetryPolicy::with_deadline(Duration::from_secs(10));
    let mut session = ResilientSession::new(proxy_addr.to_string(), 0, policy);
    session.put("k", "v").unwrap();
    assert_eq!(session.retries(), 0);

    lose_reply.store(true, Ordering::Release);
    let (removed, shard, op_id) = session.delete("k").unwrap();
    assert!(
        !lose_reply.load(Ordering::Acquire),
        "the proxy never dropped the reply"
    );
    assert!(session.retries() >= 1, "the lost reply went unnoticed");
    // The delete ran once, before its reply was lost, and removed "v". Sent
    // again, it would have found nothing to remove.
    assert_eq!(removed, KvValue::Value(Some("v".into())));
    assert_eq!(
        session.resolve(shard, op_id).unwrap(),
        RetryOutcome::Executed(KvValue::Value(Some("v".into())))
    );
    assert_eq!(session.get("k").unwrap(), KvValue::Value(None));

    // The next update draws a fresh identity on the new connection.
    let (_, _, next) = session.put("k", "w").unwrap();
    assert_ne!(next, op_id);
    assert_eq!(session.get("k").unwrap(), KvValue::Value(Some("w".into())));

    drop(session);
    server.health().request_shutdown();
    serving.join().unwrap().unwrap();
}
