//! End-to-end loopback tests: a real server on an ephemeral port, a real
//! client, real reports.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use virgo::{Gpu, GpuConfig, SimKey, SimMode};
use virgo_isa::{DataType, Kernel, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};
use virgo_sim::json;
use virgo_store::protocol::{checksum64, key_field, Opcode, MAGIC};
use virgo_store::{EntryDir, StoreClient, StoreServer};

fn tiny_envelope(ops: u32) -> (String, String) {
    let mut b = ProgramBuilder::new();
    b.op_n(
        ops,
        WarpOp::Alu {
            rf_reads: 1,
            rf_writes: 1,
        },
    );
    let kernel = Kernel::new(
        KernelInfo::new("loopback-test", 0, DataType::Fp16),
        vec![WarpAssignment::new(0, 0, Arc::new(b.build()))],
    );
    let config = GpuConfig::virgo();
    let key = SimKey::digest(&config, &kernel, 100_000, SimMode::FastForward);
    let report = Gpu::new(config).run(&kernel, 100_000).unwrap();
    (key.to_hex(), report.to_cache_json(&key.to_hex()))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("virgo-loopback-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn put_get_stat_roundtrip_over_tcp() {
    let dir = temp_dir("roundtrip");
    let server = StoreServer::bind("127.0.0.1:0", EntryDir::new(&dir)).unwrap();
    let mut handle = server.spawn().unwrap();

    let (key, envelope) = tiny_envelope(7);
    let mut client = StoreClient::connect(handle.addr()).unwrap();
    assert_eq!(client.get(&key).unwrap(), None, "fresh store must miss");
    assert!(client.put(&key, &envelope).unwrap(), "valid PUT must store");
    assert_eq!(
        client.get(&key).unwrap().as_deref(),
        Some(envelope.as_str()),
        "the envelope must come back verbatim"
    );

    // A second, independent connection sees the same entry.
    let mut other = StoreClient::connect(handle.addr()).unwrap();
    assert_eq!(other.get(&key).unwrap().as_deref(), Some(envelope.as_str()));

    let stats = other.stat().unwrap();
    let doc = json::parse(&stats).unwrap_or_else(|e| panic!("{e}: {stats}"));
    assert_eq!(doc.get("get_hits").unwrap().as_u64().unwrap(), 2, "{stats}");
    assert_eq!(doc.get("put_oks").unwrap().as_u64().unwrap(), 1, "{stats}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_put_is_refused_and_connection_survives() {
    let dir = temp_dir("corrupt-put");
    let server = StoreServer::bind("127.0.0.1:0", EntryDir::new(&dir)).unwrap();
    let mut handle = server.spawn().unwrap();

    let (key, envelope) = tiny_envelope(3);
    let mut truncated = envelope.clone();
    truncated.truncate(truncated.len() / 2);

    let mut client = StoreClient::connect(handle.addr()).unwrap();
    assert!(
        !client.put(&key, &truncated).unwrap(),
        "a corrupt envelope must be refused"
    );
    // The connection is still in frame sync: the valid PUT goes through.
    assert!(client.put(&key, &envelope).unwrap());
    assert_eq!(
        client.get(&key).unwrap().as_deref(),
        Some(envelope.as_str())
    );
    assert_eq!(
        handle
            .stats()
            .put_rejects
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_dropped_mid_put_stores_nothing() {
    let dir = temp_dir("mid-put-drop");
    let server = StoreServer::bind("127.0.0.1:0", EntryDir::new(&dir)).unwrap();
    let mut handle = server.spawn().unwrap();

    let (key, envelope) = tiny_envelope(4);
    // Hand-write a PUT frame header that promises the full envelope, send
    // half the payload, then vanish — a client killed mid-PUT.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&MAGIC.to_le_bytes()).unwrap();
    raw.write_all(&[Opcode::Put as u8]).unwrap();
    raw.write_all(&key_field(&key)).unwrap();
    raw.write_all(&(envelope.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&checksum64(envelope.as_bytes()).to_le_bytes())
        .unwrap();
    raw.write_all(&envelope.as_bytes()[..envelope.len() / 2])
        .unwrap();
    drop(raw);

    // The server must survive, store nothing, and keep serving.
    let mut client = StoreClient::connect(handle.addr()).unwrap();
    assert_eq!(
        client.get(&key).unwrap(),
        None,
        "a half-sent PUT must not materialize an entry"
    );
    assert!(client.put(&key, &envelope).unwrap());
    assert_eq!(
        client.get(&key).unwrap().as_deref(),
        Some(envelope.as_str())
    );

    handle.stop();
    assert_eq!(
        handle
            .stats()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the truncated frame must be counted as a protocol error"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_joins_promptly_with_idle_connections_open() {
    let dir = temp_dir("stop");
    let server = StoreServer::bind("127.0.0.1:0", EntryDir::new(&dir)).unwrap();
    let mut handle = server.spawn().unwrap();
    // Park two idle connections on the server, then stop it: the handlers
    // poll the stop flag between frames, so the join must not hang.
    let _idle_a = StoreClient::connect(handle.addr()).unwrap();
    let _idle_b = StoreClient::connect(handle.addr()).unwrap();
    let started = std::time::Instant::now();
    handle.stop();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "stop must not wait on idle connections"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_wakes_a_server_left_idle_in_accept() {
    let dir = temp_dir("idle-stop");
    let server = StoreServer::bind("127.0.0.1:0", EntryDir::new(&dir)).unwrap();
    let mut handle = server.spawn().unwrap();
    // No client ever connects: the accept loop is parked in `accept`.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.stop();
        let _ = done_tx.send(handle.stats().connections.load(Ordering::Relaxed));
    });
    let served = done_rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("stop must wake an idle accept and join");
    assert_eq!(served, 0, "the wake-up connection must not be served");
    let _ = std::fs::remove_dir_all(&dir);
}
