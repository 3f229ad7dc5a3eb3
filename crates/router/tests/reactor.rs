//! Router-side tests for the event-driven connection layer: the epoll
//! reactor front end answers bit-identically to in-process generators,
//! holds 1024 idle client connections on O(1) threads, and a half-open
//! backend is detected by the idle timeout instead of wedging its reader
//! thread forever.

use secemb::GeneratorSpec;
use secemb_router::{Backend, Router, RouterConfig};
use secemb_serve::protocol::{decode_client, encode_table_list, ClientMsg, ServerMsg};
use secemb_serve::{Client, Engine, EngineConfig, RejectReason, Server, TableConfig};
use secemb_tensor::Matrix;
use secemb_wire::frame::{read_frame, write_frame};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn specs() -> Vec<GeneratorSpec> {
    vec![
        GeneratorSpec::Scan { rows: 128, dim: 8 },
        GeneratorSpec::Dhe { rows: 96, dim: 8 },
        GeneratorSpec::Scan { rows: 64, dim: 8 },
    ]
}

fn start_backend() -> (Arc<Engine>, Server) {
    let engine = Arc::new(Engine::start(EngineConfig::new(
        specs().into_iter().map(TableConfig::new).collect(),
    )));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
    (engine, server)
}

fn router_config(backends: &[&Server]) -> RouterConfig {
    RouterConfig {
        bind: "127.0.0.1:0".to_string(),
        backends: backends
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("b{i}"), s.addr().to_string()))
            .collect(),
        gossip_interval: None,
        ..RouterConfig::default()
    }
}

/// This process's thread count, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

const SLOTS: usize = 12;

/// The `(table, indices)` of pipelined single `slot`.
fn single_request(slot: usize) -> (usize, Vec<u64>) {
    let table = slot % 3;
    let rows = specs()[table].rows();
    let indices = (0..3)
        .map(|k| ((slot * 11 + k * 5) as u64) % rows)
        .collect();
    (table, indices)
}

/// One `GenerateMulti` spanning every table (so both backends).
fn multi_parts() -> Vec<(usize, Vec<u64>)> {
    vec![
        (0usize, vec![1u64, 2]),
        (1usize, vec![3u64]),
        (2usize, vec![4u64, 5]),
    ]
}

/// What a mix of requests came back with: per-single embedding bits,
/// the multi-part reply's bits, and the table count.
type MixResult = (Vec<Vec<u32>>, Vec<u32>, usize);

/// Pipelined singles over every table, one cross-host multi-part
/// request, and a table listing — all through the router at `addr`.
fn routed_mix(addr: std::net::SocketAddr) -> MixResult {
    let mut client = Client::connect(addr).expect("connect");
    let mut ids = Vec::new();
    for slot in 0..SLOTS {
        let (table, indices) = single_request(slot);
        ids.push(client.call_async(table, &indices, None).expect("send"));
    }
    let mut singles = vec![Vec::new(); ids.len()];
    for _ in 0..ids.len() {
        let (id, msg) = client.drain_next().expect("drain");
        let slot = ids.iter().position(|&i| i == id).expect("known id");
        match msg {
            ServerMsg::Embeddings(m, _) => singles[slot] = bits(&m),
            other => panic!("slot {slot}: {other:?}"),
        }
    }
    let multi = match client.generate_multi(&multi_parts(), None).expect("multi") {
        ServerMsg::Embeddings(m, _) => bits(&m),
        other => panic!("multi: {other:?}"),
    };
    let tables = client.tables().expect("tables").len();
    (singles, multi, tables)
}

/// The same mix answered by generators built in-process from the
/// backends' specs and seed; the multi-part reply is its parts' rows
/// concatenated in part order.
fn reference_mix() -> MixResult {
    let seed = TableConfig::new(specs()[0]).seed;
    let mut generators: Vec<_> = specs().iter().map(|spec| spec.build(seed)).collect();
    let singles = (0..SLOTS)
        .map(|slot| {
            let (table, indices) = single_request(slot);
            bits(&generators[table].generate_batch(&indices))
        })
        .collect();
    let multi = multi_parts()
        .iter()
        .flat_map(|(table, indices)| bits(&generators[*table].generate_batch(indices)))
        .collect();
    (singles, multi, specs().len())
}

/// Single-table, multi-part, and control-plane requests through the
/// router's reactor front end answer bit-identically to in-process
/// generators over an equivalent fleet, including pipelined requests
/// interleaved on one connection.
#[test]
fn reactor_front_end_matches_in_process_generators() {
    let (_e0, b0) = start_backend();
    let (_e1, b1) = start_backend();
    let router = Router::start(router_config(&[&b0, &b1])).expect("router start");
    assert_eq!(
        routed_mix(router.addr()),
        reference_mix(),
        "router disagrees"
    );
    router.shutdown();
}

/// The router counterpart of serve's soak: 1024 idle client
/// connections on a router in front of two backends add at most two
/// threads, and traffic interleaved with the idle fleet stays
/// bit-identical to in-process generators.
#[test]
fn router_soak_1024_idle_connections_o1_threads_and_bit_identical_replies() {
    let (_e0, b0) = start_backend();
    let (_e1, b1) = start_backend();
    let router = Router::start(router_config(&[&b0, &b1])).expect("router start");

    let before = thread_count();
    let idle: Vec<TcpStream> = (0..1024)
        .map(|i| TcpStream::connect(router.addr()).unwrap_or_else(|e| panic!("conn {i}: {e}")))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while router.connections() < 1024 {
        assert!(
            Instant::now() < deadline,
            "timed out accepting 1024 connections"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let after = thread_count();
    assert!(
        after <= before + 2,
        "opening 1024 idle router connections grew threads {before} -> {after}"
    );

    assert_eq!(
        routed_mix(router.addr()),
        reference_mix(),
        "router disagrees"
    );
    drop(idle);
    router.shutdown();
}

/// The reactor is the only front end: asking for anything else is an
/// explicit `InvalidInput`, not a silent reactor.
#[test]
fn router_rejects_reactor_false() {
    let (_e0, b0) = start_backend();
    let err = Router::start(RouterConfig {
        reactor: false,
        ..router_config(&[&b0])
    })
    .err()
    .expect("reactor: false must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// A backend that completes the handshake and then goes silent while
/// requests are in flight is declared dead after the idle timeout: the
/// pending callback fires with `Rejected(Internal)` instead of the
/// reader thread blocking forever on the half-open connection.
#[test]
fn backend_idle_timeout_orphan_rejects_pending_requests() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        // Answer the hello so connect_with succeeds, then say nothing.
        let payload = read_frame(&mut reader).expect("hello");
        let (id, msg) = decode_client(&payload).expect("decodable hello");
        assert!(matches!(msg, ClientMsg::Hello(_)));
        let inventory = vec![(128u64, 8usize, 100.0f64, "scan".to_string())];
        write_frame(&mut writer, &encode_table_list(id, &inventory)).expect("inventory");
        // Hold the socket open until the test ends.
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut reader, &mut sink);
    });

    let backend =
        Backend::connect_with("silent", addr, Some(Duration::from_millis(100))).expect("handshake");
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    backend
        .generate(
            0,
            &[1, 2, 3],
            None,
            None,
            Box::new(move |msg, _| {
                let _ = tx.send(msg);
            }),
        )
        .expect("submit");
    let msg = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("idle detection must answer the orphan");
    assert!(
        matches!(msg, ServerMsg::Rejected(RejectReason::Internal)),
        "expected Rejected(Internal), got {msg:?}"
    );
    assert!(
        t0.elapsed() >= Duration::from_millis(90),
        "rejected before the idle window elapsed"
    );
    backend.shutdown();
    silent.join().expect("silent backend thread");
}
