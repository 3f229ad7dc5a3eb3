//! End-to-end tests for the epoll reactor connection layer: soak
//! behavior at ≥1024 mostly-idle connections with O(workers) threads,
//! responses bit-identical to in-process generators under interleaved
//! pipelining, the multi-part worker-death regression, and client-side
//! idle detection.

use secemb::GeneratorSpec;
use secemb_serve::protocol::ServerMsg;
use secemb_serve::{Client, Engine, EngineConfig, RejectReason, Server, TableConfig};
use secemb_tensor::Matrix;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

const SPECS: [GeneratorSpec; 2] = [
    GeneratorSpec::Scan { rows: 128, dim: 8 },
    GeneratorSpec::Dhe { rows: 96, dim: 8 },
];

fn small_engine(seed: u64) -> Arc<Engine> {
    Arc::new(Engine::start(EngineConfig::new(
        SPECS
            .iter()
            .map(|&spec| TableConfig {
                spec,
                seed,
                queue_capacity: 4096,
                cost_override_ns: None,
            })
            .collect(),
    )))
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

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

const CONNS: usize = 4;
const REQUESTS: usize = 24;

/// The `(table, indices)` the mix sends on connection `conn` at `slot`.
fn mix_request(conn: usize, slot: usize) -> (usize, Vec<u64>) {
    let table = (conn + slot) % 2;
    let rows = SPECS[table].rows();
    let indices = (0..4)
        .map(|k| ((conn * 31 + slot * 7 + k * 13) as u64) % rows)
        .collect();
    (table, indices)
}

/// Runs the interleaved pipelined request mix against one server and
/// returns the per-request embedding bits keyed by `(conn, slot)`.
fn pipelined_mix(addr: std::net::SocketAddr) -> HashMap<(usize, usize), Vec<u32>> {
    let mut out = HashMap::new();
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    // Interleave sends round-robin across connections so responses from
    // different requests are in flight together on every socket.
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); CONNS];
    for slot in 0..REQUESTS {
        for (conn, client) in clients.iter_mut().enumerate() {
            let (table, indices) = mix_request(conn, slot);
            ids[conn].push(client.call_async(table, &indices, None).expect("send"));
        }
    }
    for (conn, client) in clients.iter_mut().enumerate() {
        for _ in 0..REQUESTS {
            let (id, msg) = client.drain_next().expect("drain");
            let slot = ids[conn].iter().position(|&i| i == id).expect("known id");
            match msg {
                ServerMsg::Embeddings(m, _) => {
                    out.insert((conn, slot), bits(&m));
                }
                other => panic!("conn {conn} slot {slot}: unexpected {other:?}"),
            }
        }
    }
    out
}

/// The same mix answered by generators built in-process from the
/// engine's specs and seed — the reference the served bytes must match.
fn reference_mix(seed: u64) -> HashMap<(usize, usize), Vec<u32>> {
    let mut generators: Vec<_> = SPECS.iter().map(|spec| spec.build(seed)).collect();
    let mut out = HashMap::new();
    for conn in 0..CONNS {
        for slot in 0..REQUESTS {
            let (table, indices) = mix_request(conn, slot);
            out.insert(
                (conn, slot),
                bits(&generators[table].generate_batch(&indices)),
            );
        }
    }
    out
}

/// The tentpole's soak criterion: ≥1024 concurrently open, mostly-idle
/// connections served by O(workers) threads — opening them adds no
/// threads at all — while interleaved pipelined traffic through the
/// same reactor stays bit-identical to in-process generators built from
/// the same specs and seed.
#[test]
fn soak_1024_idle_connections_o1_threads_and_bit_identical_replies() {
    let server = Server::start(small_engine(42), "127.0.0.1:0").expect("bind");

    let before = thread_count();
    let idle: Vec<TcpStream> = (0..1024)
        .map(|i| TcpStream::connect(server.addr()).unwrap_or_else(|e| panic!("conn {i}: {e}")))
        .collect();
    wait_for(|| server.connections() >= 1024, "1024 accepted connections");
    let after = thread_count();
    assert!(
        after <= before + 2,
        "opening 1024 idle connections grew threads {before} -> {after}; \
         the reactor must serve them without per-connection threads"
    );

    // Pipelined traffic interleaved with the idle fleet still held open.
    let served = pipelined_mix(server.addr());
    assert_eq!(served, reference_mix(42), "served embeddings disagree");

    drop(idle);
    wait_for(
        || server.connections() == 0,
        "idle fleet reaped after close",
    );
    server.shutdown();
}

/// Regression for the multi-part merge panic: killing the worker that
/// owns one part of a `GenerateMulti` must answer the request with an
/// explicit `Rejected(Internal)` — not hang the client or poison the
/// connection — and the connection must keep serving afterwards.
#[test]
fn multi_part_with_dead_worker_rejects_instead_of_hanging() {
    let engine = small_engine(7);
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Poison table 1's only replica: its next batch (our part) is
    // answered Internal and the worker dies.
    assert!(engine.inject_worker_panic(1, 0));
    let parts = vec![(0usize, vec![1u64, 2, 3]), (1usize, vec![4u64, 5])];
    match client.generate_multi(&parts, None).expect("round trip") {
        ServerMsg::Rejected(RejectReason::Internal) => {}
        other => panic!("expected Rejected(Internal), got {other:?}"),
    }

    // The connection survived the partial failure.
    match client.generate(0, &[9, 10], None).expect("round trip") {
        ServerMsg::Embeddings(m, _) => assert_eq!(m.shape(), (2, 8)),
        other => panic!("healthy table failed: {other:?}"),
    }
    server.shutdown();
}

/// `Client::connect_with` idle detection: a half-open peer (accepts,
/// never answers) surfaces as a timeout error instead of a receive that
/// blocks forever.
#[test]
fn client_idle_timeout_errors_on_silent_peer() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.addr_of();
    // Hold accepted sockets open but never respond.
    let hold = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = listener.accept() {
            held.push(s);
        }
    });

    let mut client = Client::connect_with(addr, Some(Duration::from_millis(100))).expect("connect");
    let t0 = Instant::now();
    let err = client
        .generate(0, &[1, 2, 3], None)
        .expect_err("silent peer must error, not block");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "unexpected error kind: {err:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "timeout took {:?}", // far beyond the configured 100ms
        t0.elapsed()
    );
    drop(client);
    drop(hold); // detach; the listener thread dies with the process
}

/// Small helper: `TcpListener::local_addr` with the expect inline, so the
/// silent-peer test reads linearly.
trait AddrOf {
    fn addr_of(&self) -> std::net::SocketAddr;
}

impl AddrOf for TcpListener {
    fn addr_of(&self) -> std::net::SocketAddr {
        self.local_addr().expect("listener addr")
    }
}
