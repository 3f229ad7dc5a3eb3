//! Starting and stopping the serving stack in-process, through its public
//! entry points only: `Engine::start`, `Server::start_with`,
//! `Router::start`.

use crate::sampler::mix;
use crate::workload::{Op, Workload, SLA};
use secemb_router::{Router, RouterConfig};
use secemb_serve::protocol::ServerMsg;
use secemb_serve::{
    Client, ConnectionBackend, Engine, EngineConfig, Server, TableConfig, TraceSettings,
};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of table `t`'s synthetic weights in run `seed` (every backend
/// and the reference use the same one).
pub fn table_seed(seed: u64, t: usize) -> u64 {
    mix(seed, 0x7AB1E + t as u64)
}

/// A running stack: one engine + TCP server per backend, and a router
/// in front when the workload is routed.
pub struct Stack {
    pub engines: Vec<Arc<Engine>>,
    servers: Vec<Server>,
    router: Option<Router>,
}

impl Stack {
    /// Builds every table and ORAM, runs the engines' startup cost
    /// probes, binds the listeners and, for routed workloads, starts the
    /// router (which connects to every backend and places the tables).
    /// `trace_sample` turns on span collection at 1 in N trace ids.
    ///
    /// # Errors
    ///
    /// Returns bind and router-startup errors.
    pub fn start(w: &Workload, seed: u64, trace_sample: Option<u64>) -> io::Result<Stack> {
        let tables: Vec<TableConfig> = w
            .tables
            .iter()
            .enumerate()
            .map(|(t, &spec)| TableConfig {
                seed: table_seed(seed, t),
                ..TableConfig::new(spec)
            })
            .collect();
        let mut engines = Vec::with_capacity(w.backends);
        let mut servers = Vec::with_capacity(w.backends);
        for b in 0..w.backends {
            let mut config = EngineConfig::new(tables.clone());
            config.tracing = trace_sample.map(|n| TraceSettings::new(&format!("b{b}"), n));
            let engine = Arc::new(Engine::start(config));
            servers.push(Server::start_with(
                Arc::clone(&engine),
                "127.0.0.1:0",
                ConnectionBackend::Reactor,
            )?);
            engines.push(engine);
        }
        let router = if w.routed {
            Some(route(&servers, trace_sample)?)
        } else {
            None
        };
        Ok(Stack {
            engines,
            servers,
            router,
        })
    }

    /// Where clients connect: the router if there is one, else the
    /// first server.
    pub fn entry(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.servers[0].addr(), Router::addr)
    }

    /// The first backend's server address.
    pub fn server_addr(&self) -> SocketAddr {
        self.servers[0].addr()
    }

    pub fn is_routed(&self) -> bool {
        self.router.is_some()
    }

    /// Starts a router over this stack's servers (used to measure the
    /// router hop on workloads that are not routed).
    ///
    /// # Errors
    ///
    /// Returns router-startup errors.
    pub fn extra_router(&self) -> io::Result<Router> {
        route(&self.servers, None)
    }

    /// Stops the router, then the servers, then the engines' workers.
    pub fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

fn route(servers: &[Server], trace_sample: Option<u64>) -> io::Result<Router> {
    Router::start(RouterConfig {
        backends: servers
            .iter()
            .enumerate()
            .map(|(b, s)| (format!("b{b}"), s.addr().to_string()))
            .collect(),
        reactor: true,
        trace: trace_sample.map(|n| TraceSettings::new("router", n)),
        ..RouterConfig::default()
    })
}

/// Sends `op` on `client` and waits for the reply.
///
/// # Errors
///
/// Returns transport errors.
pub fn call_on(client: &mut Client, op: &Op) -> io::Result<ServerMsg> {
    match op {
        Op::Multi(parts) => client.generate_multi(parts, Some(SLA)),
        Op::Read { table, indices } => client.generate(*table, indices, Some(SLA)),
        Op::Update {
            table,
            indices,
            deltas,
        } => client.update(*table, indices, deltas, Some(SLA)),
    }
}

/// Starts the stack and times it to the first admitted request: from
/// the call until `first` comes back with embeddings. A refused first
/// request is retried; its reply is returned for the correctness log.
///
/// # Errors
///
/// Returns startup and transport errors.
pub fn timed_start(
    w: &Workload,
    seed: u64,
    trace_sample: Option<u64>,
    first: &Op,
) -> io::Result<(Stack, f64, ServerMsg)> {
    let t0 = Instant::now();
    let stack = Stack::start(w, seed, trace_sample)?;
    let mut client = Client::connect(stack.entry())?;
    loop {
        let reply = call_on(&mut client, first)?;
        if let ServerMsg::Embeddings(..) = reply {
            return Ok((stack, t0.elapsed().as_secs_f64(), reply));
        }
        if t0.elapsed() > Duration::from_secs(60) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "stack admitted no request within 60 s",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
