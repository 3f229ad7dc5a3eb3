//! The router front-end: the unmodified serving protocol on the client
//! side, a pipelined backend fleet behind it.
//!
//! Client connections are multiplexed onto one epoll
//! [`FrameReactor`](secemb_serve::reactor::FrameReactor) thread, as in
//! the single-host server, but dispatch resolves against the
//! [`Placement`] instead of a local engine: a `Generate`
//! goes to the host owning its table; a `GenerateMulti` is split into
//! per-host groups, fanned out concurrently, and re-assembled **in part
//! order** when the last group lands. `Tables`, `Stats`, `Metrics`, and
//! the plan frames are merged across the whole fleet, so a scrape
//! through the router sees every backend.
//!
//! Every proxied lookup is stamped with a trace id (the client's, or a
//! router-assigned one), so backend-side stage breakdowns can be joined
//! with the router-side `router_route_ns` / `router_merge_ns`
//! histograms into one cross-host span.

use crate::backend::{Backend, BackendOptions, ReconnectPolicy};
use crate::gossip::{gossip_once, GossipReport};
use crate::lock_unpoisoned;
use crate::placement::Placement;
use secemb::hybrid::AllocationPlan;
use secemb_serve::protocol::{
    decode_client_traced, encode_metrics, encode_plan, encode_plan_ack, encode_response_traced,
    encode_stats, encode_table_list, encode_traces, ClientMsg, ServerMsg,
};
use secemb_serve::reactor::{Dispatch, FrameReactor, ReactorConfig};
use secemb_serve::{RejectReason, ReplySender, Response, TraceSettings};
use secemb_telemetry::{
    Counter, Gauge, Histogram, Registry, SpanCollector, SpanRecord, StageBreakdown, TraceCtx,
};
use secemb_tensor::Matrix;
use secemb_wire::json::{self, Value};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address (port 0 for ephemeral).
    pub bind: String,
    /// `(name, address)` per backend; the name keys placement and the
    /// `backend` metric label.
    pub backends: Vec<(String, String)>,
    /// Background plan-gossip round interval; `None` disables the
    /// background loop (gossip can still be driven via
    /// [`Router::gossip_now`]).
    pub gossip_interval: Option<Duration>,
    /// Where the winning plan's crossovers are persisted (in the
    /// `ProfileArtifact` format) after each gossip round.
    pub profile_out: Option<PathBuf>,
    /// Must be `true` (the default): client connections always run on
    /// the epoll reactor, and [`Router::start`] rejects `false` with
    /// `InvalidInput`. Kept only for existing callers; the next
    /// benchmark change removes it.
    #[doc(hidden)]
    pub reactor: bool,
    /// Declare a backend dead when requests are in flight and it sends
    /// nothing for this long (see [`crate::Backend::connect_with`]);
    /// `None` waits forever (the historical behavior).
    pub backend_idle_timeout: Option<Duration>,
    /// Reap idle *client* connections after this long with no socket
    /// activity; `None` never reaps.
    pub conn_idle: Option<Duration>,
    /// Distributed-tracing settings for the router's own span collector
    /// (host label, head-sampling rate). `None` collects nothing; the
    /// instrumented path still runs with an inert handle.
    pub trace: Option<TraceSettings>,
    /// Consecutive failed replies (`Rejected(Internal)` or send errors)
    /// before a backend's health trips to `Down` and traffic fails over
    /// to the next-ranked replica.
    pub health_trip: u32,
    /// Health-tick interval: every tick, tripped backends whose link is
    /// back are probed, and on probe success the fleet's newest plan is
    /// gossiped to them *before* they re-admit traffic (no mixed-epoch
    /// window). `None` disables probing — a tripped backend stays
    /// tripped.
    pub health_probe: Option<Duration>,
    /// Backoff schedule for backend reconnection (see
    /// [`ReconnectPolicy`]).
    pub reconnect: ReconnectPolicy,
    /// Test hook: pretend the gossip-thread spawn failed, to exercise
    /// the inline-gossip fallback without exhausting real threads.
    #[doc(hidden)]
    pub inject_gossip_spawn_failure: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            gossip_interval: None,
            profile_out: None,
            reactor: true,
            backend_idle_timeout: None,
            conn_idle: None,
            trace: None,
            health_trip: 3,
            health_probe: Some(Duration::from_millis(200)),
            reconnect: ReconnectPolicy::default(),
            inject_gossip_spawn_failure: false,
        }
    }
}

/// Router-side telemetry: fan-out shape and per-hop latency, so a
/// cross-host span = router histograms + backend stage breakdowns.
struct RouterMetrics {
    requests_total: Arc<Counter>,
    rejected_local_total: Arc<Counter>,
    fanout_hosts: Arc<Histogram>,
    route_ns: Arc<Histogram>,
    merge_ns: Arc<Histogram>,
    write_ns: Arc<Histogram>,
    gossip_rounds_total: Arc<Counter>,
    gossip_pushes_total: Arc<Counter>,
    gossip_spawn_failures: Arc<Counter>,
    plan_version: Arc<Gauge>,
    /// Requests routed to a non-primary replica because the primary was
    /// unhealthy.
    failovers_total: Arc<Counter>,
    health_trips_total: Arc<Counter>,
    health_recoveries_total: Arc<Counter>,
    /// Backend frames that violated the protocol contract (unexpected
    /// kind where embeddings were due, duplicate part fills, missing
    /// merge slots) — each degraded to `Rejected(Internal)` instead of
    /// a panic.
    protocol_violations: Arc<Counter>,
}

impl RouterMetrics {
    fn new(registry: &Registry) -> Self {
        RouterMetrics {
            requests_total: registry.counter("router_requests_total"),
            rejected_local_total: registry.counter("router_rejected_local_total"),
            fanout_hosts: registry.histogram("router_fanout_hosts"),
            route_ns: registry.histogram("router_route_ns"),
            merge_ns: registry.histogram("router_merge_ns"),
            write_ns: registry.histogram("router_write_ns"),
            gossip_rounds_total: registry.counter("router_gossip_rounds_total"),
            gossip_pushes_total: registry.counter("router_gossip_pushes_total"),
            gossip_spawn_failures: registry.counter("router_gossip_spawn_failures_total"),
            plan_version: registry.gauge("router_plan_version"),
            failovers_total: registry.counter("router_failovers_total"),
            health_trips_total: registry.counter("router_health_trips_total"),
            health_recoveries_total: registry.counter("router_health_recoveries_total"),
            protocol_violations: registry.counter("router_protocol_violations_total"),
        }
    }
}

/// Router-side health of one backend: separate from the TCP link state
/// (a backend can be connected yet failing every request), driven by a
/// consecutive-failure trip and a probe-based recovery.
struct HealthState {
    up: AtomicBool,
    consecutive_failures: AtomicU64,
    up_gauge: Arc<Gauge>,
}

struct Inner {
    backends: Vec<Arc<Backend>>,
    placement: Placement,
    /// Per-table ordered failover candidates (rank 0 = the placement's
    /// assignment), precomputed from [`Placement::candidates`].
    candidates: Vec<Vec<usize>>,
    /// Per-backend router-side health, indexed like `backends`.
    health: Vec<HealthState>,
    health_trip: u32,
    /// The fleet's table inventory (identical across backends, verified
    /// at startup): `(rows, dim, per_query_ns, technique label)`.
    inventory: Vec<(u64, usize, f64, String)>,
    registry: Arc<Registry>,
    metrics: RouterMetrics,
    spans: Arc<SpanCollector>,
    profile_out: Option<PathBuf>,
    next_trace: AtomicU64,
    /// Set when the background gossip thread could not be spawned:
    /// gossip then runs inline, rate-limited, on stats/metrics scrapes.
    inline_gossip: AtomicBool,
    inline_gossip_interval: Duration,
    last_inline_gossip: Mutex<Option<Instant>>,
}

impl Inner {
    fn fresh_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    fn gossip(&self) -> io::Result<GossipReport> {
        let report = gossip_once(&self.backends, self.profile_out.as_deref())?;
        self.metrics.gossip_rounds_total.inc();
        self.metrics
            .gossip_pushes_total
            .add(report.pushed.len() as u64);
        if report.winner_version > 0 {
            self.metrics.plan_version.set(report.winner_version as f64);
        }
        Ok(report)
    }

    /// Fallback gossip when the background thread could not be spawned:
    /// runs a round inline on the calling (scrape) thread, at most once
    /// per configured interval.
    fn maybe_inline_gossip(&self) {
        if !self.inline_gossip.load(Ordering::Relaxed) {
            return;
        }
        let mut last = lock_unpoisoned(&self.last_inline_gossip);
        let due = last.is_none_or(|t| t.elapsed() >= self.inline_gossip_interval);
        if due {
            *last = Some(Instant::now());
            drop(last);
            let _ = self.gossip();
        }
    }

    /// Whether backend `host` is currently eligible to serve: its
    /// router-side health is up *and* its TCP link is up.
    fn serving(&self, host: usize) -> bool {
        self.health[host].up.load(Ordering::Relaxed) && self.backends[host].is_up()
    }

    /// The highest-ranked live candidate for `table`, skipping hosts in
    /// `tried` (send attempts that already failed this request). Counts
    /// a failover when the pick is not the primary. `None` means no
    /// replica can serve.
    fn pick_host(&self, table: usize, tried: &[usize]) -> Option<usize> {
        let ranked = self.candidates.get(table)?;
        for (rank, &host) in ranked.iter().enumerate() {
            if tried.contains(&host) || !self.serving(host) {
                continue;
            }
            if rank > 0 {
                self.metrics.failovers_total.inc();
            }
            return Some(host);
        }
        None
    }

    /// Records one failed interaction with `host` (an
    /// `Rejected(Internal)` reply or a failed send); trips the health
    /// state after `health_trip` consecutive failures.
    fn note_failure(&self, host: usize) {
        let h = &self.health[host];
        let fails = h.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if fails >= u64::from(self.health_trip) {
            self.trip(host);
        }
    }

    /// Records one successful reply from `host`.
    fn note_success(&self, host: usize) {
        self.health[host]
            .consecutive_failures
            .store(0, Ordering::Relaxed);
    }

    /// Trips `host` to unhealthy (idempotent).
    fn trip(&self, host: usize) {
        let h = &self.health[host];
        if h.up.swap(false, Ordering::Relaxed) {
            self.metrics.health_trips_total.inc();
            h.up_gauge.set(0.0);
        }
    }

    /// Flips `host` back to healthy after a successful probe
    /// (idempotent).
    fn recover(&self, host: usize) {
        let h = &self.health[host];
        h.consecutive_failures.store(0, Ordering::Relaxed);
        if !h.up.swap(true, Ordering::Relaxed) {
            self.metrics.health_recoveries_total.inc();
            h.up_gauge.set(1.0);
        }
    }
}

/// A running router. Dropping (or [`Router::shutdown`]) stops the
/// client reactor, closes every client connection, joins every thread,
/// and disconnects the backends.
pub struct Router {
    inner: Arc<Inner>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The client-facing reactor; `None` once shut down.
    frontend: Option<FrameReactor>,
    gossip_handle: Option<JoinHandle<()>>,
    health_handle: Option<JoinHandle<()>>,
}

impl Router {
    /// Connects to every backend (tolerating peers that are down — they
    /// start `Down` and join when their reconnect succeeds), verifies
    /// the reachable ones serve the same table set, derives the
    /// placement over the *full* configured membership, and starts
    /// accepting clients.
    ///
    /// # Errors
    ///
    /// Returns bind errors, `InvalidInput` for an empty backend list or
    /// `reactor: false`, `ConnectionRefused` if *no* backend is
    /// reachable at startup (the inventory must come from somewhere),
    /// or `InvalidData` if reachable backends' inventories disagree
    /// (they must be replicas of one table set).
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        if !config.reactor {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "RouterConfig::reactor must be true: the epoll reactor is the only front end",
            ));
        }
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let mut backends = Vec::with_capacity(config.backends.len());
        for (name, addr) in &config.backends {
            backends.push(Backend::start(
                name,
                addr.as_str(),
                BackendOptions {
                    idle_timeout: config.backend_idle_timeout,
                    reconnect: Some(config.reconnect.clone()),
                },
            )?);
        }
        let shape = |t: &[(u64, usize, f64, String)]| -> Vec<(u64, usize)> {
            t.iter().map(|(rows, dim, _, _)| (*rows, *dim)).collect()
        };
        // The inventory comes from the first reachable backend; any
        // other reachable backend must agree, and unreachable backends
        // are held to the same shape at their reconnect handshake.
        let Some(reference) = backends.iter().find(|b| b.is_up()) else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no backend reachable at startup",
            ));
        };
        let inventory = reference.tables();
        let reference_name = reference.name().to_string();
        let expected = shape(&inventory);
        for backend in &backends {
            if backend.is_up() && shape(&backend.tables()) != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "backend {} serves a different table set than {}",
                        backend.name(),
                        reference_name,
                    ),
                ));
            }
            backend.set_expected_shape(expected.clone());
        }
        let names: Vec<String> = backends.iter().map(|b| b.name().to_string()).collect();
        let placement = Placement::balanced(&names, inventory.len());
        let candidates: Vec<Vec<usize>> = (0..inventory.len())
            .map(|t| {
                placement
                    .candidates(t)
                    .expect("placement is total over 0..tables")
            })
            .collect();
        let registry = Arc::new(Registry::new());
        let metrics = RouterMetrics::new(&registry);
        registry.gauge("router_backends").set(backends.len() as f64);
        registry.gauge("router_tables").set(inventory.len() as f64);
        let health: Vec<HealthState> = backends
            .iter()
            .map(|b| {
                let up = b.is_up();
                let up_gauge = registry.gauge_with("router_backend_up", &[("backend", b.name())]);
                up_gauge.set(if up { 1.0 } else { 0.0 });
                HealthState {
                    up: AtomicBool::new(up),
                    consecutive_failures: AtomicU64::new(0),
                    up_gauge,
                }
            })
            .collect();
        let spans = Arc::new(match &config.trace {
            Some(t) => SpanCollector::with_capacity(&t.host, t.sample_every, t.capacity),
            None => SpanCollector::disabled(),
        });
        let inner = Arc::new(Inner {
            backends,
            placement,
            candidates,
            health,
            health_trip: config.health_trip.max(1),
            inventory,
            registry,
            metrics,
            spans,
            profile_out: config.profile_out.clone(),
            next_trace: AtomicU64::new(1),
            inline_gossip: AtomicBool::new(false),
            inline_gossip_interval: config.gossip_interval.unwrap_or(Duration::from_millis(500)),
            last_inline_gossip: Mutex::new(None),
        });
        // SO_REUSEADDR bind: a router restarted onto its old port must
        // not spend a TIME_WAIT minute in EADDRINUSE.
        let listener = secemb_serve::bind_reusable(&config.bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let inner_factory = Arc::clone(&inner);
        let write_ns = Arc::clone(&inner.metrics.write_ns);
        let frontend = FrameReactor::start(
            listener,
            Box::new(move |_conn| {
                let inner = Arc::clone(&inner_factory);
                Box::new(move |payload: &[u8], replies: &ReplySender| {
                    match decode_client_traced(payload) {
                        Ok((id, msg, trace)) => {
                            dispatch(&inner, replies, id, msg, trace);
                            true
                        }
                        Err(_) => false,
                    }
                }) as Dispatch
            }),
            Box::new(move |ns| write_ns.record(ns)),
            ReactorConfig {
                registry: Some(Arc::clone(&inner.registry)),
                idle_timeout: config.conn_idle,
            },
        )?;
        let gossip_handle = match config.gossip_interval {
            Some(interval) => {
                let spawned = if config.inject_gossip_spawn_failure {
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "injected"))
                } else {
                    let inner = Arc::clone(&inner);
                    let stop = Arc::clone(&stop);
                    std::thread::Builder::new()
                        .name("secemb-rt-gossip".into())
                        .spawn(move || {
                            while !stop.load(Ordering::Relaxed) {
                                let _ = inner.gossip();
                                let deadline = Instant::now() + interval;
                                while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                                    std::thread::sleep(interval.min(Duration::from_millis(10)));
                                }
                            }
                        })
                };
                match spawned {
                    Ok(handle) => Some(handle),
                    Err(_) => {
                        // Thread exhaustion must not abort a router that
                        // can otherwise serve: count it and degrade to
                        // inline gossip on the stats/metrics tick.
                        inner.metrics.gossip_spawn_failures.inc();
                        inner.inline_gossip.store(true, Ordering::Relaxed);
                        None
                    }
                }
            }
            None => None,
        };
        let health_handle = match config.health_probe {
            Some(interval) => {
                let inner = Arc::clone(&inner);
                let stop = Arc::clone(&stop);
                let spawned = std::thread::Builder::new()
                    .name("secemb-rt-health".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            health_tick(&inner);
                            let deadline = Instant::now() + interval;
                            while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                                std::thread::sleep(interval.min(Duration::from_millis(10)));
                            }
                        }
                    });
                // Same degradation as gossip: without the probe thread
                // the router still serves, it just cannot auto-recover
                // tripped backends.
                spawned.ok()
            }
            None => None,
        };
        Ok(Router {
            inner,
            addr,
            stop,
            frontend: Some(frontend),
            gossip_handle,
            health_handle,
        })
    }

    /// Per-backend `(name, serving)` health snapshot — serving means
    /// router-side health *and* the TCP link are both up.
    pub fn backend_health(&self) -> Vec<(String, bool)> {
        self.inner
            .backends
            .iter()
            .enumerate()
            .map(|(h, b)| (b.name().to_string(), self.inner.serving(h)))
            .collect()
    }

    /// The bound client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Client connections currently open.
    pub fn connections(&self) -> u64 {
        self.frontend.as_ref().map_or(0, FrameReactor::connections)
    }

    /// The table → host placement the router serves with.
    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    /// The router's own metrics registry (`router_*` series).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// The router's own span collector (inert unless
    /// [`RouterConfig::trace`] was set).
    pub fn spans(&self) -> Arc<SpanCollector> {
        Arc::clone(&self.inner.spans)
    }

    /// Runs one synchronous gossip round (also available continuously
    /// via [`RouterConfig::gossip_interval`]).
    ///
    /// # Errors
    ///
    /// See [`gossip_once`].
    pub fn gossip_now(&self) -> io::Result<GossipReport> {
        self.inner.gossip()
    }

    /// Stops accepting, closes every client connection, and joins all
    /// router threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        if let Some(reactor) = self.frontend.take() {
            reactor.shutdown();
        }
        if let Some(handle) = self.gossip_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.health_handle.take() {
            let _ = handle.join();
        }
        for backend in &self.inner.backends {
            backend.shutdown();
        }
    }
}

/// One health-thread round: trip backends whose link dropped, probe
/// tripped backends whose link is back, and — on probe success — gossip
/// the fleet's newest plan to them *before* re-admitting traffic, so a
/// recovered replica never serves a stale epoch next to fresh peers.
/// Also refreshes the per-backend reconnect gauges.
fn health_tick(inner: &Arc<Inner>) {
    for (h, backend) in inner.backends.iter().enumerate() {
        inner
            .registry
            .gauge_with("router_backend_reconnects", &[("backend", backend.name())])
            .set(backend.reconnects() as f64);
        inner
            .registry
            .gauge_with(
                "router_backend_connect_failures",
                &[("backend", backend.name())],
            )
            .set(backend.connect_failures() as f64);
        let healthy = inner.health[h].up.load(Ordering::Relaxed);
        if !backend.is_up() {
            if healthy {
                inner.trip(h);
            }
            continue;
        }
        if !healthy && backend.probe().is_ok() {
            // Plan convergence before re-admission: push the winning
            // plan (the recovered replica restarted at version 0, so it
            // is stale by construction whenever the fleet adapted).
            let _ = inner.gossip();
            inner.recover(h);
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn reject(inner: &Inner, replies: &ReplySender, id: u64, reason: RejectReason, trace: Option<u64>) {
    inner.metrics.rejected_local_total.inc();
    replies.send(encode_response_traced(
        id,
        &Response::Rejected(reason),
        trace,
    ));
}

/// Span bookkeeping for one sampled routed request. Span ids are
/// allocated eagerly at admission so each backend hop can be told its
/// parent (`fanout_ids[g]`) *before* the hop's reply — that forwarded id
/// is what joins the router's timeline to the backends'. Sampling is
/// keyed on the public trace id alone, so none of this branches on
/// tables or indices beyond putting their public counts in attrs.
struct RouteSpans {
    spans: Arc<SpanCollector>,
    trace_id: u64,
    /// The client's own parent span, if the client is itself traced.
    client_parent: Option<u64>,
    root_id: u64,
    /// One eagerly-allocated "fanout" span id per backend hop.
    fanout_ids: Vec<u64>,
    /// Serving host index per hop (span attr). Atomic because failover
    /// can move a hop to a replica after the spans were allocated.
    hosts: Vec<AtomicU64>,
    start: Instant,
    queries: u64,
}

impl RouteSpans {
    /// Starts bookkeeping if `hop_trace` is sampled; `hosts` is the
    /// placement host index per hop (one per fan-out group).
    fn begin(
        inner: &Inner,
        trace: Option<TraceCtx>,
        hop_trace: u64,
        hosts: Vec<u64>,
        queries: u64,
    ) -> Option<Arc<RouteSpans>> {
        if !inner.spans.sampled(hop_trace) {
            return None;
        }
        let spans = Arc::clone(&inner.spans);
        let root_id = spans.fresh_span_id();
        let fanout_ids = hosts.iter().map(|_| spans.fresh_span_id()).collect();
        Some(Arc::new(RouteSpans {
            spans,
            trace_id: hop_trace,
            client_parent: trace.and_then(|t| t.parent_span),
            root_id,
            fanout_ids,
            hosts: hosts.into_iter().map(AtomicU64::new).collect(),
            start: Instant::now(),
            queries,
        }))
    }

    /// Re-labels hop `g` with the host that actually served it (set
    /// when failover moved the hop off its primary candidate).
    fn set_host(&self, g: usize, host: u64) {
        self.hosts[g].store(host, Ordering::Relaxed);
    }

    /// The trace context forwarded to hop `g`'s backend: same trace id,
    /// parented under that hop's fanout span.
    fn forward(&self, g: usize) -> TraceCtx {
        TraceCtx::with_parent(self.trace_id, self.fanout_ids[g])
    }

    fn span(&self, span_id: u64, parent: Option<u64>, name: &'static str) -> SpanRecord {
        SpanRecord {
            trace_id: self.trace_id,
            span_id,
            parent_span: parent,
            host: self.spans.host().to_string(),
            component: "router",
            name,
            start_ns: 0,
            end_ns: 0,
            attrs: Vec::new(),
        }
    }

    /// Records the admission span: decode → every hop sent.
    fn record_admit(&self, sent: Instant) {
        let mut s = self.span(self.spans.fresh_span_id(), Some(self.root_id), "admit");
        s.start_ns = self.spans.ns_of(self.start);
        s.end_ns = self.spans.ns_of(sent);
        self.spans.record(s);
    }

    /// Records hop `g`'s fanout span when its backend reply lands.
    fn record_fanout(&self, g: usize) {
        let mut s = self.span(self.fanout_ids[g], Some(self.root_id), "fanout");
        s.start_ns = self.spans.ns_of(self.start);
        s.end_ns = self.spans.now_ns();
        s.attrs = vec![("host", self.hosts[g].load(Ordering::Relaxed))];
        self.spans.record(s);
    }

    /// Records the reassembly span (multi-host requests only).
    fn record_merge(&self, m0: Instant, m1: Instant) {
        let mut s = self.span(self.spans.fresh_span_id(), Some(self.root_id), "merge");
        s.start_ns = self.spans.ns_of(m0);
        s.end_ns = self.spans.ns_of(m1);
        self.spans.record(s);
    }

    /// Records the root request span once the reply is on its way.
    fn record_root(&self) {
        let mut s = self.span(self.root_id, self.client_parent, "request");
        s.start_ns = self.spans.ns_of(self.start);
        s.end_ns = self.spans.now_ns();
        s.attrs = vec![("queries", self.queries), ("hops", self.hosts.len() as u64)];
        self.spans.record(s);
    }
}

/// Maps a backend reply onto the client-facing response. A frame kind
/// that is neither embeddings nor a rejection (e.g. a stats frame where
/// embeddings were due) is a protocol violation: counted and degraded
/// to `Rejected(Internal)` — never a panic on the dispatch path.
fn to_response(msg: ServerMsg, violations: &Counter) -> Response {
    match msg {
        ServerMsg::Embeddings(m, stages) => Response::Embeddings(m, stages),
        ServerMsg::Rejected(reason) => Response::Rejected(reason),
        _ => {
            violations.inc();
            Response::Rejected(RejectReason::Internal)
        }
    }
}

/// Feeds one backend reply into the health machine: an internal
/// rejection (which is also what a died-mid-flight link orphan-rejects
/// with) counts toward the consecutive-failure trip; anything else —
/// including *legitimate* rejections like `QueueFull` — resets it.
fn note_outcome(inner: &Inner, host: usize, msg: &ServerMsg) {
    match msg {
        ServerMsg::Rejected(RejectReason::Internal) => inner.note_failure(host),
        _ => inner.note_success(host),
    }
}

/// Sends one request to the highest-ranked live candidate for `table`,
/// walking down the candidate list while the *send* itself fails. A
/// failed send never put a complete frame on the wire, so retrying on a
/// replica is duplicate-safe even for `Update` traffic (in-flight
/// requests whose link dies after a successful send are rejected, not
/// replayed). Returns the serving host, or `None` when no replica is
/// live.
fn send_with_failover(
    inner: &Inner,
    table: usize,
    initial: Option<usize>,
    mut send: impl FnMut(usize) -> io::Result<u64>,
) -> Option<usize> {
    let mut tried: Vec<usize> = Vec::new();
    let mut next = initial.or_else(|| inner.pick_host(table, &tried));
    while let Some(host) = next {
        match send(host) {
            Ok(_) => return Some(host),
            Err(_) => {
                inner.note_failure(host);
                tried.push(host);
                next = inner.pick_host(table, &tried);
            }
        }
    }
    None
}

fn dispatch(
    inner: &Arc<Inner>,
    replies: &ReplySender,
    id: u64,
    msg: ClientMsg,
    trace: Option<TraceCtx>,
) {
    let echo = trace.map(|t| t.trace_id);
    match msg {
        ClientMsg::Generate {
            table,
            indices,
            deadline,
        } => {
            inner.metrics.requests_total.inc();
            // Placement-aware admission: bad requests never cross the
            // wire to a backend.
            if table >= inner.placement.tables() {
                return reject(inner, replies, id, RejectReason::UnknownTable, echo);
            }
            if indices.is_empty() {
                return reject(inner, replies, id, RejectReason::BadRequest, echo);
            }
            inner.metrics.fanout_hosts.record(1);
            let hop_trace = echo.unwrap_or_else(|| inner.fresh_trace());
            // Span host attr starts at the primary candidate; failover
            // re-labels it with the host that actually serves.
            let primary = inner.candidates[table][0] as u64;
            let route =
                RouteSpans::begin(inner, trace, hop_trace, vec![primary], indices.len() as u64);
            let forward = route
                .as_ref()
                .map_or_else(|| TraceCtx::new(hop_trace), |route| route.forward(0));
            let t0 = Instant::now();
            let served = send_with_failover(inner, table, None, |host| {
                let replies_cb = replies.clone();
                let route_cb = route.clone();
                let route_ns = Arc::clone(&inner.metrics.route_ns);
                let inner_cb = Arc::clone(inner);
                inner.backends[host].generate(
                    table,
                    &indices,
                    deadline,
                    Some(forward),
                    Box::new(move |msg, _| {
                        route_ns.record(t0.elapsed().as_nanos() as u64);
                        note_outcome(&inner_cb, host, &msg);
                        if let Some(route) = &route_cb {
                            route.record_fanout(0);
                            route.record_root();
                        }
                        let response = to_response(msg, &inner_cb.metrics.protocol_violations);
                        replies_cb.send(encode_response_traced(id, &response, echo));
                    }),
                )
            });
            if let (Some(host), Some(route)) = (served, &route) {
                route.set_host(0, host as u64);
            }
            if let Some(route) = &route {
                route.record_admit(Instant::now());
            }
            if served.is_none() {
                reject(inner, replies, id, RejectReason::Internal, echo);
            }
        }
        ClientMsg::Update {
            table,
            indices,
            deltas,
            deadline,
        } => {
            inner.metrics.requests_total.inc();
            // Same placement-aware admission as Generate; the delta shape
            // was already validated at decode, and the owning backend
            // gates update capability per table.
            if table >= inner.placement.tables() {
                return reject(inner, replies, id, RejectReason::UnknownTable, echo);
            }
            if indices.is_empty() {
                return reject(inner, replies, id, RejectReason::BadRequest, echo);
            }
            inner.metrics.fanout_hosts.record(1);
            let hop_trace = echo.unwrap_or_else(|| inner.fresh_trace());
            let primary = inner.candidates[table][0] as u64;
            let route =
                RouteSpans::begin(inner, trace, hop_trace, vec![primary], indices.len() as u64);
            let forward = route
                .as_ref()
                .map_or_else(|| TraceCtx::new(hop_trace), |route| route.forward(0));
            let t0 = Instant::now();
            // Failing a *send* over to a replica is safe for updates:
            // the failed send never delivered a complete frame, and an
            // update that dies after delivery is rejected, not retried.
            let served = send_with_failover(inner, table, None, |host| {
                let replies_cb = replies.clone();
                let route_cb = route.clone();
                let route_ns = Arc::clone(&inner.metrics.route_ns);
                let inner_cb = Arc::clone(inner);
                inner.backends[host].update(
                    table,
                    &indices,
                    &deltas,
                    deadline,
                    Some(forward),
                    Box::new(move |msg, _| {
                        route_ns.record(t0.elapsed().as_nanos() as u64);
                        note_outcome(&inner_cb, host, &msg);
                        if let Some(route) = &route_cb {
                            route.record_fanout(0);
                            route.record_root();
                        }
                        let response = to_response(msg, &inner_cb.metrics.protocol_violations);
                        replies_cb.send(encode_response_traced(id, &response, echo));
                    }),
                )
            });
            if let (Some(host), Some(route)) = (served, &route) {
                route.set_host(0, host as u64);
            }
            if let Some(route) = &route {
                route.record_admit(Instant::now());
            }
            if served.is_none() {
                reject(inner, replies, id, RejectReason::Internal, echo);
            }
        }
        ClientMsg::GenerateMulti { parts, deadline } => {
            dispatch_multi(inner, replies, id, parts, deadline, trace);
        }
        ClientMsg::Traces => {
            // One scrape covers the tier: the router's own spans first,
            // then every backend's (each drain empties its buffer, so a
            // span is reported exactly once across scrapes).
            let mut out = inner.spans.drain_jsonl();
            for backend in &inner.backends {
                match backend.traces_jsonl() {
                    Ok(jsonl) => out.push_str(&jsonl),
                    Err(_) => {
                        // An unreachable backend loses its spans for this
                        // scrape only; the joiner sees a partial timeline
                        // rather than the scrape failing outright.
                    }
                }
            }
            replies.send(encode_traces(id, &out));
        }
        ClientMsg::Tables | ClientMsg::Hello(_) => {
            replies.send(encode_table_list(id, &inner.inventory));
        }
        ClientMsg::Stats => {
            inner.maybe_inline_gossip();
            let json = merged_stats(inner);
            replies.send(encode_stats(id, &json));
        }
        ClientMsg::Metrics => {
            inner.maybe_inline_gossip();
            let text = merged_metrics(inner);
            replies.send(encode_metrics(id, &text));
        }
        ClientMsg::PlanPull => {
            let json = best_plan_json(inner);
            replies.send(encode_plan(id, json.as_deref()));
        }
        ClientMsg::PlanPush(json) => {
            // Fan the plan to the whole fleet; the ack reports the
            // highest epoch any backend reached and every error.
            let mut epoch = 0u64;
            let mut errors = Vec::new();
            for backend in &inner.backends {
                match backend.push_plan(&json) {
                    Ok(e) => epoch = epoch.max(e),
                    Err(e) => errors.push(format!("{}: {e}", backend.name())),
                }
            }
            let ok = errors.is_empty();
            replies.send(encode_plan_ack(id, ok, epoch, &errors.join("; ")));
        }
    }
}

/// Fan a `GenerateMulti` out per placement host and re-assemble the
/// reply in part order once the last group completes.
fn dispatch_multi(
    inner: &Arc<Inner>,
    replies: &ReplySender,
    id: u64,
    parts: Vec<(usize, Vec<u64>)>,
    deadline: Option<Duration>,
    trace: Option<TraceCtx>,
) {
    let echo = trace.map(|t| t.trace_id);
    inner.metrics.requests_total.inc();
    if parts.is_empty() || parts.iter().any(|(_, ix)| ix.is_empty()) {
        return reject(inner, replies, id, RejectReason::BadRequest, echo);
    }
    if parts.iter().any(|(t, _)| *t >= inner.placement.tables()) {
        return reject(inner, replies, id, RejectReason::UnknownTable, echo);
    }
    // Group part indices by *serving* host — the highest-ranked live
    // candidate per table, resolved once per table for this request —
    // preserving part order within each group (and across groups for
    // the single-host fast path).
    let mut host_of_table: HashMap<usize, usize> = HashMap::new();
    let mut group_of_host: Vec<Option<usize>> = vec![None; inner.backends.len()];
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (host, part indices)
    for (part, (table, _)) in parts.iter().enumerate() {
        let host = match host_of_table.get(table) {
            Some(&h) => h,
            None => {
                let Some(h) = inner.pick_host(*table, &[]) else {
                    return reject(inner, replies, id, RejectReason::Internal, echo);
                };
                host_of_table.insert(*table, h);
                h
            }
        };
        match group_of_host[host] {
            Some(g) => groups[g].1.push(part),
            None => {
                group_of_host[host] = Some(groups.len());
                groups.push((host, vec![part]));
            }
        }
    }
    inner.metrics.fanout_hosts.record(groups.len() as u64);
    let hop_trace = echo.unwrap_or_else(|| inner.fresh_trace());
    let total_queries: u64 = parts.iter().map(|(_, ix)| ix.len() as u64).sum();
    let route = RouteSpans::begin(
        inner,
        trace,
        hop_trace,
        groups.iter().map(|(h, _)| *h as u64).collect(),
        total_queries,
    );
    let t0 = Instant::now();
    if let [(host, _)] = groups.as_slice() {
        // Single host: forward unsplit; part order is already reply
        // order. `GenerateMulti` is read-only, so a failed send walks
        // the candidate list like `Generate` does.
        let forward = route
            .as_ref()
            .map_or_else(|| TraceCtx::new(hop_trace), |route| route.forward(0));
        let first_table = parts[0].0;
        let served = send_with_failover(inner, first_table, Some(*host), |h| {
            let replies_cb = replies.clone();
            let route_cb = route.clone();
            let route_ns = Arc::clone(&inner.metrics.route_ns);
            let inner_cb = Arc::clone(inner);
            inner.backends[h].generate_multi(
                &parts,
                deadline,
                Some(forward),
                Box::new(move |msg, _| {
                    route_ns.record(t0.elapsed().as_nanos() as u64);
                    note_outcome(&inner_cb, h, &msg);
                    if let Some(route) = &route_cb {
                        route.record_fanout(0);
                        route.record_root();
                    }
                    let response = to_response(msg, &inner_cb.metrics.protocol_violations);
                    replies_cb.send(encode_response_traced(id, &response, echo));
                }),
            )
        });
        if let (Some(h), Some(route)) = (served, &route) {
            route.set_host(0, h as u64);
        }
        if let Some(route) = &route {
            route.record_admit(Instant::now());
        }
        if served.is_none() {
            reject(inner, replies, id, RejectReason::Internal, echo);
        }
        return;
    }
    let part_lens: Vec<usize> = parts.iter().map(|(_, ix)| ix.len()).collect();
    let group_parts: Vec<Vec<usize>> = groups.iter().map(|(_, p)| p.clone()).collect();
    let state: Arc<Mutex<(Vec<Option<ServerMsg>>, usize)>> =
        Arc::new(Mutex::new((vec![None; groups.len()], groups.len())));
    for (g, (host, part_idxs)) in groups.iter().enumerate() {
        let group: Vec<(usize, Vec<u64>)> = part_idxs
            .iter()
            .map(|&p| (parts[p].0, parts[p].1.clone()))
            .collect();
        let forward = route
            .as_ref()
            .map_or_else(|| TraceCtx::new(hop_trace), |route| route.forward(g));
        // A group whose send fails walks the candidate list of its first
        // part's table (every backend is a full replica, so any live
        // host can serve the whole group). `GenerateMulti` is read-only.
        let group_table = parts[part_idxs[0]].0;
        let served = send_with_failover(inner, group_table, Some(*host), |h| {
            let replies_cb = replies.clone();
            let inner_cb = Arc::clone(inner);
            let state_cb = Arc::clone(&state);
            let route_cb = route.clone();
            let group_parts = group_parts.clone();
            let part_lens = part_lens.clone();
            inner.backends[h].generate_multi(
                &group,
                deadline,
                Some(forward),
                Box::new(move |msg, _| {
                    // This hop's fanout span closes when its reply lands,
                    // whether or not it is the last one home.
                    if let Some(route) = &route_cb {
                        route.record_fanout(g);
                    }
                    note_outcome(&inner_cb, h, &msg);
                    let mut guard = lock_unpoisoned(&state_cb);
                    if guard.0[g].is_some() {
                        // Two replies landed for one group: a protocol
                        // violation. Keep the first; decrementing the
                        // countdown twice would underflow (the old
                        // `expect("every part filled")` panic class).
                        inner_cb.metrics.protocol_violations.inc();
                        return;
                    }
                    guard.0[g] = Some(msg);
                    guard.1 -= 1;
                    if guard.1 > 0 {
                        return;
                    }
                    // A group slot can only be empty if a completion path
                    // was skipped (e.g. a callback thread died mid-flight);
                    // degrade that group to a rejection rather than taking
                    // the whole connection down with a panic.
                    let results: Vec<ServerMsg> = guard
                        .0
                        .drain(..)
                        .map(|r| r.unwrap_or(ServerMsg::Rejected(RejectReason::Internal)))
                        .collect();
                    drop(guard);
                    inner_cb
                        .metrics
                        .route_ns
                        .record(t0.elapsed().as_nanos() as u64);
                    let m0 = Instant::now();
                    let merged = merge_groups(
                        &group_parts,
                        &part_lens,
                        results,
                        &inner_cb.metrics.protocol_violations,
                    );
                    let m1 = Instant::now();
                    inner_cb
                        .metrics
                        .merge_ns
                        .record((m1 - m0).as_nanos() as u64);
                    if let Some(route) = &route_cb {
                        route.record_merge(m0, m1);
                        route.record_root();
                    }
                    replies_cb.send(encode_response_traced(id, &merged, echo));
                }),
            )
        });
        match served {
            Some(h) => {
                if let Some(route) = &route {
                    route.set_host(g, h as u64);
                }
            }
            None => {
                // No replica could take the group: deliver its failure
                // through the normal completion path so the merge still
                // runs exactly once.
                let mut guard = lock_unpoisoned(&state);
                if guard.0[g].is_none() {
                    guard.0[g] = Some(ServerMsg::Rejected(RejectReason::Internal));
                    guard.1 -= 1;
                    if guard.1 == 0 {
                        drop(guard);
                        replies.send(encode_response_traced(
                            id,
                            &Response::Rejected(RejectReason::Internal),
                            echo,
                        ));
                    }
                }
            }
        }
    }
    if let Some(route) = &route {
        route.record_admit(Instant::now());
    }
}

/// Re-assembles per-host group replies into one part-ordered response.
/// The first rejection (by the smallest original part index it covers)
/// rejects the whole request; stage breakdowns merge by per-stage max,
/// since the groups ran concurrently. Malformed reply sets — a frame
/// kind that is neither embeddings nor rejection, a part filled twice,
/// a part never filled — count a protocol violation and reject the
/// request instead of panicking the dispatch path.
fn merge_groups(
    group_parts: &[Vec<usize>],
    part_lens: &[usize],
    results: Vec<ServerMsg>,
    violations: &Counter,
) -> Response {
    let mut reject: Option<(usize, RejectReason)> = None;
    for (g, result) in results.iter().enumerate() {
        let reason = match result {
            ServerMsg::Embeddings(..) => continue,
            ServerMsg::Rejected(reason) => *reason,
            _ => {
                violations.inc();
                RejectReason::Internal
            }
        };
        let first_part = group_parts[g].first().copied().unwrap_or(usize::MAX);
        if reject.is_none_or(|(p, _)| first_part < p) {
            reject = Some((first_part, reason));
        }
    }
    if let Some((_, reason)) = reject {
        return Response::Rejected(reason);
    }
    let mut cols = None;
    let mut stages = StageBreakdown::default();
    let mut part_rows: Vec<Option<Vec<f32>>> = vec![None; part_lens.len()];
    for (g, result) in results.into_iter().enumerate() {
        let ServerMsg::Embeddings(m, s) = result else {
            // Unreachable if the scan above was exhaustive, but a
            // malformed frame must degrade, not panic, this path.
            violations.inc();
            return Response::Rejected(RejectReason::Internal);
        };
        if *cols.get_or_insert(m.cols()) != m.cols() {
            // Heterogeneous dimensions cannot share a reply matrix.
            return Response::Rejected(RejectReason::BadRequest);
        }
        let expected: usize = group_parts[g].iter().map(|&p| part_lens[p]).sum();
        if m.rows() != expected {
            return Response::Rejected(RejectReason::Internal);
        }
        for (i, ns) in s.ns.iter().enumerate() {
            stages.ns[i] = stages.ns[i].max(*ns);
        }
        let data = m.as_slice();
        let width = m.cols();
        let mut offset = 0;
        for &p in &group_parts[g] {
            if part_rows[p].is_some() {
                // Two groups claim the same part (a duplicate reply or a
                // corrupted grouping): reject rather than serve one
                // part's rows under another's index.
                violations.inc();
                return Response::Rejected(RejectReason::Internal);
            }
            let take = part_lens[p] * width;
            part_rows[p] = Some(data[offset..offset + take].to_vec());
            offset += take;
        }
    }
    let cols = cols.unwrap_or(0);
    let mut data = Vec::with_capacity(part_lens.iter().sum::<usize>() * cols);
    for rows in part_rows {
        let Some(rows) = rows else {
            // A part no group filled: the reply set does not cover the
            // request. Degrade to a rejection.
            violations.inc();
            return Response::Rejected(RejectReason::Internal);
        };
        data.extend_from_slice(&rows);
    }
    let rows = part_lens.iter().sum::<usize>();
    Response::Embeddings(Matrix::from_vec(rows, cols, data), stages)
}

/// One stats snapshot covering the whole tier: the router's placement
/// plus every backend's own snapshot (and the plan version each one
/// reports, so convergence is visible in a single scrape).
fn merged_stats(inner: &Inner) -> String {
    let mut entries = Vec::with_capacity(inner.backends.len());
    let mut versions = Vec::with_capacity(inner.backends.len());
    for backend in &inner.backends {
        match backend.stats_json() {
            Ok(json) => {
                let parsed = json::parse(&json).unwrap_or(Value::Null);
                let version = parsed
                    .get("plan")
                    .and_then(|p| p.get("version"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                versions.push(Value::Num(version as f64));
                entries.push(Value::obj([
                    ("name", Value::Str(backend.name().to_string())),
                    ("stats", parsed),
                ]));
            }
            Err(e) => {
                versions.push(Value::Num(0.0));
                entries.push(Value::obj([
                    ("name", Value::Str(backend.name().to_string())),
                    ("error", Value::Str(e.to_string())),
                ]));
            }
        }
    }
    Value::obj([
        ("role", Value::Str("router".to_string())),
        ("backends", Value::Arr(entries)),
        ("placement", inner.placement.to_value()),
        ("plan_versions", Value::Arr(versions)),
    ])
    .to_compact()
}

/// One metrics exposition covering the whole tier: the router's own
/// `router_*` series followed by every backend's exposition with a
/// `backend="<name>"` label injected into each sample line.
fn merged_metrics(inner: &Inner) -> String {
    let mut out = inner.registry.snapshot().render_prometheus("secemb_");
    for backend in &inner.backends {
        match backend.metrics_text() {
            Ok(text) => out.push_str(&inject_backend_label(&text, backend.name())),
            Err(e) => {
                out.push_str(&format!("# backend {} unreachable: {e}\n", backend.name()));
            }
        }
    }
    out
}

/// Adds `backend="<name>"` to every sample line of a Prometheus text
/// exposition (comment lines pass through).
fn inject_backend_label(text: &str, backend: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            out.push_str(line);
        } else if let Some(brace) = line.find('{') {
            let (head, rest) = line.split_at(brace + 1);
            out.push_str(head);
            let _ = write!(out, "backend=\"{backend}\"");
            if !rest.starts_with('}') {
                out.push(',');
            }
            out.push_str(rest);
        } else if let Some(space) = line.find(' ') {
            let (name, rest) = line.split_at(space);
            let _ = write!(out, "{name}{{backend=\"{backend}\"}}{rest}");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The highest-versioned plan any backend reports, if any — what a
/// `PlanPull` through the router answers with.
fn best_plan_json(inner: &Inner) -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for backend in &inner.backends {
        if let Ok(Some(json)) = backend.plan_json() {
            if let Ok(plan) = AllocationPlan::from_json(&json) {
                if best.as_ref().is_none_or(|(v, _)| plan.version > *v) {
                    best = Some((plan.version, json));
                }
            }
        }
    }
    best.map(|(_, json)| json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_label_injection_covers_every_line_shape() {
        let text =
            "# TYPE secemb_x counter\nsecemb_x 3\nsecemb_y{stage=\"admit\"} 1\nsecemb_z{} 2\n";
        let injected = inject_backend_label(text, "b0");
        assert!(injected.contains("# TYPE secemb_x counter\n"));
        assert!(injected.contains("secemb_x{backend=\"b0\"} 3\n"));
        assert!(injected.contains("secemb_y{backend=\"b0\",stage=\"admit\"} 1\n"));
        assert!(injected.contains("secemb_z{backend=\"b0\"} 2\n"));
    }

    fn test_counter() -> Arc<Counter> {
        Registry::new().counter("test_violations")
    }

    #[test]
    fn group_merge_reassembles_part_order_and_rejects_first() {
        // Parts 0 and 2 on one host, part 1 on another: reassembly must
        // interleave the rows back into 0, 1, 2 order.
        let group_parts = vec![vec![0, 2], vec![1]];
        let part_lens = vec![1, 1, 1];
        let cols = 2;
        let m_a = Matrix::from_vec(2, cols, vec![0.0, 0.0, 2.0, 2.0]);
        let m_b = Matrix::from_vec(1, cols, vec![1.0, 1.0]);
        let mut s_a = StageBreakdown::default();
        s_a.ns[3] = 100;
        let mut s_b = StageBreakdown::default();
        s_b.ns[3] = 40;
        s_b.ns[1] = 7;
        let violations = test_counter();
        let merged = merge_groups(
            &group_parts,
            &part_lens,
            vec![
                ServerMsg::Embeddings(m_a, s_a),
                ServerMsg::Embeddings(m_b, s_b),
            ],
            &violations,
        );
        let Response::Embeddings(m, stages) = merged else {
            panic!("expected embeddings");
        };
        assert_eq!(m.rows(), 3);
        assert_eq!(
            m.as_slice(),
            &[0.0, 0.0, 1.0, 1.0, 2.0, 2.0],
            "rows must come back in part order, not group order"
        );
        assert_eq!(stages.ns[3], 100, "stage merge takes the max");
        assert_eq!(stages.ns[1], 7);
        assert_eq!(violations.get(), 0, "clean merge counts no violations");

        // A rejection wins by earliest part it covers: group B holds
        // part 1, group A holds parts 0 and 2 — A's reason wins.
        let merged = merge_groups(
            &group_parts,
            &part_lens,
            vec![
                ServerMsg::Rejected(RejectReason::QueueFull),
                ServerMsg::Rejected(RejectReason::DeadlineUnmeetable),
            ],
            &violations,
        );
        assert_eq!(merged, Response::Rejected(RejectReason::QueueFull));
    }

    #[test]
    fn unexpected_frame_where_embeddings_were_due_degrades_and_counts() {
        // The regression the panic fix is for: a backend answers a
        // generate slot with a *stats* frame. to_response must degrade
        // to Rejected(Internal) and count the violation, not panic.
        let violations = test_counter();
        let resp = to_response(ServerMsg::Stats("{}".to_string()), &violations);
        assert_eq!(resp, Response::Rejected(RejectReason::Internal));
        assert_eq!(violations.get(), 1);

        // Same malformed frame inside a multi-part merge.
        let group_parts = vec![vec![0], vec![1]];
        let part_lens = vec![1, 1];
        let merged = merge_groups(
            &group_parts,
            &part_lens,
            vec![
                ServerMsg::Embeddings(
                    Matrix::from_vec(1, 2, vec![0.0; 2]),
                    StageBreakdown::default(),
                ),
                ServerMsg::Stats("{}".to_string()),
            ],
            &violations,
        );
        assert_eq!(merged, Response::Rejected(RejectReason::Internal));
        assert_eq!(violations.get(), 2);

        // Legitimate replies never count.
        let v2 = test_counter();
        let _ = to_response(ServerMsg::Rejected(RejectReason::QueueFull), &v2);
        let _ = to_response(
            ServerMsg::Embeddings(Matrix::from_vec(1, 1, vec![0.0]), StageBreakdown::default()),
            &v2,
        );
        assert_eq!(v2.get(), 0);
    }

    #[test]
    fn duplicate_part_fill_rejects_instead_of_panicking() {
        // Two groups both claim part 0 (a duplicate reply per part id):
        // the old path panicked on `expect("every part filled")` for
        // part 1; the merge must reject and count instead.
        let group_parts = vec![vec![0], vec![0]];
        let part_lens = vec![1, 1];
        let violations = test_counter();
        let mk = || {
            ServerMsg::Embeddings(
                Matrix::from_vec(1, 2, vec![1.0, 2.0]),
                StageBreakdown::default(),
            )
        };
        let merged = merge_groups(&group_parts, &part_lens, vec![mk(), mk()], &violations);
        assert_eq!(merged, Response::Rejected(RejectReason::Internal));
        assert_eq!(violations.get(), 1);

        // A part no group covers (reply set does not span the request)
        // is the dual failure: also reject + count, not panic.
        let gp = vec![vec![0]];
        let merged = merge_groups(&gp, &part_lens, vec![mk()], &violations);
        assert_eq!(merged, Response::Rejected(RejectReason::Internal));
        assert_eq!(violations.get(), 2);
    }
}
