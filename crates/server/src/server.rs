//! The page service: an acceptor and one thread per connection over
//! one shared [`BufferPool`].
//!
//! Each connection thread runs its requests to completion: it reads
//! and decodes a frame, takes an execution slot from the admission gate
//! ([`ExecGate`], where overload policy is applied), executes the
//! request against its own long-lived [`PoolSession`] — the per-thread
//! state BP-Wrapper's batching needs to amortize the replacement lock —
//! and writes the reply. No request changes threads on the way, so the
//! data path pays no hand-off. The gate bounds how many requests
//! execute at once (`workers`) and how many wait (`queue_capacity`).
//! A connection idle at a frame boundary for [`IDLE_COMMIT`] commits
//! its session's deferred accesses, so the replacement policy does not
//! go stale between bursts.
//!
//! `STATS`, `METRICS`, and `SHUTDOWN` skip the gate: observability and
//! control must keep working when the data path is saturated.

use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bpw_bufferpool::{
    BufferPool, ClockManager, CoarseManager, FaultPlan, FaultyDisk, PoolSession,
    ReplacementManager, SimDisk, Storage, SwapManager, WrappedManager,
};
use bpw_core::{Combining, WrapperConfig};
use bpw_metrics::JsonObject;
use bpw_replacement::{Advisor, AdvisorConfig, PolicyKind, SampleTap};

use crate::backpressure::{AdmissionPolicy, ExecGate, Refused};
use crate::metrics::{OpKind, PoolCounters, ServerMetrics, Stage, StatsSnapshot};
use crate::protocol::{self, fnv1a, Request, Response};

/// A buffer pool whose synchronization scheme was chosen at runtime.
pub type DynPool = BufferPool<Box<dyn ReplacementManager>>;

/// Everything needed to start a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Requests that may execute at once: the admission gate's
    /// execution slots.
    pub workers: usize,
    /// Requests that may wait for an execution slot: the gate's waiting
    /// room.
    pub queue_capacity: usize,
    /// Overload policy.
    pub policy: AdmissionPolicy,
    /// Buffer pool frames.
    pub frames: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Page-id universe; requests beyond `0..pages` get `ERR`.
    pub pages: u64,
    /// Manager spec, e.g. `"wrapped-2q"` (see [`build_manager`]).
    pub manager: String,
    /// Combining commit mode for `wrapped-*` managers
    /// (`--combining off|overflow|flat`): `overflow` publishes only
    /// when a queue fills against a busy lock; `flat` publishes on any
    /// contended threshold crossing and lock holders drain every
    /// pending slot. Off by default (paper-faithful baseline).
    pub combining: Combining,
    /// Override the miss-path partition width (`Some(1)` restores the
    /// seed's single global miss lock; `None` keeps the default of one
    /// lock per page-table shard).
    pub miss_shards: Option<usize>,
    /// When set, the simulated disk is wrapped in a [`FaultyDisk`]
    /// driven by this plan (chaos testing; see
    /// [`Server::faulty_disk`]).
    pub fault_plan: Option<FaultPlan>,
    /// Latency SLO in microseconds (`--slo-us`). When set, tracing is
    /// enabled, the flight recorder arms, and any request slower than
    /// this (or ending `ERR_IO`) is captured as an exemplar fetchable
    /// via `EXEMPLARS`. `None` keeps the recorder off and tracing
    /// untouched.
    pub slo_us: Option<u64>,
    /// `--adaptive true`: wrap the (necessarily `wrapped-*`) manager in a
    /// [`SwapManager`], sample the fetch stream into shadow caches, and
    /// let the advisor thread hot-swap the policy when a challenger
    /// sustainably wins. ADVISOR state is exported via STATS/METRICS.
    pub adaptive: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 256,
            policy: AdmissionPolicy::Block,
            frames: 1024,
            page_size: 4096,
            pages: 1 << 20,
            manager: "wrapped-2q".into(),
            combining: Combining::Off,
            miss_shards: None,
            fault_plan: None,
            slo_us: None,
            adaptive: false,
        }
    }
}

/// Request-scoped identity, minted once a data request is decoded, so
/// every layer (gate, pool, commit, reply) can stamp its trace events
/// and stage samples with the owning request.
#[derive(Debug, Clone, Copy)]
struct RequestCtx {
    /// Process-unique request id (never 0 — 0 means "unattributed").
    id: u64,
    /// The owning connection's id.
    conn: u64,
    /// The request's opcode byte.
    opcode: u8,
}

static NEXT_REQUEST_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
static NEXT_CONN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Mint a process-unique request id (monotonic, starts at 1).
fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Mint a process-unique connection id (monotonic, starts at 1).
fn next_conn_id() -> u64 {
    NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Build a replacement manager from a spec string:
///
/// * `clock` — PostgreSQL-style CLOCK with lock-free hits
/// * `coarse-<policy>` — `<policy>` behind one lock per access
/// * `wrapped-<policy>` — `<policy>` behind BP-Wrapper
///
/// where `<policy>` is anything [`PolicyKind`] parses (`2q`, `lirs`,
/// `lru`, `arc`, ...).
pub fn build_manager(spec: &str, frames: usize) -> Result<Box<dyn ReplacementManager>, String> {
    build_manager_with(spec, frames, WrapperConfig::default())
}

/// [`build_manager`] with an explicit [`WrapperConfig`] for `wrapped-*`
/// specs (`clock` and `coarse-*` ignore it).
pub fn build_manager_with(
    spec: &str,
    frames: usize,
    wrapper: WrapperConfig,
) -> Result<Box<dyn ReplacementManager>, String> {
    let spec = spec.trim().to_ascii_lowercase();
    if spec == "clock" {
        return Ok(Box::new(ClockManager::new(frames)));
    }
    if let Some(policy) = spec.strip_prefix("coarse-") {
        let kind: PolicyKind = policy.parse()?;
        return Ok(Box::new(CoarseManager::new(kind.build(frames))));
    }
    if let Some(policy) = spec.strip_prefix("wrapped-") {
        let kind: PolicyKind = policy.parse()?;
        return Ok(Box::new(WrappedManager::new(kind.build(frames), wrapper)));
    }
    Err(format!(
        "unknown manager spec {spec:?} (want clock, coarse-<policy>, or wrapped-<policy>)"
    ))
}

/// Adaptive-replacement state shared between the advisor thread and the
/// STATS/METRICS renderers.
struct AdaptiveShared {
    /// The hot-swappable manager (the pool's `Box<dyn ReplacementManager>`
    /// forwards `swap_to` into this same instance via its `Arc`).
    swap: Arc<SwapManager>,
    /// Expert scorer; the advisor thread holds this lock only while
    /// feeding drained samples, never across a swap.
    advisor: Mutex<Advisor>,
    /// The lossy sampled-access ring the fetch path feeds.
    tap: Arc<SampleTap>,
}

/// Shared state every thread of the server sees: the acceptor, every
/// connection thread and the advisor.
struct Shared {
    pool: Arc<DynPool>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    pages: u64,
    /// The gate's waiting-room high-water mark.
    depth: Arc<bpw_metrics::MaxGauge>,
    /// Seqlock-cached pool-side aggregation for STATS/METRICS: one
    /// scrape per [`STATS_TTL`] pays the counter walk; the rest read
    /// the published snapshot without touching data-path cache lines.
    stats_cache: bpw_metrics::SnapshotCache<StatsSnapshot>,
    /// Present when the config enabled `--adaptive`.
    adaptive: Option<Arc<AdaptiveShared>>,
}

/// How long a session sits idle before committing its deferred
/// BP-Wrapper accesses: the connection thread's socket read timeout at
/// a frame boundary.
const IDLE_COMMIT: Duration = Duration::from_millis(50);

/// How long a published [`StatsSnapshot`] is served before a scrape
/// re-aggregates. Short enough that monitoring stays fresh; long enough
/// that a scrape storm (many Prometheus pollers, dashboards) costs the
/// data path one walk per interval instead of one per scrape.
const STATS_TTL: Duration = Duration::from_millis(10);

/// Monotone nanoseconds since the first call (the clock handed to the
/// snapshot cache; `Instant` itself cannot live in an atomic).
fn scrape_clock_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Shared {
    /// The current pool-side scalar snapshot, at most [`STATS_TTL`]
    /// stale, aggregating under the seqlock when it is older.
    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats_cache
            .get(scrape_clock_ns(), STATS_TTL.as_nanos() as u64, || {
                self.aggregate_stats()
            })
    }

    /// The uncached aggregation walk: every pool/lock scalar a scrape
    /// renders. This is the work the seqlock cache amortizes.
    fn aggregate_stats(&self) -> StatsSnapshot {
        let stats = self.pool.stats();
        StatsSnapshot {
            pool: PoolCounters {
                hits: stats.hits.load(Ordering::Relaxed),
                misses: stats.misses.load(Ordering::Relaxed),
                writebacks: stats.writebacks.load(Ordering::Relaxed),
                io_retries: stats.io_retries.load(Ordering::Relaxed),
                io_errors: stats.io_errors.load(Ordering::Relaxed),
                free_list_steals: self.pool.free_list_steals(),
                free_list_cold_pushes: self.pool.free_list_cold_pushes(),
                pin_cas_retries: stats.pin_cas_retries.load(Ordering::Relaxed),
                pin_underflows: stats.pin_underflows.load(Ordering::Relaxed),
                page_table_fallback_reads: self.pool.page_table_fallback_reads(),
            },
            lock: self.pool.manager().lock_snapshot(),
            miss_lock: self.pool.miss_lock_snapshot(),
            miss_locks: self.pool.miss_lock_summary(),
            combining: self.pool.manager().combining_snapshot(),
            peak_queue_depth: self.depth.get(),
        }
    }
}

/// A running page service. Dropping without [`join`](Self::join) leaks
/// the threads; tests and binaries should always join.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Present when the config asked for fault injection; tests and the
    /// chaos driver use it to steer faults mid-run.
    faulty: Option<Arc<FaultyDisk>>,
    /// The execution gate every data request passes.
    gate: Arc<ExecGate>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Ring-trim janitor (present when `slo_us` armed the flight
    /// recorder): the trace rings drop-and-count on overflow, so a
    /// steady-state server would stop capturing NEW events once they
    /// fill. The janitor keeps a recent window live by discarding
    /// events older than ~1s.
    janitor: Option<JoinHandle<()>>,
    /// True when this server armed the flight recorder (and therefore
    /// owns disarming it on join).
    armed_flight: bool,
    /// Advisor thread (present with `--adaptive`): drains the sample
    /// tap, scores shadow caches, and hot-swaps the winning policy.
    advisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor, and return.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let wrapper = WrapperConfig::default().with_combining_mode(config.combining);
        let manager = build_manager_with(&config.manager, config.frames, wrapper)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        // Adaptive mode: interpose the hot-swap layer and set up the
        // sampled tap + expert scorer. Only wrapped-* managers make
        // sense to adapt between (the advisor swaps among them).
        let mut adaptive = None;
        let manager: Box<dyn ReplacementManager> = if config.adaptive {
            let incumbent: PolicyKind = config
                .manager
                .trim()
                .to_ascii_lowercase()
                .strip_prefix("wrapped-")
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "--adaptive requires a wrapped-<policy> manager",
                    )
                })?
                .parse()
                .map_err(|e: String| io::Error::new(io::ErrorKind::InvalidInput, e))?;
            let advisor_cfg = AdvisorConfig {
                shadow_frames: config.frames.min(256),
                window: 256,
                sample_period: 4,
                ..AdvisorConfig::default()
            };
            let candidates = [
                PolicyKind::Lru,
                PolicyKind::TwoQ,
                PolicyKind::Lirs,
                PolicyKind::Arc,
            ];
            let swap = Arc::new(SwapManager::new(manager));
            let state = Arc::new(AdaptiveShared {
                swap: Arc::clone(&swap),
                advisor: Mutex::new(Advisor::new(&candidates, incumbent, advisor_cfg)),
                tap: Arc::new(SampleTap::new(advisor_cfg.sample_period, 4096)),
            });
            adaptive = Some(state);
            Box::new(swap)
        } else {
            manager
        };
        let mut faulty = None;
        let storage: Arc<dyn Storage> = match config.fault_plan {
            Some(plan) => {
                let disk = Arc::new(FaultyDisk::new(Arc::new(SimDisk::instant()), plan));
                faulty = Some(Arc::clone(&disk));
                disk
            }
            None => Arc::new(SimDisk::instant()),
        };
        let mut pool = BufferPool::new(config.frames, config.page_size, manager, storage);
        if let Some(shards) = config.miss_shards {
            pool = pool.with_miss_shards(shards);
        }
        if let Some(state) = &adaptive {
            pool = pool.with_sample_tap(Arc::clone(&state.tap));
        }
        let pool = Arc::new(pool);
        let gate = Arc::new(ExecGate::new(
            config.workers,
            config.queue_capacity,
            config.policy,
        ));
        let shared = Arc::new(Shared {
            pool,
            metrics: ServerMetrics::shared(),
            stop: Arc::new(AtomicBool::new(false)),
            pages: config.pages,
            depth: gate.depth_gauge(),
            stats_cache: bpw_metrics::SnapshotCache::default(),
            adaptive,
        });

        // Advisor thread: drain the tap, feed the shadow caches, and
        // hot-swap when a challenger sustainably beats the incumbent.
        // The swap itself goes through `BufferPool::swap_manager`, which
        // freezes residency under the miss-shard locks.
        let advisor = shared.adaptive.as_ref().map(|state| {
            let state = Arc::clone(state);
            let shared = Arc::clone(&shared);
            let frames = config.frames;
            thread::Builder::new()
                .name("bpw-advisor".into())
                .spawn(move || {
                    let mut buf = Vec::new();
                    while !shared.stop.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(2));
                        buf.clear();
                        state.tap.drain(&mut buf);
                        let nominated = {
                            let mut adv = state.advisor.lock().expect("advisor lock");
                            for &p in &buf {
                                adv.observe(p);
                            }
                            adv.nominate()
                        };
                        if let Some(kind) = nominated {
                            let spec = format!("wrapped-{}", kind.name().to_ascii_lowercase());
                            let next = build_manager_with(&spec, frames, wrapper)
                                .expect("nominated policies always build");
                            if shared.pool.swap_manager(next).is_some() {
                                state.advisor.lock().expect("advisor lock").adopt(kind);
                            }
                        }
                    }
                })
                .expect("spawn advisor")
        });

        let mut janitor = None;
        let armed_flight = config.slo_us.is_some();
        if let Some(slo_us) = config.slo_us {
            bpw_trace::flight::arm(
                slo_us.saturating_mul(1_000),
                bpw_trace::flight::DEFAULT_EXEMPLAR_CAPACITY,
            );
            bpw_trace::set_enabled(true);
            let stop = Arc::clone(&shared.stop);
            janitor = Some(
                thread::Builder::new()
                    .name("bpw-trace-janitor".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            thread::sleep(Duration::from_millis(25));
                            bpw_trace::trim_older_than(1_000_000_000);
                        }
                    })
                    .expect("spawn trace janitor"),
            );
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (shared, gate, conns) =
                (Arc::clone(&shared), Arc::clone(&gate), Arc::clone(&conns));
            thread::Builder::new()
                .name("bpw-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, &gate, &conns))
                .expect("spawn acceptor")
        };

        Ok(Server {
            addr,
            shared,
            faulty,
            gate,
            acceptor: Some(acceptor),
            conns,
            janitor,
            armed_flight,
            advisor,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics (shared with all threads).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.shared.metrics
    }

    /// The underlying buffer pool.
    pub fn pool(&self) -> &Arc<DynPool> {
        &self.shared.pool
    }

    /// The fault-injecting disk, when the config enabled one.
    pub fn faulty_disk(&self) -> Option<&Arc<FaultyDisk>> {
        self.faulty.as_ref()
    }

    /// The hot-swap layer, when the config enabled `--adaptive`. Tests
    /// use this to drive swaps directly and read swap/migration counts.
    pub fn adaptive_swap(&self) -> Option<&Arc<SwapManager>> {
        self.shared.adaptive.as_ref().map(|a| &a.swap)
    }

    /// The execution gate. Tests read its slot high-water mark to check
    /// the `workers` bound.
    pub fn exec_gate(&self) -> &Arc<ExecGate> {
        &self.gate
    }

    /// Render the same JSON a `STATS` request returns.
    pub fn stats_json(&self) -> String {
        stats_json(&self.shared)
    }

    /// Render the same text a `METRICS` request returns.
    pub fn metrics_text(&self) -> String {
        metrics_text(&self.shared)
    }

    /// Has a stop been requested (via [`stop`](Self::stop) or a client
    /// `SHUTDOWN`)?
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Block until a stop is requested.
    pub fn wait_stop_requested(&self) {
        while !self.stop_requested() {
            thread::sleep(Duration::from_millis(25));
        }
    }

    /// Ask the server to stop accepting new connections.
    pub fn stop(&self) {
        request_stop(&self.shared.stop, self.addr);
    }

    /// Stop accepting, wait for live connections to finish, and join
    /// every thread.
    pub fn join(mut self) {
        self.stop();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Connection threads exit when their client closes.
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for c in conns {
            let _ = c.join();
        }
        if let Some(j) = self.janitor.take() {
            let _ = j.join();
        }
        if let Some(a) = self.advisor.take() {
            let _ = a.join();
        }
        if self.armed_flight {
            // This server turned the recorder (and tracing) on; leave
            // the process the way we found it so tests sharing the
            // global collector don't observe a stray armed recorder.
            bpw_trace::flight::disarm();
            bpw_trace::set_enabled(false);
        }
    }
}

/// Flag a stop and poke the acceptor awake with a throwaway connection.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    if let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        drop(s);
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    gate: &Arc<ExecGate>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let gate = Arc::clone(gate);
        let addr = listener.local_addr().expect("listener addr");
        let handle = thread::Builder::new()
            .name("bpw-conn".into())
            .spawn(move || {
                shared.metrics.connections_open.incr();
                let _ = serve_connection(stream, &shared, &gate, addr);
                shared.metrics.connections_open.decr();
            })
            .expect("spawn connection thread");
        conns.lock().expect("conns lock").push(handle);
    }
}

/// One client connection: strict request/reply in order, each data
/// request executed right here once the gate grants it a slot.
fn serve_connection(
    stream: TcpStream,
    shared: &Shared,
    gate: &ExecGate,
    addr: SocketAddr,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // The read timeout is how an idle connection notices it is idle.
    stream.set_read_timeout(Some(IDLE_COMMIT))?;
    let conn_id = next_conn_id();
    let mut session = shared.pool.session();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    // Idle at a frame boundary: commit deferred BP-Wrapper accesses so
    // the replacement policy doesn't go stale between bursts.
    while protocol::read_frame_or_idle(&mut reader, &mut buf, &mut || session.flush())? {
        // The request clock starts when its frame is fully read — queue
        // wait and every later stage are measured against this instant.
        let admitted = Instant::now();
        let req = match Request::decode(&buf) {
            Ok(req) => req,
            Err(e) => {
                shared.metrics.errors.incr();
                protocol::write_frame(&mut writer, &Response::Err(e.to_string()).encode())?;
                break; // framing is suspect; drop the connection
            }
        };
        let decode_ns = admitted.elapsed().as_nanos() as u64;
        match req {
            Request::Stats => {
                let resp = Response::Ok(stats_json(shared).into_bytes());
                protocol::write_frame(&mut writer, &resp.encode())?;
                continue;
            }
            Request::Metrics => {
                let resp = Response::Ok(metrics_text(shared).into_bytes());
                protocol::write_frame(&mut writer, &resp.encode())?;
                continue;
            }
            Request::Exemplars => {
                let resp = Response::Ok(bpw_trace::flight::exemplars_json().into_bytes());
                protocol::write_frame(&mut writer, &resp.encode())?;
                continue;
            }
            Request::Shutdown => {
                // Flag the stop before acknowledging: a client that has
                // seen the OK must observe `stop_requested()` as true.
                request_stop(&shared.stop, addr);
                protocol::write_frame(&mut writer, &Response::Ok(Vec::new()).encode())?;
                writer.flush()?;
                continue;
            }
            _ => {}
        }
        let kind = op_kind(&req).expect("control requests are handled above");
        let ctx = RequestCtx {
            id: next_request_id(),
            conn: conn_id,
            opcode: req.opcode(),
        };
        shared.metrics.record_stage(kind, Stage::Decode, decode_ns);
        // Everything this thread records from here to the reply belongs
        // to this request.
        bpw_trace::set_current_request(ctx.id);
        bpw_trace::instant(bpw_trace::EventKind::ServerEnqueue, req.opcode() as u64);
        // The permit is held for execution only, not the reply write.
        let resp = match gate.enter(admitted) {
            Ok(_permit) => execute_admitted(&mut session, shared, &req, kind, admitted),
            Err(Refused::Busy) => Response::Busy,
            Err(Refused::Expired) => Response::Dropped,
        };
        let flush_t0 = Instant::now();
        let frame = resp.encode();
        // Count the reply before it leaves: a client that has read it
        // must find it in STATS.
        match &resp {
            Response::Ok(_) => shared.metrics.record_ok(kind, admitted),
            Response::Busy => shared.metrics.busy.incr(),
            Response::Dropped => shared.metrics.dropped.incr(),
            Response::Err(_) => shared.metrics.errors.incr(),
            Response::IoError(_) => shared.metrics.io_errors.incr(),
        }
        protocol::write_frame(&mut writer, &frame)?;
        shared.metrics.record_stage(
            kind,
            Stage::ReplyFlush,
            flush_t0.elapsed().as_nanos() as u64,
        );
        let status: u8 = match &resp {
            Response::Ok(_) => 0,
            Response::Busy => 1,
            Response::Dropped => 2,
            Response::Err(_) => 3,
            Response::IoError(_) => 4,
        };
        let total_ns = admitted.elapsed().as_nanos() as u64;
        // The reply span must land in the ring BEFORE a flight capture
        // snapshots it, or the exemplar's chain ends at execution.
        bpw_trace::span_backdated(bpw_trace::EventKind::ServerReply, total_ns, status as u64);
        if bpw_trace::flight::should_capture(total_ns, status) {
            shared.metrics.record_slo_violation(kind);
            bpw_trace::flight::capture(ctx.id, ctx.conn, ctx.opcode, status, total_ns);
        }
        bpw_trace::set_current_request(0);
    }
    Ok(())
}

/// Execute one admitted data request and attribute its time. The wait
/// since `admitted` becomes the `queue_wait` stage and a backdated
/// `ServerDequeue` span; execution becomes the `PinOrMiss` span, split
/// into the `pin_hit`, `miss_io` and `batch_commit` stages.
fn execute_admitted(
    session: &mut PoolSession<'_, Box<dyn ReplacementManager>>,
    shared: &Shared,
    req: &Request,
    kind: OpKind,
    admitted: Instant,
) -> Response {
    let waited_ns = admitted.elapsed().as_nanos() as u64;
    shared.metrics.queue_wait_ns.record(waited_ns);
    bpw_trace::span_backdated(
        bpw_trace::EventKind::ServerDequeue,
        waited_ns,
        req.opcode() as u64,
    );
    shared
        .metrics
        .record_stage(kind, Stage::QueueWait, waited_ns);
    // Fresh stage scratch for this request (an idle commit may have left
    // commit time behind on this thread).
    bpw_trace::stage::reset();
    let span = bpw_trace::span_start();
    let exec_t0 = Instant::now();
    let resp = execute(session, shared, req);
    let exec_ns = exec_t0.elapsed().as_nanos() as u64;
    bpw_trace::span_end(bpw_trace::EventKind::PinOrMiss, span, req.opcode() as u64);
    let scratch = bpw_trace::stage::take();
    // Whatever execute() spent beyond attributed miss I/O and batch
    // commits is the hit path's own cost.
    let pin_hit = exec_ns.saturating_sub(scratch.miss_io_ns + scratch.batch_commit_ns);
    shared.metrics.record_stage(kind, Stage::PinHit, pin_hit);
    if scratch.miss_io_ns > 0 {
        shared
            .metrics
            .record_stage(kind, Stage::MissIo, scratch.miss_io_ns);
    }
    if scratch.batch_commit_ns > 0 {
        shared
            .metrics
            .record_stage(kind, Stage::BatchCommit, scratch.batch_commit_ns);
    }
    resp
}

/// The latency bucket a data request belongs to (`None` for control
/// requests, which are never admitted).
fn op_kind(req: &Request) -> Option<OpKind> {
    match req {
        Request::Get { .. } => Some(OpKind::Get),
        Request::Put { .. } => Some(OpKind::Put),
        Request::Scan { .. } => Some(OpKind::Scan),
        _ => None,
    }
}

/// Run one data request against the pool.
fn execute(
    session: &mut PoolSession<'_, Box<dyn ReplacementManager>>,
    shared: &Shared,
    req: &Request,
) -> Response {
    let page_size = shared.pool.page_size();
    match req {
        Request::Get { page } => {
            if *page >= shared.pages {
                return Response::Err(format!("page {page} outside 0..{}", shared.pages));
            }
            match session.fetch(*page) {
                Ok(pinned) => Response::Ok(pinned.read(|data| data.to_vec())),
                Err(e) => Response::IoError(e.to_string()),
            }
        }
        Request::Put { page, data } => {
            if *page >= shared.pages {
                return Response::Err(format!("page {page} outside 0..{}", shared.pages));
            }
            if data.len() > page_size {
                return Response::Err(format!(
                    "PUT of {} bytes exceeds the {page_size}-byte page",
                    data.len()
                ));
            }
            match session.fetch(*page) {
                Ok(pinned) => {
                    pinned.write(|dst| dst[..data.len()].copy_from_slice(data));
                    Response::Ok(Vec::new())
                }
                Err(e) => Response::IoError(e.to_string()),
            }
        }
        Request::Scan { start, len } => {
            let end = match start.checked_add(*len as u64) {
                Some(end) if end <= shared.pages => end,
                _ => {
                    return Response::Err(format!("SCAN {start}+{len} outside 0..{}", shared.pages))
                }
            };
            let mut checksum = 0u64;
            for page in *start..end {
                match session.fetch(page) {
                    Ok(pinned) => checksum = pinned.read(|data| fnv1a(checksum, data)),
                    Err(e) => return Response::IoError(e.to_string()),
                }
            }
            let mut payload = Vec::with_capacity(12);
            payload.extend_from_slice(&len.to_le_bytes());
            payload.extend_from_slice(&checksum.to_le_bytes());
            Response::Ok(payload)
        }
        Request::Stats | Request::Shutdown | Request::Metrics | Request::Exemplars => {
            Response::Err("control requests are never admitted".into())
        }
    }
}

/// Render the ADVISOR sub-object for STATS: expert scores, swap/
/// migration counters, and tap health.
fn advisor_json(state: &AdaptiveShared) -> String {
    let snap = state.advisor.lock().expect("advisor lock").snapshot();
    let mut experts = String::from("[");
    for (i, e) in snap.experts.iter().enumerate() {
        if i > 0 {
            experts.push(',');
        }
        let mut eo = JsonObject::new();
        eo.field_str("policy", e.policy.name())
            .field_f64("ewma", e.ewma)
            .field_f64("lifetime_hit_ratio", e.lifetime_hit_ratio);
        experts.push_str(&eo.finish());
    }
    experts.push(']');
    let mut o = JsonObject::new();
    o.field_str("incumbent", snap.incumbent.name());
    match snap.leader {
        Some(l) => o.field_str("leader", l.name()),
        None => o.field_raw("leader", "null"),
    };
    o.field_u64("lead_streak", snap.lead_streak as u64)
        .field_u64("samples", snap.samples)
        .field_u64("windows", snap.windows)
        .field_u64("adoptions", snap.adoptions)
        .field_u64("swaps", state.swap.swaps())
        .field_u64("migrations", state.swap.migrations())
        .field_u64("pages_transferred", state.swap.pages_transferred())
        .field_u64("advice_recovered", state.swap.advice_recovered())
        .field_u64("tap_pushed", state.tap.pushed())
        .field_u64("tap_dropped", state.tap.dropped())
        .field_str("live_manager", &state.swap.current_name())
        .field_raw("experts", &experts);
    o.finish()
}

fn stats_json(shared: &Shared) -> String {
    let advisor = shared.adaptive.as_deref().map(advisor_json);
    shared
        .metrics
        .to_json_with(&shared.stats_snapshot(), advisor.as_deref())
}

/// Prometheus-style text exposition: the METRICS reply. Same sources
/// as `stats_json` (pool-side scalars through the same seqlock-cached
/// snapshot), plus the trace collector's own health counters.
fn metrics_text(shared: &Shared) -> String {
    let m = &shared.metrics;
    let snap = shared.stats_snapshot();
    let pool = &snap.pool;
    let mut w = bpw_trace::PromWriter::new();
    w.labeled_counter(
        "bpw_requests_total",
        "Requests by reply status.",
        "status",
        &[
            ("ok", m.ok.get()),
            ("busy", m.busy.get()),
            ("dropped", m.dropped.get()),
            ("error", m.errors.get()),
            ("io_error", m.io_errors.get()),
        ],
    )
    .gauge(
        "bpw_queue_depth_peak",
        "Most requests ever waiting to execute.",
        snap.peak_queue_depth as f64,
    )
    .histogram("bpw_get_latency_ns", "End-to-end GET latency.", &m.get_ns)
    .histogram("bpw_put_latency_ns", "End-to-end PUT latency.", &m.put_ns)
    .histogram(
        "bpw_scan_latency_ns",
        "End-to-end SCAN latency.",
        &m.scan_ns,
    )
    .histogram(
        "bpw_queue_wait_ns",
        "Time from admission to the start of execution.",
        &m.queue_wait_ns,
    )
    .gauge(
        "bpw_connections_open",
        "Client connections currently open.",
        m.connections_open.get() as f64,
    )
    .gauge(
        "bpw_connections_peak",
        "Open-connection high-water mark.",
        m.connections_open.peak() as f64,
    )
    .counter(
        "bpw_pool_hits_total",
        "Fetches served from the buffer.",
        pool.hits,
    )
    .counter(
        "bpw_pool_misses_total",
        "Fetches that read storage.",
        pool.misses,
    )
    .counter(
        "bpw_pool_writebacks_total",
        "Dirty victims written back.",
        pool.writebacks,
    )
    .counter(
        "bpw_pool_io_retries_total",
        "Storage operations retried after a transient fault.",
        pool.io_retries,
    )
    .counter(
        "bpw_pool_io_errors_total",
        "Storage operations failed after exhausting retries.",
        pool.io_errors,
    )
    .counter(
        "bpw_pin_cas_retries_total",
        "Fast-path pin CAS retries (packed-header contention signal).",
        pool.pin_cas_retries,
    )
    .counter(
        "bpw_pin_underflow_total",
        "Unpins that found the pin count at zero (saturated, not wrapped).",
        pool.pin_underflows,
    )
    .counter(
        "bpw_page_table_fallback_reads_total",
        "Page-table lookups that fell back to the locked path.",
        pool.page_table_fallback_reads,
    )
    .lock_snapshot("bpw_lock", "replacement", &snap.lock)
    .lock_snapshot("bpw_lock", "miss", &snap.miss_lock);
    // Per-shard miss-lock series: where on the partition the miss path's
    // remaining serialization concentrates.
    let shard_snaps = shared.pool.miss_lock_shard_snapshots();
    let labels: Vec<String> = (0..shard_snaps.len()).map(|i| i.to_string()).collect();
    let acq: Vec<(&str, u64)> = labels
        .iter()
        .zip(&shard_snaps)
        .map(|(l, s)| (l.as_str(), s.acquisitions))
        .collect();
    let wait: Vec<(&str, u64)> = labels
        .iter()
        .zip(&shard_snaps)
        .map(|(l, s)| (l.as_str(), s.wait_ns))
        .collect();
    w.labeled_counter(
        "bpw_miss_shard_acquisitions_total",
        "Miss-path lock acquisitions by page-table shard.",
        "shard",
        &acq,
    )
    .labeled_counter(
        "bpw_miss_shard_wait_ns_total",
        "Nanoseconds waited on each shard's miss lock.",
        "shard",
        &wait,
    )
    .gauge(
        "bpw_miss_lock_shards",
        "Miss-path partition width (shard locks).",
        shard_snaps.len() as f64,
    )
    .counter(
        "bpw_free_list_steals_total",
        "Free-list pops served by stealing from another stripe.",
        pool.free_list_steals,
    )
    .counter(
        "bpw_free_list_cold_pushes_total",
        "Frames parked on the free list's cold stack by frame repair.",
        pool.free_list_cold_pushes,
    )
    .gauge(
        "bpw_trace_enabled",
        "1 when event tracing is recording.",
        bpw_trace::enabled() as u64 as f64,
    )
    .counter(
        "bpw_trace_dropped_events_total",
        "Trace events lost to ring overflow.",
        bpw_trace::dropped(),
    )
    .gauge(
        "bpw_trace_threads",
        "Threads that have recorded at least one trace event.",
        bpw_trace::thread_count() as f64,
    );
    // Per-opcode stage attribution: one histogram metric, op × stage
    // labeled series.
    let mut stage_cells: Vec<([(&str, &str); 2], &bpw_metrics::Histogram)> = Vec::new();
    for kind in OpKind::ALL {
        for stage in Stage::ALL {
            stage_cells.push((
                [("op", kind.name()), ("stage", stage.name())],
                m.stages(kind).get(stage),
            ));
        }
    }
    let stage_series: Vec<(&[(&str, &str)], &bpw_metrics::Histogram)> =
        stage_cells.iter().map(|(l, h)| (&l[..], *h)).collect();
    w.labeled_histograms(
        "bpw_stage_latency_ns",
        "Request latency attributed to one pipeline stage, per opcode.",
        &stage_series,
    );
    let slo_series: Vec<(&str, u64)> = OpKind::ALL
        .iter()
        .map(|k| (k.name(), m.slo_violations[k.index()].get()))
        .collect();
    w.labeled_counter(
        "bpw_slo_violations_total",
        "Requests that exceeded --slo-us or ended ERR_IO, per opcode.",
        "op",
        &slo_series,
    );
    // Per-ring drop counters: which recording thread is losing events.
    let drops = bpw_trace::ring_drops();
    let tid_labels: Vec<String> = drops.iter().map(|(tid, _)| tid.to_string()).collect();
    let drop_series: Vec<(&str, u64)> = tid_labels
        .iter()
        .zip(&drops)
        .map(|(l, (_, d))| (l.as_str(), *d))
        .collect();
    w.labeled_counter(
        "bpw_trace_ring_dropped_events_total",
        "Trace events lost to ring overflow, per recording thread.",
        "tid",
        &drop_series,
    )
    .counter(
        "bpw_exemplars_captured_total",
        "Slow or ERR_IO requests captured by the flight recorder.",
        bpw_trace::flight::captured_total(),
    )
    .gauge(
        "bpw_flight_slo_ns",
        "Armed flight-recorder SLO in nanoseconds (0 = disarmed).",
        bpw_trace::flight::slo_ns() as f64,
    );
    // Flat-combining commit-path counters (wrapped managers only).
    if let Some(c) = snap.combining {
        w.labeled_counter(
            "bpw_combining_batches_total",
            "Publication-slot batch events on the combining commit path.",
            "event",
            &[
                ("published", c.published),
                ("publish_fallback", c.publish_fallbacks),
                ("reclaimed", c.reclaimed),
                ("combined", c.combined_batches),
            ],
        )
        .counter(
            "bpw_combining_entries_total",
            "Accesses applied from other threads' combined batches.",
            c.combined_entries,
        )
        .counter(
            "bpw_combining_passes_total",
            "Drain passes executed by combining critical sections.",
            c.combine_passes,
        )
        .gauge(
            "bpw_combining_depth_last",
            "Batches drained in the most recent combining critical section.",
            c.combine_depth_last as f64,
        )
        .gauge(
            "bpw_combining_depth_peak",
            "Most batches ever drained in one combining critical section.",
            c.combine_depth_peak as f64,
        );
    }
    // Adaptive-replacement series (`--adaptive` servers only).
    if let Some(state) = shared.adaptive.as_deref() {
        let snap = state.advisor.lock().expect("advisor lock").snapshot();
        w.counter(
            "bpw_advisor_samples_total",
            "Sampled accesses scored by the shadow caches.",
            snap.samples,
        )
        .counter(
            "bpw_advisor_windows_total",
            "Scoring windows closed by the advisor.",
            snap.windows,
        )
        .counter(
            "bpw_advisor_adoptions_total",
            "Challenger policies adopted (hot-swapped in).",
            snap.adoptions,
        )
        .counter(
            "bpw_advisor_swaps_total",
            "Manager hot-swaps completed.",
            state.swap.swaps(),
        )
        .counter(
            "bpw_advisor_migrations_total",
            "Lazy handle migrations after swaps.",
            state.swap.migrations(),
        )
        .counter(
            "bpw_advisor_pages_transferred_total",
            "Resident pages carried across swaps via export/import.",
            state.swap.pages_transferred(),
        )
        .counter(
            "bpw_advisor_advice_recovered_total",
            "Published accesses drained off retired managers' boards.",
            state.swap.advice_recovered(),
        )
        .counter(
            "bpw_advisor_tap_dropped_total",
            "Samples overwritten before the advisor drained them.",
            state.tap.dropped(),
        );
        let names: Vec<&str> = snap.experts.iter().map(|e| e.policy.name()).collect();
        let ewma_ppm: Vec<(&str, u64)> = names
            .iter()
            .zip(&snap.experts)
            .map(|(n, e)| (*n, (e.ewma * 1e6) as u64))
            .collect();
        w.labeled_counter(
            "bpw_advisor_expert_ewma_ppm",
            "Each expert's EWMA shadow hit ratio, parts per million.",
            "policy",
            &ewma_ppm,
        );
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_specs_parse() {
        for spec in [
            "clock",
            "coarse-2q",
            "coarse-lirs",
            "wrapped-2q",
            "wrapped-lru",
            "WRAPPED-ARC",
        ] {
            let m = build_manager(spec, 64).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(!m.name().is_empty());
        }
        assert!(build_manager("fine-2q", 64).is_err());
        assert!(build_manager("wrapped-nosuch", 64).is_err());
    }

    #[test]
    fn server_starts_and_joins() {
        let server = Server::start(ServerConfig {
            workers: 2,
            frames: 16,
            page_size: 64,
            pages: 128,
            ..ServerConfig::default()
        })
        .expect("start");
        assert_ne!(server.addr().port(), 0);
        let json = server.stats_json();
        assert!(json.starts_with('{'), "stats must be JSON: {json}");
        server.join();
    }
}
