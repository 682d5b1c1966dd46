//! The traced in-process replay.
//!
//! The same pre-generated requests are served again without sockets:
//! decode, fetch, read or write, unpin and encode are called directly,
//! mirroring the server's execute path, with a span recorded around
//! each call. Spans stay in memory per thread and are written out when
//! the replay ends. Standalone replays of the page string through the
//! BP-Wrapper manager and through the bare replacement policy give the
//! `core` and `replacement` costs.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bpw_bufferpool::{BufferPool, ReplacementManager, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::{FrameId, MissOutcome, PolicyKind, ReplacementPolicy};
use bpw_server::protocol::{fnv1a, Request, Response};
use bpw_server::{build_manager, DynPool};

use crate::client::encode_request;
use crate::workload::{Op, Req, Spec, CONNECTIONS, PAGE_SIZE};

/// A span name; children of `Request` are the layer boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Request,
    Decode,
    Fetch,
    Read,
    Write,
    Unpin,
    Encode,
    CoreReplay,
    ReplacementReplay,
}

impl Name {
    pub const LAYERS: [Name; 6] = [
        Name::Decode,
        Name::Fetch,
        Name::Read,
        Name::Write,
        Name::Unpin,
        Name::Encode,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::Decode => "protocol.decode",
            Name::Fetch => "bufferpool.fetch",
            Name::Read => "bufferpool.read",
            Name::Write => "bufferpool.write",
            Name::Unpin => "bufferpool.unpin",
            Name::Encode => "protocol.encode",
            Name::CoreReplay => "core.replay",
            Name::ReplacementReplay => "replacement.replay",
        }
    }
}

const ROOT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub parent: u32,
    pub name: Name,
    pub op: Op,
    /// A fetch that took the miss path.
    pub miss: bool,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread span recorder; does nothing when off.
struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn open(&mut self, req: u64, parent: u32, name: Name, op: Op) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            parent,
            name,
            op,
            miss: false,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, idx: u32) {
        if self.on {
            self.spans[idx as usize].end = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// Serve one encoded request against the pool, as the server's worker
/// and connection thread would.
fn serve(
    session: &mut bpw_bufferpool::PoolSession<'_, Box<dyn ReplacementManager>>,
    rec: &mut Recorder,
    id: u64,
    op: Op,
    body: &[u8],
) {
    let root = rec.open(id, ROOT, Name::Request, op);
    let s = rec.open(id, root, Name::Decode, op);
    let req = Request::decode(body).expect("replayed requests are well formed");
    rec.close(s);
    let mut fetch = |rec: &mut Recorder, page: u64| {
        let s = rec.open(id, root, Name::Fetch, op);
        if rec.on {
            bpw_trace::stage::reset();
        }
        let pinned = session.fetch(page).expect("SimDisk never fails");
        rec.close(s);
        if rec.on {
            rec.spans[s as usize].miss = bpw_trace::stage::take().miss_io_ns > 0;
        }
        pinned
    };
    let resp = match req {
        Request::Get { page } => {
            let pinned = fetch(rec, page);
            let s = rec.open(id, root, Name::Read, op);
            let data = pinned.read(|d| d.to_vec());
            rec.close(s);
            let s = rec.open(id, root, Name::Unpin, op);
            drop(pinned);
            rec.close(s);
            Response::Ok(data)
        }
        Request::Put { page, data } => {
            let pinned = fetch(rec, page);
            let s = rec.open(id, root, Name::Write, op);
            pinned.write(|dst| dst[..data.len()].copy_from_slice(&data));
            rec.close(s);
            let s = rec.open(id, root, Name::Unpin, op);
            drop(pinned);
            rec.close(s);
            Response::Ok(Vec::new())
        }
        Request::Scan { start, len } => {
            let mut checksum = 0u64;
            for page in start..start + len as u64 {
                let pinned = fetch(rec, page);
                let s = rec.open(id, root, Name::Read, op);
                checksum = pinned.read(|d| fnv1a(checksum, d));
                rec.close(s);
                let s = rec.open(id, root, Name::Unpin, op);
                drop(pinned);
                rec.close(s);
            }
            let mut payload = Vec::with_capacity(12);
            payload.extend_from_slice(&len.to_le_bytes());
            payload.extend_from_slice(&checksum.to_le_bytes());
            Response::Ok(payload)
        }
        other => unreachable!("not a data request: {other:?}"),
    };
    let s = rec.open(id, root, Name::Encode, op);
    std::hint::black_box(resp.encode());
    rec.close(s);
    rec.close(root);
}

/// The pool the server would build for `spec`.
fn fresh_pool(spec: &Spec, manager_spec: &str) -> DynPool {
    let manager = build_manager(manager_spec, spec.frames).expect("default manager spec builds");
    BufferPool::new(
        spec.frames,
        PAGE_SIZE,
        manager,
        Arc::new(SimDisk::instant()),
    )
}

/// Result of one replay: requests per second and (when traced) spans
/// per thread.
pub struct ReplayRun {
    pub rps: f64,
    pub spans: Vec<Vec<Span>>,
}

/// Replay the warm-up prefix untraced on a fresh pool, then
/// `spec.replay_requests` requests per thread with spans `on` or off.
pub fn replay(spec: &Spec, manager_spec: &str, lists: &[Vec<Req>], on: bool) -> ReplayRun {
    let pool = fresh_pool(spec, manager_spec);
    let barrier = Barrier::new(CONNECTIONS);
    let epoch = Instant::now();
    let results: Vec<(Vec<Span>, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(t, list)| {
                let (pool, barrier) = (&pool, &barrier);
                s.spawn(move || {
                    let mut session = pool.session();
                    let mut body = Vec::with_capacity(PAGE_SIZE + 16);
                    let mut off = Recorder {
                        on: false,
                        epoch,
                        spans: Vec::new(),
                    };
                    for (i, &r) in list[..spec.warmup].iter().enumerate() {
                        body.clear();
                        encode_request(r, 1 + i as u64, &mut body);
                        serve(&mut session, &mut off, 0, r.op, &body);
                    }
                    let timed = &list[spec.warmup..spec.warmup + spec.replay_requests];
                    let mut rec = Recorder {
                        on,
                        epoch,
                        spans: Vec::with_capacity(if on { timed.len() * 8 } else { 0 }),
                    };
                    barrier.wait();
                    let t0 = Instant::now();
                    for (i, &r) in timed.iter().enumerate() {
                        body.clear();
                        encode_request(r, (spec.warmup + 1 + i) as u64, &mut body);
                        let id = ((t as u64) << 40) | (i as u64 + 1);
                        serve(&mut session, &mut rec, id, r.op, &body);
                    }
                    session.flush();
                    (rec.spans, t0, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let start = results.iter().map(|r| r.1).min().expect("threads");
    let end = results.iter().map(|r| r.2).max().expect("threads");
    let total = (spec.replay_requests * lists.len()) as f64;
    ReplayRun {
        rps: total / (end - start).as_secs_f64(),
        spans: results.into_iter().map(|r| r.0).collect(),
    }
}

/// Count, summed duration and summed self time of one span name. Self
/// time is the duration minus the time the span's children cover; a
/// request's children run one after another on its thread, so they
/// never overlap.
#[derive(Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Vec<Span>]) -> HashMap<&'static str, SpanTotals> {
    let mut t: HashMap<&'static str, SpanTotals> = HashMap::new();
    for thread in spans {
        let mut child_ns = vec![0u64; thread.len()];
        for s in thread {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        for (s, child) in thread.iter().zip(child_ns) {
            let e = t.entry(s.name.label()).or_default();
            e.count += 1;
            e.total_ns += s.dur();
            e.self_ns += s.dur().saturating_sub(child);
        }
    }
    t
}

/// Mean duration of the spans matching `keep`, and how many there were.
pub fn mean_ns(spans: &[Vec<Span>], keep: impl Fn(&Span) -> bool) -> (f64, u64) {
    let (mut sum, mut n) = (0u64, 0u64);
    for s in spans.iter().flatten().filter(|s| keep(s)) {
        sum += s.dur();
        n += 1;
    }
    (if n == 0 { 0.0 } else { sum as f64 / n as f64 }, n)
}

/// Write every span as one tab-separated line.
pub fn write_spans(path: &std::path::Path, spans: &[Vec<Span>]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# thread\tindex\tparent\treq\top\tname\tmiss\tstart_ns\tdur_ns"
    )?;
    for (t, thread) in spans.iter().enumerate() {
        for (i, s) in thread.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                s.op.name(),
                s.name.label(),
                u8::from(s.miss),
                s.start,
                s.dur()
            )?;
        }
    }
    w.flush()
}

// --- Standalone core and replacement replays -------------------------------

/// One access of the page string, resolved against the policy.
#[derive(Clone, Copy)]
enum SimOp {
    Hit { page: u64, frame: FrameId },
    Miss { page: u64, free: Option<FrameId> },
}

/// Accesses per standalone-replay span.
const CHUNK: usize = 1 << 16;

/// Costs measured by the standalone replays.
pub struct PolicyCosts {
    pub sim_hit_ratio: f64,
    pub replacement_hit_ns: f64,
    pub replacement_miss_ns: f64,
    pub core_hit_ns: f64,
    pub core_commit_ns: f64,
    pub commits: u64,
    pub spans: Vec<Span>,
}

/// The bare policy named by a manager spec (`wrapped-2q` -> 2Q).
pub fn policy_of(manager_spec: &str) -> PolicyKind {
    let s = manager_spec.trim().to_ascii_lowercase();
    let name = s
        .strip_prefix("wrapped-")
        .or_else(|| s.strip_prefix("coarse-"))
        .unwrap_or(&s);
    name.parse().unwrap_or(PolicyKind::Clock)
}

/// Cost of one clock read. An interval timed from one read to the next
/// includes about one read's cost, so it is subtracted from every
/// interval the standalone replays time.
fn clock_cost_ns() -> f64 {
    let n = 20_000;
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Resolve `pages` against `kind` with a permissive victim filter (a
/// cache simulation), returning each access's outcome and the hit ratio
/// over accesses from `measured_from` on.
fn resolve(
    kind: PolicyKind,
    frames: usize,
    pages: &[u64],
    measured_from: usize,
) -> (Vec<SimOp>, f64) {
    let mut policy = kind.build(frames);
    let mut map: HashMap<u64, FrameId> = HashMap::with_capacity(frames);
    let mut free: Vec<FrameId> = (0..frames as FrameId).rev().collect();
    let mut ops = Vec::with_capacity(pages.len());
    let mut hits = 0u64;
    for (i, &page) in pages.iter().enumerate() {
        if let Some(&frame) = map.get(&page) {
            policy.record_hit(frame);
            ops.push(SimOp::Hit { page, frame });
            hits += u64::from(i >= measured_from);
            continue;
        }
        let f = free.pop();
        ops.push(SimOp::Miss { page, free: f });
        match policy.record_miss(page, f, &mut |_| true) {
            MissOutcome::AdmittedFree(frame) => {
                map.insert(page, frame);
            }
            MissOutcome::Evicted { frame, victim } => {
                map.remove(&victim);
                map.insert(page, frame);
            }
            MissOutcome::NoEvictableFrame => unreachable!("permissive filter always evicts"),
        }
    }
    let measured = pages.len().saturating_sub(measured_from).max(1);
    (ops, hits as f64 / measured as f64)
}

/// Replay `pages` through the bare policy and through a `WrappedManager`
/// around it, single-threaded. Runs of plain hits are timed as one
/// interval; misses and batch-committing hits are timed one by one.
pub fn policy_costs(
    kind: PolicyKind,
    frames: usize,
    pages: &[u64],
    measured_from: usize,
    epoch: Instant,
) -> PolicyCosts {
    let (ops, sim_hit_ratio) = resolve(kind, frames, pages, measured_from);
    let clock = clock_cost_ns();
    let mut spans = Vec::new();
    let span = |spans: &mut Vec<Span>, name: Name, t0: Instant, t1: Instant| {
        spans.push(Span {
            req: 0,
            parent: ROOT,
            name,
            op: Op::Get,
            miss: false,
            start: (t0 - epoch).as_nanos() as u64,
            end: (t1 - epoch).as_nanos() as u64,
        })
    };
    let net = |t0: Instant| (t0.elapsed().as_nanos() as f64 - clock).max(0.0);

    // Bare policy.
    let mut policy = kind.build(frames);
    let (mut hit_ns, mut hits, mut miss_ns, mut misses) = (0.0, 0u64, 0.0, 0u64);
    for chunk in ops.chunks(CHUNK) {
        let c0 = Instant::now();
        let mut run: Option<(Instant, u64)> = None;
        for op in chunk {
            match *op {
                SimOp::Hit { frame, .. } => {
                    let r = run.get_or_insert((Instant::now(), 0));
                    policy.record_hit(frame);
                    r.1 += 1;
                }
                SimOp::Miss { page, free } => {
                    if let Some((t, n)) = run.take() {
                        hit_ns += net(t);
                        hits += n;
                    }
                    let t = Instant::now();
                    std::hint::black_box(policy.record_miss(page, free, &mut |_| true));
                    miss_ns += net(t);
                    misses += 1;
                }
            }
        }
        if let Some((t, n)) = run.take() {
            hit_ns += net(t);
            hits += n;
        }
        span(&mut spans, Name::ReplacementReplay, c0, Instant::now());
    }

    // BP-Wrapper around the same policy: one thread, so every commit
    // attempt wins its try-lock and a hit commits exactly when it fills
    // the batch.
    let manager = WrappedManager::new(kind.build(frames), WrapperConfig::default());
    let threshold = manager.wrapper().config().batch_threshold;
    let mut handle = manager.wrapper().handle();
    let (mut core_hit_ns, mut core_hits, mut commit_ns, mut commits) = (0.0, 0u64, 0.0, 0u64);
    for chunk in ops.chunks(CHUNK) {
        let c0 = Instant::now();
        let mut run: Option<(Instant, u64)> = None;
        for op in chunk {
            match *op {
                SimOp::Hit { page, frame } if handle.queued() + 1 < threshold => {
                    let r = run.get_or_insert((Instant::now(), 0));
                    handle.record_hit(page, frame);
                    r.1 += 1;
                }
                SimOp::Hit { page, frame } => {
                    if let Some((t, n)) = run.take() {
                        core_hit_ns += net(t);
                        core_hits += n;
                    }
                    let t = Instant::now();
                    handle.record_hit(page, frame);
                    commit_ns += net(t);
                    commits += 1;
                }
                SimOp::Miss { page, free } => {
                    if let Some((t, n)) = run.take() {
                        core_hit_ns += net(t);
                        core_hits += n;
                    }
                    std::hint::black_box(handle.record_miss(page, free, &mut |_| true));
                }
            }
        }
        if let Some((t, n)) = run.take() {
            core_hit_ns += net(t);
            core_hits += n;
        }
        span(&mut spans, Name::CoreReplay, c0, Instant::now());
    }
    handle.flush();
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    PolicyCosts {
        sim_hit_ratio,
        replacement_hit_ns: per(hit_ns, hits),
        replacement_miss_ns: per(miss_ns, misses),
        core_hit_ns: per(core_hit_ns, core_hits),
        core_commit_ns: per(commit_ns, commits),
        commits,
        spans,
    }
}
