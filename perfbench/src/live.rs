//! The live run: the workload against an in-process `bpw-server`, in
//! segments. Each segment starts a fresh server (its set-up is timed),
//! warms it up, and runs a closed-loop and an open-loop phase. The run
//! reports the median over segments of each end-to-end figure, so a
//! segment that drew an unlucky thread placement or a burst of host
//! interference moves the result less.

use std::time::{Duration, Instant};

use bpw_bufferpool::ReplacementManager;
use bpw_metrics::LockSnapshot;
use bpw_server::metrics::{OpKind, Stage};
use bpw_server::{Server, ServerConfig};

use crate::check::Checker;
use crate::client::{Conn, PhaseStats, Windows, CLOSED_WINDOW};
use crate::stats::{median, peak_rss_mib, percentile};
use crate::workload::{Op, Req, Spec, CONNECTIONS, PAGE_SIZE, PIPELINE};

/// Fresh-server segments per run.
pub const SEGMENTS: usize = 8;
/// Share of each segment's measured time spent in the closed loop.
const CLOSED_SHARE: f64 = 0.4;
/// Open-loop GETs expected per latency window: enough that a window's
/// p99 has ten samples beyond it.
const GETS_PER_WINDOW: f64 = 1_000.0;

/// Buffer pool and lock counters, at an instant or between two.
#[derive(Clone, Copy, Default)]
pub struct PoolCounters {
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
    pub pin_cas_retries: u64,
    pub table_fallbacks: u64,
    pub reads: u64,
    pub writes: u64,
    pub lock: LockSnapshot,
    pub miss_lock: LockSnapshot,
}

impl PoolCounters {
    fn read(server: &Server) -> PoolCounters {
        use std::sync::atomic::Ordering::Relaxed;
        let pool = server.pool();
        let s = pool.stats();
        PoolCounters {
            hits: s.hits.load(Relaxed),
            misses: s.misses.load(Relaxed),
            writebacks: s.writebacks.load(Relaxed),
            pin_cas_retries: s.pin_cas_retries.load(Relaxed),
            table_fallbacks: pool.page_table_fallback_reads(),
            reads: pool.storage().reads(),
            writes: pool.storage().writes(),
            lock: pool.manager().lock_snapshot(),
            miss_lock: pool.miss_lock_snapshot(),
        }
    }

    fn since(&self, b: &PoolCounters) -> PoolCounters {
        PoolCounters {
            hits: self.hits - b.hits,
            misses: self.misses - b.misses,
            writebacks: self.writebacks - b.writebacks,
            pin_cas_retries: self.pin_cas_retries - b.pin_cas_retries,
            table_fallbacks: self.table_fallbacks - b.table_fallbacks,
            reads: self.reads - b.reads,
            writes: self.writes - b.writes,
            lock: self.lock.since(&b.lock),
            miss_lock: self.miss_lock.since(&b.miss_lock),
        }
    }

    fn add(&mut self, d: &PoolCounters) {
        self.hits += d.hits;
        self.misses += d.misses;
        self.writebacks += d.writebacks;
        self.pin_cas_retries += d.pin_cas_retries;
        self.table_fallbacks += d.table_fallbacks;
        self.reads += d.reads;
        self.writes += d.writes;
        self.lock = self.lock.merge(&d.lock);
        self.miss_lock = self.miss_lock.merge(&d.miss_lock);
    }
}

/// Summed nanoseconds and sample count of every GET stage histogram.
fn get_stages(server: &Server) -> Vec<(Stage, u64, u64)> {
    let set = server.metrics().stages(OpKind::Get);
    Stage::ALL
        .iter()
        .map(|&st| (st, set.get(st).sum(), set.get(st).count()))
        .collect()
}

/// One segment's end-to-end figures.
pub struct Segment {
    pub setup_s: f64,
    pub throughput_rps: f64,
    /// Process CPU time per OK reply in the closed loop, client and
    /// server threads together.
    pub cpu_us_per_req: f64,
    pub get_p50_ns: f64,
    pub get_p99_ns: f64,
    /// GET send-to-reply time, without the wait behind a backlog.
    pub get_service_p50_ns: f64,
    pub req_p99_ns: f64,
}

/// Everything the live run measured.
#[derive(Default)]
pub struct Live {
    pub segments: Vec<Segment>,
    /// Open-loop latency window width.
    pub window: Duration,
    /// Phases merged over segments.
    pub closed: PhaseStats,
    pub open: PhaseStats,
    /// Pool counters over the timed phases, summed over segments.
    pub pool: PoolCounters,
    /// GET stage sums and counts over the open-loop phases.
    pub stages: Vec<(Stage, u64, u64)>,
    pub peak_queue_depth: u64,
    pub busy: u64,
    pub dropped: u64,
    pub epoll_wakeups: u64,
    pub replies: u64,
    pub ready_sum: u64,
    pub ready_count: u64,
    /// VmHWM after the first segment's warm-up: a fixed amount of work,
    /// so it does not drift with how fast the timed phases ran.
    pub peak_rss_mib: f64,
    /// Timed requests each connection sent, over all segments.
    pub timed_sent: Vec<u64>,
    /// Requests sent in the untimed warm-ups, all segments.
    pub warmup_attempted: u64,
}

/// Run `f` on every connection, one thread each, and merge the results.
fn on_each<F>(conns: &mut [Conn], f: F) -> PhaseStats
where
    F: Fn(usize, &mut Conn) -> PhaseStats + Sync,
{
    let parts: Vec<PhaseStats> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || f(i, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = PhaseStats::default();
    for p in parts {
        all.merge(p);
    }
    all
}

/// Median over windows of each window's `q` percentile, and the
/// sample count; windows past `windows` or without samples are skipped.
pub fn windowed(samples: &[(usize, u64)], windows: usize, q: f64) -> (f64, usize) {
    let mut by_window = vec![Vec::new(); windows];
    for &(w, ns) in samples {
        if let Some(v) = by_window.get_mut(w) {
            v.push(ns);
        }
    }
    let n = by_window.iter().map(Vec::len).sum();
    let per: Vec<f64> = by_window
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, q))
        .collect();
    (median(per), n)
}

/// Open-loop latency window for `spec`: a multiple of 100 ms holding
/// about `GETS_PER_WINDOW` GETs.
fn open_window(spec: &Spec, lists: &[Vec<Req>]) -> Duration {
    let list = &lists[0][spec.warmup..];
    let get_share = list.iter().filter(|r| r.op == Op::Get).count() as f64 / list.len() as f64;
    let secs = GETS_PER_WINDOW / (spec.open_rate * get_share);
    Duration::from_millis(((secs * 10.0).ceil() as u64).max(1) * 100)
}

pub fn run(
    spec: &Spec,
    seconds: f64,
    inject_stale: u64,
    lists: &[Vec<Req>],
    checker: &Checker,
) -> Result<Live, String> {
    let config = ServerConfig {
        frames: spec.frames,
        page_size: PAGE_SIZE,
        pages: spec.pages,
        ..ServerConfig::default()
    };
    let segment_secs = seconds / SEGMENTS as f64;
    let closed_len = Duration::from_secs_f64(segment_secs * CLOSED_SHARE);
    let open_len = Duration::from_secs_f64(segment_secs * (1.0 - CLOSED_SHARE));
    let gap = Duration::from_secs_f64(CONNECTIONS as f64 / spec.open_rate);
    let mut live = Live {
        window: open_window(spec, lists),
        timed_sent: vec![0; CONNECTIONS],
        ..Live::default()
    };
    let windows = ((open_len.as_secs_f64() / live.window.as_secs_f64()) as usize).max(1);
    // Where each connection's timed requests resume in its list.
    let mut resume = vec![spec.warmup; CONNECTIONS];
    let probe = [Req {
        op: Op::Get,
        page: 0,
    }];

    for _ in 0..SEGMENTS {
        // A fresh server starts from unwritten pages.
        checker.reset();
        let t0 = Instant::now();
        let server = Server::start(config.clone()).map_err(|e| format!("server start: {e}"))?;
        let first = Conn::connect(server.addr())
            .map(|mut c| c.closed_loop(&probe, 0, checker, 1, None, Some(1), &mut 0))
            .map_err(|e| format!("connect: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        if first.ok != 1 {
            server.join();
            return Err("set-up: the first GET did not return a correct OK reply".into());
        }
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;

        let warm = on_each(&mut conns, |c, conn| {
            let n = spec.warmup as u64;
            conn.closed_loop(
                &lists[c],
                spec.warmup,
                checker,
                PIPELINE,
                None,
                Some(n),
                &mut 0,
            )
        });
        live.warmup_attempted += warm.attempted;
        if warm.failed > 0 {
            println!(
                "warm-up: {} of {} requests failed",
                warm.failed, warm.attempted
            );
        }
        if live.segments.is_empty() {
            live.peak_rss_mib = peak_rss_mib();
        }
        for (conn, &at) in conns.iter_mut().zip(&resume) {
            conn.cursor = at;
        }

        let before = PoolCounters::read(&server);
        let cpu0 = cpu_secs();
        let t0 = Instant::now();
        let first_segment = live.segments.is_empty();
        let closed = on_each(&mut conns, |c, conn| {
            let mut tamper = if c == 0 && first_segment {
                inject_stale
            } else {
                0
            };
            conn.closed_loop(
                &lists[c],
                spec.warmup,
                checker,
                PIPELINE,
                Some(t0 + closed_len),
                None,
                &mut tamper,
            )
        });
        let closed_secs = t0.elapsed().as_secs_f64();
        let closed_cpu = cpu_secs() - cpu0;

        let stages_before = get_stages(&server);
        let win = Windows {
            start: Instant::now() + Duration::from_millis(5),
            width: live.window,
            open_loop: true,
        };
        let open = on_each(&mut conns, |c, conn| {
            let first = win.start + gap * c as u32 / CONNECTIONS as u32;
            conn.open_loop(
                &lists[c],
                spec.warmup,
                checker,
                &win,
                first,
                gap,
                win.start + open_len,
            )
        });
        let stages: Vec<_> = get_stages(&server)
            .into_iter()
            .zip(stages_before)
            .map(|((st, sum, n), (_, sum0, n0))| (st, sum - sum0, n - n0))
            .collect();
        live.pool.add(&PoolCounters::read(&server).since(&before));

        // The last closed-loop window also holds the drain; leave it out.
        let full = (closed_len.as_secs_f64() / CLOSED_WINDOW.as_secs_f64()) as usize;
        let rates: Vec<f64> = closed
            .ok_per_window
            .iter()
            .take(full.saturating_sub(1))
            .map(|&n| n as f64 / CLOSED_WINDOW.as_secs_f64())
            .collect();
        let gets = &open.latency_ns[Op::Get.index()];
        let all: Vec<(usize, u64)> = open.latency_ns.iter().flatten().copied().collect();
        let seg = Segment {
            setup_s,
            throughput_rps: median(rates),
            cpu_us_per_req: closed_cpu * 1e6 / closed.ok.max(1) as f64,
            get_p50_ns: windowed(gets, windows, 0.50).0,
            get_p99_ns: windowed(gets, windows, 0.99).0,
            get_service_p50_ns: windowed(&open.service_ns[Op::Get.index()], windows, 0.50).0,
            req_p99_ns: windowed(&all, windows, 0.99).0,
        };
        let mut lag = open.lag_ns.clone();
        println!(
            "segment {}: setup {:.4} s, closed {:.0} req/s ({} OK in {closed_secs:.3} s, {:.2} cpu-us each), open GET p50 {:.1} us p99 {:.1} us, all p99 {:.1} us, send lag p99 {:.1} us",
            live.segments.len() + 1,
            seg.setup_s,
            seg.throughput_rps,
            closed.ok,
            seg.cpu_us_per_req,
            seg.get_p50_ns / 1e3,
            seg.get_p99_ns / 1e3,
            seg.req_p99_ns / 1e3,
            percentile(&mut lag, 0.99) / 1e3
        );
        live.segments.push(seg);

        for (c, conn) in conns.iter().enumerate() {
            live.timed_sent[c] += conn.sent - spec.warmup as u64;
            resume[c] = conn.cursor;
        }
        if live.stages.is_empty() {
            live.stages = stages;
        } else {
            for (acc, s) in live.stages.iter_mut().zip(stages) {
                acc.1 += s.1;
                acc.2 += s.2;
            }
        }
        let m = server.metrics();
        live.peak_queue_depth = live.peak_queue_depth.max(peak_queue_depth(&server));
        live.busy += m.busy.get();
        live.dropped += m.dropped.get();
        live.epoll_wakeups += m.epoll_wakeups.get();
        live.replies += m.total();
        live.ready_sum += m.ready_per_wakeup.sum();
        live.ready_count += m.ready_per_wakeup.count();
        live.closed.merge(closed);
        live.open.merge(open);
        drop(conns);
        server.join();
    }
    Ok(live)
}

/// User plus system CPU seconds of this process so far (10 ms ticks).
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them.
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The admission queue's high-water mark, from the STATS rendering.
fn peak_queue_depth(server: &Server) -> u64 {
    server
        .stats_json()
        .split("\"peak_queue_depth\":")
        .nth(1)
        .and_then(|s| s.split(|ch: char| !ch.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}
