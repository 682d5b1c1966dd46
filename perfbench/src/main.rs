//! The repository benchmark: one workload of `bpw-server` per run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_get|miss_churn|scan_mix|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every connection's requests are
//! generated from the seed before timing. The live run (see [`live`])
//! then drives an in-process `bpw_server::Server`, sized for the
//! workload and otherwise `ServerConfig::default()`, in fresh-server
//! segments of set-up, untimed warm-up, a closed loop (throughput) and
//! an open loop (latency from each request's due time, exact
//! percentiles from every sample). Every reply is content-checked.
//!
//! With `--trace 1` the same requests are also replayed in-process with
//! a span around each layer call (see [`replay`]); the spans go to
//! `perfbench/out/` and per-layer costs are printed. Human-readable
//! lines come first; the last line is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--inject-stale N` makes the first N checked GETs of
//! connection 0 look stale, to show that such replies are counted.

mod check;
mod client;
mod live;
mod replay;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use bpw_server::metrics::Stage;
use bpw_server::ServerConfig;

use check::Checker;
use live::SEGMENTS;
use replay::{mean_ns, Name};
use stats::{mean, median, percentile, ratio};
use workload::{Op, Req, Spec, CONNECTIONS, PAGE_SIZE, SCAN_LEN};

/// Metrics a user of the server sees (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_us_per_req", "us"),
    ("get_service_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Crates whose source lines are counted as `loc.<crate>`.
const CRATES: [&str; 11] = [
    "bench",
    "bufferpool",
    "core",
    "dst",
    "evl",
    "metrics",
    "replacement",
    "server",
    "sim",
    "trace",
    "workloads",
];

/// Metrics of single layers (`--trace 1`), with units; `loc.*` follow.
const PER_LAYER: [(&str, &str); 44] = [
    ("throughput_rps", "1/s"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("req_p99_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("scan_p50_us", "us"),
    ("scan_p99_us", "us"),
    ("failed_op_ratio", "ratio"),
    ("server.decode_ns", "ns"),
    ("server.queue_wait_ns", "ns"),
    ("server.execute_ns", "ns"),
    ("server.reply_flush_ns", "ns"),
    ("server.unattributed_ns", "ns"),
    ("server.peak_queue_depth", "count"),
    ("server.busy", "count"),
    ("server.dropped", "count"),
    ("evl.wakeups_per_req", "ratio"),
    ("evl.ready_per_wakeup", "ratio"),
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("bufferpool.fetch_hit_ns", "ns"),
    ("bufferpool.read_copy_ns", "ns"),
    ("bufferpool.write_ns", "ns"),
    ("bufferpool.unpin_ns", "ns"),
    ("bufferpool.fetch_miss_ns", "ns"),
    ("bufferpool.hit_ratio", "ratio"),
    ("bufferpool.writebacks_per_miss", "ratio"),
    ("bufferpool.miss_lock_wait_ns_per_acq", "ns"),
    ("bufferpool.pin_cas_retries_per_mop", "count/Mop"),
    ("bufferpool.page_table_fallback_per_mop", "count/Mop"),
    ("storage.reads_per_kop", "count/kop"),
    ("storage.writes_per_kop", "count/kop"),
    ("core.accesses_per_acquisition", "ratio"),
    ("core.contentions_per_m_access", "count/Mop"),
    ("core.lock_wait_ns_per_acq", "ns"),
    ("core.lock_hold_ns_per_acq", "ns"),
    ("core.record_hit_ns", "ns"),
    ("core.batch_commit_ns", "ns"),
    ("replacement.record_hit_ns", "ns"),
    ("replacement.record_miss_ns", "ns"),
    ("replacement.sim_hit_ratio", "ratio"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Untraced/traced replay pairs behind `trace.overhead_pct`.
const REPLAY_PAIRS: usize = 3;
/// Longest page string the standalone policy replays take.
const MAX_POLICY_ACCESSES: usize = 4_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_stale: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject_stale: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--inject-stale" => a.inject_stale = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds < 3600.0) {
        return Err("--seconds must be in (0, 3600)".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // `all` runs every workload in turn, each ending in its JSON line.
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => workload::NAMES.to_vec(),
        name => vec![name],
    };
    for name in names {
        let Some(spec) = workload::spec(name) else {
            eprintln!(
                "perfbench: unknown workload {name:?} (want all or one of {:?})",
                workload::NAMES
            );
            return ExitCode::from(2);
        };
        if let Err(e) = run(&spec, &args) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The declared unit of a metric.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map_or("lines", |m| m.1)
}

/// Collected metric values, in insertion order, with a note each.
#[derive(Default)]
struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, note.into()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

fn run(spec: &Spec, args: &Args) -> Result<(), String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let self_test = check::self_test();
    println!(
        "checker self-test: {}",
        if self_test {
            "stale and corrupt replies counted"
        } else {
            "FAILED"
        }
    );
    let t = Instant::now();
    let lists = workload::generate(spec, args.seed);
    let checker = Checker::new(spec.pages, &workload::scan_starts(spec));
    let count = |op: Op| lists.iter().flatten().filter(|r| r.op == op).count();
    println!(
        "inputs: {CONNECTIONS} connections x {} requests (get {}, put {}, scan {}), hash {:016x}, ready in {:.2} s",
        spec.list_len,
        count(Op::Get),
        count(Op::Put),
        count(Op::Scan),
        workload::input_hash(&lists),
        t.elapsed().as_secs_f64()
    );
    println!(
        "server: frames {} x {PAGE_SIZE} B, pages {}, manager {}, other settings default; open loop {} req/s",
        spec.frames,
        spec.pages,
        ServerConfig::default().manager,
        spec.open_rate
    );

    let live = live::run(spec, args.seconds, args.inject_stale, &lists, &checker)?;
    let mut m = Metrics::default();

    // --- End to end: medians over segments ---------------------------------
    let seg = |f: fn(&live::Segment) -> f64| median(live.segments.iter().map(f).collect());
    let segs = format!("median of {SEGMENTS} segments");
    m.put("setup_s", seg(|s| s.setup_s), segs.clone());
    m.put(
        "throughput_rps",
        seg(|s| s.throughput_rps),
        format!("{segs}, pipeline {}", workload::PIPELINE),
    );
    m.put(
        "cpu_us_per_req",
        seg(|s| s.cpu_us_per_req),
        format!("{segs}, closed loop, client included"),
    );
    let open = &live.open;
    let n = |op: Op| open.latency_ns[op.index()].len();
    let window = format!("{segs} of {:?}-window medians", live.window);
    m.put(
        "get_p50_us",
        seg(|s| s.get_p50_ns) / 1e3,
        format!("{window}, n={}", n(Op::Get)),
    );
    m.put(
        "get_p99_us",
        seg(|s| s.get_p99_ns) / 1e3,
        format!("{window}, n={}", n(Op::Get)),
    );
    m.put(
        "get_service_p50_us",
        seg(|s| s.get_service_p50_ns) / 1e3,
        format!("{window}, n={}", n(Op::Get)),
    );
    let all = open.latency_ns.iter().map(Vec::len).sum::<usize>();
    m.put(
        "req_p99_us",
        seg(|s| s.req_p99_ns) / 1e3,
        format!("{window}, n={all}, all ops"),
    );
    m.put(
        "peak_rss_mib",
        live.peak_rss_mib,
        "VmHWM after the first warm-up",
    );

    // --- Per layer, live run ----------------------------------------------------
    // PUTs and SCANs are too few per window: whole-run percentiles.
    for op in [Op::Put, Op::Scan] {
        let mut s: Vec<u64> = open.latency_ns[op.index()].iter().map(|x| x.1).collect();
        let n = s.len();
        m.put(
            &format!("{}_p50_us", op.name()),
            percentile(&mut s, 0.50) / 1e3,
            format!("n={n}"),
        );
        m.put(
            &format!("{}_p99_us", op.name()),
            percentile(&mut s, 0.99) / 1e3,
            format!("n={n}"),
        );
    }
    let closed = &live.closed;
    let attempted = closed.attempted + open.attempted;
    let failed = closed.failed + open.failed;
    m.put(
        "failed_op_ratio",
        ratio(failed as f64, attempted as f64),
        format!("{failed} of {attempted}"),
    );
    let stage = |s: Stage| {
        live.stages
            .iter()
            .find(|x| x.0 == s)
            .map_or((0, 0), |x| (x.1, x.2))
    };
    let gets = stage(Stage::PinHit).1 as f64;
    let per_get = |st: &[Stage]| ratio(st.iter().map(|&s| stage(s).0).sum::<u64>() as f64, gets);
    let parts = [
        ("server.decode_ns", per_get(&[Stage::Decode])),
        ("server.queue_wait_ns", per_get(&[Stage::QueueWait])),
        (
            "server.execute_ns",
            per_get(&[Stage::PinHit, Stage::MissIo, Stage::BatchCommit]),
        ),
        ("server.reply_flush_ns", per_get(&[Stage::ReplyFlush])),
    ];
    let rtts: Vec<u64> = open.service_ns[Op::Get.index()]
        .iter()
        .map(|x| x.1)
        .collect();
    let client_get = mean(&rtts);
    let staged: f64 = parts.iter().map(|p| p.1).sum();
    for (name, v) in parts {
        m.put(name, v, format!("mean per open-loop GET, n={gets}"));
    }
    m.put(
        "server.unattributed_ns",
        client_get - staged,
        "client GET mean minus stage means",
    );
    println!(
        "reconcile live GET: client send-to-reply mean {client_get:.0} ns = server stages {staged:.0} ns + unattributed {:.0} ns",
        client_get - staged
    );
    m.put(
        "server.peak_queue_depth",
        live.peak_queue_depth as f64,
        "highest of any segment",
    );
    m.put("server.busy", live.busy as f64, "all segments");
    m.put("server.dropped", live.dropped as f64, "all segments");
    m.put(
        "evl.wakeups_per_req",
        ratio(live.epoll_wakeups as f64, live.replies as f64),
        "0 under the threaded frontend",
    );
    m.put(
        "evl.ready_per_wakeup",
        ratio(live.ready_sum as f64, live.ready_count as f64),
        "0 under the threaded frontend",
    );

    let p = &live.pool;
    let fetches = (p.hits + p.misses) as f64;
    let timed = format!("{fetches} fetches in the timed phases");
    m.put(
        "bufferpool.hit_ratio",
        ratio(p.hits as f64, fetches),
        timed.clone(),
    );
    m.put(
        "bufferpool.writebacks_per_miss",
        ratio(p.writebacks as f64, p.misses as f64),
        format!("{} misses", p.misses),
    );
    m.put(
        "bufferpool.miss_lock_wait_ns_per_acq",
        ratio(p.miss_lock.wait_ns as f64, p.miss_lock.acquisitions as f64),
        format!("{} acquisitions", p.miss_lock.acquisitions),
    );
    let per_mop = |n: u64| ratio(n as f64 * 1e6, fetches);
    let per_kop = |n: u64| ratio(n as f64 * 1e3, fetches);
    m.put(
        "bufferpool.pin_cas_retries_per_mop",
        per_mop(p.pin_cas_retries),
        timed.clone(),
    );
    m.put(
        "bufferpool.page_table_fallback_per_mop",
        per_mop(p.table_fallbacks),
        timed.clone(),
    );
    m.put("storage.reads_per_kop", per_kop(p.reads), timed.clone());
    m.put("storage.writes_per_kop", per_kop(p.writes), timed.clone());
    let lock = &p.lock;
    let acq = format!("{} acquisitions", lock.acquisitions);
    m.put(
        "core.accesses_per_acquisition",
        lock.accesses_per_acquisition(),
        acq.clone(),
    );
    m.put(
        "core.contentions_per_m_access",
        per_mop(lock.contentions),
        timed,
    );
    m.put(
        "core.lock_wait_ns_per_acq",
        ratio(lock.wait_ns as f64, lock.acquisitions as f64),
        acq.clone(),
    );
    m.put(
        "core.lock_hold_ns_per_acq",
        ratio(lock.hold_ns as f64, lock.acquisitions as f64),
        acq,
    );
    let mut lag = open.lag_ns.clone();
    m.put(
        "loadgen.lag_p99_us",
        percentile(&mut lag, 0.99) / 1e3,
        format!("n={}", lag.len()),
    );

    // --- Per layer, traced replay --------------------------------------------------
    if args.trace {
        let sent: Vec<u64> = live
            .timed_sent
            .iter()
            .map(|n| n + spec.warmup as u64)
            .collect();
        traced(spec, &lists, &sent, &mut m)?;
    }
    let mut total = 0;
    for c in CRATES {
        let n = stats::count_loc(&Path::new("crates").join(c).join("src"));
        total += n;
        m.put(&format!("loc.{c}"), n as f64, "non-blank, non-comment");
    }
    m.put("loc.total", total as f64, "all crates");

    for (name, value, note) in &m.0 {
        println!("metric {name} = {value} {} ({note})", unit_of(name));
    }
    // The result line counts every checked request, warm-ups included.
    let checked = live.warmup_attempted + attempted;
    let failures = checker.failed();
    let correct = self_test && failures == 0 && closed.ok > 0 && open.ok > 0;
    let declared: Vec<(String, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(CRATES.iter().map(|c| (format!("loc.{c}"), "lines")))
            .chain([("loc.total".to_string(), "lines")])
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut json = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let v = m
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {checked}, \"failed\": {failures}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    Ok(())
}

/// The page accesses the live run made, connections interleaved request
/// by request, and where the post-warm-up part starts. Segments resume
/// where the previous one stopped, so the timed requests of all
/// segments are one contiguous stretch of each list.
fn live_page_string(spec: &Spec, lists: &[Vec<Req>], sent: &[u64]) -> (Vec<u64>, usize) {
    let mut pages = Vec::new();
    let mut measured_from = 0;
    let rounds = sent.iter().copied().max().unwrap_or(0) as usize;
    let index = |list: &[Req], k: usize| {
        if k < list.len() {
            k
        } else {
            spec.warmup + (k - spec.warmup) % (list.len() - spec.warmup)
        }
    };
    'outer: for k in 0..rounds {
        if k == spec.warmup {
            measured_from = pages.len();
        }
        for (c, list) in lists.iter().enumerate() {
            if (k as u64) < sent[c] {
                let r = list[index(list, k)];
                let n = if r.op == Op::Scan { SCAN_LEN as u64 } else { 1 };
                pages.extend(r.page..r.page + n);
                if pages.len() >= MAX_POLICY_ACCESSES {
                    break 'outer;
                }
            }
        }
    }
    (pages, measured_from)
}

/// The traced in-process replay and the standalone policy replays.
fn traced(spec: &Spec, lists: &[Vec<Req>], sent: &[u64], m: &mut Metrics) -> Result<(), String> {
    let manager_spec = ServerConfig::default().manager;
    let epoch = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    for _ in 0..REPLAY_PAIRS {
        off.push(replay::replay(spec, &manager_spec, lists, false).rps);
        let run = replay::replay(spec, &manager_spec, lists, true);
        on.push(run.rps);
        spans = run.spans;
    }
    let (off_rps, on_rps) = (median(off), median(on));
    m.put(
        "trace.overhead_pct",
        (ratio(off_rps, on_rps) - 1.0) * 100.0,
        format!(
            "replay {off_rps:.0} req/s untraced vs {on_rps:.0} traced, medians of {REPLAY_PAIRS}"
        ),
    );

    let layer = |name: Name, op: Option<Op>, miss: Option<bool>| {
        mean_ns(&spans, |s| {
            s.name == name && op.is_none_or(|o| s.op == o) && miss.is_none_or(|x| s.miss == x)
        })
    };
    let mut put =
        |metric: &str, (v, n): (f64, u64), what: &str| m.put(metric, v, format!("{what}, n={n}"));
    put(
        "protocol.decode_ns",
        layer(Name::Decode, None, None),
        "all requests",
    );
    put(
        "protocol.encode_ns",
        layer(Name::Encode, Some(Op::Get), None),
        "4 KiB GET reply",
    );
    put(
        "bufferpool.fetch_hit_ns",
        layer(Name::Fetch, None, Some(false)),
        "hit fetches",
    );
    put(
        "bufferpool.fetch_miss_ns",
        layer(Name::Fetch, None, Some(true)),
        "miss fetches",
    );
    put(
        "bufferpool.read_copy_ns",
        layer(Name::Read, Some(Op::Get), None),
        "GET page copy",
    );
    put(
        "bufferpool.write_ns",
        layer(Name::Write, None, None),
        "PUT page write",
    );
    put(
        "bufferpool.unpin_ns",
        layer(Name::Unpin, None, None),
        "all unpins",
    );

    let totals = replay::totals(&spans);
    let none = replay::SpanTotals::default();
    let get = |l: &str| totals.get(l).unwrap_or(&none);
    let requests = get("request").count as f64;
    let per_req = |l: &str| ratio(get(l).self_ns as f64, requests);
    let request_mean = ratio(get("request").total_ns as f64, requests);
    let mut summed = per_req("request");
    let mut line = format!("request self (unattributed) {:.0}", per_req("request"));
    for l in Name::LAYERS {
        summed += per_req(l.label());
        line.push_str(&format!(", {} {:.0}", l.label(), per_req(l.label())));
    }
    println!(
        "reconcile replay: mean request span {request_mean:.0} ns = summed self times {summed:.0} ns ({line}; ns per request, n={requests})"
    );

    let (pages, measured_from) = live_page_string(spec, lists, sent);
    let kind = replay::policy_of(&manager_spec);
    let costs = replay::policy_costs(kind, spec.frames, &pages, measured_from, epoch);
    let what = format!("{} accesses, {}", pages.len(), kind.name());
    m.put(
        "core.record_hit_ns",
        costs.core_hit_ns,
        format!("{what}, non-committing hits"),
    );
    m.put(
        "core.batch_commit_ns",
        costs.core_commit_ns,
        format!("{what}, {} commits", costs.commits),
    );
    m.put(
        "replacement.record_hit_ns",
        costs.replacement_hit_ns,
        what.clone(),
    );
    m.put(
        "replacement.record_miss_ns",
        costs.replacement_miss_ns,
        what.clone(),
    );
    m.put(
        "replacement.sim_hit_ratio",
        costs.sim_hit_ratio,
        format!("{what}, after warm-up"),
    );

    let path = Path::new("perfbench")
        .join("out")
        .join(format!("spans_{}.tsv", spec.name));
    spans.push(costs.spans);
    replay::write_spans(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        spans.iter().map(Vec::len).sum::<usize>(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let file =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .chain(
                CRATES
                    .iter()
                    .map(|c| (format!("loc.{c}"), "lines".to_string())),
            )
            .chain([("loc.total".to_string(), "lines".to_string())]);
        for (name, unit) in names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in workload::NAMES {
            assert!(
                file.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }
}
