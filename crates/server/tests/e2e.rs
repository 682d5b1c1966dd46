//! End-to-end tests: a real server on an ephemeral port, real TCP
//! clients, and the acceptance checks from the issue — zero loss under
//! the block policy, last-write-wins content correctness, and STATS
//! that parse with non-zero tail latencies.
//!
//! The scenarios include pipelined clients (reply order, slowloris,
//! mid-request disconnect): a connection thread must tolerate them even
//! though it executes one request at a time.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bpw_metrics::JsonValue;
use bpw_server::{
    loadgen, AdmissionPolicy, Client, FaultPlan, LoadConfig, LoadMode, Request, Response, Server,
    ServerConfig,
};
use bpw_workloads::{zipf::splitmix64, PageStream, Workload, ZipfWorkload};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: u64 = 12_500; // x8 clients = 100k total
const PAGES: u64 = 1024;
const PAGE_SIZE: usize = 64;

/// The global trace collector is shared by every test in this binary;
/// tests that toggle it must not overlap.
static TRACE_GATE: Mutex<()> = Mutex::new(());

fn test_server(policy: AdmissionPolicy, manager: &str, queue: usize) -> Server {
    Server::start(ServerConfig {
        workers: 4,
        queue_capacity: queue,
        policy,
        frames: 256,
        page_size: PAGE_SIZE,
        pages: PAGES,
        manager: manager.into(),
        ..ServerConfig::default()
    })
    .expect("server start")
}

/// The issue's headline test: 8 client threads, 100k Zipf-distributed
/// GET/PUT requests through the block policy. Every request must be
/// answered OK (zero loss), every GET must return exactly the bytes of
/// the last PUT to that page (threads own disjoint page sets, so
/// last-write-wins is deterministic), and the final STATS must parse
/// with a non-zero p99.
fn block_policy_100k_zipf_requests_zero_loss_and_correct_contents() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 128);
    let addr = server.addr();
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let ok_replies = AtomicU64::new(0);

    std::thread::scope(|sc| {
        for t in 0..CLIENTS {
            let workload = &workload;
            let ok_replies = &ok_replies;
            sc.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut stream = PageStream::for_thread(workload, t, 0xE2E);
                // Thread t owns exactly the pages ≡ t (mod CLIENTS): no
                // cross-thread writes, so expected content is exact.
                let mut written: HashMap<u64, u8> = HashMap::new();
                let mut coin = 0xC01D_u64 ^ t as u64;
                for i in 0..REQUESTS_PER_CLIENT {
                    let raw = stream.next_page();
                    let page = (raw - raw % CLIENTS as u64 + t as u64) % PAGES;
                    coin = splitmix64(coin);
                    if coin % 4 == 0 {
                        // PUT: self-identifying header + a fill byte that
                        // changes every write.
                        let fill = (i % 251) as u8;
                        let mut body = vec![fill; 24];
                        body[..8].copy_from_slice(&page.to_le_bytes());
                        match client.put(page, body).expect("put io") {
                            Response::Ok(_) => {
                                ok_replies.fetch_add(1, Ordering::Relaxed);
                                written.insert(page, fill);
                            }
                            other => panic!("PUT answered {other:?} under block policy"),
                        }
                    } else {
                        match client.get(page).expect("get io") {
                            Response::Ok(bytes) => {
                                ok_replies.fetch_add(1, Ordering::Relaxed);
                                assert_eq!(bytes.len(), PAGE_SIZE);
                                let id = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                                assert_eq!(id, page, "page header corrupted");
                                if let Some(&fill) = written.get(&page) {
                                    assert!(
                                        bytes[8..24].iter().all(|&b| b == fill),
                                        "GET of page {page} did not see the last PUT \
                                         (want fill {fill:#x}, got {:?})",
                                        &bytes[8..24]
                                    );
                                }
                            }
                            other => panic!("GET answered {other:?} under block policy"),
                        }
                    }
                }
            });
        }
    });

    // Zero loss: all 100k requests were answered OK.
    assert_eq!(
        ok_replies.load(Ordering::Relaxed),
        CLIENTS as u64 * REQUESTS_PER_CLIENT
    );

    // STATS parses and shows the traffic with non-zero tail latency.
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    let v = JsonValue::parse(&stats).expect("STATS reply must be valid JSON");
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_u64),
        Some(CLIENTS as u64 * REQUESTS_PER_CLIENT),
        "server-side OK count: {stats}"
    );
    assert_eq!(v.get("busy").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(v.get("dropped").and_then(JsonValue::as_u64), Some(0));
    let get_p99 = v
        .get("get_ns")
        .and_then(|h| h.get("p99"))
        .and_then(JsonValue::as_u64)
        .expect("get_ns.p99 present");
    assert!(get_p99 > 0, "p99 must be non-zero: {stats}");
    let put_count = v
        .get("put_ns")
        .and_then(|h| h.get("count"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    let get_count = v
        .get("get_ns")
        .and_then(|h| h.get("count"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert_eq!(get_count + put_count, CLIENTS as u64 * REQUESTS_PER_CLIENT);

    drop(client);
    server.join();
}

/// A zero-millisecond deadline drops every data request at dequeue —
/// and the reply is DROPPED, not a hang or a connection error.
fn zero_deadline_drops_every_request() {
    let server = test_server(
        AdmissionPolicy::DeadlineDrop(Duration::ZERO),
        "coarse-lru",
        64,
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut dropped = 0;
    for page in 0..50u64 {
        match client.get(page).expect("get io") {
            Response::Dropped => dropped += 1,
            Response::Ok(_) => {} // the grant can land at 0ns elapsed
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(dropped > 0, "a zero deadline must drop requests");
    let stats = client.stats().expect("stats");
    let v = JsonValue::parse(&stats).unwrap();
    assert_eq!(v.get("dropped").and_then(JsonValue::as_u64), Some(dropped));
    drop(client);
    server.join();
}

/// Under shed, every request is answered either OK or BUSY — nothing is
/// lost silently, and BUSY replies arrive promptly instead of blocking.
fn shed_policy_answers_ok_or_busy() {
    let server = test_server(AdmissionPolicy::Shed, "wrapped-lirs", 2);
    let addr = server.addr();
    let ok = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let per_client = 500u64;
    std::thread::scope(|sc| {
        for t in 0..6u64 {
            let (ok, busy) = (&ok, &busy);
            sc.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..per_client {
                    match client.get((t * per_client + i) % PAGES).expect("get io") {
                        Response::Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                        Response::Busy => busy.fetch_add(1, Ordering::Relaxed),
                        other => panic!("unexpected reply {other:?}"),
                    };
                }
            });
        }
    });
    assert_eq!(
        ok.load(Ordering::Relaxed) + busy.load(Ordering::Relaxed),
        6 * per_client
    );
    server.join();
}

/// SCAN's checksum equals the FNV-1a chain over the same pages fetched
/// one GET at a time.
fn scan_checksum_matches_individual_gets() {
    let server = test_server(AdmissionPolicy::Block, "clock", 64);
    let mut client = Client::connect(server.addr()).expect("connect");
    // Dirty a page in the range so the checksum covers written data too.
    let mut body = vec![0xA5u8; 32];
    body[..8].copy_from_slice(&7u64.to_le_bytes());
    assert!(matches!(client.put(7, body).unwrap(), Response::Ok(_)));

    let mut expected = 0u64;
    for page in 4..20u64 {
        match client.get(page).unwrap() {
            Response::Ok(bytes) => expected = bpw_server::protocol::fnv1a(expected, &bytes),
            other => panic!("GET answered {other:?}"),
        }
    }
    match client.scan(4, 16).unwrap() {
        Response::Ok(payload) => {
            assert_eq!(payload.len(), 12);
            let count = u32::from_le_bytes(payload[..4].try_into().unwrap());
            let checksum = u64::from_le_bytes(payload[4..].try_into().unwrap());
            assert_eq!(count, 16);
            assert_eq!(checksum, expected, "SCAN checksum disagrees with GETs");
        }
        other => panic!("SCAN answered {other:?}"),
    }
    drop(client);
    server.join();
}

/// Requests outside the configured page universe get ERR, and the
/// connection stays usable afterwards.
fn out_of_range_requests_error_cleanly() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 64);
    let mut client = Client::connect(server.addr()).expect("connect");
    assert!(matches!(client.get(PAGES).unwrap(), Response::Err(_)));
    assert!(matches!(
        client
            .call(&Request::Scan {
                start: PAGES - 4,
                len: 8
            })
            .unwrap(),
        Response::Err(_)
    ));
    assert!(
        matches!(client.get(0).unwrap(), Response::Ok(_)),
        "connection must survive an ERR"
    );
    drop(client);
    server.join();
}

/// The load generator against a live server: closed-loop requests are
/// all answered under block, and the report's accounting adds up.
fn loadgen_closed_loop_round_trips() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 128);
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let cfg = LoadConfig {
        connections: 4,
        requests_per_conn: 1000,
        write_fraction: 0.25,
        mode: LoadMode::Closed {
            think: Duration::ZERO,
        },
        ..LoadConfig::default()
    };
    let report = loadgen::run(server.addr(), &workload, &cfg);
    assert_eq!(report.sent, 4000);
    assert_eq!(
        report.ok,
        4000,
        "block policy loses nothing: {}",
        report.summary()
    );
    assert_eq!(report.latency_ns.count(), 4000);
    assert!(report.throughput() > 0.0);
    assert!(report.latency_ns.quantile(0.99) > 0);
    server.join();
}

/// Open-loop pacing sends the full schedule even when the rate is
/// higher than the server can absorb, and measures from intended
/// arrival (latency >= actual service time).
fn loadgen_open_loop_sends_full_schedule() {
    let server = test_server(AdmissionPolicy::Block, "coarse-2q", 64);
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let cfg = LoadConfig {
        connections: 2,
        requests_per_conn: 300,
        write_fraction: 0.0,
        mode: LoadMode::Open {
            rate_per_sec: 5000.0,
        },
        ..LoadConfig::default()
    };
    let report = loadgen::run(server.addr(), &workload, &cfg);
    assert_eq!(report.sent, 600);
    assert_eq!(report.ok, 600);
    server.join();
}

/// A client SHUTDOWN request stops the acceptor: the running server
/// answers OK, then refuses (or never accepts) new connections.
fn client_shutdown_request_stops_accepting() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 64);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(client.shutdown().unwrap(), Response::Ok(_)));
    assert!(server.stop_requested());
    drop(client);
    server.join();
    // The listener is gone: fresh connects must start failing. The OS
    // may briefly accept into a dying socket's backlog, so poll the
    // condition with a deadline instead of betting on one attempt.
    assert!(
        bpw_server::poll_until(Duration::from_secs(5), || {
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
        }),
        "listener should be closed after join"
    );
}

/// METRICS returns a well-formed Prometheus-style exposition covering
/// request counters, both instrumented locks, the connection gauges,
/// and the trace collector's health; STATS carries the matching JSON
/// sub-objects.
fn metrics_exposition_and_enriched_stats() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 64);
    let mut client = Client::connect(server.addr()).expect("connect");
    for page in 0..64u64 {
        assert!(matches!(client.get(page).unwrap(), Response::Ok(_)));
    }

    let text = client.metrics().expect("METRICS reply");
    let samples = bpw_trace::validate_exposition(&text).expect("well-formed exposition");
    assert!(samples >= 20, "only {samples} samples:\n{text}");
    assert!(text.contains("bpw_requests_total{status=\"ok\"}"));
    assert!(text.contains("bpw_get_latency_ns_count"));
    assert!(text.contains("bpw_lock_acquisitions_total{lock=\"replacement\"}"));
    assert!(text.contains("bpw_lock_acquisitions_total{lock=\"miss\"}"));
    assert!(text.contains("bpw_miss_shard_acquisitions_total{shard=\"0\"}"));
    assert!(text.contains("bpw_miss_lock_shards"));
    assert!(text.contains("bpw_free_list_steals_total"));
    assert!(text.contains("bpw_trace_dropped_events_total"));
    assert!(text.contains("bpw_connections_open"));
    // Stage attribution, SLO burn, per-ring drop, and flight-recorder
    // series are always exposed (zero-valued while unarmed).
    assert!(text.contains("bpw_stage_latency_ns_count{op=\"get\",stage=\"queue_wait\"}"));
    assert!(text.contains("bpw_stage_latency_ns_count{op=\"get\",stage=\"pin_hit\"}"));
    assert!(text.contains("bpw_slo_violations_total{op=\"get\"}"));
    assert!(text.contains("bpw_trace_ring_dropped_events_total"));
    assert!(text.contains("bpw_exemplars_captured_total"));
    assert!(text.contains("bpw_flight_slo_ns"));

    let stats = client.stats().expect("STATS reply");
    let v = JsonValue::parse(&stats).expect("STATS JSON");
    assert!(
        v.get("miss_lock")
            .and_then(|l| l.get("acquisitions"))
            .and_then(JsonValue::as_u64)
            .is_some_and(|a| a >= 1),
        "64 cold fetches must acquire the miss lock: {stats}"
    );
    let shards = v.get("miss_locks").expect("shard-aware miss-lock summary");
    assert!(
        shards
            .get("shards")
            .and_then(JsonValue::as_u64)
            .is_some_and(|s| s >= 2),
        "default pool must partition the miss path: {stats}"
    );
    // The aggregate view and the shard summary must agree.
    assert_eq!(
        shards.get("total_acquisitions").and_then(JsonValue::as_u64),
        v.get("miss_lock")
            .and_then(|l| l.get("acquisitions"))
            .and_then(JsonValue::as_u64),
    );
    assert!(v.get("free_list_steals").is_some());
    assert!(v.get("trace").and_then(|t| t.get("enabled")).is_some());
    // Stage histograms in STATS: the 64 GETs above must have left
    // samples (with quantile summaries) in every always-on stage.
    let get_stages = v
        .get("stages")
        .and_then(|s| s.get("get"))
        .expect("per-op stage sub-object");
    for stage in ["decode", "queue_wait", "pin_hit", "reply_flush"] {
        assert!(
            get_stages
                .get(stage)
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_u64)
                .is_some_and(|c| c >= 64),
            "stage {stage} must have a sample per GET: {stats}"
        );
    }
    assert!(
        get_stages
            .get("queue_wait")
            .and_then(|h| h.get("p999"))
            .is_some(),
        "stage summaries carry p999: {stats}"
    );
    // 64 cold fetches must attribute some miss I/O.
    assert!(
        get_stages
            .get("miss_io")
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_u64)
            .is_some_and(|c| c >= 1),
        "cold GETs must land miss_io samples: {stats}"
    );
    // Presence only: the recorder is process-global, so another test
    // may have it armed while this server replies.
    assert!(
        v.get("slo_violations")
            .and_then(|s| s.get("get"))
            .and_then(JsonValue::as_u64)
            .is_some(),
        "SLO burn counters must be present: {stats}"
    );
    assert!(v.get("flight").and_then(|f| f.get("slo_ns")).is_some());
    // Connection gauge: this client is the open connection.
    assert!(
        v.get("connections_open")
            .and_then(JsonValue::as_u64)
            .is_some_and(|c| c >= 1),
        "the asking client must be counted open: {stats}"
    );
    drop(client);
    server.join();
}

/// A server with combining commit enabled serves the same traffic
/// correctly: combining changes how batches reach the policy under
/// contention, never what data clients see.
fn combining_server_serves_correct_data() {
    let server = Server::start(ServerConfig {
        workers: 4,
        queue_capacity: 128,
        policy: AdmissionPolicy::Block,
        frames: 128,
        page_size: PAGE_SIZE,
        pages: PAGES,
        manager: "wrapped-lirs".into(),
        combining: bpw_core::Combining::Flat,
        ..ServerConfig::default()
    })
    .expect("combining server start");
    let addr = server.addr();
    std::thread::scope(|sc| {
        for t in 0..4u64 {
            sc.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut x = splitmix64(t ^ 0xC0B1);
                for _ in 0..2_000u32 {
                    x = splitmix64(x);
                    let page = x % PAGES;
                    match client.get(page).expect("transport") {
                        Response::Ok(body) => {
                            assert_eq!(
                                u64::from_le_bytes(body[..8].try_into().unwrap()),
                                page,
                                "combining served wrong bytes"
                            );
                        }
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
            });
        }
    });
    let stats = server.stats_json();
    let v = JsonValue::parse(&stats).expect("STATS JSON");
    assert!(
        v.get("ok")
            .and_then(JsonValue::as_u64)
            .is_some_and(|ok| ok == 4 * 2_000),
        "all requests must be OK: {stats}"
    );
    server.join();
}

/// With tracing enabled, a served request leaves enqueue/dequeue/reply
/// events in the collector.
fn traced_requests_leave_server_events() {
    use bpw_trace::EventKind;

    let _gate = TRACE_GATE.lock().unwrap();
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 64);
    let mut client = Client::connect(server.addr()).expect("connect");
    bpw_trace::clear();
    bpw_trace::set_enabled(true);
    for page in 0..32u64 {
        assert!(matches!(client.get(page).unwrap(), Response::Ok(_)));
    }
    bpw_trace::set_enabled(false);
    let events = bpw_trace::drain();
    for kind in [
        EventKind::ServerEnqueue,
        EventKind::ServerDequeue,
        EventKind::ServerReply,
    ] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "no {kind:?} event among {} drained",
            events.len()
        );
    }
    drop(client);
    server.join();
}

/// The flight-recorder acceptance check: a server armed with a 1us SLO
/// treats every request as a violation; `EXEMPLARS` must return valid
/// Chrome-trace JSON in which at least one captured request id owns the
/// full causal chain — queue wait (`server_dequeue`), `pin_or_miss`,
/// and `server_reply` — and STATS must burn the matching SLO counters.
fn flight_recorder_captures_slow_request_span_chains() {
    let _gate = TRACE_GATE.lock().unwrap();
    bpw_trace::clear();
    bpw_trace::flight::clear();
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        policy: AdmissionPolicy::Block,
        frames: 64,
        page_size: PAGE_SIZE,
        pages: PAGES,
        manager: "wrapped-2q".into(),
        slo_us: Some(1),
        ..ServerConfig::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    for page in 0..32u64 {
        assert!(matches!(client.get(page).unwrap(), Response::Ok(_)));
    }

    let json = client.exemplars().expect("EXEMPLARS reply");
    let v = JsonValue::parse(&json).expect("EXEMPLARS must be valid JSON");
    let Some(JsonValue::Arr(events)) = v.get("traceEvents") else {
        panic!("EXEMPLARS lacks a traceEvents array: {json}");
    };
    assert!(!events.is_empty(), "armed recorder captured no spans");
    // Chrome-trace validity + request attribution: every event carries
    // name/ph/ts and a non-zero args.req stamp.
    let mut chains: HashMap<u64, Vec<String>> = HashMap::new();
    for e in events {
        assert!(
            e.get("ph").is_some() && e.get("ts").is_some(),
            "malformed trace event: {json}"
        );
        let req = e
            .get("args")
            .and_then(|a| a.get("req"))
            .and_then(JsonValue::as_u64)
            .expect("every exemplar event must carry args.req");
        assert!(req > 0, "request ids start at 1");
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("event name")
            .to_string();
        chains.entry(req).or_default().push(name);
    }
    assert!(
        chains.values().any(|names| {
            ["server_dequeue", "pin_or_miss", "server_reply"]
                .iter()
                .all(|want| names.iter().any(|n| n == want))
        }),
        "no request id owns the full queue-wait + pin-or-miss + reply chain: {chains:?}"
    );
    let index = v
        .get("otherData")
        .and_then(|o| o.get("exemplars"))
        .expect("exemplar index");
    let JsonValue::Arr(index) = index else {
        panic!("exemplar index must be an array: {json}")
    };
    assert!(!index.is_empty());
    assert!(index.iter().all(|ex| ex
        .get("request_id")
        .and_then(JsonValue::as_u64)
        .is_some_and(|r| r > 0)));

    // STATS agrees: every OK GET blew the 1us budget.
    let stats = client.stats().expect("stats");
    let sv = JsonValue::parse(&stats).unwrap();
    assert!(
        sv.get("slo_violations")
            .and_then(|s| s.get("get"))
            .and_then(JsonValue::as_u64)
            .is_some_and(|n| n >= 32),
        "every GET must burn the 1us SLO: {stats}"
    );
    assert!(
        sv.get("flight")
            .and_then(|f| f.get("captured_total"))
            .and_then(JsonValue::as_u64)
            .is_some_and(|n| n >= 32),
        "every violation must be captured: {stats}"
    );

    // METRICS exposes the burn and capture counters.
    let text = client.metrics().expect("metrics");
    assert!(text.contains("bpw_exemplars_captured_total"));
    assert!(text.contains("bpw_slo_violations_total{op=\"get\"}"));

    drop(client);
    server.join();
    // join() disarms the recorder and disables tracing; leave no
    // exemplars behind for other tests either.
    bpw_trace::flight::clear();
    bpw_trace::clear();
    assert_eq!(bpw_trace::flight::slo_ns(), 0, "join must disarm");
}

/// Pipelined requests on one connection: the responses come back
/// strictly in request order, with contents matching request-by-request
/// expectations — even when the batch mixes PUT, GET, SCAN, and STATS.
fn pipelined_responses_arrive_in_request_order() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 128);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Batch 1: tag 16 pages with distinct fills.
    let puts: Vec<Request> = (0..16u64)
        .map(|p| {
            let mut data = vec![p as u8 + 1; 24];
            data[..8].copy_from_slice(&p.to_le_bytes());
            Request::Put { page: p, data }
        })
        .collect();
    for resp in client.call_pipelined(&puts).expect("pipelined PUTs") {
        assert!(matches!(resp, Response::Ok(_)));
    }

    // Batch 2: read them back interleaved with control and range ops.
    let mut reqs = Vec::new();
    for p in 0..16u64 {
        reqs.push(Request::Get { page: p });
        if p == 7 {
            reqs.push(Request::Stats);
            reqs.push(Request::Scan { start: 0, len: 8 });
        }
    }
    let resps = client.call_pipelined(&reqs).expect("pipelined mixed batch");
    assert_eq!(resps.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&resps) {
        match (req, resp) {
            (Request::Get { page }, Response::Ok(body)) => {
                assert_eq!(
                    u64::from_le_bytes(body[..8].try_into().unwrap()),
                    *page,
                    "response out of order: GET {page} got another page's bytes"
                );
                assert!(
                    body[8..24].iter().all(|&b| b == *page as u8 + 1),
                    "GET {page} does not carry its own PUT's fill"
                );
            }
            (Request::Stats, Response::Ok(body)) => {
                let json = String::from_utf8(body.clone()).expect("UTF-8 STATS");
                JsonValue::parse(&json).expect("STATS JSON mid-pipeline");
            }
            (Request::Scan { .. }, Response::Ok(payload)) => {
                assert_eq!(payload.len(), 12);
            }
            (req, resp) => panic!("{req:?} answered {resp:?}"),
        }
    }

    // A pipelined loadgen run over several connections agrees.
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let report = loadgen::run(
        server.addr(),
        &workload,
        &LoadConfig {
            connections: 4,
            requests_per_conn: 1_024,
            write_fraction: 0.2,
            pipeline: 16,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.sent, 4 * 1_024);
    assert_eq!(report.ok, 4 * 1_024, "{}", report.summary());

    drop(client);
    server.join();
}

/// Slowloris: a client dribbling a valid request one byte at a time
/// must (a) eventually get the right answer and (b) never stall other
/// clients.
fn slowloris_client_cannot_stall_others() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 64);
    let addr = server.addr();

    let slow = std::thread::spawn(move || {
        let mut stream =
            std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).ok();
        let body = Request::Get { page: 3 }.encode();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        for &b in &wire {
            stream.write_all(&[b]).expect("dribble");
            stream.flush().ok();
            std::thread::sleep(Duration::from_millis(5));
        }
        // The torn frame is finally whole; the reply must arrive.
        let mut reader = std::io::BufReader::new(stream);
        let mut buf = Vec::new();
        assert!(bpw_server::protocol::read_frame(&mut reader, &mut buf).expect("reply frame"));
        match Response::decode(&buf).expect("decode") {
            Response::Ok(bytes) => {
                assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 3);
            }
            other => panic!("slowloris GET answered {other:?}"),
        }
    });

    // While the slow client dribbles (~65 wakeups worth), fast clients
    // must make normal progress.
    let mut fast = Client::connect(addr).expect("fast connect");
    let fast_started = std::time::Instant::now();
    for page in 0..100u64 {
        assert!(matches!(fast.get(page % PAGES).unwrap(), Response::Ok(_)));
    }
    assert!(
        fast_started.elapsed() < Duration::from_secs(2),
        "fast client starved behind a slowloris: {:?}",
        fast_started.elapsed()
    );

    slow.join().expect("slow client");
    drop(fast);
    server.join();
}

/// A client that sends requests and vanishes mid-flight: its connection
/// thread must finish (or discard) the orphaned work without leaking, the
/// pool's frame accounting must return to exact, and new clients must
/// be served as if nothing happened.
fn mid_request_disconnect_leaks_nothing() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 128);
    let addr = server.addr();

    for round in 0..8u64 {
        let mut stream =
            std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).ok();
        // A burst of expensive SCANs plus a torn trailing frame, then
        // vanish without reading a single reply.
        let mut wire = Vec::new();
        for _ in 0..8 {
            let body = Request::Scan {
                start: round * 64,
                len: 64,
            }
            .encode();
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(&body);
        }
        wire.extend_from_slice(&[0x40, 0, 0, 0, 0xFF]); // torn frame: header + 1 of 64 bytes
        stream.write_all(&wire).expect("burst");
        drop(stream); // RST/EOF while up to 8 requests are in flight
    }

    // The server must still answer promptly on a fresh connection.
    let mut client = Client::connect(addr).expect("connect after disconnects");
    for page in 0..32u64 {
        assert!(matches!(client.get(page).unwrap(), Response::Ok(_)));
    }

    // Every orphaned request eventually drains and unpins its frames:
    // free + resident returns to the exact frame count.
    let pool = server.pool().clone();
    let frames = pool.frames();
    assert!(
        bpw_server::poll_until(Duration::from_secs(10), || {
            pool.free_frames() + pool.resident_count() == frames
        }),
        "orphaned requests left frames pinned: {} free + {} resident != {frames}",
        pool.free_frames(),
        pool.resident_count(),
    );

    drop(client);
    server.join();
}

/// Fan-in: 64 connections at once, each pipelining 8 requests at a
/// time under `Block`. Every connection owns its own page range, so the
/// last acknowledged PUT to each page is known exactly; the range is
/// rewritten and read back several times while the pool, four times
/// smaller than the pages touched, evicts dirty pages under everyone.
#[test]
fn sixty_four_pipelined_connections_read_their_own_writes() {
    const CONNS: u64 = 64;
    const DEPTH: usize = 8;
    const OWN: u64 = PAGES / CONNS;
    const ROUNDS: u64 = 4;
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 128);
    let addr = server.addr();
    // Every client holds its connection until all 64 have finished, so
    // all 64 connection threads are alive together. A client counts as
    // finished on unwind too: a failed check must not leave the others
    // waiting.
    struct Finish<'a>(&'a AtomicU64);
    impl Drop for Finish<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let finished = AtomicU64::new(0);
    std::thread::scope(|sc| {
        for c in 0..CONNS {
            let finished = &finished;
            sc.spawn(move || {
                let finish = Finish(finished);
                let mut client = Client::connect(addr).expect("connect");
                let pages: Vec<u64> = (c * OWN..(c + 1) * OWN).collect();
                let body = |page: u64, round: u64| {
                    [page, c, round]
                        .iter()
                        .flat_map(|x| x.to_le_bytes())
                        .collect::<Vec<u8>>()
                };
                for round in 0..ROUNDS {
                    for batch in pages.chunks(DEPTH) {
                        let puts: Vec<Request> = batch
                            .iter()
                            .map(|&page| Request::Put {
                                page,
                                data: body(page, round),
                            })
                            .collect();
                        for (page, resp) in batch.iter().zip(client.call_pipelined(&puts).unwrap())
                        {
                            assert_eq!(resp, Response::Ok(Vec::new()), "PUT {page}");
                        }
                    }
                    for batch in pages.chunks(DEPTH) {
                        let gets: Vec<Request> =
                            batch.iter().map(|&page| Request::Get { page }).collect();
                        for (&page, resp) in batch.iter().zip(client.call_pipelined(&gets).unwrap())
                        {
                            let Response::Ok(bytes) = resp else {
                                panic!("GET {page} answered {resp:?}");
                            };
                            assert_eq!(
                                bytes[..24],
                                body(page, round)[..],
                                "connection {c}: GET {page} did not return round {round}'s PUT"
                            );
                        }
                    }
                }
                drop(finish);
                bpw_server::wait_for(Duration::from_secs(60), "every client finished", || {
                    finished.load(Ordering::SeqCst) == CONNS
                });
            });
        }
    });
    let m = server.metrics();
    assert_eq!(m.ok.get(), CONNS * OWN * ROUNDS * 2);
    assert_eq!(
        (
            m.busy.get(),
            m.dropped.get(),
            m.errors.get(),
            m.io_errors.get()
        ),
        (0, 0, 0, 0)
    );
    assert_eq!(m.connections_open.peak(), CONNS);
    server.join();
}

/// `workers` bounds execution on run-to-completion connection threads:
/// with two slots, a slow disk and eight busy connections, requests
/// pile up waiting, yet no more than two ever execute at once. The
/// bound is read from the gate's slot high-water mark, not inferred
/// from timing.
#[test]
fn workers_bound_concurrent_execution() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        policy: AdmissionPolicy::Block,
        frames: 16,
        page_size: PAGE_SIZE,
        pages: PAGES,
        manager: "wrapped-2q".into(),
        // Every storage access sleeps 2 ms while holding its slot.
        fault_plan: Some(FaultPlan {
            spike_ppm: 1_000_000,
            spike: Duration::from_millis(2),
            ..FaultPlan::default()
        }),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();
    std::thread::scope(|sc| {
        for t in 0..8u64 {
            sc.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Distinct pages, far more than the 16 frames: every GET
                // misses and pays the spike.
                for i in 0..10u64 {
                    let page = t * 10 + i;
                    match client.get(page).expect("get io") {
                        Response::Ok(bytes) => assert_eq!(bytes.len(), PAGE_SIZE),
                        other => panic!("GET {page} answered {other:?}"),
                    }
                }
            });
        }
    });
    let peak = server.exec_gate().peak_running();
    assert!(
        peak <= 2,
        "{peak} requests executed at once with workers: 2"
    );
    assert_eq!(
        peak, 2,
        "both slots were never busy at once; the bound went untested"
    );
    let stats = server.stats_json();
    let v = JsonValue::parse(&stats).unwrap();
    assert!(
        v.get("peak_queue_depth")
            .and_then(JsonValue::as_u64)
            .is_some_and(|d| d > 0),
        "no request ever waited for a slot: {stats}"
    );
    server.join();
}

/// A connection that goes idle commits its deferred BP-Wrapper
/// accesses: fewer hits than the batch threshold would otherwise sit in
/// a private queue until the next burst, and the replacement policy
/// would never learn of them.
fn idle_connection_commits_deferred_hits() {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", 64);
    let mut client = Client::connect(server.addr()).expect("connect");
    // Load four pages: each miss commits under the replacement lock.
    for page in 0..4u64 {
        assert!(matches!(client.get(page).unwrap(), Response::Ok(_)));
    }
    let before = server.pool().manager().lock_snapshot().accesses_covered;
    // Ten hits, well under the default batch threshold of 32: deferred.
    const HITS: u64 = 10;
    for i in 0..HITS {
        assert!(matches!(client.get(i % 4).unwrap(), Response::Ok(_)));
    }
    // The client now goes idle (keeping its connection open).
    let manager = server.pool().manager();
    assert!(
        bpw_server::poll_until(Duration::from_secs(10), || {
            manager.lock_snapshot().accesses_covered >= before + HITS
        }),
        "idle connection left hits uncommitted: {} of {HITS} covered",
        manager.lock_snapshot().accesses_covered - before
    );
    drop(client);
    server.join();
}

/// Dimension check promised by the workload contract: every generated
/// page id stays inside the universe the server was configured with.
#[test]
fn workload_pages_fit_the_server_universe() {
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    assert!(workload.page_universe() <= PAGES);
    let mut stream = PageStream::for_thread(&workload, 0, 1);
    for _ in 0..10_000 {
        assert!(stream.next_page() < PAGES);
    }
}

/// The scenarios above, one test each, under `threaded::`: every
/// connection is served by its own thread.
macro_rules! threaded {
    ($($name:ident),* $(,)?) => {
        mod threaded {
            $(#[test]
            fn $name() {
                super::$name();
            })*
        }
    };
}

threaded!(
    block_policy_100k_zipf_requests_zero_loss_and_correct_contents,
    zero_deadline_drops_every_request,
    shed_policy_answers_ok_or_busy,
    scan_checksum_matches_individual_gets,
    out_of_range_requests_error_cleanly,
    loadgen_closed_loop_round_trips,
    loadgen_open_loop_sends_full_schedule,
    client_shutdown_request_stops_accepting,
    metrics_exposition_and_enriched_stats,
    combining_server_serves_correct_data,
    traced_requests_leave_server_events,
    flight_recorder_captures_slow_request_span_chains,
    pipelined_responses_arrive_in_request_order,
    slowloris_client_cannot_stall_others,
    mid_request_disconnect_leaks_nothing,
    idle_connection_commits_deferred_hits,
);
