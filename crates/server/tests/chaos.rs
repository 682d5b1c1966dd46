//! Chaos end-to-end test: the page service running against a disk that
//! injects transient faults, persistently broken pages, and latency
//! spikes — concurrently, under load.
//!
//! What must hold, per ISSUE 3's acceptance criteria:
//!
//! 1. **No wrong bytes.** Every GET either returns the page's correct
//!    self-identifying contents (first 8 bytes are the page id) or an
//!    explicit `ERR_IO`; a fault must never surface as silently
//!    corrupted data.
//! 2. **No stuck frames.** After the run, every frame is either free or
//!    resident: `free_frames + resident_count == frames`. A failed I/O
//!    must not leave a frame wedged with `io_in_progress` set.
//! 3. **Full recovery.** Once faults are cleared, every page — including
//!    the ones that were persistently broken — fetches successfully.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bpw_metrics::JsonValue;
use bpw_server::{loadgen, Client, FaultPlan, Server, ServerConfig};
use bpw_workloads::{zipf::splitmix64, PageStream, ZipfWorkload};

const PAGES: u64 = 1024;
const FRAMES: usize = 128;
const PAGE_SIZE: usize = 256;

fn chaos_server() -> Server {
    Server::start(ServerConfig {
        workers: 4,
        frames: FRAMES,
        page_size: PAGE_SIZE,
        pages: PAGES,
        fault_plan: Some(FaultPlan {
            seed: 0xC4A0_5EED,
            // A steady drizzle of transient faults: 5% of reads, 2% of
            // writes, plus occasional latency spikes. High enough that a
            // run of a few thousand requests injects hundreds of faults,
            // low enough that retries usually succeed.
            read_fail_ppm: 50_000,
            write_fail_ppm: 20_000,
            spike_ppm: 10_000,
            spike: Duration::from_micros(200),
            ..FaultPlan::default()
        }),
        ..ServerConfig::default()
    })
    .expect("start chaos server")
}

/// The invariant at the heart of frame repair: no frame may be lost to
/// a failed I/O. Either it went back to the free list or it holds a
/// resident page.
fn assert_no_stuck_frames(server: &Server) {
    let free = server.pool().free_frames();
    let resident = server.pool().resident_count();
    assert_eq!(
        free + resident,
        FRAMES,
        "stuck frame: {free} free + {resident} resident != {FRAMES} frames"
    );
}

fn chaos_run_returns_correct_bytes_or_err_io_and_recovers() {
    let server = chaos_server();
    let addr = server.addr();
    let disk = server
        .faulty_disk()
        .expect("fault plan must install a FaultyDisk")
        .clone();
    // Two pages are persistently broken from the start — reads on one,
    // writes on the other — on top of the probabilistic drizzle.
    disk.break_page_reads(7);
    disk.break_page_writes(11);

    let wrong_bytes = AtomicU64::new(0);
    let io_errors = AtomicU64::new(0);
    let oks = AtomicU64::new(0);
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);

    std::thread::scope(|sc| {
        for t in 0..4usize {
            let workload = &workload;
            let wrong_bytes = &wrong_bytes;
            let io_errors = &io_errors;
            let oks = &oks;
            sc.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut stream = PageStream::for_thread(workload, t, 0xC4A0);
                let mut coin = splitmix64(t as u64 ^ 0xD15C);
                for _ in 0..1500u32 {
                    let page = stream.next_page();
                    coin = splitmix64(coin);
                    // ~10% PUTs with self-identifying payloads, so reads
                    // can always verify the first 8 bytes.
                    let resp = if coin % 10 == 0 {
                        client.put(page, loadgen::put_payload(page, 32, 0xC4A0))
                    } else {
                        client.get(page)
                    };
                    match resp.expect("transport must survive chaos") {
                        bpw_server::Response::Ok(body) => {
                            oks.fetch_add(1, Ordering::Relaxed);
                            if body.len() >= 8 {
                                let id = u64::from_le_bytes(body[..8].try_into().unwrap());
                                if id != page {
                                    wrong_bytes.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        bpw_server::Response::IoError(_) => {
                            io_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected reply under chaos: {other:?}"),
                    }
                }
            });
        }
    });

    // Criterion 1: a fault never surfaces as wrong data.
    assert_eq!(
        wrong_bytes.load(Ordering::Relaxed),
        0,
        "GETs must return correct bytes or ERR_IO, never corruption"
    );
    assert!(
        oks.load(Ordering::Relaxed) > 0,
        "some requests must succeed"
    );
    // The persistently broken page guarantees at least one ERR_IO
    // reached a client (page 7 is hot under Zipf 0.86).
    assert!(
        io_errors.load(Ordering::Relaxed) > 0,
        "broken page 7 must have surfaced at least one ERR_IO"
    );
    // The drizzle plus retry budget guarantees retries happened.
    let stats = server.pool().stats();
    assert!(
        stats.io_retries.load(Ordering::Relaxed) > 0,
        "transient faults must have been retried"
    );
    assert!(
        stats.io_errors.load(Ordering::Relaxed) > 0,
        "exhausted retries must be counted"
    );

    // Every failed fetch routed its repaired frame to the free list's
    // cold stack — persistently broken page 7 (hot under Zipf) must not
    // monopolize a single frame by getting its last frame right back.
    assert!(
        server.pool().free_list_cold_pushes() >= 2,
        "repeated failures on page 7 must park frames cold (got {})",
        server.pool().free_list_cold_pushes()
    );

    // Criterion 2: no frame was wedged by any of the injected failures.
    assert_no_stuck_frames(&server);

    // Criterion 3: once faults clear, everything recovers — including
    // the pages that were persistently broken moments ago.
    disk.clear_faults();
    let mut client = Client::connect(addr).expect("connect for recovery sweep");
    for page in [7u64, 11, 0, 1, 2, 3, 500, PAGES - 1] {
        match client.get(page).expect("transport") {
            bpw_server::Response::Ok(body) => {
                let id = u64::from_le_bytes(body[..8].try_into().unwrap());
                assert_eq!(id, page, "recovered read must be correct");
            }
            other => panic!("page {page} must recover after clear_faults: {other:?}"),
        }
    }
    assert_no_stuck_frames(&server);

    client.shutdown().expect("shutdown");
    drop(client); // close the socket so join() can reap its connection thread
    server.join();
    // Deadline-bounded check (not a single racy attempt): the listener
    // must stop accepting once join returns.
    assert!(
        bpw_server::poll_until(Duration::from_secs(5), || {
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
        }),
        "listener should be closed after join"
    );
}

fn chaos_loadgen_accounting_stays_exact_under_faults() {
    // The load generator's books must balance even when some replies are
    // ERR_IO: every request lands in exactly one tally bucket. At
    // pipeline 8, ERR_IO replies interleave with OKs inside a batch and
    // must still sequence correctly.
    let server = chaos_server();
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    for pipeline in [1, 8] {
        let cfg = bpw_server::LoadConfig {
            connections: 4,
            requests_per_conn: 1000,
            write_fraction: 0.2,
            pipeline,
            ..bpw_server::LoadConfig::default()
        };
        let report = loadgen::run(server.addr(), &workload, &cfg);
        assert_eq!(report.sent, 4 * 1000, "sent must equal the intended total");
        assert_eq!(
            report.ok + report.busy + report.dropped + report.errors + report.io_errors,
            report.sent,
            "pipeline {pipeline}: every request lands in exactly one bucket"
        );
        assert_no_stuck_frames(&server);
    }
    server.join();
}

/// Flight-recorder fault capture (ISSUE 7): a request that ends in
/// `ERR_IO` must be captured as an exemplar even when its latency is
/// nowhere near the SLO. The server is armed with an hour-long budget
/// so elapsed time can never trigger a capture — only the error path
/// can — and a persistently broken page guarantees one happens.
fn flight_recorder_captures_err_io_exemplars() {
    bpw_trace::flight::clear();
    let server = Server::start(ServerConfig {
        workers: 2,
        frames: FRAMES,
        page_size: PAGE_SIZE,
        pages: PAGES,
        // One hour in microseconds: no request can exceed it, so every
        // capture below is attributable to ERR_IO alone.
        slo_us: Some(3_600_000_000),
        fault_plan: Some(FaultPlan {
            seed: 0xF117_0E2A,
            ..FaultPlan::default()
        }),
        ..ServerConfig::default()
    })
    .expect("start armed chaos server");
    let disk = server
        .faulty_disk()
        .expect("fault plan must install a FaultyDisk")
        .clone();
    disk.break_page_reads(7);

    let mut client = Client::connect(server.addr()).expect("connect");
    // Healthy requests first: none may trip the hour-long budget.
    for page in [1u64, 2, 3, 4] {
        assert!(matches!(
            client.get(page).expect("transport"),
            bpw_server::Response::Ok(_)
        ));
    }
    match client.get(7).expect("transport") {
        bpw_server::Response::IoError(_) => {}
        other => panic!("broken page 7 must return ERR_IO, got {other:?}"),
    }

    let json = client.exemplars().expect("EXEMPLARS reply");
    let v = JsonValue::parse(&json).expect("EXEMPLARS must be valid JSON");
    let index = v
        .get("otherData")
        .and_then(|o| o.get("exemplars"))
        .expect("exemplar index");
    let JsonValue::Arr(index) = index else {
        panic!("exemplar index must be an array: {json}")
    };
    // Every capture while armed with an hour budget is an ERR_IO one —
    // including any from chaos tests running concurrently in this
    // binary — and ours must be among them: a GET (opcode 1) with
    // status 4 whose span chain was snapshotted.
    assert!(!index.is_empty(), "ERR_IO must capture an exemplar");
    for ex in index.iter() {
        assert_eq!(
            ex.get("status").and_then(JsonValue::as_u64),
            Some(4),
            "hour-long SLO means only ERR_IO may capture: {json}"
        );
    }
    let ours = index
        .iter()
        .find(|ex| {
            ex.get("opcode").and_then(JsonValue::as_u64) == Some(1)
                && ex.get("events").and_then(JsonValue::as_u64).unwrap_or(0) >= 1
        })
        .unwrap_or_else(|| panic!("no GET exemplar with a span chain: {json}"));
    let req = ours
        .get("request_id")
        .and_then(JsonValue::as_u64)
        .expect("exemplar carries its request id");
    assert!(req > 0, "request ids start at 1");
    // The captured chain must include the reply span stamped with the
    // failing request's id.
    let Some(JsonValue::Arr(events)) = v.get("traceEvents") else {
        panic!("EXEMPLARS lacks a traceEvents array: {json}");
    };
    assert!(
        events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("req"))
                .and_then(JsonValue::as_u64)
                == Some(req)
                && e.get("name").and_then(JsonValue::as_str) == Some("server_reply")
        }),
        "ERR_IO exemplar {req} must include its server_reply span: {json}"
    );

    let stats = client.stats().expect("stats");
    let sv = JsonValue::parse(&stats).unwrap();
    assert!(
        sv.get("flight")
            .and_then(|f| f.get("captured_total"))
            .and_then(JsonValue::as_u64)
            .is_some_and(|n| n >= 1),
        "capture counter must move: {stats}"
    );

    disk.clear_faults();
    drop(client);
    server.join();
    bpw_trace::flight::clear();
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
    chaos_run_returns_correct_bytes_or_err_io_and_recovers,
    chaos_loadgen_accounting_stays_exact_under_faults,
    flight_recorder_captures_err_io_exemplars,
);
