//! End-to-end latency observability for the page service.
//!
//! One [`ServerMetrics`] is shared by every connection thread and
//! worker. Latency is measured from *admission* (the full request was
//! read) to *reply encoded*, just before it is handed to the socket, so
//! queueing delay — the thing backpressure policies trade against loss
//! — shows up in the histograms rather than being hidden inside
//! execution. Each reply is counted before it is sent, so a client that
//! has read it finds it in STATS.

use std::sync::Arc;
use std::time::Instant;

use bpw_core::CombiningSnapshot;
use bpw_metrics::{Counter, Gauge, Histogram, JsonObject, LockShardSummary, LockSnapshot};

/// Which histogram a request's latency lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// GET (page read).
    Get,
    /// PUT (page write).
    Put,
    /// SCAN (range read).
    Scan,
}

impl OpKind {
    /// Every kind, in index order.
    pub const ALL: [OpKind; 3] = [OpKind::Get, OpKind::Put, OpKind::Scan];

    /// Dense index (for per-op metric arrays).
    pub fn index(self) -> usize {
        match self {
            OpKind::Get => 0,
            OpKind::Put => 1,
            OpKind::Scan => 2,
        }
    }

    /// Stable lowercase name (JSON key, Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Scan => "scan",
        }
    }
}

/// The pipeline stages a request's end-to-end latency decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Parsing the request body out of a complete frame.
    Decode,
    /// From admission to the start of execution: waiting for an
    /// execution slot (threaded) or in the admission queue for a worker
    /// (event loop).
    QueueWait,
    /// Executing against the buffer pool, *minus* the miss-I/O and
    /// batch-commit time attributed below — a hit's latch-and-go cost.
    PinHit,
    /// Miss-path storage I/O (victim write-back + page read).
    MissIo,
    /// BP-Wrapper batch commits into the replacement policy (only
    /// populated while tracing is on — the commit sits on the hit-only
    /// hot path, where unconditional clocks would break the
    /// disabled-tracing budget).
    BatchCommit,
    /// Writing the reply frame back toward the client (the socket write
    /// under the threaded frontend; frame serialization into the
    /// coalesced write buffer under the event loop).
    ReplyFlush,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Decode,
        Stage::QueueWait,
        Stage::PinHit,
        Stage::MissIo,
        Stage::BatchCommit,
        Stage::ReplyFlush,
    ];

    /// Stable snake_case name (JSON key, Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::PinHit => "pin_hit",
            Stage::MissIo => "miss_io",
            Stage::BatchCommit => "batch_commit",
            Stage::ReplyFlush => "reply_flush",
        }
    }
}

/// Per-stage latency histograms for one opcode.
#[derive(Debug, Default)]
pub struct StageSet {
    hists: [Histogram; 6],
}

impl StageSet {
    /// Record `ns` into `stage`'s histogram.
    pub fn record(&self, stage: Stage, ns: u64) {
        self.hists[stage as usize].record(ns);
    }

    /// The histogram for one stage.
    pub fn get(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
    }

    /// Render as `{"decode": {...}, "queue_wait": {...}, ...}` — each
    /// stage with the histogram's derived p50/p95/p99/p999 summary.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for stage in Stage::ALL {
            o.field_raw(stage.name(), &self.get(stage).to_json());
        }
        o.finish()
    }
}

/// Shared server-side counters and latency histograms.
///
/// All fields are lock-free atomics; cloning the [`Arc`] wrapper is the
/// intended sharing pattern.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// End-to-end GET latency, nanoseconds.
    pub get_ns: Histogram,
    /// End-to-end PUT latency, nanoseconds.
    pub put_ns: Histogram,
    /// End-to-end SCAN latency, nanoseconds.
    pub scan_ns: Histogram,
    /// Time from admission to the start of execution, ns.
    pub queue_wait_ns: Histogram,
    /// Requests answered `OK`.
    pub ok: Counter,
    /// Requests refused with `BUSY` (shed at admission).
    pub busy: Counter,
    /// Requests answered `DROPPED` (deadline passed in queue).
    pub dropped: Counter,
    /// Requests answered `ERR`.
    pub errors: Counter,
    /// Requests answered `ERR_IO` (storage failed after retries).
    pub io_errors: Counter,
    /// Client connections currently open (both frontends track this;
    /// the peak is the fan-in high-water mark).
    pub connections_open: Gauge,
    /// Event-loop wakeups (`epoll_wait` returns). Zero under the
    /// threaded frontend.
    pub epoll_wakeups: Counter,
    /// Ready fds delivered per wakeup — how much work each syscall
    /// amortizes. Zero-sample under the threaded frontend.
    pub ready_per_wakeup: Histogram,
    /// In-flight pipelined requests on a connection, observed at each
    /// admission. Depth 1 is strict request/reply.
    pub pipeline_depth: Histogram,
    /// Nonblocking writes that accepted only part of the buffer — each
    /// one is a stall a blocking connection thread would have eaten.
    pub short_writes: Counter,
    /// Per-opcode, per-stage latency attribution (indexed by
    /// [`OpKind::index`]).
    pub stages: [StageSet; 3],
    /// Requests whose end-to-end latency exceeded `--slo-us` (or ended
    /// `ERR_IO`), per opcode — the SLO burn rate numerators.
    pub slo_violations: [Counter; 3],
}

impl ServerMetrics {
    /// New, zeroed metrics behind an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record a completed request of `kind` that was admitted at
    /// `start`.
    pub fn record_ok(&self, kind: OpKind, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        match kind {
            OpKind::Get => self.get_ns.record(ns),
            OpKind::Put => self.put_ns.record(ns),
            OpKind::Scan => self.scan_ns.record(ns),
        }
        self.ok.incr();
    }

    /// The per-stage histograms for `kind`.
    pub fn stages(&self, kind: OpKind) -> &StageSet {
        &self.stages[kind.index()]
    }

    /// Record one stage sample for `kind`.
    pub fn record_stage(&self, kind: OpKind, stage: Stage, ns: u64) {
        self.stages[kind.index()].record(stage, ns);
    }

    /// Count one SLO violation for `kind`.
    pub fn record_slo_violation(&self, kind: OpKind) {
        self.slo_violations[kind.index()].incr();
    }

    /// Total SLO violations across opcodes.
    pub fn slo_violations_total(&self) -> u64 {
        self.slo_violations.iter().map(Counter::get).sum()
    }

    /// Total requests that received any reply.
    pub fn total(&self) -> u64 {
        self.ok.get()
            + self.busy.get()
            + self.dropped.get()
            + self.errors.get()
            + self.io_errors.get()
    }

    /// Render everything as one JSON object: this struct's live
    /// counters and histograms plus the pool-side scalar aggregation in
    /// `snap` (the seqlock-cached [`StatsSnapshot`], so concurrent
    /// scrapes share one aggregation walk instead of each dragging the
    /// data path's hot counter cache lines). The `trace` sub-object
    /// reports the event-trace collector's health.
    pub fn to_json(&self, snap: &StatsSnapshot) -> String {
        self.to_json_with(snap, None)
    }

    /// [`to_json`](Self::to_json) with an optional pre-rendered
    /// `advisor` sub-object (adaptive-replacement servers attach their
    /// expert scores and swap counters here).
    pub fn to_json_with(&self, snap: &StatsSnapshot, advisor: Option<&str>) -> String {
        let StatsSnapshot {
            pool,
            lock,
            miss_lock,
            miss_locks,
            combining,
            peak_queue_depth,
        } = snap;
        let combining = combining.as_ref();
        let mut trace = JsonObject::new();
        trace
            .field_bool("enabled", bpw_trace::enabled())
            .field_u64("dropped_events", bpw_trace::dropped())
            .field_u64("threads", bpw_trace::thread_count() as u64)
            .field_u64("buffered_events", bpw_trace::buffered() as u64);
        let mut flight = JsonObject::new();
        flight
            .field_u64("slo_ns", bpw_trace::flight::slo_ns())
            .field_u64("captured_total", bpw_trace::flight::captured_total())
            .field_u64("buffered", bpw_trace::flight::exemplars().len() as u64);
        let mut stages = JsonObject::new();
        for kind in OpKind::ALL {
            stages.field_raw(kind.name(), &self.stages(kind).to_json());
        }
        let mut slo = JsonObject::new();
        for kind in OpKind::ALL {
            slo.field_u64(kind.name(), self.slo_violations[kind.index()].get());
        }
        let mut o = JsonObject::new();
        o.field_u64("ok", self.ok.get())
            .field_u64("busy", self.busy.get())
            .field_u64("dropped", self.dropped.get())
            .field_u64("errors", self.errors.get())
            .field_u64("io_errors", self.io_errors.get())
            .field_u64("connections_open", self.connections_open.get())
            .field_u64("connections_peak", self.connections_open.peak())
            .field_u64("epoll_wakeups", self.epoll_wakeups.get())
            .field_u64("short_writes", self.short_writes.get())
            .field_raw("pipeline_depth", &self.pipeline_depth.to_json())
            .field_raw("ready_per_wakeup", &self.ready_per_wakeup.to_json())
            .field_u64("peak_queue_depth", *peak_queue_depth)
            .field_raw("get_ns", &self.get_ns.to_json())
            .field_raw("put_ns", &self.put_ns.to_json())
            .field_raw("scan_ns", &self.scan_ns.to_json())
            .field_raw("queue_wait_ns", &self.queue_wait_ns.to_json())
            .field_u64("pool_hits", pool.hits)
            .field_u64("pool_misses", pool.misses)
            .field_u64("pool_writebacks", pool.writebacks)
            .field_u64("pool_io_retries", pool.io_retries)
            .field_u64("pool_io_errors", pool.io_errors)
            .field_f64("pool_hit_ratio", pool.hit_ratio())
            .field_u64("free_list_steals", pool.free_list_steals)
            .field_u64("free_list_cold_pushes", pool.free_list_cold_pushes)
            .field_u64("pin_cas_retries", pool.pin_cas_retries)
            .field_u64("pin_underflows", pool.pin_underflows)
            .field_u64("page_table_fallback_reads", pool.page_table_fallback_reads)
            .field_raw("replacement_lock", &lock.to_json())
            .field_raw("miss_lock", &miss_lock.to_json())
            .field_raw("miss_locks", &miss_locks.to_json())
            .field_raw("stages", &stages.finish())
            .field_raw("slo_violations", &slo.finish())
            .field_raw("trace", &trace.finish())
            .field_raw("flight", &flight.finish());
        if let Some(c) = combining {
            let mut comb = JsonObject::new();
            comb.field_str("mode", c.mode.name())
                .field_u64("published", c.published)
                .field_u64("publish_fallbacks", c.publish_fallbacks)
                .field_u64("reclaimed", c.reclaimed)
                .field_u64("combined_batches", c.combined_batches)
                .field_u64("combined_entries", c.combined_entries)
                .field_u64("combine_passes", c.combine_passes)
                .field_u64("combine_depth_last", c.combine_depth_last)
                .field_u64("combine_depth_peak", c.combine_depth_peak);
            o.field_raw("combining", &comb.finish());
        }
        if let Some(a) = advisor {
            o.field_raw("advisor", a);
        }
        o.finish()
    }
}

/// A point-in-time copy of the buffer pool's counters (the live struct
/// holds atomics; STATS wants a consistent-enough snapshot by value).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that went to storage.
    pub misses: u64,
    /// Dirty pages written back during eviction.
    pub writebacks: u64,
    /// Storage operations retried after a transient fault.
    pub io_retries: u64,
    /// Storage operations that failed after exhausting retries.
    pub io_errors: u64,
    /// Free-list pops served by stealing from another stripe.
    pub free_list_steals: u64,
    /// Frames parked on the free list's cold stack by frame repair.
    pub free_list_cold_pushes: u64,
    /// Fast-path pin CAS retries (the packed header's contention
    /// signal: every retry is a concurrent header movement absorbed
    /// without a lock).
    pub pin_cas_retries: u64,
    /// Unpins that found the pin count already at zero (saturated
    /// instead of wrapping — each one is a pin/unpin imbalance bug).
    pub pin_underflows: u64,
    /// Page-table lookups that left the optimistic path and took the
    /// shard lock (torn read or a spilled shard).
    pub page_table_fallback_reads: u64,
}

impl PoolCounters {
    /// Hits over total accesses (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Every pool-side scalar a STATS/METRICS scrape needs, aggregated
/// once and published through a seqlock ([`bpw_metrics::SnapshotCache`])
/// so concurrent scrapes read a *consistent* point-in-time view without
/// touching the data path's counters. `Copy` is what makes the seqlock
/// publication race-safe — a torn copy is discarded, never dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnapshot {
    /// Buffer-pool counters.
    pub pool: PoolCounters,
    /// Replacement-manager lock behaviour.
    pub lock: LockSnapshot,
    /// Aggregate over the pool's per-shard miss locks (legacy
    /// single-lock view).
    pub miss_lock: LockSnapshot,
    /// Shard-aware miss-lock summary.
    pub miss_locks: LockShardSummary,
    /// Combining-commit counters (wrapped managers only).
    pub combining: Option<CombiningSnapshot>,
    /// Admission-queue depth high-water mark.
    pub peak_queue_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpw_metrics::JsonValue;

    #[test]
    fn stats_json_round_trips_through_the_parser() {
        let m = ServerMetrics::shared();
        m.record_ok(OpKind::Get, Instant::now());
        m.record_ok(OpKind::Put, Instant::now());
        m.busy.incr();
        m.io_errors.incr();
        m.connections_open.incr();
        m.connections_open.incr();
        m.connections_open.decr();
        m.epoll_wakeups.add(7);
        m.ready_per_wakeup.record(3);
        m.pipeline_depth.record(4);
        m.pipeline_depth.record(9);
        m.short_writes.add(2);
        m.record_stage(OpKind::Get, Stage::QueueWait, 1_500);
        m.record_stage(OpKind::Get, Stage::QueueWait, 2_500);
        m.record_stage(OpKind::Get, Stage::PinHit, 800);
        m.record_stage(OpKind::Put, Stage::MissIo, 40_000);
        m.record_slo_violation(OpKind::Get);
        let pool = PoolCounters {
            hits: 90,
            misses: 10,
            writebacks: 3,
            io_retries: 2,
            io_errors: 1,
            free_list_steals: 4,
            free_list_cold_pushes: 2,
            pin_cas_retries: 11,
            pin_underflows: 1,
            page_table_fallback_reads: 6,
        };
        let lock = LockSnapshot::default();
        let miss_lock = LockSnapshot {
            acquisitions: 10,
            ..LockSnapshot::default()
        };
        let miss_locks = LockShardSummary {
            shards: 16,
            total_acquisitions: 10,
            total_contentions: 1,
            total_wait_ns: 300,
            total_hold_ns: 900,
            max_wait_ns: 250,
        };
        let combining = CombiningSnapshot {
            mode: bpw_core::Combining::Flat,
            published: 5,
            publish_fallbacks: 1,
            reclaimed: 2,
            combined_batches: 3,
            combined_entries: 12,
            combine_passes: 4,
            combine_depth_last: 2,
            combine_depth_peak: 3,
        };
        let json = m.to_json(&StatsSnapshot {
            pool,
            lock,
            miss_lock,
            miss_locks,
            combining: Some(combining),
            peak_queue_depth: 17,
        });

        let v = JsonValue::parse(&json).expect("STATS must be valid JSON");
        let comb = v.get("combining").expect("combining sub-object");
        assert_eq!(comb.get("mode").and_then(JsonValue::as_str), Some("flat"));
        assert_eq!(comb.get("published").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(
            comb.get("combine_depth_peak").and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(v.get("ok").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(v.get("busy").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("io_errors").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            v.get("pool_io_retries").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(v.get("pool_io_errors").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            v.get("peak_queue_depth").and_then(JsonValue::as_u64),
            Some(17)
        );
        assert_eq!(
            v.get("get_ns")
                .and_then(|g| g.get("count"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        let ratio = v.get("pool_hit_ratio").and_then(JsonValue::as_f64).unwrap();
        assert!((ratio - 0.9).abs() < 1e-12);
        assert!(v
            .get("replacement_lock")
            .and_then(|l| l.get("acquisitions"))
            .is_some());
        assert_eq!(
            v.get("miss_lock")
                .and_then(|l| l.get("acquisitions"))
                .and_then(JsonValue::as_u64),
            Some(10)
        );
        let sharded = v.get("miss_locks").expect("shard-aware miss-lock summary");
        assert_eq!(sharded.get("shards").and_then(JsonValue::as_u64), Some(16));
        assert_eq!(
            sharded
                .get("total_acquisitions")
                .and_then(JsonValue::as_u64),
            Some(10)
        );
        assert_eq!(
            sharded.get("max_wait_ns").and_then(JsonValue::as_u64),
            Some(250)
        );
        assert_eq!(
            v.get("free_list_steals").and_then(JsonValue::as_u64),
            Some(4)
        );
        assert_eq!(
            v.get("free_list_cold_pushes").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("pin_cas_retries").and_then(JsonValue::as_u64),
            Some(11)
        );
        assert_eq!(v.get("pin_underflows").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            v.get("page_table_fallback_reads")
                .and_then(JsonValue::as_u64),
            Some(6)
        );
        // Event-loop observability: gauges, counters, and histograms
        // round-trip with their exact wire names.
        assert_eq!(
            v.get("connections_open").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("connections_peak").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(v.get("epoll_wakeups").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("short_writes").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            v.get("pipeline_depth")
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        assert!(
            v.get("pipeline_depth")
                .and_then(|h| h.get("max"))
                .and_then(JsonValue::as_u64)
                .is_some_and(|max| max >= 9),
            "pipeline depth histogram must carry its max: {json}"
        );
        assert_eq!(
            v.get("ready_per_wakeup")
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        let trace = v.get("trace").expect("trace health sub-object");
        assert!(trace.get("enabled").is_some());
        assert!(trace
            .get("dropped_events")
            .and_then(JsonValue::as_u64)
            .is_some());
        // Stage attribution: every op × stage cell is present, and the
        // samples recorded above round-trip with quantile summaries.
        let stages = v.get("stages").expect("per-op stage sub-object");
        for kind in OpKind::ALL {
            let per_op = stages.get(kind.name()).expect("per-op stage set");
            for stage in Stage::ALL {
                assert!(
                    per_op.get(stage.name()).is_some(),
                    "stage {} missing for {}",
                    stage.name(),
                    kind.name()
                );
            }
        }
        let qw = stages
            .get("get")
            .and_then(|s| s.get("queue_wait"))
            .expect("get queue_wait histogram");
        assert_eq!(qw.get("count").and_then(JsonValue::as_u64), Some(2));
        assert!(qw.get("p99").is_some(), "stage summaries carry quantiles");
        let slo = v.get("slo_violations").expect("SLO burn counters");
        assert_eq!(slo.get("get").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(slo.get("put").and_then(JsonValue::as_u64), Some(0));
        let flight = v.get("flight").expect("flight recorder health");
        assert!(flight.get("slo_ns").is_some());
        assert!(flight
            .get("captured_total")
            .and_then(JsonValue::as_u64)
            .is_some());
    }

    #[test]
    fn totals_add_up() {
        let m = ServerMetrics::default();
        m.ok.add(5);
        m.dropped.add(2);
        m.errors.incr();
        m.io_errors.incr();
        assert_eq!(m.total(), 9);
    }
}
