//! The three workloads and their deterministic request lists.
//!
//! Every connection's full request list is generated from the seed
//! before any timing starts. DBT-2 streams share append cursors, so
//! generating them on the fly under concurrency would make the inputs
//! depend on thread interleaving; generating connection 0's list, then
//! connection 1's, does not.

use bpw_workloads::{splitmix64, PageStream, Workload, WorkloadKind, ZipfWorkload};

/// Client connections (and client threads); the host has 2 cores.
pub const CONNECTIONS: usize = 2;
/// Pages per SCAN request.
pub const SCAN_LEN: u32 = 256;
/// Page size: the server default.
pub const PAGE_SIZE: usize = 4096;
/// Requests in flight per connection in the closed-loop phase.
pub const PIPELINE: usize = 8;

/// A data request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    Put,
    Scan,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Scan => "scan",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated request. For a SCAN, `page` is the first page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub op: Op,
    pub page: u64,
}

/// How one workload is sized and driven.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Buffer pool frames.
    pub frames: usize,
    /// Page-id universe served.
    pub pages: u64,
    /// Untimed warm-up prefix, requests per connection.
    pub warmup: usize,
    /// Generated requests per connection; the timed phases cycle over
    /// everything after the warm-up prefix.
    pub list_len: usize,
    /// Open-loop arrival rate summed over both connections, requests/s.
    pub open_rate: f64,
    /// Requests per thread in one traced in-process replay.
    pub replay_requests: usize,
}

/// Zipf skew of the hot sets (the YCSB default).
const THETA: f64 = 0.99;

/// miss_churn: probability that a request to a page this connection
/// owns is a PUT. Each page is written by one connection only (page id
/// modulo connections), so a page's PUT versions are issued in order;
/// about half the accesses are to owned pages, giving about 30% PUTs.
const PUT_SHARE_OWNED: f64 = 0.6;

/// scan_mix: hot set, cold region and scan share.
const SCAN_HOT_PAGES: u64 = 4_096;
const SCAN_COLD_PAGES: u64 = 65_536;
const SCAN_SHARE: f64 = 0.02;

pub const NAMES: [&str; 3] = ["hot_get", "miss_churn", "scan_mix"];

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        // 32 MiB of Zipf-hot pages in a 64 MiB pool: every request after
        // warm-up is a hit, so only the frontend and hit path work.
        "hot_get" => Spec {
            name: "hot_get",
            frames: 16_384,
            pages: 8_192,
            warmup: 10_000,
            list_len: 600_000,
            open_rate: 8_000.0,
            replay_requests: 40_000,
        },
        // DBT-2 (~1.06 GiB) over a 4 MiB pool with 30% PUTs: misses with
        // dirty write-backs dominate.
        "miss_churn" => Spec {
            name: "miss_churn",
            frames: 1_024,
            pages: dbt2().page_universe(),
            warmup: 10_000,
            list_len: 400_000,
            open_rate: 4_000.0,
            replay_requests: 30_000,
        },
        // 98% Zipf GETs over 4,096 hot pages, 2% 256-page SCANs of a
        // 65,536-page cold region, in an 8,192-frame pool.
        "scan_mix" => Spec {
            name: "scan_mix",
            frames: 8_192,
            pages: SCAN_HOT_PAGES + SCAN_COLD_PAGES,
            warmup: 3_000,
            list_len: 200_000,
            open_rate: 1_000.0,
            replay_requests: 8_000,
        },
        _ => return None,
    })
}

fn dbt2() -> Box<dyn Workload> {
    WorkloadKind::Dbt2.build()
}

/// splitmix64 sequence: the per-connection decision stream (op kind,
/// scan placement), independent of the page streams.
struct Mix(u64);

impl Mix {
    fn new(seed: u64, salt: u64, conn: usize) -> Mix {
        Mix(splitmix64(
            seed ^ salt ^ (conn as u64).wrapping_mul(0x9E37_79B9),
        ))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Each connection's full request list for `spec` under `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Vec<Vec<Req>> {
    match spec.name {
        "hot_get" => {
            let w = ZipfWorkload::new(spec.pages, THETA, 1);
            (0..CONNECTIONS)
                .map(|conn| {
                    let mut s = PageStream::for_thread(&w, conn, seed);
                    let mut list = sweep(spec.pages, conn);
                    list.extend((list.len()..spec.list_len).map(|_| Req {
                        op: Op::Get,
                        page: s.next_page(),
                    }));
                    list
                })
                .collect()
        }
        "miss_churn" => {
            let w = dbt2();
            // Sequential on purpose: the streams share append cursors.
            (0..CONNECTIONS)
                .map(|conn| {
                    let mut s = PageStream::for_thread(&*w, conn, seed);
                    let mut mix = Mix::new(seed, 0x6D69_7373, conn);
                    (0..spec.list_len)
                        .map(|_| {
                            let page = s.next_page();
                            let owned = page % CONNECTIONS as u64 == conn as u64;
                            let put = mix.unit() < PUT_SHARE_OWNED && owned;
                            Req {
                                op: if put { Op::Put } else { Op::Get },
                                page,
                            }
                        })
                        .collect()
                })
                .collect()
        }
        "scan_mix" => {
            let w = ZipfWorkload::new(SCAN_HOT_PAGES, THETA, 1);
            (0..CONNECTIONS)
                .map(|conn| {
                    let mut s = PageStream::for_thread(&w, conn, seed);
                    let mut mix = Mix::new(seed, 0x7363_616E, conn);
                    let mut list = sweep(SCAN_HOT_PAGES, conn);
                    list.extend((list.len()..spec.list_len).map(|_| {
                        if mix.unit() < SCAN_SHARE {
                            Req {
                                op: Op::Scan,
                                page: scan_start(mix.next()),
                            }
                        } else {
                            Req {
                                op: Op::Get,
                                page: s.next_page(),
                            }
                        }
                    }));
                    list
                })
                .collect()
        }
        other => unreachable!("no generator for workload {other}"),
    }
}

/// The warm-up prefix of a hot-set workload starts by reading every hot
/// page once, the connections taking alternate pages, so the timed
/// phases see no cold misses.
fn sweep(hot_pages: u64, conn: usize) -> Vec<Req> {
    (conn as u64..hot_pages)
        .step_by(CONNECTIONS)
        .map(|page| Req { op: Op::Get, page })
        .collect()
}

/// Scans start on a `SCAN_LEN` boundary of the cold region, so the
/// expected checksums of every possible scan can be computed up front.
fn scan_start(r: u64) -> u64 {
    let slots = SCAN_COLD_PAGES / SCAN_LEN as u64;
    SCAN_HOT_PAGES + (r % slots) * SCAN_LEN as u64
}

/// Every distinct SCAN start that can appear in scan_mix.
pub fn scan_starts(spec: &Spec) -> Vec<u64> {
    if spec.name != "scan_mix" {
        return Vec::new();
    }
    let slots = SCAN_COLD_PAGES / SCAN_LEN as u64;
    (0..slots).map(scan_start).collect()
}

/// A digest of every generated request, so two runs (or two commits)
/// can show they drove identical inputs.
pub fn input_hash(lists: &[Vec<Req>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (conn, list) in lists.iter().enumerate() {
        h = splitmix64(h ^ conn as u64);
        for r in list {
            h = splitmix64(h ^ r.page ^ ((r.op as u64) << 62));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_shapes() {
        for name in NAMES {
            let mut s = spec(name).unwrap();
            s.list_len = 20_000;
            let a = generate(&s, 7);
            let b = generate(&s, 7);
            assert_eq!(input_hash(&a), input_hash(&b), "{name}");
            assert_ne!(input_hash(&a), input_hash(&generate(&s, 8)), "{name}");
            for r in a.iter().flatten() {
                let end = r.page + if r.op == Op::Scan { SCAN_LEN as u64 } else { 1 };
                assert!(end <= s.pages, "{name}: {r:?} outside 0..{}", s.pages);
            }
        }
    }

    #[test]
    fn op_mixes_match_the_workload_definitions() {
        let share = |name: &str, op: Op| {
            let mut s = spec(name).unwrap();
            s.list_len = 50_000;
            let lists = generate(&s, 3);
            let n = lists.iter().flatten().count() as f64;
            lists.iter().flatten().filter(|r| r.op == op).count() as f64 / n
        };
        assert_eq!(share("hot_get", Op::Get), 1.0);
        let puts = share("miss_churn", Op::Put);
        assert!((0.2..0.4).contains(&puts), "miss_churn PUT share {puts}");
        let scans = share("scan_mix", Op::Scan);
        assert!(
            (0.015..0.025).contains(&scans),
            "scan_mix SCAN share {scans}"
        );
        assert_eq!(share("scan_mix", Op::Put), 0.0);
    }
}
