//! Reply content checks.
//!
//! A PUT writes a full page image: bytes 0..8 hold the page id, bytes
//! 8..16 a per-page version (1, 2, ... in issue order), and the rest one
//! byte derived from both. An unwritten page is version 0: the
//! `SimDisk` fill rule (page id, then `SimDisk::fill_byte` everywhere).
//! A GET fails when its reply is not OK, is not a well-formed image of
//! the requested page, carries a version never issued, or carries a
//! version older than the highest one acknowledged before the GET was
//! sent. A SCAN fails unless its `(count, fnv1a)` payload matches the
//! value computed from the fill rule.

use std::collections::HashMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

use bpw_bufferpool::SimDisk;
use bpw_server::protocol::fnv1a;
use bpw_workloads::splitmix64;

use crate::workload::{PAGE_SIZE, SCAN_LEN};

/// Failures printed in full; later ones are only counted.
const PRINT_LIMIT: u64 = 20;

const ST_OK: u8 = 0;

/// Body byte of a written page image.
fn body_byte(page: u64, version: u64) -> u8 {
    splitmix64(page ^ version.rotate_left(32)) as u8
}

/// Fill `out` (one page) with the image of `page` at `version >= 1`.
pub fn write_image(page: u64, version: u64, out: &mut [u8]) {
    debug_assert!(version >= 1);
    out[..8].copy_from_slice(&page.to_le_bytes());
    out[8..16].copy_from_slice(&version.to_le_bytes());
    out[16..].fill(body_byte(page, version));
}

/// The version a page image carries, or what is wrong with it.
pub fn image_version(page: u64, data: &[u8]) -> Result<u64, String> {
    if data.len() != PAGE_SIZE {
        return Err(format!("{} bytes", data.len()));
    }
    let id = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
    if id != page {
        return Err(format!("image of page {id}"));
    }
    let fill = SimDisk::fill_byte(page);
    let (version, body) = if data[8..16] == [fill; 8] {
        (0, fill)
    } else {
        let v = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        (v, body_byte(page, v))
    };
    // OR-fold instead of `all`: no early exit, so it vectorizes.
    if data[16..].iter().fold(0u8, |acc, &b| acc | (b ^ body)) != 0 {
        return Err(format!("corrupt body for version {version}"));
    }
    Ok(version)
}

/// The SCAN payload the server must return for `start..start+SCAN_LEN`
/// when none of those pages was ever written.
pub fn expected_scan(start: u64) -> u64 {
    let mut page = vec![0u8; PAGE_SIZE];
    let mut checksum = 0u64;
    for p in start..start + SCAN_LEN as u64 {
        page.fill(SimDisk::fill_byte(p));
        page[..8].copy_from_slice(&p.to_le_bytes());
        checksum = fnv1a(checksum, &page);
    }
    checksum
}

fn status_name(body: &[u8]) -> String {
    match body.first() {
        Some(0) => "OK".into(),
        Some(1) => "BUSY".into(),
        Some(2) => "DROPPED".into(),
        Some(3) => format!("ERR {}", String::from_utf8_lossy(&body[1..])),
        Some(4) => format!("ERR_IO {}", String::from_utf8_lossy(&body[1..])),
        Some(s) => format!("status {s}"),
        None => "empty reply".into(),
    }
}

/// Shared by every client thread of one run.
pub struct Checker {
    /// Highest PUT version acknowledged per page.
    acked: Vec<AtomicU64>,
    /// Highest PUT version issued per page.
    issued: Vec<AtomicU64>,
    /// SCAN start -> expected checksum (scan_mix is read-only).
    scans: HashMap<u64, u64>,
    failed: AtomicU64,
    /// Print failures (off for the self-test's deliberate ones).
    loud: bool,
}

impl Checker {
    pub fn new(pages: u64, scan_starts: &[u64]) -> Checker {
        let counters = || (0..pages).map(|_| AtomicU64::new(0)).collect();
        Checker {
            acked: counters(),
            issued: counters(),
            scans: scan_starts.iter().map(|&s| (s, expected_scan(s))).collect(),
            failed: AtomicU64::new(0),
            loud: true,
        }
    }

    /// Forget every version, for a fresh server whose pages are all
    /// unwritten again. Failures stay counted.
    pub fn reset(&self) {
        for v in self.acked.iter().chain(&self.issued) {
            v.store(0, Ordering::Release);
        }
    }

    /// Failures counted so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Count (and print the first few) failures.
    pub fn fail(&self, op: &str, page: u64, expected: impl Display, got: impl Display) {
        let n = self.failed.fetch_add(1, Ordering::Relaxed);
        if self.loud && n < PRINT_LIMIT {
            println!("FAIL {op} page={page} expected={expected} got={got}");
        }
    }

    /// The version a GET sent now must at least return.
    pub fn floor(&self, page: u64) -> u64 {
        self.acked[page as usize].load(Ordering::Acquire)
    }

    /// Issue the next version of `page`. Only the page's owning
    /// connection writes it, so versions rise in issue order.
    pub fn issue(&self, page: u64) -> u64 {
        self.issued[page as usize].fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Check a GET reply `body` (status byte first); true when correct.
    pub fn check_get(&self, page: u64, floor: u64, body: &[u8]) -> bool {
        if body.first() != Some(&ST_OK) {
            self.fail("get", page, "OK", status_name(body));
            return false;
        }
        let version = match image_version(page, &body[1..]) {
            Ok(v) => v,
            Err(got) => {
                self.fail("get", page, format!("image of page {page}"), got);
                return false;
            }
        };
        if version < floor {
            self.fail(
                "get",
                page,
                format!("version >= {floor}"),
                format!("stale version {version}"),
            );
            return false;
        }
        let issued = self.issued[page as usize].load(Ordering::Acquire);
        if version > issued {
            self.fail(
                "get",
                page,
                format!("version <= {issued}"),
                format!("unissued version {version}"),
            );
            return false;
        }
        true
    }

    /// Check a PUT reply and record the acknowledgement.
    pub fn check_put(&self, page: u64, version: u64, body: &[u8]) -> bool {
        if body != [ST_OK] {
            self.fail("put", page, "OK with empty payload", status_name(body));
            return false;
        }
        self.acked[page as usize].fetch_max(version, Ordering::AcqRel);
        true
    }

    /// Check a SCAN reply against the fill rule.
    pub fn check_scan(&self, start: u64, body: &[u8]) -> bool {
        if body.first() != Some(&ST_OK) || body.len() != 13 {
            self.fail("scan", start, "OK with 12-byte payload", status_name(body));
            return false;
        }
        let count = u32::from_le_bytes(body[1..5].try_into().expect("4 bytes"));
        let sum = u64::from_le_bytes(body[5..13].try_into().expect("8 bytes"));
        let expected = self.scans.get(&start).copied();
        if count != SCAN_LEN || Some(sum) != expected {
            self.fail(
                "scan",
                start,
                format!("({SCAN_LEN}, {expected:?})"),
                format!("({count}, {sum})"),
            );
            return false;
        }
        true
    }
}

/// Feed the checker a correct, a stale and a corrupt reply and confirm
/// that exactly the bad ones are counted. Runs before every benchmark
/// run on a private checker, so a checker that passes everything cannot
/// produce a clean result.
pub fn self_test() -> bool {
    let c = Checker {
        loud: false,
        ..Checker::new(16, &[])
    };
    let mut body = vec![0u8; 1 + PAGE_SIZE];
    // Version 0 from the fill rule is accepted.
    body[1..].fill(SimDisk::fill_byte(3));
    body[1..9].copy_from_slice(&3u64.to_le_bytes());
    let fresh_ok = c.check_get(3, 0, &body);
    // Write versions 1 and 2; a reply still at version 1 after 2 was
    // acknowledged is stale.
    for _ in 0..2 {
        let v = c.issue(3);
        c.check_put(3, v, &[ST_OK]);
    }
    write_image(3, 1, &mut body[1..]);
    let stale = !c.check_get(3, c.floor(3), &body);
    write_image(3, 2, &mut body[1..]);
    let current_ok = c.check_get(3, c.floor(3), &body);
    body[100] ^= 1;
    let corrupt = !c.check_get(3, c.floor(3), &body);
    fresh_ok && stale && current_ok && corrupt && c.failed() == 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpw_bufferpool::Storage;

    #[test]
    fn self_test_counts_stale_and_corrupt_replies() {
        assert!(self_test());
    }

    #[test]
    fn fill_rule_pages_read_as_version_zero() {
        let disk = SimDisk::instant();
        let mut buf = vec![0u8; PAGE_SIZE];
        for page in [0u64, 1, 77, 270_298] {
            disk.read_page(page, &mut buf).unwrap();
            assert_eq!(image_version(page, &buf), Ok(0), "page {page}");
            assert!(image_version(page + 1, &buf).is_err());
        }
    }

    #[test]
    fn written_images_round_trip() {
        let mut buf = vec![0u8; PAGE_SIZE];
        for (page, v) in [(0u64, 1u64), (5, 2), (9_999, 123_456)] {
            write_image(page, v, &mut buf);
            assert_eq!(image_version(page, &buf), Ok(v));
        }
    }

    #[test]
    fn failures_cover_status_unissued_and_scan_mismatch() {
        let c = Checker::new(8, &[0]);
        assert!(!c.check_get(1, 0, &[1]));
        let mut body = vec![0u8; 1 + PAGE_SIZE];
        write_image(1, 5, &mut body[1..]);
        assert!(!c.check_get(1, 0, &body), "version 5 was never issued");
        let mut scan = vec![0u8; 13];
        scan[1..5].copy_from_slice(&SCAN_LEN.to_le_bytes());
        scan[5..].copy_from_slice(&expected_scan(0).to_le_bytes());
        assert!(c.check_scan(0, &scan));
        scan[12] ^= 1;
        assert!(!c.check_scan(0, &scan));
        assert_eq!(c.failed(), 3);
    }
}
