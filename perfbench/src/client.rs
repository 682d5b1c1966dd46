//! The load generator: one thread and one connection per client,
//! speaking the wire protocol directly, with every reply checked.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::check::{image_version, write_image, Checker};
use crate::workload::{Op, Req, PAGE_SIZE, SCAN_LEN};

/// One client connection and its position in its request list.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    body: Vec<u8>,
    /// Next request to send (index into the connection's list).
    pub cursor: usize,
    /// Requests sent so far, counting wrap-arounds.
    pub sent: u64,
}

/// A request on the wire, with what its reply is checked against.
struct Pending {
    req: Req,
    /// PUT: the version written. GET: the lowest version acceptable.
    version: u64,
    due: Instant,
    sent: Instant,
}

/// Fixed-width time windows that a phase's samples are grouped into,
/// so a run can report the median over windows: one scheduling stall
/// then spoils one window instead of the run.
#[derive(Clone, Copy)]
pub struct Windows {
    pub start: Instant,
    pub width: Duration,
    /// Open loop: place each reply by its due time and keep its latency
    /// samples. Closed loop: place it by arrival and only count it, so
    /// memory does not grow with throughput.
    pub open_loop: bool,
}

/// Width of the closed loop's throughput windows.
pub const CLOSED_WINDOW: Duration = Duration::from_millis(100);

impl Windows {
    fn index(&self, t: Instant) -> usize {
        (t.saturating_duration_since(self.start).as_nanos() / self.width.as_nanos()) as usize
    }
}

/// Latency samples and counts from one phase of one connection.
#[derive(Default)]
pub struct PhaseStats {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// OK replies per window.
    pub ok_per_window: Vec<u64>,
    /// Per op: (window, nanoseconds from due time to reply).
    pub latency_ns: [Vec<(usize, u64)>; 3],
    /// Per op: (window, nanoseconds from send to reply).
    pub service_ns: [Vec<(usize, u64)>; 3],
    /// Open loop: nanoseconds the generator sent after the due time.
    pub lag_ns: Vec<u64>,
}

impl PhaseStats {
    pub fn merge(&mut self, other: PhaseStats) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        if self.ok_per_window.len() < other.ok_per_window.len() {
            self.ok_per_window.resize(other.ok_per_window.len(), 0);
        }
        for (i, n) in other.ok_per_window.into_iter().enumerate() {
            self.ok_per_window[i] += n;
        }
        for i in 0..3 {
            self.latency_ns[i].extend_from_slice(&other.latency_ns[i]);
            self.service_ns[i].extend_from_slice(&other.service_ns[i]);
        }
        self.lag_ns.extend_from_slice(&other.lag_ns);
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(PAGE_SIZE + 64),
            body: Vec::with_capacity(PAGE_SIZE + 64),
            cursor: 0,
            sent: 0,
        })
    }

    /// Send the next request of `list`; the timed phases cycle over
    /// everything after the warm-up prefix.
    fn send(
        &mut self,
        list: &[Req],
        warmup: usize,
        checker: &Checker,
        due: Instant,
    ) -> io::Result<Pending> {
        if self.cursor == list.len() {
            self.cursor = warmup;
        }
        let req = list[self.cursor];
        self.cursor += 1;
        self.sent += 1;
        let version = match req.op {
            Op::Get => checker.floor(req.page),
            Op::Put => checker.issue(req.page),
            Op::Scan => 0,
        };
        // Frame: body length, then the body.
        self.out.clear();
        self.out.extend_from_slice(&[0; 4]);
        encode_request(req, version, &mut self.out);
        let len = (self.out.len() - 4) as u32;
        self.out[..4].copy_from_slice(&len.to_le_bytes());
        let sent = Instant::now();
        self.writer.write_all(&self.out)?;
        Ok(Pending {
            req,
            version,
            due,
            sent,
        })
    }

    /// Read one reply frame into `self.body`.
    fn recv(&mut self) -> io::Result<()> {
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > PAGE_SIZE + 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply frame of {len} bytes"),
            ));
        }
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body)
    }

    /// Receive the oldest pending reply, check it, and record it.
    fn complete(
        &mut self,
        p: Pending,
        checker: &Checker,
        win: &Windows,
        stats: &mut PhaseStats,
        tamper: &mut u64,
    ) {
        let result = self.recv();
        let done = Instant::now();
        let page = p.req.page;
        let ok = match result {
            Err(e) => {
                checker.fail(
                    p.req.op.name(),
                    page,
                    "reply",
                    format!("transport error: {e}"),
                );
                false
            }
            Ok(()) => match p.req.op {
                Op::Get => {
                    // Tampering pretends a newer version was acknowledged
                    // before the send, so a correct reply reads as stale:
                    // the end-to-end proof that stale replies count.
                    let floor = match self.body.get(1..) {
                        Some(image) if *tamper > 0 => {
                            *tamper -= 1;
                            image_version(page, image).map_or(p.version, |v| v + 1)
                        }
                        _ => p.version,
                    };
                    checker.check_get(page, floor, &self.body)
                }
                Op::Put => checker.check_put(page, p.version, &self.body),
                Op::Scan => checker.check_scan(page, &self.body),
            },
        };
        if ok {
            stats.ok += 1;
            let w = win.index(if win.open_loop { p.due } else { done });
            if stats.ok_per_window.len() <= w {
                stats.ok_per_window.resize(w + 1, 0);
            }
            stats.ok_per_window[w] += 1;
            if win.open_loop {
                let i = p.req.op.index();
                stats.latency_ns[i].push((w, (done - p.due).as_nanos() as u64));
                stats.service_ns[i].push((w, (done - p.sent).as_nanos() as u64));
            }
        } else {
            stats.failed += 1;
        }
    }

    /// Closed loop: keep `pipeline` requests in flight until `until`
    /// (or until `count` requests were sent, when given), then drain.
    #[allow(clippy::too_many_arguments)]
    pub fn closed_loop(
        &mut self,
        list: &[Req],
        warmup: usize,
        checker: &Checker,
        pipeline: usize,
        until: Option<Instant>,
        count: Option<u64>,
        tamper: &mut u64,
    ) -> PhaseStats {
        let win = Windows {
            start: Instant::now(),
            width: CLOSED_WINDOW,
            open_loop: false,
        };
        let mut stats = PhaseStats::default();
        let mut pending: VecDeque<Pending> = VecDeque::with_capacity(pipeline);
        let mut broken = false;
        loop {
            let now = Instant::now();
            let more = !broken
                && until.is_none_or(|u| now < u)
                && count.is_none_or(|c| stats.attempted < c);
            if more && pending.len() < pipeline {
                // A page's PUTs must not overlap, or a server that runs
                // one connection's requests concurrently could apply
                // them out of order and a correct GET would look stale.
                let next = list[if self.cursor == list.len() {
                    warmup
                } else {
                    self.cursor
                }];
                let clash = next.op == Op::Put
                    && pending
                        .iter()
                        .any(|p| p.req.op == Op::Put && p.req.page == next.page);
                if !clash {
                    stats.attempted += 1;
                    match self.send(list, warmup, checker, now) {
                        Ok(p) => pending.push_back(p),
                        Err(e) => {
                            checker.fail(
                                next.op.name(),
                                next.page,
                                "send",
                                format!("transport error: {e}"),
                            );
                            stats.failed += 1;
                            broken = true;
                        }
                    }
                    continue;
                }
            }
            match pending.pop_front() {
                Some(p) if !broken => self.complete(p, checker, &win, &mut stats, tamper),
                Some(p) => {
                    checker.fail(p.req.op.name(), p.req.page, "reply", "connection broken");
                    stats.failed += 1;
                }
                None if more => continue,
                None => break,
            }
        }
        stats
    }

    /// Open loop: one request every `gap`, starting at `first`, until
    /// `end`, one in flight at a time. Latency counts from the due time,
    /// so a stall also charges the requests queued behind it.
    #[allow(clippy::too_many_arguments)]
    pub fn open_loop(
        &mut self,
        list: &[Req],
        warmup: usize,
        checker: &Checker,
        win: &Windows,
        first: Instant,
        gap: Duration,
        end: Instant,
    ) -> PhaseStats {
        let mut stats = PhaseStats::default();
        let mut due = first;
        while due < end {
            wait_until(due);
            stats.attempted += 1;
            let next = list[if self.cursor == list.len() {
                warmup
            } else {
                self.cursor
            }];
            match self.send(list, warmup, checker, due) {
                Ok(p) => {
                    stats.lag_ns.push((p.sent - due).as_nanos() as u64);
                    self.complete(p, checker, win, &mut stats, &mut 0);
                }
                Err(e) => {
                    checker.fail(
                        next.op.name(),
                        next.page,
                        "send",
                        format!("transport error: {e}"),
                    );
                    stats.failed += 1;
                    break;
                }
            }
            due += gap;
        }
        stats
    }
}

/// Append the request body of `req`: opcode, page, and for a PUT the
/// page image at `version`, for a SCAN its length.
pub fn encode_request(req: Req, version: u64, out: &mut Vec<u8>) {
    let op: u8 = match req.op {
        Op::Get => 0x01,
        Op::Put => 0x02,
        Op::Scan => 0x03,
    };
    out.push(op);
    out.extend_from_slice(&req.page.to_le_bytes());
    match req.op {
        Op::Get => {}
        Op::Put => {
            let start = out.len();
            out.resize(start + PAGE_SIZE, 0);
            write_image(req.page, version, &mut out[start..]);
        }
        Op::Scan => out.extend_from_slice(&SCAN_LEN.to_le_bytes()),
    }
}

/// Wait for `due`, yielding the core to the server's threads. Sleeping
/// instead would let the vCPUs go idle, and waking an idle vCPU costs
/// far more than the gaps between sends.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > Duration::from_millis(2) {
            std::thread::sleep(due - now - Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
}
