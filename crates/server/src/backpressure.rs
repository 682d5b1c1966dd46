//! Admission control: where overload becomes visible, so the policy
//! decision lives here rather than in the protocol or execution code.
//!
//! [`ExecGate`] is the run-to-completion gate in front of execution. A
//! connection thread executes its own requests once the gate grants it
//! one of `workers` execution slots; at most `queue_capacity` requests
//! wait for a slot.
//!
//! The policies:
//!
//! * **Block** — wait for capacity; nothing is refused. End-to-end
//!   latency absorbs the overload (the e2e tests rely on the zero-loss
//!   guarantee).
//! * **Shed** — no capacity means an immediate `BUSY` reply.
//! * **DeadlineDrop** — requests always wait, but carry a deadline; one
//!   whose wait exceeded it when it would start executing is answered
//!   `DROPPED` instead. Expiry is checked when execution would begin,
//!   where staleness is actually known, not at arrival.

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bpw_metrics::MaxGauge;

/// How admission behaves at (and past) capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block producers until a slot frees up; never refuse work.
    #[default]
    Block,
    /// Refuse immediately when there is no room to wait (`BUSY` reply).
    Shed,
    /// Let everything wait, but discard requests older than this when
    /// they would start executing (`DROPPED` reply).
    DeadlineDrop(Duration),
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::Block => f.write_str("block"),
            AdmissionPolicy::Shed => f.write_str("shed"),
            AdmissionPolicy::DeadlineDrop(d) => write!(f, "drop:{}", d.as_millis()),
        }
    }
}

impl FromStr for AdmissionPolicy {
    type Err = String;

    /// `"block"`, `"shed"`, or `"drop:MILLIS"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "block" => Ok(AdmissionPolicy::Block),
            "shed" => Ok(AdmissionPolicy::Shed),
            other => match other.strip_prefix("drop:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| AdmissionPolicy::DeadlineDrop(Duration::from_millis(ms)))
                    .map_err(|e| format!("bad deadline {ms:?}: {e}")),
                None => Err(format!(
                    "unknown admission policy {other:?} (want block, shed, or drop:MS)"
                )),
            },
        }
    }
}

/// Why [`ExecGate::enter`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// Every slot is taken and the waiting room is full, under
    /// [`AdmissionPolicy::Shed`] (reply `BUSY`).
    Busy,
    /// The request waited past its [`AdmissionPolicy::DeadlineDrop`]
    /// deadline (reply `DROPPED`).
    Expired,
}

/// Run-to-completion admission: at most `slots` requests execute at
/// once, and at most `capacity` wait for a slot.
///
/// Taking a free slot is one compare-and-swap on an atomic count, and
/// giving it back is one atomic decrement plus a load; neither touches
/// a lock unless someone is waiting. Only waiters use the mutex and
/// condition variables. Under the blocking policies a request that
/// finds the waiting room full waits for room first, the way a producer
/// blocked on a full queue does; the room's high-water mark is the
/// queue-depth gauge STATS reports.
#[derive(Debug)]
pub struct ExecGate {
    slots: usize,
    capacity: usize,
    policy: AdmissionPolicy,
    /// Slots held right now.
    running: AtomicUsize,
    /// Most slots ever held at once.
    peak_running: AtomicUsize,
    /// Requests in the waiting room: written under `room`, read
    /// lock-free by [`release`](Self::release) to skip the wake-up when
    /// nobody waits.
    waiting: AtomicUsize,
    room: Mutex<()>,
    slot_freed: Condvar,
    room_freed: Condvar,
    depth: Arc<MaxGauge>,
}

/// One granted execution slot; dropping it frees the slot.
#[must_use = "the slot is released when the permit drops"]
#[derive(Debug)]
pub struct Permit<'g> {
    gate: &'g ExecGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

impl ExecGate {
    /// A gate with `slots` execution slots (at least one) and room for
    /// `capacity` waiters. The blocking policies always keep room for
    /// one waiter, since a request that may not be refused must wait
    /// somewhere; under [`AdmissionPolicy::Shed`] a zero capacity
    /// refuses whenever every slot is taken.
    pub fn new(slots: usize, capacity: usize, policy: AdmissionPolicy) -> ExecGate {
        let capacity = match policy {
            AdmissionPolicy::Shed => capacity,
            AdmissionPolicy::Block | AdmissionPolicy::DeadlineDrop(_) => capacity.max(1),
        };
        ExecGate {
            slots: slots.max(1),
            capacity,
            policy,
            running: AtomicUsize::new(0),
            peak_running: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            room: Mutex::new(()),
            slot_freed: Condvar::new(),
            room_freed: Condvar::new(),
            depth: Arc::new(MaxGauge::new()),
        }
    }

    /// Wait for an execution slot under the gate's policy. `admitted`
    /// is when the request's frame was complete: the deadline of
    /// [`AdmissionPolicy::DeadlineDrop`] counts from there, and is
    /// checked at the grant whether or not the request had to wait.
    pub fn enter(&self, admitted: Instant) -> Result<Permit<'_>, Refused> {
        if !self.try_take() {
            self.wait_for_slot()?;
        }
        let permit = Permit { gate: self };
        if let AdmissionPolicy::DeadlineDrop(deadline) = self.policy {
            if admitted.elapsed() > deadline {
                return Err(Refused::Expired);
            }
        }
        Ok(permit)
    }

    /// Take a free slot, if there is one, without waiting.
    fn try_take(&self) -> bool {
        let mut held = self.running.load(Ordering::SeqCst);
        while held < self.slots {
            match self.running.compare_exchange_weak(
                held,
                held + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    // Below the peak — the steady state — only read its
                    // line, so grants on other cores do not bounce it.
                    if held + 1 > self.peak_running.load(Ordering::Relaxed) {
                        self.peak_running.fetch_max(held + 1, Ordering::Relaxed);
                    }
                    return true;
                }
                Err(seen) => held = seen,
            }
        }
        false
    }

    /// The contended path: join the waiting room (or be refused), then
    /// wait until a release hands over a slot.
    fn wait_for_slot(&self) -> Result<(), Refused> {
        let mut room = self.room.lock().expect("gate lock");
        if self.try_take() {
            return Ok(());
        }
        while self.waiting.load(Ordering::SeqCst) >= self.capacity {
            if self.policy == AdmissionPolicy::Shed {
                return Err(Refused::Busy);
            }
            room = self.room_freed.wait(room).expect("gate lock");
        }
        let waiting = self.waiting.fetch_add(1, Ordering::SeqCst) + 1;
        self.depth.observe(waiting as u64);
        // `waiting` is published before this re-check, and `release`
        // frees its slot before reading `waiting`: either the re-check
        // sees the freed slot, or the releaser sees a waiter and
        // notifies under the lock this thread holds until it waits.
        while !self.try_take() {
            room = self.slot_freed.wait(room).expect("gate lock");
        }
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        self.room_freed.notify_one();
        drop(room);
        Ok(())
    }

    fn release(&self) {
        self.running.fetch_sub(1, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) > 0 {
            let _room = self.room.lock().expect("gate lock");
            self.slot_freed.notify_one();
        }
    }

    /// Slots held right now.
    pub fn running(&self) -> usize {
        self.running.load(Ordering::SeqCst)
    }

    /// Most slots ever held at once: never more than `slots`.
    pub fn peak_running(&self) -> usize {
        self.peak_running.load(Ordering::Relaxed)
    }

    /// Requests in the waiting room right now.
    pub fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    /// Shared handle to the waiting-room high-water mark (the STATS
    /// `peak_queue_depth`).
    pub fn depth_gauge(&self) -> Arc<MaxGauge> {
        Arc::clone(&self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn policy_parsing_round_trips() {
        for s in ["block", "shed", "drop:25"] {
            let p: AdmissionPolicy = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!("drop:".parse::<AdmissionPolicy>().is_err());
        assert!("drop:abc".parse::<AdmissionPolicy>().is_err());
        assert!("lru".parse::<AdmissionPolicy>().is_err());
    }

    /// Hold `n` slots from helper threads until `release` is dropped.
    fn hold_slots(
        gate: &Arc<ExecGate>,
        n: usize,
    ) -> (std::sync::mpsc::Sender<()>, Vec<thread::JoinHandle<()>>) {
        let (release, rx) = std::sync::mpsc::channel::<()>();
        let rx = Arc::new(Mutex::new(rx));
        let holders = (0..n)
            .map(|_| {
                let (gate, rx) = (Arc::clone(gate), Arc::clone(&rx));
                thread::spawn(move || {
                    let _permit = gate.enter(Instant::now()).expect("free slot");
                    // Block until the test hangs up.
                    let _ = rx.lock().unwrap().recv();
                })
            })
            .collect();
        crate::poll::wait_for(Duration::from_secs(5), "slots held", || gate.running() == n);
        (release, holders)
    }

    #[test]
    fn gate_block_waits_while_every_slot_is_held() {
        let gate = Arc::new(ExecGate::new(2, 4, AdmissionPolicy::Block));
        let (release, holders) = hold_slots(&gate, 2);
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.enter(Instant::now()).map(drop))
        };
        crate::poll::wait_for(Duration::from_secs(5), "waiter queued", || {
            gate.waiting() == 1
        });
        // Queued, not running: the slot count never exceeds its bound.
        assert!(!waiter.is_finished(), "enter must block while full");
        assert_eq!(gate.running(), 2);
        drop(release);
        for h in holders {
            h.join().unwrap();
        }
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.waiting(), 0);
        assert_eq!(gate.depth_gauge().get(), 1);
    }

    #[test]
    fn gate_uncontended_path_grants_and_releases() {
        let gate = ExecGate::new(2, 0, AdmissionPolicy::Shed);
        let a = gate.enter(Instant::now()).expect("first slot");
        let b = gate.enter(Instant::now()).expect("second slot");
        assert_eq!(gate.running(), 2);
        // No waiting room under Shed with capacity 0: refuse at once.
        assert_eq!(gate.enter(Instant::now()).err(), Some(Refused::Busy));
        drop(a);
        let c = gate.enter(Instant::now()).expect("freed slot");
        drop((b, c));
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.depth_gauge().get(), 0, "nobody ever waited");
    }

    #[test]
    fn gate_shed_answers_busy_past_the_waiting_room() {
        let gate = Arc::new(ExecGate::new(1, 2, AdmissionPolicy::Shed));
        let (release, holders) = hold_slots(&gate, 1);
        // Two requests fit in the waiting room...
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                thread::spawn(move || gate.enter(Instant::now()).map(drop))
            })
            .collect();
        crate::poll::wait_for(Duration::from_secs(5), "room full", || gate.waiting() == 2);
        // ...the third is refused at once instead of waiting.
        assert_eq!(gate.enter(Instant::now()).err(), Some(Refused::Busy));
        drop(release);
        for h in holders {
            h.join().unwrap();
        }
        for w in waiters {
            assert_eq!(w.join().unwrap(), Ok(()));
        }
        assert_eq!(gate.depth_gauge().get(), 2);
        assert_eq!(gate.running(), 0);
    }

    #[test]
    fn gate_deadline_drops_an_expired_wait() {
        let gate = Arc::new(ExecGate::new(
            1,
            4,
            AdmissionPolicy::DeadlineDrop(Duration::from_millis(5)),
        ));
        let (release, holders) = hold_slots(&gate, 1);
        let admitted = Instant::now();
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.enter(admitted).map(drop))
        };
        crate::poll::wait_for(Duration::from_secs(5), "deadline passed in queue", || {
            gate.waiting() == 1 && admitted.elapsed() > Duration::from_millis(6)
        });
        drop(release);
        for h in holders {
            h.join().unwrap();
        }
        assert_eq!(waiter.join().unwrap(), Err(Refused::Expired));
        // The expired request gave its slot back.
        assert_eq!(gate.running(), 0);
        // A fresh request under the same deadline runs.
        assert!(gate.enter(Instant::now()).is_ok());
    }

    #[test]
    fn gate_zero_deadline_drops_on_the_fast_path() {
        let gate = ExecGate::new(4, 4, AdmissionPolicy::DeadlineDrop(Duration::ZERO));
        let admitted = Instant::now();
        crate::poll::wait_for(Duration::from_secs(5), "clock advanced", || {
            admitted.elapsed() > Duration::ZERO
        });
        // Uncontended, yet past its deadline: dropped, slot returned.
        assert_eq!(gate.enter(admitted).err(), Some(Refused::Expired));
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.depth_gauge().get(), 0, "the fast path never waits");
    }

    #[test]
    fn gate_never_runs_more_than_its_slots() {
        let gate = Arc::new(ExecGate::new(3, 2, AdmissionPolicy::Block));
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (gate, inside, peak) =
                    (Arc::clone(&gate), Arc::clone(&inside), Arc::clone(&peak));
                thread::spawn(move || {
                    for _ in 0..2_000 {
                        let _permit = gate.enter(Instant::now()).expect("block never refuses");
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert!(gate.peak_running() <= 3);
        assert!(gate.depth_gauge().get() <= 2, "waiting room overfilled");
        assert_eq!((gate.running(), gate.waiting()), (0, 0));
    }
}
