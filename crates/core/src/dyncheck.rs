//! Vector-clock happens-before checking for the switch protocol
//! (`--features dyncheck`).
//!
//! The static pass (`volint`) proves the rendezvous and refcount code
//! *uses* acquire/release atomics; this module is its dynamic twin — it
//! validates at runtime that those orderings actually produce the
//! happens-before edges the protocol relies on (paper §5.1.1/§5.4):
//!
//! * a peer leaves its spin only after the CP's `signal_go` (the CP's
//!   entire state transfer happens-before every peer reload);
//! * the CP proceeds past `wait_ready`/`wait_done` only after every
//!   counted check-in/completion happened-before it;
//! * a mode switch passes the refcount gate only when every
//!   `VoRefCount` exit happens-before the gate.
//!
//! Each real atomic is shadowed by a vector-clock location.  Release
//! stores publish the acting thread's clock into the location, acquire
//! loads join the location into the thread, and RMWs do both —
//! mirroring the C11 semantics of the orderings used by the real code.
//! Violations are *recorded*, not panicked (hooks run inside `Drop`);
//! tests drain them with [`take_reports`] and assert emptiness.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// ------------------------------------------------------------ thread ids

static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static CLOCK: std::cell::RefCell<VClock> = std::cell::RefCell::new(VClock::default());
}

/// This thread's checker id (dense, never reused).
pub fn tid() -> usize {
    TID.with(|t| *t)
}

fn with_clock<R>(f: impl FnOnce(&mut VClock) -> R) -> R {
    CLOCK.with(|c| f(&mut c.borrow_mut()))
}

// ---------------------------------------------------------- vector clock

/// A vector clock: per-thread logical timestamps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock(HashMap<usize, u64>);

impl VClock {
    /// Advance this thread's component.
    pub fn tick(&mut self, t: usize) {
        *self.0.entry(t).or_insert(0) += 1;
    }

    /// Pointwise maximum.
    pub fn join(&mut self, other: &VClock) {
        for (t, v) in &other.0 {
            let e = self.0.entry(*t).or_insert(0);
            if *v > *e {
                *e = *v;
            }
        }
    }

    /// Does every event in `self` happen-before-or-equal `other`?
    pub fn leq(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .all(|(t, v)| other.0.get(t).copied().unwrap_or(0) >= *v)
    }
}

/// A shadow location mirroring one real atomic.
#[derive(Debug, Default)]
pub struct Loc {
    clock: Mutex<VClock>,
}

impl Loc {
    /// Shadow of a `Release` store: publish the thread clock.
    pub fn release(&self) {
        let t = tid();
        with_clock(|c| {
            self.clock.lock().unwrap().join(c);
            c.tick(t);
        });
    }

    /// Shadow of an `Acquire` load: adopt the location's clock.
    pub fn acquire(&self) {
        with_clock(|c| c.join(&self.clock.lock().unwrap()));
    }

    /// Shadow of an `AcqRel` read-modify-write.
    pub fn acq_rel(&self) {
        let t = tid();
        with_clock(|c| {
            let mut l = self.clock.lock().unwrap();
            c.join(&l);
            l.join(c);
            c.tick(t);
        });
    }
}

// --------------------------------------------------------------- reports

static REPORTS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Record a protocol violation (never panics: hooks run inside `Drop`).
pub fn report(msg: String) {
    REPORTS.lock().unwrap().push(msg);
}

/// Drain all recorded violations.
pub fn take_reports() -> Vec<String> {
    std::mem::take(&mut *REPORTS.lock().unwrap())
}

// ----------------------------------------------------- rendezvous monitor

/// Shadow state for one [`crate::rendezvous::Rendezvous`]: one
/// location for its one word.
#[derive(Debug, Default)]
pub struct RvMonitor {
    word: Loc,
    state: Mutex<RoundRecords>,
}

#[derive(Debug, Default)]
struct RoundRecords {
    /// (tid, thread clock at check-in) for this round.
    checkins: Vec<(usize, VClock)>,
    /// (tid, thread clock at completion) for this round.
    completes: Vec<(usize, VClock)>,
    /// CP clock snapshot at `signal_go`.
    go_clock: Option<VClock>,
}

impl RvMonitor {
    /// CP opened the rendezvous (`begin`'s compare-and-swap landed).
    pub fn on_begin(&self) {
        self.word.acq_rel();
        *self.state.lock().unwrap() = RoundRecords::default();
    }

    /// A peer's check-in landed (once per counted check-in).
    pub fn on_check_in(&self) {
        // The event clock is the clock as *published*: snapshot before
        // the shadow RMW ticks past it.
        let snapshot = with_clock(|c| c.clone());
        self.word.acq_rel();
        self.state.lock().unwrap().checkins.push((tid(), snapshot));
    }

    /// A peer observed the go flag and is about to reload.
    pub fn on_observed_go(&self) {
        self.word.acquire();
        let s = self.state.lock().unwrap();
        if let Some(go_clock) = &s.go_clock {
            let ordered = with_clock(|c| go_clock.leq(c));
            if !ordered {
                report(format!(
                    "dyncheck[rendezvous]: peer tid {} passed the go flag \
                     without a happens-before edge from signal_go — the \
                     CP's state transfer is not ordered before this reload",
                    tid()
                ));
            }
        } else {
            report(format!(
                "dyncheck[rendezvous]: peer tid {} observed go before the \
                 CP signalled it this round",
                tid()
            ));
        }
    }

    /// CP saw `ready == peers`.
    pub fn on_wait_ready_ok(&self, peers: usize) {
        self.check_counted(peers, "wait_ready", "check-in(s)", |r| &r.checkins);
    }

    /// The CP passed `wait`: `peers` distinct threads' `events` must
    /// happen-before it (one thread recorded twice stands in for no
    /// other).  A peer's record trails its real RMW by a few
    /// instructions, so the CP can see the real count before the record
    /// exists: wait (briefly) for `peers` records first, so the check
    /// compares clocks, not arrival order.
    fn check_counted(
        &self,
        peers: usize,
        wait: &str,
        what: &str,
        events: fn(&RoundRecords) -> &Vec<(usize, VClock)>,
    ) {
        let recorded = || events(&self.state.lock().unwrap()).len() >= peers;
        crate::rendezvous::spin_until(std::time::Duration::from_secs(1), recorded);
        self.word.acquire();
        let records = self.state.lock().unwrap();
        let threads: BTreeSet<usize> = with_clock(|c| {
            let ordered = events(&records).iter().filter(|(_, ck)| ck.leq(c));
            ordered.map(|(t, _)| *t).collect()
        });
        let ordered = threads.len();
        if ordered < peers {
            report(format!(
                "dyncheck[rendezvous]: CP proceeded past {wait}({peers}) \
                 but only {ordered} {what} happen-before it"
            ));
        }
    }

    /// CP is about to raise the go flag (a compare-and-swap).
    pub fn on_signal_go(&self) {
        let snapshot = with_clock(|c| c.clone());
        self.state.lock().unwrap().go_clock = Some(snapshot);
        self.word.acq_rel();
    }

    /// A peer's completion landed (once per counted completion).
    pub fn on_complete(&self) {
        let snapshot = with_clock(|c| c.clone());
        self.word.acq_rel();
        self.state.lock().unwrap().completes.push((tid(), snapshot));
    }

    /// CP saw `done == peers` and is about to close the rendezvous.
    pub fn on_wait_done_ok(&self, peers: usize) {
        self.check_counted(peers, "wait_done", "completion(s)", |r| &r.completes);
    }

    /// CP closed the round, completed or aborted: the closing store.
    pub fn on_close(&self) {
        self.word.release();
    }
}

// ------------------------------------------------------- refcount monitor

/// Shadow state for one [`crate::refcount::VoRefCount`].
#[derive(Debug, Default)]
pub struct RcMonitor {
    loc: Loc,
    state: Mutex<RcState>,
}

#[derive(Debug, Default)]
struct RcState {
    enters: u64,
    exits: u64,
    /// Join of every exiting thread's clock at exit time.
    exits_clock: VClock,
}

impl RcMonitor {
    /// A guard was taken (call *before* the real `fetch_add`).
    pub fn on_enter(&self) {
        self.loc.acq_rel();
        self.state.lock().unwrap().enters += 1;
    }

    /// A guard dropped (call *before* the real `fetch_sub`).  The
    /// shadow publish happens first, then the bookkeeping, so any exit
    /// visible in the state snapshot below has already published its
    /// clock to the shadow location.
    pub fn on_exit(&self) {
        let snapshot = with_clock(|c| c.clone());
        self.loc.acq_rel();
        let mut s = self.state.lock().unwrap();
        s.exits += 1;
        s.exits_clock.join(&snapshot);
    }

    /// `current()` / `is_idle()` observation.
    pub fn on_observe(&self) {
        self.loc.acquire();
    }

    /// The switch path passed the refcount gate: every *completed* exit
    /// recorded so far must happen-before this point.  Live guards are
    /// not flagged here — the gate is advisory (a racing `enter` after
    /// the gate's load is handled by deferral), so only the ordering of
    /// finished sections is checkable without false positives.
    pub fn assert_quiescent(&self) {
        // Snapshot first, acquire second: an exit in the snapshot
        // published to `loc` before its bookkeeping (see `on_exit`), so
        // the acquire below is guaranteed to join its clock — any
        // violation reported here is real.
        let (enters, exits, exits_clock) = {
            let s = self.state.lock().unwrap();
            (s.enters, s.exits, s.exits_clock.clone())
        };
        self.loc.acquire();
        if exits > enters {
            report(format!(
                "dyncheck[refcount]: {exits} exit(s) recorded against only \
                 {enters} enter(s) — a guard dropped twice"
            ));
        }
        let ordered = with_clock(|c| exits_clock.leq(c));
        if !ordered {
            report(
                "dyncheck[refcount]: gate passed without a happens-before \
                 edge from every completed VO exit — the switch could \
                 observe a sensitive section's partial writes"
                    .to_string(),
            );
        }
    }

    /// Join-point balance check: after all worker threads have joined,
    /// every enter must have a matching exit.  Returns a description of
    /// the imbalance, if any.
    pub fn check_balanced(&self) -> Option<String> {
        let s = self.state.lock().unwrap();
        (s.enters != s.exits).then(|| {
            format!(
                "dyncheck[refcount]: {} enter(s) vs {} exit(s) at a join \
                 point — a guard leaked",
                s.enters, s.exits
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The report buffer is global; tests that drain it must not
    /// interleave.  (Poisoning is irrelevant — reports are plain data.)
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn clocks_join_tick_and_compare() {
        let mut a = VClock::default();
        let mut b = VClock::default();
        a.tick(0);
        a.tick(0);
        b.tick(1);
        assert!(!a.leq(&b));
        b.join(&a);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn release_acquire_transfers_order() {
        let loc = Arc::new(Loc::default());
        let before = {
            let loc = Arc::clone(&loc);
            std::thread::spawn(move || {
                with_clock(|c| c.tick(tid()));
                let snap = with_clock(|c| c.clone());
                loc.release();
                snap
            })
            .join()
            .unwrap()
        };
        loc.acquire();
        assert!(with_clock(|c| before.leq(c)));
    }

    #[test]
    fn rendezvous_monitor_happy_path_is_silent() {
        let _lk = serialized();
        let _ = take_reports();
        let m = Arc::new(RvMonitor::default());
        m.on_begin();
        let peer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                m.on_check_in();
            })
        };
        peer.join().unwrap();
        m.on_wait_ready_ok(1);
        m.on_signal_go();
        let peer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                m.on_observed_go();
                m.on_complete();
            })
        };
        peer.join().unwrap();
        m.on_wait_done_ok(1);
        assert_eq!(take_reports(), Vec::<String>::new());
    }

    #[test]
    fn one_peer_completing_twice_stands_in_for_no_other() {
        let _lk = serialized();
        let _ = take_reports();
        let m = Arc::new(RvMonitor::default());
        m.on_begin();
        m.on_wait_ready_ok(0);
        m.on_signal_go();
        let peer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                m.on_observed_go();
                m.on_complete();
                m.on_complete();
            })
        };
        peer.join().unwrap();
        m.on_wait_done_ok(2);
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].contains("only 1 completion"), "{reports:?}");
    }

    #[test]
    fn broken_protocol_is_reported() {
        let _lk = serialized();
        let _ = take_reports();
        let m = Arc::new(RvMonitor::default());
        m.on_begin();
        // A peer claims to have observed go, but the CP never signalled:
        // no happens-before edge exists.
        let peer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.on_observed_go())
        };
        peer.join().unwrap();
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].contains("observed go"));
    }

    #[test]
    fn refcount_monitor_balance_and_ordering() {
        let _lk = serialized();
        let _ = take_reports();
        let m = Arc::new(RcMonitor::default());
        m.on_enter();
        assert!(m.check_balanced().unwrap().contains("1 enter(s) vs 0"));
        m.on_exit();
        assert!(m.check_balanced().is_none());

        // Exits completed on another thread happen-before the gate via
        // the shadow location: silent.
        {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                m.on_enter();
                m.on_exit();
            })
            .join()
            .unwrap();
        }
        m.assert_quiescent();
        assert_eq!(take_reports(), Vec::<String>::new());
    }

    #[test]
    fn refcount_monitor_reports_unordered_exit() {
        let _lk = serialized();
        let _ = take_reports();
        let m = RcMonitor::default();
        m.on_enter();
        m.on_exit();
        // Fabricate an exit clock the checker's thread has never
        // synchronized with (as if the exit skipped its release).
        m.state.lock().unwrap().exits_clock.tick(usize::MAX);
        m.assert_quiescent();
        let reports = take_reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert!(reports[0].contains("happens-before"));
    }
}
