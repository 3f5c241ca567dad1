//! The SMP mode-switch rendezvous protocol (§5.4).
//!
//! "The processor (CP, control processor) that received the mode switch
//! request will notify other processors via issuing IPIs.  Upon
//! receiving the IPI, each processor notifies its readiness to other
//! processors by increasing a shared count and waits for a shared flag
//! to ensure all other processors are ready to do a mode switch.  The
//! shared flag will be set by the CP when it finds the shared count is
//! equal to the total number of processors.  The completion of the mode
//! switch is also coordinated using a shared variable."
//!
//! The shared count/flag/completion variables below are real atomics;
//! the peer CPUs run on real host threads, so the protocol is exercised
//! under genuine concurrency.
//!
//! ## Round generations
//!
//! A rendezvous can abort (the CP times out waiting for a peer that is
//! not servicing interrupts).  The IPI it broadcast is still pending on
//! that peer, and may be serviced arbitrarily late — possibly while a
//! *later* round is open.  If such a ghost check-in were counted, the
//! CP of the later round could start the global state transfer while a
//! real peer CPU is still executing — the exact hazard §5.4's counting
//! exists to prevent.  Both shared counters therefore carry a **round
//! generation (epoch)** in their high bits: `begin` bumps the epoch,
//! and every check-in/completion is a compare-and-swap that verifies
//! the epoch it targets is still the one in the word.  A late arrival
//! from an aborted round fails the epoch check and is rejected with
//! [`RendezvousError::Stale`] without ever touching the count.
//!
//! ## A spin charges nothing
//!
//! Every wait here is one loop, `spin_until`, and a spinning CPU is
//! charged no cycle: its simulated clock stands still while its host
//! thread spins, and is not idled forward through `simx86::evclock`
//! either.  Only the host clock bounds the wait — the
//! [`RENDEZVOUS_TIMEOUT`] behind the watchdog's sticky-degradation
//! decision — so a wedged peer costs host time, not simulated time.
//! Idle consumers *around* a switch (the watchdog's retry backoff, a
//! serving gap) idle up to their next deadline and re-enter the
//! protocol tick-exact.
//!
//! The full handshake, with the peer on its own thread as a second CPU
//! would be (in the real switch path the peer side runs inside the
//! `SELF_VIRT_RENDEZVOUS` interrupt handler):
//!
//! ```
//! use mercury::rendezvous::Rendezvous;
//! use std::sync::Arc;
//!
//! let rv = Arc::new(Rendezvous::new());
//! let epoch = rv.begin().unwrap();           // CP: open the round, publish its epoch
//! let peer = {
//!     let rv = Arc::clone(&rv);
//!     std::thread::spawn(move || {
//!         // peer: ack the IPI, park until go
//!         rv.check_in_and_wait(epoch).unwrap();
//!         // … per-CPU state reload runs here (§5.1.3) …
//!         rv.complete_for(epoch);            // peer: report done
//!     })
//! };
//! rv.wait_ready(1).unwrap();                 // CP: everyone parked
//! // … global state transfer runs here (§5.1.2) …
//! rv.signal_go();                            // CP: release the peers
//! rv.wait_done(1).unwrap();                  // CP: close the round
//! peer.join().unwrap();
//! assert!(!rv.in_progress());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a spinning participant waits before declaring the protocol
/// wedged (host wall-clock; generous because peers only notice IPIs at
/// service points).
pub const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(5);

/// Round epoch held in the high half of each packed counter word.
fn epoch_of(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Check-in / completion count held in the low half.
fn count_of(word: u64) -> usize {
    (word & 0xffff_ffff) as usize
}

/// A fresh counter word for round `epoch` with a zero count.
fn pack(epoch: u32) -> u64 {
    (epoch as u64) << 32
}

/// Spin (host wall-clock) until `done` holds; `false` if `timeout`
/// passed first.
pub(crate) fn spin_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    // volint::bound(4096) — timeout-bounded spin (5 s hard abort); healthy-path budget: peers answer within microseconds
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::hint::spin_loop();
        std::thread::yield_now();
    }
    true
}

/// The shared coordination block.
#[derive(Debug)]
pub struct Rendezvous {
    /// Peers that acknowledged the IPI ("shared count"), packed with
    /// the round epoch in the high 32 bits.
    ready: AtomicU64,
    /// CP's go signal ("shared flag").
    go: AtomicBool,
    /// Peers that finished their per-CPU switch step ("completion"),
    /// packed like `ready`.
    done: AtomicU64,
    /// A rendezvous is in progress.
    active: AtomicBool,
    /// Spin patience before a participant declares the protocol wedged
    /// (configuration, not round state — tests shorten it).
    timeout: Duration,
    /// Happens-before shadow for the dynamic protocol checker.
    #[cfg(feature = "dyncheck")]
    monitor: crate::dyncheck::RvMonitor,
}

impl Default for Rendezvous {
    fn default() -> Rendezvous {
        Rendezvous::new()
    }
}

/// Why a rendezvous failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RendezvousError {
    /// A peer never checked in (not polling its service points).
    Timeout,
    /// A rendezvous was already in flight.
    Busy,
    /// A check-in or completion targeted a round that is no longer the
    /// open one — a ghost IPI from an aborted round, rejected without
    /// polluting the live count.
    Stale,
}

impl Rendezvous {
    /// Fresh block with the default [`RENDEZVOUS_TIMEOUT`].
    pub fn new() -> Rendezvous {
        Rendezvous::with_timeout(RENDEZVOUS_TIMEOUT)
    }

    /// Fresh block with an explicit spin patience (tests abort rounds
    /// quickly with this).
    pub fn with_timeout(timeout: Duration) -> Rendezvous {
        Rendezvous {
            ready: AtomicU64::new(0),
            go: AtomicBool::new(false),
            done: AtomicU64::new(0),
            active: AtomicBool::new(false),
            timeout,
            #[cfg(feature = "dyncheck")]
            monitor: crate::dyncheck::RvMonitor::default(),
        }
    }

    /// Is a rendezvous currently in progress?
    pub fn in_progress(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// CP side: open the rendezvous and return the new round's epoch.
    /// Fails if one is already running.
    pub fn begin(&self) -> Result<u32, RendezvousError> {
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(RendezvousError::Busy);
        }
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_begin();
        let epoch = epoch_of(self.ready.load(Ordering::Acquire)).wrapping_add(1);
        // Order matters: clear the flag first, then publish the new
        // epoch words.  A peer can only learn the new epoch from the
        // `ready` store, which happens-after the flag reset — so no
        // new-round check-in can observe the previous round's go flag.
        self.go.store(false, Ordering::Release);
        self.done.store(pack(epoch), Ordering::Release);
        self.ready.store(pack(epoch), Ordering::Release);
        Ok(epoch)
    }

    /// CP side: wait until `peers` CPUs have checked in.  The CP then
    /// performs the global state transfer while every peer is parked,
    /// and releases them with [`Rendezvous::signal_go`].
    pub fn wait_ready(&self, peers: usize) -> Result<(), RendezvousError> {
        self.wait_count(&self.ready, peers)?;
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_wait_ready_ok(peers);
        Ok(())
    }

    /// CP side: raise the shared go flag.
    pub fn signal_go(&self) {
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_signal_go();
        self.go.store(true, Ordering::Release);
    }

    /// CP side: wait for all peers to complete their per-CPU step, then
    /// close the rendezvous.
    pub fn wait_done(&self, peers: usize) -> Result<(), RendezvousError> {
        self.wait_count(&self.done, peers)?;
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_wait_done_ok(peers);
        self.end_round();
        Ok(())
    }

    /// CP side: spin until the count in `word` reaches `peers`; past the
    /// patience window the round is aborted.
    fn wait_count(&self, word: &AtomicU64, peers: usize) -> Result<(), RendezvousError> {
        let counted = || count_of(word.load(Ordering::Acquire)) >= peers;
        if spin_until(self.timeout, counted) {
            return Ok(());
        }
        self.end_round();
        Err(RendezvousError::Timeout)
    }

    /// CP side: end the round, completed or aborted.
    fn end_round(&self) {
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_close();
        self.active.store(false, Ordering::Release);
    }

    /// Peer side, epoch-pinned: check in to round `epoch` (obtained
    /// from the CP's published round descriptor) and spin until go.
    ///
    /// The check-in itself is an epoch-guarded compare-and-swap: if the
    /// target round has been aborted or superseded the call returns
    /// [`RendezvousError::Stale`] and the count is untouched.
    pub fn check_in_and_wait(&self, epoch: u32) -> Result<(), RendezvousError> {
        // Reject before counting: a ghost IPI from an aborted round
        // must never pollute a later round's count.
        if !self.in_progress() {
            return Err(RendezvousError::Stale);
        }
        // volint::bound(64) — CAS retry loop; each retry means another peer won, so trips ≤ peer count
        loop {
            let cur = self.ready.load(Ordering::Acquire);
            if epoch_of(cur) != epoch {
                return Err(RendezvousError::Stale);
            }
            if self
                .ready
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_check_in();
        // Stop on go, or once the CP aborted (e.g. its own timeout) or
        // superseded the round while we were parked.
        let mut released = false;
        spin_until(self.timeout, || {
            released = self.go.load(Ordering::Acquire);
            released || epoch_of(self.ready.load(Ordering::Acquire)) != epoch || !self.in_progress()
        });
        if !released {
            return Err(RendezvousError::Timeout);
        }
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_observed_go();
        Ok(())
    }

    /// Peer side, epoch-pinned: report completion for round `epoch`.
    /// Returns whether the completion was counted — a stale completion
    /// (round aborted and superseded) is dropped, mirroring the
    /// check-in guard.
    pub fn complete_for(&self, epoch: u32) -> bool {
        // volint::bound(64) — CAS retry loop; trips ≤ peer count
        loop {
            let cur = self.done.load(Ordering::Acquire);
            if epoch_of(cur) != epoch {
                return false;
            }
            #[cfg(feature = "dyncheck")]
            // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
            self.monitor.on_complete();
            if self
                .done
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A peer of round `epoch`: check in, park until go, report done.
    fn peer(r: &Arc<Rendezvous>, epoch: u32) -> std::thread::JoinHandle<()> {
        let r = Arc::clone(r);
        std::thread::spawn(move || {
            r.check_in_and_wait(epoch).unwrap();
            assert!(r.complete_for(epoch));
        })
    }

    /// The CP side of a round with nothing to transfer.
    fn release(r: &Rendezvous, peers: usize) {
        r.wait_ready(peers).unwrap();
        r.signal_go();
        r.wait_done(peers).unwrap();
    }

    #[test]
    fn two_party_protocol_runs_to_completion() {
        let r = Arc::new(Rendezvous::new());
        let epoch = r.begin().unwrap();
        let peer = peer(&r, epoch);
        release(&r, 1);
        peer.join().unwrap();
        assert!(!r.in_progress());
    }

    #[test]
    fn double_begin_is_busy() {
        let r = Rendezvous::new();
        r.begin().unwrap();
        assert_eq!(r.begin().unwrap_err(), RendezvousError::Busy);
    }

    #[test]
    fn busy_begin_fails_fast_without_spinning() {
        // A second CP racing into an in-flight rendezvous must bounce
        // with Busy immediately — not wedge until RENDEZVOUS_TIMEOUT.
        let r = Arc::new(Rendezvous::new());
        let epoch = r.begin().unwrap();
        let contender = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let started = Instant::now();
                let err = r.begin().unwrap_err();
                (err, started.elapsed())
            })
        };
        let (err, elapsed) = contender.join().unwrap();
        assert_eq!(err, RendezvousError::Busy);
        assert!(
            elapsed < RENDEZVOUS_TIMEOUT / 2,
            "busy begin took {elapsed:?}; it must not spin toward the timeout"
        );

        // The original rendezvous is undisturbed and still completes.
        let peer = peer(&r, epoch);
        release(&r, 1);
        peer.join().unwrap();
        assert!(!r.in_progress());
    }

    #[test]
    fn zero_peers_trivially_completes() {
        let r = Rendezvous::new();
        r.begin().unwrap();
        release(&r, 0);
        assert!(!r.in_progress());
    }

    #[test]
    fn many_peers_all_observe_go_before_done() {
        let r = Arc::new(Rendezvous::new());
        let epoch = r.begin().unwrap();
        let peers: Vec<_> = (0..4).map(|_| peer(&r, epoch)).collect();
        release(&r, 4);
        for p in peers {
            p.join().unwrap();
        }
    }

    #[test]
    fn ghost_check_in_from_aborted_round_is_rejected() {
        // Regression for the §5.4 ghost check-in hazard: the old code
        // incremented `ready` *before* checking `active`, so a late IPI
        // from an aborted round polluted the next round's count and the
        // CP could start the state transfer while a real peer CPU was
        // still executing.
        let r = Arc::new(Rendezvous::with_timeout(Duration::from_millis(50)));

        // Round 1: no peer ever services the IPI; the CP times out.
        let epoch1 = r.begin().unwrap();
        assert_eq!(r.wait_ready(1).unwrap_err(), RendezvousError::Timeout);
        assert!(!r.in_progress());

        // The aborted round's IPI is finally serviced, *between*
        // rounds: rejected without counting.
        assert_eq!(
            r.check_in_and_wait(epoch1).unwrap_err(),
            RendezvousError::Stale
        );
        let checked_in = || count_of(r.ready.load(Ordering::Acquire));
        assert_eq!(checked_in(), 0, "ghost check-in polluted the count");

        // Round 2 opens with one real (but slow) peer expected.  The
        // ghost from round 1 arrives *while round 2 is open* — the
        // pre-fix code counted it here (active is true again) and
        // wait_ready(1) sailed through with no real peer parked.
        let epoch2 = r.begin().unwrap();
        assert_ne!(epoch2, epoch1);
        assert_eq!(
            r.check_in_and_wait(epoch1).unwrap_err(),
            RendezvousError::Stale
        );
        assert_eq!(checked_in(), 0, "stale epoch counted into a live round");
        assert_eq!(
            r.wait_ready(1).unwrap_err(),
            RendezvousError::Timeout,
            "round 2 must still wait for its real peer"
        );

        // A stale completion is likewise dropped once a new round has
        // rolled the epoch.
        let epoch3 = r.begin().unwrap();
        assert!(!r.complete_for(epoch1));
        assert!(r.complete_for(epoch3));
        r.wait_ready(0).unwrap();
        r.signal_go();
    }
}
