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
//! ## One round, one word
//!
//! The shared count, the shared flag and the completion variable are
//! fields of one round, and the round is one private `AtomicU64`: the
//! epoch, an open bit, the go bit, the ready count and the done count
//! ([`RvState`] is its decoded form).  Every action on it writes a whole
//! round.  [`Rendezvous::begin`] opens one with a single
//! compare-and-swap from a closed word; a check-in, the go and a
//! completion are compare-and-swaps pinned to the open epoch; closing a
//! round, completed or aborted, is one store.  The peer CPUs run on real
//! host threads, so the protocol is exercised under genuine concurrency.
//!
//! What a peer acts on after go — in the switch, the mode to reload for
//! and its stripe of the attach scan — is handed over by
//! [`Rendezvous::signal_go`] as one value tagged with the epoch, and
//! only [`Rendezvous::check_in_and_wait`] hands it out, so nothing a
//! peer reads can change while the round is open.
//!
//! ## Round generations
//!
//! A rendezvous can abort (the CP times out waiting for a peer that is
//! not servicing interrupts).  The IPI it broadcast is still pending on
//! that peer, and may be serviced arbitrarily late — possibly while a
//! *later* round is open.  If such a ghost check-in were counted, the
//! CP of the later round could start the global state transfer while a
//! real peer CPU is still executing — the exact hazard §5.4's counting
//! exists to prevent.  A check-in or completion therefore names the
//! epoch it targets, and its compare-and-swap succeeds only while that
//! epoch is the open one.  A late arrival from an aborted or superseded
//! round is rejected with [`RendezvousError::Stale`] without ever
//! touching the count.
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
//! rv.begin().unwrap();                       // CP: open the round
//! let peer = {
//!     let rv = Arc::clone(&rv);
//!     std::thread::spawn(move || {
//!         let epoch = rv.state().epoch;      // peer: the open round
//!         // ack the IPI, park until go, receive the CP's release
//!         let release = rv.check_in_and_wait(epoch).unwrap();
//!         assert_eq!(release, "reload");
//!         // … per-CPU state reload runs here (§5.1.3) …
//!         rv.complete_for(epoch);            // peer: report done
//!     })
//! };
//! rv.wait_ready(1).unwrap();                 // CP: everyone parked
//! // … global state transfer runs here (§5.1.2) …
//! rv.signal_go("reload");                    // CP: release the peers
//! rv.wait_done(1).unwrap();                  // CP: close the round
//! peer.join().unwrap();
//! assert!(!rv.state().open);
//! ```

use simx86::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a spinning participant waits before declaring the protocol
/// wedged (host wall-clock; generous because peers only notice IPIs at
/// service points).
pub const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(5);

/// Epochs are 30 bits wide: the word's top 30 bits.
const EPOCH_MASK: u32 = (1 << 30) - 1;

/// One round, decoded from the rendezvous word.  Every write to the
/// word packs a whole `RvState`, so a round is always built with every
/// field — one left out does not compile:
///
/// ```compile_fail,E0063
/// use mercury::rendezvous::RvState;
/// let _ = RvState { epoch: 1, open: true, go: false, ready: 0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvState {
    /// Round generation (30 bits); bumped by every `begin`.
    pub epoch: u32,
    /// The round is in progress: opened and not yet closed.
    pub open: bool,
    /// The CP's go ("shared flag").
    pub go: bool,
    /// Peers that acknowledged the IPI ("shared count").
    pub ready: u16,
    /// Peers that finished their per-CPU switch step ("completion").
    pub done: u16,
}

impl RvState {
    fn pack(self) -> u64 {
        u64::from(self.ready)
            | u64::from(self.done) << 16
            | u64::from(self.open) << 32
            | u64::from(self.go) << 33
            | u64::from(self.epoch) << 34
    }

    fn unpack(word: u64) -> RvState {
        RvState {
            epoch: (word >> 34) as u32,
            open: word >> 32 & 1 == 1,
            go: word >> 33 & 1 == 1,
            ready: word as u16,
            done: (word >> 16) as u16,
        }
    }

    /// Round `epoch` with nothing counted and no go: the one `begin`
    /// opens, or the one a close leaves.
    fn fresh(epoch: u32, open: bool) -> RvState {
        RvState {
            epoch,
            open,
            go: false,
            ready: 0,
            done: 0,
        }
    }

    /// Is this round `epoch`, still open?
    fn is_open(self, epoch: u32) -> bool {
        self.open && self.epoch == epoch
    }
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

/// The shared coordination block.  `T` is what the CP hands its peers
/// with go.
///
/// The round is private: nothing outside this module reads or writes
/// the word, so no code can touch the round outside the protocol.
///
/// ```compile_fail,E0616
/// let rv = mercury::rendezvous::Rendezvous::<()>::new();
/// let _ = rv.round.load(std::sync::atomic::Ordering::Acquire);
/// ```
#[derive(Debug)]
pub struct Rendezvous<T> {
    /// The round: a packed [`RvState`].
    round: AtomicU64,
    /// The CP's release for the round of the epoch it is tagged with,
    /// written once, before go.
    release: Mutex<Option<(u32, T)>>,
    /// Spin patience before a participant declares the protocol wedged
    /// (configuration, not round state — tests shorten it).
    timeout: Duration,
    /// Happens-before shadow for the dynamic protocol checker.
    #[cfg(feature = "dyncheck")]
    monitor: crate::dyncheck::RvMonitor,
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

impl<T: Copy> Default for Rendezvous<T> {
    fn default() -> Rendezvous<T> {
        Rendezvous::new()
    }
}

impl<T: Copy> Rendezvous<T> {
    /// Fresh block with the default [`RENDEZVOUS_TIMEOUT`].
    pub fn new() -> Rendezvous<T> {
        Rendezvous::with_timeout(RENDEZVOUS_TIMEOUT)
    }

    /// Fresh block with an explicit spin patience (tests abort rounds
    /// quickly with this).
    pub fn with_timeout(timeout: Duration) -> Rendezvous<T> {
        Rendezvous {
            round: AtomicU64::new(0),
            release: Mutex::new(None),
            timeout,
            #[cfg(feature = "dyncheck")]
            monitor: crate::dyncheck::RvMonitor::default(),
        }
    }

    /// The current round, decoded.
    pub fn state(&self) -> RvState {
        RvState::unpack(self.round.load(Ordering::Acquire))
    }

    /// Compare-and-swap the word to the round `next` builds from the
    /// current one, retrying while another CPU's compare-and-swap wins;
    /// the round written, or `None` once `next` refuses the round it is
    /// given.
    fn update(&self, next: impl Fn(RvState) -> Option<RvState>) -> Option<RvState> {
        // volint::bound(64) — CAS retry loop; each retry means another peer won, so trips ≤ peer count
        loop {
            let cur = self.state();
            let n = next(cur)?;
            if self
                .round
                .compare_exchange(cur.pack(), n.pack(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(n);
            }
        }
    }

    /// CP side: open a round and return its epoch — one
    /// compare-and-swap from a closed word.  Fails if one is already
    /// running.
    pub fn begin(&self) -> Result<u32, RendezvousError> {
        let cur = self.state();
        if cur.open {
            return Err(RendezvousError::Busy);
        }
        let next = RvState::fresh((cur.epoch + 1) & EPOCH_MASK, true);
        self.round
            .compare_exchange(cur.pack(), next.pack(), Ordering::AcqRel, Ordering::Acquire)
            .map_err(|_| RendezvousError::Busy)?;
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_begin();
        Ok(next.epoch)
    }

    /// CP side: wait until `peers` CPUs have checked in.  The CP then
    /// performs the global state transfer while every peer is parked,
    /// and releases them with [`Rendezvous::signal_go`].
    pub fn wait_ready(&self, peers: usize) -> Result<(), RendezvousError> {
        self.wait_count(peers, |s| s.ready)?;
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_wait_ready_ok(peers);
        Ok(())
    }

    /// CP side: hand the parked peers `release` and raise go.
    pub fn signal_go(&self, release: T) {
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_signal_go();
        let epoch = self.state().epoch;
        *self.release.lock() = Some((epoch, release));
        self.update(|s| s.is_open(epoch).then_some(RvState { go: true, ..s }));
    }

    /// CP side: wait for all peers to complete their per-CPU step, then
    /// close the round.
    pub fn wait_done(&self, peers: usize) -> Result<(), RendezvousError> {
        self.wait_count(peers, |s| s.done)?;
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_wait_done_ok(peers);
        self.close_round();
        Ok(())
    }

    /// CP side: spin until `count` of the round reaches `peers`; past
    /// the patience window the round is aborted.
    fn wait_count(&self, peers: usize, count: fn(RvState) -> u16) -> Result<(), RendezvousError> {
        if spin_until(self.timeout, || usize::from(count(self.state())) >= peers) {
            return Ok(());
        }
        self.close_round();
        Err(RendezvousError::Timeout)
    }

    /// CP side: close the round, completed or aborted.  A parked or late
    /// peer of it sees the closed word and gives up as stale.
    fn close_round(&self) {
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_close();
        let closed = RvState::fresh(self.state().epoch, false).pack();
        self.round.store(closed, Ordering::Release);
    }

    /// Peer side, epoch-pinned: check in to round `epoch` (read from
    /// [`Rendezvous::state`] when the IPI is serviced), spin until go
    /// and return the CP's release.
    ///
    /// The check-in is a compare-and-swap that counts only into the open
    /// round `epoch` before its go: a check-in for an aborted or
    /// superseded round returns [`RendezvousError::Stale`] and the count
    /// is untouched.
    pub fn check_in_and_wait(&self, epoch: u32) -> Result<T, RendezvousError> {
        self.update(|s| {
            (s.is_open(epoch) && !s.go).then_some(RvState {
                ready: s.ready + 1,
                ..s
            })
        })
        .ok_or(RendezvousError::Stale)?;
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_check_in();
        // Stop on go, or once the CP closed the round (its own timeout)
        // while we were parked.
        spin_until(self.timeout, || {
            let s = self.state();
            s.go || !s.is_open(epoch)
        });
        // Go was given iff the release carries this epoch: the CP writes
        // it just before go, so a round closed after its go still
        // releases a peer that missed the go bit.
        let Some((_, release)) = (*self.release.lock()).filter(|&(tag, _)| tag == epoch) else {
            return Err(RendezvousError::Timeout);
        };
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_observed_go();
        Ok(release)
    }

    /// Peer side, epoch-pinned: report completion for round `epoch`.
    /// Returns whether the completion was counted — one for a round
    /// that is no longer open is dropped, mirroring the check-in guard.
    pub fn complete_for(&self, epoch: u32) -> bool {
        let counted = self
            .update(|s| {
                s.is_open(epoch).then_some(RvState {
                    done: s.done + 1,
                    ..s
                })
            })
            .is_some();
        #[cfg(feature = "dyncheck")]
        if counted {
            // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
            self.monitor.on_complete();
        }
        counted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A peer of round `epoch`: check in, park until go, report done.
    fn peer(r: &Arc<Rendezvous<u32>>, epoch: u32) -> std::thread::JoinHandle<()> {
        let r = Arc::clone(r);
        std::thread::spawn(move || {
            assert_eq!(r.check_in_and_wait(epoch), Ok(epoch));
            assert!(r.complete_for(epoch));
        })
    }

    /// The CP side of a round with nothing to transfer: the peers are
    /// released with the epoch.
    fn release(r: &Rendezvous<u32>, peers: usize) {
        r.wait_ready(peers).unwrap();
        r.signal_go(r.state().epoch);
        r.wait_done(peers).unwrap();
    }

    #[test]
    fn two_party_protocol_runs_to_completion() {
        let r = Arc::new(Rendezvous::new());
        let epoch = r.begin().unwrap();
        let peer = peer(&r, epoch);
        release(&r, 1);
        peer.join().unwrap();
        assert!(!r.state().open);
    }

    #[test]
    fn double_begin_is_busy() {
        let r = Rendezvous::<()>::new();
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
        assert!(!r.state().open);
    }

    #[test]
    fn zero_peers_trivially_completes() {
        let r = Rendezvous::new();
        r.begin().unwrap();
        release(&r, 0);
        assert!(!r.state().open);
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
        // incremented the ready count *before* checking the round was
        // open, so a late IPI from an aborted round polluted the next
        // round's count and the CP could start the state transfer while
        // a real peer CPU was still executing.
        let r = Arc::new(Rendezvous::with_timeout(Duration::from_millis(50)));

        // Round 1: no peer ever services the IPI; the CP times out.
        let epoch1 = r.begin().unwrap();
        assert_eq!(r.wait_ready(1).unwrap_err(), RendezvousError::Timeout);
        assert!(!r.state().open);

        // The aborted round's IPI is finally serviced, *between*
        // rounds: rejected without counting.
        assert_eq!(
            r.check_in_and_wait(epoch1).unwrap_err(),
            RendezvousError::Stale
        );
        let checked_in = || r.state().ready;
        assert_eq!(checked_in(), 0, "ghost check-in polluted the count");

        // Round 2 opens with one real (but slow) peer expected.  The
        // ghost from round 1 arrives *while round 2 is open* — the
        // pre-fix code counted it here (a round is open again) and
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
        r.signal_go(epoch3);
    }

    #[test]
    fn closing_a_round_turns_its_parked_peer_and_late_completion_away() {
        let r = Arc::new(Rendezvous::<()>::with_timeout(Duration::from_millis(50)));
        let epoch = r.begin().unwrap();
        let parked = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || r.check_in_and_wait(epoch))
        };
        r.wait_ready(1).unwrap();
        // The CP aborts without go: the peer leaves its spin unreleased.
        assert_eq!(r.wait_done(1).unwrap_err(), RendezvousError::Timeout);
        assert_eq!(parked.join().unwrap(), Err(RendezvousError::Timeout));
        assert!(!r.complete_for(epoch));
        assert_eq!(r.state(), RvState::fresh(epoch, false));
    }

    #[test]
    fn a_check_in_after_go_is_stale() {
        let r = Rendezvous::new();
        let epoch = r.begin().unwrap();
        r.wait_ready(0).unwrap();
        r.signal_go(epoch);
        assert_eq!(r.check_in_and_wait(epoch), Err(RendezvousError::Stale));
        assert_eq!(r.state().ready, 0);
    }

    #[test]
    fn the_word_round_trips_every_field() {
        let s = RvState {
            epoch: EPOCH_MASK,
            open: true,
            go: false,
            ready: 3,
            done: u16::MAX,
        };
        assert_eq!(RvState::unpack(s.pack()), s);
        // The epoch wraps within its 30 bits.
        let r = Rendezvous::<()>::new();
        r.round
            .store(RvState { open: false, ..s }.pack(), Ordering::Release);
        assert_eq!(r.begin(), Ok(0));
    }
}
