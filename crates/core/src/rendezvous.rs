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
//! round, completed or aborted, is one store.  Each write is one named
//! transition of `RvState`, and this module's tests enumerate every
//! interleaving of them at small scope (DESIGN.md §10).  The peer CPUs
//! run on real host threads, so the protocol is also exercised under
//! genuine concurrency.
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
//! A spinning CPU is charged no cycle: its simulated clock stands still
//! while its host thread spins, and is not idled forward through
//! `simx86::evclock` either.  Only the CP's waits have a deadline, and
//! it is host time: `spin_until` gives up after [`RENDEZVOUS_TIMEOUT`]
//! (the deadline behind the watchdog's sticky-degradation decision) and
//! the CP closes the round, so a wedged peer costs host time, not
//! simulated time.  A parked peer has no deadline of its own: every CP
//! path after [`Rendezvous::begin`] ends in a go or a close, and the
//! peer's spin ends on either, so it never gives up on a go that still
//! lands.
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

/// How long the CP spins for its peers before declaring the protocol
/// wedged and closing the round (host wall-clock; generous because
/// peers only notice IPIs at service points).
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

    // The word's transitions.  Each is the whole of one write to the
    // word — `Rendezvous` applies them and the explorer in this module's
    // tests enumerates them — and a refused one is `None`.

    /// Open the next round, from a closed word only.
    fn begin(self) -> Option<RvState> {
        (!self.open).then(|| RvState::fresh((self.epoch + 1) & EPOCH_MASK, true))
    }

    /// Count one check-in into the open round `epoch`, before its go.
    fn check_in(self, epoch: u32) -> Option<RvState> {
        (self.is_open(epoch) && !self.go).then_some(RvState {
            ready: self.ready + 1,
            ..self
        })
    }

    /// Raise the go of the open round `epoch`.
    fn go(self, epoch: u32) -> Option<RvState> {
        self.is_open(epoch).then_some(RvState { go: true, ..self })
    }

    /// Count one completion into the open round `epoch`.
    fn complete(self, epoch: u32) -> Option<RvState> {
        self.is_open(epoch).then_some(RvState {
            done: self.done + 1,
            ..self
        })
    }

    /// Close the round, completed or aborted: only its epoch survives.
    fn close(self) -> RvState {
        RvState::fresh(self.epoch, false)
    }
}

/// A parked peer's decision once its spin ends: it is released, with
/// what the CP released, iff the release carries its epoch.  The CP
/// writes the release just before go, so a round closed after its go
/// still releases a peer that missed the go bit.
fn released<T>(release: Option<(u32, T)>, epoch: u32) -> Option<T> {
    release.filter(|r| r.0 == epoch).map(|r| r.1)
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
    /// The CP's spin patience before it declares the protocol wedged
    /// and closes the round (configuration, not round state — tests
    /// shorten it).  A parked peer waits for the go or the close.
    timeout: Duration,
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
        let next = cur.begin().ok_or(RendezvousError::Busy)?;
        self.round
            .compare_exchange(cur.pack(), next.pack(), Ordering::AcqRel, Ordering::Acquire)
            .map_err(|_| RendezvousError::Busy)?;
        Ok(next.epoch)
    }

    /// CP side: wait until `peers` CPUs have checked in.  The CP then
    /// performs the global state transfer while every peer is parked,
    /// and releases them with [`Rendezvous::signal_go`].
    pub fn wait_ready(&self, peers: usize) -> Result<(), RendezvousError> {
        self.wait_count(peers, |s| s.ready)
    }

    /// CP side: hand the parked peers `release` and raise go.
    pub fn signal_go(&self, release: T) {
        let epoch = self.state().epoch;
        *self.release.lock() = Some((epoch, release));
        self.update(|s| s.go(epoch));
    }

    /// CP side: wait for all peers to complete their per-CPU step, then
    /// close the round.
    pub fn wait_done(&self, peers: usize) -> Result<(), RendezvousError> {
        self.wait_count(peers, |s| s.done)?;
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
        let closed = self.state().close().pack();
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
        self.update(|s| s.check_in(epoch))
            .ok_or(RendezvousError::Stale)?;
        // Park until go, or until the CP closed the round while we were
        // parked.  No deadline of our own: every CP path after `begin`
        // ends in `signal_go` or a close, so a peer that gave up first
        // could miss a go that still lands and run the old mode through
        // the transfer.
        // volint::bound(4096) — ends on the CP's go or close, which its own deadline-bounded waits (`wait_count`) guarantee; healthy-path budget: the CP's transfer
        loop {
            let s = self.state();
            if s.go || !s.is_open(epoch) {
                break;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        released(*self.release.lock(), epoch).ok_or(RendezvousError::Timeout)
    }

    /// Peer side, epoch-pinned: report completion for round `epoch`.
    /// Returns whether the completion was counted — one for a round
    /// that is no longer open is dropped, mirroring the check-in guard.
    pub fn complete_for(&self, epoch: u32) -> bool {
        self.update(|s| s.complete(epoch)).is_some()
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

    /// A parked peer waits for its CP, not for a deadline of its own: a
    /// go that lands after the CP's patience window has passed since the
    /// check-in still releases it.
    #[test]
    fn a_go_after_the_patience_window_still_releases_the_parked_peer() {
        let r = Arc::new(Rendezvous::with_timeout(Duration::from_millis(50)));
        let epoch = r.begin().unwrap();
        let parked = peer(&r, epoch);
        r.wait_ready(1).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        r.signal_go(epoch);
        r.wait_done(1).unwrap();
        parked.join().unwrap();
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

    // ---- the round word, explored exhaustively --------------------------
    //
    // Every write to the word is one `RvState` transition applied
    // atomically (`update`'s compare-and-swap retries until one applies,
    // and `close_round`'s store only keeps the epoch, which only the CP
    // changes), so an interleaving of the protocol is an interleaving of
    // those transitions, of the reads between them and of the release
    // cell's one write and reads.  The explorer enumerates every one for
    // a CP running a fixed number of rounds and `n` peers, and checks
    // §5.4's invariants on each step.  Either of the CP's waits may time
    // out at any step.  A parked peer's spin ends only on go or on a
    // closed round, as `check_in_and_wait`'s does: it has no deadline of
    // its own, since a peer that gave up while its round went on to go
    // would run the old mode through the transfer (DESIGN.md §10).

    /// The release cell: the epoch tag and what the CP released, which
    /// here is its epoch too.
    type Release = Option<(u32, u32)>;

    /// The peer's transitions the explorer applies: `Rendezvous`'s own,
    /// or a broken set it must catch.  The CP's (`begin`, `go`, `close`)
    /// are always the real ones.
    #[derive(Clone, Copy)]
    struct Protocol {
        check_in: fn(RvState, u32) -> Option<RvState>,
        complete: fn(RvState, u32) -> Option<RvState>,
        /// The peer's decision once its spin ends, from the release
        /// cell and the word it reads then.
        released: fn(Release, RvState, u32) -> Option<u32>,
    }

    const PROTOCOL: Protocol = Protocol {
        check_in: RvState::check_in,
        complete: RvState::complete,
        released: |release, _, epoch| released(release, epoch),
    };

    /// The CP's next step within a round: `Rendezvous::begin`, the IPI
    /// broadcast, `wait_ready`, `signal_go`'s release write and its go,
    /// `wait_done`, and `close_round` after either wait.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Cp {
        Begin,
        Broadcast,
        WaitReady,
        Release,
        Go,
        WaitDone,
        Close,
        Finished,
    }

    /// A peer's next step: service the IPI (reading the epoch), check in,
    /// leave its spin, read the release, complete.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Pc {
        Idle,
        CheckIn,
        Parked,
        Decide,
        Complete,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Peer {
        /// The rendezvous IPI is pending (IPIs of one vector coalesce).
        ipi: bool,
        pc: Pc,
        /// The epoch read when the IPI was serviced.
        epoch: u32,
        /// Completions counted since the CP's last `begin`.
        completions: u8,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        word: u64,
        release: Release,
        /// Bit `e` once round `e`'s `signal_go` wrote its release.
        signalled: u32,
        cp: Cp,
        /// Rounds the CP has begun.
        rounds: u8,
        peers: Vec<Peer>,
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Cp(Cp),
        /// The CP's spin times out (a choice at any step of either wait).
        Timeout,
        Peer(usize, Pc),
    }

    /// What a step leads to: the next world, or the invariant it broke.
    type Next = Result<World, &'static str>;

    /// Every step enabled in `w` for a CP that runs `rounds` rounds.
    fn steps(p: Protocol, rounds: u8, w: &World) -> Vec<(Step, Next)> {
        let s = RvState::unpack(w.word);
        let n = w.peers.len();
        let with = |f: &dyn Fn(&mut World)| {
            let mut next = w.clone();
            f(&mut next);
            next
        };
        let mut out = Vec::new();
        if matches!(w.cp, Cp::WaitReady | Cp::WaitDone) {
            out.push((Step::Timeout, Ok(with(&|x| x.cp = Cp::Close))));
        }
        let cp = match w.cp {
            Cp::Begin => Some(s.begin().ok_or("begin found the round open").map(|b| {
                with(&|x| {
                    x.word = b.pack();
                    x.cp = Cp::Broadcast;
                    x.rounds += 1;
                    x.peers.iter_mut().for_each(|q| q.completions = 0);
                })
            })),
            Cp::Broadcast => Some(Ok(with(&|x| {
                x.cp = Cp::WaitReady;
                x.peers.iter_mut().for_each(|q| q.ipi = true);
            }))),
            Cp::WaitReady => (usize::from(s.ready) >= n).then(|| {
                let parked = |q: &&Peer| q.pc == Pc::Parked && q.epoch == s.epoch;
                (w.peers.iter().filter(parked).count() == n)
                    .then(|| with(&|x| x.cp = Cp::Release))
                    .ok_or("wait_ready returned with a peer of its round not parked")
            }),
            Cp::Release => Some(Ok(with(&|x| {
                x.release = Some((s.epoch, s.epoch));
                x.signalled |= 1 << s.epoch;
                x.cp = Cp::Go;
            }))),
            Cp::Go => Some(Ok(with(&|x| {
                x.word = s.go(s.epoch).unwrap_or(s).pack();
                x.cp = Cp::WaitDone;
            }))),
            Cp::WaitDone => (usize::from(s.done) >= n).then(|| {
                w.peers
                    .iter()
                    .all(|q| q.completions == 1)
                    .then(|| with(&|x| x.cp = Cp::Close))
                    .ok_or("wait_done returned before every peer completed once")
            }),
            Cp::Close => Some(Ok(with(&|x| {
                x.word = s.close().pack();
                x.cp = if x.rounds < rounds {
                    Cp::Begin
                } else {
                    Cp::Finished
                };
            }))),
            Cp::Finished => None,
        };
        out.extend(cp.map(|next| (Step::Cp(w.cp), next)));
        for (i, q) in w.peers.iter().enumerate() {
            let e = q.epoch;
            let step = |f: &dyn Fn(&mut Peer)| with(&|x| f(&mut x.peers[i]));
            let next = match q.pc {
                Pc::Idle if q.ipi => Ok(step(&|x| {
                    x.ipi = false;
                    x.epoch = s.epoch;
                    x.pc = Pc::CheckIn;
                })),
                Pc::Idle => continue,
                Pc::CheckIn => Ok(match (p.check_in)(s, e) {
                    Some(c) => with(&|x| {
                        x.word = c.pack();
                        x.peers[i].pc = Pc::Parked;
                    }),
                    None => step(&|x| x.pc = Pc::Idle),
                }),
                Pc::Parked if s.go || !s.is_open(e) => Ok(step(&|x| x.pc = Pc::Decide)),
                Pc::Parked => continue,
                Pc::Decide => {
                    let go = w.signalled & 1 << e != 0;
                    match (p.released)(w.release, s, e) {
                        Some(r) if r != e || !go => {
                            Err("a peer was released for another round or before its go")
                        }
                        Some(_) => Ok(step(&|x| x.pc = Pc::Complete)),
                        None if go => Err(
                            "a peer checked into a round whose go was signalled left unreleased",
                        ),
                        None => Ok(step(&|x| x.pc = Pc::Idle)),
                    }
                }
                Pc::Complete => Ok(match (p.complete)(s, e) {
                    Some(c) => with(&|x| {
                        x.word = c.pack();
                        x.peers[i].pc = Pc::Idle;
                        x.peers[i].completions += 1;
                    }),
                    None => step(&|x| x.pc = Pc::Idle),
                }),
            };
            out.push((Step::Peer(i, q.pc), next));
        }
        out
    }

    /// A run ends only with the CP finished and the word as a close
    /// leaves it.
    fn ended(w: &World) -> Result<(), &'static str> {
        let s = RvState::unpack(w.word);
        if w.cp != Cp::Finished || s != s.close() {
            return Err("a run ended with the word not closed");
        }
        Ok(())
    }

    /// The step from `before` as one trace line, with the word after it.
    fn show(step: Step, before: &World, after: Option<&World>) -> String {
        let what = match step {
            Step::Cp(pc) => format!(
                "CP      {}",
                match pc {
                    Cp::Begin => "begin",
                    Cp::Broadcast => "broadcast the IPI",
                    Cp::WaitReady => "wait_ready returns",
                    Cp::Release => "signal_go: write the release",
                    Cp::Go => "signal_go: raise go",
                    Cp::WaitDone => "wait_done returns",
                    Cp::Close => "close the round",
                    Cp::Finished => "finished",
                }
            ),
            Step::Timeout => match before.cp {
                Cp::WaitReady => "CP      wait_ready times out".into(),
                _ => "CP      wait_done times out".into(),
            },
            Step::Peer(i, pc) => {
                let e = before.peers[i].epoch;
                let what = match pc {
                    Pc::Idle => "services the IPI, reads the epoch".into(),
                    Pc::CheckIn => format!("check_in({e})"),
                    Pc::Parked => format!("leaves its spin ({e})"),
                    Pc::Decide => format!("reads the release ({e})"),
                    Pc::Complete => format!("complete({e})"),
                };
                format!("peer {i}  {what}")
            }
        };
        match after {
            Some(a) => format!(
                "{what:<42} {:?}, release {:?}",
                RvState::unpack(a.word),
                a.release
            ),
            None => what,
        }
    }

    /// A counterexample: `why`, then the shortest path to `at` and the
    /// step from it, `last`, that broke the invariant.
    fn trace(
        worlds: &[(World, Option<(usize, Step)>)],
        mut at: usize,
        last: String,
        why: &str,
    ) -> String {
        let mut lines = vec![last];
        while let Some((from, step)) = worlds[at].1 {
            lines.push(show(step, &worlds[from].0, Some(&worlds[at].0)));
            at = from;
        }
        lines.reverse();
        let lines: Vec<String> = lines
            .iter()
            .enumerate()
            .map(|(k, l)| format!("{:>3}. {l}", k + 1))
            .collect();
        format!("{why}:\n{}", lines.join("\n"))
    }

    /// Explore every interleaving of a CP running `rounds` rounds with
    /// `peers` peers, breadth first.  `Ok((states, interleavings))`, or
    /// the first broken invariant with its shortest trace.
    fn explore(p: Protocol, rounds: u8, peers: usize) -> Result<(usize, u128), String> {
        let start = World {
            word: RvState::fresh(0, false).pack(),
            release: None,
            signalled: 0,
            cp: Cp::Begin,
            rounds: 0,
            peers: vec![
                Peer {
                    ipi: false,
                    pc: Pc::Idle,
                    epoch: 0,
                    completions: 0
                };
                peers
            ],
        };
        // Each world with the step that first reached it, and its successors.
        let mut worlds = vec![(start.clone(), None::<(usize, Step)>)];
        let mut succ: Vec<Vec<usize>> = Vec::new();
        let mut seen = std::collections::HashMap::from([(start, 0)]);
        let mut at = 0;
        while at < worlds.len() {
            let w = worlds[at].0.clone();
            let next = steps(p, rounds, &w);
            if next.is_empty() {
                ended(&w).map_err(|why| trace(&worlds, at, "(end)".into(), why))?;
            }
            let mut out = Vec::new();
            for (step, n) in next {
                let n = n.map_err(|why| trace(&worlds, at, show(step, &w, None), why))?;
                let k = *seen.entry(n.clone()).or_insert_with(|| {
                    worlds.push((n, Some((at, step))));
                    worlds.len() - 1
                });
                out.push(k);
            }
            succ.push(out);
            at += 1;
        }
        // The world graph is acyclic (every step advances the CP or
        // consumes an IPI or moves a peer on within one), so the
        // interleavings are its paths, counted from the sinks back.
        let mut paths: Vec<Option<u128>> = vec![None; worlds.len()];
        fn count(k: usize, succ: &[Vec<usize>], paths: &mut [Option<u128>]) -> u128 {
            if let Some(c) = paths[k] {
                return c;
            }
            let c = match succ[k].as_slice() {
                [] => 1,
                next => next.iter().map(|&j| count(j, succ, paths)).sum(),
            };
            paths[k] = Some(c);
            c
        }
        Ok((worlds.len(), count(0, &succ, &mut paths)))
    }

    #[test]
    fn the_protocol_holds_on_every_interleaving() {
        // CP + 2 peers over two rounds, either of which may abort at
        // either wait (so a ghost of the first can reach the second);
        // CP + 3 peers over one.
        for (rounds, peers) in [(2, 2), (1, 3)] {
            match explore(PROTOCOL, rounds, peers) {
                Ok((states, runs)) => println!(
                    "rendezvous: {rounds} round(s), {peers} peers: {states} states, {runs} interleavings"
                ),
                Err(trace) => panic!("{rounds} round(s), {peers} peers: {trace}"),
            }
        }
    }

    #[test]
    fn the_explorer_catches_each_broken_protocol() {
        let broken: [(&str, Protocol); 4] = [
            (
                "a check-in that ignores the epoch",
                Protocol {
                    check_in: |s, _| {
                        (s.open && !s.go).then_some(RvState {
                            ready: s.ready + 1,
                            ..s
                        })
                    },
                    ..PROTOCOL
                },
            ),
            (
                "a check-in accepted after go",
                Protocol {
                    check_in: |s, e| {
                        s.is_open(e).then_some(RvState {
                            ready: s.ready + 1,
                            ..s
                        })
                    },
                    ..PROTOCOL
                },
            ),
            (
                "a completion counted into a closed round",
                Protocol {
                    complete: |s, e| {
                        (s.epoch == e).then_some(RvState {
                            done: s.done + 1,
                            ..s
                        })
                    },
                    ..PROTOCOL
                },
            ),
            (
                "a peer released on the go bit without the epoch tag",
                Protocol {
                    released: |release, s, _| s.go.then_some(release?.1),
                    ..PROTOCOL
                },
            ),
        ];
        for (bug, p) in broken {
            let trace = explore(p, 2, 2).expect_err(bug);
            println!("{bug} — {trace}\n");
        }
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
