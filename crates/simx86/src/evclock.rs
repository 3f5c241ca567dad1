//! The event clock: the second level of simulated time.
//!
//! Simulated time in this workspace has always had one level: per-CPU
//! cycle counters ([`Cpu::cycles`]) advanced by [`Cpu::tick`] at every
//! priced operation.  That remains the **source of truth** — nothing in
//! this module reads time from anywhere else.  What the event clock
//! adds is a global, deterministic queue of *future deadlines* (request
//! arrivals, timer firings, IRQ deadlines, watchdog retry backoffs,
//! scrubber budgets, fault due-cycles) so that a CPU with nothing to do
//! until cycle `T` can **fast-forward**: charge the whole idle span in
//! one `tick` instead of walking it quantum by quantum.
//!
//! # Accounting neutrality
//!
//! [`Cpu::tick`] is a pure atomic addition, so one tick of `N` cycles
//! and `N / Q` ticks of `Q` cycles leave the counter in exactly the
//! same state.  [`EvClock::advance`] exploits that: with skip enabled
//! (the default) it charges an idle span in a single tick; with skip
//! disabled it charges the *identical total* in [`SKIP_QUANTUM`]-sized
//! steps, emulating a poll-loop walking the span.  Every simulated
//! quantity downstream — request latencies, switch cycles, detection
//! latencies — is therefore bit-identical in both modes; only the
//! *host* work differs.  The serving and fault campaign binaries prove
//! this on every run: pass 1 runs skip-on, pass 2 skip-off, and the
//! two passes must produce byte-identical records before anything is
//! archived (the determinism gate, DESIGN.md §14.3).
//!
//! # Who may skip, and who may not
//!
//! Only *idle* spans skip: a servo worker waiting for its next open-loop
//! arrival, a watchdog backing off between attach attempts, an idle
//! kernel CPU with an empty run queue and a drained scrubber backlog.
//! Switch-critical code (the mode-switch phases, the SMP rendezvous)
//! never skips — it is where cycles are *earned*, not idled away.  That
//! is enforced structurally, not by convention: scheduling and
//! fast-forwarding allocate (heap insertion) and take locks, so any
//! call introduced on a `// volint::root(SWITCH)` path would be flagged
//! by volint's `SWITCH-ALLOC` rule (DESIGN.md §10).
//!
//! # Determinism
//!
//! Events are ordered by `(due_cycle, sequence)` where the sequence
//! number is assigned at [`schedule`](EvClock::schedule) time.  Two
//! events due at the same cycle — even when registered for different
//! CPUs — always pop in schedule order, regardless of skip mode; a
//! property test pins this down.  No host time, no thread identity and
//! no hash-map iteration order enters the queue.
//!
//! ```
//! use simx86::evclock::{EvClock, EventKind};
//! use simx86::Cpu;
//! use std::sync::Arc;
//!
//! let clock = EvClock::new();
//! let cpu = Arc::new(Cpu::new(0));
//!
//! // Register a deadline, then fast-forward the idle span to it.
//! let ev = clock.schedule(5_000, EventKind::RequestArrival);
//! assert_eq!(clock.next_due(), Some(5_000));
//! clock.advance(&cpu, 5_000);
//! assert_eq!(cpu.cycles(), 5_000);
//!
//! // The due event pops exactly once, in schedule order.
//! let fired = clock.take_due(cpu.cycles());
//! assert_eq!(fired.len(), 1);
//! assert_eq!(fired[0].id, ev);
//! assert_eq!(clock.next_due(), None);
//! ```

use crate::cpu::Cpu;
use crate::sync::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Step size used when skip is *disabled*: idle spans are charged in
/// quanta of this many cycles, emulating the poll loop an event-less
/// simulator would run.  Matches the kernel idle loop's donation
/// quantum so the two walk idle time at the same grain.
pub const SKIP_QUANTUM: u64 = 10_000;

/// Process-wide default for whether new [`EvClock`]s fast-forward.
/// `true` (skip on) is the production default; the campaign binaries
/// flip it to `false` for their second determinism pass.
static DEFAULT_SKIP: AtomicBool = AtomicBool::new(true);

/// Set the process-wide default skip mode inherited by every
/// subsequently built [`EvClock`] (and thus every [`crate::Machine`]).
/// Existing clocks are unaffected; use [`EvClock::set_skip`] for those.
pub fn set_default_skip(on: bool) {
    DEFAULT_SKIP.store(on, Ordering::Release);
}

/// The process-wide default skip mode.
pub fn default_skip() -> bool {
    DEFAULT_SKIP.load(Ordering::Acquire)
}

/// Opaque handle for one scheduled event, returned by
/// [`EvClock::schedule`] and accepted by [`EvClock::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

/// What kind of deadline an event marks.  Purely descriptive — the
/// clock treats all kinds identically; consumers use it to decide how
/// to service a popped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// An open-loop request arrival (servo load generator).
    RequestArrival,
    /// A programmed timer deadline ([`crate::devices::SimTimer`]).
    TimerDeadline,
    /// A device IRQ expected by some deadline.
    IrqDeadline,
    /// A watchdog attach-retry backoff expiring.
    WatchdogRetry,
    /// A scrubber idle-donation budget boundary.
    ScrubBudget,
    /// A planted fault's due-cycle (faultgen arm deadlines).
    FaultDue,
    /// A live-migration pre-copy round deadline: while a migration is
    /// in flight, its next round is a scheduled event so the time skip
    /// cannot fast-forward past it (the round must run, scan dirty
    /// bits, and re-arm before idle spans may collapse).
    MigrationRound,
    /// Anything else.
    Other,
}

/// One scheduled (or popped) event.
///
/// Ordering is `(due, seq)` — `seq` is the schedule-time sequence
/// number, so same-cycle events compare in schedule order.  The derive
/// relies on field order; keep `due` and `seq` first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Absolute simulated cycle the event is due at.
    pub due: u64,
    /// Schedule-order sequence number (the same-cycle tiebreak).
    pub seq: u64,
    /// The handle [`EvClock::schedule`] returned for it.
    pub id: EventId,
    /// CPU the event targets, if it targets one.
    pub cpu: Option<usize>,
    /// Descriptive kind.
    pub kind: EventKind,
}

struct Inner {
    heap: BinaryHeap<Reverse<Event>>,
    cancelled: BTreeSet<u64>,
    next_id: u64,
}

/// The global event queue plus the fast-forward policy.
///
/// One per [`crate::Machine`] (`machine.evclock`); standalone instances
/// are handy in tests.  All methods take `&self` — the queue is
/// internally locked, and the statistics are atomics.
pub struct EvClock {
    inner: Mutex<Inner>,
    skip: AtomicBool,
    spans: AtomicU64,
    cycles_skipped: AtomicU64,
}

impl EvClock {
    /// A fresh, empty clock inheriting the process-wide
    /// [`default_skip`] mode.
    pub fn new() -> Arc<EvClock> {
        Arc::new(EvClock {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                cancelled: BTreeSet::new(),
                next_id: 0,
            }),
            skip: AtomicBool::new(default_skip()),
            spans: AtomicU64::new(0),
            cycles_skipped: AtomicU64::new(0),
        })
    }

    /// Enable or disable fast-forwarding on this clock.  Accounting is
    /// identical either way (see the module docs); disabling only makes
    /// [`advance`](EvClock::advance) walk idle spans in
    /// [`SKIP_QUANTUM`]-sized host steps.
    pub fn set_skip(&self, on: bool) {
        self.skip.store(on, Ordering::Release);
    }

    /// Is fast-forwarding enabled on this clock?
    pub fn skip_enabled(&self) -> bool {
        self.skip.load(Ordering::Acquire)
    }

    /// Schedule an event at absolute cycle `due`, not bound to a CPU.
    pub fn schedule(&self, due: u64, kind: EventKind) -> EventId {
        self.schedule_inner(due, None, kind)
    }

    /// Schedule an event at absolute cycle `due` targeting `cpu_id`.
    ///
    /// The binding is descriptive: any caller may pop the event, but
    /// consumers that resolve deadlines per CPU (the machine's idle
    /// helper, a per-CPU timer) use it to route servicing.
    pub fn schedule_for(&self, cpu_id: usize, due: u64, kind: EventKind) -> EventId {
        self.schedule_inner(due, Some(cpu_id), kind)
    }

    fn schedule_inner(&self, due: u64, cpu: Option<usize>, kind: EventKind) -> EventId {
        let mut inner = self.inner.lock();
        let seq = inner.next_id;
        inner.next_id += 1;
        let id = EventId(seq);
        inner.heap.push(Reverse(Event {
            due,
            seq,
            id,
            cpu,
            kind,
        }));
        id
    }

    /// Cancel a scheduled event.  Returns `true` if it was still
    /// pending (cancellation is lazy: the entry is dropped when it
    /// reaches the head of the queue).
    pub fn cancel(&self, id: EventId) -> bool {
        let mut inner = self.inner.lock();
        if id.0 >= inner.next_id {
            return false;
        }
        inner.cancelled.insert(id.0)
    }

    /// The due cycle of the earliest pending event, if any.
    pub fn next_due(&self) -> Option<u64> {
        let mut inner = self.inner.lock();
        Self::drop_cancelled(&mut inner);
        inner.heap.peek().map(|Reverse(e)| e.due)
    }

    /// Pop the earliest event due at or before `now`, if any.
    pub fn pop_due(&self, now: u64) -> Option<Event> {
        let mut inner = self.inner.lock();
        Self::drop_cancelled(&mut inner);
        match inner.heap.peek() {
            Some(Reverse(e)) if e.due <= now => {
                let Reverse(e) = inner.heap.pop().expect("peeked entry");
                Some(e)
            }
            _ => None,
        }
    }

    /// Pop *every* event due at or before `now`, in `(due, seq)` order.
    pub fn take_due(&self, now: u64) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = self.pop_due(now) {
            out.push(e);
        }
        out
    }

    /// Events still pending (scheduled, not yet popped or cancelled).
    pub fn pending_events(&self) -> usize {
        let mut inner = self.inner.lock();
        Self::drop_cancelled(&mut inner);
        inner.heap.len()
    }

    fn drop_cancelled(inner: &mut Inner) {
        while let Some(Reverse(e)) = inner.heap.peek() {
            if inner.cancelled.remove(&e.seq) {
                inner.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Advance `cpu` to absolute cycle `target`, charging the idle span
    /// to its cycle counter.  Returns the cycles charged (0 when the
    /// CPU is already at or past `target`).
    ///
    /// With skip enabled the whole span is one [`Cpu::tick`]; with skip
    /// disabled the identical total is charged in [`SKIP_QUANTUM`]
    /// steps.  Either way the counter lands on the same value — this is
    /// the accounting-neutrality contract the campaign determinism gate
    /// re-proves on every run.
    ///
    /// `advance` does **not** pop events inside the span; callers that
    /// must service intermediate deadlines use
    /// [`advance_until`](EvClock::advance_until).
    pub fn advance(&self, cpu: &Cpu, target: u64) -> u64 {
        let from = cpu.cycles();
        if target <= from {
            return 0;
        }
        let gap = target - from;
        self.spans.fetch_add(1, Ordering::Relaxed);
        if self.skip.load(Ordering::Acquire) {
            cpu.tick(gap);
            self.cycles_skipped.fetch_add(gap, Ordering::Relaxed);
            merctrace::counter!(cpu.id, "simx86.evclock.skip", gap, cpu.cycles());
        } else {
            // Identical total charge, walked at the poll-loop grain.
            let mut left = gap;
            while left > 0 {
                let step = left.min(SKIP_QUANTUM);
                cpu.tick(step);
                left -= step;
            }
        }
        gap
    }

    /// Advance `cpu` to `target`, stopping at every scheduled event on
    /// the way: the span `(now, target]` is walked deadline to
    /// deadline, `on_event` is called for each popped event with the
    /// CPU already advanced to its due cycle, and the remainder of the
    /// span is then fast-forwarded.  Returns the total cycles charged.
    ///
    /// ```
    /// use simx86::evclock::{EvClock, EventKind};
    /// use simx86::Cpu;
    /// use std::sync::Arc;
    ///
    /// let clock = EvClock::new();
    /// let cpu = Arc::new(Cpu::new(0));
    /// clock.schedule(2_000, EventKind::TimerDeadline);
    /// clock.schedule(7_500, EventKind::FaultDue);
    ///
    /// let mut seen = Vec::new();
    /// clock.advance_until(&cpu, 10_000, |cpu, ev| {
    ///     seen.push((cpu.cycles(), ev.kind));
    /// });
    /// assert_eq!(cpu.cycles(), 10_000);
    /// assert_eq!(seen, vec![
    ///     (2_000, EventKind::TimerDeadline),
    ///     (7_500, EventKind::FaultDue),
    /// ]);
    /// ```
    pub fn advance_until(
        &self,
        cpu: &Cpu,
        target: u64,
        mut on_event: impl FnMut(&Cpu, Event),
    ) -> u64 {
        let mut charged = 0u64;
        loop {
            let now = cpu.cycles();
            if now >= target {
                break;
            }
            match self.next_due() {
                Some(due) if due <= target => {
                    charged += self.advance(cpu, due);
                    while let Some(e) = self.pop_due(cpu.cycles()) {
                        on_event(cpu, e);
                    }
                }
                _ => {
                    charged += self.advance(cpu, target);
                }
            }
        }
        charged
    }

    /// Idle spans advanced so far (in either mode).
    pub fn spans_advanced(&self) -> u64 {
        self.spans.load(Ordering::Relaxed)
    }

    /// Cycles fast-forwarded (skip-on spans only) — the simulated time
    /// this clock saved the host from walking.
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for EvClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvClock")
            .field("skip", &self.skip_enabled())
            .field("pending", &self.pending_events())
            .field("spans", &self.spans_advanced())
            .field("cycles_skipped", &self.cycles_skipped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_charges_identically_in_both_modes() {
        for (skip, quantum_walk) in [(true, false), (false, true)] {
            let clock = EvClock::new();
            clock.set_skip(skip);
            let cpu = Arc::new(Cpu::new(0));
            cpu.tick(123);
            let charged = clock.advance(&cpu, 1_234_567);
            assert_eq!(charged, 1_234_567 - 123);
            assert_eq!(cpu.cycles(), 1_234_567);
            assert_eq!(clock.cycles_skipped() > 0, !quantum_walk);
        }
    }

    #[test]
    fn advance_to_the_past_is_free() {
        let clock = EvClock::new();
        let cpu = Arc::new(Cpu::new(0));
        cpu.tick(500);
        assert_eq!(clock.advance(&cpu, 400), 0);
        assert_eq!(clock.advance(&cpu, 500), 0);
        assert_eq!(cpu.cycles(), 500);
    }

    #[test]
    fn same_cycle_events_pop_in_schedule_order() {
        let clock = EvClock::new();
        let a = clock.schedule_for(1, 1_000, EventKind::RequestArrival);
        let b = clock.schedule_for(0, 1_000, EventKind::TimerDeadline);
        let c = clock.schedule(999, EventKind::FaultDue);
        let fired = clock.take_due(1_000);
        assert_eq!(
            fired.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![c, a, b],
            "earlier due first, then schedule order within a cycle"
        );
    }

    #[test]
    fn cancel_is_lazy_but_effective() {
        let clock = EvClock::new();
        let a = clock.schedule(100, EventKind::Other);
        let b = clock.schedule(200, EventKind::Other);
        assert!(clock.cancel(a));
        assert!(!clock.cancel(a), "double cancel reports not-pending");
        assert_eq!(clock.next_due(), Some(200));
        let fired = clock.take_due(1_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].id, b);
        assert!(!clock.cancel(EventId(99)), "never-scheduled id");
    }

    #[test]
    fn advance_until_services_intermediate_deadlines() {
        let clock = EvClock::new();
        let cpu = Arc::new(Cpu::new(0));
        clock.schedule(300, EventKind::TimerDeadline);
        clock.schedule(300, EventKind::RequestArrival);
        clock.schedule(900, EventKind::WatchdogRetry);
        clock.schedule(5_000, EventKind::Other); // beyond the span
        let mut stops = Vec::new();
        let charged = clock.advance_until(&cpu, 1_000, |cpu, e| {
            stops.push((cpu.cycles(), e.kind));
        });
        assert_eq!(charged, 1_000);
        assert_eq!(cpu.cycles(), 1_000);
        assert_eq!(
            stops,
            vec![
                (300, EventKind::TimerDeadline),
                (300, EventKind::RequestArrival),
                (900, EventKind::WatchdogRetry),
            ]
        );
        assert_eq!(clock.pending_events(), 1, "the far event stays queued");
    }

    #[test]
    fn default_skip_is_inherited_at_construction() {
        assert!(default_skip(), "skip is the production default");
        set_default_skip(false);
        let off = EvClock::new();
        set_default_skip(true);
        let on = EvClock::new();
        assert!(!off.skip_enabled());
        assert!(on.skip_enabled());
    }
}
