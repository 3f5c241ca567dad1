//! Property-based tests for the event clock (DESIGN.md §14): the
//! fast-forward must be invisible to every simulated quantity.  Two
//! clocks fed the identical schedule — one skipping, one quantum
//! ticking — must pop the same events at the same cycles in the same
//! order, and charge their CPUs identically, for *any* schedule.

use faultgen::rng::{check, SplitMix64};
use simx86::evclock::{EvClock, EventKind};
use simx86::Cpu;
use std::sync::Arc;

/// A generated schedule entry: due cycle, target CPU, kind selector.
/// Due cycles are drawn from a small range so same-cycle collisions —
/// the interesting case for ordering — are common, and the CPU index
/// spans a 4-way machine so cross-CPU events collide too.
fn entries(rng: &mut SplitMix64) -> Vec<(u64, usize, u8)> {
    let len = rng.range(1, 64) as usize;
    rng.vec(len, |r| {
        (r.below(2_000), r.below(4) as usize, r.below(6) as u8)
    })
}

fn kind_of(k: u8) -> EventKind {
    match k {
        0 => EventKind::RequestArrival,
        1 => EventKind::TimerDeadline,
        2 => EventKind::IrqDeadline,
        3 => EventKind::WatchdogRetry,
        4 => EventKind::ScrubBudget,
        _ => EventKind::FaultDue,
    }
}

/// One popped event: cycles at pop, seq, target CPU, kind.
type Popped = (u64, u64, Option<usize>, EventKind);

/// Feed `plan` to a fresh clock in the given skip mode and walk a CPU
/// through the whole horizon, recording every popped event.
fn pop_trace(plan: &[(u64, usize, u8)], skip: bool) -> (Vec<Popped>, u64) {
    let clock = EvClock::new();
    clock.set_skip(skip);
    let cpu = Arc::new(Cpu::new(0));
    for &(due, target_cpu, k) in plan {
        clock.schedule_for(target_cpu, due, kind_of(k));
    }
    let mut trace = Vec::new();
    clock.advance_until(&cpu, 2_500, |cpu, e| {
        trace.push((cpu.cycles(), e.seq, e.cpu, e.kind));
    });
    (trace, cpu.cycles())
}

/// Skipping never reorders events — including events due at the
/// same cycle on different CPUs, which must pop in schedule order
/// in both modes (the `(due, seq)` contract).
#[test]
fn skip_mode_never_reorders_events() {
    check("skip_mode_never_reorders_events", 256, |rng| {
        let plan = entries(rng);
        let (on, cycles_on) = pop_trace(&plan, true);
        let (off, cycles_off) = pop_trace(&plan, false);
        assert_eq!(&on, &off, "pop traces must be skip-invariant");
        assert_eq!(cycles_on, cycles_off);
        assert_eq!(on.len(), plan.len(), "every event pops exactly once");
        // Within the one trace: due cycles non-decreasing, and events
        // popped at the same cycle carry ascending sequence numbers —
        // i.e. schedule order, regardless of which CPU they target.
        for pair in on.windows(2) {
            let (c0, s0, ..) = pair[0];
            let (c1, s1, ..) = pair[1];
            assert!(c0 <= c1, "pop cycles must be monotonic");
            if c0 == c1 {
                assert!(s0 < s1, "same-cycle events must keep schedule order");
            }
        }
    });
}

/// `advance` charges bit-identical totals in both modes for any
/// sequence of forward (or backward, which are free) targets.
#[test]
fn accounting_is_neutral_under_random_targets() {
    check("accounting_is_neutral_under_random_targets", 256, |rng| {
        let on = EvClock::new();
        on.set_skip(true);
        let off = EvClock::new();
        off.set_skip(false);
        let cpu_on = Arc::new(Cpu::new(0));
        let cpu_off = Arc::new(Cpu::new(0));
        for _ in 0..rng.range(1, 32) {
            let t = rng.below(100_000);
            let a = on.advance(&cpu_on, t);
            let b = off.advance(&cpu_off, t);
            assert_eq!(a, b, "charged cycles must match per span");
            assert_eq!(cpu_on.cycles(), cpu_off.cycles());
        }
        assert_eq!(on.spans_advanced(), off.spans_advanced());
    });
}
