//! Regression: with the `merctrace/enabled` feature off (the default,
//! and what tier-1 `cargo test` builds), the probes cost exactly
//! nothing — the macros expand to empty blocks, never evaluate their
//! arguments, and mode-switch cycle counts are bit-identical to an
//! uninstrumented build.

use mercury::SwitchOutcome;
use mercury_workloads::configs::{SysKind, TestBed};

// Gated on the umbrella `trace` feature, not on `merctrace/enabled`
// directly: CI's second test cell builds `cargo test --workspace
// --features trace,faults`, which is precisely the configuration where
// probes being live is *intended*.
#[cfg(not(feature = "trace"))]
#[test]
// The constancy of the asserted expression is the point: the test
// pins which build configurations resolve `ENABLED` to false.
#[allow(clippy::assertions_on_constants)]
fn tracing_is_compiled_out_in_default_builds() {
    // Feature unification must not leak `merctrace/enabled` into a
    // default build, `cargo test --workspace` included: no manifest's
    // dependency entry turns it on, only the umbrella `trace` feature.
    assert!(
        !merctrace::ENABLED,
        "merctrace/enabled leaked into the default feature set"
    );
}

/// The inverse gate for the feature matrix: asking for `trace` must
/// actually light the probes up.
#[cfg(feature = "trace")]
#[test]
#[allow(clippy::assertions_on_constants)]
fn trace_feature_turns_probes_on() {
    assert!(
        merctrace::ENABLED,
        "--features trace did not forward to merctrace/enabled"
    );
}

#[test]
fn disabled_macros_do_not_evaluate_arguments() {
    if merctrace::ENABLED {
        // Someone built the test suite with tracing on; non-evaluation
        // is only promised for the disabled expansion.
        return;
    }
    let evaluated = std::cell::Cell::new(0u32);
    // Underscored: never called when the probes are compiled out.
    let _bump = || -> u64 {
        evaluated.set(evaluated.get() + 1);
        0
    };
    merctrace::span_begin!(_bump(), "overhead.test", _bump());
    merctrace::span_end!(_bump(), "overhead.test", _bump());
    merctrace::counter!(_bump(), "overhead.test", _bump(), _bump());
    merctrace::hist!(_bump(), "overhead.test", _bump(), _bump());
    assert_eq!(
        evaluated.get(),
        0,
        "a disabled probe macro evaluated its arguments"
    );
}

#[test]
fn switch_cycles_identical_with_probe_storm() {
    // Two identical systems; one runs a storm of (compiled-out) probe
    // macros around its switches.  Simulated cycle counts must match
    // exactly — the probes may not perturb the §7.4 numbers.
    fn run(storm: bool) -> (u64, u64) {
        let bed = TestBed::build(SysKind::MN, 1);
        let mercury = bed.mercury.as_ref().unwrap();
        let cpu = bed.machine.boot_cpu();
        if storm {
            for _i in 0..10_000u64 {
                merctrace::counter!(cpu.id, "overhead.storm", _i, cpu.cycles());
                merctrace::hist!(cpu.id, "overhead.storm", _i, cpu.cycles());
            }
        }
        let SwitchOutcome::Completed { cycles: attach } = mercury.switch_to_virtual(cpu).unwrap()
        else {
            panic!("attach did not complete")
        };
        if storm {
            merctrace::span_begin!(cpu.id, "overhead.span", cpu.cycles());
        }
        let SwitchOutcome::Completed { cycles: detach } = mercury.switch_to_native(cpu).unwrap()
        else {
            panic!("detach did not complete")
        };
        if storm {
            merctrace::span_end!(cpu.id, "overhead.span", cpu.cycles());
        }
        (attach, detach)
    }
    let baseline = run(false);
    let stormed = run(true);
    assert_eq!(
        baseline, stormed,
        "disabled probes changed simulated switch cycles"
    );
}
