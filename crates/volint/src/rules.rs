//! The five Mercury invariant rules.
//!
//! * **VO-BYPASS** — privileged `simx86` primitives reached outside a
//!   `PvOps` impl or the allowlisted switch-handler/hardware layers
//!   (paper §4.2/§5.3: every virtualization-sensitive operation routes
//!   through a Virtualization Object).
//! * **REFCOUNT-LEAK** — `VoRefCount::enter` guards that are forgotten,
//!   immediately discarded, parked in long-lived structs, or held
//!   across a call that blocks on a pending switch (paper §5.1.1: the
//!   refcount gate is sound only if every entry pairs with an exit).
//! * **DISPATCH-GAP** — an atomic `Rendezvous` field `begin()` does not
//!   reset (paper §5.4).  That every VO implements every `PvOps` method
//!   is the compiler's to enforce: the trait has no default methods, so
//!   a gap is rustc E0046.
//! * **ATOMIC-ORDER** — `Ordering::Relaxed` on `Rendezvous` /
//!   `VoRefCount` state (paper §5.4: the IPI handshake is only correct
//!   under acquire/release ordering), and on `merctrace` per-CPU
//!   trace-buffer state (snapshot readers must observe fully published
//!   records).
//! * **FAULT-MASK** — a `faultgen` injection hook used inside the
//!   mode-switch critical section (DESIGN.md §12: the switch path must
//!   stay fault-free — injection targets the workload and device
//!   surface, never the attach/detach machinery itself, or a campaign
//!   could wedge the very mechanism meant to answer it).

use crate::in_test_tree;
use crate::walk::{Call, FileFacts, LetBinding};
use crate::{Rule, Sink};
use std::collections::BTreeSet;

/// Names of privileged hardware primitives (VO-BYPASS targets), besides
/// the fns `simx86` marks `#[doc(alias = "volint-privileged")]`.
const PRIVILEGED: &[&str] = &[
    // control registers / address-space roots
    "write_cr3",
    "set_cr3_raw",
    // descriptor tables
    "lidt",
    "set_idt_raw",
    "lgdt",
    "set_gdt_raw",
    // interrupt flag + privilege level
    "cli",
    "sti",
    "set_if_raw",
    "set_pl_raw",
    "set_non_root",
    // TLB maintenance
    "flush_tlb_local",
    "invlpg",
    // page-table mutation
    "write_pte",
    // inter-processor interrupts
    "broadcast_ipi",
];

/// Path prefixes exempt from VO-BYPASS: the hardware model itself, the
/// VMM, and the designated switch-handler module.
const ALLOW_PATHS: &[&str] = &[
    "crates/simx86/",
    "crates/xenon/",
    "crates/core/src/switch.rs",
];

/// The paravirtualization dispatch trait.
const PVOPS_TRAIT: &str = "PvOps";

/// Receiver names that denote routed-through-PvOps dispatch
/// (`ctx.pv.invlpg(..)`).
const DISPATCH_RECEIVERS: &[&str] = &["pv", "inner", "ops"];

/// Calls that block on a pending switch or rendezvous; holding a VO
/// guard across them deadlocks (REFCOUNT-LEAK).
const BLOCKING_CALLS: &[&str] = &[
    "switch_to_virtual",
    "switch_to_native",
    "wait_ready",
    "wait_done",
    "check_in_and_wait_serving",
    "wait_drained",
];

/// The `faultgen` injection-hook entry points (FAULT-MASK targets), in
/// the order a diagnostic lists them.
const FAULT_HOOKS: &[&str] = &[
    "disk_site",
    "gate_site",
    "hypercall_site",
    "irq_site",
    "mem_read_site",
];

/// Functions forming the mode-switch critical section, besides those
/// the transition-table rows name; no fault hooks in them (FAULT-MASK).
pub const SWITCH_CRITICAL: &[&str] = &[
    "handle_transition",
    "run_transition",
    "handle_rendezvous_peer",
    "reload_and_return",
    "open_lazy_window",
    "close_lazy_window",
    "rebuild_accounting",
    "sharded_recompute_phase",
    "shard_exec_one",
    "shard_poll",
];

/// Run every line-level rule over the walked files.
pub fn check(files: &[FileFacts], sink: &mut Sink) {
    // The hardware layer is the source of truth for what is privileged.
    let privileged: BTreeSet<&str> = files
        .iter()
        .filter(|f| f.name.starts_with("crates/simx86/"))
        .flat_map(|f| f.fns.iter().filter(|b| b.privileged))
        .map(|b| b.name.as_str())
        .chain(PRIVILEGED.iter().copied())
        .collect();
    // Every fn a transition-table row names is switch-critical too.
    let critical: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| &f.rows)
        .flat_map(|r| r.fns.iter().map(|(_, name)| name.as_str()))
        .chain(SWITCH_CRITICAL.iter().copied())
        .collect();
    for f in files {
        vo_bypass(f, &privileged, sink);
        refcount_leak(f, sink);
        atomic_order(f, sink);
        fault_mask(f, &critical, sink);
        dispatch_gap(f, sink);
    }
}

/// The product (non-test, non-macro) calls of a file.
fn product_calls(f: &FileFacts) -> impl Iterator<Item = &Call> {
    f.calls.iter().filter(|c| !c.in_test && !c.is_macro)
}

// ---------------------------------------------------------------- VO-BYPASS

fn vo_bypass(f: &FileFacts, privileged: &BTreeSet<&str>, sink: &mut Sink) {
    if in_test_tree(&f.name) || ALLOW_PATHS.iter().any(|p| f.name.starts_with(p)) {
        return;
    }
    for c in product_calls(f) {
        if !privileged.contains(c.name.as_str()) {
            continue;
        }
        // Sanctioned: the body of a PvOps impl *is* the VO.
        let impl_trait = c.fn_idx.and_then(|i| f.fns[i].impl_trait.as_deref());
        if impl_trait == Some(PVOPS_TRAIT) {
            continue;
        }
        // Sanctioned: routed through a PvOps dispatch handle
        // (`ctx.pv.invlpg(..)`, `self.inner.flush_tlb(..)`).
        if c.via_dot
            && c.qualifier
                .as_deref()
                .is_some_and(|q| DISPATCH_RECEIVERS.contains(&q))
        {
            continue;
        }
        sink.push(
            f,
            Rule::VoBypass,
            c.line,
            format!(
                "privileged primitive `{}` called outside a `{PVOPS_TRAIT}` impl; \
                 route it through the active virtualization object",
                c.name
            ),
        );
    }
}

// ------------------------------------------------------------ REFCOUNT-LEAK

fn is_guard(l: &LetBinding) -> bool {
    l.init_has_enter || l.type_has_voguard
}

fn refcount_leak(f: &FileFacts, sink: &mut Sink) {
    if in_test_tree(&f.name) {
        return;
    }
    let basename = f.name.rsplit('/').next().unwrap_or(&f.name);

    // Immediately-discarded guards: `let _ = rc.enter()` bumps and
    // drops the count in one statement — the caller runs unprotected.
    for l in &f.lets {
        if l.in_test || !l.init_has_enter {
            continue;
        }
        if l.name == "_" {
            sink.push(f,
                Rule::RefcountLeak,
                l.line,
                "`let _ = ..enter(..)` drops the VO guard immediately; \
                 the section it was meant to protect runs ungated"
                    .to_string(),
            );
        }
    }

    // Forgotten / leaked guards.
    for c in product_calls(f) {
        let forget_like = matches!(
            (c.name.as_str(), c.qualifier.as_deref()),
            ("forget", _) | ("new", Some("ManuallyDrop")) | ("leak", Some("Box"))
        );
        if !forget_like {
            continue;
        }
        let guard_arg = c.args_have_enter
            || f.lets.iter().any(|l| {
                is_guard(l) && l.fn_idx == c.fn_idx && c.args.contains(&l.name)
            });
        if guard_arg {
            sink.push(f,
                Rule::RefcountLeak,
                c.line,
                format!(
                    "VO guard leaked via `{}`: the refcount never drops \
                     back, so every future switch is deferred forever",
                    c.name
                ),
            );
        }
    }

    // Guards parked in long-lived structs outlive their section and
    // starve `run_transition`'s quiescence gate.
    for fd in &f.fields {
        if fd.in_test || basename == "refcount.rs" {
            continue;
        }
        if fd.type_idents.iter().any(|t| t == "VoGuard") {
            sink.push(f,
                Rule::RefcountLeak,
                fd.line,
                format!(
                    "struct `{}` stores a `VoGuard` in field `{}`; guards \
                     must be scoped to the protected section, not parked \
                     in long-lived state",
                    fd.struct_name, fd.field_name
                ),
            );
        }
    }

    // Re-entry deadlock: a held guard across a call that waits for the
    // refcount (or the rendezvous) wedges the pending switch.
    for l in &f.lets {
        if l.in_test || !is_guard(l) || l.name == "_" {
            continue;
        }
        for c in product_calls(f) {
            if c.fn_idx != l.fn_idx || c.line < l.line {
                continue;
            }
            if BLOCKING_CALLS.contains(&c.name.as_str()) {
                sink.push(f,
                    Rule::RefcountLeak,
                    c.line,
                    format!(
                        "`{}` called while VO guard `{}` (line {}) is \
                         held; a pending switch waits for the refcount \
                         and this call waits for the switch — deadlock",
                        c.name, l.name, l.line
                    ),
                );
                break;
            }
        }
    }
}

// ------------------------------------------------------------- ATOMIC-ORDER

fn atomic_order(f: &FileFacts, sink: &mut Sink) {
    let basename = f.name.rsplit('/').next().unwrap_or(&f.name);
    let protocol = f.defines_struct("Rendezvous")
        || f.defines_struct("VoRefCount")
        || basename == "rendezvous.rs"
        || basename == "refcount.rs";
    // The merctrace per-CPU buffers are read by exporters on another
    // thread: the armed flag and any ring bookkeeping must publish with
    // acquire/release, or a snapshot can observe a half-written record.
    let trace_buffers =
        f.name.contains("merctrace") || f.defines_struct("Tracer");
    if !(protocol || trace_buffers) {
        return;
    }
    let what = if protocol {
        "`Ordering::Relaxed` on rendezvous/refcount state: the IPI \
         handshake requires acquire/release ordering (paper §5.4)"
    } else {
        "`Ordering::Relaxed` on trace-buffer state: snapshot readers \
         need acquire/release to see fully published records"
    };
    for &line in &f.relaxed {
        sink.push(f, Rule::AtomicOrder, line, what.to_string());
    }
}

// --------------------------------------------------------------- FAULT-MASK

fn fault_mask(f: &FileFacts, critical: &BTreeSet<&str>, sink: &mut Sink) {
    if in_test_tree(&f.name) {
        return;
    }
    for func in &f.fns {
        if func.in_test || !critical.contains(func.name.as_str()) {
            continue;
        }
        let used: Vec<&str> = FAULT_HOOKS
            .iter()
            .copied()
            .filter(|h| func.idents.contains(*h))
            .collect();
        if !used.is_empty() {
            sink.push(
                f,
                Rule::FaultMask,
                func.line,
                format!(
                    "switch-critical fn `{}` uses fault-injection hook(s) \
                     {}; the attach/detach path must stay fault-free \
                     (DESIGN.md §12) — a campaign must never wedge the \
                     recovery mechanism itself",
                    func.name,
                    used.join(", ")
                ),
            );
        }
    }
}

// ------------------------------------------------------------- DISPATCH-GAP

/// Every *atomic* `Rendezvous` field is reset by `begin()` — a stale
/// counter or flag from the previous round corrupts the next handshake.
/// Non-atomic fields (the timeout, the dyncheck shadow monitor) are
/// round-invariant configuration, not protocol state.
fn dispatch_gap(f: &FileFacts, sink: &mut Sink) {
    if !f.defines_struct("Rendezvous") {
        return;
    }
    let begin = f
        .fns
        .iter()
        .find(|x| x.name == "begin" && x.impl_type.as_deref() == Some("Rendezvous"));
    let Some(begin) = begin else { return };
    for fd in &f.fields {
        if fd.struct_name == "Rendezvous"
            && !fd.in_test
            && fd.type_idents.iter().any(|t| t.starts_with("Atomic"))
            && !begin.idents.contains(&fd.field_name)
        {
            sink.push(
                f,
                Rule::DispatchGap,
                fd.line,
                format!(
                    "`Rendezvous` field `{}` is not touched by \
                     `begin()`; stale state leaks into the next \
                     rendezvous round",
                    fd.field_name
                ),
            );
        }
    }
}
