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
//! * **DISPATCH-GAP** — a `PvOps` method missing from a VO impl, or a
//!   `Rendezvous` field `begin()` does not reset (paper §5.1.2/§5.4).
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
use crate::scan::{FileFacts, LetBinding};
use crate::{Config, Rule, Sink};
use std::collections::BTreeSet;

/// Run every line-level rule over the scanned files.
pub fn check(files: &[FileFacts], cfg: &Config, sink: &mut Sink) {
    for f in files {
        vo_bypass(f, cfg, sink);
        refcount_leak(f, cfg, sink);
        atomic_order(f, sink);
        fault_mask(f, cfg, sink);
    }
    dispatch_gap(files, cfg, sink);
}

// ---------------------------------------------------------------- VO-BYPASS

fn vo_bypass(f: &FileFacts, cfg: &Config, sink: &mut Sink) {
    if in_test_tree(&f.name)
        || cfg
            .allow_paths
            .iter()
            .any(|p| f.name.starts_with(p.as_str()))
    {
        return;
    }
    for c in &f.calls {
        if !cfg.privileged.contains(&c.name) || c.in_test {
            continue;
        }
        // Sanctioned: the body of a PvOps impl *is* the VO.
        if c.impl_trait.as_deref() == Some(cfg.pvops_trait.as_str()) {
            continue;
        }
        // Sanctioned: routed through a PvOps dispatch handle
        // (`ctx.pv.invlpg(..)`, `self.inner.flush_tlb(..)`).
        if c.via_dot
            && c.qualifier
                .as_deref()
                .is_some_and(|q| cfg.dispatch_receivers.contains(q))
        {
            continue;
        }
        sink.push(f,
            Rule::VoBypass,
            c.line,
            format!(
                "privileged primitive `{}` called outside a `{}` impl; \
                 route it through the active virtualization object",
                c.name, cfg.pvops_trait
            ),
        );
    }
}

// ------------------------------------------------------------ REFCOUNT-LEAK

fn is_guard(l: &LetBinding) -> bool {
    l.init_has_enter || l.type_has_voguard
}

fn refcount_leak(f: &FileFacts, cfg: &Config, sink: &mut Sink) {
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
    for c in &f.calls {
        if c.in_test {
            continue;
        }
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
        for c in &f.calls {
            if c.in_test || c.fn_idx != l.fn_idx || c.line < l.line {
                continue;
            }
            if cfg.blocking_calls.contains(&c.name) {
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
    for (line, _) in &f.relaxed {
        sink.push(f, Rule::AtomicOrder, *line, what.to_string());
    }
}

// --------------------------------------------------------------- FAULT-MASK

fn fault_mask(f: &FileFacts, cfg: &Config, sink: &mut Sink) {
    if in_test_tree(&f.name) {
        return;
    }
    for func in &f.fns {
        if func.in_test || !cfg.switch_critical.contains(&func.name) {
            continue;
        }
        let used: Vec<&str> = cfg
            .fault_hooks
            .iter()
            .filter(|h| func.idents.contains(h.as_str()))
            .map(String::as_str)
            .collect();
        if !used.is_empty() {
            sink.push(f,
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

fn dispatch_gap(files: &[FileFacts], cfg: &Config, sink: &mut Sink) {
    // 1. Every required PvOps method implemented by every VO.
    let required: Vec<&str> = files
        .iter()
        .flat_map(|f| f.trait_methods.iter())
        .filter(|m| m.trait_name == cfg.pvops_trait && !m.has_default)
        .map(|m| m.method.as_str())
        .collect();
    if !required.is_empty() {
        for f in files {
            if in_test_tree(&f.name) {
                continue;
            }
            for imp in &f.impls {
                if imp.in_test || imp.trait_name.as_deref() != Some(cfg.pvops_trait.as_str()) {
                    continue;
                }
                let have: BTreeSet<&str> = imp.methods.iter().map(String::as_str).collect();
                let missing: Vec<&str> = required
                    .iter()
                    .filter(|m| !have.contains(**m))
                    .copied()
                    .collect();
                if !missing.is_empty() {
                    sink.push(f,
                        Rule::DispatchGap,
                        imp.line,
                        format!(
                            "`impl {} for {}` is missing: {}",
                            cfg.pvops_trait,
                            imp.type_name,
                            missing.join(", ")
                        ),
                    );
                }
            }
        }
        // All three canonical VOes must exist (only checked once at
        // least one of them is present, so small fixtures stay quiet).
        let present: BTreeSet<&str> = files
            .iter()
            .flat_map(|f| f.impls.iter())
            .filter(|i| i.trait_name.as_deref() == Some(cfg.pvops_trait.as_str()))
            .map(|i| i.type_name.as_str())
            .collect();
        if cfg.vo_impls.iter().any(|v| present.contains(v.as_str())) {
            for vo in &cfg.vo_impls {
                if !present.contains(vo.as_str()) {
                    if let Some((f, line)) = files.iter().find_map(|f| {
                        f.trait_methods
                            .iter()
                            .find(|m| m.trait_name == cfg.pvops_trait)
                            .map(|m| (f, m.line))
                    }) {
                        sink.push(f,
                            Rule::DispatchGap,
                            line,
                            format!(
                                "virtualization object `{vo}` has no \
                                 `{}` impl",
                                cfg.pvops_trait
                            ),
                        );
                    }
                }
            }
        }
    }

    // 2. Every *atomic* Rendezvous field reset by `begin()` — a stale
    // counter or flag from the previous round corrupts the next
    // handshake.  Non-atomic fields (the timeout, the dyncheck shadow
    // monitor) are round-invariant configuration, not protocol state.
    for f in files {
        if !f.defines_struct("Rendezvous") {
            continue;
        }
        let begin = f
            .fns
            .iter()
            .find(|x| x.name == "begin" && x.impl_type.as_deref() == Some("Rendezvous"));
        let Some(begin) = begin else { continue };
        for fd in &f.fields {
            if fd.struct_name == "Rendezvous"
                && !fd.in_test
                && fd.type_idents.iter().any(|t| t.starts_with("Atomic"))
                && !begin.idents.contains(&fd.field_name)
            {
                sink.push(f,
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
}
