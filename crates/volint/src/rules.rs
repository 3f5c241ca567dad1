//! The five Mercury line rules.
//!
//! * **VO-BYPASS** — privileged `simx86` primitives reached outside a
//!   `PvOps` impl or the allowlisted switch-handler/hardware layers
//!   (paper §4.2/§5.3: every virtualization-sensitive operation routes
//!   through a Virtualization Object).  The privileged set is the fns
//!   `crates/simx86/` marks `#[doc(alias = "volint-privileged")]`, and
//!   nothing else.
//! * **REFCOUNT-LEAK** — `VoRefCount::enter` guards that are forgotten,
//!   immediately discarded, parked in long-lived structs, or held
//!   across a call that blocks on a pending switch (paper §5.1.1: the
//!   refcount gate is sound only if every entry pairs with an exit).
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
//! * **FORBIDDEN** — a token sequence of the [`FORBIDDEN`] table outside
//!   the files that state its fact (bring-up, the on-demand bracket, a
//!   campaign, the write stamps' readers, a CPU's own state, a syscall's
//!   VO and drivers — each stated once, in the DESIGN.md section the row
//!   cites).

use crate::in_test_tree;
use crate::lexer::{Token, TokenKind};
use crate::walk::{Call, FileFacts, LetBinding};
use crate::{Rule, Sink};
use std::collections::BTreeSet;

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
pub const BLOCKING_CALLS: &[&str] = &[
    "switch_to_virtual",
    "switch_to_native",
    "wait_ready",
    "wait_done",
    "check_in_and_wait",
    "spin_until",
];

/// The `faultgen` injection-hook entry points (FAULT-MASK targets), in
/// the order a diagnostic lists them.
pub const FAULT_HOOKS: &[&str] = &[
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
    "rebuild_accounting",
    "sharded_recompute_phase",
    "stripe",
    "charge_stripe",
    "spin_until",
    "wait_count",
    "close_round",
];

/// One row of [`FORBIDDEN`]: a fact stated in one place, and the token
/// sequences that type it out again anywhere else.
#[derive(Debug)]
pub struct Forbidden {
    /// What is stated once, and what to call instead.
    pub name: &'static str,
    /// Lexed token sequences, tokens separated by spaces (`std :: env ::
    /// args`); a word ending in `*` matches every identifier it starts.
    pub tokens: &'static [&'static str],
    /// Path prefixes the row covers; a `*/` component matches any one.
    pub paths: &'static [&'static str],
    /// If not empty, the row covers only these `(impl type, fn)` bodies.
    pub bodies: &'static [(&'static str, &'static str)],
    /// Files that may contain the sequences: where the fact is stated.
    pub allowed: &'static [&'static str],
    /// `#[cfg(test)]` code is covered too.
    pub tests: bool,
    /// The DESIGN.md section the diagnostic cites.
    pub section: &'static str,
}

/// The defaults a [`FORBIDDEN`] row overrides: every workspace source,
/// test code included, and no file allowed.
#[rustfmt::skip]
const ANYWHERE: Forbidden = Forbidden {
    name: "", section: "", tokens: &[], paths: &["crates/", "src/", "tests/", "examples/"],
    allowed: &[], bodies: &[], tests: true,
};

const ON_DEMAND: &str =
    "the on-demand bracket is stated once: call `Mercury::on_demand` / `Mercury::reach`";
const CAMPAIGN: &str = "a campaign is stated once: use `mercury_suite::campaign`, \
                        `mercury::SwitchCounts`, `Watchdog::new(mercury, policy)`";
const OWNER_WRITTEN: &str =
    "a CPU's own state is a load and a store (`simx86::sync::owner_store`); \
     cross-CPU work is a mailbox request";
const SYSCALL: &str = "a syscall reads its VO and drivers, and a page fault its VO, \
                       through a `simx86::sync::SlotCache`: the session's, the faulting thread's";
const SRC: &[&str] = &["crates/*/src/", "src/"];
const CAMPAIGN_RS: &[&str] = &["src/campaign.rs"];

/// Structural facts stated once, each checked as FORBIDDEN: a row's
/// token sequences may appear in its scope only in its allowed files.
#[rustfmt::skip]
pub const FORBIDDEN: &[Forbidden] = &[
    Forbidden {
        name: "bring-up is stated once: call `mercury::Stack::build` / \
               `nimbus::drivers::{attach_native, connect_split}`",
        section: "§3a",
        tokens: &["KernelConfig {", "NativeBlockDriver :: new", "FrontendBlockDriver :: new", "BlkBackend :: new"],
        paths: &["crates/core/", "crates/cluster/", "crates/workloads/", "crates/servo/", "src/",
                 "examples/", "tests/"],
        allowed: &["crates/core/src/stack.rs", "crates/workloads/src/configs.rs"],
        ..ANYWHERE
    },
    Forbidden { name: ON_DEMAND, section: "§6", tokens: &["was_native"], paths: SRC,
                allowed: &["crates/core/src/switch.rs"], ..ANYWHERE },
    Forbidden { name: ON_DEMAND, section: "§6", tokens: &["SwitchOutcome :: Deferred"], paths: SRC,
                allowed: &["crates/core/src/switch.rs", "crates/cluster/src/watchdog.rs"], ..ANYWHERE },
    Forbidden { name: CAMPAIGN, section: "§14", tokens: &["std :: env :: args"], paths: &["src/"],
                allowed: CAMPAIGN_RS, ..ANYWHERE },
    Forbidden { name: CAMPAIGN, section: "§14", tokens: &["15_000 + rng . below"], paths: &["src/", "tests/"],
                allowed: CAMPAIGN_RS, ..ANYWHERE },
    Forbidden { name: CAMPAIGN, section: "§14",
                tokens: &["fn watchdog_for", "struct SwitchTotals", "struct SwitchSnap"], ..ANYWHERE },
    Forbidden {
        name: "memory's write stamps are read by the native window and its one round engine: \
               a consumer is a `xenon::Rounds` and a per-frame action, not a clearing, \
               retargetable or hand-written reader",
        section: "§7b",
        tokens: &["take_dirty", "reset_dirty_for", "count_dirty_for", "dirty_frames_for",
                  "take_dirty_frame_for", "retarget", "bind_scrubber", "strip_dirty",
                  ". checkpoint (", ". stored_since (", ". stored_between ("],
        allowed: &["crates/simx86/src/mem.rs", "crates/xenon/src/page_info.rs",
                   "crates/xenon/src/rounds.rs"],
        ..ANYWHERE
    },
    Forbidden { name: OWNER_WRITTEN, section: "§14b", tokens: &[". fetch_add (", ". fetch_sub (", "swap (", "Mutex"],
                paths: &["crates/simx86/src/cpu.rs"], tests: false, ..ANYWHERE },
    Forbidden { name: OWNER_WRITTEN, section: "§14b",
                tokens: &[". fetch_* (", "swap (", ". compare_exchange* (", "Mutex", "RwLock"],
                paths: &["crates/simx86/src/tlb.rs"], tests: false, ..ANYWHERE },
    Forbidden { name: SYSCALL, section: "§14b", tokens: &[". pv ( )", "block_driver ( )", "net_driver ( )"],
                paths: &["crates/nimbus/src/session.rs"], tests: false, ..ANYWHERE },
    Forbidden { name: SYSCALL, section: "§14b", tokens: &[". pv ( )", "block_driver ( )", "net_driver ( )"],
                paths: &["crates/nimbus/src/kernel.rs"], tests: false,
                bodies: &[("Kernel", "read"), ("Kernel", "write"), ("Kernel", "sendto"),
                          ("Kernel", "recvfrom"), ("Kernel", "recvfrom_nonblock"),
                          ("Kernel", "handle_page_fault"), ("Kernel", "user_access"),
                          ("PageFaultSink", "handle")],
                ..ANYWHERE },
    Forbidden {
        name: "a swapped pointer is read one way: a `simx86::sync::Published` slot \
               through a `SlotCache`",
        section: "§14b",
        tokens: &["stamp . load (", "stamp . store ("],
        paths: &["crates/simx86/src/cpu.rs", "crates/nimbus/src/kernel.rs", "crates/nimbus/src/session.rs"],
        allowed: &["crates/simx86/src/sync.rs"],
        tests: false,
        ..ANYWHERE
    },
];

/// Run every line-level rule over the walked files.
pub fn check(files: &[FileFacts], sink: &mut Sink) {
    // The hardware layer's markers are the one list of what is privileged.
    let privileged: BTreeSet<&str> = files
        .iter()
        .filter(|f| f.name.starts_with("crates/simx86/"))
        .flat_map(|f| f.fns.iter().filter(|b| b.privileged))
        .map(|b| b.name.as_str())
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
        forbidden(f, sink);
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
            sink.push(
                f,
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
            || f.lets
                .iter()
                .any(|l| is_guard(l) && l.fn_idx == c.fn_idx && c.args.contains(&l.name));
        if guard_arg {
            sink.push(
                f,
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
            sink.push(
                f,
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
                sink.push(
                    f,
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
    let trace_buffers = f.name.contains("merctrace") || f.defines_struct("Tracer");
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

// ---------------------------------------------------------------- FORBIDDEN

fn forbidden(f: &FileFacts, sink: &mut Sink) {
    for &(row, seq, line) in &f.forbidden {
        let place = match row.allowed {
            [] => "in this file".to_string(),
            files => format!("outside {}", files.join(", ")),
        };
        let why = format!("`{seq}` {place}; {} (DESIGN.md {})", row.name, row.section);
        sink.push(f, Rule::Forbidden, line, why);
    }
}

/// Every [`FORBIDDEN`] sequence in the file `f` whose one token stream
/// is `toks` (`test_spans`: its `#[cfg(test)]` bodies, as token-index
/// ranges), outside the row's allowed files: `(row, sequence, line)`.
pub(crate) fn forbidden_hits(
    f: &FileFacts,
    toks: &[Token],
    test_spans: &[(usize, usize)],
) -> Vec<(&'static Forbidden, &'static str, usize)> {
    let mut hits = Vec::new();
    for row in FORBIDDEN {
        if !row.paths.iter().any(|p| under(&f.name, p)) || row.allowed.contains(&f.name.as_str()) {
            continue;
        }
        for &seq in row.tokens {
            let words = words(seq);
            for (i, w) in toks.windows(words.len()).enumerate() {
                let line = w[0].line;
                let found = w.iter().zip(&words).all(|(t, word)| word_matches(t, word))
                    && (row.tests || !test_spans.iter().any(|&(a, b)| a <= i && i <= b))
                    && (row.bodies.is_empty()
                        || f.fns.iter().any(|b| {
                            (b.line..=b.end_line).contains(&line)
                                && row
                                    .bodies
                                    .contains(&(b.impl_type.as_deref().unwrap_or(""), &b.name))
                        }));
                if found {
                    hits.push((row, seq, line));
                }
            }
        }
    }
    hits
}

/// Is `name` under `prefix`?  A `*/` component matches any one.
fn under(name: &str, prefix: &str) -> bool {
    match prefix.split_once("*/") {
        None => name.starts_with(prefix),
        Some((head, tail)) => name
            .strip_prefix(head)
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with(tail)),
    }
}

/// A sequence's words, one per token: a run of punctuation is one word
/// per character (`::` is two `:` tokens).
fn words(seq: &str) -> Vec<&str> {
    seq.split_whitespace()
        .flat_map(|w| {
            let punct = w.bytes().all(|b| b.is_ascii_punctuation());
            (0..if punct { w.len() } else { 1 }).map(move |i| if punct { &w[i..=i] } else { w })
        })
        .collect()
}

fn word_matches(t: &Token, word: &str) -> bool {
    match &t.kind {
        TokenKind::Ident(s) | TokenKind::Num(s) => match word.strip_suffix('*') {
            Some(stem) => s.starts_with(stem),
            None => s == word,
        },
        TokenKind::Punct(c) => word.chars().eq([*c]),
        _ => false,
    }
}
