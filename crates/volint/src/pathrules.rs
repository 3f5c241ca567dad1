//! The call-graph-powered switch-path rules.
//!
//! All three rules consume the [`reach`](crate::reach) set computed
//! from the `// volint::root(..)` markers and the transition-table rows:
//!
//! * **SWITCH-ALLOC** — no heap allocation (`Box`/`Vec`/`String`
//!   constructors, collection growth methods, `vec!`/`format!`)
//!   reachable from a switch root.  The mode switch runs under the
//!   refcount gate with peers spinning in rendezvous; an allocator
//!   call there is unbounded latency and a potential fault point
//!   (paper §5.1: the switch must be short and predictable).
//! * **SWITCH-PANIC** — no `unwrap`/`expect`, panicking macro, or
//!   unchecked slice index reachable from a switch root.  A panic
//!   mid-transfer strands every peer CPU in the rendezvous.
//! * **SWITCH-LOOP-BOUND** — every loop reachable from a root either
//!   iterates something statically sized (`0..64`, `0..CONST`,
//!   `.take(N)`) or carries a `// volint::bound(N)` marker.  The
//!   bounds double as inputs to the static cycle budget
//!   ([`budget`](crate::budget)).

use crate::callgraph::CallGraph;
use crate::reach::ReachSet;
use crate::walk::{FileFacts, FnBody};
use crate::{Rule, Sink};

/// Allocating constructors by type.
const ALLOC_CTORS: &[(&str, &[&str])] = &[
    ("Box", &["new"]),
    ("Rc", &["new"]),
    ("Arc", &["new"]),
    ("Vec", &["new", "with_capacity", "from"]),
    ("String", &["new", "from", "with_capacity"]),
    ("BTreeMap", &["new"]),
    ("BTreeSet", &["new"]),
    ("HashMap", &["new", "with_capacity"]),
    ("HashSet", &["new", "with_capacity"]),
    ("VecDeque", &["new", "with_capacity"]),
];

/// Methods that (re)allocate on their receiver.
const GROWTH_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
    "reserve",
    "to_string",
    "to_vec",
    "to_owned",
    "collect",
    "or_insert",
    "or_insert_with",
    "or_default",
];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Panicking method calls.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Panicking macros (`debug_assert*` compiles out of release switch
/// paths and is deliberately absent).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Run the three graph rules.
pub fn check(files: &[FileFacts], graph: &CallGraph, reach: &ReachSet, sink: &mut Sink) {
    for gid in 0..graph.fn_file.len() {
        let f = graph.file(files, gid);
        let body = graph.body(files, gid);
        if body.in_test || crate::in_test_tree(&f.name) {
            continue;
        }

        if reach.reachable[gid] {
            let chain = reach.chain(graph, files, gid);
            switch_alloc(f, graph.fn_idx[gid], &chain, sink);
            switch_panic(f, graph.fn_idx[gid], &chain, sink);
            loop_bound(f, body, graph, &chain, sink);
        }
    }
}

fn switch_alloc(f: &FileFacts, fn_idx: usize, chain: &str, sink: &mut Sink) {
    for c in f.calls_in(fn_idx) {
        let what = if c.is_macro {
            if ALLOC_MACROS.contains(&c.name.as_str()) {
                Some(format!("`{}!`", c.name))
            } else {
                None
            }
        } else if c.via_dot && GROWTH_METHODS.contains(&c.name.as_str()) {
            Some(format!("`.{}()`", c.name))
        } else if !c.via_dot {
            c.qualifier.as_deref().and_then(|q| {
                ALLOC_CTORS
                    .iter()
                    .find(|(t, ms)| *t == q && ms.contains(&c.name.as_str()))
                    .map(|_| format!("`{q}::{}`", c.name))
            })
        } else {
            None
        };
        if let Some(what) = what {
            sink.push(
                f,
                Rule::SwitchAlloc,
                c.line,
                format!(
                    "{what} allocates on the switch path ({chain}); the \
                     switch critical section must not enter the allocator"
                ),
            );
        }
    }
}

fn switch_panic(f: &FileFacts, fn_idx: usize, chain: &str, sink: &mut Sink) {
    for c in f.calls_in(fn_idx) {
        let what = if c.is_macro {
            if PANIC_MACROS.contains(&c.name.as_str()) {
                Some(format!("`{}!`", c.name))
            } else {
                None
            }
        } else if c.via_dot && PANIC_METHODS.contains(&c.name.as_str()) {
            Some(format!("`.{}()`", c.name))
        } else {
            None
        };
        if let Some(what) = what {
            sink.push(
                f,
                Rule::SwitchPanic,
                c.line,
                format!(
                    "{what} can panic on the switch path ({chain}); a panic \
                     mid-transfer strands every rendezvous peer"
                ),
            );
        }
    }
    for &line in &f.fns[fn_idx].index_sites {
        sink.push(
            f,
            Rule::SwitchPanic,
            line,
            format!(
                "unchecked index can panic on the switch path ({chain}); \
                 use `.get()` or waive with a bounds argument"
            ),
        );
    }
}

fn loop_bound(f: &FileFacts, body: &FnBody, graph: &CallGraph, chain: &str, sink: &mut Sink) {
    for l in &body.loops {
        if l.resolved_bound(&graph.consts).is_none() {
            sink.push(
                f,
                Rule::SwitchLoopBound,
                l.line,
                format!(
                    "loop on the switch path ({chain}) has no static trip \
                     bound; annotate `// volint::bound(N)` so the cycle \
                     budget stays finite"
                ),
            );
        }
    }
}
