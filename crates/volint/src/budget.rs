//! Static cycle budget for the mode-switch phases.
//!
//! The switch path is instrumented with `merctrace` spans whose probe
//! names (`switch.transfer.flip_tables`, `switch.reload_cpu`, …) are
//! exactly the phase keys of the measured `switch_timeline.json`.
//! A phase is either a row of a transition table (the driver opens its
//! span, so the budget is the whole-fn cost of the fns the row names —
//! it may be walked in either direction) or a literal `span_begin!`..
//! `span_end!` region, priced as that line range.  Either way the
//! *worst-case* cycle count is:
//!
//! * each `// volint::cost(N)` marker inside the region contributes
//!   `N` cycles, multiplied by the resolved trip bounds of every
//!   enclosing loop;
//! * each call inside the region contributes the (memoized) cost of
//!   its callee — the callee's own markers and calls, recursively —
//!   again multiplied by enclosing loop bounds.  Where a call site
//!   resolves to several candidates the *most expensive* one is
//!   charged; recursion contributes zero on the back edge.
//!
//! When one probe name is opened in several places (the control
//! processor and its peers both emit `switch.reload_cpu`; two rows may
//! share a name) the budget keeps the MAX.
//!
//! The emitted `volint_budget.json` is the static half of a contract
//! checked by `tools/benchgate.py`: every measured phase must fit
//! inside its budget (a breach means the cost model drifted under the
//! code), and a measurement *far* under budget flags stale bounds.

use crate::callgraph::CallGraph;
use crate::walk::{FileFacts, FnBody};
use std::collections::{BTreeMap, BTreeSet};

/// Simulated clock rate; keep in sync with `simx86`'s cycle-to-µs
/// conversion (3 GHz: `switch_timeline.json` reports 2950 cycles as
/// 0.98333 µs).
pub const CYCLES_PER_US: u64 = 3000;

/// The per-phase worst-case budget, in cycles.
#[derive(Debug, Default)]
pub struct Budget {
    /// Probe name → worst-case cycles.
    pub phases: BTreeMap<String, u64>,
}

impl Budget {
    /// Budget of one phase in microseconds.
    pub fn us(&self, phase: &str) -> Option<f64> {
        self.phases
            .get(phase)
            .map(|&c| c as f64 / CYCLES_PER_US as f64)
    }

    /// Hand-rolled JSON document (volint is dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"generated_by\": \"volint static cycle budget\",\n");
        out.push_str(&format!("  \"cycles_per_us\": {CYCLES_PER_US},\n"));
        out.push_str("  \"phases\": {\n");
        let n = self.phases.len();
        for (i, (name, cycles)) in self.phases.iter().enumerate() {
            let us = *cycles as f64 / CYCLES_PER_US as f64;
            out.push_str(&format!(
                "    \"{name}\": {{\"cycles\": {cycles}, \"us\": {us:.5}}}{}\n",
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// The product of the resolved bounds of every loop in `body` whose
/// extent contains `line`.  Loops with no resolvable bound multiply by
/// 1 — SWITCH-LOOP-BOUND reports those separately; the budget stays
/// finite rather than poisoning the whole phase.
fn loop_product(body: &FnBody, line: usize, consts: &BTreeMap<String, u64>) -> u64 {
    body.loops
        .iter()
        .filter(|l| l.line <= line && line <= l.end_line)
        .map(|l| l.resolved_bound(consts).unwrap_or(1).max(1))
        .product::<u64>()
        .max(1)
}

/// Worst-case cycles attributable to the line range `[lo, hi]` of the
/// fn `gid`: cost markers plus callee costs, loop-multiplied.
fn range_cost(
    graph: &CallGraph,
    files: &[FileFacts],
    gid: usize,
    lo: usize,
    hi: usize,
    memo: &mut BTreeMap<usize, u64>,
    visiting: &mut BTreeSet<usize>,
) -> u64 {
    let file = graph.file(files, gid);
    let body = graph.body(files, gid);
    let mut total: u64 = 0;

    for &(line, cycles) in &file.costs {
        if line >= lo && line <= hi && line >= body.line && line <= body.end_line {
            total = total.saturating_add(cycles.saturating_mul(loop_product(
                body,
                line,
                &graph.consts,
            )));
        }
    }

    // Most-expensive candidate per call-site line.
    let mut per_line: BTreeMap<usize, u64> = BTreeMap::new();
    for e in &graph.edges[gid] {
        if e.line < lo || e.line > hi {
            continue;
        }
        let c = fn_cost(graph, files, e.callee, memo, visiting);
        let slot = per_line.entry(e.line).or_insert(0);
        *slot = (*slot).max(c);
    }
    for (line, c) in per_line {
        total = total.saturating_add(c.saturating_mul(loop_product(body, line, &graph.consts)));
    }
    total
}

/// Memoized whole-fn cost; recursion contributes zero on back edges.
fn fn_cost(
    graph: &CallGraph,
    files: &[FileFacts],
    gid: usize,
    memo: &mut BTreeMap<usize, u64>,
    visiting: &mut BTreeSet<usize>,
) -> u64 {
    if let Some(&c) = memo.get(&gid) {
        return c;
    }
    if !visiting.insert(gid) {
        return 0;
    }
    let body = graph.body(files, gid);
    let c = range_cost(graph, files, gid, body.line, body.end_line, memo, visiting);
    visiting.remove(&gid);
    memo.insert(gid, c);
    c
}

/// Compute the per-phase budget over the whole workspace graph.
/// Phases that sum to zero cycles are omitted: an un-modeled span is
/// "no claim", not "claims zero".
pub fn compute(graph: &CallGraph, files: &[FileFacts]) -> Budget {
    let mut memo = BTreeMap::new();
    let mut budget = Budget::default();
    let mut charge = |name: &str, cycles: u64| {
        if cycles > 0 {
            let slot = budget.phases.entry(name.to_string()).or_insert(0);
            *slot = (*slot).max(cycles);
        }
    };
    for (name, gids) in &graph.rows {
        for &gid in gids {
            let cycles = fn_cost(graph, files, gid, &mut memo, &mut BTreeSet::new());
            charge(name, cycles);
        }
    }
    for gid in 0..graph.fn_file.len() {
        let body = graph.body(files, gid);
        if body.in_test || crate::in_test_tree(&graph.file(files, gid).name) {
            continue;
        }
        for span in &body.phases {
            let mut visiting = BTreeSet::new();
            let cycles = range_cost(
                graph,
                files,
                gid,
                span.start_line,
                span.end_line,
                &mut memo,
                &mut visiting,
            );
            charge(&span.name, cycles);
        }
    }
    budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk_file;

    fn setup(src: &str) -> (Vec<FileFacts>, CallGraph) {
        let files = vec![walk_file("a.rs", src)];
        let g = CallGraph::build(&files);
        (files, g)
    }

    #[test]
    fn marker_times_loop_bounds_and_callee_cost() {
        let src = r#"
            fn attach(cpu: &Cpu) {
                merctrace::span_begin!(cpu.id, "phase.a", cpu.cycles());
                // volint::bound(4)
                for f in frames() {
                    // volint::cost(10)
                    tick(cpu);
                }
                helper(cpu);
                merctrace::span_end!(cpu.id, "phase.a", cpu.cycles());
            }
            fn helper(cpu: &Cpu) {
                // volint::cost(100)
                cpu.step();
            }
        "#;
        let (files, g) = setup(src);
        let b = compute(&g, &files);
        // 4 trips × 10 cycles + helper's flat 100.
        assert_eq!(b.phases.get("phase.a"), Some(&140));
        assert!((b.us("phase.a").unwrap() - 140.0 / 3000.0).abs() < 1e-9);
    }

    #[test]
    fn max_across_fns_and_recursion_is_finite() {
        let src = r#"
            fn a(cpu: &Cpu) {
                merctrace::span_begin!(cpu.id, "phase.x", 0);
                // volint::cost(50)
                b(cpu);
                merctrace::span_end!(cpu.id, "phase.x", 0);
            }
            fn b(cpu: &Cpu) {
                // volint::cost(30)
                a(cpu);
            }
            fn c(cpu: &Cpu) {
                merctrace::span_begin!(cpu.id, "phase.x", 0);
                // volint::cost(10)
                merctrace::span_end!(cpu.id, "phase.x", 0);
            }
        "#;
        let (files, g) = setup(src);
        let b = compute(&g, &files);
        // a's region: 50 + cost(b) where b→a recursion contributes 0
        // beyond b's own 30 + a's 50 + ... capped by the back edge.
        let x = *b.phases.get("phase.x").unwrap();
        assert!(x >= 80, "got {x}");
        assert!(x < 1000, "recursion must not diverge, got {x}");
    }

    #[test]
    fn zero_cost_phases_are_omitted_and_json_shape() {
        let src = r#"
            fn a(cpu: &Cpu) {
                merctrace::span_begin!(cpu.id, "phase.empty", 0);
                merctrace::span_end!(cpu.id, "phase.empty", 0);
                merctrace::span_begin!(cpu.id, "phase.real", 0);
                // volint::cost(3000)
                merctrace::span_end!(cpu.id, "phase.real", 0);
            }
        "#;
        let (files, g) = setup(src);
        let b = compute(&g, &files);
        assert!(!b.phases.contains_key("phase.empty"));
        let j = b.to_json();
        assert!(j.contains("\"cycles_per_us\": 3000"));
        assert!(j.contains("\"phase.real\": {\"cycles\": 3000, \"us\": 1.00000}"));
    }
}
