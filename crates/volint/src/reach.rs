//! Reachability over the call graph, per root kind.
//!
//! A root kind is the tag inside a `// volint::root(KIND)` marker;
//! the workspace uses one, `SWITCH`, on the mode-switch entry points
//! (the transition handler and the rendezvous peer) and the hypercall
//! dispatch.  Each kind gets its own breadth-first walk, and the
//! switch-path rules (SWITCH-ALLOC and friends) ask whether a fn is on
//! any of them.
//!
//! `// volint::prune(KIND)` markers cut individual call edges during
//! the walk: a prune on (or directly above) a call-site line stops
//! that edge from propagating the given kind.  This is how the few
//! genuinely-unreachable dispatch fan-out edges (the graph has no
//! branch sensitivity) are kept off the switch path — visibly, in the
//! caller's source, instead of inside the analyzer.

use crate::callgraph::CallGraph;
use crate::walk::FileFacts;
use std::collections::BTreeMap;

/// Reachable-set for one root kind, with BFS parents for diagnostics.
pub struct ReachSet {
    /// gid → reachable from some root of this kind.
    pub reachable: Vec<bool>,
    /// gid → (caller gid, call-site line) on a shortest root path.
    /// Roots have no parent.
    pub parent: Vec<Option<(usize, usize)>>,
}

impl ReachSet {
    /// Human-readable shortest call chain ending at `gid`:
    /// `handle_switch → try_switch → attach_transfer`.
    pub fn chain(&self, graph: &CallGraph, files: &[FileFacts], gid: usize) -> String {
        let mut names = vec![graph.body(files, gid).name.clone()];
        let mut cur = gid;
        let mut hops = 0;
        while let Some((p, _)) = self.parent[cur] {
            names.push(graph.body(files, p).name.clone());
            cur = p;
            hops += 1;
            if hops > 64 {
                break; // cycles cannot happen on BFS parents; belt & braces
            }
        }
        names.reverse();
        names.join(" \u{2192} ")
    }
}

/// All reach sets, keyed by root kind.
pub struct Reachability {
    /// Kind (`SWITCH`) → its reach set.
    pub kinds: BTreeMap<String, ReachSet>,
}

impl Reachability {
    /// Is `gid` reachable under the given kind?
    pub fn under(&self, kind: &str, gid: usize) -> bool {
        self.kinds
            .get(kind)
            .is_some_and(|s| s.reachable[gid])
    }

    /// The reach set whose chain best explains `gid` (first kind that
    /// reaches it, in `BTreeMap` order — deterministic).
    pub fn explain(&self, gid: usize) -> Option<(&str, &ReachSet)> {
        self.kinds
            .iter()
            .find(|(_, s)| s.reachable[gid])
            .map(|(k, s)| (k.as_str(), s))
    }
}

/// Walk the graph from every root of every kind in `kinds`.
pub fn compute(graph: &CallGraph, files: &[FileFacts], kinds: &[&str]) -> Reachability {
    let n = graph.fn_file.len();
    let mut out = BTreeMap::new();
    for &kind in kinds {
        let mut reachable = vec![false; n];
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut queue: Vec<usize> = graph.roots(files, kind);
        for &r in &queue {
            reachable[r] = true;
        }
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            let file = graph.file(files, cur);
            for e in &graph.edges[cur] {
                if reachable[e.callee] || file.is_pruned(kind, e.line) {
                    continue;
                }
                reachable[e.callee] = true;
                parent[e.callee] = Some((cur, e.line));
                queue.push(e.callee);
            }
        }
        out.insert(kind.to_string(), ReachSet { reachable, parent });
    }
    Reachability { kinds: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::walk::walk_file;

    fn setup(src: &str) -> (Vec<FileFacts>, CallGraph) {
        let files = vec![walk_file("a.rs", src)];
        let g = CallGraph::build(&files);
        (files, g)
    }

    fn gid(files: &[FileFacts], g: &CallGraph, name: &str) -> usize {
        (0..g.fn_file.len())
            .find(|&i| g.body(files, i).name == name)
            .unwrap()
    }

    #[test]
    fn transitive_reach_and_chain() {
        let (files, g) = setup(
            "// volint::root(SWITCH)\nfn root_fn() { mid(); }\nfn mid() { deep(); }\nfn deep() {}\nfn unrelated() { deep(); }",
        );
        let r = compute(&g, &files, &["SWITCH"]);
        let deep = gid(&files, &g, "deep");
        let unrelated = gid(&files, &g, "unrelated");
        assert!(r.under("SWITCH", deep));
        assert!(!r.under("SWITCH", unrelated));
        let set = &r.kinds["SWITCH"];
        assert_eq!(set.chain(&g, &files, deep), "root_fn \u{2192} mid \u{2192} deep");
    }

    #[test]
    fn prune_cuts_one_kind_only() {
        let (files, g) = setup(
            "// volint::root(SWITCH, PEER)\nfn root_fn() {\n    // volint::prune(SWITCH)\n    deep();\n}\nfn deep() {}",
        );
        let r = compute(&g, &files, &["SWITCH", "PEER"]);
        let deep = gid(&files, &g, "deep");
        assert!(!r.under("SWITCH", deep), "pruned for SWITCH");
        assert!(r.under("PEER", deep), "not pruned for PEER");
        assert_eq!(r.explain(deep).map(|(k, _)| k), Some("PEER"));
    }
}
