//! Reachability over the call graph from the switch roots.
//!
//! The roots are the fns under a `// volint::root(..)` marker — the
//! mode-switch entry points (the transition handler and the rendezvous
//! peer) and the hypercall dispatch — plus the fns the transition-table
//! rows name.  One breadth-first walk from all of them gives the switch
//! path the switch-path rules (SWITCH-ALLOC and friends) check.

use crate::callgraph::CallGraph;
use crate::walk::FileFacts;

/// The fns reachable from the roots, with BFS parents for diagnostics.
pub struct ReachSet {
    /// gid → reachable from some root.
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

/// Walk the graph from every root.
pub fn compute(graph: &CallGraph, files: &[FileFacts]) -> ReachSet {
    let n = graph.fn_file.len();
    let mut reachable = vec![false; n];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut queue: Vec<usize> = graph.roots(files);
    for &r in &queue {
        reachable[r] = true;
    }
    let mut head = 0;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        for e in &graph.edges[cur] {
            if reachable[e.callee] {
                continue;
            }
            reachable[e.callee] = true;
            parent[e.callee] = Some((cur, e.line));
            queue.push(e.callee);
        }
    }
    ReachSet { reachable, parent }
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
        let r = compute(&g, &files);
        let deep = gid(&files, &g, "deep");
        let unrelated = gid(&files, &g, "unrelated");
        assert!(r.reachable[deep]);
        assert!(!r.reachable[unrelated]);
        assert_eq!(
            r.chain(&g, &files, deep),
            "root_fn \u{2192} mid \u{2192} deep"
        );
    }
}
