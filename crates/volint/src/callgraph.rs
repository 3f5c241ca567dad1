//! Workspace-wide call graph over the [`walk`](crate::walk) facts.
//!
//! Resolution is deliberately conservative-but-useful: volint has no
//! type inference, so method calls resolve through a small tier of
//! heuristics (receiver `self` → enclosing impl, `Type::method` →
//! that type's methods, receiver that names a struct field → the
//! field's declared type, otherwise a name-based fallback with a
//! fan-out cap).  Unresolvable calls become *leaves* — absent from the
//! graph — which under-approximates reachability only for calls into
//! the standard library, where the switch-path rules re-gain coverage
//! by pattern (alloc ctors, `unwrap`, indexing) instead of by edge.
//!
//! Test functions and files under `tests/`/`benches/`/`examples/` are
//! never resolution *targets*: a test helper named like a production
//! fn must not graft test-only allocations onto the switch path.

use crate::walk::{FileFacts, FnBody};
use std::collections::BTreeMap;

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee's global fn id.
    pub callee: usize,
    /// 1-based call-site line in the *caller's* file.
    pub line: usize,
}

/// A name-fallback candidate set larger than this is treated as
/// "ambiguous — leaf" rather than fanned out: names like `new` or
/// `run` would otherwise weld every subsystem onto the switch path.
/// Applies to `module::func` paths whose final segment is not a known
/// free fn; dotted calls on unknown receivers are stricter (the name
/// must be unique workspace-wide, see [`resolve`]) because receiver
/// methods like `.read()` / `.write()` / `.flush()` collide with lock
/// guards and std containers far more often than path calls do.
const NAME_FANOUT_CAP: usize = 6;

/// Method names that belong to std's container / lock / iterator
/// vocabulary.  A dotted call with one of these names is virtually
/// always the std method, so the unique-name fallback must not graft
/// it onto a workspace fn that happens to share the name.
const STD_COLLISIONS: &[&str] = &[
    "insert", "remove", "get", "push", "pop", "take", "clear", "len", "read", "write", "lock",
    "send", "recv", "extend", "collect", "clone", "iter", "next", "flush", "contains", "drain",
    "join",
];

/// Type-ident wrappers skipped when mapping a struct field to the
/// user type it holds (`ept: RwLock<Option<Arc<Ept>>>` maps to
/// `Ept`).
const TYPE_WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Option", "Vec", "VecDeque", "Mutex", "RwLock", "RefCell", "Cell",
    "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Result",
];

/// The workspace call graph.  Global fn ids index into `fn_file` /
/// `fn_idx` (and the per-caller `edges` rows).
pub struct CallGraph {
    /// gid → index of the owning file in the facts slice.
    pub fn_file: Vec<usize>,
    /// gid → index of the fn within its file's `fns`.
    pub fn_idx: Vec<usize>,
    /// gid → outgoing resolved edges.
    pub edges: Vec<Vec<Edge>>,
    /// Workspace-wide numeric const table (for loop bounds).
    pub consts: BTreeMap<String, u64>,
    /// Struct-field name → the first user-type identifier of its
    /// declared type, for receiver-by-field call resolution
    /// (`self.kernel.fix_kstack_selectors()` → `Kernel`).
    pub field_types: BTreeMap<String, String>,
    /// Transition-table rows: probe name → the fns the driver reaches
    /// through the row's pointers (no edge leads to them).
    pub rows: Vec<(String, Vec<usize>)>,
}

impl CallGraph {
    /// Build the graph over every walked file.
    pub fn build(files: &[FileFacts]) -> CallGraph {
        let mut fn_file = Vec::new();
        let mut fn_idx = Vec::new();
        let mut file_base = Vec::new();
        let mut consts = BTreeMap::new();
        let mut field_types = BTreeMap::new();
        // Resolution indices (targets exclude test code entirely).
        let mut free_fns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut type_methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();

        for (fi, file) in files.iter().enumerate() {
            for (k, v) in &file.consts {
                consts.entry(k.clone()).or_insert(*v);
            }
            file_base.push(fn_file.len());
            let file_is_test = crate::in_test_tree(&file.name);
            for fd in file.fields.iter().filter(|fd| !file_is_test && !fd.in_test) {
                if let Some(t) = fd.type_idents.iter().find(|t| {
                    t.starts_with(|c: char| c.is_ascii_uppercase())
                        && !TYPE_WRAPPERS.contains(&t.as_str())
                }) {
                    field_types
                        .entry(fd.field_name.clone())
                        .or_insert_with(|| t.clone());
                }
            }
            for (ni, f) in file.fns.iter().enumerate() {
                let gid = fn_file.len();
                fn_file.push(fi);
                fn_idx.push(ni);
                if file_is_test || f.in_test {
                    continue;
                }
                by_name.entry(&f.name).or_default().push(gid);
                match &f.impl_type {
                    Some(t) => type_methods
                        .entry((t.as_str(), f.name.as_str()))
                        .or_default()
                        .push(gid),
                    None => free_fns.entry(&f.name).or_default().push(gid),
                }
            }
        }

        let mut rows = Vec::new();
        for file in files {
            for row in &file.rows {
                let gids = row
                    .fns
                    .iter()
                    .flat_map(|(ty, name)| match ty {
                        Some(t) => type_methods.get(&(t.as_str(), name.as_str())),
                        None => free_fns.get(name.as_str()),
                    })
                    .flatten()
                    .copied()
                    .collect();
                rows.push((row.name.clone(), gids));
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fn_file.len()];
        for (file, base) in files.iter().zip(file_base) {
            for call in file.calls.iter().filter(|c| !c.is_macro) {
                let Some(ni) = call.fn_idx else { continue };
                let gid = base + ni;
                let targets = resolve(
                    call.name.as_str(),
                    call.qualifier.as_deref(),
                    call.via_dot,
                    &file.fns[ni],
                    &free_fns,
                    &type_methods,
                    &by_name,
                    &field_types,
                );
                for t in targets {
                    if t != gid {
                        edges[gid].push(Edge {
                            callee: t,
                            line: call.line,
                        });
                    }
                }
            }
        }

        CallGraph {
            fn_file,
            fn_idx,
            edges,
            consts,
            field_types,
            rows,
        }
    }

    /// The [`FnBody`] behind a global fn id.
    pub fn body<'a>(&self, files: &'a [FileFacts], gid: usize) -> &'a FnBody {
        &files[self.fn_file[gid]].fns[self.fn_idx[gid]]
    }

    /// The file owning a global fn id.
    pub fn file<'a>(&self, files: &'a [FileFacts], gid: usize) -> &'a FileFacts {
        &files[self.fn_file[gid]]
    }

    /// Global ids of fns carrying a `volint::root(..)` marker, plus
    /// the fns the transition-table rows name.
    pub fn roots(&self, files: &[FileFacts]) -> Vec<usize> {
        (0..self.fn_file.len())
            .filter(|&g| self.body(files, g).root)
            .chain(self.rows.iter().flat_map(|(_, gids)| gids.iter().copied()))
            .collect()
    }
}

/// Tiered call resolution; see the module docs.
#[allow(clippy::too_many_arguments)]
fn resolve(
    name: &str,
    qualifier: Option<&str>,
    via_dot: bool,
    caller: &FnBody,
    free_fns: &BTreeMap<&str, Vec<usize>>,
    type_methods: &BTreeMap<(&str, &str), Vec<usize>>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    field_types: &BTreeMap<String, String>,
) -> Vec<usize> {
    let methods_of = |t: &str| -> Option<Vec<usize>> { type_methods.get(&(t, name)).cloned() };
    let capped_by_name = || -> Vec<usize> {
        match by_name.get(name) {
            Some(v) if v.len() <= NAME_FANOUT_CAP => v.clone(),
            _ => Vec::new(),
        }
    };
    // Dotted fallback: resolve only when the name is unique in the
    // workspace.  `rwlock.read()`, `guard.write()`, `tlb.flush()` et
    // al. share names with unrelated subsystems; fanning them out
    // welds the filesystem and driver stacks onto the switch path.
    // Names from std's container/lock vocabulary never resolve this
    // way even when unique — `map.insert()` means the BTreeMap, not
    // whichever workspace fn happens to share the name.
    let unique_by_name = || -> Vec<usize> {
        if STD_COLLISIONS.contains(&name) {
            return Vec::new();
        }
        match by_name.get(name) {
            Some(v) if v.len() == 1 => v.clone(),
            _ => Vec::new(),
        }
    };

    if via_dot {
        match qualifier {
            Some("self") => {
                // `self.method()`: the enclosing impl, its trait
                // impls sharing the type name, else a std method.
                caller
                    .impl_type
                    .as_deref()
                    .and_then(methods_of)
                    .unwrap_or_default()
            }
            Some(q) => {
                if let Some(t) = field_types.get(q) {
                    // Receiver names a struct field of known type.
                    if let Some(m) = methods_of(t) {
                        return m;
                    }
                }
                if q.starts_with(|c: char| c.is_ascii_uppercase()) {
                    // `Type.method()` is not Rust; treat as leaf.
                    return Vec::new();
                }
                // Unknown local receiver: only a workspace-unique
                // name resolves.
                unique_by_name()
            }
            None => unique_by_name(),
        }
    } else {
        match qualifier {
            Some("Self") => caller
                .impl_type
                .as_deref()
                .and_then(methods_of)
                .unwrap_or_default(),
            Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
                // `Type::assoc()`: that type's methods or a std type.
                methods_of(q).unwrap_or_default()
            }
            Some(_) => {
                // `module::func()`.
                free_fns.get(name).cloned().unwrap_or_else(capped_by_name)
            }
            None => free_fns.get(name).cloned().unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk_file;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<FileFacts>, CallGraph) {
        let files: Vec<FileFacts> = sources.iter().map(|(n, s)| walk_file(n, s)).collect();
        let g = CallGraph::build(&files);
        (files, g)
    }

    fn gid(files: &[FileFacts], g: &CallGraph, name: &str) -> usize {
        (0..g.fn_file.len())
            .find(|&i| g.body(files, i).name == name)
            .unwrap()
    }

    #[test]
    fn free_fn_and_self_method_edges() {
        let (files, g) = graph_of(&[(
            "a.rs",
            r#"
            fn top() { helper(); }
            fn helper() {}
            struct S;
            impl S {
                fn a(&self) { self.b(); }
                fn b(&self) {}
            }
        "#,
        )]);
        let top = gid(&files, &g, "top");
        let helper = gid(&files, &g, "helper");
        assert!(g.edges[top].iter().any(|e| e.callee == helper));
        let a = gid(&files, &g, "a");
        let b = gid(&files, &g, "b");
        assert!(g.edges[a].iter().any(|e| e.callee == b));
    }

    #[test]
    fn cross_crate_type_assoc_and_field_receiver() {
        let (files, g) = graph_of(&[
            (
                "crates/core/src/x.rs",
                r#"
                struct Mercury { kernel: Kernel }
                impl Mercury {
                    fn go(&self) {
                        Kernel::boot();
                        self.kernel.walk();
                    }
                }
            "#,
            ),
            (
                "crates/nimbus/src/k.rs",
                r#"
                pub struct Kernel;
                impl Kernel {
                    pub fn boot() {}
                    pub fn walk(&self) {}
                }
            "#,
            ),
        ]);
        assert_eq!(
            g.field_types.get("kernel").map(String::as_str),
            Some("Kernel")
        );
        let go = gid(&files, &g, "go");
        let boot = gid(&files, &g, "boot");
        let walk = gid(&files, &g, "walk");
        assert!(g.edges[go].iter().any(|e| e.callee == boot));
        assert!(g.edges[go].iter().any(|e| e.callee == walk));
    }

    #[test]
    fn test_fns_are_not_targets() {
        let (files, g) = graph_of(&[(
            "a.rs",
            r#"
            fn top() { poke(); }
            #[cfg(test)]
            mod tests {
                fn poke() { let v = Vec::new(); }
            }
        "#,
        )]);
        let top = gid(&files, &g, "top");
        assert!(g.edges[top].is_empty(), "test fn must not be a target");
    }

    #[test]
    fn roots_are_discovered() {
        let (files, g) = graph_of(&[(
            "a.rs",
            "// volint::root(SWITCH)\nfn handle_switch() {}\nfn other() {}",
        )]);
        let roots = g.roots(&files);
        assert_eq!(roots.len(), 1);
        assert_eq!(g.body(&files, roots[0]).name, "handle_switch");
    }
}
