//! volint — the Mercury invariant checker.
//!
//! Mercury's safety story rests on invariants the Rust compiler cannot
//! see.  volint enforces them as a static pass over the workspace
//! source; each source is lexed and walked once ([`walk`]) and every
//! rule, the call graph and the cycle budget read the same facts:
//!
//! * line rules ([`rules`]): every virtualization-sensitive operation
//!   routes through a Virtualization Object (VO-BYPASS, paper
//!   §4.2/§5.3); every `VoRefCount::enter` pairs with an exit so the
//!   switch gate is sound (REFCOUNT-LEAK, §5.1.1); the
//!   rendezvous, refcount and trace-buffer atomics use acquire/release
//!   (ATOMIC-ORDER, §5.4); the fault-injection hooks stay out of the
//!   mode-switch critical section (FAULT-MASK, DESIGN.md §12); each
//!   fact stated once — one bring-up, one on-demand bracket, one
//!   campaign, one write clock, owner-written CPU state, a syscall's VO
//!   and drivers from the session — keeps its token sequences in the
//!   files that state it (FORBIDDEN, one [`rules::FORBIDDEN`] row each);
//! * call-graph rules ([`pathrules`]) over everything reachable from a
//!   `// volint::root(..)` fn or a transition-table row: no allocation
//!   (SWITCH-ALLOC), no panic path (SWITCH-PANIC), no unbounded loop
//!   (SWITCH-LOOP-BOUND);
//! * waiver hygiene (STALE-WAIVER) and the static per-phase cycle
//!   budget ([`budget`]).
//!
//! Two facts are not among them because rustc enforces them: the
//! `PvOps` dispatch table is total across VOes (§5.1.2; the trait has
//! no default methods, E0046), and the §5.4 rendezvous round is one
//! private word that every write builds whole (`mercury::rendezvous`:
//! a round missing a field is E0063, and touching it from outside the
//! module is E0616).
//!
//! Use it as a library ([`Analysis`], or the [`analyze_sources`] /
//! [`analyze_workspace`] shorthands, produce structured
//! [`Diagnostic`]s) or as a binary (`cargo run -p volint`) that exits
//! nonzero on violations.
//!
//! Sanctioned exceptions are expressed in-source with a waiver comment
//! on (or directly above) the offending line:
//!
//! ```text
//! // volint::allow(VO-BYPASS): pre-VO bootstrap, PvOps not built yet
//! cpu.set_pl_raw(PrivLevel::Pl0);
//! ```
//!
//! The crate is dependency-free by design so it can run in minimal CI
//! sandboxes and during offline bootstraps.

#![warn(missing_docs)]

pub mod budget;
pub mod callgraph;
pub mod lexer;
pub mod pathrules;
pub mod reach;
pub mod rules;
pub mod walk;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The invariant a diagnostic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Privileged primitive reached outside a VO (paper §4.2/§5.3).
    VoBypass,
    /// Unbalanced / leaked / deadlocking VO guard (paper §5.1.1).
    RefcountLeak,
    /// Relaxed atomics on rendezvous/refcount state (paper §5.4).
    AtomicOrder,
    /// Fault-injection hook used inside the switch critical section
    /// (DESIGN.md §12: injection must never perturb the switch itself).
    FaultMask,
    /// Heap allocation reachable from a switch root (graph rule).
    SwitchAlloc,
    /// Panic path reachable from a switch root (graph rule).
    SwitchPanic,
    /// Loop reachable from a switch root with no static trip bound
    /// (graph rule; bounds feed the static cycle budget).
    SwitchLoopBound,
    /// `volint::allow(..)` waiver that no longer suppresses anything,
    /// or a `volint::` marker of a kind volint does not know.
    StaleWaiver,
    /// A [`rules::FORBIDDEN`] token sequence outside the files that
    /// state its fact (one bring-up, one on-demand bracket, ...).
    Forbidden,
}

impl Rule {
    /// Stable rule identifier, as used in waiver comments and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::VoBypass => "VO-BYPASS",
            Rule::RefcountLeak => "REFCOUNT-LEAK",
            Rule::AtomicOrder => "ATOMIC-ORDER",
            Rule::FaultMask => "FAULT-MASK",
            Rule::SwitchAlloc => "SWITCH-ALLOC",
            Rule::SwitchPanic => "SWITCH-PANIC",
            Rule::SwitchLoopBound => "SWITCH-LOOP-BOUND",
            Rule::StaleWaiver => "STALE-WAIVER",
            Rule::Forbidden => "FORBIDDEN",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; does not fail the build.
    Warning,
    /// Invariant violation; the binary exits nonzero.
    Error,
}

/// One reported invariant violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(
            f,
            "{}:{}: {sev}[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Diagnostic {
    /// Hand-rolled JSON encoding (volint is dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"file":"{}","line":{},"rule":"{}","severity":"{}","message":"{}"}}"#,
            json_escape(&self.file),
            self.line,
            self.rule,
            match self.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            },
            json_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Diagnostic collector that also tracks which waivers actually
/// suppressed something, so unused waivers can be reported as
/// [`Rule::StaleWaiver`].
#[derive(Debug, Default)]
pub struct Sink {
    /// Collected diagnostics (unsorted; [`Analysis::diagnostics`] sorts).
    pub diags: Vec<Diagnostic>,
    /// Waivers that fired at least once: (file, waiver line).
    pub used_waivers: BTreeSet<(String, usize)>,
}

impl Sink {
    /// Fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an error-severity diagnostic, honoring (and accounting
    /// for) any waiver on or directly above the line.
    pub fn push(&mut self, f: &walk::FileFacts, rule: Rule, line: usize, message: String) {
        if let Some(wl) = f.waiver_match(rule.as_str(), line) {
            self.used_waivers.insert((f.name.clone(), wl));
            return;
        }
        self.diags.push(Diagnostic {
            file: f.name.clone(),
            line,
            rule,
            severity: Severity::Error,
            message,
        });
    }
}

/// Test-only source trees (integration tests, examples, benches, the
/// `benchmark/` harness that times raw primitives) are exercised under
/// `cfg(test)`-like conditions and are exempt from the production
/// invariants.
pub(crate) fn in_test_tree(name: &str) -> bool {
    name.split('/')
        .any(|c| matches!(c, "tests" | "examples" | "benches" | "benchmark"))
}

/// Waivers that never fired, and markers of an unknown kind, become
/// STALE-WAIVER diagnostics — warnings by default, errors under `deny`.
fn stale_waivers(facts: &[walk::FileFacts], deny: bool, sink: &mut Sink) {
    let severity = if deny {
        Severity::Error
    } else {
        Severity::Warning
    };
    for f in facts {
        if in_test_tree(&f.name) {
            continue; // rules skip test trees; their waivers can't fire
        }
        let stale = f
            .waivers
            .iter()
            .filter(|(wl, _)| !sink.used_waivers.contains(&(f.name.clone(), *wl)))
            .map(|(wl, rules)| {
                let message = format!(
                    "waiver for {} suppresses no diagnostic; remove it or \
                     re-justify it against the current rules",
                    rules.join(", ")
                );
                (*wl, message)
            });
        let unknown = f.unknown_markers.iter().map(|(line, kind)| {
            let message = format!("`volint::{kind}` is no marker volint knows; it does nothing");
            (*line, message)
        });
        for (line, message) in stale.chain(unknown) {
            sink.diags.push(Diagnostic {
                file: f.name.clone(),
                line,
                rule: Rule::StaleWaiver,
                severity,
                message,
            });
        }
    }
}

/// One walk of a set of sources, and the call graph over it: what the
/// diagnostics and the budget are both derived from.
pub struct Analysis {
    /// Per-file facts, in source order.
    pub facts: Vec<walk::FileFacts>,
    /// The call graph over `facts`.
    pub graph: callgraph::CallGraph,
}

impl Analysis {
    /// Walk in-memory sources: `(logical path, contents)` pairs.
    pub fn of(sources: &[(String, String)]) -> Analysis {
        let facts: Vec<_> = sources
            .iter()
            .map(|(name, src)| walk::walk_file(name, src))
            .collect();
        let graph = callgraph::CallGraph::build(&facts);
        Analysis { facts, graph }
    }

    /// Run the line rules, the call-graph rules (reachability from the
    /// roots → SWITCH-ALLOC / SWITCH-PANIC / SWITCH-LOOP-BOUND) and the
    /// stale-waiver sweep — stale waivers are
    /// errors under `deny_stale_waivers` (CI mode), else warnings.
    pub fn diagnostics(&self, deny_stale_waivers: bool) -> Vec<Diagnostic> {
        let reach = reach::compute(&self.graph, &self.facts);
        let mut sink = Sink::new();
        rules::check(&self.facts, &mut sink);
        pathrules::check(&self.facts, &self.graph, &reach, &mut sink);
        stale_waivers(&self.facts, deny_stale_waivers, &mut sink);

        let mut out = sink.diags;
        out.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.rule.as_str(),
            ))
        });
        out
    }

    /// The static switch-phase cycle budget.
    pub fn budget(&self) -> budget::Budget {
        budget::compute(&self.graph, &self.facts)
    }
}

/// Diagnostics for in-memory sources.
pub fn analyze_sources(sources: &[(String, String)], deny_stale_waivers: bool) -> Vec<Diagnostic> {
    Analysis::of(sources).diagnostics(deny_stale_waivers)
}

/// The static switch-phase cycle budget for in-memory sources.
pub fn budget_sources(sources: &[(String, String)]) -> budget::Budget {
    Analysis::of(sources).budget()
}

/// Diagnostics for every `.rs` file under a workspace root.
pub fn analyze_workspace(
    root: &Path,
    deny_stale_waivers: bool,
) -> std::io::Result<Vec<Diagnostic>> {
    Ok(analyze_sources(
        &workspace_sources(root)?,
        deny_stale_waivers,
    ))
}

/// The static switch-phase cycle budget for a workspace root.
pub fn budget_workspace(root: &Path) -> std::io::Result<budget::Budget> {
    Ok(budget_sources(&workspace_sources(root)?))
}

/// Every `.rs` file under `root` as `(logical path, contents)`, in
/// sorted path order.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let abs = root.join(&rel);
        let Ok(src) = std::fs::read_to_string(&abs) else {
            continue; // non-UTF8 or vanished; skip
        };
        let name = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        sources.push((name, src));
    }
    Ok(sources)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | ".github" | "fixtures" | "node_modules"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display_and_json() {
        let d = Diagnostic {
            file: "crates/x/src/a.rs".into(),
            line: 7,
            rule: Rule::VoBypass,
            severity: Severity::Error,
            message: "privileged `lidt` outside a VO".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/x/src/a.rs:7: error[VO-BYPASS]: privileged `lidt` outside a VO"
        );
        let j = d.to_json();
        assert!(j.contains(r#""rule":"VO-BYPASS""#));
        assert!(j.contains(r#""line":7"#));
    }

    #[test]
    fn analyze_sources_end_to_end() {
        let cpu = "#[doc(alias = \"volint-privileged\")]\npub fn lidt() {}\n\
                   #[doc(alias = \"volint-privileged\")]\npub fn invlpg() {}\n";
        let with_cpu = |src: &str| {
            let sources = [
                ("crates/simx86/src/cpu.rs".to_string(), cpu.to_string()),
                ("crates/app/src/x.rs".to_string(), src.to_string()),
            ];
            analyze_sources(&sources, false)
        };
        let diags = with_cpu("fn f(cpu: &Cpu) { cpu.lidt(0); }");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::VoBypass);
        assert!(with_cpu("fn f(ctx: &Ctx) { ctx.pv.invlpg(va); }").is_empty());

        // Only a marker makes a primitive privileged.
        let unmarked = "fn f(cpu: &Cpu) { cpu.lidt(0); }".to_string();
        assert!(
            analyze_sources(&[("crates/app/src/x.rs".to_string(), unmarked)], false).is_empty()
        );
    }

    /// Diagnostics and budget come from one walk: one `lex` per file.
    #[test]
    fn one_lex_per_file_for_diagnostics_and_budget() {
        let sources = [
            (
                "crates/simx86/src/cpu.rs".to_string(),
                "#[doc(alias = \"volint-privileged\")]\npub fn poke_msr() {}\n".to_string(),
            ),
            (
                "crates/app/src/x.rs".to_string(),
                "const ROW: Phase = Phase::new(\"p\", run);\n\
                 fn run(cpu: &Cpu) {\n    // volint::cost(30)\n    cpu.poke_msr();\n}\n"
                    .to_string(),
            ),
        ];
        let before = lexer::LEX_CALLS.get();
        let analysis = Analysis::of(&sources);
        let diags = analysis.diagnostics(true);
        let budget = analysis.budget();
        assert_eq!(lexer::LEX_CALLS.get() - before, sources.len());
        // The marker found in the simx86 file makes the call a bypass.
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!((diags[0].rule, diags[0].line), (Rule::VoBypass, 4));
        assert_eq!(budget.phases.get("p"), Some(&30));
    }
}
