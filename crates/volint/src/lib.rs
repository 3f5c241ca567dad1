//! volint — the Mercury invariant checker.
//!
//! Mercury's safety story rests on invariants the Rust compiler cannot
//! see: every virtualization-sensitive operation must route through a
//! Virtualization Object (paper §4.2/§5.3), every `VoRefCount::enter`
//! must pair with an exit so the switch gate (§5.1.1) is sound, the
//! `PvOps` dispatch table must be total across VOes (§5.1.2), the SMP
//! rendezvous protocol (§5.4) must use acquire/release atomics, and
//! the fault-injection hooks (DESIGN.md §12) must stay out of the
//! mode-switch critical section.  volint enforces all five as a static
//! pass over the workspace source.
//!
//! Use it as a library ([`analyze_sources`] / [`analyze_workspace`]
//! produce structured [`Diagnostic`]s) or as a binary
//! (`cargo run -p volint`) that exits nonzero on violations.
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
pub mod markers;
pub mod parse;
pub mod pathrules;
pub mod reach;
pub mod rules;
pub mod scan;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The root kinds the reachability engine walks.  `SWITCH` tags the
/// mode-switch entry points (and the xenon hypercall dispatch);
/// `RENDEZVOUS` tags the paths that run inside a rendezvous round.
pub const ROOT_KINDS: &[&str] = &["SWITCH", "RENDEZVOUS"];

/// The invariant a diagnostic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Privileged primitive reached outside a VO (paper §4.2/§5.3).
    VoBypass,
    /// Unbalanced / leaked / deadlocking VO guard (paper §5.1.1).
    RefcountLeak,
    /// Incomplete dispatch table or un-reset rendezvous state (§5.1.2/§5.4).
    DispatchGap,
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
    /// `guarded_by(..)` field touched outside its guard's reach set
    /// (graph rule; static complement of dyncheck's vector clocks).
    LockDiscipline,
    /// `volint::allow(..)` waiver that no longer suppresses anything.
    StaleWaiver,
}

impl Rule {
    /// Stable rule identifier, as used in waiver comments and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::VoBypass => "VO-BYPASS",
            Rule::RefcountLeak => "REFCOUNT-LEAK",
            Rule::DispatchGap => "DISPATCH-GAP",
            Rule::AtomicOrder => "ATOMIC-ORDER",
            Rule::FaultMask => "FAULT-MASK",
            Rule::SwitchAlloc => "SWITCH-ALLOC",
            Rule::SwitchPanic => "SWITCH-PANIC",
            Rule::SwitchLoopBound => "SWITCH-LOOP-BOUND",
            Rule::LockDiscipline => "LOCK-DISCIPLINE",
            Rule::StaleWaiver => "STALE-WAIVER",
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

/// Lint configuration: the privileged-op set, sanctioned paths and
/// dispatch conventions.
#[derive(Debug, Clone)]
pub struct Config {
    /// Names of privileged hardware primitives (VO-BYPASS targets).
    pub privileged: BTreeSet<String>,
    /// Path prefixes exempt from VO-BYPASS: the hardware model itself,
    /// the VMM, and the designated switch-handler module.
    pub allow_paths: Vec<String>,
    /// The paravirtualization dispatch trait.
    pub pvops_trait: String,
    /// The canonical VO implementations that must all exist.
    pub vo_impls: Vec<String>,
    /// Receiver names that denote routed-through-PvOps dispatch
    /// (`ctx.pv.invlpg(..)`).
    pub dispatch_receivers: BTreeSet<String>,
    /// Calls that block on a pending switch or rendezvous; holding a VO
    /// guard across them deadlocks (REFCOUNT-LEAK).
    pub blocking_calls: BTreeSet<String>,
    /// The `faultgen` injection-hook entry points (FAULT-MASK targets).
    pub fault_hooks: BTreeSet<String>,
    /// Functions forming the mode-switch critical section, besides those
    /// the transition-table rows name; no fault hooks in them (FAULT-MASK).
    pub switch_critical: BTreeSet<String>,
    /// Report stale waivers as errors instead of warnings (CI mode,
    /// `--deny-stale-waivers`).
    pub deny_stale_waivers: bool,
}

impl Config {
    /// The configuration for the Mercury workspace.
    pub fn mercury_defaults() -> Self {
        let privileged = [
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
        let receivers = ["pv", "inner", "ops"];
        let blocking = [
            "switch_to_virtual",
            "switch_to_native",
            "wait_ready",
            "wait_done",
            "wait_ready_and_go",
            "check_in_and_wait",
            "check_in_and_wait_serving",
            "wait_drained",
        ];
        let fault_hooks = [
            "mem_read_site",
            "disk_site",
            "irq_site",
            "gate_site",
            "hypercall_site",
        ];
        // The phase bodies themselves are added from the table rows.
        let switch_critical = [
            "handle_transition",
            "run_transition",
            "handle_rendezvous_peer",
            "reload_and_return",
            "close_lazy_window",
            "sharded_recompute_phase",
            "shard_exec_one",
            "shard_poll",
        ];
        Config {
            privileged: privileged.iter().map(|s| s.to_string()).collect(),
            allow_paths: vec![
                "crates/simx86/".to_string(),
                "crates/xenon/".to_string(),
                "crates/core/src/switch.rs".to_string(),
            ],
            pvops_trait: "PvOps".to_string(),
            vo_impls: vec![
                "BareOps".to_string(),
                "XenOps".to_string(),
                "HvmOps".to_string(),
            ],
            dispatch_receivers: receivers.iter().map(|s| s.to_string()).collect(),
            blocking_calls: blocking.iter().map(|s| s.to_string()).collect(),
            fault_hooks: fault_hooks.iter().map(|s| s.to_string()).collect(),
            switch_critical: switch_critical.iter().map(|s| s.to_string()).collect(),
            deny_stale_waivers: false,
        }
    }
}

/// Diagnostic collector that also tracks which waivers actually
/// suppressed something, so unused waivers can be reported as
/// [`Rule::StaleWaiver`].
#[derive(Debug, Default)]
pub struct Sink {
    /// Collected diagnostics (unsorted; [`analyze_sources`] sorts).
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
    pub fn push(&mut self, f: &scan::FileFacts, rule: Rule, line: usize, message: String) {
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

/// Type-ident wrappers skipped when mapping a struct field to the
/// user type it holds (`shard_job: Mutex<Option<Arc<WorkQueue<..>>>>`
/// maps to `WorkQueue`).
const TYPE_WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Option", "Vec", "VecDeque", "Mutex", "RwLock", "RefCell", "Cell",
    "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Result",
];

/// Field name → declared user type, for receiver-by-field call
/// resolution (`self.kernel.fix_kstack_selectors()` → `Kernel`).
fn field_type_map(facts: &[scan::FileFacts]) -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    for f in facts {
        if in_test_tree(&f.name) {
            continue;
        }
        for fd in &f.fields {
            if fd.in_test {
                continue;
            }
            if let Some(t) = fd.type_idents.iter().find(|t| {
                t.starts_with(|c: char| c.is_ascii_uppercase())
                    && !TYPE_WRAPPERS.contains(&t.as_str())
            }) {
                m.entry(fd.field_name.clone()).or_insert_with(|| t.clone());
            }
        }
    }
    m
}

/// Waivers that never fired become STALE-WAIVER diagnostics — warnings
/// by default, errors under [`Config::deny_stale_waivers`].
fn stale_waivers(facts: &[scan::FileFacts], cfg: &Config, sink: &mut Sink) {
    for f in facts {
        if in_test_tree(&f.name) {
            continue; // rules skip test trees; their waivers can't fire
        }
        for (wl, rules) in &f.waivers {
            if sink.used_waivers.contains(&(f.name.clone(), *wl)) {
                continue;
            }
            sink.diags.push(Diagnostic {
                file: f.name.clone(),
                line: *wl,
                rule: Rule::StaleWaiver,
                severity: if cfg.deny_stale_waivers {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                message: format!(
                    "waiver for {} suppresses no diagnostic; remove it or \
                     re-justify it against the current rules",
                    rules.join(", ")
                ),
            });
        }
    }
}

/// Analyze in-memory sources: `(logical path, contents)` pairs.
///
/// Runs both the line-level rules (PR 1) and the call-graph rules:
/// parse → call graph → reachability → SWITCH-ALLOC / SWITCH-PANIC /
/// SWITCH-LOOP-BOUND / LOCK-DISCIPLINE, then the stale-waiver sweep.
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    let facts: Vec<_> = sources
        .iter()
        .map(|(name, src)| scan::scan_file(name, src))
        .collect();
    let parsed: Vec<_> = sources
        .iter()
        .map(|(name, src)| parse::parse_file(name, src))
        .collect();
    let field_types = field_type_map(&facts);
    let graph = callgraph::CallGraph::build(&parsed, &field_types);
    let reach = reach::compute(&graph, &parsed, ROOT_KINDS);

    // Every fn a transition-table row names is switch-critical too.
    let mut cfg = cfg.clone();
    cfg.switch_critical.extend(
        parsed
            .iter()
            .flat_map(|p| &p.rows)
            .flat_map(|r| r.fns.iter().map(|(_, name)| name.clone())),
    );
    let cfg = &cfg;

    let mut sink = Sink::new();
    rules::check(&facts, cfg, &mut sink);
    pathrules::check(&facts, &parsed, &graph, &reach, &field_types, &mut sink);
    stale_waivers(&facts, cfg, &mut sink);

    let mut out = sink.diags;
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    out
}

/// Compute the static switch-phase cycle budget for in-memory sources.
pub fn budget_sources(sources: &[(String, String)]) -> budget::Budget {
    let facts: Vec<_> = sources
        .iter()
        .map(|(name, src)| scan::scan_file(name, src))
        .collect();
    let parsed: Vec<_> = sources
        .iter()
        .map(|(name, src)| parse::parse_file(name, src))
        .collect();
    let field_types = field_type_map(&facts);
    let graph = callgraph::CallGraph::build(&parsed, &field_types);
    budget::compute(&graph, &parsed)
}

/// Compute the static switch-phase cycle budget for a workspace root.
pub fn budget_workspace(root: &Path) -> std::io::Result<budget::Budget> {
    Ok(budget_sources(&workspace_sources(root)?))
}

/// Walk a workspace root, analyze every `.rs` file, and return the
/// diagnostics.  The privileged-op set is augmented with every
/// `#[doc(alias = "volint-privileged")]` marker found under
/// `crates/simx86/`, so the hardware layer stays the source of truth.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Diagnostic>> {
    let sources = workspace_sources(root)?;
    let mut cfg = cfg.clone();
    for (name, src) in &sources {
        if name.starts_with("crates/simx86/") {
            for m in markers::scan(src) {
                cfg.privileged.insert(m);
            }
        }
    }
    Ok(analyze_sources(&sources, &cfg))
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
        let cfg = Config::mercury_defaults();
        let bad = "fn f(cpu: &Cpu) { cpu.lidt(0); }".to_string();
        let diags = analyze_sources(&[("crates/app/src/x.rs".to_string(), bad)], &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::VoBypass);

        let routed = "fn f(ctx: &Ctx) { ctx.pv.invlpg(va); }".to_string();
        let diags = analyze_sources(&[("crates/app/src/x.rs".to_string(), routed)], &cfg);
        assert!(diags.is_empty());
    }
}
