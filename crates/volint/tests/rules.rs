//! Self-tests for the lint rules: each known-bad fixture under
//! `tests/fixtures/` carries `//~ RULE-ID` expectation comments, and
//! the produced diagnostics must match them exactly — nothing missing,
//! nothing extra.  The real workspace must come back clean.

use std::collections::BTreeSet;
use volint::{analyze_sources, analyze_workspace, Rule, Severity};

/// Parse `//~ RULE-ID` expectation comments: (line, rule-id) pairs.
fn expectations(src: &str) -> BTreeSet<(usize, String)> {
    src.lines()
        .enumerate()
        .filter_map(|(i, l)| l.split("//~").nth(1).map(|r| (i + 1, r.trim().to_string())))
        .collect()
}

/// A stand-in for `crates/simx86/src/cpu.rs` whose markers make the
/// fixtures' privileged calls VO-BYPASS targets, as the real file's do.
fn marked_cpu_stub() -> (String, String) {
    let fns: String = [
        "set_pl_raw",
        "write_cr3",
        "write_pte",
        "cli",
        "sti",
        "lidt",
        "lgdt",
        "invlpg",
    ]
    .iter()
    .map(|f| format!("#[doc(alias = \"volint-privileged\")]\npub fn {f}() {{}}\n"))
    .collect();
    ("crates/simx86/src/cpu.rs".to_string(), fns)
}

/// Run volint over one fixture under a neutral logical path (so the
/// `tests/` exemption does not apply), beside the marked stub, and
/// compare against expectations.
fn check_fixture(fname: &str, src: &str) {
    let logical = format!("fixture://{fname}");
    let diags = analyze_sources(&[(logical, src.to_string()), marked_cpu_stub()], false);
    let got: BTreeSet<(usize, String)> = diags
        .iter()
        .map(|d| (d.line, d.rule.as_str().to_string()))
        .collect();
    let want = expectations(src);
    assert_eq!(
        got, want,
        "fixture {fname}: diagnostics do not match `//~` expectations.\n\
         reported: {diags:#?}"
    );
}

#[test]
fn vo_bypass_fixture() {
    let src = include_str!("fixtures/vo_bypass_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "VO-BYPASS"));
    check_fixture("vo_bypass_bad.rs", src);
}

#[test]
fn refcount_leak_fixture() {
    let src = include_str!("fixtures/refcount_leak_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "REFCOUNT-LEAK"));
    check_fixture("refcount_leak_bad.rs", src);
}

#[test]
fn atomic_order_fixture() {
    let src = include_str!("fixtures/atomic_order_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "ATOMIC-ORDER"));
    check_fixture("atomic_order_bad.rs", src);
}

#[test]
fn atomic_order_trace_fixture() {
    let src = include_str!("fixtures/atomic_order_trace_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "ATOMIC-ORDER"));
    check_fixture("atomic_order_trace_bad.rs", src);
}

/// ATOMIC-ORDER protection also keys on the merctrace path, not just
/// the `Tracer` struct: any file under the tracing crate with a Relaxed
/// atomic is flagged.
#[test]
fn atomic_order_covers_merctrace_paths() {
    let src = "pub fn push(dropped: &AtomicU64) {\n    \
               dropped.fetch_add(1, Ordering::Relaxed);\n}\n";
    let diags = analyze_sources(
        &[("crates/merctrace/src/ring.rs".to_string(), src.to_string())],
        false,
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule.as_str() == "ATOMIC-ORDER" && d.line == 2),
        "Relaxed in a merctrace file must be flagged; got {diags:#?}"
    );
}

#[test]
fn fault_mask_fixture() {
    let src = include_str!("fixtures/fault_mask_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "FAULT-MASK"));
    check_fixture("fault_mask_bad.rs", src);
}

#[test]
fn clean_fixture_is_clean() {
    let src = include_str!("fixtures/clean_good.rs");
    assert!(expectations(src).is_empty());
    check_fixture("clean_good.rs", src);
}

/// Tier-1 wiring: the real workspace must satisfy every invariant.
/// This is the same check `cargo run -p volint` performs in CI.
#[test]
fn real_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("volint lives at <ws>/crates/volint")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    let diags = analyze_workspace(&root, false).expect("workspace must be readable");
    let errors: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "workspace has invariant violations:\n{}",
        errors
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // FAULT-MASK and REFCOUNT-LEAK match by name: an entry that names
    // no product fn or hook macro (a rename, a deleted walk) would
    // silently stop covering it.
    let sources = volint::workspace_sources(&root).expect("workspace must be readable");
    let defined: BTreeSet<String> = sources
        .iter()
        .filter(|(name, _)| name.starts_with("crates/") && name.contains("/src/"))
        .flat_map(|(name, src)| volint::walk::walk_file(name, src).fns)
        .filter(|f| !f.in_test)
        .map(|f| f.name)
        .collect();
    for (list, names) in [
        ("SWITCH_CRITICAL", volint::rules::SWITCH_CRITICAL),
        ("BLOCKING_CALLS", volint::rules::BLOCKING_CALLS),
    ] {
        for name in names {
            assert!(
                defined.contains(*name),
                "{list} names `{name}`, which no product fn is called"
            );
        }
    }
    let faultgen: String = sources
        .iter()
        .filter(|(name, _)| name.starts_with("crates/faultgen/src/"))
        .map(|(_, src)| src.as_str())
        .collect();
    for hook in volint::rules::FAULT_HOOKS {
        assert!(
            faultgen.contains(&format!("macro_rules! {hook} ")),
            "FAULT_HOOKS names `{hook}`, which is no faultgen macro"
        );
    }
}

/// The privileged set is `simx86`'s `#[doc(alias = "volint-privileged")]`
/// markers and nothing else, so the markers across all of its sources
/// must be exactly these 19 primitives: a dropped or an added marker
/// changes what VO-BYPASS checks, and fails here until this list says so.
#[test]
fn simx86_markers_are_discovered() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .unwrap()
        .to_path_buf();
    let marked: BTreeSet<String> = volint::workspace_sources(&root.join("crates/simx86/src"))
        .unwrap()
        .iter()
        .flat_map(|(name, src)| volint::walk::walk_file(name, src).fns)
        .filter(|f| f.privileged)
        .map(|f| f.name)
        .collect();
    let want: BTreeSet<String> = [
        // cpu.rs
        "set_pl_raw",
        "write_cr3",
        "read_cr3",
        "set_cr3_raw",
        "flush_tlb_local",
        "request_tlb_flush",
        "invlpg",
        "cli",
        "sti",
        "set_if_raw",
        "lidt",
        "set_idt_raw",
        "replace_idt_raw",
        "lgdt",
        "set_gdt_raw",
        "set_non_root",
        // mem.rs
        "write_pte",
        "write_ptes",
        // intc.rs
        "broadcast_ipi",
    ]
    .map(String::from)
    .into();
    assert_eq!(marked, want, "simx86's privileged markers changed");
}

// ---------------------------------------------------------------
// v2: call-graph rules (reachability from `volint::root` markers)
// ---------------------------------------------------------------

#[test]
fn switch_alloc_fixture() {
    let src = include_str!("fixtures/switch_alloc_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "SWITCH-ALLOC"));
    check_fixture("switch_alloc_bad.rs", src);
}

#[test]
fn switch_panic_fixture() {
    let src = include_str!("fixtures/switch_panic_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "SWITCH-PANIC"));
    check_fixture("switch_panic_bad.rs", src);
}

#[test]
fn loop_bound_fixture() {
    let src = include_str!("fixtures/loop_bound_bad.rs");
    assert!(expectations(src)
        .iter()
        .any(|(_, r)| r == "SWITCH-LOOP-BOUND"));
    check_fixture("loop_bound_bad.rs", src);
}

#[test]
fn stale_waiver_fixture() {
    let src = include_str!("fixtures/stale_waiver_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "STALE-WAIVER"));
    check_fixture("stale_waiver_bad.rs", src);
}

/// `--deny-stale-waivers` turns the advisory into a build-breaking
/// error; the *used* waiver in the same fixture must stay silent.
#[test]
fn stale_waiver_escalates_under_deny() {
    let src = include_str!("fixtures/stale_waiver_bad.rs");
    let diags = analyze_sources(
        &[("fixture://stale_waiver_bad.rs".to_string(), src.to_string())],
        true,
    );
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule.as_str(), "STALE-WAIVER");
    assert_eq!(diags[0].severity, Severity::Error);
}

/// A marker of an unknown kind — a retired `prune`, a misspelt
/// `allow` — is reported under the same hygiene rule, and the
/// diagnostic the misspelt waiver meant to waive still fires.
#[test]
fn unknown_marker_fixture() {
    let src = include_str!("fixtures/unknown_marker_bad.rs");
    assert!(expectations(src).iter().any(|(_, r)| r == "STALE-WAIVER"));
    check_fixture("unknown_marker_bad.rs", src);
}

// ---------------------------------------------------------------
// v2: call-graph resolution coverage
// ---------------------------------------------------------------

/// Trait-object dispatch: the receiver field is typed `dyn Trait`, the
/// method lives on the concrete impl.  Resolution goes field-type →
/// (no trait methods recorded, signatures have no body) → unique-name
/// tier, landing on the impl — whose allocations are then on-path.
#[test]
fn callgraph_resolves_trait_object_calls() {
    let src = r#"
pub trait PvOps {
    fn commit_shadow(&self);
}

pub struct RealOps;

impl PvOps for RealOps {
    fn commit_shadow(&self) {
        let mut scratch = Vec::new(); //~ SWITCH-ALLOC
        scratch.push(0u8); //~ SWITCH-ALLOC
    }
}

pub struct Monitor {
    ops: Box<dyn PvOps>,
}

impl Monitor {
    // volint::root(SWITCH)
    pub fn handle_switch(&self) {
        self.ops.commit_shadow();
    }
}
"#;
    check_fixture("trait_object.rs", src);
}

/// Macro invocations are not call edges, and `macro_rules!` bodies do
/// not define resolvable fns: neither the fn named in the macro args
/// nor the macro-generated handler welds its allocations onto the
/// switch path.
#[test]
fn callgraph_macros_do_not_create_edges() {
    let src = r#"
pub fn expensive_rebuild() {
    let mut v = Vec::new();
    v.push(1u32);
}

macro_rules! mk_handler {
    ($name:ident) => {
        pub fn $name() {
            let mut buf = Vec::with_capacity(64);
            buf.push(0u8);
        }
    };
}

mk_handler!(gen_handler);

pub struct Ctl;

impl Ctl {
    // volint::root(SWITCH)
    pub fn handle_switch(&self) {
        deferred!(expensive_rebuild);
        gen_handler();
        self.noop();
    }
    fn noop(&self) {}
}
"#;
    check_fixture("macro_edges.rs", src);
}

/// Two impls share a method name: `self.method()` resolves to the
/// *enclosing* impl only, so the shadow impl's allocation stays
/// off-path.
#[test]
fn callgraph_shadowed_method_names_stay_separate() {
    let src = r#"
pub struct HotPath;
pub struct ColdPath;

impl HotPath {
    // volint::root(SWITCH)
    pub fn handle_switch(&self) {
        self.flush_state();
    }
    fn flush_state(&self) {
        std::hint::spin_loop();
    }
}

impl ColdPath {
    fn flush_state(&self) {
        let mut log = Vec::new();
        log.push(3u64);
    }
}
"#;
    check_fixture("shadowed_names.rs", src);
}

/// Reachability crosses crate boundaries: a root in one source file
/// reaches a free fn defined in another, and the diagnostics land in
/// the *callee's* file with the callee's lines.
#[test]
fn callgraph_crosses_crate_boundaries() {
    let core_src = "\
pub struct Switcher;

impl Switcher {
    // volint::root(SWITCH)
    pub fn handle_switch(&self) {
        xenon_recompute_frames();
    }
}
";
    let xenon_src = "\
pub fn xenon_recompute_frames() {
    let mut scratch = Vec::new();
    scratch.push(0usize);
}
";
    let diags = analyze_sources(
        &[
            (
                "fixture://core/switchx.rs".to_string(),
                core_src.to_string(),
            ),
            (
                "fixture://xenon/recompute.rs".to_string(),
                xenon_src.to_string(),
            ),
        ],
        false,
    );
    let allocs: Vec<_> = diags
        .iter()
        .filter(|d| d.rule.as_str() == "SWITCH-ALLOC")
        .collect();
    assert_eq!(allocs.len(), 2, "{diags:#?}");
    assert!(
        allocs
            .iter()
            .all(|d| d.file == "fixture://xenon/recompute.rs"),
        "{allocs:#?}"
    );
    assert_eq!(
        allocs.iter().map(|d| d.line).collect::<BTreeSet<_>>(),
        [2usize, 3usize].into_iter().collect::<BTreeSet<_>>()
    );
}

/// Reachability starts at roots, full stop: with no root marker the
/// switch-path rules make no claims, however alloc-heavy the code.
#[test]
fn no_root_means_no_switch_path_findings() {
    let src = "\
pub fn rebuild_everything() {
    let mut v = Vec::new();
    v.push(1u32);
    let first = v.first().unwrap();
    assert!(*first == 1);
    for _ in 0..*first {
        std::hint::spin_loop();
    }
}
";
    let diags = analyze_sources(
        &[("fixture://no_root.rs".to_string(), src.to_string())],
        false,
    );
    assert!(diags.is_empty(), "{diags:#?}");
}

// ---------------------------------------------------------------
// v2: static cycle budget
// ---------------------------------------------------------------

/// End-to-end budget computation over sources: cost markers scale by
/// enclosing loop bounds; calls charge the callee's memoized cost; the
/// span's probe name becomes the phase key.
#[test]
fn budget_integration_costs_scale_by_bounds() {
    let src = r#"
pub struct Vm;

impl Vm {
    pub fn attach(&self, cpu: &Cpu) {
        merctrace::span_begin!(cpu.id, "switch.fixup", cpu.cycles());
        // volint::bound(4)
        for _ in frames() {
            // volint::cost(100)
            tick(cpu);
        }
        self.settle(cpu);
        merctrace::span_end!(cpu.id, "switch.fixup", cpu.cycles());
    }

    fn settle(&self, _cpu: &Cpu) {
        // volint::cost(50)
        touch();
    }
}
"#;
    let b = volint::budget_sources(&[("fixture://budget.rs".to_string(), src.to_string())]);
    // 4 * 100 from the loop, + 50 from the callee.
    assert_eq!(b.phases.get("switch.fixup"), Some(&450));
    assert!((b.us("switch.fixup").unwrap() - 0.15).abs() < 1e-9);
}

/// A transition-table row ties a probe name to the fns the driver
/// reaches only through pointers: the row prices them under that name,
/// roots them for the switch-path rules, and makes them switch-critical.
#[test]
fn transition_rows_price_root_and_mask_their_fns() {
    let src = r#"
pub struct Vm;

const FLIP: Phase = Phase::new("switch.flip", Vm::tables_ro::<true>, Vm::tables_rw);

impl Vm {
    fn tables_ro<const STRICT: bool>(&self, cpu: &Cpu) {
        // volint::bound(8)
        for _ in frames() {
            // volint::cost(10)
            tick(cpu);
        }
    }

    fn tables_rw(&self, cpu: &Cpu) {
        // volint::cost(200)
        let scratch = Vec::new();
        faultgen::mem_read_site!(cpu.id, cpu.cycles());
    }

    fn unrelated(&self) {
        let scratch = Vec::new();
    }
}
"#;
    let sources = [("crates/app/src/vm.rs".to_string(), src.to_string())];
    // MAX over the row's fns: it may be walked in either direction.
    let b = volint::budget_sources(&sources);
    assert_eq!(b.phases.get("switch.flip"), Some(&200));
    let got: BTreeSet<(usize, Rule)> = analyze_sources(&sources, false)
        .iter()
        .map(|d| (d.line, d.rule))
        .collect();
    let want: BTreeSet<(usize, Rule)> = [(15, Rule::FaultMask), (17, Rule::SwitchAlloc)]
        .into_iter()
        .collect();
    assert_eq!(got, want);
}

/// The committed `volint_budget.json` must be exactly what the
/// analyzer emits for the current sources — CI enforces this with a
/// byte compare, the test mirrors it so drift fails locally first.
#[test]
fn committed_budget_matches_sources() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("volint lives at <ws>/crates/volint")
        .to_path_buf();
    let committed = std::fs::read_to_string(root.join("volint_budget.json"))
        .expect("volint_budget.json must be committed at the workspace root");
    let budget = volint::budget_workspace(&root).expect("workspace must be readable");
    assert_eq!(
        committed,
        budget.to_json(),
        "volint_budget.json is stale; regenerate with \
         `cargo run -p volint -- --budget volint_budget.json`"
    );
}

// ---------------------------------------------------------------
// FORBIDDEN: facts stated once
// ---------------------------------------------------------------

/// One `FORBIDDEN` row's fixture, analysed under the row's real
/// logical paths.  `wrap` places `LINES` (each using one of the row's
/// sequences) in code: at `path` each line fires, and so does its copy
/// in a `#[cfg(test)]` module that is not last in the file iff the row
/// covers `tests`; the same lines in comments and string literals never
/// fire, and at an `allowed` path nothing fires.  The `FORBIDDEN` waiver
/// above `clean` has nothing to suppress and is reported stale.
fn forbidden_fixture(path: &str, wrap: &str, lines: &[&str], tests: bool, allowed: &[&str]) {
    let planted = |mark: &str| -> String { lines.iter().map(|l| format!("{l}{mark}\n")).collect() };
    let quoted: String = lines
        .iter()
        .map(|l| format!("// {l}\nconst QUOTED: &str = {l:?};\n"))
        .collect();
    let src = format!(
        "{}{quoted}#[cfg(test)]\nmod tests {{\n{}}}\n\
         // volint::allow(FORBIDDEN): nothing here to waive //~ STALE-WAIVER\n\
         fn clean() {{}}\n#[cfg(test)]\nmod last {{}}\n",
        wrap.replace("LINES", &planted(" //~ FORBIDDEN")),
        wrap.replace("LINES", &planted(if tests { " //~ FORBIDDEN" } else { "" })),
    );
    let got = |logical: &str| -> BTreeSet<(usize, String)> {
        analyze_sources(&[(logical.to_string(), src.clone())], false)
            .iter()
            .map(|d| (d.line, d.rule.as_str().to_string()))
            .collect()
    };
    let want = expectations(&src);
    assert!(want.iter().any(|(_, r)| r == "FORBIDDEN"));
    assert_eq!(got(path), want, "{path}:\n{src}");
    let stale: BTreeSet<_> = want
        .into_iter()
        .filter(|(_, r)| r == "STALE-WAIVER")
        .collect();
    for file in allowed {
        assert_eq!(got(file), stale, "{file}:\n{src}");
    }
}

const IN_FN: &str = "fn planted() {\nLINES}\n";

#[test]
fn forbidden_bring_up_fixture() {
    let lines = [
        "let config = KernelConfig { cpus: 1 };",
        "let native = NativeBlockDriver::new(machine, bounce);",
        "let front = FrontendBlockDriver::new(hv, dom, back, buf, port);",
        "let back = BlkBackend::new(hv, dom0, domu, native, ring);",
    ];
    let allowed = [
        "crates/core/src/stack.rs",
        "crates/workloads/src/configs.rs",
    ];
    let path = "crates/cluster/src/maintenance.rs";
    forbidden_fixture(path, IN_FN, &lines, true, &allowed);
}

#[test]
fn forbidden_on_demand_flag_fixture() {
    let lines = ["let was_native = mercury.reach(ExecMode::Virtual, cpu)?;"];
    let allowed = ["crates/core/src/switch.rs"];
    let path = "crates/cluster/src/maintenance.rs";
    forbidden_fixture(path, IN_FN, &lines, true, &allowed);
    // The umbrella crate's `src/` is in scope too: a report bin is product code.
    forbidden_fixture("src/bin/serving_tail.rs", IN_FN, &lines, true, &allowed);
    // `crates/*/src/` and `src/` are the scope: an integration test may keep a flag.
    let flag = format!("fn t() {{\n{}\n}}\n", lines[0]);
    assert!(analyze_sources(&[("crates/core/tests/stress.rs".into(), flag)], true).is_empty());
}

#[test]
fn forbidden_on_demand_arm_fixture() {
    let lines = ["if let Ok(SwitchOutcome::Deferred { .. }) = outcome {}"];
    let allowed = [
        "crates/core/src/switch.rs",
        "crates/cluster/src/watchdog.rs",
    ];
    forbidden_fixture("crates/servo/src/lib.rs", IN_FN, &lines, true, &allowed);
}

#[test]
fn forbidden_campaign_args_fixture() {
    let lines = ["let argv: Vec<String> = std::env::args().collect();"];
    let allowed = ["src/campaign.rs"];
    let path = "src/bin/serving_tail.rs";
    forbidden_fixture(path, IN_FN, &lines, true, &allowed);
}

#[test]
fn forbidden_campaign_planner_fixture() {
    let lines = ["let frame = 15_000 + rng.below(1_000) as u32;"];
    let allowed = ["src/campaign.rs"];
    let path = "src/bin/fault_campaign.rs";
    forbidden_fixture(path, IN_FN, &lines, true, &allowed);
    // The integration test that plants flips is in scope too.
    let planner = format!("fn t() {{\n{}\n}}\n", lines[0]);
    let got = analyze_sources(&[("tests/watchdog_under_load.rs".into(), planner)], true);
    assert_eq!(got.len(), 1);
    assert_eq!((got[0].line, got[0].rule.as_str()), (2, "FORBIDDEN"));
}

#[test]
fn forbidden_campaign_helpers_fixture() {
    let lines = [
        "fn watchdog_for(mercury: &Mercury) {}",
        "struct SwitchTotals;",
        "struct SwitchSnap;",
    ];
    forbidden_fixture("src/lib.rs", IN_FN, &lines, true, &[]);
}

#[test]
fn forbidden_write_stamps_fixture() {
    let lines = [
        "table.take_dirty(frame);",
        "table.reset_dirty_for(dom);",
        "let n = table.count_dirty_for(dom);",
        "let v = table.dirty_frames_for(dom);",
        "let f = table.take_dirty_frame_for(dom);",
        "scrubber.retarget(table);",
        "mercury.bind_scrubber(scrubber);",
        "strip_dirty(frame);",
        "let since = mem.checkpoint();",
        "if mem.stored_since(frame, since) {}",
        "let fresh = mem.stored_between(frame, since, upto);",
    ];
    let allowed = [
        "crates/simx86/src/mem.rs",
        "crates/xenon/src/page_info.rs",
        "crates/xenon/src/rounds.rs",
    ];
    forbidden_fixture("crates/core/src/switch.rs", IN_FN, &lines, true, &allowed);
    forbidden_fixture("crates/xenon/src/migrate.rs", IN_FN, &lines, true, &allowed);
}

#[test]
fn forbidden_cpu_state_fixture() {
    let lines = [
        "self.clock.fetch_add(cycles, Ordering::Relaxed);",
        "self.clock.fetch_sub(cycles, Ordering::Relaxed);",
        "let was = self.in_service.swap(true, Ordering::AcqRel);",
        "let owner: Mutex<u64>;",
    ];
    forbidden_fixture("crates/simx86/src/cpu.rs", IN_FN, &lines, false, &[]);
}

#[test]
fn forbidden_tlb_state_fixture() {
    let lines = [
        "self.fingerprints[set].fetch_or(bit, Ordering::AcqRel);",
        "let gen = self.generation.swap(0, Ordering::AcqRel);",
        "let _ = self.tags[i].compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Acquire);",
        "let entries: Mutex<Vec<u64>>;",
        "let entries: RwLock<Vec<u64>>;",
    ];
    forbidden_fixture("crates/simx86/src/tlb.rs", IN_FN, &lines, false, &[]);
}

#[test]
fn forbidden_session_fixture() {
    let lines = [
        "let pv = self.kernel.pv();",
        "let disk = self.kernel.block_driver();",
        "let nic = self.kernel.net_driver();",
    ];
    forbidden_fixture("crates/nimbus/src/session.rs", IN_FN, &lines, false, &[]);
}

/// The kernel's row also covers the page-fault path, which reads its VO
/// from the faulting thread's copy: `pv()` is a finding in the handler,
/// its sink and `user_access`, and not in the kernel's other fns.
#[test]
fn forbidden_fault_path_bodies_fixture() {
    let wrap = "impl Kernel {\n\
                pub fn handle_page_fault(&self) {\nLINES}\n\
                pub fn user_access(&self) {\nLINES}\n\
                pub fn mprotect(&self) {\nlet pv = self.pv();\n}\n}\n\
                impl InterruptSink for PageFaultSink {\n\
                fn handle(&self) {\nLINES}\n}\n";
    let lines = ["let pv = k.pv();"];
    forbidden_fixture("crates/nimbus/src/kernel.rs", wrap, &lines, false, &[]);
}

/// The kernel's row covers the bodies of the syscalls a session hands
/// its drivers to, and no other fn: `Kernel::sync` keeps its lookup.
#[test]
fn forbidden_syscall_bodies_fixture() {
    let wrap = "impl Kernel {\n\
                pub fn read(&self) -> Result<(), KernelError> {\nLINES}\n\
                pub fn sync(&self) -> Result<(), KernelError> {\n\
                self.block_driver()?.flush(cpu)\n}\n}\n";
    let lines = [
        "let disk = self.block_driver()?;",
        "let nic = self.net_driver()?;",
    ];
    forbidden_fixture("crates/nimbus/src/kernel.rs", wrap, &lines, false, &[]);
}

/// A published slot's stamp is read and stored in `simx86::sync`
/// alone: the page-fault path's hand-made copy of the VO, planted back
/// in the kernel, is a finding, and so are its stamp reads in a
/// session or a CPU.
#[test]
fn forbidden_published_stamp_fixture() {
    let wrap = "impl Kernel {\n\
                fn fault_pv(&self) -> Rc<FaultPv> {\n\
                LINES\
                let hit = FAULT_PV.with_borrow(|pv| pv.as_ref().filter(|pv| pv.stamp == stamp).map(Rc::clone));\n\
                if let Some(pv) = hit {\nreturn pv;\n}\n\
                let fresh = Rc::new(FaultPv { stamp, pv: self.pv.get() });\n\
                let _old = FAULT_PV.with_borrow_mut(|pv| pv.replace(Rc::clone(&fresh)));\n\
                fresh\n}\n}\n";
    let lines = ["let stamp = self.pv.stamp.load(Ordering::Acquire);"];
    let allowed = ["crates/simx86/src/sync.rs"];
    forbidden_fixture("crates/nimbus/src/kernel.rs", wrap, &lines, false, &allowed);
    let lines = [
        "let stamp = slot.stamp.load(Ordering::Acquire);",
        "self.stamp.store(stamp + 1, Ordering::Release);",
    ];
    for path in ["crates/nimbus/src/session.rs", "crates/simx86/src/cpu.rs"] {
        forbidden_fixture(path, IN_FN, &lines, false, &allowed);
    }
}
