//! `cargo run -p volint` — check the Mercury workspace invariants.
//!
//! Usage: `volint [--json] [--deny-stale-waivers] [--budget PATH] [ROOT]`
//!
//! `ROOT` defaults to the workspace root (two levels above this
//! crate's manifest when built by cargo, else the current directory).
//! `--deny-stale-waivers` turns unused `volint::allow(..)` comments
//! into errors (the CI gate).  `--budget PATH` additionally emits the
//! static switch-phase cycle budget (`volint_budget.json` shape) that
//! `tools/benchgate.py` cross-checks against the measured timeline.
//! Exits 0 when no errors were found, 1 on violations, 2 on I/O
//! failure.

use std::path::PathBuf;
use std::process::ExitCode;
use volint::{workspace_sources, Analysis, Severity};

const USAGE: &str = "usage: volint [--json] [--deny-stale-waivers] [--budget PATH] [ROOT]";

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_stale = false;
    let mut budget_path: Option<PathBuf> = None;
    let mut want_budget_path = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if want_budget_path {
            budget_path = Some(PathBuf::from(&arg));
            want_budget_path = false;
            continue;
        }
        match arg.as_str() {
            "--json" => json = true,
            "--deny-stale-waivers" => deny_stale = true,
            "--budget" => want_budget_path = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("volint: unknown option `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            other => {
                if let Some(prev) = &root {
                    eprintln!(
                        "volint: multiple roots given ({} and {other}); pass exactly one",
                        prev.display()
                    );
                    return ExitCode::from(2);
                }
                root = Some(PathBuf::from(other));
            }
        }
    }
    if want_budget_path {
        eprintln!("volint: --budget requires a PATH argument");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let root = root.unwrap_or_else(default_root);

    let analysis = match workspace_sources(&root) {
        Ok(sources) => Analysis::of(&sources),
        Err(e) => {
            eprintln!("volint: cannot read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let diags = analysis.diagnostics(deny_stale);

    if json {
        println!("[");
        for (i, d) in diags.iter().enumerate() {
            let comma = if i + 1 == diags.len() { "" } else { "," };
            println!("  {}{comma}", d.to_json());
        }
        println!("]");
    } else {
        for d in &diags {
            println!("{d}");
        }
    }

    if let Some(path) = &budget_path {
        let budget = analysis.budget();
        if let Err(e) = std::fs::write(path, budget.to_json()) {
            eprintln!("volint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !json {
            println!(
                "volint: wrote static budget for {} phase(s) to {}",
                budget.phases.len(),
                path.display()
            );
        }
    }

    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if json {
        // machine mode: the array is the whole output
    } else if errors == 0 {
        println!(
            "volint: workspace at {} is clean (0 violations)",
            root.display()
        );
    } else {
        eprintln!("volint: {errors} violation(s)");
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The workspace root: `<manifest>/../..` when built under cargo
/// (crates/volint -> workspace), else the current directory.
fn default_root() -> PathBuf {
    if let Some(manifest) = option_env!("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(ws) = p.parent().and_then(|p| p.parent()) {
            if ws.join("Cargo.toml").exists() {
                return ws.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}
