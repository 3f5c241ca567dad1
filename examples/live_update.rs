//! §6.4 — live kernel update: attach the VMM, patch the kernel under
//! its mediation, detach, all without stopping applications.
//!
//! ```text
//! cargo run --example live_update
//! ```

use mercury::scenarios::live_update;
use mercury::{AssistMode, NodeConfig, Stack, TrackingStrategy};
use nimbus::Session;
use std::sync::Arc;

fn main() {
    let Stack {
        machine,
        kernel,
        mercury,
        ..
    } = Stack::build(
        &NodeConfig::default(),
        TrackingStrategy::RecomputeOnSwitch,
        AssistMode::Software,
    );
    let cpu = machine.boot_cpu();

    // A long-running service with open state.
    let sess = Session::new(Arc::clone(&kernel), 0);
    let fd = sess.open("service.db", true).unwrap();
    sess.write(fd, b"records...").unwrap();
    println!(
        "service running; kernel unpatched: {:?}",
        kernel.patch_version("cve-2026-0001")
    );

    // Apply a security fix live.
    let report = live_update::apply(&mercury, cpu, "cve-2026-0001", 1).unwrap();
    println!(
        "patched {} -> v{} in {:.1} us total (attach + patch + detach), returned native: {}",
        report.name,
        report.new_version,
        live_update::estimated_disruption_us(&report),
        report.returned_native
    );

    // The service never noticed.
    assert_eq!(sess.stat("service.db").unwrap().size, 10);
    sess.write(fd, b"more").unwrap();
    println!(
        "service state intact; patch live: {:?}",
        kernel.patch_version("cve-2026-0001")
    );

    // A superseding patch later.
    let report = live_update::apply(&mercury, cpu, "cve-2026-0001", 2).unwrap();
    println!(
        "superseded v{:?} with v{}",
        report.old_version.unwrap(),
        report.new_version
    );
}
