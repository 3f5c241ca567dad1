//! §6.2 — self-healing: detect tainted kernel state with the dormant
//! VMM's records, repair at PL0, validate with an attach round trip.
//!
//! ```text
//! cargo run --example self_healing
//! ```

use mercury::scenarios::healing;
use mercury::{AssistMode, NodeConfig, Stack, TrackingStrategy};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
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

    let sess = Session::new(Arc::clone(&kernel), 0);
    let va = sess.mmap(4, Prot::RW, MmapBacking::Anon).unwrap();
    sess.poke(va, 7).unwrap();

    println!(
        "sensor sweep (clean system): {} anomalies",
        healing::sense(&mercury, cpu).unwrap()
    );

    // A stray DRAM bit flip corrupts a page-table entry.
    healing::inject_taint(&mercury, cpu).unwrap();
    let anomalies = healing::sense(&mercury, cpu).unwrap();
    println!("bit flip injected; sensor sweep: {anomalies} anomalies");

    // Defense in depth: the VMM's validators refuse to attach over
    // corrupted tables.
    match mercury.switch_to_virtual(cpu) {
        Err(e) => println!("attach over tainted state rejected: {e}"),
        Ok(_) => unreachable!("validators must reject the taint"),
    }

    // Heal: zap the poisoned entries, validate with a full round trip.
    let report = healing::heal(&mercury, cpu).unwrap();
    println!(
        "healed: {} entries repaired across {} tables; validated by attach: {}",
        report.repaired_entries, report.tables_scanned, report.validated_by_attach
    );

    // The page refaults cleanly (data lost, invariant restored).
    sess.clear_signal();
    sess.poke(va, 8).unwrap();
    println!(
        "application continues; sensor sweep: {} anomalies",
        healing::sense(&mercury, cpu).unwrap()
    );
}
