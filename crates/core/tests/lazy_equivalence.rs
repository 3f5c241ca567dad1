//! Strategy-equivalence property test for `LazyValidate` (§5.1.1).
//!
//! The lazy attach admits the guest after synchronously revalidating
//! only the *kernel-critical* dirty frames; everything else is either
//! restored from the boot pre-cache snapshot or deferred to its first
//! guest touch.  The soundness claim is that none of this machinery is
//! observable in the accounting: after an attach — under an arbitrary
//! native-mode dirty set and with validation faults interleaved into
//! ordinary guest memory traffic — the page_info table is bit-identical
//! to what a cold full recompute of the live page tables produces.

use faultgen::rng::check;
use mercury::{AssistMode, Mercury, NodeConfig, Stack, TrackingStrategy};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::paging::{VirtAddr, PAGE_SIZE};
use simx86::Machine;
use std::sync::Arc;
use xenon::Hypervisor;

fn rig() -> (Arc<Machine>, Arc<Hypervisor>, Arc<Mercury>) {
    let config = NodeConfig {
        pool_frames: 8 * 1024,
        ..NodeConfig::default()
    };
    let Stack {
        machine,
        hv,
        mercury,
        ..
    } = Stack::build(
        &config,
        TrackingStrategy::LazyValidate,
        AssistMode::Software,
    );
    (machine, hv, mercury)
}

/// Post-attach page_info is bit-identical to a cold recompute of
/// the live tables, for random dirty sets (child churn leaving
/// freed-but-dirty tables, plus arbitrary re-stores of unchanged
/// kernel-table entries) and with first-touch validation faults
/// interleaved into ordinary guest pokes.
#[test]
fn lazy_attach_accounting_equals_cold_recompute() {
    check("lazy_attach_accounting_equals_cold_recompute", 6, |rng| {
        // Each round forks a child that faults in `pages` anonymous
        // pages; the children are alive at a detach and exit while
        // native, leaving their table frames freed but stored to.
        let rounds = rng.range(1, 3) as usize;
        let churn_pages = rng.vec(rounds, |r| r.range(1, 12));
        // Re-stores of an unchanged entry, as indices into the kernel's
        // table frames and their slots: each stamps a table and changes
        // nothing (conservative over-approximation is always legal).
        let marks = rng.below(48) as usize;
        let extra_dirty = rng.vec(marks, |r| r.below(8192) as usize);
        // Guest pages faulted in after admission; the pool free list is
        // LIFO, so these reuse deferred frames and take the validation
        // fault mid-traffic.
        let touches = rng.below(24);
        let (machine, hv, mercury) = rig();
        let cpu = machine.boot_cpu();
        let dom = mercury.dom0().id;
        let sess = Session::new(Arc::clone(mercury.kernel()), 0);

        // Random dirty set, part 1: child churn (freed + dirty tables).
        let mut children = Vec::new();
        for pages in &churn_pages {
            children.push(sess.fork().unwrap());
            assert_eq!(sess.waitpid().unwrap(), None);
            let va = sess.mmap(*pages, Prot::RW, MmapBacking::Anon).unwrap();
            for p in 0..*pages {
                sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p).unwrap();
            }
        }
        mercury.switch_to_virtual(cpu).unwrap();
        mercury.switch_to_native(cpu).unwrap();
        for child in children.into_iter().rev() {
            sess.exit(0).unwrap();
            assert_eq!(sess.waitpid().unwrap().unwrap().0, child);
        }
        // Random dirty set, part 2: re-stores of kernel-table entries.
        let kernel = mercury.kernel();
        let tables = kernel.all_table_frames();
        for i in &extra_dirty {
            let (table, slot) = (tables[*i % tables.len()], *i % 512);
            let entry = machine.mem.read_pte(cpu, table, slot).unwrap();
            kernel.pv().set_pte(cpu, table, slot, entry).unwrap();
        }
        let pool = kernel.pool_frames();

        // Lazy admission, then fault-interleaved guest traffic.
        mercury.switch_to_virtual(cpu).unwrap();
        assert!(mercury.lazy_pending() > 0, "the children's freed tables are deferred");
        if touches > 0 {
            let va = sess.mmap(touches, Prot::RW, MmapBacking::Anon).unwrap();
            for p in 0..touches {
                sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p).unwrap();
            }
        }

        // The invariant the admission must never break: no frame the
        // kernel can execute through is still awaiting validation.
        if let Some(set) = mercury.lazy_set() {
            for f in mercury.kernel().all_table_frames() {
                assert!(!set.contains(f), "critical frame {:?} deferred", f);
            }
        }

        // Live accounting vs a cold recompute of the same tables.
        let live = hv.page_info.snapshot();
        let pgds = mercury.kernel().all_pgds();
        hv.page_info
            .recompute_for(cpu, &machine.mem, dom, pool.len(), &pgds)
            .unwrap();
        let cold = hv.page_info.snapshot();
        assert_eq!(live.len(), cold.len());
        for (i, (a, b)) in live.iter().zip(cold.iter()).enumerate() {
            assert_eq!(a, b, "frame {} diverged (live vs cold recompute)", i);
        }
    });
}
