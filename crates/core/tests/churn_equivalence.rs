//! Strategy-equivalence property test for the default attach (§5.1.2).
//!
//! The default attach revalidates the kernel's page tables stored to
//! while native, restores everything else from the records the detach
//! kept, and falls back to the whole walk wherever those records do not
//! cover a change.  The soundness claim is that none of this machinery
//! is observable in the accounting: after an attach — under an
//! arbitrary native-mode dirty set and with guest memory traffic into
//! recycled frames after it — the page_info table is bit-identical to
//! what a cold full recompute of the live page tables produces.

use faultgen::rng::check;
use mercury::{AssistMode, Mercury, NodeConfig, Stack, TrackingStrategy};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use nimbus::Session;
use simx86::paging::{VirtAddr, PAGE_SIZE};
use simx86::Machine;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xenon::{Hypervisor, PageInfoTable};

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
        TrackingStrategy::DirtyRecompute,
        AssistMode::Software,
    );
    (machine, hv, mercury)
}

/// Compare `hv`'s live accounting with a cold recompute of the same
/// tables, frame by frame.  The cold side is walked on a scratch table
/// owning the kernel's pool, so the live records are never reset: the
/// attach's own records are what is checked, through every poke after
/// it.
fn assert_equals_cold_recompute(machine: &Machine, hv: &Hypervisor, mercury: &Mercury) {
    let cpu = machine.boot_cpu();
    let kernel = mercury.kernel();
    let dom = mercury.dom0().id;
    let pool = kernel.pool_frames();
    let scratch = PageInfoTable::new(machine.mem.num_frames());
    for &f in &pool {
        scratch.set_owner(f, Some(dom));
    }
    scratch
        .recompute_for(cpu, &machine.mem, dom, pool.len(), &kernel.all_pgds())
        .unwrap();
    let live = hv.page_info.snapshot();
    let cold = scratch.snapshot();
    assert_eq!(live.len(), cold.len());
    for (i, (a, b)) in live.iter().zip(cold.iter()).enumerate() {
        assert_eq!(a, b, "frame {} diverged (live vs cold recompute)", i);
    }
}

/// Post-attach page_info is bit-identical to a cold recompute of the
/// live tables, for random dirty sets (child churn leaving
/// freed-but-stored-to tables, plus arbitrary re-stores of unchanged
/// kernel-table entries), before and after guest pokes into recycled
/// frames.  An attach after a child exited while native is not served
/// by the retained records: freeing a table changes the table set, so
/// the attach walks.
#[test]
fn a_churned_attach_equals_cold_recompute() {
    check("a_churned_attach_equals_cold_recompute", 6, |rng| {
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
        // Guest pages faulted in after the attach; the pool free list
        // is LIFO, so these reuse the children's freed frames.
        let touches = rng.below(24);
        let (machine, hv, mercury) = rig();
        let cpu = machine.boot_cpu();
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

        // The children's tables were freed while native: the table set
        // changed, so the retained records do not serve this attach.
        let served = || mercury.stats.delta_attaches.load(Ordering::Relaxed);
        let before = served();
        mercury.switch_to_virtual(cpu).unwrap();
        assert_eq!(served(), before, "an attach over freed tables walks");
        assert_equals_cold_recompute(&machine, &hv, &mercury);

        // Guest traffic into recycled frames after the attach.
        if touches > 0 {
            let va = sess.mmap(touches, Prot::RW, MmapBacking::Anon).unwrap();
            for p in 0..touches {
                sess.poke(VirtAddr(va.0 + p * PAGE_SIZE), p).unwrap();
            }
        }
        assert_equals_cold_recompute(&machine, &hv, &mercury);
    });
}
