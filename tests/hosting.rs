//! Multi-tenant hosting: the self-virtualized OS (partial-virtual mode)
//! hosts two paravirtual guests, schedules them with the hypervisor's
//! run queue, and keeps them isolated.

use mercury::ModeDetail;
use mercury_workloads::configs::{boot_guest, SysKind, TestBed};
use nimbus::drivers::connect_split;
use nimbus::kernel::{MmapBacking, ReadOutcome};
use nimbus::mm::Prot;
use nimbus::{Kernel, Session};
use std::sync::Arc;
use xenon::Hypervisor;

/// World switch: route reflection to `dom` and load its kernel's
/// current address space — what the hypervisor's scheduler does when it
/// gives the physical CPU to a vCPU.
fn enter_tenant(hv: &Arc<Hypervisor>, dom: &Arc<Domain>, kernel: &Arc<Kernel>, sess: &Session) {
    hv.set_current(0, Some(dom.id));
    let pgd = kernel
        .current_pgd(sess.cpu())
        .expect("tenant has a process");
    kernel
        .pv()
        .load_base_table(sess.cpu(), pgd)
        .expect("cr3 load");
}
use xenon::sched::SchedUnit;
use xenon::Domain;

/// Boot a PV tenant whose split devices are served by the host.
fn boot_tenant(bed: &TestBed, name: &str, fs_first_block: u64) -> (Arc<Kernel>, Arc<Domain>) {
    let hv = bed.hv.as_ref().unwrap();
    let host_dom = bed.mercury.as_ref().unwrap().dom0();
    let (kernel, dom) = boot_guest(&bed.machine, hv, name, 2048, 512, fs_first_block);
    connect_split(&bed.machine, hv, host_dom, &kernel, &dom).unwrap();
    (kernel, dom)
}

#[test]
fn two_tenants_scheduled_and_isolated() {
    // M-N base: native OS with Mercury installed; self-virtualize to
    // host tenants (partial-virtual mode, §6.3's hosting role).
    let bed = TestBed::build(SysKind::MN, 1);
    let mercury = bed.mercury.as_ref().unwrap();
    let hv = bed.hv.as_ref().unwrap();
    let cpu = bed.machine.boot_cpu();
    mercury.switch_to_virtual(cpu).unwrap();

    let (k_a, dom_a) = boot_tenant(&bed, "tenant-a", 9_000);
    let (k_b, dom_b) = boot_tenant(&bed, "tenant-b", 10_000);
    assert_eq!(
        mercury.mode_detail(),
        ModeDetail::PartialVirtual { guests: 2 }
    );

    // Alternate the tenants with the hypervisor's scheduler, running a
    // slice of work in whichever is picked.
    let sess_a = Session::new(Arc::clone(&k_a), 0);
    let sess_b = Session::new(Arc::clone(&k_b), 0);
    let va = sess_a.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
    let vb = sess_b.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
    // (Same guest-virtual address on purpose: isolation must come from
    // the per-domain page tables, not from address disjointness.)
    assert_eq!(va, vb);

    let mut slices = std::collections::HashMap::new();
    for i in 0..12u64 {
        let unit = hv
            .sched
            .pick_next(0, |id| hv.domain(id))
            .expect("a runnable vcpu");
        // Skip the host's own unit; we only drive tenants here.
        let (sess, kernel, dom, tag) = if unit
            == (SchedUnit {
                dom: dom_a.id,
                vcpu: 0,
            }) {
            (&sess_a, &k_a, &dom_a, "a")
        } else if unit
            == (SchedUnit {
                dom: dom_b.id,
                vcpu: 0,
            })
        {
            (&sess_b, &k_b, &dom_b, "b")
        } else {
            continue;
        };
        enter_tenant(hv, dom, kernel, sess);
        sess.poke(va, i).unwrap();
        assert_eq!(sess.peek(va).unwrap(), i);
        let fd = sess.open("slice.log", true).unwrap();
        sess.write(fd, tag.as_bytes()).unwrap();
        sess.close(fd).unwrap();
        *slices.entry(tag).or_insert(0u32) += 1;
    }
    assert!(
        slices["a"] >= 3 && slices["b"] >= 3,
        "unfair schedule: {slices:?}"
    );

    // Isolation: each tenant sees only its own files and memory.
    enter_tenant(hv, &dom_a, &k_a, &sess_a);
    sess_a.poke(va, 0xA).unwrap();
    enter_tenant(hv, &dom_b, &k_b, &sess_b);
    sess_b.poke(vb, 0xB).unwrap();
    enter_tenant(hv, &dom_a, &k_a, &sess_a);
    assert_eq!(sess_a.peek(va).unwrap(), 0xA);
    let fd = sess_a.open("slice.log", false).unwrap();
    if let ReadOutcome::Data(d) = sess_a.read(fd, 64).unwrap() {
        assert!(
            d.iter().all(|&c| c == b'a'),
            "tenant-a sees tenant-b writes"
        );
    }
    // Cross-domain grant abuse is rejected: tenant-a cannot grant a
    // frame belonging to tenant-b.
    let theirs = dom_b.frames()[10];
    assert!(hv.grant(cpu, &dom_a, dom_b.id, theirs, false).is_err());

    // Tear down and return the host to native speed.
    for dom in [dom_a, dom_b] {
        let frames = hv.destroy_domain(cpu, &dom).unwrap();
        for f in frames {
            bed.machine.allocator.free(f);
        }
    }
    assert_eq!(mercury.mode_detail(), ModeDetail::FullVirtual);
    // Give the CPU back to the host OS before it detaches.
    hv.set_current(0, Some(mercury.dom0().id));
    let host_pgd = bed.kernel.current_pgd(cpu).unwrap();
    bed.kernel.pv().load_base_table(cpu, host_pgd).unwrap();
    mercury.switch_to_native(cpu).unwrap();
    assert_eq!(mercury.mode_detail(), ModeDetail::Native);
}
