// Known-bad fixture: unbalanced / leaked / deadlocking VO guards.

use std::mem;

pub fn forgets_named_guard(rc: &Arc<VoRefCount>) {
    let g = rc.enter();
    mem::forget(g); //~ REFCOUNT-LEAK
}

pub fn forgets_inline(rc: &Arc<VoRefCount>) {
    std::mem::forget(rc.enter()); //~ REFCOUNT-LEAK
}

pub fn manually_drops(rc: &Arc<VoRefCount>) {
    let _keep = ManuallyDrop::new(rc.enter()); //~ REFCOUNT-LEAK
}

pub fn discards_immediately(rc: &Arc<VoRefCount>) {
    let _ = rc.enter(); //~ REFCOUNT-LEAK
    do_pagetable_work();
}

pub struct LongLived {
    guard: Option<VoGuard>, //~ REFCOUNT-LEAK
    id: usize,
}

pub fn holds_guard_across_switch(rc: &Arc<VoRefCount>, m: &Mercury, cpu: &Arc<Cpu>) {
    let g = rc.enter();
    let _ = m.switch_to_virtual(cpu); //~ REFCOUNT-LEAK
    drop(g);
}

pub fn holds_guard_across_check_in(rc: &Arc<VoRefCount>, rv: &Rendezvous, epoch: u32) {
    let g = rc.enter();
    let _ = rv.check_in_and_wait(epoch); //~ REFCOUNT-LEAK
    drop(g);
}

// Balanced use: not flagged.
pub fn balanced(rc: &Arc<VoRefCount>) -> usize {
    let g = rc.enter();
    let n = rc.current();
    drop(g);
    n
}
