// Known-bad fixture: a Rendezvous field begin() never resets.  (A VO
// missing a PvOps method is not volint's to find: the trait has no
// default methods, so rustc rejects the impl with E0046.)

pub struct Rendezvous {
    ready: AtomicUsize,
    go: AtomicBool,
    stale_epoch: AtomicUsize, //~ DISPATCH-GAP
}

impl Rendezvous {
    pub fn begin(&self) {
        self.ready.store(0, Ordering::Release);
        self.go.store(false, Ordering::Release);
        // stale_epoch is never reset: the next round observes garbage.
    }
}
