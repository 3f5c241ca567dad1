// Known-bad fixture: incomplete dispatch table and a Rendezvous field
// begin() never resets.

pub trait PvOps {
    fn mode(&self) -> ExecMode;
    fn set_pte(&self, t: FrameNum, i: usize, v: Pte) -> Result<(), Fault>;
    fn flush_tlb(&self, cpu: &Arc<Cpu>);
    fn name(&self) -> &'static str {
        "anon" // default method: impls need not provide it
    }
}

pub struct BareOps;
impl PvOps for BareOps {
    fn mode(&self) -> ExecMode {
        ExecMode::Native
    }
    fn set_pte(&self, t: FrameNum, i: usize, v: Pte) -> Result<(), Fault> {
        Ok(())
    }
    fn flush_tlb(&self, cpu: &Arc<Cpu>) {}
}

pub struct XenOps;
impl PvOps for XenOps { //~ DISPATCH-GAP
    fn mode(&self) -> ExecMode {
        ExecMode::Paravirtual
    }
    fn set_pte(&self, t: FrameNum, i: usize, v: Pte) -> Result<(), Fault> {
        Ok(())
    }
    // flush_tlb is missing: a TLB op dispatched to this VO would fall
    // through to nothing.
}

pub struct HvmOps;
impl PvOps for HvmOps {
    fn mode(&self) -> ExecMode {
        ExecMode::Hvm
    }
    fn set_pte(&self, t: FrameNum, i: usize, v: Pte) -> Result<(), Fault> {
        Ok(())
    }
    fn flush_tlb(&self, cpu: &Arc<Cpu>) {}
}

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
