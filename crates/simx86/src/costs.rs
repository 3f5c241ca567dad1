//! Cycle cost model for the simulated machine.
//!
//! All durations in this workspace are expressed in *simulated CPU cycles*.
//! The machine is modelled as a 3 GHz Xeon (the paper's DELL SC1420
//! testbed): [`CYCLES_PER_US`] cycles make one microsecond of simulated
//! time.  The constants below are the tuning knobs that calibrate the
//! reproduction against the paper's Table 1/Table 2 lmbench rows; each
//! one documents which measurement it chiefly influences.
//!
//! The split between *native* and *virtual* costs is structural, not a
//! fudge factor: virtual-mode costs arise because the guest must cross
//! into the hypervisor (a privilege transition plus validation work),
//! exactly the mechanism the paper identifies in §3.2.

/// Cycles per microsecond of simulated time ("3 GHz Xeon").
pub const CYCLES_PER_US: u64 = 3_000;

/// Convert cycles to microseconds of simulated time.
#[inline]
pub fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_US as f64
}

/// Convert microseconds to cycles.
#[inline]
pub fn us_to_cycles(us: f64) -> u64 {
    (us * CYCLES_PER_US as f64) as u64
}

// ---------------------------------------------------------------------------
// Raw memory-system costs
// ---------------------------------------------------------------------------

/// Reading or writing one 8-byte word of simulated physical memory.
/// Kept tiny: most word traffic is page-table manipulation whose cost is
/// dominated by the per-entry accounting constants below.
pub const MEM_WORD: u64 = 2;

/// Copying a whole 4 KiB frame (`memcpy`-style; ~0.4 µs at 10 GB/s).
pub const FRAME_COPY: u64 = 1_200;

/// Zero-filling a 4 KiB frame (slightly cheaper than a copy).
pub const FRAME_ZERO: u64 = 900;

/// Refilling one 64-byte cache line from L2 after a context switch.
/// Calibrates the growth from `ctx(2p/0k)` to `ctx(16p/16k)` in Table 1.
pub const CACHE_LINE_REFILL_L2: u64 = 13;

/// Refilling one cache line from memory (beyond the L2-resident window).
/// Calibrates the growth from `ctx(16p/16k)` to `ctx(16p/64k)`.
pub const CACHE_LINE_REFILL_MEM: u64 = 28;

/// Number of cache lines that refill at the cheaper L2 rate before the
/// working set spills to memory (256 lines = 16 KiB).
pub const CACHE_L2_RESIDENT_LINES: u64 = 256;

// ---------------------------------------------------------------------------
// Traps, interrupts, privilege transitions
// ---------------------------------------------------------------------------

/// Entering the kernel from user mode on bare hardware (trap gate,
/// pipeline flush, stack switch).  Calibrates `prot fault` (N-L ≈ 0.61 µs:
/// entry + handler + exit).
pub const TRAP_ENTER_NATIVE: u64 = 550;

/// Returning to user mode on bare hardware (`iret`).
pub const TRAP_EXIT_NATIVE: u64 = 420;

/// Extra cost when a trap first lands in the hypervisor and is reflected
/// into the de-privileged guest kernel (two extra ring crossings).
/// Calibrates the virtual-mode `prot fault` row (≈ 0.97 µs).
pub const TRAP_REFLECT_VIRT: u64 = 1_500;

/// Dispatching a hardware interrupt through a gate (on top of the trap
/// entry cost).
pub const IRQ_DISPATCH: u64 = 300;

/// Sending an inter-processor interrupt (APIC ICR write + bus message).
pub const IPI_SEND: u64 = 400;

/// Base cost of one hypercall: de-privileged `int`/`syscall` into the
/// VMM, argument copy, dispatch and return.  The single most important
/// virtual-mode constant; shows up in every Table 1 virtual column.
pub const HYPERCALL_BASE: u64 = 2_200;

// ---------------------------------------------------------------------------
// MMU and paging costs
// ---------------------------------------------------------------------------

/// A TLB hit during translation.
pub const TLB_HIT: u64 = 1;

/// A hardware page-table walk on a TLB miss (two memory accesses plus
/// fill).
pub const TLB_MISS_WALK: u64 = 60;

/// Flushing the whole TLB (CR3 reload on bare hardware).
pub const TLB_FLUSH: u64 = 150;

/// Writing a PTE directly (native mode): the store plus kernel
/// accounting around it.
pub const PTE_WRITE_NATIVE: u64 = 35;

/// Per-entry validation cost inside the VMM's `mmu_update` hypercall:
/// look up the frame's `page_info`, check type/owner, adjust counts.
/// Together with [`HYPERCALL_BASE`] this calibrates the virtual `page
/// fault` row (≈ 3.1 µs) and much of virtual `fork`.
pub const MMU_UPDATE_PER_ENTRY: u64 = 300;

/// Per-entry validation when pinning a page-table page (the VMM walks
/// every slot of the table checking ownership and reference rules).
/// Dominates virtual-mode `fork`/`exec` (Table 1: fork 98 µs → 482 µs).
pub const PT_PIN_PER_ENTRY: u64 = 250;

/// Fixed cost of a pin/unpin hypercall beyond per-entry validation.
pub const PT_PIN_BASE: u64 = 800;

/// Loading CR3 natively (the register write; TLB flush charged
/// separately).
pub const CR3_LOAD_NATIVE: u64 = 200;

// ---------------------------------------------------------------------------
// Kernel-operation base costs (mode-independent bookkeeping)
// ---------------------------------------------------------------------------

/// Allocating one physical frame from the free list.
pub const FRAME_ALLOC: u64 = 120;

/// Fixed fork cost: task struct, kernel stack, file table, VMA list copy.
/// Calibrates the N-L `fork` row together with per-PTE COW marking.
pub const FORK_BASE: u64 = 245_000;

/// Fixed exec cost: image lookup, argument copy, loader bookkeeping
/// (program text/data copy is charged per page on top).  Calibrates the
/// N-L `exec` row.
pub const EXEC_BASE: u64 = 830_000;

/// Shell interpretation overhead for `sh -c prog` beyond the fork+exec
/// pairs (parsing, PATH search).  Calibrates the N-L `sh proc` row.
pub const SH_PARSE: u64 = 800_000;

/// Fixed part of a context switch on bare hardware: save/restore of the
/// register file, scheduler pick, stack switch.  Calibrates
/// `ctx(2p/0k)` N-L ≈ 1.64 µs.
pub const CTX_SWITCH_BASE: u64 = 2_800;

/// Extra context-switch work in virtual mode: stack-switch hypercall,
/// segment reloads bouncing through the VMM.  (CR3 load becomes a
/// hypercall too and is charged through the paravirt layer.)
pub const CTX_SWITCH_VIRT_EXTRA: u64 = 5_400;

/// Per-lock acquisition overhead charged in SMP mode (cache-line
/// transfer for a contended-ish spinlock).  Makes every Table 2 row a
/// little slower than Table 1, as the paper observes.
pub const SMP_LOCK: u64 = 160;

/// Page-fault handler bookkeeping beyond trap entry/exit (VMA lookup,
/// policy).  Calibrates N-L `page fault` ≈ 1.22 µs.
pub const PF_HANDLER: u64 = 1_000;

/// Handler-side cost of a pure protection fault (no frame allocation).
pub const PROT_FAULT_HANDLER: u64 = 260;

/// Syscall entry+exit fast path on bare hardware.
pub const SYSCALL_NATIVE: u64 = 500;

/// Extra syscall cost in virtual mode (redirected through the VMM's
/// gate table even with a fast trampoline).
pub const SYSCALL_VIRT_EXTRA: u64 = 350;

// ---------------------------------------------------------------------------
// Devices
// ---------------------------------------------------------------------------

/// Disk: fixed per-request cost (controller doorbell, IRQ, completion).
pub const DISK_REQUEST_BASE: u64 = 18_000;

/// Disk: per-sector (512 B) transfer cost.
pub const DISK_PER_SECTOR: u64 = 1_000;

/// NIC: per-packet driver cost on bare hardware (descriptor setup, IRQ).
pub const NIC_PACKET_BASE: u64 = 5_500;

/// NIC: per-byte copy cost between socket buffer and device.
pub const NIC_PER_BYTE: u64 = 2;

/// Extra cost per device request when the *driver domain* itself is
/// de-privileged (X-0 / M-V): the driver's port-I/O and doorbell writes
/// trap into the VMM.  Responsible for domain0's I/O-heavy losses in
/// Fig. 3 (dbench −15 %, Iperf −40 %).
pub const IO_PRIV_TRAP: u64 = 4_500;

// ---------------------------------------------------------------------------
// Split-driver (frontend/backend) costs — used by Xenon's device channels
// ---------------------------------------------------------------------------

/// Posting one request descriptor into a shared-memory I/O ring.
pub const RING_POST: u64 = 600;

/// Granting / revoking access to one frame through the grant table.
pub const GRANT_OP: u64 = 900;

/// Event-channel notification (virtual IRQ to the peer domain).
pub const EVTCHN_NOTIFY: u64 = 1_100;

// ---------------------------------------------------------------------------
// Hardware virtualization assist (§8 extension)
// ---------------------------------------------------------------------------

/// One VM exit: save guest state to the VMCS, load host state (2005-era
/// VT-x exits were expensive).
pub const VMEXIT: u64 = 1_600;

/// One VM entry: the reverse transition.
pub const VMENTRY: u64 = 1_100;

/// Initializing/loading a VMCS for one CPU at attach.
pub const VMCS_SWITCH: u64 = 2_000;

/// Installing one frame's permission into the EPT (warm-up bulk build).
pub const EPT_BUILD_PER_FRAME: u64 = 8;

/// Extra nested-walk cost on a TLB miss while EPT is active.
pub const EPT_WALK_EXTRA: u64 = 40;

// ---------------------------------------------------------------------------
// Mercury mode-switch costs
// ---------------------------------------------------------------------------

/// Re-computing owner/type/count in the VMM's `page_info` for one frame
/// during the native→virtual switch (§5.1.2: "recalculate the type and
/// count information for all page frames ... accounts for the major time
/// to commit a switch").  With the default 6 Ki-frame kernel pool this
/// puts the attach at ≈ 0.22 ms, matching §7.4 at our scaled-down
/// memory size (the paper's 220 µs covered ~225 Ki frames at ~3
/// cycles each; the per-frame rate scales inversely so the headline
/// time is preserved).
pub const PGINFO_RECOMPUTE_PER_FRAME: u64 = 100;

/// Releasing one frame's accounting on the virtual→native switch (the
/// cheaper reverse pass; calibrates the 0.06 ms detach of §7.4).
pub const PGINFO_CLEAR_PER_FRAME: u64 = 25;

/// Fixing the cached code/data segment selectors in one saved trap frame
/// on a thread's kernel stack (§5.1.2 stack-stub fix).
pub const STACK_SELECTOR_FIX: u64 = 45;

/// Per-thread state-transfer cost (kernel-segment privilege rewrite).
pub const THREAD_SEG_TRANSFER: u64 = 70;

/// Reloading the hardware control state on one CPU (CR3 + IDT + GDT +
/// segment registers) inside the switch interrupt handler (§5.1.3).
pub const STATE_RELOAD: u64 = 2_800;

/// The "active tracking" alternative of §5.1.2: mirroring one native PTE
/// write into the dormant VMM's page_info.  The paper measures 2~3 %
/// whole-application overhead for this strategy.
pub const ACTIVE_TRACK_PER_PTE: u64 = 12;

/// The dirty-tracking middle ground between recompute and active
/// tracking: a native PTE write only marks its table frame written for
/// the dormant VMM (one word store, no mirror bookkeeping; memory's own
/// stamp, which says the same, is free), so the attach can revalidate
/// just the written tables.  Far cheaper per write than
/// [`ACTIVE_TRACK_PER_PTE`]'s full mirror update.
pub const DIRTY_TRACK_PER_PTE: u64 = 2;

/// Dispatching one chunk of a CPU's stripe of the parallel attach-time
/// recompute scan (§5.4 rendezvous): the chunk's bounds and the
/// cache-line transfer of its descriptor to that CPU.
pub const SHARD_CHUNK_DISPATCH: u64 = 200;

/// Period of the retry timer armed when a switch request finds a
/// non-zero virtualization-object reference count (§5.1.1: "every time
/// interval (e.g., every 10 ms)").
pub const SWITCH_RETRY_PERIOD: u64 = 10_000 * CYCLES_PER_US; // 10 ms

/// The hv-to-hv live-update handshake: version-order, pristine-target
/// and machine-identity checks on the pre-cached successor VMM, plus
/// flushing the split-driver rings so no request is in flight across
/// the swap.  Flat — none of the checks scale with guest memory.
pub const LIVE_UPDATE_HANDSHAKE: u64 = 2_048;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_us_roundtrip() {
        assert_eq!(us_to_cycles(1.0), CYCLES_PER_US);
        assert!((cycles_to_us(CYCLES_PER_US) - 1.0).abs() < 1e-9);
        assert_eq!(us_to_cycles(0.5), CYCLES_PER_US / 2);
    }

    #[test]
    fn native_prot_fault_budget_matches_paper_regime() {
        // N-L prot fault ≈ 0.61 µs in Table 1.
        let cycles = TRAP_ENTER_NATIVE + PROT_FAULT_HANDLER + TRAP_EXIT_NATIVE;
        let us = cycles_to_us(cycles);
        assert!(
            us > 0.3 && us < 1.0,
            "prot fault budget {us} µs out of band"
        );
    }

    #[test]
    fn retry_period_is_ten_ms() {
        assert_eq!(cycles_to_us(SWITCH_RETRY_PERIOD), 10_000.0);
    }
}
