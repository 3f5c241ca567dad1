//! The §5.4 work phase of an SMP attach: the parked peers share the
//! accounting scan.
//!
//! §7.4 of the paper attributes most of the native→virtual switch cost
//! to recomputing the type/count information for all page frames, and
//! during exactly that window the §5.4 rendezvous parks every peer CPU.
//! The recompute is a uniform per-frame scan plus a walk of the base
//! tables.  Only the scan is shared: it is cut into
//! [`SHARD_CHUNK_FRAMES`]-frame chunks, chunk *i* belongs to CPU *i* mod
//! *n*, and every CPU charges its stripe — its chunks plus
//! `simx86::costs::SHARD_CHUNK_DISPATCH` each — to its own clock.  The
//! control processor (CP) walks the tables with the validator a
//! uniprocessor attach uses, so one walker writes `page_info`.  The
//! phase costs its makespan, the slowest CPU's spend, and since a
//! CPU's stripe is fixed by its id, that is the same on every run.
//!
//! Protocol (per attach, between `wait_ready` and `signal_go`):
//!
//! 1. The CP publishes a [`ScanJob`] in which every peer owes its stripe.
//! 2. Each parked peer, polling from its rendezvous wait
//!    ([`Mercury::shard_poll`]), charges its stripe and clears its bit.
//! 3. The CP charges its own stripe, walks the tables and waits until
//!    no peer owes one.
//! 4. The CP unpublishes the job, on the failure path too, before it
//!    signals go.

use crate::rendezvous::{spin_until, RENDEZVOUS_TIMEOUT};
use crate::switch::{Mercury, SwitchError};
use simx86::{costs, Cpu};
use std::sync::Arc;

/// Frames per scan chunk.  Small enough that an 8K-frame pool splits
/// into 32 chunks (an even deal on 2–8 CPUs), large enough that the
/// per-chunk dispatch cost (`simx86::costs::SHARD_CHUNK_DISPATCH`)
/// stays noise.
pub const SHARD_CHUNK_FRAMES: usize = 256;

/// The scan of one SMP attach, dealt to the CPUs by chunk index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanJob {
    /// Scan cycles over the whole pool.
    cycles: u64,
    /// Chunks the scan is cut into (at least one).
    chunks: u64,
    /// CPUs the chunks are dealt to.
    cpus: u64,
    /// One bit per CPU that still owes its stripe, by CPU id (so at
    /// most 64 CPUs).
    owed: u64,
}

impl ScanJob {
    /// CPU `id`'s stripe: chunks `id`, `id + cpus`, …, each with its
    /// dispatch.  The first `cycles % chunks` chunks cost one cycle more.
    fn stripe(&self, id: usize) -> u64 {
        let id = id as u64;
        // Indices below `n` that are `id` mod `cpus` (`id < cpus`).
        let dealt = |n: u64| (n + self.cpus - 1 - id) / self.cpus;
        let per_chunk = self.cycles / self.chunks + costs::SHARD_CHUNK_DISPATCH;
        dealt(self.chunks) * per_chunk + dealt(self.cycles % self.chunks)
    }

    /// Charge `cpu`'s stripe to its own clock.
    fn charge_stripe(&self, cpu: &Cpu) {
        cpu.tick(self.stripe(cpu.id));
        merctrace::counter!(cpu.id, "switch.shard.stripe", 1, cpu.cycles());
    }
}

impl Mercury {
    /// Rebuild page_info on an SMP attach: the CP walks every base table
    /// while the parked peers charge their stripes of the scan
    /// (`per_frame` cycles per owned frame).  The CP is charged the
    /// phase's makespan, not the serial sum.
    pub(crate) fn sharded_recompute_phase(
        &self,
        cpu: &Arc<Cpu>,
        per_frame: u64,
    ) -> Result<(), SwitchError> {
        let owned = self.kernel().pool_size();
        let cpus = self.kernel().machine.num_cpus();
        let job = ScanJob {
            cycles: per_frame * owned as u64,
            chunks: owned.div_ceil(SHARD_CHUNK_FRAMES).max(1) as u64,
            cpus: cpus as u64,
            owed: (u64::MAX >> (64 - cpus)) & !(1 << cpu.id),
        };
        merctrace::span_begin!(cpu.id, "switch.transfer.pginfo_shard", cpu.cycles());
        *self.shard_job.lock() = Some(job);
        let p0 = cpu.cycles();
        job.charge_stripe(cpu);
        let walked = self.rebuild_accounting(cpu, &self.hypervisor().page_info, 0);
        let paid = spin_until(RENDEZVOUS_TIMEOUT, || {
            self.shard_job.lock().is_some_and(|job| job.owed == 0)
        });
        *self.shard_job.lock() = None;
        // Chunk 0's CPU holds the longest stripe.
        let spent = cpu.cycles() - p0;
        cpu.tick(job.stripe(0).saturating_sub(spent));
        merctrace::span_end!(cpu.id, "switch.transfer.pginfo_shard", cpu.cycles());
        if !paid {
            return Err(SwitchError::Transfer(
                "a peer never charged its recompute stripe".into(),
            ));
        }
        walked
    }

    /// The parked peer's work-phase callback: charge this CPU's stripe
    /// if a job is published and it still owes it.  Returns whether it
    /// did (which resets the peer's rendezvous deadline).
    pub(crate) fn shard_poll(&self, cpu: &Cpu) -> bool {
        let mut slot = self.shard_job.lock();
        let Some(job) = slot.as_mut().filter(|job| job.owed & (1 << cpu.id) != 0) else {
            return false;
        };
        job.charge_stripe(cpu);
        job.owed &= !(1 << cpu.id);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(cycles: u64, chunks: u64, cpus: u64) -> ScanJob {
        ScanJob {
            cycles,
            chunks,
            cpus,
            owed: 0,
        }
    }

    #[test]
    fn stripes_deal_every_chunk_and_cycle_once() {
        let d = costs::SHARD_CHUNK_DISPATCH;
        let cases = [(819_200, 32, 4), (614_403, 24, 8), (1_000, 3, 4), (7, 1, 2)];
        for (cycles, chunks, cpus) in cases {
            let j = job(cycles, chunks, cpus);
            let stripes: Vec<u64> = (0..cpus as usize).map(|id| j.stripe(id)).collect();
            assert_eq!(stripes.iter().sum::<u64>(), cycles + chunks * d);
            assert_eq!(stripes.iter().max(), Some(&j.stripe(0)));
            assert!(stripes.windows(2).all(|w| w[0] >= w[1]));
        }
        // 24 chunks of 25 600 cycles on 4 CPUs: six each.
        assert_eq!(job(614_400, 24, 4).stripe(3), 6 * (25_600 + d));
        // Three chunks on four CPUs: the fourth gets none.
        assert_eq!(job(3_000, 3, 4).stripe(3), 0);
    }
}
