//! The sharded scan of an SMP attach: every CPU in the §5.4 rendezvous
//! pays a share of the accounting scan.
//!
//! §7.4 of the paper attributes most of the native→virtual switch cost
//! to recomputing the type/count information for all page frames, and
//! during exactly that window the §5.4 rendezvous holds every peer CPU.
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
//! Protocol (per attach): between `wait_ready` and `signal_go` the CP
//! deals the `ScanJob` into the transition's `Round`, charges its own
//! stripe and walks the tables.  The job rides in the `Round` until go,
//! when `Rendezvous::signal_go` hands it to every peer together with
//! the mode to reload for; a peer charges its stripe before it reloads.
//! A simulated clock does not move while its thread spins, so paying
//! after go costs the peer what paying while parked would.  A failed
//! transition releases the peers with the job too: once the CP reached
//! the scan, every peer pays its stripe.

use crate::switch::{Mercury, Round, SwitchError};
use simx86::{costs, Cpu};

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
    pub(crate) fn charge_stripe(&self, cpu: &Cpu) {
        cpu.tick(self.stripe(cpu.id));
        merctrace::counter!(cpu.id, "switch.shard.stripe", 1, cpu.cycles());
    }
}

impl Mercury {
    /// Rebuild page_info on an SMP attach: the CP deals the scan
    /// (`per_frame` cycles per owned frame) into the round and walks
    /// every base table; each peer charges its stripe once released.
    /// The CP is charged the phase's makespan, not the serial sum.
    pub(crate) fn sharded_recompute_phase(
        &self,
        r: &Round<'_>,
        per_frame: u64,
    ) -> Result<(), SwitchError> {
        let cpu = r.cpu;
        let owned = self.kernel().pool_size();
        let job = ScanJob {
            cycles: per_frame * owned as u64,
            chunks: owned.div_ceil(SHARD_CHUNK_FRAMES).max(1) as u64,
            cpus: self.kernel().machine.num_cpus() as u64,
        };
        merctrace::span_begin!(cpu.id, "switch.transfer.pginfo_shard", cpu.cycles());
        r.scan.set(Some(job));
        let p0 = cpu.cycles();
        job.charge_stripe(cpu);
        let walked = self.rebuild_accounting(cpu, &self.hypervisor().page_info, 0);
        // Chunk 0's CPU holds the longest stripe.
        let spent = cpu.cycles() - p0;
        cpu.tick(job.stripe(0).saturating_sub(spent));
        merctrace::span_end!(cpu.id, "switch.transfer.pginfo_shard", cpu.cycles());
        walked
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
