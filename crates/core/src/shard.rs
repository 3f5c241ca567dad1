//! The shared work queue behind the parallel attach-time recompute.
//!
//! §7.4 of the paper attributes most of the native→virtual switch cost
//! to recomputing the type/count information for all page frames — and
//! during exactly that window the §5.4 rendezvous parks every peer CPU
//! in a spin loop.  This module reclaims that capacity: the CP chops
//! the recompute into chunks, publishes them in a [`WorkQueue`], and
//! the parked peers pull and execute chunks from inside their
//! rendezvous wait (see
//! [`Rendezvous::check_in_and_wait_serving`](crate::rendezvous::Rendezvous::check_in_and_wait_serving)),
//! each charging its *own* simulated cycle clock.  The wall-clock cost
//! of the phase becomes the **max** per-CPU spend instead of the serial
//! sum.
//!
//! The queue is generic over the chunk type — the driver at the bottom
//! of this module (`ShardChunk` and the `shard_*` methods on
//! [`Mercury`]) feeds it scan slices and base tables, and the tests
//! here exercise the claiming / completion / failure protocol with
//! plain integers.
//!
//! Protocol (per attach):
//!
//! 1. CP builds the chunk list and publishes the queue.
//! 2. Workers (parked peers *and* the CP itself) loop: [`WorkQueue::pull`]
//!    claims one chunk, the caller executes it, then reports
//!    [`WorkQueue::complete_one`] with the cycles it spent.
//! 3. A validation error flags [`WorkQueue::fail`]: no further chunks
//!    are handed out, in-flight chunks still retire normally.
//! 4. CP calls [`WorkQueue::wait_drained`]: every *claimed* chunk has
//!    completed, so no worker is still touching shared state.  Only
//!    then may the CP tear the queue down and (on success) signal go.

use crate::rendezvous::RENDEZVOUS_TIMEOUT;
use crate::switch::{Mercury, SwitchError};
use simx86::mem::FrameNum;
use simx86::{costs, Cpu};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frames per recompute chunk.  Small enough that an 8K-frame pool
/// splits into ~32 chunks (good load balance on 2–8 CPUs), large
/// enough that the per-chunk dispatch cost
/// (`simx86::costs::SHARD_CHUNK_DISPATCH`) stays noise.
pub const SHARD_CHUNK_FRAMES: usize = 256;

/// A claim-once work queue shared between the CP and the rendezvoused
/// peers during the attach-time recompute.
#[derive(Debug)]
pub struct WorkQueue<T> {
    items: Vec<T>,
    /// Next unclaimed index; grows past `items.len()` harmlessly.
    next: AtomicUsize,
    /// Chunks whose workers have reported completion.
    completed: AtomicUsize,
    /// A worker hit a validation error; stop handing out chunks.
    failed: AtomicBool,
    /// Simulated cycles charged per worker CPU id.
    spent: Mutex<BTreeMap<u32, u64>>,
    /// Happens-before shadow for the dynamic protocol checker.
    #[cfg(feature = "dyncheck")]
    pub(crate) monitor: crate::dyncheck::WorkMonitor,
}

impl<T> WorkQueue<T> {
    /// A fresh queue over `items`.
    pub fn new(items: Vec<T>) -> WorkQueue<T> {
        WorkQueue {
            items,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            // volint::allow(SWITCH-ALLOC): per-switch work-queue spend map, built once before the recompute fan-out
            spent: Mutex::new(BTreeMap::new()),
            #[cfg(feature = "dyncheck")]
            monitor: crate::dyncheck::WorkMonitor::default(),
        }
    }

    /// Total number of chunks published.
    pub fn total(&self) -> usize {
        self.items.len()
    }

    /// Chunks claimed so far (monotonic, capped at `total`).
    fn claimed(&self) -> usize {
        self.next.load(Ordering::Acquire).min(self.items.len())
    }

    /// Claim the next chunk, or `None` when the queue is exhausted or
    /// failed.  Every successful `pull` **must** be paired with a
    /// [`WorkQueue::complete_one`] — even on the error path — or
    /// [`WorkQueue::wait_drained`] will wedge.
    pub fn pull(&self) -> Option<(usize, &T)> {
        if self.failed() {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::AcqRel);
        self.items.get(i).map(|item| (i, item))
    }

    /// Report one claimed chunk finished, charging `cycles` of
    /// simulated work to worker `cpu`.
    pub fn complete_one(&self, cpu: u32, cycles: u64) {
        // volint::allow(SWITCH-ALLOC, SWITCH-PANIC): std Mutex poisons only if a holder already panicked; entry map holds ≤ one slot per worker CPU
        *self.spent.lock().unwrap().entry(cpu).or_insert(0) += cycles;
        // Shadow publish before the real count bump: a CP that observes
        // the bump is guaranteed to join this completion's clock.
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_chunk_complete();
        self.completed.fetch_add(1, Ordering::AcqRel);
    }

    /// Flag a validation failure: `pull` returns `None` from now on.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::Release);
    }

    /// Has a worker flagged a failure?
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Every claimed chunk has completed, and either all chunks were
    /// claimed or the queue failed (so no more ever will be).  Once
    /// true, no worker is still executing a chunk.
    pub fn drained(&self) -> bool {
        let claimed = self.claimed();
        self.completed.load(Ordering::Acquire) >= claimed
            && (claimed == self.items.len() || self.failed())
    }

    /// CP side: spin (host wall-clock) until [`WorkQueue::drained`] or
    /// `timeout`.  Returns whether the queue drained; the caller then
    /// checks [`WorkQueue::failed`] for the outcome.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // volint::bound(4096) — timeout-bounded drain spin; healthy-path budget while workers stream completions
        while !self.drained() {
            if Instant::now() > deadline {
                return false;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        #[cfg(feature = "dyncheck")]
        // volint::prune(*) — dyncheck instrumentation, compiled out in production builds
        self.monitor.on_drained(self.completed.load(Ordering::Acquire));
        true
    }

    /// The largest per-CPU cycle spend — the makespan of the work
    /// phase, which is what the CP charges to wall-clock (everyone ran
    /// concurrently).
    pub fn max_spent(&self) -> u64 {
        self.spent
            .lock()
            // volint::allow(SWITCH-PANIC): std Mutex lock; poisoning implies a prior worker panic already aborted the switch
            .unwrap()
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Cycles charged by worker `cpu` (0 if it never completed a chunk).
    pub fn spent_of(&self, cpu: u32) -> u64 {
        // volint::allow(SWITCH-PANIC): std Mutex lock; poisoning implies a prior worker panic already aborted the switch
        self.spent.lock().unwrap().get(&cpu).copied().unwrap_or(0)
    }
}

// ---- the driver: sharded recompute (§5.4 work phase) ----------------------------

/// One unit of the sharded attach-time recompute.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardChunk {
    /// A slice of the per-frame accounting scan: pure simulated cycles.
    Scan(u64),
    /// Validate one base table (and the L1s it claims) concurrently.
    Pgd(FrameNum),
}

impl Mercury {
    /// Rebuild page_info with the rendezvoused peers as workers: the
    /// accounting scan (`per_frame` cycles per owned frame) and the
    /// per-pgd validation walks are chunked onto a shared work queue
    /// that parked peers drain concurrently with the control processor.
    /// The CP charges itself the phase *makespan* (max per-CPU spend),
    /// not the serial sum.
    pub(crate) fn sharded_recompute_phase(
        &self,
        cpu: &Arc<Cpu>,
        per_frame: u64,
    ) -> Result<(), SwitchError> {
        let pgds = self.kernel().all_pgds();
        let owned = self.kernel().pool_size();
        let scan_total = per_frame * owned as u64;
        self.hypervisor().page_info.clear_types_for(self.dom0().id);

        // Split the uniform scan into SHARD_CHUNK_FRAMES-sized slices
        // and append one validation chunk per base table.
        let n_scan = owned.div_ceil(SHARD_CHUNK_FRAMES).max(1);
        // volint::allow(SWITCH-ALLOC): chunk list is built before any peer starts pulling; §5.4 accepts one allocation burst to set up the work queue
        let mut chunks = Vec::with_capacity(n_scan + pgds.len());
        let base = scan_total / n_scan as u64;
        let rem = scan_total % n_scan as u64;
        // volint::bound(128) — n_scan ≤ 16384 frames / SHARD_CHUNK_FRAMES(256) = 64, plus one chunk per pgd
        for i in 0..n_scan as u64 {
            // volint::allow(SWITCH-ALLOC): pushes into the pre-sized chunk list (capacity reserved above)
            chunks.push(ShardChunk::Scan(base + u64::from(i < rem)));
        }
        // volint::allow(SWITCH-ALLOC): extends the pre-sized chunk list (capacity reserved above)
        chunks.extend(pgds.iter().map(|&p| ShardChunk::Pgd(p)));

        // volint::allow(SWITCH-ALLOC): one Arc for the shared work queue, made before the peers are released
        let job = Arc::new(WorkQueue::new(chunks));
        merctrace::span_begin!(cpu.id, "switch.transfer.pginfo_shard", cpu.cycles());
        *self.shard_job.lock() = Some(Arc::clone(&job));
        // The CP joins the work phase as an ordinary worker, up to its
        // fair share.  Simulated time is charged to whichever CPU pulls
        // a chunk, so an uncapped queue would let one fast *host
        // thread* soak up the whole phase and serialize the modelled
        // cost; the per-CPU cap keeps the simulated schedule parallel
        // no matter how the host OS schedules the worker threads.
        let cap = self.shard_fair_share(&job);
        let mut served = 0usize;
        // volint::bound(128) — CP fair share is capped at the chunk count, ≤ 128
        while served < cap && self.shard_exec_one(cpu, &job) {
            served += 1;
            std::thread::yield_now();
        }
        // … then waits for in-flight peer chunks to retire.  The job is
        // unpublished before signal_go, so every peer chunk completion
        // happens-before the release (checked by dyncheck's
        // WorkMonitor inside wait_drained).
        let drained = job.wait_drained(RENDEZVOUS_TIMEOUT);
        *self.shard_job.lock() = None;
        merctrace::span_end!(cpu.id, "switch.transfer.pginfo_shard", cpu.cycles());
        if !drained {
            return Err(SwitchError::Transfer(
                "sharded recompute work queue never drained".into(),
            ));
        }
        // Makespan accounting: the workers ran concurrently, so the
        // phase costs the slowest CPU's spend; the CP already paid its
        // own share while pulling chunks.
        let own = job.spent_of(cpu.id as u32);
        cpu.tick(job.max_spent().saturating_sub(own));
        if job.failed() {
            return Err(SwitchError::Transfer(
                "sharded page_info validation failed".into(),
            ));
        }
        self.dom0().reset_pgds(pgds);
        Ok(())
    }

    /// Pull and execute one chunk from `job` on `cpu`, charging the
    /// dispatch overhead and the chunk's work to that CPU.  Returns
    /// whether a chunk was executed.
    fn shard_exec_one(&self, cpu: &Arc<Cpu>, job: &WorkQueue<ShardChunk>) -> bool {
        let Some((_, chunk)) = job.pull() else {
            return false;
        };
        let t0 = cpu.cycles();
        cpu.tick(costs::SHARD_CHUNK_DISPATCH);
        match *chunk {
            ShardChunk::Scan(cycles) => cpu.tick(cycles),
            ShardChunk::Pgd(pgd) => {
                let mem = &self.kernel().machine.mem;
                let table = &self.hypervisor().page_info;
                let dom = self.dom0().id;
                if table.validate_l2_shared(cpu, mem, pgd, dom).is_err() {
                    job.fail();
                }
            }
        }
        merctrace::counter!(cpu.id, "switch.shard.chunk", 1, cpu.cycles());
        job.complete_one(cpu.id as u32, cpu.cycles() - t0);
        true
    }

    /// A worker's fair share of `job`'s chunks (see
    /// [`Mercury::sharded_recompute_phase`] on why claims are capped).
    fn shard_fair_share(&self, job: &WorkQueue<ShardChunk>) -> usize {
        job.total().div_ceil(self.kernel().machine.num_cpus())
    }

    /// The parked peer's work-phase callback: serve one recompute chunk
    /// if a job is published and this peer is under its fair-share cap.
    /// Returns whether work was done (resets the peer's rendezvous
    /// deadline).  `served` counts this peer's claims across the round.
    pub(crate) fn shard_poll(&self, cpu: &Arc<Cpu>, served: &mut usize) -> bool {
        let job = self.shard_job.lock().clone();
        let Some(job) = job else { return false };
        if *served >= self.shard_fair_share(&job) {
            return false;
        }
        if self.shard_exec_one(cpu, &job) {
            *served += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_claimed_exactly_once() {
        let q = Arc::new(WorkQueue::new((0u32..100).collect::<Vec<_>>()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..4)
            .map(|cpu| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    while let Some((_, &item)) = q.pull() {
                        seen.lock().unwrap().push(item);
                        q.complete_one(cpu, 10);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert!(q.wait_drained(Duration::from_secs(5)));
        assert!(!q.failed());
        let mut items = seen.lock().unwrap().clone();
        items.sort_unstable();
        assert_eq!(items, (0u32..100).collect::<Vec<_>>());
    }

    #[test]
    fn spent_is_tracked_per_cpu_and_max_is_makespan() {
        let q = WorkQueue::new(vec![(); 3]);
        q.pull().unwrap();
        q.complete_one(0, 100);
        q.pull().unwrap();
        q.complete_one(1, 250);
        q.pull().unwrap();
        q.complete_one(1, 50);
        assert!(q.pull().is_none());
        assert_eq!(q.spent_of(0), 100);
        assert_eq!(q.spent_of(1), 300);
        assert_eq!(q.spent_of(7), 0);
        assert_eq!(q.max_spent(), 300);
        assert!(q.drained());
    }

    #[test]
    fn fail_stops_dispatch_but_in_flight_chunks_retire() {
        let q = WorkQueue::new(vec![(); 10]);
        let (_, _) = q.pull().unwrap();
        let (_, _) = q.pull().unwrap();
        q.fail();
        assert!(q.pull().is_none(), "no dispatch after failure");
        assert!(!q.drained(), "two claimed chunks still in flight");
        q.complete_one(0, 1);
        q.complete_one(1, 1);
        assert!(q.drained());
        assert!(q.wait_drained(Duration::from_millis(10)));
        assert!(q.failed());
    }

    #[test]
    fn wait_drained_times_out_on_lost_chunk() {
        let q = WorkQueue::new(vec![(); 1]);
        q.pull().unwrap();
        // The claimed chunk never completes.
        assert!(!q.wait_drained(Duration::from_millis(20)));
    }

    #[test]
    fn empty_queue_is_immediately_drained() {
        let q: WorkQueue<u32> = WorkQueue::new(Vec::new());
        assert!(q.drained());
        assert!(q.wait_drained(Duration::from_millis(1)));
        assert_eq!(q.max_spent(), 0);
    }
}
