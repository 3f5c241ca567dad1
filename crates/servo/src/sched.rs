//! Per-node run-to-completion scheduling with bounded admission.
//!
//! A [`NodeServer`] serves one [`Node`]: one worker per simulated CPU,
//! each with its own kernel session, working file and (optional) echo
//! socket.  Scheduling is run-to-completion — a worker executes one
//! request from arrival of CPU control to completion, with no
//! preemption — which mirrors both the simulator's explicit service
//! points and the busy-polling request loops of real serving stacks.
//!
//! Admission is a bounded FIFO queue: an arrival finding an idle worker
//! starts immediately; otherwise it queues if there is room and is
//! **shed** (tail drop) if there is not.  Shedding is recorded, never
//! silent: the denominator of every tail percentile is the *offered*
//! load (DESIGN.md §13.2).
//!
//! The event loop is strictly deterministic: workers are simulated
//! serially on one host thread, each on its own simulated-cycle clock,
//! and ties (two workers free at the same cycle) break toward the
//! lower worker index.  External machinery — a watchdog poll, an
//! explicit mode switch — runs in the [`NodeServer::run`] hook between
//! dispatches, on the boot CPU; the scheduler resynchronizes its
//! worker clock afterwards, so switch cycles charged there appear as
//! queueing delay to the requests behind them, exactly as on real
//! hardware.

use crate::loadgen::Arrival;
use mercury_cluster::Node;
use mercury_workloads::mix::RequestShape;
use nimbus::kernel::{ReadOutcome, WriteOutcome};
use nimbus::Session;
use simx86::devices::EchoWire;
use std::collections::VecDeque;
use std::sync::Arc;

/// How one request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion.
    Completed,
    /// Tail-dropped at admission: the queue was full.
    Shed,
}

/// The exact lifecycle of one request, all times in simulated cycles
/// relative to the node's traffic start ([`NodeServer::base`]) so two
/// same-seed runs compare bit-identically regardless of how much
/// simulated time node setup consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id from the arrival stream.
    pub id: u64,
    /// Shape name (from the cost mix).
    pub shape: &'static str,
    /// Node that served (or shed) it.
    pub node: u32,
    /// Worker (CPU index) that ran it; the admitting CPU for sheds.
    pub worker: u32,
    /// Arrival offset.
    pub arrival: u64,
    /// Service start offset (equals `arrival` for sheds).
    pub start: u64,
    /// Completion offset (equals `arrival` for sheds).
    pub finish: u64,
    /// Completed or shed.
    pub outcome: Outcome,
}

impl RequestRecord {
    /// Time in system (arrival → finish); `None` for sheds.
    pub fn sojourn(&self) -> Option<u64> {
        match self.outcome {
            Outcome::Completed => Some(self.finish - self.arrival),
            Outcome::Shed => None,
        }
    }
}

/// Scheduler tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Workers to run (one per CPU, from CPU 0 up).  Clamped to the
    /// node's CPU count.
    pub workers: usize,
    /// Bounded admission queue capacity (requests beyond the workers).
    pub queue_capacity: usize,
    /// Attach an in-process echo host to the node's NIC (port-swapping
    /// [`EchoWire`], as the netperf testbeds do) so `net_echoes` ops
    /// get replies.  Leave off for nodes whose NIC is wired to a
    /// cluster peer; echo sends then fall back to fire-and-forget.
    pub attach_echo_host: bool,
}

/// Size of each worker's circular working-file window, bytes.
const IO_WINDOW_BYTES: u64 = 16 * 1024;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
            attach_echo_host: true,
        }
    }
}

/// A queued, admitted request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    shape: RequestShape,
    arrival_abs: u64,
}

/// One serving worker: a session pinned to one CPU plus its working
/// state.
struct Worker {
    sess: Session,
    /// Working-file descriptor (in this worker's process).
    fd: usize,
    /// Echo socket, when the node has an echo host.
    sock: Option<usize>,
    /// Absolute cycle at which this worker is next idle.
    free_at: u64,
    /// Circular write position within the io window.
    wpos: u64,
    /// Circular read position within the io window.
    rpos: u64,
}

/// Where an `io`-byte access at circular cursor `pos` goes — at `pos`,
/// or back at the window's start when it would run past the end (the
/// cursor may sit anywhere a *smaller* request left it) — with the
/// cursor moved past it.
fn window_slot(pos: &mut u64, io: usize) -> u64 {
    if *pos + io as u64 > IO_WINDOW_BYTES {
        *pos = 0;
    }
    let at = *pos;
    *pos += io as u64;
    at
}

impl Worker {
    /// One circular-log append of `data` at the write cursor: bounded
    /// file, append-shaped cost.
    fn append(&mut self, data: &[u8]) {
        let at = window_slot(&mut self.wpos, data.len());
        self.sess.lseek(self.fd, at).expect("log seek");
        match self.sess.write(self.fd, data).expect("log write") {
            WriteOutcome::Wrote(_) => {}
            other => panic!("log write blocked: {other:?}"),
        }
    }

    /// One `io`-byte read at the read cursor; the window is prefilled,
    /// so all `io` bytes come back.
    fn read(&mut self, io: usize) -> Vec<u8> {
        let at = window_slot(&mut self.rpos, io);
        self.sess.lseek(self.fd, at).expect("read seek");
        match self.sess.read(self.fd, io).expect("log read") {
            ReadOutcome::Data(data) => data,
            other => panic!("log read blocked: {other:?}"),
        }
    }
}

/// The run-to-completion server for one node.
///
/// ```
/// use mercury_cluster::{Node, NodeConfig};
/// use mercury_servo::sched::{NodeServer, Outcome, ServerConfig};
/// use mercury_servo::loadgen::{generate, LoadConfig};
/// use mercury_workloads::mix::CostMix;
///
/// let node = Node::launch("n0", &NodeConfig::default());
/// let mut server = NodeServer::new(&node, 0, ServerConfig::default());
/// let traffic = generate(&LoadConfig {
///     seed: 1, mean_gap_cycles: 80_000, requests: 25, mix: CostMix::web(),
/// });
/// server.run(&traffic, |_, _| {});
/// // Run-to-completion on one worker: completions preserve arrival order.
/// let ids: Vec<u64> = server.records().iter()
///     .filter(|r| r.outcome == Outcome::Completed).map(|r| r.id).collect();
/// let mut sorted = ids.clone();
/// sorted.sort();
/// assert_eq!(ids, sorted);
/// ```
pub struct NodeServer {
    node: Arc<Node>,
    node_index: u32,
    cfg: ServerConfig,
    workers: Vec<Worker>,
    queue: VecDeque<Pending>,
    records: Vec<RequestRecord>,
    /// Absolute cycle of traffic start; all record times are relative
    /// to this.
    base: u64,
    payload: Vec<u8>,
}

impl NodeServer {
    /// Build the server: fork one process per extra worker, adopt them
    /// on their CPUs, open working files, prefill the io windows, and
    /// align every worker clock to a common traffic-start cycle.
    pub fn new(node: &Arc<Node>, node_index: u32, cfg: ServerConfig) -> NodeServer {
        let kernel = node.kernel();
        let workers = cfg.workers.clamp(1, node.machine.num_cpus());
        if cfg.attach_echo_host {
            // Same in-process echo peer as the netperf testbeds: the
            // reply swaps the port header so it lands on the sender.
            node.machine.nic.connect(Arc::new(EchoWire::port_swapping(
                Arc::clone(&node.machine.nic),
                Arc::clone(&node.machine.intc),
            )));
        }

        // CPU 0's boot process forks a child per extra worker; the
        // other CPUs adopt them from the run queue.
        let sess0 = Session::new(Arc::clone(&kernel), 0);
        for _ in 1..workers {
            sess0.fork().expect("fork worker process");
        }
        let chunk = vec![0xA5u8; 2_048];
        let mut built = Vec::with_capacity(workers);
        for w in 0..workers {
            let sess = Session::new(Arc::clone(&kernel), w);
            if w > 0 {
                while sess.current_pid().is_none() {
                    sess.idle().expect("adopt worker process");
                }
            }
            let fd = sess
                .open(&format!("servo_n{node_index}_w{w}.log"), true)
                .expect("open working file");
            // Prefill the window so reads always hit data.
            let mut written = 0u64;
            while written < IO_WINDOW_BYTES {
                let n = chunk.len().min((IO_WINDOW_BYTES - written) as usize);
                match sess.write(fd, &chunk[..n]).expect("prefill") {
                    WriteOutcome::Wrote(k) => written += k as u64,
                    other => panic!("prefill write blocked: {other:?}"),
                }
            }
            let sock = cfg.attach_echo_host.then(|| {
                sess.socket(40_000 + node_index as u16 * 16 + w as u16)
                    .expect("bind echo socket")
            });
            built.push(Worker {
                sess,
                fd,
                sock,
                free_at: 0,
                wpos: 0,
                rpos: 0,
            });
        }

        // Align all worker clocks to the same traffic-start cycle.
        let base = built
            .iter()
            .map(|w| w.sess.cpu().cycles())
            .max()
            .expect("at least one worker");
        for w in &mut built {
            let c = w.sess.cpu();
            c.tick(base - c.cycles());
            w.free_at = base;
        }

        NodeServer {
            node: Arc::clone(node),
            node_index,
            cfg,
            workers: built,
            queue: VecDeque::new(),
            records: Vec::new(),
            base,
            payload: chunk,
        }
    }

    /// The node being served.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Absolute simulated cycle of traffic start.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Convert a stream offset to this node's absolute cycle.
    pub fn abs(&self, offset: u64) -> u64 {
        self.base + offset
    }

    /// Everything recorded so far, in completion order (sheds inline at
    /// their arrival).
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Requests currently queued (admitted, not yet started).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Remaining busy work across workers at absolute cycle `t`: the
    /// balancer's second-order load signal.
    pub fn busy_cycles(&self, t: u64) -> u64 {
        self.workers
            .iter()
            .map(|w| w.free_at.saturating_sub(t))
            .sum()
    }

    /// Fold work done outside the scheduler (watchdog polls, explicit
    /// switches in a run hook — anything that advanced a worker CPU's
    /// clock) back into that worker's availability.  Called
    /// automatically by [`advance_to`](NodeServer::advance_to) and
    /// [`offer`](NodeServer::offer).
    pub fn sync_external(&mut self) {
        for w in &mut self.workers {
            w.free_at = w.free_at.max(w.sess.cpu().cycles());
        }
    }

    /// Index of the worker with the earliest `free_at` (ties to the
    /// lowest index — the determinism rule).
    fn earliest_worker(&self) -> usize {
        let mut best = 0;
        for (i, w) in self.workers.iter().enumerate().skip(1) {
            if w.free_at < self.workers[best].free_at {
                best = i;
            }
        }
        best
    }

    /// Replay completions that happen strictly before absolute cycle
    /// `t`: any worker freeing before `t` takes the queue head at its
    /// free cycle, run-to-completion, until no worker frees before `t`
    /// or the queue is empty.
    pub fn advance_to(&mut self, t: u64) {
        self.sync_external();
        while !self.queue.is_empty() {
            let w = self.earliest_worker();
            if self.workers[w].free_at >= t {
                break;
            }
            let p = self.queue.pop_front().expect("nonempty queue");
            let start = self.workers[w].free_at;
            self.execute(w, p, start);
        }
    }

    /// Offer one arrival at absolute cycle `t` (callers must have
    /// [`advance_to`](NodeServer::advance_to)`(t)` first): start it on
    /// an idle worker, queue it, or shed it.
    pub fn offer(&mut self, id: u64, shape: &RequestShape, t: u64) {
        self.sync_external();
        merctrace::counter!(0usize, "servo.offered", 1, t);
        let p = Pending {
            id,
            shape: *shape,
            arrival_abs: t,
        };
        let w = self.earliest_worker();
        if self.workers[w].free_at <= t {
            self.execute(w, p, t);
        } else if self.queue.len() < self.cfg.queue_capacity {
            self.queue.push_back(p);
        } else {
            merctrace::counter!(0usize, "servo.shed", 1, t);
            self.records.push(RequestRecord {
                id,
                shape: shape.name,
                node: self.node_index,
                worker: 0,
                arrival: t - self.base,
                start: t - self.base,
                finish: t - self.base,
                outcome: Outcome::Shed,
            });
        }
    }

    /// Run every queued request to completion.
    pub fn drain(&mut self) {
        self.sync_external();
        while let Some(p) = self.queue.pop_front() {
            let w = self.earliest_worker();
            let start = self.workers[w].free_at.max(p.arrival_abs);
            self.execute(w, p, start);
        }
    }

    /// Serve a whole arrival stream.  `hook` runs before each dispatch
    /// with `(self, offset)` — the place to poll a watchdog, trigger a
    /// mode switch, or fire fault campaigns on the simulated clock.
    pub fn run(&mut self, traffic: &[Arrival], mut hook: impl FnMut(&mut NodeServer, u64)) {
        for a in traffic {
            let t = self.abs(a.offset);
            self.advance_to(t);
            hook(self, a.offset);
            // The hook may have advanced worker clocks (switch cycles);
            // late queued work runs first, then the new arrival lands.
            self.advance_to(t);
            self.offer(a.id, &a.shape, t);
        }
        self.drain();
    }

    /// Run one request on worker `w`, starting at absolute cycle
    /// `start` (its CPU idles forward to `start` first).
    fn execute(&mut self, w: usize, p: Pending, start: u64) {
        let shape = p.shape;
        let io = (shape.io_bytes as usize).min(self.payload.len());
        let wk = &mut self.workers[w];
        let cpu = wk.sess.cpu();
        debug_assert!(start >= cpu.cycles(), "worker clock ran past its slot");
        let gap = start - cpu.cycles();
        if gap > 0 {
            // An open-loop gap goes to revalidating written frames
            // first: always-on dirty tracking turns serving slack into
            // attach-time savings.  Deterministic: the sweep's frame
            // order and the gap lengths are pure functions of the
            // seeded run.
            let used = self.node.mercury().donate_idle(cpu, gap);
            debug_assert!(used <= gap, "revalidation overran the open-loop gap");
            // Whatever that left of the gap is idle time: one tick
            // (DESIGN.md §14).
            self.node.machine.evclock.advance(cpu, start);
        }
        let started = cpu.cycles();
        merctrace::span_begin!(cpu.id, "servo.request", started);

        wk.sess.compute(shape.compute_cycles);
        for _ in 0..shape.file_appends {
            wk.append(&self.payload[..io]);
        }
        for _ in 0..shape.file_reads {
            wk.read(io);
        }
        for _ in 0..shape.net_echoes {
            // No socket (cluster-wired NIC): fire-and-forget shape.
            if let Some(fd) = wk.sock {
                let n = io.min(1_024);
                wk.sess
                    .sendto(fd, 50_000, &self.payload[..n])
                    .expect("echo send");
                // The echo host bounces synchronously; a missing
                // reply here would be a wiring bug, not load.
                wk.sess
                    .recvfrom_nonblock(fd)
                    .expect("echo recv")
                    .expect("echo host attached but no reply");
            }
        }

        let cpu = wk.sess.cpu();
        let finish = cpu.cycles();
        merctrace::span_end!(cpu.id, "servo.request", finish);
        merctrace::hist!(cpu.id, "servo.sojourn", finish - p.arrival_abs, finish);
        merctrace::counter!(cpu.id, "servo.completed", 1, finish);
        wk.free_at = finish;
        self.records.push(RequestRecord {
            id: p.id,
            shape: shape.name,
            node: self.node_index,
            worker: w as u32,
            arrival: p.arrival_abs - self.base,
            start: started - self.base,
            finish: finish - self.base,
            outcome: Outcome::Completed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate, LoadConfig};
    use mercury_cluster::NodeConfig;
    use mercury_workloads::mix::CostMix;

    fn traffic(seed: u64, gap: u64, n: u32) -> Vec<Arrival> {
        generate(&LoadConfig {
            seed,
            mean_gap_cycles: gap,
            requests: n,
            mix: CostMix::oltp(),
        })
    }

    fn revalidated(node: &Node) -> u64 {
        node.mercury().stats.snapshot().idle_revalidated
    }

    /// After a smaller request the cursor may sit where a larger one no
    /// longer fits; the larger one wraps to the window's start instead
    /// of reading (or writing) past its end.
    #[test]
    fn larger_request_after_a_smaller_one_at_the_windows_end_wraps() {
        let node = Node::launch("n0", &NodeConfig::default());
        let mut server = NodeServer::new(&node, 0, ServerConfig::default());
        let wk = &mut server.workers[0];
        // The last 512 bytes of the window: a 256-byte request fits
        // twice, a 512-byte one only at this very position.
        wk.rpos = IO_WINDOW_BYTES - 512;
        wk.wpos = IO_WINDOW_BYTES - 512;
        assert_eq!(wk.read(256).len(), 256);
        assert_eq!(wk.read(512).len(), 512, "short read off the window's end");
        wk.append(&[1; 256]);
        wk.append(&[2; 512]);
        let size = wk.sess.stat("servo_n0_w0.log").unwrap().size;
        assert_eq!(
            size, IO_WINDOW_BYTES,
            "the working file grew past its window"
        );
    }

    #[test]
    fn every_offered_request_is_accounted() {
        let node = Node::launch("n0", &NodeConfig::default());
        let mut server = NodeServer::new(&node, 0, ServerConfig::default());
        let t = traffic(11, 40_000, 300);
        server.run(&t, |_, _| {});
        assert_eq!(server.records().len(), 300);
        let completed = server
            .records()
            .iter()
            .filter(|r| r.outcome == Outcome::Completed)
            .count();
        assert!(completed > 0);
        for r in server.records() {
            assert!(r.start >= r.arrival);
            assert!(r.finish >= r.start);
        }
    }

    #[test]
    fn single_worker_preserves_arrival_order() {
        let node = Node::launch("n0", &NodeConfig::default());
        let mut server = NodeServer::new(&node, 0, ServerConfig::default());
        let t = traffic(23, 20_000, 200);
        server.run(&t, |_, _| {});
        let ids: Vec<u64> = server
            .records()
            .iter()
            .filter(|r| r.outcome == Outcome::Completed)
            .map(|r| r.id)
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "run-to-completion FIFO must not reorder");
    }

    #[test]
    fn tiny_queue_sheds_under_overload() {
        let node = Node::launch("n0", &NodeConfig::default());
        let mut server = NodeServer::new(
            &node,
            0,
            ServerConfig {
                queue_capacity: 2,
                ..ServerConfig::default()
            },
        );
        // Mean gap far below the per-request cost: the queue must fill.
        let t = traffic(7, 1_000, 200);
        server.run(&t, |_, _| {});
        let shed = server
            .records()
            .iter()
            .filter(|r| r.outcome == Outcome::Shed)
            .count();
        assert!(shed > 0, "overload with capacity 2 must shed");
        assert_eq!(server.records().len(), 200);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        // Gaps go to revalidation: records (arrival, start, finish,
        // worker, outcome) and the frames revalidated must both repeat.
        // Steady-state SMP serving is simulation-deterministic too (no
        // switch during traffic), hence the 2-worker input.
        let run = |seed: u64, cpus: usize| {
            let node = Node::launch(
                "n0",
                &NodeConfig {
                    num_cpus: cpus,
                    ..NodeConfig::default()
                },
            );
            let mut server = NodeServer::new(
                &node,
                0,
                ServerConfig {
                    workers: cpus,
                    ..ServerConfig::default()
                },
            );
            server.run(&traffic(seed, 300_000 / cpus as u64, 400), |_, _| {});
            (server.records().to_vec(), revalidated(&node))
        };
        for (seed, cpus) in [(11, 1), (42, 1), (987, 1), (7, 2)] {
            assert_eq!(run(seed, cpus), run(seed, cpus), "seed {seed}, {cpus} cpus");
        }
    }

    #[test]
    fn open_loop_gaps_feed_revalidation() {
        let node = Node::launch("n0", &NodeConfig::default());
        // Dirty some table frames natively before traffic starts.
        let sess = node.session();
        let va = sess
            .mmap(8, nimbus::mm::Prot::RW, nimbus::kernel::MmapBacking::Anon)
            .unwrap();
        for p in 0..8u64 {
            sess.poke(
                simx86::paging::VirtAddr(va.0 + p * simx86::paging::PAGE_SIZE),
                p,
            )
            .unwrap();
        }
        let backlog0 = node.mercury().revalidation_backlog().len();
        assert!(backlog0 > 0, "pokes must dirty tables");

        // Sparse arrivals leave open-loop gaps, and the gaps retire
        // the dirty backlog instead of idling away.
        let mut server = NodeServer::new(&node, 0, ServerConfig::default());
        server.run(&traffic(13, 200_000, 50), |_, _| {});
        assert!(revalidated(&node) > 0, "gaps must revalidate");
        assert!(node.mercury().revalidation_backlog().len() < backlog0);
    }

    #[test]
    fn two_workers_beat_one_on_tail() {
        let mk = |workers| {
            let node = Node::launch(
                "n0",
                &NodeConfig {
                    num_cpus: 2,
                    ..NodeConfig::default()
                },
            );
            let mut server = NodeServer::new(
                &node,
                0,
                ServerConfig {
                    workers,
                    ..ServerConfig::default()
                },
            );
            server.run(&traffic(9, 15_000, 300), |_, _| {});
            let mut soj: Vec<u64> = server
                .records()
                .iter()
                .filter_map(|r| r.sojourn())
                .collect();
            soj.sort();
            soj[soj.len() * 99 / 100]
        };
        assert!(
            mk(2) <= mk(1),
            "adding a worker must not worsen the p99 at fixed load"
        );
    }
}
