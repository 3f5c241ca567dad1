//! The workloads: an open-loop request server (servo's run-to-completion
//! loop re-implemented over `nimbus::Session`), a closed-loop
//! mmap/fork churn, and a closed-loop attach/detach cycle.  Each checks
//! what the system hands back and counts an op that fails any check.

use crate::calib::{Reference, NOMINAL_NS};
use crate::gen::{unit_open, Arrival, Arrivals};
use crate::rig::{page, Rig, ECHO_PORT, WORKING_SET_PAGES};
use crate::stats::Mark;
use crate::trace::{Layer, Recorder};
use faultgen::rng::SplitMix64;
use mercury::ExecMode;
use nimbus::kernel::{MmapBacking, ReadOutcome, WriteOutcome};
use nimbus::mm::Prot;
use nimbus::Pid;
use simx86::paging::VirtAddr;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::time::Instant;

/// Requests admitted beyond the one in service; an arrival that finds
/// the queue full is shed.
const QUEUE_CAPACITY: usize = 64;
/// The circular working-file window every request reads and appends in.
const IO_WINDOW: usize = 16 * 1024;
const LOCAL_PORT: u16 = 40_000;
/// Pages written at set-up and read back after every switch.
const CANARY_PAGES: u64 = 8;
/// A churn iteration computes in user mode for up to 10 us.
const MAX_THINK_CYCLES: u64 = 30_000;
/// Timed sections are marked this many times per block of ops.
const MARKS_PER_BLOCK: u64 = 50;

type Check = Result<(), String>;

/// A traced call into nimbus; an error is the op's failure.
fn nimbus<T, E: Debug>(
    rec: &mut Recorder,
    rig: &Rig,
    name: &'static str,
    call: impl FnOnce() -> Result<T, E>,
) -> Result<T, String> {
    rec.call(Layer::Nimbus, name, rig.cpu(), call)
        .map_err(|e| format!("{name}: {e:?}"))
}

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Check {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// Where completed ops report.  Ops with an id below `block` feed the
/// simulated-clock metrics, so those depend only on the seed; every op
/// feeds the host-clock marks and the failure count.
pub struct Sink {
    block: u64,
    /// Latency in cycles per block op; a failed op is `u32::MAX`, so it
    /// sorts past every latency limit.
    pub latencies: Vec<u32>,
    /// Service cycles (queue wait excluded) summed over block ops.
    pub service_cycles: u64,
    /// CPU cycle at which the last block op completed.
    pub block_end_cycle: u64,
    pub start_cycle: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Cycles the CPU idled between ops (open loop only).
    pub idle_cycles: u64,
    /// Host nanoseconds spent in steps so far, and when the current
    /// step began.
    host_ns: u64,
    step_started: Instant,
    pub marks: Vec<Mark>,
    /// Sampled at every mark when the host-clock rates will be read.
    reference: Option<Reference>,
}

impl Sink {
    fn new(block: u64, rig: &Rig, mut reference: Option<Reference>) -> Sink {
        let ref_ns = reference.as_mut().map_or(NOMINAL_NS, Reference::sample);
        let start_cycle = rig.cpu().cycles();
        Sink {
            block,
            latencies: Vec::with_capacity(block as usize),
            service_cycles: 0,
            block_end_cycle: start_cycle,
            start_cycle,
            attempted: 0,
            failed: 0,
            first_failure: None,
            idle_cycles: 0,
            host_ns: 0,
            step_started: Instant::now(),
            marks: vec![Mark {
                ops: 0,
                busy_cycles: 0,
                host_ns: 0,
                ref_ns,
            }],
            reference,
        }
    }

    fn complete(&mut self, id: u64, latency: u64, service: u64, check: Check, now_cycles: u64) {
        self.attempted += 1;
        let sample = match check {
            Ok(()) => u32::try_from(latency).unwrap_or(u32::MAX),
            Err(why) => {
                self.fail(why);
                u32::MAX
            }
        };
        if id < self.block {
            self.latencies.push(sample);
            self.service_cycles += service;
            self.block_end_cycle = now_cycles;
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// The calibration sample runs between steps, outside their time.
    fn mark(&mut self, rig: &Rig) {
        self.host_ns += self.step_started.elapsed().as_nanos() as u64;
        let ref_ns = self
            .reference
            .as_mut()
            .map_or(NOMINAL_NS, Reference::sample);
        self.marks.push(Mark {
            ops: self.attempted,
            busy_cycles: rig.cpu().cycles() - self.start_cycle - self.idle_cycles,
            host_ns: self.host_ns,
            ref_ns,
        });
        self.step_started = Instant::now();
    }
}

pub trait Workload {
    /// Take one arrival (open loop) or run one op (closed loop).
    fn step(&mut self, rig: &Rig, rec: &mut Recorder, sink: &mut Sink);

    /// Complete whatever is still queued.
    fn drain(&mut self, _rig: &Rig, _rec: &mut Recorder, _sink: &mut Sink) {}
}

/// Run at least `block` steps, then keep going until `fill_until` (if
/// any) so the host-clock rates see the whole measuring window.  With
/// a `reference`, every mark carries a calibration sample; without,
/// the marks' host times are raw.
pub fn run(
    w: &mut dyn Workload,
    rig: &Rig,
    rec: &mut Recorder,
    block: u64,
    fill_until: Option<Instant>,
    reference: Option<Reference>,
) -> Sink {
    let chunk = (block / MARKS_PER_BLOCK).max(1);
    let mut sink = Sink::new(block, rig, reference);
    let mut steps = 0;
    while steps < block || fill_until.is_some_and(|t| Instant::now() < t) {
        for _ in 0..chunk {
            w.step(rig, rec, &mut sink);
        }
        steps += chunk;
        sink.mark(rig);
    }
    w.drain(rig, rec, &mut sink);
    sink
}

/// Pages planted at set-up whose contents every switch must preserve.
struct Canary {
    va: VirtAddr,
}

impl Canary {
    const MAGIC: u64 = 0x6d65_7263_7572_7921;

    fn plant(rig: &Rig) -> Canary {
        let va = rig
            .sess
            .mmap(CANARY_PAGES, Prot::RW, MmapBacking::Anon)
            .expect("map canary");
        for p in 0..CANARY_PAGES {
            rig.sess
                .poke(page(va, p), Self::MAGIC ^ p)
                .expect("plant canary");
        }
        Canary { va }
    }

    fn verify(&self, rig: &Rig, rec: &mut Recorder) -> Check {
        for p in 0..CANARY_PAGES {
            let got = nimbus(rec, rig, "peek", || rig.sess.peek(page(self.va, p)))?;
            ensure(got == Self::MAGIC ^ p, || {
                format!("canary page {p} reads {got:#x} after a switch")
            })?;
        }
        Ok(())
    }
}

fn flip(mode: ExecMode) -> ExecMode {
    match mode {
        ExecMode::Native => ExecMode::Virtual,
        ExecMode::Virtual => ExecMode::Native,
    }
}

fn switch_to(rig: &Rig, rec: &mut Recorder, target: ExecMode) -> Result<u64, String> {
    let name = match target {
        ExecMode::Virtual => "switch_to_virtual",
        ExecMode::Native => "switch_to_native",
    };
    rec.call(Layer::Mercury, name, rig.cpu(), || rig.switch_to(target))
}

// ------------------------------------------------------------- serve

/// Mode switches injected into the request stream: one before the
/// arrival with id `next_at`, alternating attach and detach.
struct SwitchPlan {
    rng: SplitMix64,
    next_at: u64,
}

impl SwitchPlan {
    /// A switch every 2 000 to 4 000 requests, 3 000 on average.
    fn advance(&mut self) {
        self.next_at += self.rng.range(2_000, 4_001);
    }
}

/// One worker, one FIFO queue, run to completion: the servo loop.
pub struct Serve {
    arrivals: Arrivals,
    /// CPU cycle the current stream's offsets are relative to.
    base: u64,
    queue: VecDeque<Arrival>,
    fd: usize,
    sock: usize,
    /// What the working-file window must contain.
    shadow: Vec<u8>,
    wpos: usize,
    rpos: usize,
    plan: Option<SwitchPlan>,
    canary: Canary,
}

impl Serve {
    /// Open and pre-fill the working file, bind the echo socket, plant
    /// the canary.  `restart` must follow before the first step.
    pub fn open(rig: &Rig) -> Serve {
        let sess = &rig.sess;
        let fd = sess.open("serve.log", true).expect("open working file");
        let shadow: Vec<u8> = (0..IO_WINDOW).map(|i| (i % 251) as u8).collect();
        for chunk in shadow.chunks(2_048) {
            match sess.write(fd, chunk).expect("prefill") {
                WriteOutcome::Wrote(n) if n == chunk.len() => {}
                other => panic!("prefill write: {other:?}"),
            }
        }
        let sock = sess.socket(LOCAL_PORT).expect("bind echo socket");
        Serve {
            arrivals: Arrivals::new(0, 1),
            base: 0,
            queue: VecDeque::with_capacity(QUEUE_CAPACITY),
            fd,
            sock,
            shadow,
            wpos: 0,
            rpos: 0,
            plan: None,
            canary: Canary::plant(rig),
        }
    }

    /// Start a fresh arrival stream at the CPU's current cycle.
    pub fn restart(
        &mut self,
        rig: &Rig,
        seed: u64,
        mean_gap_cycles: u64,
        switch_seed: Option<u64>,
    ) {
        assert!(self.queue.is_empty(), "restart with requests queued");
        self.arrivals = Arrivals::new(seed, mean_gap_cycles);
        self.base = rig.cpu().cycles();
        self.plan = switch_seed.map(|s| {
            let mut plan = SwitchPlan {
                rng: SplitMix64::new(s),
                next_at: 0,
            };
            plan.advance();
            plan
        });
    }

    /// Start queued requests whose turn comes strictly before `t`.
    fn advance_to(&mut self, t: u64, rig: &Rig, rec: &mut Recorder, sink: &mut Sink) {
        while rig.cpu().cycles() < t {
            let Some(next) = self.queue.pop_front() else {
                break;
            };
            self.execute(next, rig.cpu().cycles(), rig, rec, sink);
        }
    }

    /// Idle the CPU forward to `start`, then serve `a` to completion.
    fn execute(&mut self, a: Arrival, start: u64, rig: &Rig, rec: &mut Recorder, sink: &mut Sink) {
        let cpu = rig.cpu();
        sink.idle_cycles += idle_until(start, rig, rec);
        let due = self.base + a.offset;
        let started = cpu.cycles();
        rec.begin_op(a.id, due, cpu);
        let check = self.request(&a, rig, rec);
        rec.end_op(a.shape.name, cpu);
        let finish = cpu.cycles();
        sink.complete(a.id, finish - due, finish - started, check, finish);
    }

    /// servo's `execute` body, plus the output checks.
    fn request(&mut self, a: &Arrival, rig: &Rig, rec: &mut Recorder) -> Check {
        let (sess, cpu) = (&rig.sess, rig.cpu());
        let (id, shape) = (a.id, a.shape);
        let io = shape.io_bytes;
        // Positions advance circularly; a request with a smaller `io`
        // may leave one past this request's last valid start.
        let wrap = IO_WINDOW - io + 1;
        rec.call(Layer::Bench, "user_compute", cpu, || {
            sess.compute(a.compute_cycles)
        });
        for k in 0..shape.file_appends {
            // Circular log write: bounded file, append-shaped cost.
            let at = self.wpos % wrap;
            let word = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k as u64;
            for (i, b) in self.shadow[at..at + io].iter_mut().enumerate() {
                *b = (word >> (8 * (i % 8))) as u8 ^ i as u8;
            }
            nimbus(rec, rig, "lseek", || sess.lseek(self.fd, at as u64))?;
            let wrote = nimbus(rec, rig, "write", || {
                sess.write(self.fd, &self.shadow[at..at + io])
            })?;
            ensure(wrote == WriteOutcome::Wrote(io), || {
                format!("log write of {io} bytes: {wrote:?}")
            })?;
            self.wpos = (at + io) % wrap;
        }
        for _ in 0..shape.file_reads {
            let at = self.rpos % wrap;
            nimbus(rec, rig, "lseek", || sess.lseek(self.fd, at as u64))?;
            let got = nimbus(rec, rig, "read", || sess.read(self.fd, io))?;
            ensure(
                matches!(&got, ReadOutcome::Data(d) if d[..] == self.shadow[at..at + io]),
                || format!("request {id}: {io} bytes at {at} read back wrong"),
            )?;
            self.rpos = (at + io) % wrap;
        }
        for _ in 0..shape.net_echoes {
            let at = self.rpos % wrap;
            let payload = &self.shadow[at..at + io];
            nimbus(rec, rig, "sendto", || {
                sess.sendto(self.sock, ECHO_PORT, payload)
            })?;
            // The echo host bounces synchronously, swapping the port
            // header, so the reply is already queued on our socket.
            let reply = nimbus(rec, rig, "recvfrom", || sess.recvfrom_nonblock(self.sock))?;
            ensure(
                matches!(&reply, Some((from, data)) if *from == ECHO_PORT && data[..] == *payload),
                || format!("request {id}: echo reply missing or altered"),
            )?;
        }
        Ok(())
    }

    /// Take the planned switch at `t`, or as soon as the request in
    /// service completes: ahead of the queue, as an interrupt would.
    fn planned_switch(&mut self, t: u64, rig: &Rig, rec: &mut Recorder, sink: &mut Sink) {
        sink.idle_cycles += idle_until(t, rig, rec);
        let target = flip(rig.mercury.mode());
        let check = switch_to(rig, rec, target).and_then(|_| self.canary.verify(rig, rec));
        if let Err(why) = check {
            // A failed switch is a failed op of its own.
            sink.attempted += 1;
            sink.fail(why);
        }
    }
}

/// Fast-forward an idle CPU to `target`; returns the cycles idled.
fn idle_until(target: u64, rig: &Rig, rec: &mut Recorder) -> u64 {
    let cpu = rig.cpu();
    if target <= cpu.cycles() {
        return 0;
    }
    rec.call(Layer::Simx86, "evclock_advance", cpu, || {
        rig.machine.evclock.advance(cpu, target)
    })
}

impl Workload for Serve {
    fn step(&mut self, rig: &Rig, rec: &mut Recorder, sink: &mut Sink) {
        let a = self.arrivals.next().expect("the arrival stream is endless");
        let t = self.base + a.offset;
        self.advance_to(t, rig, rec, sink);
        if self.plan.as_ref().is_some_and(|p| p.next_at == a.id) {
            self.planned_switch(t, rig, rec, sink);
            self.plan.as_mut().expect("checked above").advance();
            // The switch moved the clock: late queued work runs first.
            self.advance_to(t, rig, rec, sink);
        }
        if rig.cpu().cycles() <= t {
            self.execute(a, t, rig, rec, sink);
        } else if self.queue.len() < QUEUE_CAPACITY {
            self.queue.push_back(a);
        } else {
            sink.complete(a.id, 0, 0, Err(format!("request {} shed", a.id)), t);
        }
    }

    fn drain(&mut self, rig: &Rig, rec: &mut Recorder, sink: &mut Sink) {
        self.advance_to(u64::MAX, rig, rec, sink);
    }
}

// ------------------------------------------------------------- churn

/// Closed loop: map a seeded number of pages, touch a seeded share of
/// them, protect, read back and unmap, then fork, exit and reap a child
/// that inherits the dirtied working set.  A seeded stretch of user
/// compute between the two halves keeps iteration times from
/// collapsing onto one value per touched-page count.
pub struct Churn {
    rng: SplitMix64,
    next_id: u64,
    parent: Pid,
}

impl Churn {
    /// Dirty the working set that every fork will duplicate.
    pub fn open(rig: &Rig) -> Churn {
        rig.map_dirty(WORKING_SET_PAGES);
        Churn {
            rng: SplitMix64::new(0),
            next_id: 0,
            parent: rig.sess.current_pid().expect("a current process"),
        }
    }

    pub fn restart(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
        self.next_id = 0;
    }

    fn iteration(&mut self, id: u64, rig: &Rig, rec: &mut Recorder) -> Check {
        let (sess, cpu) = (&rig.sess, rig.cpu());
        let pages = self.rng.range(16, 129);
        let touched = self.rng.range(1, pages + 1);
        let think = self.rng.below(MAX_THINK_CYCLES);
        let tag = |p: u64| id << 8 | p;

        let va = nimbus(rec, rig, "mmap", || {
            sess.mmap(pages, Prot::RW, MmapBacking::Anon)
        })?;
        for p in 0..touched {
            nimbus(rec, rig, "poke", || sess.poke(page(va, p), tag(p)))?;
        }
        nimbus(rec, rig, "mprotect", || sess.mprotect(va, pages, Prot::RO))?;
        for p in 0..touched {
            let got = nimbus(rec, rig, "peek", || sess.peek(page(va, p)))?;
            ensure(got == tag(p), || {
                format!("iteration {id}: page {p} reads {got:#x}")
            })?;
        }
        nimbus(rec, rig, "munmap", || sess.munmap(va, pages))?;
        rec.call(Layer::Bench, "user_compute", cpu, || sess.compute(think));

        let child = nimbus(rec, rig, "fork", || sess.fork())?;
        // The parent blocks in wait; the child becomes current and exits.
        let early = nimbus(rec, rig, "waitpid", || sess.waitpid())?;
        ensure(early.is_none(), || {
            format!("iteration {id}: reaped {early:?} before the child ran")
        })?;
        nimbus(rec, rig, "exit", || sess.exit(0))?;
        ensure(sess.current_pid() == Some(self.parent), || {
            format!("iteration {id}: parent not rescheduled after child exit")
        })?;
        let reaped = nimbus(rec, rig, "waitpid", || sess.waitpid())?;
        ensure(reaped == Some((child, 0)), || {
            format!("iteration {id}: reaped {reaped:?}, forked {child:?}")
        })
    }
}

impl Workload for Churn {
    fn step(&mut self, rig: &Rig, rec: &mut Recorder, sink: &mut Sink) {
        let id = self.next_id;
        self.next_id += 1;
        let cpu = rig.cpu();
        let started = cpu.cycles();
        rec.begin_op(id, started, cpu);
        let check = self.iteration(id, rig, rec);
        rec.end_op("churn", cpu);
        let spent = cpu.cycles() - started;
        sink.complete(id, spent, spent, check, cpu.cycles());
    }
}

// ------------------------------------------------------ switch cycle

/// Page-table frames of the resident sparse region: one touched page
/// in each 2 MiB stripe, so each has an L1 table of its own.  Kept
/// small: every attach re-walks every table on the host.
const RESIDENT_TABLES: u64 = 16;
const PAGES_PER_TABLE: u64 = 512;
/// Fresh pages are this far apart, so sixteen share a page-table frame.
const FRESH_STRIDE_PAGES: u64 = 32;

/// Closed loop: a native phase that dirties page-table frames, then
/// attach, check, unmap, detach.
///
/// Latency is what the application loses to the two switches: the
/// attach and the detach themselves plus its first touch of its pages
/// after each (a switch flushes the TLB, and a lazy strategy defers
/// validation to exactly those touches).  The native phase and the
/// unmap are outside it.
///
/// Attach cost follows the number of page-table frames dirtied since
/// the last detach, one fixed step per frame, so the native phase
/// dirties a seeded number of them two ways: 0-64 fresh pages (a fresh
/// table per sixteen) and a long-tailed number of resident pages
/// re-protected in place.  Together with the per-page first touches
/// that spreads the latencies over thousands of values; fresh pages
/// alone give five and the same percentiles for every seed.
pub struct SwitchCycle {
    rng: SplitMix64,
    next_id: u64,
    canary: Canary,
    resident: VirtAddr,
    /// Whether resident page `i` is currently read-only.
    read_only: Vec<bool>,
}

impl SwitchCycle {
    pub fn open(rig: &Rig) -> SwitchCycle {
        let canary = Canary::plant(rig);
        let resident = rig
            .sess
            .mmap(
                RESIDENT_TABLES * PAGES_PER_TABLE,
                Prot::RW,
                MmapBacking::Anon,
            )
            .expect("map resident region");
        for t in 0..RESIDENT_TABLES {
            rig.sess
                .poke(page(resident, t * PAGES_PER_TABLE), t)
                .expect("touch resident page");
        }
        SwitchCycle {
            rng: SplitMix64::new(0),
            next_id: 0,
            canary,
            resident,
            read_only: vec![false; RESIDENT_TABLES as usize],
        }
    }

    pub fn restart(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
        self.next_id = 0;
    }

    /// How many resident pages this op re-protects: uniform 0-8 plus
    /// an exponential tail (mean 2, cut at 8).
    fn resident_draw(&mut self) -> u64 {
        let tail = (-2.0 * unit_open(self.rng.next_u64()).ln()).round() as u64;
        self.rng.below(9) + tail.min(8)
    }

    /// Returns the cycles lost to the two switches.
    fn cycle(&mut self, id: u64, rig: &Rig, rec: &mut Recorder) -> Result<u64, String> {
        let (sess, cpu) = (&rig.sess, rig.cpu());
        let fresh = self.rng.below(65);
        let reprotected = self.resident_draw();
        let tag = |p: u64| id << 8 | p;
        let fresh_page = |va: VirtAddr, p: u64| page(va, p * FRESH_STRIDE_PAGES);

        let mut va = VirtAddr(0);
        if fresh > 0 {
            va = nimbus(rec, rig, "mmap", || {
                sess.mmap(fresh * FRESH_STRIDE_PAGES, Prot::RW, MmapBacking::Anon)
            })?;
            for p in 0..fresh {
                nimbus(rec, rig, "poke", || sess.poke(fresh_page(va, p), tag(p)))?;
            }
        }
        for t in 0..reprotected {
            let flag = &mut self.read_only[t as usize];
            *flag = !*flag;
            let prot = if *flag { Prot::RO } else { Prot::RW };
            nimbus(rec, rig, "mprotect", || {
                sess.mprotect(page(self.resident, t * PAGES_PER_TABLE), 1, prot)
            })?;
        }

        let before_attach = cpu.cycles();
        switch_to(rig, rec, ExecMode::Virtual)?;
        for p in 0..fresh {
            let got = nimbus(rec, rig, "peek", || sess.peek(fresh_page(va, p)))?;
            ensure(got == tag(p), || {
                format!("cycle {id}: page {p} reads {got:#x} after attach")
            })?;
        }
        self.canary.verify(rig, rec)?;
        let attached = cpu.cycles() - before_attach;

        if fresh > 0 {
            nimbus(rec, rig, "munmap", || {
                sess.munmap(va, fresh * FRESH_STRIDE_PAGES)
            })?;
        }

        let before_detach = cpu.cycles();
        switch_to(rig, rec, ExecMode::Native)?;
        self.canary.verify(rig, rec)?;
        Ok(attached + (cpu.cycles() - before_detach))
    }
}

impl Workload for SwitchCycle {
    fn step(&mut self, rig: &Rig, rec: &mut Recorder, sink: &mut Sink) {
        let id = self.next_id;
        self.next_id += 1;
        let cpu = rig.cpu();
        rec.begin_op(id, cpu.cycles(), cpu);
        let outcome = self.cycle(id, rig, rec);
        rec.end_op("switch_cycle", cpu);
        if outcome.is_err() && rig.mercury.mode() == ExecMode::Virtual {
            // Leave the next op the native start it expects.
            let _ = rig.switch_to(ExecMode::Native);
        }
        let lost = *outcome.as_ref().unwrap_or(&0);
        sink.complete(id, lost, lost, outcome.map(|_| ()), cpu.cycles());
    }
}
