//! Rounds over memory's write stamps (DESIGN.md §7b).
//!
//! "Which of these frames were stored to since E?" is asked in two
//! places: Mercury's attach (which page tables changed while native,
//! §5.1.2) and live migration's pre-copy (what to ship again, §6.3).
//! Both ask memory, whose every store path stamps its frame
//! ([`PhysMemory::stored_since`]), and both take the answer the same
//! way: take the frames stored since the last round, do something to
//! each, and move past them — the pre-copy of Clark et al.'s live
//! migration.  A [`Rounds`] is that loop, written once: a
//! [`WriteEpoch`], a sweep position, and the frames it follows.  What a
//! frame costs is the caller's: its action charges it.  A round runs
//! one of two ways:
//!
//! * **budgeted** ([`Rounds::sweep`]): retire frames one at a time, up
//!   to a number of frames, and leave the rest pending — Mercury's
//!   revalidation on donated idle time;
//! * **whole** ([`Rounds::round`]): every pending frame — live
//!   migration's pre-copy rounds and its stop-and-copy.
//!
//! The final round of an attach runs inside the rendezvous: it reads
//! the work-list ([`Rounds::pending`]) without moving anything and
//! revalidates all of it.

use simx86::mem::{FrameNum, PhysMemory, WriteEpoch};

/// Rounds over the stores to a set of frames.
///
/// The frames followed are those kept at the last
/// [`rebase`](Rounds::rebase) and those each call names; a frame is
/// pending when it was stored to since the rounds' epoch, less what the
/// sweep retired — or, once the window is [`close`](Rounds::close)d,
/// when it was pending at the close.
///
/// ```
/// use simx86::mem::{FrameNum, PhysMemory};
/// use simx86::Machine;
/// use xenon::Rounds;
///
/// let machine = Machine::new(simx86::MachineConfig { num_cpus: 1, mem_frames: 8, disk_sectors: 8 });
/// let (mem, cpu) = (&machine.mem, machine.boot_cpu());
/// let store = |f: u32| mem.write_word(cpu, FrameNum(f).base(), 1).unwrap();
/// let all: Vec<FrameNum> = (0..8).map(FrameNum).collect();
///
/// /// One budgeted round of one frame: what it retired.
/// fn sweep_one(rounds: &mut Rounds, mem: &PhysMemory, all: &[FrameNum]) -> Vec<FrameNum> {
///     let mut got = Vec::new();
///     let retired = rounds.sweep(mem, all, 1, |f| got.push(f));
///     assert_eq!(retired, got.len());
///     got
/// }
///
/// let mut rounds = Rounds::default();
/// rounds.rebase(mem, Vec::new());
/// store(2);
/// store(5);
///
/// // A budget of one frame retires one frame; the other stays pending.
/// assert_eq!(sweep_one(&mut rounds, mem, &all), [FrameNum(2)]);
/// assert_eq!(rounds.pending(mem, &all), [FrameNum(5)]);
///
/// // A frame behind the sweep that is stored to again is pending
/// // again, but the sweep moves forward only: the frame ahead goes
/// // first, and the one behind waits for the next sweep.
/// store(2);
/// assert_eq!(rounds.pending(mem, &all), [FrameNum(2), FrameNum(5)]);
/// assert_eq!(sweep_one(&mut rounds, mem, &all), [FrameNum(5)]);
/// assert_eq!(sweep_one(&mut rounds, mem, &all), [FrameNum(2)]);
/// assert_eq!(sweep_one(&mut rounds, mem, &all), []);
///
/// // A whole round takes what is pending, once each and in frame order.
/// store(7);
/// store(5);
/// let mut shipped = Vec::new();
/// let all_of = rounds.round(mem, &all, |f| {
///     shipped.push(f);
///     Ok::<_, ()>(())
/// });
/// assert_eq!(shipped, [FrameNum(5), FrameNum(7)]);
/// assert_eq!(all_of, Ok(2));
/// assert_eq!(rounds.pending(mem, &all), []);
/// ```
#[derive(Debug, Default)]
pub struct Rounds {
    /// Frames followed besides those each call names, sorted.
    kept: Vec<FrameNum>,
    /// Everything stored before this has been seen; the default sees
    /// nothing, so every frame is pending.
    since: WriteEpoch,
    /// The frames pending when the window closed, if it did: a frame's
    /// stamp holds only its last store, so the window's are read once,
    /// at its close.
    closed: Option<Vec<FrameNum>>,
    /// The sweep in progress retires frames stored before this …
    sweep: WriteEpoch,
    /// … and has passed every frame below this one.
    next: u32,
}

impl Rounds {
    /// Everything stored so far has been seen: open a new window at a
    /// fresh checkpoint, following `kept` (sorted) from here on, and
    /// return the checkpoint.
    pub fn rebase(&mut self, mem: &PhysMemory, kept: Vec<FrameNum>) -> WriteEpoch {
        let since = mem.checkpoint();
        *self = Rounds {
            kept,
            since,
            closed: None,
            sweep: since,
            next: 0,
        };
        since
    }

    /// Close the window: read which of the kept frames and `frames`
    /// are pending now, and keep that as the window's work-list.  A
    /// store from here on is the next window's.
    pub fn close(&mut self, mem: &PhysMemory, frames: &[FrameNum]) {
        self.closed = Some(self.pending(mem, frames));
    }

    /// Take the last [`close`](Rounds::close) back: the window is open
    /// again from where it opened.
    pub fn reopen(&mut self) {
        self.closed = None;
    }

    /// The frames the next round would take, in frame order: of the
    /// kept frames and `frames`, those stored to in the window and not
    /// retired by the sweep; once the window is closed, what was
    /// pending at the close.  Moves nothing.
    pub fn pending(&self, mem: &PhysMemory, frames: &[FrameNum]) -> Vec<FrameNum> {
        if let Some(closed) = &self.closed {
            return closed.clone();
        }
        let mut pending = self.followed(frames);
        pending.retain(|&f| self.is_pending(mem, f));
        pending
    }

    /// A budgeted round: retire up to `max` pending frames one at a
    /// time, in frame order, handing each to `act`, and return how many
    /// it retired.  What the budget does not reach stays pending; a
    /// frame stored to behind the sweep waits for the next one.  A
    /// closed window has nothing to sweep.
    pub fn sweep(
        &mut self,
        mem: &PhysMemory,
        frames: &[FrameNum],
        max: usize,
        mut act: impl FnMut(FrameNum),
    ) -> usize {
        if self.closed.is_some() {
            return 0;
        }
        let followed = self.followed(frames);
        let (mut done, mut began) = (0, false);
        while done < max {
            let (since, upto) = (self.since, self.sweep);
            let ahead = followed.iter().filter(|f| f.0 >= self.next);
            if let Some(f) = ahead.copied().find(|&f| mem.stored_between(f, since, upto)) {
                self.next = f.0 + 1;
                act(f);
                done += 1;
                continue;
            }
            // The sweep has passed every frame stored before its epoch;
            // one that began in this call leaves later stores to the
            // next.
            self.since = self.sweep;
            self.next = 0;
            if began || !followed.iter().any(|&f| mem.stored_since(f, self.since)) {
                break;
            }
            self.sweep = mem.checkpoint();
            began = true;
        }
        done
    }

    /// A whole round over the kept frames and `frames`: every pending
    /// frame, once each and in frame order, handed to `act`; returns how
    /// many, and a failing `act` ends the round.  The round's checkpoint
    /// is taken before the stamps are read, so a store racing the round
    /// is taken by the next one too.
    ///
    /// A checkpoint can miss one store: one in flight across it, which
    /// loaded the epoch before it and stamps its frame with the epoch
    /// before ([`PhysMemory::checkpoint`]) — this round may read the
    /// stamp but not yet the data, and the next reads only later
    /// stamps.  None can be in flight here when every store to the
    /// frames followed is made on the thread that runs the rounds, or
    /// by CPUs stopped while it does, as the callers of both kinds of
    /// round do: live migration runs its rounds on the thread that
    /// drives the guest (and pauses it for the stop-and-copy), and
    /// Mercury's window opens and closes inside the rendezvous.
    pub fn round<E>(
        &mut self,
        mem: &PhysMemory,
        frames: &[FrameNum],
        act: impl FnMut(FrameNum) -> Result<(), E>,
    ) -> Result<usize, E> {
        let seen = std::mem::take(self);
        self.rebase(mem, Vec::new());
        let pending = seen.pending(mem, frames);
        self.kept = seen.kept;
        pending.iter().copied().try_for_each(act)?;
        Ok(pending.len())
    }

    /// The kept frames and `frames`, once each, in frame order.
    fn followed(&self, frames: &[FrameNum]) -> Vec<FrameNum> {
        // volint::allow(SWITCH-ALLOC): the work-list, two deduplicated lists of pool table frames, built once per attach
        let mut all = Vec::with_capacity(self.kept.len() + frames.len());
        all.extend_from_slice(&self.kept);
        all.extend_from_slice(frames);
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Is `frame` pending in the open window: stored to since the
    /// rounds' epoch, or since the sweep's if the sweep has passed it?
    fn is_pending(&self, mem: &PhysMemory, frame: FrameNum) -> bool {
        let since = if frame.0 < self.next {
            self.sweep
        } else {
            self.since
        };
        mem.stored_since(frame, since)
    }
}
