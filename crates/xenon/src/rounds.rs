//! The write log's one round engine (DESIGN.md §7b).
//!
//! Every consumer of [`crate::page_info`]'s write log does the same
//! thing: take the frames written since its last round, do something to
//! each, and move its place in the log past them — the pre-copy of
//! Clark et al.'s live migration.  A [`Rounds`] is that loop, written
//! once: a `WriteCursor` (the only reader of the log) and the domain
//! whose frames it follows.  What a frame costs is the caller's: its
//! action charges it.  A round runs one of two ways:
//!
//! * **budgeted** ([`Rounds::sweep`]): retire frames one at a time, up
//!   to a number of frames, and leave the rest pending — Mercury's
//!   revalidation on donated idle time;
//! * **whole** ([`Rounds::round`]): every pending frame, merged with the
//!   frames of another dirty source — live migration's pre-copy rounds
//!   and its stop-and-copy, with the guest's PTE dirty bits beside the
//!   log.
//!
//! The final round of an attach runs inside the rendezvous and caps
//! itself: it reads the work-list ([`Rounds::pending`]) without moving
//! the cursor, revalidates up to its quota and defers the rest.

use crate::domain::DomId;
use crate::page_info::{PageInfoTable, WriteCursor};
use simx86::mem::FrameNum;

/// Rounds over the frames of one domain written to a table's log.
///
/// ```
/// use simx86::FrameNum;
/// use xenon::{DomId, PageInfoTable, Rounds};
///
/// /// One budgeted round of one frame: what it retired.
/// fn sweep_one(rounds: &mut Rounds, table: &PageInfoTable) -> Vec<FrameNum> {
///     let mut got = Vec::new();
///     let retired = rounds.sweep(table, 1, |f| got.push(f));
///     assert_eq!(retired, got.len());
///     got
/// }
///
/// let table = PageInfoTable::new(8);
/// for f in 0..8 {
///     table.set_owner(FrameNum(f), Some(DomId(0)));
/// }
/// let mut rounds = Rounds::new(DomId(0));
/// rounds.rebase(&table);
/// table.mark_dirty(FrameNum(2));
/// table.mark_dirty(FrameNum(5));
///
/// // A budget of one frame retires one frame; the other stays pending.
/// assert_eq!(sweep_one(&mut rounds, &table), [FrameNum(2)]);
/// assert_eq!(rounds.pending(&table), [FrameNum(5)]);
///
/// // A frame behind the sweep that is written again is pending again,
/// // but the sweep moves forward only: the frame ahead goes first, and
/// // the one behind waits for the next sweep.
/// table.mark_dirty(FrameNum(2));
/// assert_eq!(rounds.pending(&table), [FrameNum(2), FrameNum(5)]);
/// assert_eq!(sweep_one(&mut rounds, &table), [FrameNum(5)]);
/// assert_eq!(sweep_one(&mut rounds, &table), [FrameNum(2)]);
/// assert_eq!(sweep_one(&mut rounds, &table), []);
///
/// // A whole round takes what is pending and whatever another source
/// // adds, once each and in frame order.
/// table.mark_dirty(FrameNum(5));
/// let mut shipped = Vec::new();
/// let all = rounds.round(&table, vec![FrameNum(7), FrameNum(5)], |f| {
///     shipped.push(f);
///     Ok::<_, ()>(())
/// });
/// assert_eq!(shipped, [FrameNum(5), FrameNum(7)]);
/// assert_eq!(all, Ok(2));
/// assert_eq!(rounds.pending(&table), []);
/// ```
#[derive(Debug)]
pub struct Rounds {
    cursor: WriteCursor,
    dom: DomId,
}

impl Rounds {
    /// Rounds over `dom`'s frames.  Until the first
    /// [`rebase`](Rounds::rebase), every frame ever written is pending.
    pub fn new(dom: DomId) -> Rounds {
        Rounds {
            cursor: WriteCursor::default(),
            dom,
        }
    }

    /// Everything written to `table` so far has been seen: the baseline
    /// the next round is counted from.
    pub fn rebase(&mut self, table: &PageInfoTable) {
        self.cursor.rebase(table);
    }

    /// The frames the next round would take, in frame order.  Moves
    /// nothing.
    pub fn pending(&self, table: &PageInfoTable) -> Vec<FrameNum> {
        self.cursor.pending(table, self.dom)
    }

    /// A budgeted round: retire up to `max` pending frames one at a
    /// time, in frame order, handing each to `act`, and return how many
    /// it retired.  What the budget does not reach stays pending; a
    /// frame written behind the sweep waits for the next one.  "Nothing
    /// written" costs no pass over the frames.
    pub fn sweep(
        &mut self,
        table: &PageInfoTable,
        max: usize,
        mut act: impl FnMut(FrameNum),
    ) -> usize {
        let mut done = 0;
        while done < max {
            let Some(frame) = self.cursor.pop(table, self.dom) else {
                break;
            };
            act(frame);
            done += 1;
        }
        done
    }

    /// A whole round: every pending frame and every frame of `extra`
    /// (another dirty source's), once each and in frame order, handed to
    /// `act`; returns how many, and a failing `act` ends the round.  The
    /// round's epoch is closed before the log is read, so a write racing
    /// the round is taken by the next one too.
    pub fn round<E>(
        &mut self,
        table: &PageInfoTable,
        extra: Vec<FrameNum>,
        act: impl FnMut(FrameNum) -> Result<(), E>,
    ) -> Result<usize, E> {
        let seen = self.cursor;
        self.cursor.rebase(table);
        let mut frames = seen.pending(table, self.dom);
        frames.extend(extra);
        frames.sort_unstable();
        frames.dedup();
        frames.iter().copied().try_for_each(act)?;
        Ok(frames.len())
    }
}
