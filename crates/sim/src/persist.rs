//! Flush-pipeline state shared by the persist engines: the CLWB progress
//! state machine and the Intel / non-atomic outstanding-flush engine. The
//! strand buffer unit lives in [`crate::strand_buffer`].

use sw_pmem::LineAddr;

/// Progress of one CLWB through the flush pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClwbState {
    /// Not yet issued (waiting on ordering dependencies or controller
    /// back-pressure).
    Waiting,
    /// Issued; completion acknowledgement arrives at the given cycle.
    Pending {
        /// Cycle the acknowledgement arrives.
        done_at: u64,
    },
    /// Acknowledged.
    Done,
}

/// One outstanding CLWB in the Intel design (bounded by D-cache MSHRs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushSlot {
    /// Line being flushed.
    pub line: LineAddr,
    /// Flush progress.
    pub state: ClwbState,
}

/// The Intel / non-atomic flush engine: a small set of outstanding CLWBs
/// with no ordering among them (ordering comes from `SFENCE` stalling the
/// core until the set is empty).
#[derive(Debug, Clone)]
pub struct FlushEngine {
    slots: Vec<FlushSlot>,
    capacity: usize,
    /// `Waiting` slots: the issue walk runs only while this is non-zero.
    waiting: u32,
    /// The earliest completion cycle among `Pending` slots.
    next_done: Option<u64>,
}

impl FlushEngine {
    /// Creates an engine with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            slots: Vec::with_capacity(capacity),
            capacity,
            waiting: 0,
            next_done: None,
        }
    }

    /// `true` if a new CLWB can be accepted.
    pub fn has_space(&self) -> bool {
        self.slots.len() < self.capacity
    }

    /// Accepts a CLWB.
    ///
    /// # Panics
    ///
    /// Panics if full.
    pub fn push(&mut self, line: LineAddr) {
        assert!(self.has_space(), "flush slots exhausted");
        self.slots.push(FlushSlot {
            line,
            state: ClwbState::Waiting,
        });
        self.waiting += 1;
    }

    /// `true` when no CLWB is outstanding (the `SFENCE` condition).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots not yet issued.
    pub(crate) fn waiting(&self) -> u32 {
        self.waiting
    }

    /// Read access to the slots.
    pub fn slots(&self) -> &[FlushSlot] {
        &self.slots
    }

    /// Marks waiting slot `s` as pending with the given completion cycle.
    /// Any other slot is left as it is.
    pub fn mark_pending(&mut self, s: usize, done_at: u64) {
        let Some(slot) = self.slots.get_mut(s) else {
            return;
        };
        if slot.state == ClwbState::Waiting {
            slot.state = ClwbState::Pending { done_at };
            self.waiting -= 1;
            self.next_done = Some(self.next_done.map_or(done_at, |t| t.min(done_at)));
        }
    }

    /// Drops the slots completed by `cycle` and returns how many. Returns
    /// at once while no pending slot is due. Debug builds check the cached
    /// waiting count and earliest completion against a walk over every
    /// slot here, once per call.
    pub fn tick_retire(&mut self, cycle: u64) -> usize {
        let retired = if self.next_done.is_some_and(|t| t <= cycle) {
            self.retire_scan(cycle)
        } else {
            0
        };
        debug_assert_eq!((self.waiting, self.next_done), self.scan());
        retired
    }

    /// [`FlushEngine::tick_retire`] by a walk over every slot, recomputing
    /// the earliest pending completion.
    fn retire_scan(&mut self, cycle: u64) -> usize {
        let before = self.slots.len();
        self.slots
            .retain(|s| !matches!(s.state, ClwbState::Pending { done_at } if done_at <= cycle));
        self.next_done = self.scan().1;
        before - self.slots.len()
    }

    /// The earliest completion cycle among `Pending` slots, if any — the
    /// engine's contribution to the machine's next-interesting-cycle.
    pub fn min_pending_done_at(&self) -> Option<u64> {
        self.next_done
    }

    /// The waiting count and the earliest pending completion by a walk
    /// over every slot: the reference the cached fields are checked
    /// against.
    fn scan(&self) -> (u32, Option<u64>) {
        let mut waiting = 0;
        let mut next_done: Option<u64> = None;
        for slot in &self.slots {
            match slot.state {
                ClwbState::Waiting => waiting += 1,
                ClwbState::Pending { done_at } => {
                    next_done = Some(next_done.map_or(done_at, |t| t.min(done_at)));
                }
                ClwbState::Done => {}
            }
        }
        (waiting, next_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random pushes, issues of arbitrary slots (a no-op unless the
        /// slot waits) and retirements: after every step the cached
        /// waiting count and earliest completion equal a fresh scan, and
        /// `tick_retire` leaves the same slots and retires as many as the
        /// full scan it may skip.
        #[test]
        fn cached_state_matches_a_scan(
            capacity in 1usize..8,
            ops in prop::collection::vec((0u8..3, 0usize..8, 0u64..12), 1..160),
        ) {
            let mut fast = FlushEngine::new(capacity);
            let mut slow = fast.clone();
            let mut cycle = 0;
            for (op, s, t) in ops {
                match op {
                    0 if fast.has_space() => {
                        fast.push(LineAddr(t));
                        slow.push(LineAddr(t));
                    }
                    1 => {
                        fast.mark_pending(s, cycle + t);
                        slow.mark_pending(s, cycle + t);
                    }
                    2 => {
                        cycle += t % 4;
                        prop_assert_eq!(fast.tick_retire(cycle), slow.retire_scan(cycle));
                    }
                    _ => {}
                }
                prop_assert_eq!(fast.slots(), slow.slots());
                prop_assert_eq!((fast.waiting, fast.next_done), fast.scan());
            }
        }
    }

    #[test]
    fn flush_engine_capacity_and_retire() {
        let mut f = FlushEngine::new(2);
        f.push(LineAddr(1));
        f.push(LineAddr(2));
        assert!(!f.has_space());
        f.mark_pending(0, 10);
        assert_eq!(f.tick_retire(9), 0);
        assert_eq!(f.tick_retire(10), 1);
        assert!(f.has_space());
        assert!(!f.is_empty());
    }
}
