//! The strand buffer unit of Section IV: an array of strand buffers
//! adjacent to the L1 that drains CLWBs from different strands
//! concurrently while persist barriers order each strand internally.
//!
//! The unit is allocation-free after construction: entries live in one
//! flat slab carved into per-buffer rings, and the drain-target snapshots
//! recorded by write-back and snoop buffers are inline arrays
//! ([`DrainTargets`]) instead of heap vectors.

use sw_pmem::LineAddr;

use crate::persist::ClwbState;

/// Upper bound on strand buffers per unit, so drain-target snapshots fit
/// in an inline array. The paper's configurations and the Figure 9
/// sensitivity sweep use at most 8.
pub const MAX_STRAND_BUFFERS: usize = 16;

/// One strand-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbuEntry {
    /// A persist barrier: entries behind it may not issue until it retires.
    Pb,
    /// A CLWB for `line`.
    Clwb {
        /// Line being flushed.
        line: LineAddr,
        /// Flush progress.
        state: ClwbState,
    },
}

/// Snapshot of the per-buffer retirement counts a write-back or snoop
/// buffer must wait for (the snoop-buffer tail indexes of Section IV).
/// Inline so recording one never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainTargets {
    len: u8,
    targets: [u64; MAX_STRAND_BUFFERS],
}

/// What one [`Sbu::tick_retire`] call did: how many pending entries
/// completed, how many head entries retired, and (as a bitmask in buffer
/// order) which buffers retired at least one entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetireOutcome {
    /// `Pending → Done` completions this cycle.
    pub completions: u32,
    /// Entries popped off buffer heads this cycle.
    pub retired: u32,
    /// Bit `b` set when buffer `b` retired at least one entry.
    pub retired_mask: u32,
}

impl RetireOutcome {
    /// `true` when the call changed any entry (completion or retirement).
    pub fn changed(&self) -> bool {
        self.completions > 0 || self.retired > 0
    }
}

/// The strand buffer unit: an array of strand buffers adjacent to the L1.
///
/// CLWBs and persist barriers append to the *ongoing* buffer; `NewStrand`
/// advances the ongoing index round-robin. CLWBs in different buffers issue
/// concurrently; within a buffer, a persist barrier blocks later entries
/// until everything before it has completed and retired. Each buffer keeps
/// a monotonic retirement counter so the write-back and snoop buffers can
/// record tail indexes and wait for the unit to drain past them.
#[derive(Debug, Clone)]
pub struct Sbu {
    /// Flat slab: buffer `b` owns slots `[b*entries, (b+1)*entries)`.
    entries: Box<[SbuEntry]>,
    /// Ring head per buffer (slot offset within the buffer's slice).
    head: [u32; MAX_STRAND_BUFFERS],
    /// Occupancy per buffer.
    len: [u32; MAX_STRAND_BUFFERS],
    retired: [u64; MAX_STRAND_BUFFERS],
    num_buffers: usize,
    entries_per_buffer: usize,
    ongoing: usize,
    /// `Waiting` CLWBs across all buffers: the issue walk runs only while
    /// this is non-zero.
    waiting: u32,
    /// The earliest completion cycle among `Pending` entries.
    next_done: Option<u64>,
    /// Set when a persist barrier lands in an empty buffer, the one way a
    /// buffer head becomes retirable without a completion.
    head_barrier: bool,
}

impl Sbu {
    /// Creates a unit with `buffers` buffers of `entries_per_buffer` each.
    pub fn new(buffers: usize, entries_per_buffer: usize) -> Self {
        assert!(buffers > 0 && entries_per_buffer > 0);
        assert!(
            buffers <= MAX_STRAND_BUFFERS,
            "at most {MAX_STRAND_BUFFERS} strand buffers"
        );
        Self {
            entries: vec![SbuEntry::Pb; buffers * entries_per_buffer].into_boxed_slice(),
            head: [0; MAX_STRAND_BUFFERS],
            len: [0; MAX_STRAND_BUFFERS],
            retired: [0; MAX_STRAND_BUFFERS],
            num_buffers: buffers,
            entries_per_buffer,
            ongoing: 0,
            waiting: 0,
            next_done: None,
            head_barrier: false,
        }
    }

    /// Slab slot of logical entry `k` in buffer `b`.
    #[inline]
    fn slot(&self, b: usize, k: usize) -> usize {
        debug_assert!(b < self.num_buffers && k < self.len[b] as usize);
        b * self.entries_per_buffer + (self.head[b] as usize + k) % self.entries_per_buffer
    }

    /// Number of buffers.
    pub fn num_buffers(&self) -> usize {
        self.num_buffers
    }

    /// `true` if the ongoing buffer can accept an entry.
    pub fn has_space(&self) -> bool {
        (self.len[self.ongoing] as usize) < self.entries_per_buffer
    }

    #[inline]
    fn push(&mut self, entry: SbuEntry) {
        assert!(self.has_space(), "ongoing strand buffer is full");
        let b = self.ongoing;
        let slot = b * self.entries_per_buffer
            + (self.head[b] as usize + self.len[b] as usize) % self.entries_per_buffer;
        self.entries[slot] = entry;
        match entry {
            SbuEntry::Pb => self.head_barrier |= self.len[b] == 0,
            SbuEntry::Clwb { .. } => self.waiting += 1,
        }
        self.len[b] += 1;
    }

    /// Appends a CLWB to the ongoing buffer.
    ///
    /// # Panics
    ///
    /// Panics if the ongoing buffer is full (check [`Sbu::has_space`]).
    pub fn push_clwb(&mut self, line: LineAddr) {
        self.push(SbuEntry::Clwb {
            line,
            state: ClwbState::Waiting,
        });
    }

    /// Appends a persist barrier to the ongoing buffer.
    ///
    /// # Panics
    ///
    /// Panics if the ongoing buffer is full.
    pub fn push_pb(&mut self) {
        self.push(SbuEntry::Pb);
    }

    /// Begins a new strand: the ongoing index advances round-robin
    /// (completes immediately; the paper acknowledges `NewStrand` when the
    /// index is updated).
    pub fn new_strand(&mut self) {
        self.ongoing = (self.ongoing + 1) % self.num_buffers;
    }

    /// Index of the ongoing (append-target) buffer.
    pub fn ongoing_index(&self) -> usize {
        self.ongoing
    }

    /// Occupancy of buffer `b`.
    pub fn buffer_len(&self, b: usize) -> usize {
        self.len[b] as usize
    }

    /// Entry `k` (in FIFO order) of buffer `b`.
    pub fn entry(&self, b: usize, k: usize) -> SbuEntry {
        self.entries[self.slot(b, k)]
    }

    /// `true` when every buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len[..self.num_buffers].iter().all(|&l| l == 0)
    }

    /// Total entries across buffers.
    pub fn len(&self) -> usize {
        self.len[..self.num_buffers]
            .iter()
            .map(|&l| l as usize)
            .sum()
    }

    /// The first CLWB at or after entry `k` of buffer `b`, in buffer
    /// order, that may issue this cycle: per buffer, the `Waiting` entries
    /// ahead of the first persist barrier. Returns its position and line;
    /// the issue walk resumes from the entry after it. Answers `None` at
    /// once while no CLWB waits.
    pub fn next_issuable(&self, b: usize, k: usize) -> Option<(usize, usize, LineAddr)> {
        if self.waiting == 0 {
            return None;
        }
        let mut k = k;
        for b in b..self.num_buffers {
            while k < self.len[b] as usize {
                match self.entries[self.slot(b, k)] {
                    SbuEntry::Pb => break,
                    SbuEntry::Clwb {
                        line,
                        state: ClwbState::Waiting,
                    } => return Some((b, k, line)),
                    SbuEntry::Clwb { .. } => k += 1,
                }
            }
            k = 0;
        }
        None
    }

    /// Marks the waiting CLWB at `(buffer, index)` as pending with the
    /// given completion cycle. Any other entry is left as it is.
    pub fn mark_pending(&mut self, buffer: usize, index: usize, done_at: u64) {
        if index >= self.len[buffer] as usize {
            return;
        }
        let slot = self.slot(buffer, index);
        if let SbuEntry::Clwb { state, .. } = &mut self.entries[slot] {
            if *state == ClwbState::Waiting {
                *state = ClwbState::Pending { done_at };
                self.waiting -= 1;
                self.next_done = Some(self.next_done.map_or(done_at, |t| t.min(done_at)));
            }
        }
    }

    /// Advances completions and retirements at `cycle`. Returns at once
    /// when no pending entry is due and no barrier has reached a buffer
    /// head since the last call: then nothing can complete or retire.
    /// Debug builds check the cached waiting count and earliest
    /// completion against a walk over every entry here, once per call.
    pub fn tick_retire(&mut self, cycle: u64) -> RetireOutcome {
        let out = if self.head_barrier || self.next_done.is_some_and(|t| t <= cycle) {
            self.retire_scan(cycle)
        } else {
            debug_assert!((0..self.num_buffers).all(|b| !self.head_retirable(b)));
            RetireOutcome::default()
        };
        debug_assert_eq!((self.waiting, self.next_done), self.scan());
        out
    }

    /// [`Sbu::tick_retire`] by a walk over every entry: completes each due
    /// pending entry, pops retirable heads, and recomputes the earliest
    /// pending completion.
    fn retire_scan(&mut self, cycle: u64) -> RetireOutcome {
        let mut out = RetireOutcome::default();
        let mut next_done: Option<u64> = None;
        for b in 0..self.num_buffers {
            for k in 0..self.len[b] as usize {
                let slot = self.slot(b, k);
                if let SbuEntry::Clwb { state, .. } = &mut self.entries[slot] {
                    if let ClwbState::Pending { done_at } = *state {
                        if done_at <= cycle {
                            *state = ClwbState::Done;
                            out.completions += 1;
                        } else {
                            next_done = Some(next_done.map_or(done_at, |t| t.min(done_at)));
                        }
                    }
                }
            }
            while self.head_retirable(b) {
                self.head[b] = (self.head[b] + 1) % self.entries_per_buffer as u32;
                self.len[b] -= 1;
                self.retired[b] += 1;
                out.retired += 1;
                out.retired_mask |= 1 << b;
            }
        }
        self.next_done = next_done;
        self.head_barrier = false;
        out
    }

    /// `true` when buffer `b`'s head entry may retire: a barrier, or an
    /// acknowledged CLWB.
    fn head_retirable(&self, b: usize) -> bool {
        self.len[b] > 0
            && matches!(
                self.entries[b * self.entries_per_buffer + self.head[b] as usize],
                SbuEntry::Pb
                    | SbuEntry::Clwb {
                        state: ClwbState::Done,
                        ..
                    }
            )
    }

    /// The earliest completion cycle among `Pending` entries, if any — the
    /// unit's contribution to the machine's next-interesting-cycle.
    pub fn min_pending_done_at(&self) -> Option<u64> {
        self.next_done
    }

    /// The waiting count and the earliest pending completion by a walk
    /// over every entry: the reference the cached fields are checked
    /// against.
    fn scan(&self) -> (u32, Option<u64>) {
        let mut waiting = 0;
        let mut next_done: Option<u64> = None;
        for b in 0..self.num_buffers {
            for k in 0..self.len[b] as usize {
                match self.entries[self.slot(b, k)] {
                    SbuEntry::Clwb {
                        state: ClwbState::Waiting,
                        ..
                    } => waiting += 1,
                    SbuEntry::Clwb {
                        state: ClwbState::Pending { done_at },
                        ..
                    } => next_done = Some(next_done.map_or(done_at, |t| t.min(done_at))),
                    _ => {}
                }
            }
        }
        (waiting, next_done)
    }

    /// Snapshot of the drain targets a write-back or snoop buffer records:
    /// for each buffer, the retirement count it must reach for all entries
    /// currently present to have drained.
    pub fn drain_targets(&self) -> DrainTargets {
        let mut targets = [0u64; MAX_STRAND_BUFFERS];
        for (b, t) in targets.iter_mut().enumerate().take(self.num_buffers) {
            *t = self.retired[b] + u64::from(self.len[b]);
        }
        DrainTargets {
            len: self.num_buffers as u8,
            targets,
        }
    }

    /// `true` once every buffer has retired past `targets` (as returned by
    /// [`Sbu::drain_targets`] earlier).
    pub fn drained_past(&self, targets: &DrainTargets) -> bool {
        self.retired[..targets.len as usize]
            .iter()
            .zip(&targets.targets[..targets.len as usize])
            .all(|(r, t)| r >= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn l(n: u64) -> LineAddr {
        LineAddr(n)
    }

    /// Every entry of every buffer, with each buffer's retirement count
    /// (through the drain targets): what two units are compared by.
    fn contents(s: &Sbu) -> (Vec<Vec<SbuEntry>>, DrainTargets) {
        let buffer = |b| (0..s.buffer_len(b)).map(|k| s.entry(b, k)).collect();
        (
            (0..s.num_buffers()).map(buffer).collect(),
            s.drain_targets(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random pushes, strand switches, issues (of the `pick`-th
        /// issuable CLWB, or of an arbitrary entry, which must be a no-op
        /// unless it waits) and retirements: after every step the cached
        /// waiting count and earliest completion equal a fresh scan, and
        /// `tick_retire` leaves the same entries and reports the same
        /// outcome as the full scan it may skip.
        #[test]
        fn cached_state_matches_a_scan(
            buffers in 1usize..5,
            entries in 1usize..5,
            ops in prop::collection::vec((0u8..6, 0usize..24, 0u64..12), 1..160),
        ) {
            let mut fast = Sbu::new(buffers, entries);
            let mut slow = fast.clone();
            let mut cycle = 0;
            for (op, pick, t) in ops {
                match op {
                    0 if fast.has_space() => {
                        fast.push_clwb(l(t));
                        slow.push_clwb(l(t));
                    }
                    1 if fast.has_space() => {
                        fast.push_pb();
                        slow.push_pb();
                    }
                    2 => {
                        fast.new_strand();
                        slow.new_strand();
                    }
                    3 => {
                        let ready = issuable(&fast);
                        if !ready.is_empty() {
                            let (b, k, _) = ready[pick % ready.len()];
                            fast.mark_pending(b, k, cycle + t);
                            slow.mark_pending(b, k, cycle + t);
                        }
                    }
                    4 => {
                        cycle += t % 4;
                        prop_assert_eq!(fast.tick_retire(cycle), slow.retire_scan(cycle));
                    }
                    5 => {
                        let (b, k) = (pick % buffers, pick / buffers % entries);
                        fast.mark_pending(b, k, cycle + t);
                        slow.mark_pending(b, k, cycle + t);
                    }
                    _ => {}
                }
                prop_assert_eq!(contents(&fast), contents(&slow));
                prop_assert_eq!((fast.waiting, fast.next_done), fast.scan());
            }
        }
    }

    fn issuable(s: &Sbu) -> Vec<(usize, usize, LineAddr)> {
        let mut out = Vec::new();
        let (mut b, mut k) = (0, 0);
        while let Some((eb, ek, line)) = s.next_issuable(b, k) {
            out.push((eb, ek, line));
            (b, k) = (eb, ek + 1);
        }
        out
    }

    #[test]
    fn clwbs_before_barrier_are_issuable() {
        let mut s = Sbu::new(2, 4);
        s.push_clwb(l(1));
        s.push_clwb(l(2));
        s.push_pb();
        s.push_clwb(l(3));
        assert_eq!(issuable(&s).len(), 2, "entry behind the barrier must wait");
    }

    #[test]
    fn new_strand_routes_to_next_buffer() {
        let mut s = Sbu::new(2, 1);
        s.push_clwb(l(1));
        assert!(!s.has_space());
        s.new_strand();
        assert!(s.has_space());
        s.push_clwb(l(2));
        // Both on different buffers: both issuable concurrently.
        assert_eq!(issuable(&s).len(), 2);
    }

    #[test]
    fn barrier_retires_after_predecessors() {
        let mut s = Sbu::new(1, 4);
        s.push_clwb(l(1));
        s.push_pb();
        s.push_clwb(l(2));
        assert_eq!(issuable(&s), vec![(0, 0, l(1))]);
        s.mark_pending(0, 0, 100);
        assert_eq!(s.tick_retire(50).retired, 0, "ack not yet arrived");
        // At 100 the CLWB completes; it and the barrier retire; entry 2
        // becomes issuable.
        let out = s.tick_retire(100);
        assert_eq!(out.retired, 2);
        assert_eq!(out.completions, 1);
        assert_eq!(out.retired_mask, 1);
        assert_eq!(issuable(&s), vec![(0, 0, l(2))]);
    }

    #[test]
    fn drain_targets_round_trip() {
        let mut s = Sbu::new(2, 4);
        s.push_clwb(l(1));
        s.new_strand();
        s.push_clwb(l(2));
        let targets = s.drain_targets();
        assert!(!s.drained_past(&targets));
        s.mark_pending(0, 0, 10);
        s.mark_pending(1, 0, 10);
        s.tick_retire(10);
        assert!(s.drained_past(&targets));
        assert!(s.is_empty());
    }

    #[test]
    fn drained_past_ignores_entries_added_later() {
        let mut s = Sbu::new(1, 4);
        s.push_clwb(l(1));
        let targets = s.drain_targets();
        s.push_clwb(l(2)); // arrived after the snapshot
        s.mark_pending(0, 0, 5);
        s.tick_retire(5);
        assert!(s.drained_past(&targets), "only the snapshot must drain");
        assert!(!s.is_empty());
    }

    #[test]
    fn round_robin_wraps() {
        let mut s = Sbu::new(2, 4);
        s.push_clwb(l(1));
        s.new_strand();
        s.new_strand(); // back to buffer 0
        assert!(!s.is_empty());
        s.push_clwb(l(2));
        assert_eq!(issuable(&s).len(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn min_pending_done_at_tracks_earliest_ack() {
        let mut s = Sbu::new(2, 4);
        s.push_clwb(l(1));
        s.new_strand();
        s.push_clwb(l(2));
        assert_eq!(s.min_pending_done_at(), None, "nothing issued yet");
        s.mark_pending(0, 0, 120);
        s.mark_pending(1, 0, 80);
        assert_eq!(s.min_pending_done_at(), Some(80));
        s.tick_retire(80);
        assert_eq!(s.min_pending_done_at(), Some(120));
    }

    #[test]
    fn ring_storage_wraps_after_retirement() {
        // Fill, retire, refill: logical indexes must stay FIFO even after
        // the underlying ring head wraps.
        let mut s = Sbu::new(1, 2);
        s.push_clwb(l(1));
        s.push_clwb(l(2));
        s.mark_pending(0, 0, 1);
        assert_eq!(s.tick_retire(1).retired, 1);
        s.push_clwb(l(3)); // lands in the wrapped slot
        assert_eq!(issuable(&s), vec![(0, 0, l(2)), (0, 1, l(3))]);
    }
}
