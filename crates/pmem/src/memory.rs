//! Combined volatile + persistent address space with crash semantics.

use crate::addr::{Addr, LineAddr};
use crate::hash::FastMap;
use crate::image::{page_bit, PmImage};
use crate::layout::PmLayout;

/// A functional model of the machine's memory: the *visible* state (what
/// loads observe, i.e. the coherent cache/DRAM view) and the *persisted*
/// state (what has actually drained to the PM device).
///
/// Stores update the visible state immediately. A store to a persistent
/// address additionally marks its cache line *dirty*; the line's current
/// visible contents reach the persisted image only when [`Memory::persist`]
/// (a CLWB completing, or a cache writeback) is applied to it. On a
/// [`Memory::crash`], the visible state is discarded and reconstructed from
/// the persisted image — exactly what recovery observes after a failure.
///
/// Dirty lines are kept as one 64-bit mask per page of the image (a bit
/// per line), so a store sets a bit and [`Memory::persist_all`] drains
/// each dirty page into the persisted image in one step.
///
/// Ordering of persists is *not* enforced here; this type is the mechanism.
/// The policy — which persists may legally be missing at a crash — is
/// decided by callers (the formal model in `sw-model` and the crash
/// injectors in `sw-lang`), which choose when to call `persist`.
///
/// # Example
///
/// ```
/// use sw_pmem::{Addr, Memory, PmLayout};
///
/// let layout = PmLayout::default();
/// let mut mem = Memory::new(layout.clone());
/// let a = layout.heap_base();
/// mem.store(a, 1);
/// let crashed = mem.crash();
/// assert_eq!(crashed.load(a), 0); // store never persisted
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    layout: PmLayout,
    visible: PmImage,
    persisted: PmImage,
    /// Per image page, the mask of its dirty lines (see [`page_bit`]). A
    /// page whose lines were all persisted again keeps a zero mask.
    dirty: FastMap<u64, u64>,
}

impl Memory {
    /// Creates a zeroed memory with the given layout.
    pub fn new(layout: PmLayout) -> Self {
        Self {
            layout,
            visible: PmImage::new(),
            persisted: PmImage::new(),
            dirty: FastMap::default(),
        }
    }

    /// The address-space layout.
    pub fn layout(&self) -> &PmLayout {
        &self.layout
    }

    /// Loads the word at `addr` from the visible state.
    pub fn load(&self, addr: Addr) -> u64 {
        self.visible.load(addr)
    }

    /// Stores `value` at `addr` in the visible state. If `addr` is
    /// persistent, its cache line becomes dirty.
    pub fn store(&mut self, addr: Addr, value: u64) {
        self.visible.store(addr, value);
        if self.layout.is_persistent(addr) {
            let (page, bit) = page_bit(addr.line());
            *self.dirty.entry(page).or_default() |= bit;
        }
    }

    /// Persists the cache line containing `addr`: its visible contents drain
    /// to the persisted image and the line becomes clean.
    ///
    /// Persisting a volatile address is a no-op (CLWB of a DRAM line).
    pub fn persist(&mut self, addr: Addr) {
        self.persist_line(addr.line());
    }

    /// Persists a whole cache line by line address. See [`Memory::persist`].
    pub fn persist_line(&mut self, line: LineAddr) {
        if self.layout.is_persistent(line.base()) {
            self.persisted.absorb_line(line, &self.visible);
            let (page, bit) = page_bit(line);
            if let Some(mask) = self.dirty.get_mut(&page) {
                *mask &= !bit;
            }
        }
    }

    /// Persists every dirty line (an orderly shutdown / full flush).
    ///
    /// Equal to [`Memory::persist_line`] of every dirty line, but each
    /// dirty page drains in one step (workload setup dirties tens of
    /// thousands of lines). Only persistent lines are ever dirty.
    pub fn persist_all(&mut self) {
        for (page, mask) in std::mem::take(&mut self.dirty) {
            if mask != 0 {
                self.persisted.absorb_lines(page, mask, &self.visible);
            }
        }
    }

    /// Returns `true` if `line` holds unpersisted data.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        let (page, bit) = page_bit(line);
        self.dirty.get(&page).is_some_and(|mask| mask & bit != 0)
    }

    /// The persisted PM image (what a crash would preserve).
    pub fn persisted_image(&self) -> &PmImage {
        &self.persisted
    }

    /// Simulates a power failure: returns a new `Memory` whose visible state
    /// is reconstructed from the persisted image. All volatile data and all
    /// unpersisted PM stores are lost.
    pub fn crash(&self) -> Memory {
        Memory {
            layout: self.layout.clone(),
            visible: self.persisted.clone(),
            persisted: self.persisted.clone(),
            dirty: FastMap::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> (Memory, Addr) {
        let layout = PmLayout::default();
        let a = layout.heap_base();
        (Memory::new(layout), a)
    }

    #[test]
    fn stores_are_visible_immediately() {
        let (mut m, a) = mem();
        m.store(a, 5);
        assert_eq!(m.load(a), 5);
    }

    #[test]
    fn unpersisted_stores_lost_on_crash() {
        let (mut m, a) = mem();
        m.store(a, 5);
        let c = m.crash();
        assert_eq!(c.load(a), 0);
    }

    #[test]
    fn persisted_stores_survive_crash() {
        let (mut m, a) = mem();
        m.store(a, 5);
        m.persist(a);
        let c = m.crash();
        assert_eq!(c.load(a), 5);
    }

    #[test]
    fn persist_is_line_granular() {
        let (mut m, a) = mem();
        let b = a.offset_words(1); // same line
        m.store(a, 1);
        m.store(b, 2);
        m.persist(a);
        let c = m.crash();
        assert_eq!(c.load(a), 1);
        assert_eq!(c.load(b), 2, "whole line drains together");
    }

    #[test]
    fn dirty_tracking() {
        let (mut m, a) = mem();
        assert!(!m.is_dirty(a.line()));
        m.store(a, 1);
        assert!(m.is_dirty(a.line()));
        m.persist(a);
        assert!(!m.is_dirty(a.line()));
    }

    #[test]
    fn volatile_stores_never_dirty_and_never_survive() {
        let layout = PmLayout::default();
        let v = layout.volatile_region().base;
        let mut m = Memory::new(layout);
        m.store(v, 9);
        assert!(!m.is_dirty(v.line()));
        m.persist(v); // no-op
        let c = m.crash();
        assert_eq!(c.load(v), 0);
    }

    #[test]
    fn persist_all_flushes_everything() {
        let (mut m, a) = mem();
        for i in 0..20 {
            m.store(a.offset_words(i * 8), i);
        }
        m.persist_all();
        let c = m.crash();
        for i in 0..20 {
            assert_eq!(c.load(a.offset_words(i * 8)), i);
        }
    }

    #[test]
    fn crash_of_crash_is_stable() {
        let (mut m, a) = mem();
        m.store(a, 3);
        m.persist(a);
        let c1 = m.crash();
        let c2 = c1.crash();
        assert_eq!(c2.load(a), 3);
    }

    #[test]
    fn later_store_after_persist_is_lost() {
        let (mut m, a) = mem();
        m.store(a, 1);
        m.persist(a);
        m.store(a, 2);
        let c = m.crash();
        assert_eq!(c.load(a), 1);
    }
}
