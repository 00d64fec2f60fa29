//! Durable PM contents at word granularity.

use std::ops::Range;
use std::sync::Arc;

use crate::addr::{Addr, LineAddr, WORDS_PER_LINE};
use crate::hash::{FastMap, FastSet};

/// Error returned by [`PmImage::try_load`] when the addressed line is
/// poisoned: the media would signal an uncorrectable error instead of
/// returning data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoisonedLine(pub LineAddr);

impl std::fmt::Display for PoisonedLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uncorrectable media error reading line {}", self.0)
    }
}

impl std::error::Error for PoisonedLine {}

/// Lines per [`Page`]: one page covers a 4 KiB span of the address space,
/// so its presence bitmap is one `u64`.
const LINES_PER_PAGE: u64 = 64;
/// Words per [`Page`].
const PAGE_WORDS: usize = LINES_PER_PAGE as usize * WORDS_PER_LINE;

/// A dense page of line contents plus a presence bitmap.
///
/// Invariant: a line whose presence bit is clear has all-zero words, so
/// whole-page word comparisons and zero-default loads need no per-line
/// masking.
///
/// Images hold pages behind an [`Arc`] and copy them on write: cloning an
/// image shares every page, and the first write through one copy to a
/// shared page copies that page (4 KiB of words) and nothing else.
#[derive(Debug, Clone, PartialEq)]
struct Page {
    /// Presence bit per line: set iff the line counts as *written*.
    written: u64,
    /// `LINES_PER_PAGE * WORDS_PER_LINE` words, line-major.
    words: [u64; PAGE_WORDS],
}

impl Default for Page {
    fn default() -> Self {
        Self {
            written: 0,
            words: [0; PAGE_WORDS],
        }
    }
}

impl Page {
    #[inline]
    fn has(&self, slot: usize) -> bool {
        self.written & (1 << slot) != 0
    }

    /// Clears the presence bit of a written line and zeroes its words
    /// (upholding the page invariant).
    fn clear(&mut self, slot: usize) {
        debug_assert!(self.has(slot), "clearing an absent line");
        self.written &= !(1 << slot);
        self.line_mut(slot).fill(0);
    }

    #[inline]
    fn line(&self, slot: usize) -> &[u64] {
        &self.words[slot * WORDS_PER_LINE..(slot + 1) * WORDS_PER_LINE]
    }

    #[inline]
    fn line_mut(&mut self, slot: usize) -> &mut [u64] {
        &mut self.words[slot * WORDS_PER_LINE..(slot + 1) * WORDS_PER_LINE]
    }

    /// Writes `words` into `slot` and marks it written.
    #[inline]
    fn set(&mut self, slot: usize, words: &[u64]) {
        self.written |= 1 << slot;
        self.line_mut(slot).copy_from_slice(words);
    }
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

#[inline]
fn split(line: LineAddr) -> (u64, usize) {
    (line.0 / LINES_PER_PAGE, (line.0 % LINES_PER_PAGE) as usize)
}

/// The page that holds `line` and `line`'s bit in a per-page line mask,
/// such as the one [`PmImage::absorb_lines`] takes.
#[inline]
pub(crate) fn page_bit(line: LineAddr) -> (u64, u64) {
    let (page, slot) = split(line);
    (page, 1 << slot)
}

/// The contents of persistent memory as recovery would observe them.
///
/// A `PmImage` maps cache lines to their word contents, stored as dense
/// 64-line pages behind a page-indexed table — functional stores during
/// workload generation are the hot path, and paging turns their per-store
/// cost into one table probe per 4 KiB span plus a direct index.
/// Unwritten memory reads as zero, mirroring a freshly-zeroed PM device.
/// The image is word-granular because all workload data in this reproduction
/// is word-sized; a persist (CLWB or cache writeback) transfers a whole line.
///
/// Pages are copy-on-write. A clone costs one reference count per page;
/// the first store, line persist or line clear that changes a shared page
/// copies that one page, so a crash image sampled from a baseline, or an
/// interrupted recovery's copy, pays only for the pages it writes.
/// Clearing a line that is not written changes nothing and copies nothing,
/// and comparing two images skips the pages they still share.
///
/// # Example
///
/// ```
/// use sw_pmem::{Addr, PmImage};
///
/// let mut img = PmImage::new();
/// img.store(Addr(64), 7);
/// assert_eq!(img.load(Addr(64)), 7);
/// assert_eq!(img.load(Addr(72)), 0); // untouched word in same line
/// ```
#[derive(Debug, Clone, Default)]
pub struct PmImage {
    pages: FastMap<u64, Arc<Page>>,
    /// Lines the media reports as uncorrectable: [`PmImage::try_load`]
    /// errors on them. A store (which rewrites the location) heals the
    /// line, as does a full-line persist ([`PmImage::absorb_line`] /
    /// [`PmImage::set_line_words`]).
    poisoned: FastSet<LineAddr>,
}

impl PmImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the word at `addr`. Unwritten memory reads as zero.
    ///
    /// This is the legacy infallible surface: it ignores poison and returns
    /// whatever bits the image holds. Fault-aware readers (recovery) use
    /// [`PmImage::try_load`] instead.
    pub fn load(&self, addr: Addr) -> u64 {
        let (page, slot) = split(addr.line());
        self.pages
            .get(&page)
            .map_or(0, |p| p.line(slot)[addr.word_in_line()])
    }

    /// Reads the word at `addr`, failing if the containing line is
    /// poisoned (an uncorrectable media error).
    ///
    /// # Errors
    ///
    /// Returns [`PoisonedLine`] when the line was poisoned and not healed
    /// by a subsequent store.
    pub fn try_load(&self, addr: Addr) -> Result<u64, PoisonedLine> {
        let line = addr.line();
        if self.poisoned.contains(&line) {
            return Err(PoisonedLine(line));
        }
        Ok(self.load(addr))
    }

    /// Writes the word at `addr`. Rewriting a poisoned line heals it (the
    /// device replaces the uncorrectable data).
    pub fn store(&mut self, addr: Addr, value: u64) {
        if !self.poisoned.is_empty() {
            self.poisoned.remove(&addr.line());
        }
        let (page, slot) = split(addr.line());
        let p = self.page_mut(page);
        p.written |= 1 << slot;
        p.words[slot * WORDS_PER_LINE + addr.word_in_line()] = value;
    }

    /// Page `page`, created empty if absent and copied first if another
    /// image shares it.
    fn page_mut(&mut self, page: u64) -> &mut Page {
        Arc::make_mut(self.pages.entry(page).or_default())
    }

    /// Clears `slot` of page `page` if that line is written. An absent
    /// line is already zero, so its page is left shared.
    fn clear_line(&mut self, page: u64, slot: usize) {
        if let Some(p) = self.pages.get_mut(&page).filter(|p| p.has(slot)) {
            Arc::make_mut(p).clear(slot);
        }
    }

    /// Marks `line` as uncorrectable: [`PmImage::try_load`] will fail on
    /// it until a store or full-line persist heals it. The stored bits are
    /// left in place (the legacy [`PmImage::load`] still reads them).
    pub fn poison_line(&mut self, line: LineAddr) {
        self.poisoned.insert(line);
    }

    /// `true` when `line` is currently poisoned.
    pub fn is_poisoned(&self, line: LineAddr) -> bool {
        self.poisoned.contains(&line)
    }

    /// Copies the full contents of `line` from `src` into this image.
    ///
    /// This models a line-granular persist: the entire cache line drains to
    /// the PM device at once (healing any poison on the destination).
    pub fn absorb_line(&mut self, line: LineAddr, src: &PmImage) {
        if !self.poisoned.is_empty() {
            self.poisoned.remove(&line);
        }
        let (page, slot) = split(line);
        match src.pages.get(&page).filter(|p| p.has(slot)) {
            Some(sp) => self.page_mut(page).set(slot, sp.line(slot)),
            None => self.clear_line(page, slot),
        }
    }

    /// [`PmImage::absorb_line`] of every line of page `page` whose bit is
    /// set in `mask` (see [`page_bit`]), with one lookup of the page in
    /// each image: lines `src` holds are copied, the others cleared. A
    /// mask that changes nothing copies no page.
    pub(crate) fn absorb_lines(&mut self, page: u64, mask: u64, src: &PmImage) {
        if !self.poisoned.is_empty() {
            for slot in bits(mask) {
                self.poisoned
                    .remove(&LineAddr(page * LINES_PER_PAGE + slot as u64));
            }
        }
        let sp = src.pages.get(&page);
        let copied = mask & sp.map_or(0, |p| p.written);
        let cleared = mask & !copied & self.pages.get(&page).map_or(0, |p| p.written);
        if copied | cleared == 0 {
            return;
        }
        let dp = self.page_mut(page);
        for slot in bits(cleared) {
            dp.clear(slot);
        }
        if let Some(sp) = sp {
            for slot in bits(copied) {
                dp.set(slot, sp.line(slot));
            }
        }
    }

    /// Overwrites the words of `line` (healing any poison).
    pub fn set_line_words(&mut self, line: LineAddr, words: [u64; WORDS_PER_LINE]) {
        if !self.poisoned.is_empty() {
            self.poisoned.remove(&line);
        }
        let (page, slot) = split(line);
        if words == [0; WORDS_PER_LINE] {
            self.clear_line(page, slot);
        } else {
            self.page_mut(page).set(slot, &words);
        }
    }

    /// Reads the words of `line` with one page probe. Unwritten memory
    /// reads as zero; like [`PmImage::load`], this ignores poison.
    pub fn line_words(&self, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        let (page, slot) = split(line);
        let mut words = [0; WORDS_PER_LINE];
        if let Some(p) = self.pages.get(&page) {
            words.copy_from_slice(p.line(slot));
        }
        words
    }

    /// The lines of `range` that are written or poisoned, in ascending
    /// order. Every other line of the range reads as zero and is not
    /// poisoned, so a scan that classifies these lines and counts the rest
    /// as blank sees the same image as one that visits every line. Absent
    /// pages are skipped without a visit.
    pub fn occupied_lines(&self, range: Range<LineAddr>) -> impl Iterator<Item = LineAddr> + '_ {
        let (start, end) = (range.start.0, range.end.0.max(range.start.0));
        let mut written = (start / LINES_PER_PAGE..end.div_ceil(LINES_PER_PAGE))
            .filter_map(move |page| self.pages.get(&page).map(|p| (page, p)))
            .flat_map(move |(page, p)| {
                // `lo < 64` and `hi >= 1`: the page overlaps `start..end`,
                // or holds `start` when the range is empty.
                let base = page * LINES_PER_PAGE;
                let lo = start.max(base) - base;
                let hi = end.min(base + LINES_PER_PAGE) - base;
                let span = (u64::MAX << lo) & (u64::MAX >> (LINES_PER_PAGE - hi));
                bits(p.written & span).map(move |slot| base + slot as u64)
            })
            .peekable();
        let mut poisoned: Vec<u64> = self
            .poisoned
            .iter()
            .map(|l| l.0)
            .filter(|l| (start..end).contains(l))
            .collect();
        poisoned.sort_unstable();
        let mut poisoned = poisoned.into_iter().peekable();
        // Merge the two ascending streams; a written, poisoned line comes
        // out once.
        std::iter::from_fn(move || {
            let next = match (written.peek().copied(), poisoned.peek().copied()) {
                (Some(w), Some(p)) if p < w => poisoned.next(),
                (Some(w), Some(p)) if p == w => {
                    poisoned.next();
                    written.next()
                }
                (Some(_), _) => written.next(),
                (None, _) => poisoned.next(),
            };
            next.map(LineAddr)
        })
    }

    /// Returns an iterator over the lines currently counted as written: a
    /// line drops out again when a full-line persist clears it to zero
    /// ([`PmImage::absorb_line`] of an unwritten line, or
    /// [`PmImage::set_line_words`] with all-zero words).
    pub fn written_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.pages.iter().flat_map(|(&page, p)| {
            bits(p.written).map(move |slot| LineAddr(page * LINES_PER_PAGE + slot as u64))
        })
    }

    /// Number of distinct cache lines with non-default contents.
    pub fn line_count(&self) -> usize {
        self.pages
            .values()
            .map(|p| p.written.count_ones() as usize)
            .sum()
    }
}

impl PartialEq for PmImage {
    /// Content equality: the same set of written lines with the same
    /// words, and the same poison set. Pages whose lines were all cleared
    /// again compare equal to absent pages, and a page the two images
    /// still share is equal without a look at its words.
    fn eq(&self, other: &Self) -> bool {
        if self.poisoned != other.poisoned {
            return false;
        }
        let live = |img: &Self| img.pages.values().filter(|p| p.written != 0).count();
        if live(self) != live(other) {
            return false;
        }
        self.pages
            .iter()
            .filter(|(_, p)| p.written != 0)
            .all(|(idx, p)| {
                other
                    .pages
                    .get(idx)
                    .is_some_and(|q| Arc::ptr_eq(p, q) || q == p)
            })
    }
}

impl Eq for PmImage {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let img = PmImage::new();
        assert_eq!(img.load(Addr(0)), 0);
        assert_eq!(img.load(Addr(0xdead * 8)), 0);
    }

    #[test]
    fn store_load_roundtrip() {
        let mut img = PmImage::new();
        img.store(Addr(8), 11);
        img.store(Addr(16), 22);
        assert_eq!(img.load(Addr(8)), 11);
        assert_eq!(img.load(Addr(16)), 22);
        assert_eq!(img.load(Addr(0)), 0);
    }

    #[test]
    fn words_in_same_line_are_independent() {
        let mut img = PmImage::new();
        for w in 0..WORDS_PER_LINE {
            img.store(LineAddr(3).word(w), w as u64 + 1);
        }
        for w in 0..WORDS_PER_LINE {
            assert_eq!(img.load(LineAddr(3).word(w)), w as u64 + 1);
        }
    }

    #[test]
    fn absorb_line_copies_whole_line() {
        let mut src = PmImage::new();
        src.store(Addr(64), 1);
        src.store(Addr(72), 2);
        let mut dst = PmImage::new();
        dst.store(Addr(64), 99); // will be overwritten by absorb
        dst.absorb_line(LineAddr(1), &src);
        assert_eq!(dst.load(Addr(64)), 1);
        assert_eq!(dst.load(Addr(72)), 2);
    }

    #[test]
    fn absorb_missing_line_zeroes_destination() {
        let src = PmImage::new();
        let mut dst = PmImage::new();
        dst.store(Addr(64), 5);
        dst.absorb_line(LineAddr(1), &src);
        assert_eq!(dst.load(Addr(64)), 0);
        assert_eq!(dst.line_count(), 0);
    }

    #[test]
    fn line_count_tracks_distinct_lines() {
        let mut img = PmImage::new();
        img.store(Addr(0), 1);
        img.store(Addr(8), 2);
        img.store(Addr(64), 3);
        assert_eq!(img.line_count(), 2);
    }

    #[test]
    fn zero_valued_stores_still_count_as_written() {
        // TPC-C pre-touches its order table with zero stores; the warm
        // preload set must include those lines.
        let mut img = PmImage::new();
        img.store(Addr(64), 0);
        assert_eq!(img.line_count(), 1);
        assert_eq!(img.written_lines().collect::<Vec<_>>(), vec![LineAddr(1)]);
    }

    #[test]
    fn written_lines_spans_pages() {
        let mut img = PmImage::new();
        let far = LineAddr(5 * LINES_PER_PAGE + 7);
        img.store(LineAddr(3).word(0), 1);
        img.store(far.word(2), 9);
        let mut lines: Vec<LineAddr> = img.written_lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![LineAddr(3), far]);
    }

    #[test]
    fn try_load_fails_on_poisoned_line_until_healed() {
        let mut img = PmImage::new();
        img.store(Addr(64), 7);
        img.poison_line(LineAddr(1));
        assert!(img.is_poisoned(LineAddr(1)));
        assert_eq!(img.try_load(Addr(64)), Err(PoisonedLine(LineAddr(1))));
        assert_eq!(img.try_load(Addr(72)), Err(PoisonedLine(LineAddr(1))));
        // The legacy surface still reads the stale bits.
        assert_eq!(img.load(Addr(64)), 7);
        // Other lines are unaffected.
        assert_eq!(img.try_load(Addr(0)), Ok(0));
        // A store heals the whole line.
        img.store(Addr(72), 9);
        assert!(!img.is_poisoned(LineAddr(1)));
        assert_eq!(img.try_load(Addr(64)), Ok(7));
    }

    #[test]
    fn full_line_persists_heal_poison() {
        let mut img = PmImage::new();
        img.store(Addr(64), 1);
        img.poison_line(LineAddr(1));
        img.absorb_line(LineAddr(1), &PmImage::new());
        assert!(!img.is_poisoned(LineAddr(1)));

        img.poison_line(LineAddr(2));
        img.set_line_words(LineAddr(2), [5; WORDS_PER_LINE]);
        assert!(!img.is_poisoned(LineAddr(2)));
    }

    #[test]
    fn poison_participates_in_image_equality() {
        let mut a = PmImage::new();
        let mut b = PmImage::new();
        a.store(Addr(64), 1);
        b.store(Addr(64), 1);
        assert_eq!(a, b);
        a.poison_line(LineAddr(1));
        assert_ne!(a, b, "poison state is part of the durable image");
        b.poison_line(LineAddr(1));
        assert_eq!(a, b);
    }

    #[test]
    fn set_line_words_all_zero_removes_line() {
        let mut img = PmImage::new();
        img.store(Addr(0), 1);
        img.set_line_words(LineAddr(0), [0; WORDS_PER_LINE]);
        assert_eq!(img.line_count(), 0);
        assert_eq!(img.load(Addr(0)), 0);
    }

    #[test]
    fn line_words_reads_a_whole_line() {
        let mut img = PmImage::new();
        img.store(LineAddr(9).word(2), 5);
        img.store(LineAddr(9).word(7), 6);
        assert_eq!(img.line_words(LineAddr(9)), [0, 0, 5, 0, 0, 0, 0, 6]);
        assert_eq!(img.line_words(LineAddr(10)), [0; WORDS_PER_LINE]);
        assert_eq!(
            img.line_words(LineAddr(7 * LINES_PER_PAGE)),
            [0; WORDS_PER_LINE]
        );
    }

    #[test]
    fn occupied_lines_merge_written_and_poisoned_lines_in_order() {
        let mut img = PmImage::new();
        let page = LINES_PER_PAGE;
        img.store(LineAddr(page - 1).word(0), 0); // zero-valued store
        img.store(LineAddr(page + 64).word(3), 1);
        img.store(LineAddr(page + 65).word(0), 1);
        img.set_line_words(LineAddr(page + 65), [0; WORDS_PER_LINE]); // cleared
        img.poison_line(LineAddr(page + 64)); // written and poisoned
        img.poison_line(LineAddr(3 * page + 5)); // poisoned, never written
        img.store(LineAddr(5 * page).word(0), 2);
        let all: Vec<u64> = img
            .occupied_lines(LineAddr(page - 1)..LineAddr(5 * page))
            .map(LineAddr::raw)
            .collect();
        assert_eq!(all, vec![page - 1, page + 64, 3 * page + 5]);
        let tail: Vec<u64> = img
            .occupied_lines(LineAddr(page + 65)..LineAddr(5 * page + 1))
            .map(LineAddr::raw)
            .collect();
        assert_eq!(tail, vec![3 * page + 5, 5 * page]);
        assert_eq!(img.occupied_lines(LineAddr(9)..LineAddr(3)).count(), 0);
    }

    /// Pages of `a` that `b` holds by the same pointer.
    fn shared_pages(a: &PmImage, b: &PmImage) -> usize {
        a.pages
            .iter()
            .filter(|(idx, p)| b.pages.get(idx).is_some_and(|q| Arc::ptr_eq(p, q)))
            .count()
    }

    #[test]
    fn clones_share_pages_until_written() {
        let mut a = PmImage::new();
        for page in 0..4 {
            a.store(LineAddr(page * LINES_PER_PAGE + 3).word(1), page + 1);
        }
        let mut b = a.clone();
        assert_eq!(shared_pages(&a, &b), 4, "a fresh clone shares every page");

        b.store(LineAddr(LINES_PER_PAGE + 9).word(0), 7);
        assert_eq!(shared_pages(&a, &b), 3, "one store copies one page");
        assert_eq!(a.load(LineAddr(LINES_PER_PAGE + 9).word(0)), 0);

        // Clearing lines that are not written copies nothing, through
        // either full-line persist.
        b.set_line_words(LineAddr(2 * LINES_PER_PAGE + 4), [0; WORDS_PER_LINE]);
        b.absorb_line(LineAddr(3 * LINES_PER_PAGE + 4), &PmImage::new());
        assert_eq!(shared_pages(&a, &b), 3);
        assert_ne!(a, b);
        let mut c = b.clone();
        c.set_line_words(LineAddr(LINES_PER_PAGE + 9), [0; WORDS_PER_LINE]);
        assert_eq!(a, c, "a copied page equal in content compares equal");

        // Clearing a written line copies its page, in the clone only.
        b.set_line_words(LineAddr(3), [0; WORDS_PER_LINE]);
        assert_eq!(shared_pages(&a, &b), 2);
        assert_eq!(a.load(LineAddr(3).word(1)), 1);
        assert_eq!(b.load(LineAddr(3).word(1)), 0);
    }

    #[test]
    fn absorb_lines_equals_absorb_line_of_each_masked_line() {
        let mut src = PmImage::new();
        src.store(LineAddr(3).word(0), 1);
        src.store(LineAddr(5).word(1), 2);
        src.store(LineAddr(6).word(1), 3);
        let mut dst = PmImage::new();
        dst.store(LineAddr(4).word(0), 9); // masked, absent in `src`: cleared
        dst.store(LineAddr(6).word(0), 8); // not masked: kept
        dst.poison_line(LineAddr(5));
        let (page, bit) = page_bit(LineAddr(3));
        let mask = bit | bit << 1 | bit << 2;
        let mut want = dst.clone();
        for line in 3..6 {
            want.absorb_line(LineAddr(line), &src);
        }
        let shared = dst.clone();
        dst.absorb_lines(page, mask, &src);
        assert_eq!(dst, want);
        assert!(!dst.is_poisoned(LineAddr(5)));
        assert_eq!(dst.line_words(LineAddr(6)), [8, 0, 0, 0, 0, 0, 0, 0]);

        // Lines absent from both images: the shared page is not copied.
        let mut copy = shared.clone();
        let (far, bit) = page_bit(LineAddr(2 * LINES_PER_PAGE + 1));
        copy.absorb_lines(far, bit, &src);
        copy.absorb_lines(page, 1, &src);
        assert_eq!(shared_pages(&copy, &shared), 1);
    }

    #[test]
    fn cleared_pages_compare_equal_to_absent_pages() {
        let mut a = PmImage::new();
        let b = PmImage::new();
        a.store(Addr(0), 1);
        a.set_line_words(LineAddr(0), [0; WORDS_PER_LINE]);
        assert_eq!(a, b);
        assert_eq!(b, a);
    }
}
