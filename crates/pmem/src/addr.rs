//! Typed byte and cache-line addresses.

use std::fmt;

/// Size of a cache line in bytes, matching the simulated machine (Table I).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Size of a machine word in bytes. All workload data is word-granular.
pub const WORD_BYTES: u64 = 8;

/// Number of words in one cache line.
pub const WORDS_PER_LINE: usize = (CACHE_LINE_BYTES / WORD_BYTES) as usize;

/// A byte address in the simulated physical address space.
///
/// Addresses used for data accesses are word-aligned (multiples of
/// [`WORD_BYTES`]). The zero address is valid (the substrate has no MMU),
/// but [`PmLayout`](crate::PmLayout) never hands it out, so callers may use
/// it as a null sentinel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The null sentinel address. Never allocated by [`PmLayout`](crate::PmLayout).
    pub const NULL: Addr = Addr(0);

    /// Returns the cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / CACHE_LINE_BYTES)
    }

    /// Returns the word index of this address within its cache line.
    #[inline]
    pub fn word_in_line(self) -> usize {
        ((self.0 % CACHE_LINE_BYTES) / WORD_BYTES) as usize
    }

    /// Returns the address `words` machine words after `self`.
    #[inline]
    pub fn offset_words(self, words: u64) -> Addr {
        Addr(self.0 + words * WORD_BYTES)
    }

    /// Returns the raw byte address.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the null sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line index (byte address divided by [`CACHE_LINE_BYTES`]).
///
/// Cache lines are the granularity of persists: a `CLWB` flushes one line,
/// and the PM controller accepts one line per write-queue entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Returns the byte address of the first word in the line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * CACHE_LINE_BYTES)
    }

    /// Returns the byte address of word `word` (0-based) within the line.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `word >= WORDS_PER_LINE`.
    #[inline]
    pub fn word(self, word: usize) -> Addr {
        debug_assert!(word < WORDS_PER_LINE);
        self.base().offset_words(word as u64)
    }

    /// Returns the raw line index.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_address() {
        assert_eq!(Addr(0).line(), LineAddr(0));
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(Addr(1000 * 64 + 8).line(), LineAddr(1000));
    }

    #[test]
    fn word_in_line() {
        assert_eq!(Addr(0).word_in_line(), 0);
        assert_eq!(Addr(8).word_in_line(), 1);
        assert_eq!(Addr(56).word_in_line(), 7);
        assert_eq!(Addr(64).word_in_line(), 0);
    }

    #[test]
    fn offset_words_advances_bytes() {
        let a = Addr(128);
        assert_eq!(a.offset_words(3), Addr(128 + 24));
    }

    #[test]
    fn line_base_and_word_roundtrip() {
        let l = LineAddr(5);
        assert_eq!(l.base(), Addr(320));
        assert_eq!(l.word(7), Addr(320 + 56));
        assert_eq!(l.word(7).line(), l);
    }

    #[test]
    fn null_sentinel() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr(8).is_null());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Addr(0x40)), "0x40");
        assert_eq!(format!("{}", LineAddr(2)), "L0x2");
        assert_eq!(format!("{:?}", Addr(0x40)), "Addr(0x40)");
    }
}
