//! Crash-consistent line remap/quarantine table.
//!
//! When the online device-fault model declares a cache line a permanent
//! media error, the PM controller retires the physical line and redirects
//! it to a spare. The mapping itself must survive crashes: a remap that is
//! lost on power failure would resurrect a dead line, and a half-written
//! remap entry must never be interpreted as a valid redirect.
//!
//! [`RemapTable`] therefore publishes its durable encoding with the same
//! discipline the undo logs use for commit records: each entry is written
//! as a `(from, to, checksum)` triple, and a count word is published
//! *last*. Any crash cuts the word sequence at an arbitrary prefix; the
//! decoder only trusts entries covered by the count word it finds, and the
//! count word is only bumped after the entry words it covers. Every prefix
//! of [`RemapTable::encode_words`] therefore decodes to a prefix of the
//! logical mapping — never to a torn entry.

use std::fmt;

use crate::addr::LineAddr;
use crate::hash::FastMap;

/// Number of `u64` words one encoded remap entry occupies.
pub const REMAP_ENTRY_WORDS: usize = 3;

fn entry_checksum(from: u64, to: u64) -> u64 {
    // Cheap mixing; only needs to make a torn (from, to) pair detectable.
    (from ^ to.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5151_5151_5151_5151
}

/// A quarantine/redirect table from retired physical lines to spares.
///
/// Spares are allocated sequentially from a dedicated spare range starting
/// at `spare_base`; the table refuses to remap once the range is
/// exhausted. Exhaustion is a first-class failure: the fault layer turns
/// the `None` into a typed `RemapExhausted` outcome (with a trace event
/// and a `faults.online.spares_exhausted` counter) so the layer above
/// fails the device over rather than silently reusing live lines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RemapTable {
    /// Insertion-ordered (from, to) pairs; order is the durable encoding
    /// order, so it must be deterministic.
    entries: Vec<(LineAddr, LineAddr)>,
    /// Fast lookup from retired line to its index in `entries`.
    index: FastMap<LineAddr, usize>,
    spare_base: u64,
    spare_count: u64,
}

impl RemapTable {
    /// Creates an empty table drawing spares from `spare_count` lines
    /// starting at `spare_base`.
    pub fn new(spare_base: u64, spare_count: u64) -> Self {
        RemapTable {
            entries: Vec::new(),
            index: FastMap::default(),
            spare_base,
            spare_count,
        }
    }

    /// Number of remapped lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no lines have been remapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolves a line through the table: the spare if `line` was retired,
    /// otherwise `line` itself.
    #[inline]
    pub fn resolve(&self, line: LineAddr) -> LineAddr {
        match self.index.get(&line) {
            Some(&i) => self.entries[i].1,
            None => line,
        }
    }

    /// Returns `true` if `line` has been retired and redirected.
    #[inline]
    pub fn is_remapped(&self, line: LineAddr) -> bool {
        self.index.contains_key(&line)
    }

    /// Retires `line`, allocating the next spare for it. Idempotent:
    /// remapping an already-retired line returns its existing spare.
    ///
    /// Returns `None` when the spare range is exhausted.
    pub fn remap(&mut self, line: LineAddr) -> Option<LineAddr> {
        if let Some(&i) = self.index.get(&line) {
            return Some(self.entries[i].1);
        }
        let next = self.entries.len() as u64;
        if next >= self.spare_count {
            return None;
        }
        let spare = LineAddr(self.spare_base + next);
        self.index.insert(line, self.entries.len());
        self.entries.push((line, spare));
        Some(spare)
    }

    /// Iterates over `(from, to)` pairs in durable (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, LineAddr)> + '_ {
        self.entries.iter().copied()
    }

    /// Durable encoding: entry triples first, count word published last.
    ///
    /// The write order is the crash-consistency contract — see the module
    /// docs. [`decode_words`](Self::decode_words) of any prefix of this
    /// sequence yields a prefix of the table.
    pub fn encode_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.entries.len() * REMAP_ENTRY_WORDS + 1);
        for &(from, to) in &self.entries {
            words.push(from.raw());
            words.push(to.raw());
            words.push(entry_checksum(from.raw(), to.raw()));
        }
        words.push(self.entries.len() as u64);
        words
    }

    /// Decodes a (possibly crash-truncated) word sequence produced by
    /// writing [`encode_words`](Self::encode_words) in order.
    ///
    /// The final word present is taken as the count; entries beyond the
    /// words actually present, or with a checksum mismatch, are dropped —
    /// a crash can shorten the mapping but never invent or tear an entry.
    pub fn decode_words(words: &[u64], spare_base: u64, spare_count: u64) -> Self {
        let mut table = RemapTable::new(spare_base, spare_count);
        let Some((&count, body)) = words.split_last() else {
            return table;
        };
        let complete = body.len() / REMAP_ENTRY_WORDS;
        let trusted = (count as usize).min(complete).min(spare_count as usize);
        for i in 0..trusted {
            let from = body[i * REMAP_ENTRY_WORDS];
            let to = body[i * REMAP_ENTRY_WORDS + 1];
            let sum = body[i * REMAP_ENTRY_WORDS + 2];
            if sum != entry_checksum(from, to) {
                // A torn entry ends the trustworthy prefix.
                break;
            }
            table.index.insert(LineAddr(from), table.entries.len());
            table.entries.push((LineAddr(from), LineAddr(to)));
        }
        table
    }
}

impl fmt::Display for RemapTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "remap[{} retired]", self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(n: u64) -> RemapTable {
        let mut t = RemapTable::new(10_000, 64);
        for i in 0..n {
            t.remap(LineAddr(100 + i)).unwrap();
        }
        t
    }

    #[test]
    fn resolve_identity_when_unmapped() {
        let t = RemapTable::new(10_000, 4);
        assert_eq!(t.resolve(LineAddr(7)), LineAddr(7));
        assert!(!t.is_remapped(LineAddr(7)));
        assert!(t.is_empty());
    }

    #[test]
    fn remap_allocates_sequential_spares() {
        let mut t = RemapTable::new(10_000, 4);
        assert_eq!(t.remap(LineAddr(5)), Some(LineAddr(10_000)));
        assert_eq!(t.remap(LineAddr(9)), Some(LineAddr(10_001)));
        assert_eq!(t.resolve(LineAddr(5)), LineAddr(10_000));
        assert_eq!(t.resolve(LineAddr(9)), LineAddr(10_001));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remap_is_idempotent() {
        let mut t = RemapTable::new(10_000, 4);
        let first = t.remap(LineAddr(5)).unwrap();
        assert_eq!(t.remap(LineAddr(5)), Some(first));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn spare_exhaustion_returns_none() {
        let mut t = RemapTable::new(10_000, 2);
        assert!(t.remap(LineAddr(1)).is_some());
        assert!(t.remap(LineAddr(2)).is_some());
        assert_eq!(t.remap(LineAddr(3)), None);
        // The failed allocation must not have corrupted the table.
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(LineAddr(3)), LineAddr(3));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = table_with(5);
        let words = t.encode_words();
        let back = RemapTable::decode_words(&words, 10_000, 64);
        assert_eq!(back, t);
    }

    #[test]
    fn empty_roundtrip() {
        let t = RemapTable::new(10_000, 64);
        let back = RemapTable::decode_words(&t.encode_words(), 10_000, 64);
        assert_eq!(back, t);
        let none = RemapTable::decode_words(&[], 10_000, 64);
        assert!(none.is_empty());
    }

    #[test]
    fn every_crash_prefix_decodes_to_a_mapping_prefix() {
        let t = table_with(6);
        let words = t.encode_words();
        let full: Vec<_> = t.iter().collect();
        for cut in 0..=words.len() {
            let back = RemapTable::decode_words(&words[..cut], 10_000, 64);
            let got: Vec<_> = back.iter().collect();
            assert!(
                got.len() <= full.len() && got[..] == full[..got.len()],
                "prefix cut at {cut} must decode to a mapping prefix, got {got:?}"
            );
            // Resolution agrees with the full table on every decoded entry.
            for (from, to) in got {
                assert_eq!(back.resolve(from), to);
            }
        }
    }

    #[test]
    fn torn_entry_is_dropped() {
        let t = table_with(3);
        let mut words = t.encode_words();
        // Tear the middle entry's `to` word; its checksum no longer matches.
        words[REMAP_ENTRY_WORDS + 1] ^= 0xff;
        let back = RemapTable::decode_words(&words, 10_000, 64);
        // Only the entries before the tear survive.
        assert_eq!(back.len(), 1);
        assert_eq!(back.resolve(LineAddr(100)), LineAddr(10_000));
        assert_eq!(back.resolve(LineAddr(101)), LineAddr(101));
    }

    #[test]
    fn count_word_caps_trusted_entries() {
        let t = table_with(3);
        let mut words = t.encode_words();
        // A stale (smaller) count word hides later entries even though
        // their words are intact — exactly the crash-ordering contract.
        *words.last_mut().unwrap() = 1;
        let back = RemapTable::decode_words(&words, 10_000, 64);
        assert_eq!(back.len(), 1);
    }
}
