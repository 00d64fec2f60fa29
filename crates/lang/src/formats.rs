//! The write-ahead log strategies: how a data store is encoded, which fence
//! follows the lock-word stamp, and what recovery does with each entry.
//!
//! [`LogStrategy`] answers the runtime's questions with one `match` arm per
//! strategy, and [`recovery_action`] is one `match` over the entry
//! vocabulary. A log may mix vocabularies (a redo log carries the shared
//! synchronization entries), so recovery classifies each entry by its
//! type, not by the strategy that wrote the log.

use crate::log::{DecodedEntry, EntryPayload, EntryType};
use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::Addr;

/// Which write-ahead-logging strategy the runtime uses.
///
/// The paper evaluates undo logging and sketches redo logging as future
/// work (Section VII, "Hardware logging"): *"Under strand persistency,
/// each failure-atomic transaction may be performed on a separate strand.
/// Within each strand, transactions can create redo logs, issue a persist
/// barrier and then perform in-place updates. A group commit operation can
/// merge strands and commit prior transactions."* [`LogStrategy::Redo`]
/// implements exactly that sketch:
///
/// * each region runs on its own strand: chain stamp, sync entries, redo
///   entries (new values), persist barrier, a per-region commit record,
///   persist barrier, then the deferred in-place updates — so an update
///   can never persist before the commit record that covers it;
/// * reads inside a region go through `ThreadRuntime::load` for
///   read-own-writes over the deferred write set;
/// * a `JoinStrand` **group commit** periodically merges strands and
///   truncates the log (no per-region drain at all — this is where redo
///   beats undo under strands);
/// * recovery *replays* committed redo entries forward instead of rolling
///   back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogStrategy {
    /// Undo logging (the paper's evaluated design, Figure 5): a data store
    /// appends the *old* value before updating in place, and recovery
    /// rolls surviving entries back in reverse creation order.
    Undo,
    /// Redo logging with strand-based group commit (the Section VII
    /// extension): a data store appends the *new* value and defers the
    /// in-place update past the region's commit record.
    Redo,
}

impl LogStrategy {
    /// Both strategies.
    pub const ALL: [LogStrategy; 2] = [LogStrategy::Undo, LogStrategy::Redo];

    /// Short label used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            LogStrategy::Undo => "undo",
            LogStrategy::Redo => "redo",
        }
    }

    /// Encodes the log entry for one data store (`old` is the pre-store
    /// value, `new` the stored one): each strategy keeps the value its
    /// recovery applies.
    pub(crate) fn encode_store(self, addr: Addr, old: u64, new: u64) -> EntryPayload {
        let (etype, value) = match self {
            LogStrategy::Undo => (EntryType::Store, old),
            LogStrategy::Redo => (EntryType::RedoStore, new),
        };
        EntryPayload {
            etype,
            addr,
            value,
            aux: 0,
        }
    }

    /// Fence emitted after the lock-word stamp at region begin. Undo
    /// regions span strands, so the stamp needs the cross-strand drain
    /// (Section III, "Establishing inter-thread persist order"); redo keeps
    /// the whole region on one strand, so a persist barrier suffices (and
    /// avoids the drain — redo's advantage under strands).
    pub(crate) fn lock_stamp_fence(self, design: HwDesign) -> Option<FenceKind> {
        match self {
            LogStrategy::Undo => design.drain_fence(),
            LogStrategy::Redo => design.pairwise_fence(),
        }
    }
}

impl std::fmt::Display for LogStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What recovery does with one decoded log entry, given the thread's
/// commit cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Bookkeeping consumed by the scan itself (commit records).
    None,
    /// Covered by a commit cut (or superseded): drop the entry.
    Discard,
    /// Apply the entry's value forward, in creation order (redo replay).
    Replay,
    /// Apply the entry's value backward, in reverse creation order (undo
    /// rollback).
    RollBack,
    /// Happens-before metadata: counted, never applied.
    Sync,
}

/// Recovery semantics of `entry` given the commit cut: committed undo and
/// sync entries are discarded and committed redo entries replay forward
/// (their updates may never have persisted); above the cut, undo stores
/// roll back, sync entries are counted and redo stores are discarded.
/// Commit records are the scan's own cut evidence.
pub fn recovery_action(entry: &DecodedEntry, cut: u64) -> RecoveryAction {
    match (entry.etype, entry.seq <= cut) {
        (EntryType::Commit, _) => RecoveryAction::None,
        (EntryType::RedoStore, true) => RecoveryAction::Replay,
        (EntryType::RedoStore, false) | (_, true) => RecoveryAction::Discard,
        (EntryType::Store, false) => RecoveryAction::RollBack,
        (
            EntryType::Acquire | EntryType::Release | EntryType::TxBegin | EntryType::TxEnd,
            false,
        ) => RecoveryAction::Sync,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(etype: EntryType, seq: u64, value: u64) -> DecodedEntry {
        DecodedEntry {
            etype,
            addr: Addr(0x2000_0000),
            value,
            seq,
            aux: 0,
        }
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(LogStrategy::Undo.label(), LogStrategy::Redo.label());
    }

    #[test]
    fn every_entry_type_has_its_action_on_each_side_of_the_cut() {
        use RecoveryAction::{Discard, None, Replay, RollBack, Sync};
        // (entry type, action at or below the cut, action above it)
        let table = [
            (EntryType::Store, Discard, RollBack),
            (EntryType::Acquire, Discard, Sync),
            (EntryType::Release, Discard, Sync),
            (EntryType::TxBegin, Discard, Sync),
            (EntryType::TxEnd, Discard, Sync),
            (EntryType::Commit, None, None),
            (EntryType::RedoStore, Replay, Discard),
        ];
        for (etype, committed, survivor) in table {
            for seq in [1, 5] {
                assert_eq!(
                    recovery_action(&entry(etype, seq, 1), 5),
                    committed,
                    "{etype:?}"
                );
            }
            assert_eq!(
                recovery_action(&entry(etype, 6, 1), 5),
                survivor,
                "{etype:?}"
            );
        }
    }

    #[test]
    fn recovery_actions_flip_across_the_cut() {
        // Undo: committed entries discard, survivors roll back / skip.
        assert_eq!(
            recovery_action(&entry(EntryType::Store, 5, 1), 5),
            RecoveryAction::Discard
        );
        assert_eq!(
            recovery_action(&entry(EntryType::Store, 6, 1), 5),
            RecoveryAction::RollBack
        );
        assert_eq!(
            recovery_action(&entry(EntryType::Acquire, 6, 1), 5),
            RecoveryAction::Sync
        );
        // Redo: the direction flips — committed entries replay forward.
        assert_eq!(
            recovery_action(&entry(EntryType::RedoStore, 5, 1), 5),
            RecoveryAction::Replay
        );
        assert_eq!(
            recovery_action(&entry(EntryType::RedoStore, 6, 1), 5),
            RecoveryAction::Discard
        );
        assert_eq!(
            recovery_action(&entry(EntryType::Commit, 3, 1), 5),
            RecoveryAction::None
        );
    }

    #[test]
    fn encodings_keep_the_value_each_format_replays() {
        let a = Addr(0x2000_0040);
        let undo = LogStrategy::Undo.encode_store(a, 11, 22);
        assert_eq!(undo.etype, EntryType::Store);
        assert_eq!(undo.value, 11, "undo keeps the old value");
        let redo = LogStrategy::Redo.encode_store(a, 11, 22);
        assert_eq!(redo.etype, EntryType::RedoStore);
        assert_eq!(redo.value, 22, "redo keeps the new value");
    }
}
