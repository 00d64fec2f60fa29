//! The language-level persistency models, one table row each.
//!
//! A model is described in exactly one place, its `ModelSpec` row in
//! `LangModel::spec`, as a hardware design is by `HwDesign::spec`: the
//! label, the bookkeeping cost per synchronization operation, the log
//! entries that delimit a region (or none, for a log-free model), and
//! whether commits batch. Legality, the consistency contract and the
//! commit trigger are derived from the row. The `ThreadRuntime` reads the
//! row once to pick its protocol and never matches on [`LangModel`].

use crate::log::EntryType;
use sw_model::HwDesign;

/// A language-level persistency model: the paper's three (Section VI-B,
/// "sensitivity to language-level persistency model") plus the log-free
/// eADR-native extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LangModel {
    /// Failure-atomic transactions (PMDK-style): every region is a
    /// transaction delimited by `TxBegin`/`TxEnd` and committed eagerly at
    /// region end, unless it stored nothing (PMDK likewise skips commit
    /// machinery for read-only transactions).
    Txn,
    /// Synchronization-free regions delimited by lock acquire/release: the
    /// runtime logs happens-before metadata at every synchronization point
    /// and commits only when the log fills; shared data also needs the
    /// cross-thread [`coordinated_commit`](crate::coordinated_commit).
    Sfr,
    /// ATLAS outermost critical sections: SFR's batched commits with
    /// heavier happens-before bookkeeping per lock operation (a lock graph
    /// to compute globally consistent cut points).
    Atlas,
    /// Log-free regions after MOD's log-free durable data structures: on a
    /// design where [`HwDesign::persists_at_visibility`] holds, an
    /// in-place update is durable the moment it executes, so regions keep
    /// only the lock-word stamp protocol and recovery has nothing to roll
    /// back or replay. The price is [`Consistency::DurablePrefix`]: a crash
    /// can land inside a region. It keeps TXN's sync cost, so its delta to
    /// TXN-on-eADR is purely the log, and it is legal only on those
    /// designs.
    Native,
}

/// The complete single-table description of one language-level model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ModelSpec {
    /// Short label used in benchmark tables and `swctl --lang`.
    pub label: &'static str,
    /// Cycles of bookkeeping work per synchronization operation (modelled
    /// as `Compute`): ATLAS's lock graph is the heaviest, SFR's
    /// acquire/release logging lighter, TXN's begin/end lightest.
    pub sync_cost: u32,
    /// The log entries appended at region begin and end, or `None` for a
    /// log-free model (which appends, flushes and commits nothing).
    pub region_entries: Option<(EntryType, EntryType)>,
    /// Whether the log commits only once `live` entries reach the
    /// threshold (and shared data needs the coordinated commit), rather
    /// than at every region end that stored.
    pub batches_commits: bool,
}

impl LangModel {
    /// All models, in presentation order (the paper's three, then the
    /// log-free extension).
    pub const ALL: [LangModel; 4] = [
        LangModel::Txn,
        LangModel::Sfr,
        LangModel::Atlas,
        LangModel::Native,
    ];

    /// The one-place definition of this model. Every other accessor reads
    /// from here.
    pub(crate) const fn spec(self) -> &'static ModelSpec {
        match self {
            LangModel::Txn => &ModelSpec {
                label: "txn",
                sync_cost: 8,
                region_entries: Some((EntryType::TxBegin, EntryType::TxEnd)),
                batches_commits: false,
            },
            LangModel::Sfr => &ModelSpec {
                label: "sfr",
                sync_cost: 14,
                region_entries: Some((EntryType::Acquire, EntryType::Release)),
                batches_commits: true,
            },
            LangModel::Atlas => &ModelSpec {
                label: "atlas",
                sync_cost: 42,
                region_entries: Some((EntryType::Acquire, EntryType::Release)),
                batches_commits: true,
            },
            LangModel::Native => &ModelSpec {
                label: "native",
                sync_cost: 8,
                region_entries: None,
                batches_commits: false,
            },
        }
    }

    /// Short label used in benchmark tables and `swctl --lang`.
    pub fn label(self) -> &'static str {
        self.spec().label
    }

    /// Looks a model up by its [`label`](LangModel::label).
    pub fn from_label(s: &str) -> Option<LangModel> {
        LangModel::ALL.into_iter().find(|l| l.label() == s)
    }

    /// `true` when the model keeps a write-ahead log.
    pub(crate) fn uses_log(self) -> bool {
        self.spec().region_entries.is_some()
    }

    /// `true` when the model may run on `design` (log-free models require
    /// persist-at-visibility hardware).
    pub fn legal_on(self, design: HwDesign) -> bool {
        self.uses_log() || design.persists_at_visibility()
    }

    /// `true` for models that batch commits and rely on a cross-thread
    /// [`coordinated_commit`](crate::coordinated_commit) on shared data.
    pub fn batches_commits(self) -> bool {
        self.spec().batches_commits
    }

    /// The crash-consistency contract this model gives its programs.
    pub fn consistency(self) -> Consistency {
        if self.uses_log() {
            Consistency::ReplayCommitted
        } else {
            Consistency::DurablePrefix
        }
    }

    /// Whether the log commits as a region ends: TXN's eager trigger is a
    /// region that stored, the batched models' is `live >= threshold`, and
    /// a log-free model never commits.
    pub(crate) fn commits_at_region_end(self, had_stores: bool, live: u64, threshold: u64) -> bool {
        if self.batches_commits() {
            live >= threshold
        } else {
            self.uses_log() && had_stores
        }
    }
}

impl std::fmt::Display for LangModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a model's recovered image is checked against after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Recovered image equals the baseline plus a replay of exactly the
    /// committed regions: failure atomicity plus commit durability (the
    /// logged models).
    ReplayCommitted,
    /// Recovered image equals the baseline plus some prefix of the run's
    /// stores in execution order: strict persistency with no rollback (the
    /// log-free model — regions are *not* failure-atomic).
    DurablePrefix,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_resolvable() {
        let labels: std::collections::HashSet<_> =
            LangModel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), LangModel::ALL.len());
        for l in LangModel::ALL {
            assert_eq!(LangModel::from_label(l.label()), Some(l));
        }
        assert_eq!(LangModel::from_label("pmdk"), None);
    }

    #[test]
    fn only_native_restricts_designs() {
        for l in LangModel::ALL {
            for d in HwDesign::ALL {
                let legal = l.legal_on(d);
                if l == LangModel::Native {
                    assert_eq!(legal, d.persists_at_visibility(), "{l} on {d}");
                } else {
                    assert!(legal, "{l} must run on every design");
                }
            }
        }
        assert!(LangModel::Native.legal_on(HwDesign::Eadr));
        assert!(!LangModel::Native.legal_on(HwDesign::IntelX86));
    }

    #[test]
    fn batched_models_are_exactly_sfr_and_atlas() {
        let batched: Vec<LangModel> = LangModel::ALL
            .into_iter()
            .filter(|l| l.batches_commits())
            .collect();
        assert_eq!(batched, vec![LangModel::Sfr, LangModel::Atlas]);
    }

    #[test]
    fn only_native_is_log_free_with_prefix_consistency() {
        for l in LangModel::ALL {
            if l == LangModel::Native {
                assert!(!l.uses_log());
                assert_eq!(l.consistency(), Consistency::DurablePrefix);
                assert_eq!(l.spec().region_entries, None);
            } else {
                assert!(l.uses_log());
                assert_eq!(l.consistency(), Consistency::ReplayCommitted);
                assert!(l.spec().region_entries.is_some());
            }
        }
    }

    #[test]
    fn sync_costs_rank_as_documented() {
        let cost = |l: LangModel| l.spec().sync_cost;
        assert!(cost(LangModel::Atlas) > cost(LangModel::Sfr));
        assert!(cost(LangModel::Sfr) > cost(LangModel::Txn));
        assert_eq!(
            cost(LangModel::Native),
            cost(LangModel::Txn),
            "Native keeps TXN's lock bookkeeping so the delta to TXN-on-eADR \
             is purely the log"
        );
    }

    #[test]
    fn commit_triggers_follow_the_row() {
        use LangModel::{Atlas, Native, Sfr, Txn};
        // (had_stores, live, threshold) → commits, per model.
        for (had_stores, live, want_txn, want_batched) in [
            (true, 0, true, false),
            (false, 0, false, false),
            (false, 8, false, true),
            (true, 9, true, true),
        ] {
            assert_eq!(Txn.commits_at_region_end(had_stores, live, 8), want_txn);
            for l in [Sfr, Atlas] {
                assert_eq!(l.commits_at_region_end(had_stores, live, 8), want_batched);
            }
            assert!(!Native.commits_at_region_end(had_stores, live, 8));
        }
    }
}
