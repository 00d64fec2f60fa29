//! The hardware persistency designs of the evaluation and the single-table
//! description (`DesignSpec`) each one is defined by.
//!
//! A design is described in exactly one place: its [`DesignSpec`] entry,
//! which names the formal [`MemoryModel`] it implements, the label the
//! benchmark tables print, and the [`DesignLowering`] the logging runtime
//! (`sw-lang`) and the simulator's trace builders both consume. The timing
//! behaviour lives in the matching `PersistEngine` module under
//! `sw-sim::engines`; adding a design means one spec entry here, one
//! engine module there, and one arm in `sw-sim`'s `Machine::run`.

use crate::isa::FenceKind;
use crate::pmo::MemoryModel;

/// A hardware persistency design from Section VI of the paper, plus the
/// battery-backed **eADR** design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwDesign {
    /// Intel's existing ISA: `CLWB` + `SFENCE` epochs. `SFENCE` stalls
    /// subsequent stores until prior flushes *complete*.
    IntelX86,
    /// HOPS: delegated epoch persistency with lightweight `ofence` and
    /// durable `dfence`.
    Hops,
    /// StrandWeaver without the persist queue: strand primitives flow
    /// through the store queue (intermediate design of Section VI-B).
    NoPersistQueue,
    /// Full StrandWeaver: persist queue + strand buffer unit.
    StrandWeaver,
    /// No ordering between logs and updates: the paper's non-recoverable
    /// performance upper bound.
    NonAtomic,
    /// eADR: battery-backed caches inside the persistence domain. Stores
    /// persist at coherence visibility, `CLWB` is architecturally a no-op,
    /// and fences only order the store queue.
    Eadr,
}

/// How the logging runtime lowers its ordering points onto one design's
/// ISA — the per-design fence vocabulary of Figure 5, shared by `sw-lang`
/// (runtime lowering) and `sw-sim` (trace construction in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignLowering {
    /// Fence between an undo-log append and its in-place update (the
    /// pairwise log→update ordering required for correct recovery).
    pub pairwise: Option<FenceKind>,
    /// Fence after the in-place update, separating one log/update pair
    /// from the next. StrandWeaver starts a fresh strand (Figure 5), which
    /// *removes* ordering; the epoch designs must fence, which *adds*
    /// ordering — this asymmetry is the paper's core claim.
    pub after_update: Option<FenceKind>,
    /// Fence that makes all prior persists durable before proceeding (used
    /// at region commit: before the commit marker, between invalidation and
    /// the head-pointer update, etc.).
    pub drain: Option<FenceKind>,
}

/// The complete single-table description of one design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignSpec {
    /// Short label used in benchmark tables and `swctl --design`.
    pub label: &'static str,
    /// The formal ordering model the design implements.
    pub memory_model: MemoryModel,
    /// The runtime fence lowering.
    pub lowering: DesignLowering,
}

impl HwDesign {
    /// All designs in the order the figures present them (the paper's five
    /// followed by the eADR extension).
    pub const ALL: [HwDesign; 6] = [
        HwDesign::IntelX86,
        HwDesign::Hops,
        HwDesign::NoPersistQueue,
        HwDesign::StrandWeaver,
        HwDesign::NonAtomic,
        HwDesign::Eadr,
    ];

    /// The one-place definition of this design. Every other accessor reads
    /// from here.
    pub const fn spec(self) -> &'static DesignSpec {
        match self {
            // SFENCE everywhere: pairwise, between pairs, and at drains.
            HwDesign::IntelX86 => &DesignSpec {
                label: "intel-x86",
                memory_model: MemoryModel::IntelX86,
                lowering: DesignLowering {
                    pairwise: Some(FenceKind::Sfence),
                    after_update: Some(FenceKind::Sfence),
                    drain: Some(FenceKind::Sfence),
                },
            },
            // Lightweight ofence epochs; dfence only where durability is
            // actually required.
            HwDesign::Hops => &DesignSpec {
                label: "hops",
                memory_model: MemoryModel::Hops,
                lowering: DesignLowering {
                    pairwise: Some(FenceKind::Ofence),
                    after_update: Some(FenceKind::Ofence),
                    drain: Some(FenceKind::Dfence),
                },
            },
            // Same *order* as StrandWeaver — it differs only in timing
            // (head-of-line blocking in the store queue).
            HwDesign::NoPersistQueue => &DesignSpec {
                label: "no-persist-queue",
                memory_model: MemoryModel::StrandWeaver,
                lowering: DesignLowering {
                    pairwise: Some(FenceKind::PersistBarrier),
                    after_update: Some(FenceKind::NewStrand),
                    drain: Some(FenceKind::JoinStrand),
                },
            },
            HwDesign::StrandWeaver => &DesignSpec {
                label: "strandweaver",
                memory_model: MemoryModel::StrandWeaver,
                lowering: DesignLowering {
                    pairwise: Some(FenceKind::PersistBarrier),
                    after_update: Some(FenceKind::NewStrand),
                    drain: Some(FenceKind::JoinStrand),
                },
            },
            // The paper's NON-ATOMIC design removes only the pairwise
            // SFENCE between log creation and in-place update ("we remove
            // the SFENCE between the log entry creation and in-place
            // update"); it is Intel hardware otherwise, so region and
            // commit drains remain SFENCEs.
            HwDesign::NonAtomic => &DesignSpec {
                label: "non-atomic",
                memory_model: MemoryModel::NonAtomic,
                lowering: DesignLowering {
                    pairwise: None,
                    after_update: None,
                    drain: Some(FenceKind::Sfence),
                },
            },
            // Battery-backed caches: a store is durable the moment it is
            // visible, so persist order *is* visibility order (strict
            // persistency) and the runtime needs no ordering fences at all.
            HwDesign::Eadr => &DesignSpec {
                label: "eadr",
                memory_model: MemoryModel::Strict,
                lowering: DesignLowering {
                    pairwise: None,
                    after_update: None,
                    drain: None,
                },
            },
        }
    }

    /// The formal ordering model the design implements.
    pub fn memory_model(self) -> MemoryModel {
        self.spec().memory_model
    }

    /// The runtime fence lowering (see [`DesignLowering`]).
    pub fn lowering(self) -> DesignLowering {
        self.spec().lowering
    }

    /// Fence emitted between an undo-log append and its in-place update.
    pub fn pairwise_fence(self) -> Option<FenceKind> {
        self.spec().lowering.pairwise
    }

    /// Fence emitted after the in-place update, separating one log/update
    /// pair from the next.
    pub fn after_update_fence(self) -> Option<FenceKind> {
        self.spec().lowering.after_update
    }

    /// Fence that makes all prior persists durable before proceeding.
    pub fn drain_fence(self) -> Option<FenceKind> {
        self.spec().lowering.drain
    }

    /// Short label used in benchmark tables.
    pub fn label(self) -> &'static str {
        self.spec().label
    }

    /// `true` for eADR-class designs: every store is durable the moment it
    /// becomes visible, so the runtime lowering needs no ordering or drain
    /// fences at all. Derived from the spec so a future battery-backed
    /// design is classified by what it guarantees, not by name. Log-free
    /// language models (`sw-lang`'s `Native`) are legal only on these
    /// designs. A `const fn`, so the simulator's per-store check folds to a
    /// constant per engine.
    #[inline]
    pub const fn persists_at_visibility(self) -> bool {
        let low = self.spec().lowering;
        low.pairwise.is_none() && low.after_update.is_none() && low.drain.is_none()
    }

    /// `true` when logged runtimes can recover crash states of this
    /// design: the design either enforces the pairwise log→update
    /// ordering recovery relies on, or persists stores at visibility
    /// (where the ordering holds for free). Only the deliberately broken
    /// `NonAtomic` upper bound fails this — crash-consistency matrices
    /// iterate `HwDesign::ALL` filtered by this predicate instead of
    /// hand-listing designs.
    pub fn recoverable(self) -> bool {
        self.spec().lowering.pairwise.is_some() || self.persists_at_visibility()
    }

    /// Looks a design up by its [`label`](HwDesign::label).
    pub fn from_label(s: &str) -> Option<HwDesign> {
        HwDesign::ALL.into_iter().find(|d| d.label() == s)
    }
}

impl std::fmt::Display for HwDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_models() {
        assert_eq!(HwDesign::IntelX86.memory_model(), MemoryModel::IntelX86);
        assert_eq!(HwDesign::Hops.memory_model(), MemoryModel::Hops);
        assert_eq!(
            HwDesign::StrandWeaver.memory_model(),
            MemoryModel::StrandWeaver
        );
        assert_eq!(
            HwDesign::NoPersistQueue.memory_model(),
            MemoryModel::StrandWeaver
        );
        assert_eq!(HwDesign::NonAtomic.memory_model(), MemoryModel::NonAtomic);
        assert_eq!(HwDesign::Eadr.memory_model(), MemoryModel::Strict);
    }

    #[test]
    fn non_atomic_drops_only_pairwise_ordering() {
        let d = HwDesign::NonAtomic;
        assert_eq!(d.pairwise_fence(), None);
        assert_eq!(d.after_update_fence(), None);
        assert_eq!(
            d.drain_fence(),
            Some(FenceKind::Sfence),
            "commit drains remain"
        );
    }

    #[test]
    fn strandweaver_lowering_matches_figure5() {
        let d = HwDesign::StrandWeaver;
        assert_eq!(d.pairwise_fence(), Some(FenceKind::PersistBarrier));
        assert_eq!(d.after_update_fence(), Some(FenceKind::NewStrand));
        assert_eq!(d.drain_fence(), Some(FenceKind::JoinStrand));
    }

    #[test]
    fn intel_uses_sfence_everywhere() {
        let d = HwDesign::IntelX86;
        assert_eq!(d.pairwise_fence(), Some(FenceKind::Sfence));
        assert_eq!(d.after_update_fence(), Some(FenceKind::Sfence));
        assert_eq!(d.drain_fence(), Some(FenceKind::Sfence));
    }

    #[test]
    fn hops_distinguishes_ordering_from_durability() {
        let d = HwDesign::Hops;
        assert_eq!(d.pairwise_fence(), Some(FenceKind::Ofence));
        assert_eq!(d.drain_fence(), Some(FenceKind::Dfence));
    }

    #[test]
    fn eadr_needs_no_fences_at_all() {
        let low = HwDesign::Eadr.lowering();
        assert_eq!(low.pairwise, None);
        assert_eq!(low.after_update, None);
        assert_eq!(low.drain, None, "durability is free at visibility");
    }

    #[test]
    fn only_eadr_persists_at_visibility() {
        for d in HwDesign::ALL {
            assert_eq!(d.persists_at_visibility(), d == HwDesign::Eadr, "{d}");
        }
    }

    #[test]
    fn only_non_atomic_is_unrecoverable() {
        for d in HwDesign::ALL {
            assert_eq!(d.recoverable(), d != HwDesign::NonAtomic, "{d}");
        }
    }

    #[test]
    fn labels_are_distinct_and_resolvable() {
        let labels: std::collections::HashSet<_> =
            HwDesign::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(labels.len(), HwDesign::ALL.len());
        for d in HwDesign::ALL {
            assert_eq!(HwDesign::from_label(d.label()), Some(d));
        }
        assert_eq!(HwDesign::from_label("gem5"), None);
    }

    #[test]
    fn accessors_read_from_the_spec_table() {
        for d in HwDesign::ALL {
            let spec = d.spec();
            assert_eq!(d.label(), spec.label);
            assert_eq!(d.memory_model(), spec.memory_model);
            assert_eq!(d.lowering(), spec.lowering);
        }
    }
}
