//! The per-design persist engines.
//!
//! Everything that makes one hardware design behave differently from
//! another — which structure buffers CLWBs, what a fence admits or waits
//! for, how store-queue persist ops drain, where the durability point sits
//! — lives behind the [`PersistEngine`] trait, one module per design. The
//! machine core (`machine.rs`) is design-agnostic: it owns the
//! pipeline, caches, coherence, and the DES loop, and calls into its
//! engine at the four dispatch points (`setup_core`, `backend`,
//! `issue_clwb`, `issue_fence`) plus the fence-condition and store-queue
//! drain hooks.
//!
//! Engines are stateless `Copy` unit structs (all per-core state lives in
//! the core). [`crate::SimMachine`] holds its engine *by value*, so every
//! per-cycle dispatch is a static, inlinable call; the design-indexed
//! metadata queries that don't need monomorphization (`design`,
//! `stall_causes`, `persists_at_visibility`) sit on the object-safe
//! [`EngineMeta`] supertrait, reachable through [`engine_for`].
//!
//! Adding a design: write one `DesignSpec` entry in `sw-model` (label,
//! formal memory model, runtime lowering), one engine module here, and
//! register it in [`engine_for`] plus the [`crate::Machine`] facade. The
//! litmus matrix and sim/model agreement suites pick the new design up
//! from `HwDesign::ALL` automatically.

mod eadr;
mod hops;
mod intel;
mod no_persist_queue;
mod non_atomic;
mod strandweaver;

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;
use sw_trace::StallKind;

use crate::config::SimConfig;
use crate::core::{Core, SqOp};
use crate::machine::SimMachine;
use crate::persist::ClwbState;
use crate::strand_buffer::MAX_STRAND_BUFFERS;

pub use eadr::Eadr;
pub use hops::Hops;
pub use intel::Intel;
pub use no_persist_queue::NoPersistQueue;
pub use non_atomic::NonAtomic;
pub use strandweaver::StrandWeaver;

/// Design-indexed engine metadata. Object-safe so callers that only need
/// to *describe* a design (reports, tests, stat validation) can hold a
/// `&'static dyn EngineMeta` from [`engine_for`] without monomorphizing.
pub trait EngineMeta: std::fmt::Debug + Sync {
    /// The design this engine implements.
    fn design(&self) -> HwDesign;

    /// `true` when stores persist at coherence visibility (battery-backed
    /// caches): the machine then records the persist order at store
    /// retirement instead of at PM-controller acceptance. Read from the
    /// design's spec, so no engine restates it.
    fn persists_at_visibility(&self) -> bool {
        self.design().persists_at_visibility()
    }

    /// The stall causes this design can actually produce. Causes outside
    /// this set stay zero in [`crate::CoreStats`] and in the metrics
    /// registry (which registers a counter per cause regardless, so
    /// snapshots always carry explicit zeros).
    fn stall_causes(&self) -> &'static [StallKind];
}

/// The timing semantics of one hardware persistency design.
///
/// Engines are pure behaviour: zero-sized `Copy` values held directly by
/// [`SimMachine`], so the per-cycle dispatch points below are static
/// calls. Every method receives the machine and a core index and
/// manipulates that core's queues and buffers.
pub trait PersistEngine: EngineMeta + Copy + Default + Send + 'static {
    /// Attaches the design's persist structures (strand buffer unit, flush
    /// engine, ...) to a freshly built core.
    fn setup_core(&self, core: &mut Core, cfg: &SimConfig);

    /// Runs the design's back-end structures for one cycle on core `i`
    /// (issue ready CLWBs, advance completions, retire). Called before the
    /// design-agnostic store-queue and write-back stages.
    fn backend(&self, m: &mut SimMachine<Self>, i: usize);

    /// Attempts to admit a CLWB for `line` on core `i`; returns `false`
    /// (after recording the stall) if the design's structure is full.
    fn issue_clwb(&self, m: &mut SimMachine<Self>, i: usize, line: LineAddr) -> bool;

    /// Attempts to execute a fence on core `i`; returns `false` (after
    /// recording the stall) while its admission condition is unmet. A
    /// *completion* fence that admits but has unmet drain conditions
    /// becomes the core's `pending_fence` (see
    /// `SimMachine::issue_completion_fence`).
    fn issue_fence(&self, m: &mut SimMachine<Self>, i: usize, kind: FenceKind) -> bool;

    /// `true` once the waiting condition of a completion fence is met.
    /// Fence kinds the design does not treat as completion fences always
    /// report `true`.
    fn fence_condition_met(&self, m: &SimMachine<Self>, i: usize, kind: FenceKind) -> bool;

    /// Drains one non-store persist op (`Clwb`/`Pb`/`Ns`) from the head of
    /// core `i`'s store queue. Returns `true` if the op was consumed (the
    /// machine pops it), `false` to stop draining this cycle. Only designs
    /// that route persist ops through the store queue see these entries;
    /// the default consumes them as no-ops.
    fn drain_sq_persist_op(&self, m: &mut SimMachine<Self>, i: usize, op: SqOp) -> bool {
        let _ = (m, i, op);
        true
    }
}

/// The metadata of the engine implementing `design`.
pub fn engine_for(design: HwDesign) -> &'static dyn EngineMeta {
    match design {
        HwDesign::IntelX86 => &Intel,
        HwDesign::Hops => &Hops,
        HwDesign::NoPersistQueue => &NoPersistQueue,
        HwDesign::StrandWeaver => &StrandWeaver,
        HwDesign::NonAtomic => &NonAtomic,
        HwDesign::Eadr => &Eadr,
    }
}

/// Every registered engine's metadata, in [`HwDesign::ALL`] order.
pub fn all_engines() -> impl Iterator<Item = &'static dyn EngineMeta> {
    HwDesign::ALL.into_iter().map(engine_for)
}

// Back-end helpers shared by several engines. They live here (not in the
// machine core) because which structure a design drains is design policy;
// the mechanics are common.
impl<E: PersistEngine> SimMachine<E> {
    /// Intel / non-atomic: issue waiting flush slots, retire completed
    /// ones. Slots wait for elder same-line stores to retire first.
    pub(crate) fn backend_flush_engine(&mut self, i: usize) {
        let Some(flush) = self.cores[i].flush.as_ref() else {
            return;
        };
        if flush.waiting() > 0 {
            for s in 0..flush.len() {
                let slot = self.cores[i].flush.as_ref().expect("checked").slots()[s];
                if slot.state != ClwbState::Waiting || self.cores[i].sq_has_store_to(slot.line) {
                    continue;
                }
                if let Some(done_at) = self.flush_access(i, slot.line) {
                    let flush = self.cores[i].flush.as_mut().expect("checked");
                    flush.mark_pending(s, done_at);
                    self.progress = true;
                }
            }
        }
        let cycle = self.cycle;
        let flush = self.cores[i].flush.as_mut().expect("checked");
        if flush.tick_retire(cycle) > 0 {
            self.progress = true;
        }
    }

    /// Strand buffers (StrandWeaver, no-persist-queue, HOPS): issue the
    /// ready CLWBs, advance completions, retire in order. The unit stays
    /// in the core: the issue walk re-reads it through
    /// [`crate::Sbu::next_issuable`] around each `flush_access`, which
    /// borrows the whole machine.
    pub(crate) fn backend_sbu(&mut self, i: usize) {
        let (mut b, mut k) = (0, 0);
        loop {
            let sbu = self.cores[i]
                .sbu
                .as_ref()
                .expect("design has strand buffers");
            let Some((eb, ek, line)) = sbu.next_issuable(b, k) else {
                break;
            };
            // Note: no store-queue gate here — that check happened
            // before insertion, preserving the paper's deadlock-freedom
            // argument.
            if let Some(done_at) = self.flush_access(i, line) {
                let sbu = self.cores[i].sbu.as_mut().expect("checked");
                sbu.mark_pending(eb, ek, done_at);
                self.progress = true;
            }
            (b, k) = (eb, ek + 1);
        }
        let cycle = self.cycle;
        let sbu = self.cores[i].sbu.as_mut().expect("checked");
        let out = sbu.tick_retire(cycle);
        if !out.changed() {
            return;
        }
        self.progress = true;
        for b in 0..MAX_STRAND_BUFFERS {
            if out.retired_mask & (1 << b) != 0 {
                self.note_sb_retired(i, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_has_an_engine() {
        for d in HwDesign::ALL {
            assert_eq!(engine_for(d).design(), d);
        }
        assert_eq!(all_engines().count(), HwDesign::ALL.len());
    }

    #[test]
    fn stall_causes_are_subsets_of_all() {
        for e in all_engines() {
            for c in e.stall_causes() {
                assert!(StallKind::ALL.contains(c));
            }
            // Every design can at least stall on fences, full store
            // queues, and contended locks (the design-agnostic frontend
            // produces those).
            for c in [StallKind::Fence, StallKind::StoreQueueFull, StallKind::Lock] {
                assert!(
                    e.stall_causes().contains(&c),
                    "{:?} missing {c:?}",
                    e.design()
                );
            }
        }
    }

    #[test]
    fn only_eadr_persists_at_visibility() {
        for e in all_engines() {
            assert_eq!(
                e.persists_at_visibility(),
                e.design() == HwDesign::Eadr,
                "{:?}",
                e.design()
            );
        }
    }
}
