//! The per-design persist engines.
//!
//! Everything that makes one hardware design behave differently from
//! another — which structure buffers CLWBs, what a fence admits or waits
//! for, where persist ops wait, where the durability point sits — lives
//! behind the [`PersistEngine`] trait. The machine core (`machine.rs`) is
//! design-agnostic: it owns the pipeline, caches, coherence, and the cycle
//! loop, and calls into its engine at the four dispatch points
//! (`setup_core`, `backend`, `issue_clwb`, `issue_fence`) plus the
//! fence-condition hook.
//!
//! Engines are stateless unit types whose functions take the machine (all
//! per-core state lives in the core). [`crate::Machine::run`] matches its
//! design once and runs the cycle loop monomorphized over that design's
//! engine, so every per-cycle dispatch is a static, inlinable call.
//!
//! Four engines serve the six designs. A design that varies another by one
//! structural choice is a const parameter of that design's engine, so each
//! design still gets its own monomorphized cycle loop:
//!
//! - [`Strands`] attaches a strand buffer unit. `Strands<true>` is
//!   [`StrandWeaver`], whose persist ops wait in a persist queue;
//!   `Strands<false>` is [`NoPersistQueue`], whose persist ops wait in the
//!   store queue. `PERSIST_QUEUE` is the one switch between them.
//! - [`FlushSlots`] attaches Intel's unordered outstanding-flush slots.
//!   `FlushSlots<false>` is [`Intel`]; `FlushSlots<true>` is [`NonAtomic`],
//!   whose runtime drops the pairwise fences and whose slots take the
//!   persist queue's capacity.
//! - [`Hops`] attaches a one-buffer strand buffer unit as its persist
//!   buffer; [`Eadr`] attaches nothing.
//!
//! Every persist op of the three strand-buffer designs enters the unit
//! through one call, `Machine::sbu_accept`: StrandWeaver's persist-queue
//! drain, HOPS's CLWB and `ofence` issue, and the store-queue drain for
//! the design without a persist queue.
//!
//! Adding a design: write one `DesignSpec` row in `sw-model` (label,
//! formal memory model, runtime lowering), one arm in
//! [`crate::Machine::run`], whose exhaustive `match` reports a missing arm
//! at compile time, and either a new engine module here or, when the
//! design varies an existing one, a parameter of that engine. The litmus
//! matrix and sim/model agreement suites pick the new design up from
//! `HwDesign::ALL` automatically.

mod eadr;
mod hops;
mod intel;
mod strandweaver;

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;

use crate::config::SimConfig;
use crate::core::{Core, PersistOp};
use crate::machine::Machine;
use crate::persist::ClwbState;
use crate::strand_buffer::MAX_STRAND_BUFFERS;

pub use eadr::Eadr;
pub use hops::Hops;
pub use intel::{FlushSlots, Intel, NonAtomic};
pub use strandweaver::{NoPersistQueue, StrandWeaver, Strands};

/// The timing semantics of one hardware persistency design.
///
/// Engines are pure behaviour: unit types whose associated functions
/// receive the machine and a core index and manipulate that core's queues
/// and buffers. The cycle loop is generic over the engine, so the dispatch
/// points below are static calls.
pub trait PersistEngine {
    /// The design this engine implements. Its spec answers every
    /// design-indexed question, e.g. whether stores persist at coherence
    /// visibility ([`HwDesign::persists_at_visibility`]).
    const DESIGN: HwDesign;

    /// Attaches the design's persist structures (strand buffer unit, flush
    /// engine, ...) to a freshly built core.
    fn setup_core(core: &mut Core, cfg: &SimConfig);

    /// Runs the design's back-end structures for one cycle on core `i`
    /// (issue ready CLWBs, advance completions, retire). Called before the
    /// design-agnostic store-queue and write-back stages.
    fn backend(m: &mut Machine, i: usize);

    /// Attempts to admit a CLWB for `line` on core `i`; returns `false`
    /// (after recording the stall) if the design's structure is full.
    fn issue_clwb(m: &mut Machine, i: usize, line: LineAddr) -> bool;

    /// Attempts to execute a fence on core `i`; returns `false` (after
    /// recording the stall) while its admission condition is unmet. A
    /// *completion* fence that admits but has unmet drain conditions
    /// becomes the core's `pending_fence` (see
    /// `Machine::issue_completion_fence`).
    fn issue_fence(m: &mut Machine, i: usize, kind: FenceKind) -> bool;

    /// `true` once the waiting condition of a completion fence is met.
    /// Fence kinds the design does not treat as completion fences always
    /// report `true`.
    fn fence_condition_met(m: &Machine, i: usize, kind: FenceKind) -> bool;
}

// Back-end helpers shared by several engines. They live here (not in the
// machine core) because which structure a design drains is design policy;
// the mechanics are common.
impl Machine {
    /// Intel and non-atomic: issue waiting flush slots, retire completed
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

    /// The one entry into core `i`'s strand buffer unit: a `NewStrand`
    /// advances the ongoing buffer; a CLWB or persist barrier takes a slot
    /// in it and emits the `SbEnqueue`, or returns `false` while the
    /// ongoing buffer is full. A CLWB must have no elder same-line store
    /// left in the store queue; callers check that before they offer it,
    /// never inside the unit (the paper's deadlock-freedom argument).
    pub(crate) fn sbu_accept(&mut self, i: usize, op: PersistOp) -> bool {
        let sbu = self.cores[i]
            .sbu
            .as_mut()
            .expect("design has strand buffers");
        match op {
            PersistOp::Ns => {
                sbu.new_strand();
                return true;
            }
            _ if !sbu.has_space() => return false,
            PersistOp::Clwb(line) => sbu.push_clwb(line),
            PersistOp::Pb => sbu.push_pb(),
        }
        self.note_sb_enqueue(i);
        true
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
