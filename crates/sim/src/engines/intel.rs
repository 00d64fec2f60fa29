//! Intel's existing ISA: `CLWB` + `SFENCE` epochs. CLWBs occupy a small
//! set of outstanding-flush slots (bounded by D-cache MSHRs) with no
//! ordering among them; `SFENCE` stalls subsequent memory-ordering
//! instructions until the set is empty.
//!
//! The same engine runs the paper's NON-ATOMIC upper bound: Intel hardware
//! whose runtime drops the pairwise log→update `SFENCE`s. `NON_ATOMIC`
//! only sizes the slots: the bound gets the persist queue's capacity, so it
//! is limited by the device, not by MSHRs.

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;

use crate::config::SimConfig;
use crate::core::Core;
use crate::machine::Machine;
use crate::persist::FlushEngine;

use super::PersistEngine;

/// The outstanding-flush-slot engine; `NON_ATOMIC` picks the slot count.
#[derive(Debug)]
pub struct FlushSlots<const NON_ATOMIC: bool>;

/// The Intel x86 engine.
pub type Intel = FlushSlots<false>;

/// The non-atomic engine.
pub type NonAtomic = FlushSlots<true>;

impl<const NON_ATOMIC: bool> PersistEngine for FlushSlots<NON_ATOMIC> {
    const DESIGN: HwDesign = if NON_ATOMIC {
        HwDesign::NonAtomic
    } else {
        HwDesign::IntelX86
    };

    fn setup_core(core: &mut Core, cfg: &SimConfig) {
        let slots = if NON_ATOMIC {
            cfg.persist_queue_entries
        } else {
            cfg.intel_flush_slots
        };
        core.flush = Some(FlushEngine::new(slots));
    }

    fn backend(m: &mut Machine, i: usize) {
        m.backend_flush_engine(i);
    }

    /// Admits a CLWB into the outstanding-flush slots.
    fn issue_clwb(m: &mut Machine, i: usize, line: LineAddr) -> bool {
        if !m.cores[i].flush.as_ref().expect("flush engine").has_space() {
            m.stall_persist_full(i);
            return false;
        }
        m.cores[i].flush.as_mut().expect("checked").push(line);
        true
    }

    fn issue_fence(m: &mut Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::Sfence => m.issue_completion_fence::<Self>(i, kind),
            _ => true,
        }
    }

    /// SFENCE: prior CLWBs must complete.
    fn fence_condition_met(m: &Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::Sfence => m.cores[i].flush.as_ref().is_none_or(FlushEngine::is_empty),
            _ => true,
        }
    }
}
