//! Intel's existing ISA: `CLWB` + `SFENCE` epochs. CLWBs occupy a small
//! set of outstanding-flush slots (bounded by D-cache MSHRs) with no
//! ordering among them; `SFENCE` stalls subsequent memory-ordering
//! instructions until the set is empty.

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;
use sw_trace::StallKind;

use crate::config::SimConfig;
use crate::core::Core;
use crate::machine::SimMachine;
use crate::persist::FlushEngine;

use super::{EngineMeta, PersistEngine};

/// The Intel x86 engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Intel;

impl EngineMeta for Intel {
    fn design(&self) -> HwDesign {
        HwDesign::IntelX86
    }

    fn stall_causes(&self) -> &'static [StallKind] {
        &StallKind::ALL
    }
}

impl PersistEngine for Intel {
    fn setup_core(&self, core: &mut Core, cfg: &SimConfig) {
        core.flush = Some(FlushEngine::new(cfg.intel_flush_slots));
    }

    fn backend(&self, m: &mut SimMachine<Self>, i: usize) {
        m.backend_flush_engine(i);
    }

    fn issue_clwb(&self, m: &mut SimMachine<Self>, i: usize, line: LineAddr) -> bool {
        issue_clwb_to_flush_engine(m, i, line)
    }

    fn issue_fence(&self, m: &mut SimMachine<Self>, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::Sfence => m.issue_completion_fence(i, kind),
            _ => true,
        }
    }

    fn fence_condition_met(&self, m: &SimMachine<Self>, i: usize, kind: FenceKind) -> bool {
        sfence_condition_met(m, i, kind)
    }
}

/// Shared with the non-atomic engine (same hardware, different lowering):
/// admit a CLWB into the outstanding-flush slots.
pub(super) fn issue_clwb_to_flush_engine<E: PersistEngine>(
    m: &mut SimMachine<E>,
    i: usize,
    line: LineAddr,
) -> bool {
    if !m.cores[i].flush.as_ref().expect("flush engine").has_space() {
        m.stall_persist_full(i);
        return false;
    }
    m.cores[i].flush.as_mut().expect("checked").push(line);
    true
}

/// SFENCE: prior CLWBs must complete.
pub(super) fn sfence_condition_met<E: PersistEngine>(
    m: &SimMachine<E>,
    i: usize,
    kind: FenceKind,
) -> bool {
    match kind {
        FenceKind::Sfence => m.cores[i].flush.as_ref().is_none_or(FlushEngine::is_empty),
        _ => true,
    }
}
