//! The paper's NON-ATOMIC upper bound: Intel hardware with the pairwise
//! log→update `SFENCE`s removed by the runtime. The engine itself is
//! Intel's, except the flush slots get the persist queue's capacity so
//! the design is limited by the device, not by MSHRs.

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;
use sw_trace::StallKind;

use crate::config::SimConfig;
use crate::core::Core;
use crate::machine::SimMachine;
use crate::persist::FlushEngine;

use super::intel::{issue_clwb_to_flush_engine, sfence_condition_met};
use super::{EngineMeta, PersistEngine};

/// The non-atomic engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonAtomic;

impl EngineMeta for NonAtomic {
    fn design(&self) -> HwDesign {
        HwDesign::NonAtomic
    }

    fn stall_causes(&self) -> &'static [StallKind] {
        &StallKind::ALL
    }
}

impl PersistEngine for NonAtomic {
    fn setup_core(&self, core: &mut Core, cfg: &SimConfig) {
        // Buffers CLWBs without any ordering; give it the persist queue's
        // capacity so it is limited by the device, not by MSHRs.
        core.flush = Some(FlushEngine::new(cfg.persist_queue_entries));
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
