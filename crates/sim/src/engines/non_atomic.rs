//! The paper's NON-ATOMIC upper bound: Intel hardware with the pairwise
//! log→update `SFENCE`s removed by the runtime. The engine is Intel's,
//! except the flush slots get the persist queue's capacity so the design
//! is limited by the device, not by MSHRs.

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;

use crate::config::SimConfig;
use crate::core::Core;
use crate::machine::Machine;
use crate::persist::FlushEngine;

use super::{Intel, PersistEngine};

/// The non-atomic engine.
#[derive(Debug)]
pub struct NonAtomic;

impl PersistEngine for NonAtomic {
    const DESIGN: HwDesign = HwDesign::NonAtomic;

    fn setup_core(core: &mut Core, cfg: &SimConfig) {
        core.flush = Some(FlushEngine::new(cfg.persist_queue_entries));
    }

    fn backend(m: &mut Machine, i: usize) {
        Intel::backend(m, i);
    }

    fn issue_clwb(m: &mut Machine, i: usize, line: LineAddr) -> bool {
        Intel::issue_clwb(m, i, line)
    }

    fn issue_fence(m: &mut Machine, i: usize, kind: FenceKind) -> bool {
        Intel::issue_fence(m, i, kind)
    }

    fn fence_condition_met(m: &Machine, i: usize, kind: FenceKind) -> bool {
        Intel::fence_condition_met(m, i, kind)
    }
}
