//! HOPS: delegated epoch persistency. CLWBs and lightweight `ofence`
//! epoch markers enter a single persist buffer at issue (modelled as a
//! one-buffer strand buffer unit whose barrier entries are the `ofence`
//! markers); only the durable `dfence` stalls the core, until the buffer
//! drains.

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;

use crate::config::SimConfig;
use crate::core::{Core, PersistOp};
use crate::machine::Machine;
use crate::strand_buffer::Sbu;

use super::PersistEngine;

/// The HOPS engine.
#[derive(Debug)]
pub struct Hops;

impl PersistEngine for Hops {
    const DESIGN: HwDesign = HwDesign::Hops;

    fn setup_core(core: &mut Core, cfg: &SimConfig) {
        core.sbu = Some(Sbu::new(1, cfg.hops_buffer_entries));
    }

    fn backend(m: &mut Machine, i: usize) {
        m.backend_sbu(i);
    }

    fn issue_clwb(m: &mut Machine, i: usize, line: LineAddr) -> bool {
        // HOPS inserts into the persist buffer at issue; the elder
        // same-line store must have retired (checked here, before
        // insertion, to preserve deadlock freedom).
        if m.cores[i].sq_has_store_to(line) || !m.sbu_accept(i, PersistOp::Clwb(line)) {
            m.stall_persist_full(i);
            return false;
        }
        true
    }

    fn issue_fence(m: &mut Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::Ofence => {
                // Lightweight: an epoch marker in the persist buffer.
                if !m.sbu_accept(i, PersistOp::Pb) {
                    m.stall_persist_full(i);
                    return false;
                }
                true
            }
            FenceKind::Dfence => m.issue_completion_fence::<Self>(i, kind),
            _ => true,
        }
    }

    fn fence_condition_met(m: &Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            // dfence: the persist buffer must drain.
            FenceKind::Dfence => m.cores[i].sbu.as_ref().is_none_or(Sbu::is_empty),
            _ => true,
        }
    }
}
