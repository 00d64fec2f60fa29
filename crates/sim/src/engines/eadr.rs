//! eADR: battery-backed caches inside the persistence domain.
//!
//! A store is durable the moment it becomes coherence-visible, so the
//! persist order *is* the visibility order (strict persistency —
//! `MemoryModel::Strict` in the formal model). The engine attaches no
//! persist structure: `CLWB` is architecturally a no-op accepted at issue,
//! ordering fences (`PersistBarrier`, `NewStrand`, `OFENCE`) vanish, and
//! completion fences (`SFENCE`, `JoinStrand`, `DFENCE`) degenerate to
//! store-queue drains. The machine core records the durability point at
//! store retirement, because the design's spec says it persists at
//! visibility ([`HwDesign::persists_at_visibility`]).

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;

use crate::config::SimConfig;
use crate::core::Core;
use crate::machine::Machine;

use super::PersistEngine;

/// The eADR engine.
#[derive(Debug)]
pub struct Eadr;

impl PersistEngine for Eadr {
    const DESIGN: HwDesign = HwDesign::Eadr;

    fn setup_core(_core: &mut Core, _cfg: &SimConfig) {
        // No persist structure: the caches themselves are persistent.
    }

    fn backend(_m: &mut Machine, _i: usize) {}

    fn issue_clwb(_m: &mut Machine, _i: usize, _line: LineAddr) -> bool {
        // A no-op: the line is already in the persistence domain.
        true
    }

    fn issue_fence(m: &mut Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            // Any completion fence degenerates to a store-queue drain.
            FenceKind::Sfence | FenceKind::JoinStrand | FenceKind::Dfence => {
                m.issue_completion_fence::<Self>(i, kind)
            }
            // Ordering fences are free: visibility order is persist order.
            FenceKind::PersistBarrier | FenceKind::NewStrand | FenceKind::Ofence => true,
        }
    }

    fn fence_condition_met(m: &Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::Sfence | FenceKind::JoinStrand | FenceKind::Dfence => {
                m.cores[i].stores_drained()
            }
            _ => true,
        }
    }
}
