//! eADR: battery-backed caches inside the persistence domain.
//!
//! A store is durable the moment it becomes coherence-visible, so the
//! persist order *is* the visibility order (strict persistency —
//! `MemoryModel::Strict` in the formal model). The engine attaches no
//! persist structure: `CLWB` is architecturally a no-op accepted at issue,
//! ordering fences (`PersistBarrier`, `NewStrand`, `OFENCE`) vanish, and
//! completion fences (`SFENCE`, `JoinStrand`, `DFENCE`) degenerate to
//! store-queue drains. The machine core records the durability point at
//! store retirement ([`EngineMeta::persists_at_visibility`]).

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;
use sw_trace::StallKind;

use crate::config::SimConfig;
use crate::core::Core;
use crate::machine::SimMachine;

use super::{EngineMeta, PersistEngine};

/// The eADR engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Eadr;

impl EngineMeta for Eadr {
    fn design(&self) -> HwDesign {
        HwDesign::Eadr
    }

    fn stall_causes(&self) -> &'static [StallKind] {
        // No persist structure means no persist-queue back-pressure, ever.
        &[StallKind::Fence, StallKind::StoreQueueFull, StallKind::Lock]
    }
}

impl PersistEngine for Eadr {
    fn setup_core(&self, _core: &mut Core, _cfg: &SimConfig) {
        // No persist structure: the caches themselves are persistent.
    }

    fn backend(&self, _m: &mut SimMachine<Self>, _i: usize) {}

    fn issue_clwb(&self, _m: &mut SimMachine<Self>, _i: usize, _line: LineAddr) -> bool {
        // A no-op: the line is already in the persistence domain.
        true
    }

    fn issue_fence(&self, m: &mut SimMachine<Self>, i: usize, kind: FenceKind) -> bool {
        match kind {
            // Any completion fence degenerates to a store-queue drain.
            FenceKind::Sfence | FenceKind::JoinStrand | FenceKind::Dfence => {
                m.issue_completion_fence(i, kind)
            }
            // Ordering fences are free: visibility order is persist order.
            FenceKind::PersistBarrier | FenceKind::NewStrand | FenceKind::Ofence => true,
        }
    }

    fn fence_condition_met(&self, m: &SimMachine<Self>, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::Sfence | FenceKind::JoinStrand | FenceKind::Dfence => {
                m.cores[i].stores_drained()
            }
            _ => true,
        }
    }
}
