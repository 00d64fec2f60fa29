//! StrandWeaver, with and without its persist queue: CLWBs, persist
//! barriers and `NewStrand`s wait in a queue at issue and enter the strand
//! buffer unit in order from its head. `PERSIST_QUEUE` picks the queue.
//!
//! - Full StrandWeaver (`true`): they enter the 16-entry persist queue,
//!   keeping long-latency flushes out of the store queue; the back-end
//!   holds a CLWB at the queue head until its elder same-line store
//!   retires (the paper's deadlock-freedom argument).
//! - The intermediate design of Section VI-B (`false`): they flow through
//!   the store queue behind the stores, so a head-of-line CLWB blocks the
//!   stores behind it until the strand buffer unit has space.
//!
//! `JoinStrand` is the only core-visible wait: it retires once stores and
//! persists have drained.

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;
use sw_trace::StallKind;

use crate::config::SimConfig;
use crate::core::{Core, PersistOp, SqOp};
use crate::machine::Machine;
use crate::strand_buffer::Sbu;

use super::PersistEngine;

/// How many persist-queue entries may move to the strand buffer unit per
/// cycle.
const PQ_ISSUE_WIDTH: usize = 4;

/// The strand buffer unit's engine; `PERSIST_QUEUE` says where persist ops
/// wait for the unit.
#[derive(Debug)]
pub struct Strands<const PERSIST_QUEUE: bool>;

/// The full StrandWeaver engine.
pub type StrandWeaver = Strands<true>;

/// StrandWeaver without the persist queue.
pub type NoPersistQueue = Strands<false>;

impl<const PERSIST_QUEUE: bool> Strands<PERSIST_QUEUE> {
    /// Queues `op` where this design's persist ops wait, or records the
    /// stall and returns `false` if that queue is full.
    fn enqueue(m: &mut Machine, i: usize, op: PersistOp) -> bool {
        if PERSIST_QUEUE {
            if m.cores[i].pq.len() >= m.cfg.persist_queue_entries {
                m.stall_persist_full(i);
                return false;
            }
            m.cores[i].pq.push_back(op);
            m.note_pq(i, true);
        } else {
            if m.cores[i].sq.len() >= m.cfg.store_queue_entries {
                m.stall(i, StallKind::StoreQueueFull);
                return false;
            }
            m.cores[i].sq.push_back(SqOp::Persist(op));
        }
        true
    }
}

impl<const PERSIST_QUEUE: bool> PersistEngine for Strands<PERSIST_QUEUE> {
    const DESIGN: HwDesign = if PERSIST_QUEUE {
        HwDesign::StrandWeaver
    } else {
        HwDesign::NoPersistQueue
    };

    fn setup_core(core: &mut Core, cfg: &SimConfig) {
        core.sbu = Some(Sbu::new(cfg.strand_buffers, cfg.strand_buffer_entries));
    }

    fn backend(m: &mut Machine, i: usize) {
        m.backend_sbu(i);
        if PERSIST_QUEUE {
            backend_pq(m, i);
        }
    }

    fn issue_clwb(m: &mut Machine, i: usize, line: LineAddr) -> bool {
        Self::enqueue(m, i, PersistOp::Clwb(line))
    }

    fn issue_fence(m: &mut Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::PersistBarrier => Self::enqueue(m, i, PersistOp::Pb),
            FenceKind::NewStrand => Self::enqueue(m, i, PersistOp::Ns),
            FenceKind::JoinStrand => m.issue_completion_fence::<Self>(i, kind),
            // Fences of other designs are no-ops here (traces are lowered
            // per design, so this only happens in hand-written tests).
            _ => true,
        }
    }

    fn fence_condition_met(m: &Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            // JoinStrand: prior CLWBs and stores must complete.
            FenceKind::JoinStrand => m.cores[i].stores_drained() && m.cores[i].persists_drained(),
            _ => true,
        }
    }
}

/// Moves persist-queue entries to the strand buffer unit in order. A CLWB
/// at the head waits for its elder same-line stores to leave the store
/// queue; the unit's space is tested first, which spares the store-queue
/// walk while the unit is full.
fn backend_pq(m: &mut Machine, i: usize) {
    for _ in 0..PQ_ISSUE_WIDTH {
        let Some(&op) = m.cores[i].pq.front() else {
            break;
        };
        if let PersistOp::Clwb(line) = op {
            let sbu = m.cores[i].sbu.as_ref().expect("strandweaver has sbu");
            if !sbu.has_space() || m.cores[i].sq_has_store_to(line) {
                break;
            }
        }
        if !m.sbu_accept(i, op) {
            break;
        }
        m.cores[i].pq.pop_front();
        m.progress = true;
        m.note_pq(i, false);
    }
}
