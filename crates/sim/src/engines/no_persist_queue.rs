//! StrandWeaver without the persist queue (the intermediate design of
//! Section VI-B): strand primitives flow through the store queue, so a
//! head-of-line CLWB blocks the stores behind it until the strand buffer
//! unit has space.

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;
use sw_trace::StallKind;

use crate::config::SimConfig;
use crate::core::{Core, SqOp};
use crate::machine::Machine;
use crate::strand_buffer::Sbu;

use super::PersistEngine;

/// The no-persist-queue engine.
#[derive(Debug)]
pub struct NoPersistQueue;

impl PersistEngine for NoPersistQueue {
    const DESIGN: HwDesign = HwDesign::NoPersistQueue;

    fn setup_core(core: &mut Core, cfg: &SimConfig) {
        core.sbu = Some(Sbu::new(cfg.strand_buffers, cfg.strand_buffer_entries));
    }

    fn backend(m: &mut Machine, i: usize) {
        m.backend_sbu(i);
    }

    fn issue_clwb(m: &mut Machine, i: usize, line: LineAddr) -> bool {
        if m.cores[i].sq.len() >= m.cfg.store_queue_entries {
            m.stall(i, StallKind::StoreQueueFull);
            return false;
        }
        m.cores[i].sq.push_back(SqOp::Clwb(line));
        true
    }

    fn issue_fence(m: &mut Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::PersistBarrier | FenceKind::NewStrand => {
                if m.cores[i].sq.len() >= m.cfg.store_queue_entries {
                    m.stall(i, StallKind::StoreQueueFull);
                    return false;
                }
                let op = if kind == FenceKind::PersistBarrier {
                    SqOp::Pb
                } else {
                    SqOp::Ns
                };
                m.cores[i].sq.push_back(op);
                true
            }
            FenceKind::JoinStrand => m.issue_completion_fence::<Self>(i, kind),
            _ => true,
        }
    }

    fn fence_condition_met(m: &Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::JoinStrand => m.cores[i].stores_drained() && m.cores[i].persists_drained(),
            _ => true,
        }
    }

    fn drain_sq_persist_op(m: &mut Machine, i: usize, op: SqOp) -> bool {
        match op {
            SqOp::Clwb(line) => {
                // Head-of-line CLWB blocks the stores behind it until the
                // strand buffer has space (and never overtakes an in-flight
                // same-line store).
                if m.cores[i]
                    .store_pending
                    .as_ref()
                    .is_some_and(|p| p.line == line)
                {
                    return false;
                }
                let sbu = m.cores[i].sbu.as_ref().expect("no-pq design has sbu");
                if !sbu.has_space() {
                    return false;
                }
                m.cores[i].sbu.as_mut().expect("checked").push_clwb(line);
                m.note_sb_enqueue(i);
                true
            }
            SqOp::Pb => {
                let sbu = m.cores[i].sbu.as_ref().expect("no-pq design has sbu");
                if !sbu.has_space() {
                    return false;
                }
                m.cores[i].sbu.as_mut().expect("checked").push_pb();
                m.note_sb_enqueue(i);
                true
            }
            SqOp::Ns => {
                m.cores[i]
                    .sbu
                    .as_mut()
                    .expect("no-pq design has sbu")
                    .new_strand();
                true
            }
            SqOp::Store(_) => unreachable!("stores drain in the machine core"),
        }
    }
}
