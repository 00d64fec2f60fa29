//! Full StrandWeaver: a persist queue in front of the strand buffer unit.
//!
//! CLWBs, persist barriers, and `NewStrand`s enter the 16-entry persist
//! queue at issue, keeping long-latency flushes out of the store queue;
//! the back-end moves them to the strand buffer unit in order, holding a
//! CLWB at the queue head until its elder same-line store retires (the
//! paper's deadlock-freedom argument). `JoinStrand` is the only
//! core-visible wait: it retires once stores and persists have drained.

use sw_model::isa::FenceKind;
use sw_model::HwDesign;
use sw_pmem::LineAddr;

use crate::config::SimConfig;
use crate::core::{Core, PqOp};
use crate::machine::Machine;
use crate::strand_buffer::Sbu;

use super::PersistEngine;

/// How many persist-queue entries may move to the strand buffer unit per
/// cycle.
const PQ_ISSUE_WIDTH: usize = 4;

/// The full StrandWeaver engine.
#[derive(Debug)]
pub struct StrandWeaver;

impl PersistEngine for StrandWeaver {
    const DESIGN: HwDesign = HwDesign::StrandWeaver;

    fn setup_core(core: &mut Core, cfg: &SimConfig) {
        core.sbu = Some(Sbu::new(cfg.strand_buffers, cfg.strand_buffer_entries));
    }

    fn backend(m: &mut Machine, i: usize) {
        m.backend_sbu(i);
        backend_pq(m, i);
    }

    fn issue_clwb(m: &mut Machine, i: usize, line: LineAddr) -> bool {
        if m.cores[i].pq.len() >= m.cfg.persist_queue_entries {
            m.stall_persist_full(i);
            return false;
        }
        m.cores[i].pq.push_back(PqOp::Clwb(line));
        m.note_pq(i, true);
        true
    }

    fn issue_fence(m: &mut Machine, i: usize, kind: FenceKind) -> bool {
        match kind {
            FenceKind::PersistBarrier | FenceKind::NewStrand => {
                if m.cores[i].pq.len() >= m.cfg.persist_queue_entries {
                    m.stall_persist_full(i);
                    return false;
                }
                let op = if kind == FenceKind::PersistBarrier {
                    PqOp::Pb
                } else {
                    PqOp::Ns
                };
                m.cores[i].pq.push_back(op);
                m.note_pq(i, true);
                true
            }
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

/// Moves persist-queue entries to the strand buffer unit in order.
fn backend_pq(m: &mut Machine, i: usize) {
    for _ in 0..PQ_ISSUE_WIDTH {
        let Some(&op) = m.cores[i].pq.front() else {
            break;
        };
        match op {
            PqOp::Clwb(line) => {
                let has_space = m.cores[i]
                    .sbu
                    .as_ref()
                    .expect("strandweaver has sbu")
                    .has_space();
                if !has_space || m.cores[i].sq_has_store_to(line) {
                    break;
                }
                m.cores[i].sbu.as_mut().expect("checked").push_clwb(line);
                m.note_sb_enqueue(i);
            }
            PqOp::Pb => {
                if !m.cores[i].sbu.as_ref().expect("checked").has_space() {
                    break;
                }
                m.cores[i].sbu.as_mut().expect("checked").push_pb();
                m.note_sb_enqueue(i);
            }
            PqOp::Ns => m.cores[i].sbu.as_mut().expect("checked").new_strand(),
        }
        m.cores[i].pq.pop_front();
        m.progress = true;
        m.note_pq(i, false);
    }
}
