//! The design-agnostic back-end tail: store-queue retirement, the CLWB
//! flush action, and the write-back buffer. Only the store-queue drain is
//! generic over the persist engine: a store retiring on a design that
//! persists at visibility records its durability point. StrandWeaver
//! without its persist queue routes its persist ops through the store
//! queue; they leave its head for the strand buffer unit through
//! [`Machine::sbu_accept`], the unit's one entry.

use sw_pmem::LineAddr;

use crate::core::{PendingAccess, SqOp};
use crate::engines::PersistEngine;
use crate::machine::Machine;

/// How many store-queue bookkeeping entries (CLWB/PB/NS) may drain per
/// cycle in designs that route persist ops through the store queue.
const SQ_DRAIN_WIDTH: usize = 4;

impl Machine {
    /// Performs the flush action of a CLWB for `line` on core `i`: L1
    /// lookup; dirty lines go to the PM controller, others complete after
    /// the lookup. Returns the completion cycle, or `None` on controller
    /// back-pressure (queue full, or a device fault holding the line in
    /// retry — either way the persist stays where it is and is re-offered
    /// later, so a fault can delay a persist but never reorder it past
    /// its ordering predecessors).
    pub(crate) fn flush_access(&mut self, i: usize, line: LineAddr) -> Option<u64> {
        let lookup_done = self.cycle + self.cfg.l1_hit_cycles;
        if self.cores[i].l1.is_dirty(line) && self.is_persistent_line(line) {
            let outcome = self.pm.try_write(line, lookup_done);
            let ack = self.note_pm_outcome(line, outcome)?;
            self.cores[i].l1.mark_clean(line);
            self.dir.clear_dirty_owner(line);
            Some(ack)
        } else {
            // Clean, absent, or volatile: nothing to persist.
            self.cores[i].l1.mark_clean(line);
            Some(lookup_done)
        }
    }

    /// Store queue: complete the in-flight head, start the next entry.
    pub(crate) fn backend_sq<E: PersistEngine>(&mut self, i: usize) {
        if let Some(p) = self.cores[i].store_pending {
            match p.ready_at {
                Some(t) if t <= self.cycle => {
                    self.cores[i].store_pending = None;
                    self.progress = true;
                    // Battery-backed designs: the store is durable the
                    // moment it retires (coherence visibility).
                    if E::DESIGN.persists_at_visibility() && self.is_persistent_line(p.line) {
                        self.visibility_order.push(p.line);
                        self.note_persist_visible(i, p.line);
                    }
                }
                _ => return, // still retiring (or waiting on a steal)
            }
        }
        for _ in 0..SQ_DRAIN_WIDTH {
            let Some(&op) = self.cores[i].sq.front() else {
                break;
            };
            match op {
                SqOp::Store(line) => {
                    self.cores[i].sq.pop_front();
                    self.progress = true;
                    if self.cores[i].l1.access(line, true) {
                        if self.is_persistent_line(line) {
                            self.dir.set_dirty_owner(line, i);
                        }
                        // Pipelined hit: one store per cycle.
                        self.cores[i].store_pending = Some(PendingAccess {
                            line,
                            write: true,
                            ready_at: Some(self.cycle + 1),
                        });
                    } else {
                        let ready_at = self.start_fetch(i, line, true);
                        self.cores[i].store_pending = Some(PendingAccess {
                            line,
                            write: true,
                            ready_at,
                        });
                    }
                    break; // one store in flight at a time
                }
                // No elder store can hold a CLWB here: the stores ahead of
                // it have left the queue and retired.
                SqOp::Persist(op) => {
                    if !self.sbu_accept(i, op) {
                        break;
                    }
                    self.cores[i].sq.pop_front();
                    self.progress = true;
                }
            }
        }
    }

    /// Write-back buffer: entries drain to the PM controller once the
    /// strand buffers have drained past the recorded tail indexes.
    pub(crate) fn backend_wb(&mut self, i: usize) {
        let mut k = 0;
        while k < self.cores[i].wb.len() {
            let ready = match (&self.cores[i].wb[k].targets, self.cores[i].sbu.as_ref()) {
                (Some(t), Some(sbu)) => sbu.drained_past(t),
                _ => true,
            };
            if !ready {
                k += 1;
                continue;
            }
            let line = self.cores[i].wb[k].line;
            if self.is_persistent_line(line) {
                let outcome = self.pm.try_write(line, self.cycle);
                if self.note_pm_outcome(line, outcome).is_none() {
                    k += 1;
                    continue; // back-pressure or device fault; retry
                }
            }
            self.cores[i].wb.swap_remove(k);
            self.progress = true;
        }
    }
}
