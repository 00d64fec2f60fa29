//! The design-agnostic front-end: one issue slot per core per cycle,
//! fence resolution, and lock acquisition. Design-specific admission
//! (CLWBs, fences) is delegated to the machine's persist engine.

use sw_model::isa::{FenceKind, IsaOp, LockId};
use sw_pmem::Addr;
use sw_trace::{StallKind, TraceEvent};

use crate::core::{PendingAccess, SqOp};
use crate::engines::PersistEngine;
use crate::machine::{SimMachine, TickNote};

impl<E: PersistEngine> SimMachine<E> {
    /// `true` once the waiting condition of core `i`'s completion fence is
    /// met (delegates to the persist engine).
    pub(crate) fn fence_condition_met(&self, i: usize, kind: FenceKind) -> bool {
        self.engine.fence_condition_met(self, i, kind)
    }

    /// Executes a completion fence: if its drain condition is already met
    /// it retires immediately, otherwise it becomes the core's pending
    /// fence — subsequent stores, flushes, fences, and lock operations
    /// wait for the condition, while compute and loads continue.
    pub(crate) fn issue_completion_fence(&mut self, i: usize, kind: FenceKind) -> bool {
        if !self.fence_condition_met(i, kind) {
            self.cores[i].pending_fence = Some(kind);
        }
        true
    }

    pub(crate) fn frontend(&mut self, i: usize) {
        // Resolve a finished blocking load.
        if let Some(p) = self.cores[i].load_pending {
            match p.ready_at {
                Some(t) if t <= self.cycle => {
                    self.cores[i].load_pending = None;
                    self.progress = true;
                }
                _ => {
                    self.note_mem_busy_wait(i);
                    return;
                }
            }
        }
        // Resolve a completion fence whose condition is now met.
        if let Some(kind) = self.cores[i].pending_fence {
            if self.fence_condition_met(i, kind) {
                self.cores[i].pending_fence = None;
                self.progress = true;
                self.note_fence_retire(i, kind);
            }
        }
        if self.cycle < self.cores[i].busy_until {
            return;
        }
        let Some(&op) = self.cores[i].trace.get(self.cores[i].pc) else {
            return;
        };
        // A pending completion fence blocks memory-ordering instructions;
        // compute and loads flow past it (an OoO core keeps executing —
        // SFENCE and JoinStrand order stores and flushes, not ALU work).
        let ordered_class = matches!(
            op,
            IsaOp::Store(_) | IsaOp::Clwb(_) | IsaOp::Fence(_) | IsaOp::Lock(_) | IsaOp::Unlock(_)
        );
        if ordered_class && self.cores[i].pending_fence.is_some() {
            self.stall(i, StallKind::Fence);
            return;
        }
        match op {
            IsaOp::Compute(n) => {
                self.cores[i].busy_until = self.cycle + 1 + n as u64;
                self.advance(i);
            }
            IsaOp::Load(addr) => self.issue_load(i, addr),
            IsaOp::Store(addr) => {
                if self.cores[i].sq.len() >= self.cfg.store_queue_entries {
                    self.stall(i, StallKind::StoreQueueFull);
                    return;
                }
                self.cores[i].sq.push_back(SqOp::Store(addr.line()));
                self.cores[i].stats.stores += 1;
                if self.observing() {
                    self.emit(TraceEvent::StoreIssue {
                        core: i as u32,
                        line: addr.line().0,
                    });
                }
                self.advance(i);
            }
            IsaOp::Clwb(addr) => {
                let engine = self.engine;
                if !engine.issue_clwb(self, i, addr.line()) {
                    return;
                }
                self.cores[i].stats.clwbs += 1;
                if self.observing() {
                    self.emit(TraceEvent::ClwbIssue {
                        core: i as u32,
                        line: addr.line().0,
                    });
                }
                self.advance(i);
            }
            IsaOp::Fence(kind) => {
                let engine = self.engine;
                if !engine.issue_fence(self, i, kind) {
                    return;
                }
                self.cores[i].stats.fences += 1;
                // A completion fence that became pending retires later, when
                // its condition clears; everything else retires at issue.
                if self.cores[i].pending_fence.is_none() {
                    self.note_fence_retire(i, kind);
                }
                self.advance(i);
            }
            IsaOp::Lock(l) => {
                if !self.try_acquire(l, i) {
                    self.stall(i, StallKind::Lock);
                    self.park_if_idle(i);
                    return;
                }
                self.cores[i].busy_until = self.cycle + 1;
                self.advance(i);
            }
            IsaOp::Unlock(l) => {
                let st = self.lock_state(l);
                debug_assert_eq!(st.holder, Some(i), "unlock by non-holder");
                st.holder = None;
                if let Some(&w) = st.waiters.front() {
                    self.wake(w, i);
                }
                self.advance(i);
            }
        }
    }

    fn issue_load(&mut self, i: usize, addr: Addr) {
        let line = addr.line();
        self.cores[i].stats.loads += 1;
        if self.cores[i].sq_has_store_to(line) {
            // Store-to-load forwarding.
            self.cores[i].busy_until = self.cycle + 1;
        } else if self.cores[i].l1.access(line, false) {
            self.cores[i].busy_until = self.cycle + self.cfg.l1_hit_cycles;
            self.cores[i].stats.mem_busy += self.cfg.l1_hit_cycles;
        } else {
            let ready_at = self.start_fetch(i, line, false);
            self.cores[i].load_pending = Some(PendingAccess {
                line,
                write: false,
                ready_at,
            });
        }
        self.advance(i);
    }

    fn advance(&mut self, i: usize) {
        self.cores[i].pc += 1;
        self.cores[i].stats.ops += 1;
        self.progress = true;
    }

    /// Parks core `i`, which just stalled on a lock, if it is queued on
    /// it and its back-end is idle. Until the release that wakes it, its
    /// front-end would only fail the same acquire and its back-end has
    /// nothing to do, so no tick visits it: steals against its lines
    /// resolve without it, and it schedules nothing for skip-ahead.
    fn park_if_idle(&mut self, i: usize) {
        let core = &mut self.cores[i];
        if core.lock_queued && core.backend_idle() {
            core.parked_since = Some(self.cycle + 1);
        }
    }

    /// Wakes lock waiter `w`, first in line for the lock core `releaser`
    /// has just freed, if it is parked, and charges the lock stall cycles
    /// its skipped visits would have counted. A waiter above the releaser
    /// acquires later in this tick, so it stalled until the cycle before
    /// this one. One below it has had its turn this tick: it stalled this
    /// cycle too, and acquires next tick.
    fn wake(&mut self, w: usize, releaser: usize) {
        let Some(since) = self.cores[w].parked_since.take() else {
            return;
        };
        let until = if w > releaser {
            self.cycle
        } else {
            self.tick_note[w] = TickNote::Stalled(StallKind::Lock);
            self.cycle + 1
        };
        self.cores[w]
            .stats
            .record_stall_n(StallKind::Lock, until - since);
    }

    /// `true` when skipping parked core `i` this tick is exact: its
    /// back-end is idle, its next operation is `Lock(l)` with `i` queued
    /// on `l`, and it could not take `l` now (the lock has a holder, or
    /// `i` is not first in line). Checked where its front-end would run.
    pub(crate) fn park_holds(&self, i: usize) -> bool {
        let core = &self.cores[i];
        let Some(&IsaOp::Lock(l)) = core.trace.get(core.pc) else {
            return false;
        };
        let st = &self.locks[l.0 as usize];
        core.lock_queued
            && core.backend_idle()
            && core.load_pending.is_none()
            && core.pending_fence.is_none()
            && self.cycle >= core.busy_until
            && (st.holder.is_some() || st.waiters.front() != Some(&i))
    }

    /// Takes lock `l` for core `i` if it is free and `i` is first in
    /// line; otherwise queues `i` once (its `lock_queued` flag answers
    /// "already queued" without a walk over the waiter ring).
    fn try_acquire(&mut self, l: LockId, i: usize) -> bool {
        let queued = self.cores[i].lock_queued;
        let st = self.lock_state(l);
        debug_assert_eq!(queued, st.waiters.iter().any(|&w| w == i));
        let first_in_line = st.waiters.front().is_none_or(|&w| w == i);
        if st.holder.is_none() && first_in_line {
            if queued {
                st.waiters.pop_front();
            }
            st.holder = Some(i);
            self.cores[i].lock_queued = false;
            true
        } else {
            if st.holder != Some(i) && !queued {
                st.waiters.push_back(i);
                self.cores[i].lock_queued = true;
                self.progress = true;
            }
            false
        }
    }
}
