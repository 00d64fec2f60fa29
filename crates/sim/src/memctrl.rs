//! Memory controllers: the ADR-protected PM controller with bounded write
//! and paced read queues, and a simple DRAM controller.
//!
//! The PM controller optionally hosts an online [`DeviceFaultUnit`]
//! (installed from `SimConfig::device_faults`): writes then become
//! fallible — the media can reject a line transiently (bounded
//! exponential-backoff retry), escalate it to a permanent error (retired
//! through a crash-consistent remap table), and reads can return
//! poisoned data. With no unit installed the fault layer costs one
//! `Option` discriminant check per write/read.

use sw_pmem::{
    DeviceFaultSchedule, DeviceFaultUnit, LineAddr, OnlineFaultStats, RemapTable, WriteDecision,
};

/// Outcome of offering a line write to the PM controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Accepted into the ADR domain — the durability point. The
    /// acknowledgement reaches the requester at `ack_at`.
    Accepted {
        /// Cycle the acknowledgement arrives.
        ack_at: u64,
        /// `Some(n)` when this acceptance closes a fault-retry episode of
        /// `n` failed attempts.
        retried: Option<u32>,
        /// `Some((spare, newly))` when the logical line is redirected to
        /// a spare; `newly` marks the write that created the mapping.
        remapped: Option<(LineAddr, bool)>,
    },
    /// Write queue full; back-pressure, caller retries.
    QueueFull,
    /// The media rejected the write (online device fault); a retry is
    /// admitted at `next_at` after exponential backoff.
    Faulted {
        /// Cycle at which the retry is admitted.
        next_at: u64,
        /// Failed attempts so far in this episode (1 on first failure).
        attempts: u32,
    },
    /// The line is mid-retry-backoff; not admitted before `until`.
    RetryWait {
        /// Cycle at which the next retry is admitted.
        until: u64,
    },
    /// The line needed retirement but the device's spare pool is empty:
    /// the device has failed and the caller must fail it over. Subsequent
    /// writes to the line surface as [`WriteOutcome::RetryWait`] parked at
    /// `u64::MAX`.
    RemapExhausted {
        /// The logical line the device can no longer serve.
        line: LineAddr,
    },
}

impl WriteOutcome {
    /// The acknowledgement cycle, if the write was accepted.
    #[inline]
    pub fn ack_at(self) -> Option<u64> {
        match self {
            WriteOutcome::Accepted { ack_at, .. } => Some(ack_at),
            _ => None,
        }
    }
}

/// Completion of a PM read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmRead {
    /// Cycle the data arrives.
    pub done_at: u64,
    /// `true` when the device returned poisoned data (uncorrectable
    /// error — surfaces as an MCE at the language layer).
    pub poisoned: bool,
}

/// The PM controller (Table I: 64-entry write queue, 32-entry read queue).
///
/// Writes are acknowledged `write_ack_cycles` after acceptance — the ADR
/// domain makes acceptance durable, which is when a CLWB *completes* in the
/// paper's terminology. Accepted writes drain to the media at a fixed rate;
/// a full write queue back-pressures the strand buffers and flush engines.
/// Reads are paced to model device bandwidth. Queued writes are
/// indistinguishable once accepted (acceptance *is* the durability point),
/// so the write queue is a plain occupancy counter — no per-entry storage,
/// no allocation.
#[derive(Debug, Clone)]
pub struct PmController {
    write_queued: usize,
    write_capacity: usize,
    write_ack_cycles: u64,
    drain_interval: u64,
    next_drain: u64,
    read_cycles: u64,
    read_interval: u64,
    read_free_at: u64,
    /// Lines in acceptance order — the order writes became durable (ADR).
    /// Used to validate the simulator against the formal persist order.
    /// Always records *logical* lines: a remap redirects the physical
    /// location, not the architectural identity of the persist.
    pub write_order: Vec<LineAddr>,
    /// Online device-fault unit; `None` keeps the fault layer to one
    /// discriminant check per access.
    faults: Option<Box<DeviceFaultUnit>>,
}

impl PmController {
    /// Creates a controller.
    pub fn new(
        write_capacity: usize,
        write_ack_cycles: u64,
        drain_interval: u64,
        read_cycles: u64,
        read_interval: u64,
    ) -> Self {
        Self {
            write_queued: 0,
            write_capacity,
            write_ack_cycles,
            drain_interval,
            next_drain: 0,
            read_cycles,
            read_interval,
            read_free_at: 0,
            // The order log grows for the whole run; start it big enough
            // that steady-state pushes rarely reallocate.
            write_order: Vec::with_capacity(1024),
            faults: None,
        }
    }

    /// Installs an online device-fault unit executing `schedule`. Every
    /// subsequent write/read consults it.
    pub fn install_faults(&mut self, schedule: DeviceFaultSchedule) {
        self.faults = Some(Box::new(DeviceFaultUnit::new(schedule)));
    }

    /// `true` while any line sits in a fault-retry episode.
    pub fn retry_pending(&self) -> bool {
        self.faults.as_ref().is_some_and(|u| u.retry_pending())
    }

    /// The earliest cycle after `cycle` at which a backed-off retry
    /// becomes admissible.
    pub fn next_retry_after(&self, cycle: u64) -> Option<u64> {
        self.faults.as_ref().and_then(|u| u.next_retry_after(cycle))
    }

    /// The cycle a retry of `line` is admitted at while the line sits in
    /// a retry episode.
    #[cfg(debug_assertions)]
    pub(crate) fn backoff_until(&self, line: LineAddr) -> Option<u64> {
        self.faults
            .as_ref()
            .and_then(|u| u.backoff_until(line.raw()))
    }

    /// The lowest line spare-pool exhaustion parked for good, if any.
    pub(crate) fn parked_line(&self) -> Option<u64> {
        self.faults.as_ref().and_then(|u| u.parked_line())
    }

    /// `true` when the write queue is at capacity.
    pub fn write_queue_full(&self) -> bool {
        self.write_queued >= self.write_capacity
    }

    /// Online-fault counters, when a unit is installed.
    pub fn online_stats(&self) -> Option<OnlineFaultStats> {
        self.faults.as_ref().map(|u| u.stats())
    }

    /// The remap/quarantine table, when a unit is installed.
    pub fn remap_table(&self) -> Option<&RemapTable> {
        self.faults.as_ref().map(|u| u.remap_table())
    }

    #[inline]
    fn accept(
        &mut self,
        line: LineAddr,
        cycle: u64,
        retried: Option<u32>,
        remapped: Option<(LineAddr, bool)>,
    ) -> WriteOutcome {
        self.write_queued += 1;
        self.write_order.push(line);
        WriteOutcome::Accepted {
            ack_at: cycle + self.write_ack_cycles,
            retried,
            remapped,
        }
    }

    /// Offers a line write at `cycle`.
    ///
    /// Queue-full back-pressure is checked before the fault unit, so a
    /// congested controller neither consumes fault triggers nor advances
    /// retry episodes. With no fault unit installed (or an empty
    /// schedule) the outcome is exactly the historical accept/queue-full
    /// behavior.
    pub fn try_write(&mut self, line: LineAddr, cycle: u64) -> WriteOutcome {
        if self.write_queued >= self.write_capacity {
            return WriteOutcome::QueueFull;
        }
        if self.faults.is_some() {
            return self.try_write_faulted(line, cycle);
        }
        self.accept(line, cycle, None, None)
    }

    fn try_write_faulted(&mut self, line: LineAddr, cycle: u64) -> WriteOutcome {
        let unit = self.faults.as_mut().expect("checked by caller");
        match unit.on_write(line.raw(), cycle) {
            WriteDecision::Proceed {
                retried, remapped, ..
            } => {
                // write_order keeps the logical line: the spare is a
                // device-internal location, not a new persist identity.
                let remapped = remapped.map(|(s, newly)| (LineAddr(s), newly));
                self.accept(line, cycle, retried, remapped)
            }
            WriteDecision::Backoff { until } => WriteOutcome::RetryWait { until },
            WriteDecision::Fail { next_at, attempts } => {
                WriteOutcome::Faulted { next_at, attempts }
            }
            WriteDecision::RemapExhausted { line } => WriteOutcome::RemapExhausted {
                line: LineAddr(line),
            },
        }
    }

    /// Serves a read of `line` issued at `cycle`.
    /// Reads are paced but never rejected (the 32-entry read queue is
    /// modelled as latency, not back-pressure — reads are far rarer than
    /// writes in these workloads).
    pub fn read(&mut self, line: LineAddr, cycle: u64) -> PmRead {
        let start = self.read_free_at.max(cycle);
        self.read_free_at = start + self.read_interval;
        let poisoned = match self.faults.as_mut() {
            Some(unit) => unit.on_read(line.raw(), cycle).poisoned,
            None => false,
        };
        PmRead {
            done_at: start + self.read_cycles,
            poisoned,
        }
    }

    /// Advances the controller to `cycle`: drains queued writes to the
    /// media at the configured rate. Returns the number of writes drained.
    pub fn tick(&mut self, cycle: u64) -> usize {
        let mut drained = 0;
        while self.write_queued > 0 && cycle >= self.next_drain {
            self.write_queued -= 1;
            drained += 1;
            self.next_drain = cycle + self.drain_interval;
        }
        drained
    }

    /// Number of writes waiting in the queue.
    pub fn write_queue_len(&self) -> usize {
        self.write_queued
    }

    /// The cycle the next queued write drains at, while the queue holds
    /// any. One already due drains on the next `tick`.
    pub fn next_drain(&self) -> Option<u64> {
        (self.write_queued > 0).then_some(self.next_drain)
    }
}

/// A DRAM controller: fixed latency with mild bandwidth pacing, no
/// persistence semantics.
#[derive(Debug, Clone)]
pub struct DramController {
    access_cycles: u64,
    interval: u64,
    free_at: u64,
}

impl DramController {
    /// Creates a controller with the given access latency.
    pub fn new(access_cycles: u64) -> Self {
        Self {
            access_cycles,
            interval: 4,
            free_at: 0,
        }
    }

    /// Serves an access issued at `cycle`; returns its completion cycle.
    pub fn access(&mut self, cycle: u64) -> u64 {
        let start = self.free_at.max(cycle);
        self.free_at = start + self.interval;
        start + self.access_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> PmController {
        PmController::new(2, 192, 250, 692, 16)
    }

    #[test]
    fn write_ack_latency() {
        let mut c = ctrl();
        assert_eq!(c.try_write(LineAddr(1), 100).ack_at(), Some(292));
    }

    #[test]
    fn write_queue_backpressure() {
        let mut c = ctrl();
        assert!(c.try_write(LineAddr(1), 0).ack_at().is_some());
        assert!(c.try_write(LineAddr(2), 0).ack_at().is_some());
        assert!(c.write_queue_full());
        assert_eq!(c.try_write(LineAddr(3), 0), WriteOutcome::QueueFull);
        c.tick(300); // one drain
        assert!(c.try_write(LineAddr(3), 300).ack_at().is_some());
    }

    #[test]
    fn drain_rate_is_paced() {
        let mut c = ctrl();
        c.try_write(LineAddr(1), 0);
        c.try_write(LineAddr(2), 0);
        c.tick(0);
        assert_eq!(c.write_queue_len(), 1, "one drain at cycle 0");
        c.tick(100);
        assert_eq!(c.write_queue_len(), 1, "next drain not due yet");
        c.tick(250);
        assert_eq!(c.write_queue_len(), 0);
    }

    #[test]
    fn reads_are_paced() {
        let mut c = ctrl();
        let r1 = c.read(LineAddr(1), 1000);
        let r2 = c.read(LineAddr(2), 1000);
        assert_eq!(r1.done_at, 1692);
        assert!(!r1.poisoned, "no fault unit, no poison");
        assert_eq!(r2.done_at, 1708, "second read starts one interval later");
    }

    #[test]
    fn empty_fault_schedule_is_behaviorally_invisible() {
        let mut plain = ctrl();
        let mut faulted = ctrl();
        faulted.install_faults(DeviceFaultSchedule::none());
        for k in 0..20u64 {
            let cycle = k * 7;
            assert_eq!(
                plain.try_write(LineAddr(k % 3), cycle),
                faulted.try_write(LineAddr(k % 3), cycle)
            );
            assert_eq!(
                plain.read(LineAddr(k), cycle),
                faulted.read(LineAddr(k), cycle)
            );
            plain.tick(cycle);
            faulted.tick(cycle);
        }
        assert_eq!(plain.write_order, faulted.write_order);
        assert!(faulted.online_stats().expect("unit installed").is_zero());
        assert!(plain.online_stats().is_none());
    }

    #[test]
    fn faulted_write_retries_and_is_not_queued() {
        use sw_pmem::{DeviceFault, DeviceFaultClass, FaultTrigger};
        let mut c = PmController::new(8, 192, 250, 692, 16);
        c.install_faults(DeviceFaultSchedule {
            faults: vec![DeviceFault {
                class: DeviceFaultClass::TransientWriteFail,
                trigger: FaultTrigger::NthWrite(1),
                sticky: false,
            }],
            ..DeviceFaultSchedule::none()
        });
        let next_at = match c.try_write(LineAddr(5), 0) {
            WriteOutcome::Faulted { next_at, attempts } => {
                assert_eq!(attempts, 1);
                next_at
            }
            other => panic!("expected Faulted, got {other:?}"),
        };
        assert_eq!(c.write_queue_len(), 0, "a rejected write occupies nothing");
        assert!(c.write_order.is_empty(), "not durable, not ordered");
        assert!(c.retry_pending());
        assert_eq!(c.next_retry_after(0), Some(next_at));
        assert_eq!(
            c.try_write(LineAddr(5), next_at - 1),
            WriteOutcome::RetryWait { until: next_at }
        );
        match c.try_write(LineAddr(5), next_at) {
            WriteOutcome::Accepted { retried, .. } => assert_eq!(retried, Some(1)),
            other => panic!("expected acceptance, got {other:?}"),
        }
        assert_eq!(c.write_order, vec![LineAddr(5)]);
        assert!(!c.retry_pending());
    }

    #[test]
    fn queue_full_checked_before_fault_unit() {
        use sw_pmem::{DeviceFault, DeviceFaultClass, FaultTrigger};
        let mut c = ctrl(); // capacity 2
        c.install_faults(DeviceFaultSchedule {
            faults: vec![DeviceFault {
                class: DeviceFaultClass::TransientWriteFail,
                trigger: FaultTrigger::NthWrite(3),
                sticky: false,
            }],
            ..DeviceFaultSchedule::none()
        });
        assert!(c.try_write(LineAddr(1), 0).ack_at().is_some());
        assert!(c.try_write(LineAddr(2), 0).ack_at().is_some());
        // Queue full: the 3rd offer must NOT consume the NthWrite(3)
        // trigger.
        assert_eq!(c.try_write(LineAddr(3), 0), WriteOutcome::QueueFull);
        c.tick(300);
        assert!(matches!(
            c.try_write(LineAddr(3), 300),
            WriteOutcome::Faulted { .. }
        ));
    }

    #[test]
    fn permanent_error_remaps_and_keeps_logical_order() {
        use sw_pmem::{DeviceFault, DeviceFaultClass, FaultTrigger};
        let mut c = PmController::new(8, 192, 250, 692, 16);
        c.install_faults(DeviceFaultSchedule {
            faults: vec![DeviceFault {
                class: DeviceFaultClass::PermanentMediaError,
                trigger: FaultTrigger::OnLine(9),
                sticky: true,
            }],
            ..DeviceFaultSchedule::none()
        });
        assert!(c.try_write(LineAddr(7), 0).ack_at().is_some());
        match c.try_write(LineAddr(9), 10) {
            WriteOutcome::Accepted {
                remapped: Some((spare, true)),
                ..
            } => assert_eq!(spare, LineAddr(1 << 40)),
            other => panic!("expected remapping acceptance, got {other:?}"),
        }
        assert_eq!(
            c.write_order,
            vec![LineAddr(7), LineAddr(9)],
            "order records logical lines"
        );
        let remap = c.remap_table().expect("unit installed");
        assert_eq!(remap.resolve(LineAddr(9)), LineAddr(1 << 40));
        assert_eq!(c.online_stats().expect("unit").lines_remapped, 1);
    }

    #[test]
    fn spare_exhaustion_surfaces_typed_outcome() {
        use sw_pmem::{DeviceFault, DeviceFaultClass, FaultTrigger};
        let mut c = PmController::new(8, 192, 250, 692, 16);
        c.install_faults(DeviceFaultSchedule {
            spare_count: 0,
            faults: vec![DeviceFault {
                class: DeviceFaultClass::PermanentMediaError,
                trigger: FaultTrigger::OnLine(9),
                sticky: true,
            }],
            ..DeviceFaultSchedule::none()
        });
        assert_eq!(
            c.try_write(LineAddr(9), 0),
            WriteOutcome::RemapExhausted { line: LineAddr(9) }
        );
        // The write never became durable and the line is parked forever.
        assert!(c.write_order.is_empty());
        assert_eq!(
            c.try_write(LineAddr(9), 1),
            WriteOutcome::RetryWait { until: u64::MAX }
        );
        assert_eq!(c.online_stats().expect("unit").spares_exhausted, 1);
    }

    #[test]
    fn dram_latency() {
        let mut d = DramController::new(100);
        assert_eq!(d.access(50), 150);
    }
}
