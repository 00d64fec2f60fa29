//! Online device-fault model: faults that fire *while the machine runs*.
//!
//! The crash-image fault injector of `sw-faults` perturbs memory after
//! the fact; this module models the device behaviors that cause such
//! damage in the first place:
//!
//! * [`DeviceFaultClass::TransientWriteFail`] — a write the media rejects
//!   once; the controller backs off and the retry succeeds.
//! * [`DeviceFaultClass::PermanentMediaError`] — a worn-out line; every
//!   write fails until the controller retires the line and redirects it
//!   to a spare through a crash-consistent [`RemapTable`].
//! * [`DeviceFaultClass::ReadPoison`] — an uncorrectable read: the data
//!   comes back poisoned and must surface as an MCE-style runtime error.
//!
//! [`DeviceFaultSchedule`] is the deterministic, seeded description of
//! *what* fires and *when* (write/read ordinals, cycles, or specific
//! lines); [`DeviceFaultUnit`] is the runtime state machine the PM
//! controller consults on every write and read. Retry pacing uses bounded
//! exponential backoff, and a per-line failure-count threshold escalates
//! transient faults to permanent ones (the classic wear-out path), so a
//! sticky transient fault always converges to a remap instead of wedging
//! the write queue.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{FastMap, LineAddr, RemapTable};

/// A class of online device fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceFaultClass {
    /// A write the media rejects; a backed-off retry will succeed
    /// (unless the fault is sticky, in which case it keeps failing until
    /// the controller escalates it to a permanent error).
    TransientWriteFail,
    /// A dead line: writes can never succeed in place; the line must be
    /// retired and remapped to a spare.
    PermanentMediaError,
    /// An uncorrectable read error: the returned data is poisoned.
    ReadPoison,
}

impl DeviceFaultClass {
    /// All classes, in a stable order.
    pub const ALL: [DeviceFaultClass; 3] = [
        DeviceFaultClass::TransientWriteFail,
        DeviceFaultClass::PermanentMediaError,
        DeviceFaultClass::ReadPoison,
    ];

    /// Short stable label used in traces, metrics, and reports.
    pub fn label(self) -> &'static str {
        match self {
            DeviceFaultClass::TransientWriteFail => "transient",
            DeviceFaultClass::PermanentMediaError => "permanent",
            DeviceFaultClass::ReadPoison => "read_poison",
        }
    }
}

/// When a [`DeviceFault`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTrigger {
    /// Fires on the n-th fresh write attempt the controller accepts for
    /// consideration (1-based; retries of an already-faulted line do not
    /// advance the count).
    NthWrite(u64),
    /// Fires on the n-th read (1-based).
    NthRead(u64),
    /// Fires on the first write at or after the given cycle.
    AtCycle(u64),
    /// Fires on the first access to the given line (raw `LineAddr`).
    OnLine(u64),
}

/// One scheduled device fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    /// What kind of damage fires.
    pub class: DeviceFaultClass,
    /// When it fires.
    pub trigger: FaultTrigger,
    /// For transient faults: `true` keeps the line failing on every retry
    /// until the escalation threshold retires it (modelling wear-out);
    /// `false` fails once and lets the first backed-off retry succeed.
    pub sticky: bool,
}

/// A deterministic, seeded schedule of online device faults plus the
/// retry/escalation tuning the PM controller applies to them.
///
/// Two schedules compare equal iff they would produce identical fault
/// behavior, which makes the type usable inside `SimConfig` equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceFaultSchedule {
    /// The scheduled faults, in priority order (first match fires).
    pub faults: Vec<DeviceFault>,
    /// Seed recorded for reproducer messages.
    pub seed: u64,
    /// Attempts after which a still-failing transient line escalates to a
    /// permanent error and is remapped.
    pub max_retries: u32,
    /// Base backoff in cycles; attempt `k` waits `backoff_base << min(k,
    /// BACKOFF_SHIFT_CAP)` cycles before the next retry is admitted.
    pub backoff_base: u64,
    /// Per-line total-failure threshold that also escalates to permanent
    /// (a line that keeps failing across episodes is wearing out).
    pub escalate_after: u32,
    /// First spare line (raw `LineAddr`) the remap table allocates from.
    pub spare_base: u64,
    /// Number of spare lines available for remapping.
    pub spare_count: u64,
}

/// Cap on the exponential-backoff shift: backoff never exceeds
/// `backoff_base << BACKOFF_SHIFT_CAP`.
pub const BACKOFF_SHIFT_CAP: u32 = 6;

impl DeviceFaultSchedule {
    /// An empty schedule: no faults ever fire. Running with this
    /// installed must be bit-identical to running with no fault layer.
    pub fn none() -> Self {
        DeviceFaultSchedule {
            faults: Vec::new(),
            seed: 0,
            max_retries: 4,
            backoff_base: 64,
            escalate_after: 8,
            spare_base: 1 << 40,
            spare_count: 64,
        }
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A randomized schedule exercising every fault class.
    ///
    /// `scale` bounds the write/read ordinals the triggers draw from, so
    /// the schedule should be sized to the workload (roughly the number
    /// of PM writes it performs). The schedule always contains:
    ///
    /// * one **sticky** transient fault (guaranteed to escalate through
    ///   retries into a permanent error and a line remap),
    /// * two plain transient faults (guaranteed successful retries),
    /// * one direct permanent media error,
    /// * one read poison.
    ///
    /// All write ordinals are distinct, so every fault fires given at
    /// least `scale` writes.
    pub fn random(seed: u64, scale: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xdeaf_bead_dead_f001);
        let scale = scale.max(16);
        // Distinct 1-based write ordinals, spread over the first `scale`
        // writes: partition [1, scale] into four bands and pick one
        // ordinal per band.
        let band = scale / 4;
        let pick = |rng: &mut SmallRng, lo: u64, hi: u64| rng.gen_range(lo..hi.max(lo + 1));
        let w1 = pick(&mut rng, 1, band.max(2));
        let w2 = pick(&mut rng, band.max(2), 2 * band.max(2));
        let w3 = pick(&mut rng, 2 * band.max(2), 3 * band.max(3));
        let w4 = pick(&mut rng, 3 * band.max(3), scale.max(13));
        let r1 = pick(&mut rng, 1, scale / 2);
        DeviceFaultSchedule {
            faults: vec![
                DeviceFault {
                    class: DeviceFaultClass::TransientWriteFail,
                    trigger: FaultTrigger::NthWrite(w1),
                    sticky: false,
                },
                DeviceFault {
                    class: DeviceFaultClass::TransientWriteFail,
                    trigger: FaultTrigger::NthWrite(w2),
                    sticky: true,
                },
                DeviceFault {
                    class: DeviceFaultClass::TransientWriteFail,
                    trigger: FaultTrigger::NthWrite(w3),
                    sticky: false,
                },
                DeviceFault {
                    class: DeviceFaultClass::PermanentMediaError,
                    trigger: FaultTrigger::NthWrite(w4),
                    sticky: true,
                },
                DeviceFault {
                    class: DeviceFaultClass::ReadPoison,
                    trigger: FaultTrigger::NthRead(r1),
                    sticky: false,
                },
            ],
            seed,
            max_retries: 3,
            backoff_base: 32,
            escalate_after: 6,
            spare_base: 1 << 40,
            spare_count: 64,
        }
    }
}

/// Counters describing what the online fault layer did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineFaultStats {
    /// Transient write failures that fired (first failure per episode).
    pub transient_failures: u64,
    /// Failed retry attempts (the media rejected the retry itself).
    pub retries_failed: u64,
    /// Retries that succeeded after backoff.
    pub retries_succeeded: u64,
    /// Lines escalated to (or scheduled directly as) permanent errors.
    pub permanent_errors: u64,
    /// Lines retired and redirected to spares.
    pub lines_remapped: u64,
    /// Reads that returned poisoned data.
    pub reads_poisoned: u64,
    /// Retirements that found the spare pool empty: the device can no
    /// longer serve the line and must be failed over by the caller.
    pub spares_exhausted: u64,
}

impl OnlineFaultStats {
    /// `true` when nothing fired at all.
    pub fn is_zero(&self) -> bool {
        *self == OnlineFaultStats::default()
    }

    /// Accumulates `other` into `self` (campaign-level aggregation).
    pub fn merge(&mut self, other: &OnlineFaultStats) {
        self.transient_failures += other.transient_failures;
        self.retries_failed += other.retries_failed;
        self.retries_succeeded += other.retries_succeeded;
        self.permanent_errors += other.permanent_errors;
        self.lines_remapped += other.lines_remapped;
        self.reads_poisoned += other.reads_poisoned;
        self.spares_exhausted += other.spares_exhausted;
    }

    /// Stable `(key, value)` pairs for JSON/metric export.
    pub fn entries(&self) -> [(&'static str, u64); 7] {
        [
            ("transient_failures", self.transient_failures),
            ("retries_failed", self.retries_failed),
            ("retries_succeeded", self.retries_succeeded),
            ("permanent_errors", self.permanent_errors),
            ("lines_remapped", self.lines_remapped),
            ("reads_poisoned", self.reads_poisoned),
            ("spares_exhausted", self.spares_exhausted),
        ]
    }
}

/// Per-line retry episode state.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Failed attempts so far in this episode.
    attempts: u32,
    /// Cycle at which the next retry is admitted.
    next_at: u64,
    /// Whether the underlying fault keeps failing retries.
    sticky: bool,
}

/// What the fault unit decided about one write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteDecision {
    /// The write may proceed to `line` (post-remap physical line).
    /// `retried` carries the failed-attempt count when this write closes
    /// a retry episode; `remapped` is `Some((spare, newly))` when the
    /// logical line is redirected.
    Proceed {
        /// Physical line the device actually writes.
        line: u64,
        /// Failed attempts this write recovers from, if any.
        retried: Option<u32>,
        /// Redirect target and whether this write created it.
        remapped: Option<(u64, bool)>,
    },
    /// The line is in backoff; retry not admitted before `until`.
    Backoff {
        /// Cycle at which the next retry is admitted.
        until: u64,
    },
    /// The media rejected the write; retry admitted at `next_at`.
    Fail {
        /// Cycle at which the retry is admitted.
        next_at: u64,
        /// Failed attempts so far in this episode.
        attempts: u32,
    },
    /// The line needed retirement but the spare pool is empty: the
    /// device has failed. The caller must fail the device (or shard)
    /// over; subsequent writes to the line park in permanent backoff.
    RemapExhausted {
        /// The logical line the device can no longer serve.
        line: u64,
    },
}

/// What the fault unit decided about one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadDecision {
    /// Physical line the device actually reads (post-remap).
    pub line: u64,
    /// `true` when the read returns poisoned data (MCE-style error).
    pub poisoned: bool,
}

/// Runtime state machine executing a [`DeviceFaultSchedule`].
///
/// The PM controller consults [`DeviceFaultUnit::on_write`] before
/// accepting each write and [`DeviceFaultUnit::on_read`] on each read.
/// All decisions are deterministic functions of the schedule and the
/// access sequence, so identical seeds reproduce identical runs.
#[derive(Debug, Clone)]
pub struct DeviceFaultUnit {
    schedule: DeviceFaultSchedule,
    fired: Vec<bool>,
    writes_seen: u64,
    reads_seen: u64,
    retry: FastMap<u64, RetryState>,
    /// Per-line total failures across episodes (wear-out accounting).
    line_failures: FastMap<u64, u32>,
    remap: RemapTable,
    stats: OnlineFaultStats,
}

impl DeviceFaultUnit {
    /// Creates a unit executing `schedule`.
    pub fn new(schedule: DeviceFaultSchedule) -> Self {
        let fired = vec![false; schedule.faults.len()];
        let remap = RemapTable::new(schedule.spare_base, schedule.spare_count);
        DeviceFaultUnit {
            schedule,
            fired,
            writes_seen: 0,
            reads_seen: 0,
            retry: FastMap::default(),
            line_failures: FastMap::default(),
            remap,
            stats: OnlineFaultStats::default(),
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> OnlineFaultStats {
        self.stats
    }

    /// The remap/quarantine table (for durable encoding and inspection).
    pub fn remap_table(&self) -> &RemapTable {
        &self.remap
    }

    /// `true` while any line sits in a retry episode.
    pub fn retry_pending(&self) -> bool {
        !self.retry.is_empty()
    }

    /// The earliest cycle after `cycle` at which a backed-off retry
    /// becomes admissible. A line parked for good never does.
    pub fn next_retry_after(&self, cycle: u64) -> Option<u64> {
        let ends = self.retry.values().map(|s| s.next_at);
        ends.filter(|&t| t > cycle && t != u64::MAX).min()
    }

    /// The cycle a retry of `line` is admitted at while the line sits in
    /// a retry episode (`u64::MAX` once parked for good).
    pub fn backoff_until(&self, line: u64) -> Option<u64> {
        self.retry.get(&line).map(|s| s.next_at)
    }

    /// The lowest line whose writes spare-pool exhaustion parked for
    /// good (at `u64::MAX`), if any.
    pub fn parked_line(&self) -> Option<u64> {
        let parked = self.retry.iter().filter(|(_, s)| s.next_at == u64::MAX);
        parked.map(|(&line, _)| line).min()
    }

    fn backoff(&self, attempts: u32) -> u64 {
        self.schedule.backoff_base << attempts.min(BACKOFF_SHIFT_CAP)
    }

    /// Finds the first unfired write-class fault matching this access and
    /// marks it fired.
    fn take_write_fault(&mut self, line: u64, cycle: u64) -> Option<DeviceFault> {
        for (i, f) in self.schedule.faults.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            let class_ok = matches!(
                f.class,
                DeviceFaultClass::TransientWriteFail | DeviceFaultClass::PermanentMediaError
            );
            if !class_ok {
                continue;
            }
            let hit = match f.trigger {
                FaultTrigger::NthWrite(n) => self.writes_seen == n,
                FaultTrigger::AtCycle(c) => cycle >= c,
                FaultTrigger::OnLine(l) => line == l,
                FaultTrigger::NthRead(_) => false,
            };
            if hit {
                self.fired[i] = true;
                return Some(*f);
            }
        }
        None
    }

    fn escalate(&mut self, line: u64) -> WriteDecision {
        self.stats.permanent_errors += 1;
        let episode = self.retry.remove(&line);
        let attempts = episode.map(|s| s.attempts);
        match self.remap.remap(LineAddr(line)) {
            Some(spare) => {
                self.stats.lines_remapped += 1;
                WriteDecision::Proceed {
                    line: spare.raw(),
                    retried: attempts,
                    remapped: Some((spare.raw(), true)),
                }
            }
            None => {
                // Spares exhausted: the device is failed. Surface a typed
                // outcome (once per line) so the caller can fail the
                // device over; subsequent writes to the line park in
                // permanent backoff rather than succeeding silently.
                self.stats.spares_exhausted += 1;
                self.retry.insert(
                    line,
                    RetryState {
                        attempts: attempts.unwrap_or(0),
                        next_at: u64::MAX,
                        sticky: true,
                    },
                );
                WriteDecision::RemapExhausted { line }
            }
        }
    }

    /// Decides the fate of a write attempt to `line` at `cycle`.
    pub fn on_write(&mut self, line: u64, cycle: u64) -> WriteDecision {
        // Retired lines are already redirected; their writes just follow
        // the remap.
        if self.remap.is_remapped(LineAddr(line)) {
            return WriteDecision::Proceed {
                line: self.remap.resolve(LineAddr(line)).raw(),
                retried: None,
                remapped: Some((self.remap.resolve(LineAddr(line)).raw(), false)),
            };
        }
        // An open retry episode owns the line until it closes.
        if let Some(state) = self.retry.get(&line).copied() {
            if cycle < state.next_at {
                return WriteDecision::Backoff {
                    until: state.next_at,
                };
            }
            if state.sticky {
                // The retry itself fails again.
                let attempts = state.attempts + 1;
                self.stats.retries_failed += 1;
                *self.line_failures.entry(line).or_insert(0) += 1;
                let failures = self.line_failures[&line];
                if attempts >= self.schedule.max_retries || failures >= self.schedule.escalate_after
                {
                    self.retry.insert(
                        line,
                        RetryState {
                            attempts,
                            next_at: state.next_at,
                            sticky: true,
                        },
                    );
                    return self.escalate(line);
                }
                let next_at = cycle + self.backoff(attempts - 1);
                self.retry.insert(
                    line,
                    RetryState {
                        attempts,
                        next_at,
                        sticky: true,
                    },
                );
                return WriteDecision::Fail { next_at, attempts };
            }
            // Plain transient: the backed-off retry succeeds.
            self.retry.remove(&line);
            self.stats.retries_succeeded += 1;
            return WriteDecision::Proceed {
                line,
                retried: Some(state.attempts),
                remapped: None,
            };
        }
        // Fresh attempt: advance the ordinal and consult the schedule.
        self.writes_seen += 1;
        if let Some(fault) = self.take_write_fault(line, cycle) {
            match fault.class {
                DeviceFaultClass::PermanentMediaError => {
                    *self.line_failures.entry(line).or_insert(0) += 1;
                    return self.escalate(line);
                }
                DeviceFaultClass::TransientWriteFail => {
                    self.stats.transient_failures += 1;
                    *self.line_failures.entry(line).or_insert(0) += 1;
                    let next_at = cycle + self.backoff(0);
                    self.retry.insert(
                        line,
                        RetryState {
                            attempts: 1,
                            next_at,
                            sticky: fault.sticky,
                        },
                    );
                    return WriteDecision::Fail {
                        next_at,
                        attempts: 1,
                    };
                }
                DeviceFaultClass::ReadPoison => unreachable!("filtered by take_write_fault"),
            }
        }
        WriteDecision::Proceed {
            line,
            retried: None,
            remapped: None,
        }
    }

    /// Decides the fate of a read of `line` at `cycle`.
    pub fn on_read(&mut self, line: u64, cycle: u64) -> ReadDecision {
        let physical = self.remap.resolve(LineAddr(line)).raw();
        self.reads_seen += 1;
        for (i, f) in self.schedule.faults.iter().enumerate() {
            if self.fired[i] || f.class != DeviceFaultClass::ReadPoison {
                continue;
            }
            let hit = match f.trigger {
                FaultTrigger::NthRead(n) => self.reads_seen == n,
                FaultTrigger::AtCycle(c) => cycle >= c,
                FaultTrigger::OnLine(l) => line == l,
                FaultTrigger::NthWrite(_) => false,
            };
            if hit {
                self.fired[i] = true;
                self.stats.reads_poisoned += 1;
                return ReadDecision {
                    line: physical,
                    poisoned: true,
                };
            }
        }
        ReadDecision {
            line: physical,
            poisoned: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient(n: u64, sticky: bool) -> DeviceFault {
        DeviceFault {
            class: DeviceFaultClass::TransientWriteFail,
            trigger: FaultTrigger::NthWrite(n),
            sticky,
        }
    }

    fn schedule(faults: Vec<DeviceFault>) -> DeviceFaultSchedule {
        DeviceFaultSchedule {
            faults,
            ..DeviceFaultSchedule::none()
        }
    }

    #[test]
    fn empty_schedule_never_interferes() {
        let mut unit = DeviceFaultUnit::new(DeviceFaultSchedule::none());
        for i in 0..100 {
            assert_eq!(
                unit.on_write(i, i * 10),
                WriteDecision::Proceed {
                    line: i,
                    retried: None,
                    remapped: None
                }
            );
            assert!(!unit.on_read(i, i * 10).poisoned);
        }
        assert!(unit.stats().is_zero());
        assert!(!unit.retry_pending());
    }

    #[test]
    fn transient_fault_fails_then_retry_succeeds() {
        let mut unit = DeviceFaultUnit::new(schedule(vec![transient(2, false)]));
        assert!(matches!(
            unit.on_write(10, 0),
            WriteDecision::Proceed { .. }
        ));
        let next_at = match unit.on_write(11, 1) {
            WriteDecision::Fail { next_at, attempts } => {
                assert_eq!(attempts, 1);
                next_at
            }
            other => panic!("expected Fail, got {other:?}"),
        };
        assert_eq!(next_at, 1 + 64);
        assert!(unit.retry_pending());
        assert_eq!(unit.next_retry_after(0), Some(next_at));
        assert_eq!(unit.next_retry_after(next_at), None, "already admissible");
        assert_eq!(unit.backoff_until(11), Some(next_at));
        assert_eq!(unit.backoff_until(10), None);
        // Too early: backoff.
        assert_eq!(
            unit.on_write(11, next_at - 1),
            WriteDecision::Backoff { until: next_at }
        );
        // Other lines are unaffected meanwhile.
        assert!(matches!(
            unit.on_write(12, next_at - 1),
            WriteDecision::Proceed { .. }
        ));
        // The due retry succeeds and closes the episode.
        assert_eq!(
            unit.on_write(11, next_at),
            WriteDecision::Proceed {
                line: 11,
                retried: Some(1),
                remapped: None
            }
        );
        assert!(!unit.retry_pending());
        let s = unit.stats();
        assert_eq!(s.transient_failures, 1);
        assert_eq!(s.retries_succeeded, 1);
        assert_eq!(s.permanent_errors, 0);
    }

    #[test]
    fn sticky_transient_escalates_to_remap() {
        let mut unit = DeviceFaultUnit::new(schedule(vec![transient(1, true)]));
        let mut cycle = 0;
        let mut decision = unit.on_write(7, cycle);
        let mut rounds = 0;
        let spare = loop {
            match decision {
                WriteDecision::Fail { next_at, .. } | WriteDecision::Backoff { until: next_at } => {
                    cycle = next_at;
                    decision = unit.on_write(7, cycle);
                }
                WriteDecision::Proceed { line, remapped, .. } => {
                    assert_eq!(remapped, Some((line, true)));
                    break line;
                }
                WriteDecision::RemapExhausted { .. } => {
                    panic!("64 spares cannot exhaust here")
                }
            }
            rounds += 1;
            assert!(rounds < 32, "sticky fault must converge to a remap");
        };
        assert_eq!(spare, 1 << 40);
        let s = unit.stats();
        assert_eq!(s.permanent_errors, 1);
        assert_eq!(s.lines_remapped, 1);
        assert!(s.retries_failed >= 1);
        // Subsequent writes and reads follow the redirect.
        assert_eq!(
            unit.on_write(7, cycle + 1),
            WriteDecision::Proceed {
                line: spare,
                retried: None,
                remapped: Some((spare, false))
            }
        );
        assert_eq!(
            unit.on_read(7, cycle + 1),
            ReadDecision {
                line: spare,
                poisoned: false
            }
        );
    }

    #[test]
    fn direct_permanent_error_remaps_immediately() {
        let mut unit = DeviceFaultUnit::new(schedule(vec![DeviceFault {
            class: DeviceFaultClass::PermanentMediaError,
            trigger: FaultTrigger::OnLine(42),
            sticky: true,
        }]));
        assert!(matches!(
            unit.on_write(41, 0),
            WriteDecision::Proceed { remapped: None, .. }
        ));
        match unit.on_write(42, 1) {
            WriteDecision::Proceed {
                line,
                remapped: Some((spare, true)),
                ..
            } => assert_eq!(line, spare),
            other => panic!("expected immediate remap, got {other:?}"),
        }
        assert_eq!(unit.stats().lines_remapped, 1);
    }

    #[test]
    fn read_poison_fires_once_on_nth_read() {
        let mut unit = DeviceFaultUnit::new(schedule(vec![DeviceFault {
            class: DeviceFaultClass::ReadPoison,
            trigger: FaultTrigger::NthRead(3),
            sticky: false,
        }]));
        assert!(!unit.on_read(1, 0).poisoned);
        assert!(!unit.on_read(2, 1).poisoned);
        assert!(unit.on_read(3, 2).poisoned);
        assert!(!unit.on_read(3, 3).poisoned, "poison fires once");
        assert_eq!(unit.stats().reads_poisoned, 1);
    }

    #[test]
    fn backoff_grows_exponentially_and_is_capped() {
        let sched = DeviceFaultSchedule {
            max_retries: 100,
            escalate_after: 100,
            ..schedule(vec![transient(1, true)])
        };
        let base = sched.backoff_base;
        let mut unit = DeviceFaultUnit::new(sched);
        let mut cycle = 0;
        let mut prev_gap = 0;
        for attempt in 1..=10u32 {
            let decision = unit.on_write(9, cycle);
            let next_at = match decision {
                WriteDecision::Fail { next_at, attempts } => {
                    assert_eq!(attempts, attempt);
                    next_at
                }
                other => panic!("expected Fail, got {other:?}"),
            };
            let gap = next_at - cycle;
            assert_eq!(gap, base << (attempt - 1).min(BACKOFF_SHIFT_CAP));
            assert!(gap >= prev_gap);
            assert!(gap <= base << BACKOFF_SHIFT_CAP);
            prev_gap = gap;
            cycle = next_at;
        }
    }

    #[test]
    fn spare_exhaustion_parks_the_line() {
        let sched = DeviceFaultSchedule {
            spare_count: 0,
            ..schedule(vec![DeviceFault {
                class: DeviceFaultClass::PermanentMediaError,
                trigger: FaultTrigger::OnLine(5),
                sticky: true,
            }])
        };
        let mut unit = DeviceFaultUnit::new(sched);
        // The retirement itself surfaces a typed failure (exactly once)...
        assert_eq!(
            unit.on_write(5, 0),
            WriteDecision::RemapExhausted { line: 5 }
        );
        let s = unit.stats();
        assert_eq!(s.spares_exhausted, 1);
        assert_eq!(s.lines_remapped, 0);
        // ...and later writes to the line park in permanent backoff.
        assert_eq!(
            unit.on_write(5, 1),
            WriteDecision::Backoff { until: u64::MAX }
        );
        assert_eq!(unit.stats().spares_exhausted, 1, "typed failure fires once");
        assert_eq!(unit.backoff_until(5), Some(u64::MAX));
        assert_eq!(
            unit.next_retry_after(0),
            None,
            "a parked line is never admitted"
        );
    }

    #[test]
    fn identical_schedules_give_identical_decisions() {
        let sched = DeviceFaultSchedule::random(99, 64);
        assert_eq!(sched, DeviceFaultSchedule::random(99, 64));
        let mut a = DeviceFaultUnit::new(sched.clone());
        let mut b = DeviceFaultUnit::new(sched);
        for i in 0..200u64 {
            let line = i % 17;
            assert_eq!(a.on_write(line, i * 3), b.on_write(line, i * 3));
            assert_eq!(a.on_read(line, i * 3), b.on_read(line, i * 3));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn random_schedule_contains_every_class() {
        let sched = DeviceFaultSchedule::random(7, 128);
        for class in DeviceFaultClass::ALL {
            assert!(
                sched.faults.iter().any(|f| f.class == class),
                "missing {class:?}"
            );
        }
        assert!(sched
            .faults
            .iter()
            .any(|f| f.sticky && f.class == DeviceFaultClass::TransientWriteFail));
        // Write ordinals are distinct so every write fault can fire.
        let mut ns: Vec<u64> = sched
            .faults
            .iter()
            .filter_map(|f| match f.trigger {
                FaultTrigger::NthWrite(n) => Some(n),
                _ => None,
            })
            .collect();
        let before = ns.len();
        ns.sort_unstable();
        ns.dedup();
        assert_eq!(ns.len(), before, "write ordinals must be distinct");
    }

    #[test]
    fn random_schedule_fires_fully_within_scale_writes() {
        for seed in 0..20u64 {
            let scale = 96;
            let sched = DeviceFaultSchedule::random(seed, scale);
            let mut unit = DeviceFaultUnit::new(sched);
            let mut cycle = 0u64;
            // Drive `scale` fresh writes on distinct lines, immediately
            // servicing any retries so episodes close.
            let mut fresh = 0u64;
            let mut line = 0u64;
            while fresh < scale {
                match unit.on_write(line, cycle) {
                    WriteDecision::Proceed { .. } => {
                        fresh += 1;
                        line += 1;
                    }
                    WriteDecision::Fail { next_at, .. }
                    | WriteDecision::Backoff { until: next_at } => {
                        fresh += 1; // the first Fail consumed the ordinal
                        cycle = next_at;
                        // Drain the episode on this line.
                        loop {
                            match unit.on_write(line, cycle) {
                                WriteDecision::Proceed { .. } => break,
                                WriteDecision::Fail { next_at, .. }
                                | WriteDecision::Backoff { until: next_at } => cycle = next_at,
                                WriteDecision::RemapExhausted { .. } => {
                                    panic!("64 spares cannot exhaust here")
                                }
                            }
                        }
                        line += 1;
                    }
                    WriteDecision::RemapExhausted { .. } => {
                        panic!("64 spares cannot exhaust here")
                    }
                }
                cycle += 1;
            }
            for r in 0..scale {
                unit.on_read(r, cycle + r);
            }
            let s = unit.stats();
            assert!(s.retries_succeeded >= 1, "seed {seed}: {s:?}");
            assert!(s.permanent_errors >= 2, "seed {seed}: {s:?}");
            assert!(s.lines_remapped >= 2, "seed {seed}: {s:?}");
            assert!(s.reads_poisoned >= 1, "seed {seed}: {s:?}");
        }
    }
}
