//! The open-loop serving engine: seeded arrivals, admission control,
//! shard routing, device-fault-driven breaker trips, and failover.
//!
//! The engine runs in the simulator's virtual cycle domain. A real
//! calibration simulation of the configured benchmark yields the
//! per-request service time; the open-loop generator then offers
//! requests at a configured fraction of the resulting capacity. Each
//! shard fronts an online [`DeviceFaultUnit`] — the same state machine
//! the PM controller consults — so persist retries, media retirement,
//! spare exhaustion, and poisoned reads shape per-request latency and
//! drive the circuit breakers exactly as they would the memory path.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use strandweaver::experiment::{CrashLegs, Experiment};
use strandweaver::faults::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultTrigger,
    WriteDecision,
};
use strandweaver::trace::MetricsRegistry;

use crate::breaker::{Admission, BreakerState, CircuitBreaker};
use crate::report::{ServeCellReport, ShardReport};
use crate::{ArrivalKind, ServeConfig, ShedPolicy};

/// First raw line of the serving working set (clear of the layouts the
/// calibration and recovery runs use).
const SHARD_LINE_BASE: u64 = 0x10_000;
/// Lines per shard working set.
const SHARD_LINES: u64 = 16;
/// Request slots a shard cycles through (each slot touches a window of
/// the working set).
const SHARD_SLOTS: u64 = 8;
/// Consecutive request failures that trip a shard's breaker.
const TRIP_THRESHOLD: u32 = 3;
/// Breaker cooldown, in multiples of the service time.
const COOLDOWN_SERVICES: u64 = 8;
/// Successful half-open probes required to re-close a breaker.
const PROBE_QUOTA: u32 = 2;
/// Upper bound on crash/recover legs per cell (each leg is three real
/// simulator/recovery runs; trips beyond this still quarantine, they
/// just reuse the established verdict).
const MAX_LEGS: u64 = 8;

/// The line a shard's `slot`-th request touches with its `w`-th
/// operation.
fn line_for(shard: usize, slot: u64, w: u64) -> u64 {
    SHARD_LINE_BASE + shard as u64 * 64 + (slot % SHARD_SLOTS + w) % SHARD_LINES
}

/// The engineered chaos-under-load schedule for one shard. Roles rotate
/// by shard index so the default four-shard cell exercises every
/// failure mode: an MCE-class poisoned read (role 0), spare-pool
/// exhaustion forcing failover (role 1), sticky wear-out tripping the
/// breaker through repeated persist retries (role 2), and a plain
/// transient whose backed-off retry succeeds (role 3).
fn shard_schedule(cfg: &ServeConfig, shard: usize) -> DeviceFaultSchedule {
    let mut s = DeviceFaultSchedule::none();
    s.seed = cfg.seed ^ shard as u64;
    if !cfg.faults {
        return s;
    }
    match shard % 4 {
        0 => {
            // The second read this shard serves returns poisoned data.
            s.faults.push(DeviceFault {
                class: DeviceFaultClass::ReadPoison,
                trigger: FaultTrigger::NthRead(2),
                sticky: false,
            });
        }
        1 => {
            // One spare, two dead lines in the working set: the second
            // retirement exhausts the pool and fails the shard over.
            s.spare_count = 1;
            for idx in [0u64, 2] {
                s.faults.push(DeviceFault {
                    class: DeviceFaultClass::PermanentMediaError,
                    trigger: FaultTrigger::OnLine(line_for(shard, 0, idx)),
                    sticky: true,
                });
            }
        }
        2 => {
            // Wearing-out lines: sticky transients that keep failing
            // long enough for consecutive requests to exhaust their
            // retry budgets and trip the breaker, then escalate to
            // remap and heal.
            s.max_retries = 9;
            s.escalate_after = 8;
            s.backoff_base = 16;
            for idx in 0..6u64 {
                s.faults.push(DeviceFault {
                    class: DeviceFaultClass::TransientWriteFail,
                    trigger: FaultTrigger::OnLine(SHARD_LINE_BASE + shard as u64 * 64 + idx),
                    sticky: true,
                });
            }
        }
        _ => {
            // A single transient blip; the first backed-off retry
            // succeeds.
            s.faults.push(DeviceFault {
                class: DeviceFaultClass::TransientWriteFail,
                trigger: FaultTrigger::NthWrite(5),
                sticky: false,
            });
        }
    }
    s
}

/// Seeded open-loop arrival generator.
struct Arrivals {
    rng: SmallRng,
    kind: ArrivalKind,
    /// Mean inter-arrival gap in cycles at the offered rate.
    mean: f64,
    t: f64,
    n: u64,
}

impl Arrivals {
    fn new(kind: ArrivalKind, mean: f64, seed: u64) -> Self {
        Arrivals {
            rng: SmallRng::seed_from_u64(seed ^ 0xa771_7a15_09e4_100b),
            kind,
            mean,
            t: 0.0,
            n: 0,
        }
    }

    /// Next arrival cycle (non-decreasing).
    fn next(&mut self) -> u64 {
        let mean = match self.kind {
            ArrivalKind::Poisson => self.mean,
            // On/off bursts of 16 arrivals: 4x the rate, then 1/4 of it.
            ArrivalKind::Bursty => {
                if (self.n / 16).is_multiple_of(2) {
                    self.mean / 4.0
                } else {
                    self.mean * 4.0
                }
            }
        };
        self.n += 1;
        let u: f64 = self.rng.gen();
        self.t += -(1.0 - u).ln() * mean;
        self.t as u64
    }
}

/// One independently-recoverable serving shard.
struct Shard {
    index: usize,
    unit: DeviceFaultUnit,
    breaker: CircuitBreaker,
    /// Cycle at which the shard finishes its current backlog.
    next_free: u64,
    /// Per-shard request ordinal (selects the working-set window).
    slot: u64,
    /// Permanently failed over (spare-pool exhaustion).
    failed: bool,
    /// Token-bucket state for [`ShedPolicy::TokenBucket`].
    tokens: f64,
    last_refill: u64,
    // Accounting.
    served: u64,
    shed: u64,
    unavailable: u64,
    recovered: u64,
}

impl Shard {
    fn new(cfg: &ServeConfig, index: usize, service_cycles: u64) -> Self {
        Shard {
            index,
            unit: DeviceFaultUnit::new(shard_schedule(cfg, index)),
            breaker: CircuitBreaker::new(
                TRIP_THRESHOLD,
                service_cycles * COOLDOWN_SERVICES,
                PROBE_QUOTA,
            ),
            next_free: 0,
            slot: 0,
            failed: false,
            tokens: cfg.queue_depth as f64,
            last_refill: 0,
            served: 0,
            shed: 0,
            unavailable: 0,
            recovered: 0,
        }
    }

    /// Applies the shed policy at admission; `true` means shed.
    fn sheds(
        &mut self,
        policy: ShedPolicy,
        arrive: u64,
        deadline: u64,
        service_cycles: u64,
        queue_depth: usize,
    ) -> bool {
        match policy {
            ShedPolicy::DropTail => {
                let backlog = self.next_free.saturating_sub(arrive);
                let queued = backlog.div_ceil(service_cycles);
                queued >= queue_depth as u64
            }
            ShedPolicy::DeadlineShed => {
                self.next_free.max(arrive).saturating_add(service_cycles) > deadline
            }
            ShedPolicy::TokenBucket => {
                // Refill at the calibrated sustainable rate (one request
                // per service time), capped at the queue bound.
                let elapsed = arrive.saturating_sub(self.last_refill);
                self.tokens =
                    (self.tokens + elapsed as f64 / service_cycles as f64).min(queue_depth as f64);
                self.last_refill = arrive;
                if self.tokens >= 1.0 {
                    self.tokens -= 1.0;
                    false
                } else {
                    true
                }
            }
        }
    }
}

/// How one admitted request ended.
enum Served {
    /// Completed at `finish`.
    Done { finish: u64 },
    /// Blew its deadline (mid-service or waiting out a backoff).
    Timeout { at: u64 },
    /// Exhausted its device retry budget.
    Failed { at: u64 },
    /// Consumed a poisoned read (MCE-class).
    Poisoned { at: u64 },
    /// Hit spare-pool exhaustion: the shard must fail over.
    Exhausted { at: u64 },
}

/// Serves one admitted request on `shard`, walking the device fault unit
/// line by line with deadline-checked retries.
fn serve_on(
    shard: &mut Shard,
    cfg: &ServeConfig,
    arrive: u64,
    deadline: u64,
    is_read: bool,
    service_cycles: u64,
    retries: &mut u64,
) -> Served {
    let ops = cfg.ops.max(1) as u64;
    let per_op = (service_cycles / ops).max(1);
    let mut now = arrive.max(shard.next_free);
    let slot = shard.slot;
    shard.slot += 1;

    if is_read {
        let decision = shard.unit.on_read(line_for(shard.index, slot, 0), now);
        now += per_op;
        shard.next_free = now;
        if decision.poisoned {
            return Served::Poisoned { at: now };
        }
        if now > deadline {
            return Served::Timeout { at: now };
        }
        return Served::Done { finish: now };
    }

    let mut attempts = 0u32;
    for w in 0..ops {
        let line = line_for(shard.index, slot, w);
        loop {
            match shard.unit.on_write(line, now) {
                WriteDecision::Proceed { .. } => {
                    now += per_op;
                    break;
                }
                WriteDecision::Fail { next_at, .. } | WriteDecision::Backoff { until: next_at } => {
                    attempts += 1;
                    *retries += 1;
                    // Deadline-checked re-admission: a retry that cannot
                    // start before the deadline is never re-admitted (no
                    // zombie retries), and a parked line (`u64::MAX`
                    // backoff after exhaustion) can never blow this
                    // guard either.
                    if next_at > deadline {
                        shard.next_free = now;
                        return Served::Timeout { at: deadline };
                    }
                    if attempts > cfg.max_request_retries {
                        shard.next_free = now;
                        return Served::Failed { at: now };
                    }
                    now = next_at.max(now + 1);
                }
                WriteDecision::RemapExhausted { .. } => {
                    shard.next_free = now;
                    return Served::Exhausted { at: now };
                }
            }
        }
        if now > deadline {
            shard.next_free = now;
            return Served::Timeout { at: now };
        }
    }
    shard.next_free = now;
    Served::Done { finish: now }
}

/// Runs one serving cell end to end and reports it.
///
/// # Errors
///
/// The first crash/recover leg violating durable-set equality, PMO
/// linear extension, or reconvergence, with a reproducer embedded.
pub fn serve_cell(cfg: &ServeConfig) -> Result<ServeCellReport, String> {
    // Calibration: a real timing run of the benchmark under this cell's
    // (design × lang) yields the per-request service time.
    let mut exp = Experiment::new(cfg.bench, cfg.lang, cfg.design)
        .threads(cfg.threads)
        .total_regions(cfg.regions)
        .ops_per_region(cfg.ops)
        .seed(cfg.seed);
    if cfg.redo {
        exp = exp.redo();
    }
    let calib = exp.run_timing();
    let service_cycles = (calib.cycles / cfg.regions.max(1) as u64).max(1);
    let deadline_cycles = service_cycles.saturating_mul(cfg.deadline_factor);

    // The crash/recover legs run on the calibration cell itself, so they
    // share its machine configuration and driver parameters. A leg that
    // completes has passed its durable-set check and both reconvergence
    // checks, so `legs_run` counts each of those too.
    let mut legs = CrashLegs::new(&exp, cfg.seed ^ 0x5e12_7e5e_12c0_4e12);
    let (mut legs_run, mut pmo_edges) = (0u64, 0u64);
    // Runs the `leg`-th leg of the cell for a quarantined `shard` and
    // returns the PMO edges its probe verified.
    let mut crash_leg = |leg: u64, shard: usize| -> Result<u64, String> {
        let leg_seed = cfg
            .seed
            .wrapping_add(leg.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ 0x5e12_0000;
        let probe = legs.run(leg_seed).map_err(|detail| {
            format!(
                "serve recovery leg {leg} (shard {shard}): {detail}\n  seed {}: reproduce \
                 with `{}`",
                cfg.seed,
                cfg.repro_cmd()
            )
        })?;
        Ok(probe.pmo_edges as u64)
    };
    let shards_n = cfg.shards.max(1);
    let mut shards: Vec<Shard> = (0..shards_n)
        .map(|i| Shard::new(cfg, i, service_cycles))
        .collect();
    let mut arrivals = Arrivals::new(
        cfg.arrival,
        service_cycles as f64 / (cfg.offered_load * shards_n as f64),
        cfg.seed,
    );

    let mut reg = MetricsRegistry::new();
    let lat = reg.histogram("serve.latency_cycles");

    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut timeouts = 0u64;
    let mut unavailable = 0u64;
    let mut failed = 0u64;
    let mut retries = 0u64;
    let mut poisoned_reads = 0u64;
    let mut failovers = 0u64;
    let mut failover_redirects = 0u64;

    for id in 0..cfg.requests {
        let arrive = arrivals.next();
        let is_read = id % 5 == 4;
        let home = (id % shards_n as u64) as usize;

        // Routing with failover: a failed-over shard's writes re-route
        // to the next live shard; its reads return explicit Unavailable
        // (degraded mode — a read of quarantined data must not silently
        // read through).
        let target = if shards[home].failed {
            if is_read {
                unavailable += 1;
                shards[home].unavailable += 1;
                continue;
            }
            match (1..shards_n)
                .map(|d| (home + d) % shards_n)
                .find(|&t| !shards[t].failed)
            {
                Some(t) => {
                    failover_redirects += 1;
                    t
                }
                None => {
                    unavailable += 1;
                    shards[home].unavailable += 1;
                    continue;
                }
            }
        } else {
            home
        };

        // Circuit breaker at admission.
        let admission = shards[target].breaker.admit(arrive);
        if admission == Admission::Reject {
            unavailable += 1;
            shards[target].unavailable += 1;
            continue;
        }

        // Load shedding on the bounded queue (half-open probes bypass
        // the shed policy: the breaker needs its seeded probes to reach
        // the device to decide the shard's fate).
        let deadline = arrive.saturating_add(deadline_cycles);
        if admission == Admission::Admit
            && shards[target].sheds(cfg.shed, arrive, deadline, service_cycles, cfg.queue_depth)
        {
            shed += 1;
            shards[target].shed += 1;
            continue;
        }

        let before_trips = shards[target].breaker.trips();
        let outcome = serve_on(
            &mut shards[target],
            cfg,
            arrive,
            deadline,
            is_read,
            service_cycles,
            &mut retries,
        );
        match outcome {
            Served::Done { finish } => {
                reg.observe(lat, finish - arrive);
                completed += 1;
                shards[target].served += 1;
                shards[target].breaker.on_success();
            }
            Served::Timeout { at } => {
                timeouts += 1;
                shards[target].breaker.on_failure(at);
            }
            Served::Failed { at } => {
                failed += 1;
                shards[target].breaker.on_failure(at);
            }
            Served::Poisoned { at } => {
                poisoned_reads += 1;
                timeouts += 1;
                // An MCE-class event quarantines immediately.
                shards[target].breaker.trip(at);
            }
            Served::Exhausted { at } => {
                // Spare-pool exhaustion fails the shard over instead of
                // failing the process; the request itself is lost to a
                // timeout (its data is on the quarantined shard).
                failovers += 1;
                shards[target].failed = true;
                shards[target].breaker.trip(at);
                timeouts += 1;
            }
        }

        // A fresh quarantine runs the real Salvage recovery leg while
        // the other shards keep serving.
        if shards[target].breaker.trips() > before_trips && legs_run < MAX_LEGS {
            pmo_edges += crash_leg(legs_run, target)?;
            legs_run += 1;
            shards[target].recovered += 1;
        }
    }

    // Every cell runs at least one crash/recover leg, even fault-free:
    // the durable-set and PMO bars hold with or without quarantines.
    if legs_run == 0 {
        pmo_edges += crash_leg(0, 0)?;
        legs_run = 1;
    }

    let snapshot = reg.snapshot();
    let latency = snapshot
        .histogram("serve.latency_cycles")
        .cloned()
        .unwrap_or_default();
    let shard_reports: Vec<ShardReport> = shards
        .iter()
        .map(|s| ShardReport {
            shard: s.index,
            state: if s.failed {
                // Failed-over shards report as quarantined regardless of
                // their breaker's last state.
                BreakerState::Open
            } else {
                s.breaker.state()
            },
            served: s.served,
            shed: s.shed,
            unavailable: s.unavailable,
            trips: s.breaker.trips(),
            failed_over: s.failed,
            recovered: s.recovered,
        })
        .collect();

    Ok(ServeCellReport {
        design: cfg.design,
        lang: cfg.lang,
        offered_load: cfg.offered_load,
        service_cycles,
        offered: cfg.requests,
        completed,
        shed,
        timeouts,
        unavailable,
        failed,
        retries,
        poisoned_reads,
        breaker_trips: shard_reports.iter().map(|s| s.trips).sum(),
        failovers,
        failover_redirects,
        recovery_legs: legs_run,
        durable_set_checks: legs_run,
        pmo_edges_checked: pmo_edges,
        reconverged_strict: legs_run,
        reconverged_salvage: legs_run,
        silent_corruptions: 0,
        p50: latency.quantile(0.50),
        p99: latency.quantile(0.99),
        p999: latency.quantile(0.999),
        max_latency: latency.max,
        latency,
        shards: shard_reports,
        events_processed: calib.events.total(),
        sim_cycles: calib.cycles,
    })
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use strandweaver::{BenchmarkId, HwDesign, LangModel};

    use super::*;

    fn test_cfg() -> ServeConfig {
        ServeConfig::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
    }

    fn shard_with(schedule: DeviceFaultSchedule, service_cycles: u64, queue_depth: usize) -> Shard {
        Shard {
            index: 0,
            unit: DeviceFaultUnit::new(schedule),
            breaker: CircuitBreaker::new(
                TRIP_THRESHOLD,
                service_cycles * COOLDOWN_SERVICES,
                PROBE_QUOTA,
            ),
            next_free: 0,
            slot: 0,
            failed: false,
            tokens: queue_depth as f64,
            last_refill: 0,
            served: 0,
            shed: 0,
            unavailable: 0,
            recovered: 0,
        }
    }

    /// Sticky wear-out on every line of shard 0's first slot window.
    fn sticky_schedule(backoff_base: u64) -> DeviceFaultSchedule {
        let mut s = DeviceFaultSchedule::none();
        s.backoff_base = backoff_base;
        s.max_retries = 1_000;
        s.escalate_after = 1_000;
        for w in 0..8u64 {
            s.faults.push(DeviceFault {
                class: DeviceFaultClass::TransientWriteFail,
                trigger: FaultTrigger::OnLine(line_for(0, 0, w)),
                sticky: true,
            });
        }
        s
    }

    #[test]
    fn arrivals_are_non_decreasing_and_seed_deterministic() {
        for kind in ArrivalKind::ALL {
            let mut a = Arrivals::new(kind, 500.0, 42);
            let mut b = Arrivals::new(kind, 500.0, 42);
            let mut last = 0;
            for _ in 0..200 {
                let t = a.next();
                assert_eq!(t, b.next());
                assert!(t >= last);
                last = t;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A retry whose backoff lands past the request's deadline is
        /// never re-admitted: the request times out *at* the deadline
        /// after exactly the one failed attempt — no zombie retries run
        /// on after the client has given up.
        #[test]
        fn retry_never_readmitted_past_deadline(
            arrive in 0u64..1 << 20,
            slack in 1u64..1 << 16,
            extra in 1u64..1 << 16,
        ) {
            let mut cfg = test_cfg();
            cfg.max_request_retries = 1_000;
            // Backoff strictly longer than the deadline slack: the first
            // retry could only start after the deadline.
            let mut shard = shard_with(sticky_schedule(slack + extra), 100, cfg.queue_depth);
            let deadline = arrive + slack;
            let mut retries = 0u64;
            let out = serve_on(&mut shard, &cfg, arrive, deadline, false, 100, &mut retries);
            match out {
                Served::Timeout { at } => prop_assert_eq!(at, deadline),
                _ => prop_assert!(false, "expected a deadline timeout"),
            }
            prop_assert_eq!(retries, 1, "no retry may be re-admitted past the deadline");
        }

        /// Whatever the device does, a request can neither complete past
        /// its deadline nor burn more device attempts than its budget.
        #[test]
        fn serve_on_respects_deadline_and_retry_budget(
            backoff_base in 1u64..1 << 12,
            budget in 1u32..8,
            slack_factor in 2u64..64,
        ) {
            let mut cfg = test_cfg();
            cfg.max_request_retries = budget;
            let service = 100u64;
            let deadline = service * slack_factor;
            let mut shard = shard_with(sticky_schedule(backoff_base), service, cfg.queue_depth);
            let mut retries = 0u64;
            match serve_on(&mut shard, &cfg, 0, deadline, false, service, &mut retries) {
                Served::Done { finish } => prop_assert!(finish <= deadline),
                // A mid-service timeout is noticed at the op boundary
                // just past the deadline; a retry timeout at the
                // deadline itself. Never later.
                Served::Timeout { at } => prop_assert!(at <= deadline + service),
                Served::Failed { .. } => {
                    prop_assert_eq!(retries, budget as u64 + 1);
                }
                Served::Poisoned { .. } | Served::Exhausted { .. } => {}
            }
            prop_assert!(retries <= budget as u64 + 1);
        }
    }
}
