//! Simulation statistics: cycles, stall breakdowns, CKC, event accounting.

use sw_perf::PerfSnapshot;
use sw_pmem::OnlineFaultStats;
use sw_trace::{Json, MetricsSnapshot, StallKind};

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Trace operations completed.
    pub ops: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// CLWBs issued.
    pub clwbs: u64,
    /// Fences executed.
    pub fences: u64,
    /// Cycles stalled on fence semantics.
    pub stall_fence: u64,
    /// Cycles stalled on a full store queue.
    pub stall_sq_full: u64,
    /// Cycles stalled on a full persist queue / buffer.
    pub stall_pq_full: u64,
    /// Cycles stalled waiting for locks.
    pub stall_lock: u64,
    /// Cycles stalled on a full PM-controller write queue (device
    /// back-pressure seen at a persist-admission point).
    pub stall_pm_wq_full: u64,
    /// Cycles stalled behind a faulted write's retry backoff.
    pub stall_retry_wait: u64,
    /// Cycles busy on memory accesses (loads, including misses).
    pub mem_busy: u64,
    /// Cycle at which the core finished (trace done and queues drained).
    pub done_cycle: u64,
}

impl CoreStats {
    /// Cycles stalled because hardware enforced persist ordering — the
    /// quantity plotted in the paper's Figure 8 (fence stalls plus queue
    /// back-pressure). Device-level back-pressure and retry waits reach
    /// the core through the same persist-admission points, so they are
    /// part of the same aggregate (both are zero without faults or
    /// write-queue saturation).
    pub fn persist_stall_cycles(&self) -> u64 {
        self.stall_fence
            + self.stall_sq_full
            + self.stall_pq_full
            + self.stall_pm_wq_full
            + self.stall_retry_wait
    }

    /// Bumps the stall counter for `cause` by one cycle.
    pub fn record_stall(&mut self, cause: StallKind) {
        self.record_stall_n(cause, 1);
    }

    /// Bumps the stall counter for `cause` by `n` cycles (a waking core
    /// replays its last visit's stall across every cycle it slept).
    pub fn record_stall_n(&mut self, cause: StallKind, n: u64) {
        match cause {
            StallKind::Fence => self.stall_fence += n,
            StallKind::StoreQueueFull => self.stall_sq_full += n,
            StallKind::PersistQueueFull => self.stall_pq_full += n,
            StallKind::Lock => self.stall_lock += n,
            StallKind::PmWriteQueueFull => self.stall_pm_wq_full += n,
            StallKind::RetryWait => self.stall_retry_wait += n,
        }
    }

    /// The stall counter for `cause`.
    pub fn stall_cycles(&self, cause: StallKind) -> u64 {
        match cause {
            StallKind::Fence => self.stall_fence,
            StallKind::StoreQueueFull => self.stall_sq_full,
            StallKind::PersistQueueFull => self.stall_pq_full,
            StallKind::Lock => self.stall_lock,
            StallKind::PmWriteQueueFull => self.stall_pm_wq_full,
            StallKind::RetryWait => self.stall_retry_wait,
        }
    }

    /// JSON object with every counter.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ops", Json::U64(self.ops)),
            ("loads", Json::U64(self.loads)),
            ("stores", Json::U64(self.stores)),
            ("clwbs", Json::U64(self.clwbs)),
            ("fences", Json::U64(self.fences)),
            ("stall_fence", Json::U64(self.stall_fence)),
            ("stall_sq_full", Json::U64(self.stall_sq_full)),
            ("stall_pq_full", Json::U64(self.stall_pq_full)),
            ("stall_lock", Json::U64(self.stall_lock)),
            ("stall_pm_wq_full", Json::U64(self.stall_pm_wq_full)),
            ("stall_retry_wait", Json::U64(self.stall_retry_wait)),
            ("mem_busy", Json::U64(self.mem_busy)),
            ("done_cycle", Json::U64(self.done_cycle)),
        ])
    }
}

/// Discrete-event totals for one simulation run.
///
/// The cycle loop counts `pq_events`, `sb_enqueues` and `steals` itself
/// (plain integer bumps on paths the machine already takes); the other
/// fields are second reports of counts other tallies own, read from them
/// when the run ends: `frontend_ops` and `store_retires` sum the per-core
/// `ops` and `stores` (every issued store retires before its core
/// finishes), `pm_writes` is the PM controller's acceptance count and
/// `persists_visible` the length of the visibility order. All are
/// identical whether or not tracing, metrics, or profiling are attached,
/// and they are the numerator of the harness's events-per-second
/// throughput metric. Following the `stall_causes()` convention, every
/// field is reported for every design — a design that has no persist queue
/// simply reports an explicit zero (e.g. `pq_events` is non-zero only on
/// StrandWeaver hardware, and `persists_visible` only on eADR-class
/// designs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Trace operations completed by the frontends.
    pub frontend_ops: u64,
    /// Stores retired from store queues.
    pub store_retires: u64,
    /// Persist-queue enqueues + dequeues (StrandWeaver designs only).
    pub pq_events: u64,
    /// Strand-buffer appends (designs with a strand buffer unit or an
    /// equivalent ordered persist buffer).
    pub sb_enqueues: u64,
    /// Line writes accepted by the ADR PM controller.
    pub pm_writes: u64,
    /// Stores persisted at coherence visibility (eADR designs only).
    pub persists_visible: u64,
    /// Coherence steals resolved between cores.
    pub steals: u64,
}

impl EventCounts {
    /// Total discrete events processed — the `events_processed` figure
    /// reported per run and per bench target.
    pub fn total(&self) -> u64 {
        self.frontend_ops
            + self.store_retires
            + self.pq_events
            + self.sb_enqueues
            + self.pm_writes
            + self.persists_visible
            + self.steals
    }

    /// JSON object with every counter (explicit zeros included).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("frontend_ops", Json::U64(self.frontend_ops)),
            ("store_retires", Json::U64(self.store_retires)),
            ("pq_events", Json::U64(self.pq_events)),
            ("sb_enqueues", Json::U64(self.sb_enqueues)),
            ("pm_writes", Json::U64(self.pm_writes)),
            ("persists_visible", Json::U64(self.persists_visible)),
            ("steals", Json::U64(self.steals)),
        ])
    }
}

/// Whole-machine results of one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles until the last core drained.
    pub cycles: u64,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Cache lines in the durable persist order the machine produced: the
    /// order writes were accepted by the ADR PM controller, or — for
    /// designs that persist at coherence visibility (eADR) — the order
    /// persistent stores retired.
    pub pm_write_order: Vec<sw_pmem::LineAddr>,
    /// Frozen metrics-registry values (empty unless the machine ran with
    /// `Machine::enable_metrics`). Its counters are read from the tallies
    /// above when the run ends, except `faults.online.persist_retries`.
    pub metrics: MetricsSnapshot,
    /// Discrete-event totals, reported on every run.
    pub events: EventCounts,
    /// Self-profiling snapshot (`None` unless the machine ran with a
    /// profiler installed — the ambient `sw_perf::set_global_enabled`
    /// switch that `SW_PERF=1` flips, or `Machine::enable_profiler` in
    /// tests). The phase table's only copy: no metrics counter repeats it.
    /// Profiling never changes simulated results; this field only reports
    /// where wall time went.
    pub perf: Option<PerfSnapshot>,
    /// Online device-fault counters (`None` unless the run had a
    /// `DeviceFaultSchedule` installed — see `SimConfig::device_faults`).
    /// Absent rather than zero so fault-free output stays bit-identical
    /// to builds that predate the fault layer.
    pub online_faults: Option<OnlineFaultStats>,
}

impl SimStats {
    /// Total CLWBs across cores.
    pub fn total_clwbs(&self) -> u64 {
        self.cores.iter().map(|c| c.clwbs).sum()
    }

    /// CLWBs per thousand cycles — the paper's Table II write-intensity
    /// metric (measured on the non-atomic design).
    pub fn ckc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_clwbs() as f64 * 1000.0 / self.cycles as f64
        }
    }

    /// Total persist-ordering stall cycles across cores (Figure 8).
    pub fn persist_stall_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.persist_stall_cycles()).sum()
    }

    /// Total lock-wait cycles across cores.
    pub fn lock_stall_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.stall_lock).sum()
    }

    /// Serializes the whole run — totals, per-core counters, event
    /// accounting, and the metrics-registry snapshot — as a JSON object
    /// (`swctl run --json`). A `perf` section appears only when the run
    /// was profiled.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cycles".to_string(), Json::U64(self.cycles)),
            (
                "pm_writes".to_string(),
                Json::U64(self.pm_write_order.len() as u64),
            ),
            ("total_clwbs".to_string(), Json::U64(self.total_clwbs())),
            ("ckc".to_string(), Json::F64(self.ckc())),
            (
                "persist_stall_cycles".to_string(),
                Json::U64(self.persist_stall_cycles()),
            ),
            (
                "lock_stall_cycles".to_string(),
                Json::U64(self.lock_stall_cycles()),
            ),
            (
                "events_processed".to_string(),
                Json::U64(self.events.total()),
            ),
            ("events".to_string(), self.events.to_json()),
            (
                "cores".to_string(),
                Json::Arr(self.cores.iter().map(CoreStats::to_json).collect()),
            ),
            ("metrics".to_string(), self.metrics.to_json()),
        ];
        if let Some(perf) = &self.perf {
            fields.push(("perf".to_string(), perf.to_json()));
        }
        if let Some(faults) = &self.online_faults {
            fields.push((
                "online_faults".to_string(),
                Json::Obj(
                    faults
                        .entries()
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::U64(v)))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// A gem5-style multi-line textual report of the run.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "sim.cycles                 {:>12}", self.cycles);
        let _ = writeln!(
            s,
            "sim.pm_writes              {:>12}",
            self.pm_write_order.len()
        );
        let _ = writeln!(s, "sim.events_processed       {:>12}", self.events.total());
        let total = |f: fn(&CoreStats) -> u64| self.cores.iter().map(f).sum::<u64>();
        let _ = writeln!(s, "total.ops                  {:>12}", total(|c| c.ops));
        let _ = writeln!(s, "total.loads                {:>12}", total(|c| c.loads));
        let _ = writeln!(s, "total.stores               {:>12}", total(|c| c.stores));
        let _ = writeln!(s, "total.clwbs                {:>12}", total(|c| c.clwbs));
        let _ = writeln!(s, "total.fences               {:>12}", total(|c| c.fences));
        let _ = writeln!(
            s,
            "total.stall_fence          {:>12}",
            total(|c| c.stall_fence)
        );
        let _ = writeln!(
            s,
            "total.stall_sq_full        {:>12}",
            total(|c| c.stall_sq_full)
        );
        let _ = writeln!(
            s,
            "total.stall_pq_full        {:>12}",
            total(|c| c.stall_pq_full)
        );
        let _ = writeln!(
            s,
            "total.stall_lock           {:>12}",
            total(|c| c.stall_lock)
        );
        let _ = writeln!(
            s,
            "total.stall_pm_wq_full     {:>12}",
            total(|c| c.stall_pm_wq_full)
        );
        let _ = writeln!(
            s,
            "total.stall_retry_wait     {:>12}",
            total(|c| c.stall_retry_wait)
        );
        let _ = writeln!(
            s,
            "total.mem_busy             {:>12}",
            total(|c| c.mem_busy)
        );
        let _ = writeln!(s, "derived.ckc                {:>12.3}", self.ckc());
        if let Some(faults) = &self.online_faults {
            for (k, v) in faults.entries() {
                let _ = writeln!(s, "faults.online.{k:<13}{v:>12}");
            }
        }
        for (i, c) in self.cores.iter().enumerate() {
            let _ = writeln!(
                s,
                "core{i}.done_cycle={} ops={} persist_stalls={} lock_stalls={}",
                c.done_cycle,
                c.ops,
                c.persist_stall_cycles(),
                c.stall_lock
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ckc_computation() {
        let mut s = SimStats {
            cycles: 2000,
            cores: vec![CoreStats::default(); 2],
            ..SimStats::default()
        };
        s.cores[0].clwbs = 6;
        s.cores[1].clwbs = 4;
        assert!((s.ckc() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ckc_of_empty_run_is_zero() {
        let s = SimStats::default();
        assert_eq!(s.ckc(), 0.0);
    }

    #[test]
    fn persist_stall_aggregation() {
        let c = CoreStats {
            stall_fence: 10,
            stall_sq_full: 5,
            stall_pq_full: 3,
            stall_lock: 100, // not a persist stall
            ..CoreStats::default()
        };
        assert_eq!(c.persist_stall_cycles(), 18);
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;

    #[test]
    fn stats_json_round_trips() {
        let mut s = SimStats {
            cycles: 100,
            cores: vec![CoreStats::default(); 2],
            ..SimStats::default()
        };
        s.cores[0].clwbs = 3;
        let doc = sw_trace::json::parse(&s.to_json().render()).expect("valid JSON");
        assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some(100));
        assert_eq!(
            doc.get("cores").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(doc.get("metrics").is_some(), "metrics section present");
        assert_eq!(
            doc.get("events_processed").and_then(Json::as_u64),
            Some(0),
            "event accounting present with explicit zeros"
        );
        assert!(
            doc.get("perf").is_none(),
            "no perf section on an unprofiled run"
        );
    }

    #[test]
    fn profiled_stats_json_carries_perf_section() {
        let s = SimStats {
            perf: Some(PerfSnapshot::default()),
            ..SimStats::default()
        };
        let doc = sw_trace::json::parse(&s.to_json().render()).expect("valid JSON");
        assert!(doc.get("perf").is_some());
    }

    #[test]
    fn event_counts_total_sums_every_field() {
        let e = EventCounts {
            frontend_ops: 1,
            store_retires: 2,
            pq_events: 4,
            sb_enqueues: 8,
            pm_writes: 16,
            persists_visible: 32,
            steals: 64,
        };
        assert_eq!(e.total(), 127);
        let doc = sw_trace::json::parse(&e.to_json().render()).expect("valid JSON");
        assert_eq!(doc.get("pq_events").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("steals").and_then(Json::as_u64), Some(64));
    }

    #[test]
    fn report_includes_totals_and_cores() {
        let mut s = SimStats {
            cycles: 100,
            cores: vec![CoreStats::default(); 2],
            ..SimStats::default()
        };
        s.cores[0].clwbs = 3;
        let r = s.report();
        assert!(r.contains("sim.cycles"));
        assert!(r.contains("total.clwbs                           3"));
        assert!(r.contains("core0."));
        assert!(r.contains("core1."));
    }
}
