//! Serving reports: per-(design × lang) SLO accounting with render and
//! JSON export.

use strandweaver::trace::json::Json;
use strandweaver::trace::HistogramSnapshot;
use strandweaver::{BenchmarkId, HwDesign, LangModel};

use crate::breaker::BreakerState;
use crate::{ArrivalKind, ServeConfig, ShedPolicy};

/// One shard's serving record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Breaker state at end of run (failed-over shards report `open`).
    pub state: BreakerState,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests rejected with explicit `Unavailable` (degraded mode).
    pub unavailable: u64,
    /// Breaker trips.
    pub trips: u64,
    /// Permanently failed over (spare-pool exhaustion).
    pub failed_over: bool,
    /// Crash/recover legs this shard's quarantines ran.
    pub recovered: u64,
}

/// One serving cell: a (design × lang) pair at one offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCellReport {
    /// Hardware design.
    pub design: HwDesign,
    /// Language model.
    pub lang: LangModel,
    /// Offered load as a fraction of calibrated capacity.
    pub offered_load: f64,
    /// Calibrated per-request service time in cycles.
    pub service_cycles: u64,
    /// Requests offered by the open-loop generator.
    pub offered: u64,
    /// Goodput: requests completed within deadline.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests that blew their deadline (includes quarantine losses).
    pub timeouts: u64,
    /// Requests rejected with explicit `Unavailable`.
    pub unavailable: u64,
    /// Requests that exhausted their device retry budget.
    pub failed: u64,
    /// Device-level persist retries across all requests.
    pub retries: u64,
    /// Poisoned (MCE-class) reads consumed.
    pub poisoned_reads: u64,
    /// Breaker trips across all shards.
    pub breaker_trips: u64,
    /// Shards failed over on spare-pool exhaustion.
    pub failovers: u64,
    /// Requests re-routed off failed-over shards.
    pub failover_redirects: u64,
    /// Mid-serve crash/recover legs run.
    pub recovery_legs: u64,
    /// Durable-set equality checks passed.
    pub durable_set_checks: u64,
    /// PMO linear-extension edges verified.
    pub pmo_edges_checked: u64,
    /// Interrupted-Strict reconvergence checks passed.
    pub reconverged_strict: u64,
    /// Poisoned-log Salvage reconvergence checks passed.
    pub reconverged_salvage: u64,
    /// Invariant violations (always 0 on a successful run; failures
    /// return `Err` with a reproducer instead).
    pub silent_corruptions: u64,
    /// Median completion latency in cycles.
    pub p50: u64,
    /// 99th-percentile completion latency in cycles.
    pub p99: u64,
    /// 99.9th-percentile completion latency in cycles.
    pub p999: u64,
    /// Worst completion latency in cycles.
    pub max_latency: u64,
    /// The full power-of-two latency histogram.
    pub latency: HistogramSnapshot,
    /// Per-shard records.
    pub shards: Vec<ShardReport>,
    /// Discrete events the calibration simulation processed.
    pub events_processed: u64,
    /// Simulated cycles of the calibration run.
    pub sim_cycles: u64,
}

/// A full serving report: config echo plus one or more cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Benchmark served per request.
    pub bench: BenchmarkId,
    /// Seed pinning the run.
    pub seed: u64,
    /// Shard count.
    pub shards: usize,
    /// Requests offered per cell.
    pub requests: u64,
    /// Admission queue bound per shard.
    pub queue_depth: usize,
    /// Deadline as a multiple of service time.
    pub deadline_factor: u64,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Shed policy.
    pub shed_policy: ShedPolicy,
    /// Whether the chaos-under-load schedules were injected.
    pub faults: bool,
    /// The cells, in run order.
    pub cells: Vec<ServeCellReport>,
}

impl ServeReport {
    /// Wraps finished `cells` with `cfg`'s echo.
    pub fn new(cfg: &ServeConfig, cells: Vec<ServeCellReport>) -> Self {
        ServeReport {
            bench: cfg.bench,
            seed: cfg.seed,
            shards: cfg.shards,
            requests: cfg.requests,
            queue_depth: cfg.queue_depth,
            deadline_factor: cfg.deadline_factor,
            arrival: cfg.arrival,
            shed_policy: cfg.shed,
            faults: cfg.faults,
            cells,
        }
    }

    /// Total breaker trips across cells.
    pub fn breaker_trips(&self) -> u64 {
        self.cells.iter().map(|c| c.breaker_trips).sum()
    }

    /// Total failovers across cells.
    pub fn failovers(&self) -> u64 {
        self.cells.iter().map(|c| c.failovers).sum()
    }

    /// Total invariant violations across cells (0 on success).
    pub fn silent_corruptions(&self) -> u64 {
        self.cells.iter().map(|c| c.silent_corruptions).sum()
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve: bench {} | {} arrivals, {} shed | {} shards x depth {} | {} reqs/cell | seed {}\n",
            self.bench, self.arrival, self.shed_policy, self.shards, self.queue_depth,
            self.requests, self.seed,
        ));
        out.push_str(&format!(
            "{:<14} {:<7} {:>5} {:>8} {:>8} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8} {:>6} {:>5}\n",
            "design",
            "lang",
            "load",
            "goodput",
            "shed",
            "t/o",
            "unavl",
            "trips",
            "p50",
            "p99",
            "p999",
            "fails",
            "legs",
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<14} {:<7} {:>5.2} {:>8} {:>8} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8} {:>6} {:>5}\n",
                c.design.label(),
                c.lang.label(),
                c.offered_load,
                c.completed,
                c.shed,
                c.timeouts,
                c.unavailable,
                c.breaker_trips,
                c.p50,
                c.p99,
                c.p999,
                c.failovers,
                c.recovery_legs,
            ));
        }
        out.push_str(&format!(
            "totals: trips {} | failovers {} | silent corruptions {}\n",
            self.breaker_trips(),
            self.failovers(),
            self.silent_corruptions(),
        ));
        out
    }

    /// Machine-readable JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::Str(self.bench.label().to_string())),
            ("seed", Json::U64(self.seed)),
            ("shards", Json::U64(self.shards as u64)),
            ("requests", Json::U64(self.requests)),
            ("queue_depth", Json::U64(self.queue_depth as u64)),
            ("deadline_factor", Json::U64(self.deadline_factor)),
            ("arrival", Json::Str(self.arrival.label().to_string())),
            (
                "shed_policy",
                Json::Str(self.shed_policy.label().to_string()),
            ),
            ("faults", Json::Bool(self.faults)),
            ("breaker_trips", Json::U64(self.breaker_trips())),
            ("failovers", Json::U64(self.failovers())),
            ("silent_corruptions", Json::U64(self.silent_corruptions())),
            (
                "cells",
                Json::Arr(self.cells.iter().map(cell_json).collect()),
            ),
        ])
    }
}

fn cell_json(c: &ServeCellReport) -> Json {
    Json::obj([
        ("design", Json::Str(c.design.label().to_string())),
        ("lang", Json::Str(c.lang.label().to_string())),
        ("offered_load", Json::F64(c.offered_load)),
        ("service_cycles", Json::U64(c.service_cycles)),
        ("offered", Json::U64(c.offered)),
        ("completed", Json::U64(c.completed)),
        ("shed", Json::U64(c.shed)),
        ("timeouts", Json::U64(c.timeouts)),
        ("unavailable", Json::U64(c.unavailable)),
        ("failed", Json::U64(c.failed)),
        ("retries", Json::U64(c.retries)),
        ("poisoned_reads", Json::U64(c.poisoned_reads)),
        ("breaker_trips", Json::U64(c.breaker_trips)),
        ("failovers", Json::U64(c.failovers)),
        ("failover_redirects", Json::U64(c.failover_redirects)),
        ("recovery_legs", Json::U64(c.recovery_legs)),
        ("durable_set_checks", Json::U64(c.durable_set_checks)),
        ("pmo_edges_checked", Json::U64(c.pmo_edges_checked)),
        ("reconverged_strict", Json::U64(c.reconverged_strict)),
        ("reconverged_salvage", Json::U64(c.reconverged_salvage)),
        ("silent_corruptions", Json::U64(c.silent_corruptions)),
        ("p50", Json::U64(c.p50)),
        ("p99", Json::U64(c.p99)),
        ("p999", Json::U64(c.p999)),
        ("max_latency", Json::U64(c.max_latency)),
        (
            "latency_buckets",
            Json::Arr(c.latency.buckets.iter().map(|&b| Json::U64(b)).collect()),
        ),
        ("latency_count", Json::U64(c.latency.count)),
        ("latency_sum", Json::U64(c.latency.sum)),
        (
            "shards",
            Json::Arr(
                c.shards
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("shard", Json::U64(s.shard as u64)),
                            ("state", Json::Str(s.state.label().to_string())),
                            ("served", Json::U64(s.served)),
                            ("shed", Json::U64(s.shed)),
                            ("unavailable", Json::U64(s.unavailable)),
                            ("trips", Json::U64(s.trips)),
                            ("failed_over", Json::Bool(s.failed_over)),
                            ("recovered", Json::U64(s.recovered)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("events_processed", Json::U64(c.events_processed)),
        ("sim_cycles", Json::U64(c.sim_cycles)),
    ])
}
