//! Serving reports: per-(design × lang) SLO accounting with render,
//! JSON export, and a strict JSON parser for round-trip validation.

use strandweaver::trace::json::{self, Json};
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

    /// Parses a JSON document produced by [`to_json`](Self::to_json).
    ///
    /// Strict: every field must be present and typed; re-rendering the
    /// parsed report must reproduce the document byte for byte (the CI
    /// round-trip check).
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("serve report JSON: {e}"))?;
        let bench_label = doc.field("bench", Json::as_str)?;
        let bench = BenchmarkId::ALL
            .into_iter()
            .find(|b| b.label() == bench_label)
            .ok_or_else(|| format!("unknown bench '{bench_label}'"))?;
        let arrival_label = doc.field("arrival", Json::as_str)?;
        let arrival = ArrivalKind::from_label(arrival_label)
            .ok_or_else(|| format!("unknown arrival '{arrival_label}'"))?;
        let shed_label = doc.field("shed_policy", Json::as_str)?;
        let shed_policy = ShedPolicy::from_label(shed_label)
            .ok_or_else(|| format!("unknown shed policy '{shed_label}'"))?;
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing cells array")?
            .iter()
            .map(parse_cell)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServeReport {
            bench,
            seed: doc.field("seed", Json::as_u64)?,
            shards: doc.field("shards", Json::as_u64)? as usize,
            requests: doc.field("requests", Json::as_u64)?,
            queue_depth: doc.field("queue_depth", Json::as_u64)? as usize,
            deadline_factor: doc.field("deadline_factor", Json::as_u64)?,
            arrival,
            shed_policy,
            faults: doc.field("faults", Json::as_bool)?,
            cells,
        })
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

fn breaker_state(label: &str) -> Result<BreakerState, String> {
    [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ]
    .into_iter()
    .find(|s| s.label() == label)
    .ok_or_else(|| format!("unknown breaker state '{label}'"))
}

fn parse_cell(cell: &Json) -> Result<ServeCellReport, String> {
    let design_label = cell.field("design", Json::as_str)?;
    let design = HwDesign::from_label(design_label)
        .ok_or_else(|| format!("unknown design '{design_label}'"))?;
    let lang_label = cell.field("lang", Json::as_str)?;
    let lang =
        LangModel::from_label(lang_label).ok_or_else(|| format!("unknown lang '{lang_label}'"))?;
    let buckets = cell
        .get("latency_buckets")
        .and_then(Json::as_arr)
        .ok_or("missing latency_buckets")?
        .iter()
        .map(|b| b.as_u64().ok_or("non-integer latency bucket".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let max_latency = cell.field("max_latency", Json::as_u64)?;
    let latency = HistogramSnapshot {
        name: "serve.latency_cycles".to_string(),
        buckets,
        count: cell.field("latency_count", Json::as_u64)?,
        sum: cell.field("latency_sum", Json::as_u64)?,
        max: max_latency,
    };
    let shards = cell
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or("missing shards array")?
        .iter()
        .map(|s| {
            Ok(ShardReport {
                shard: s.field("shard", Json::as_u64)? as usize,
                state: breaker_state(s.field("state", Json::as_str)?)?,
                served: s.field("served", Json::as_u64)?,
                shed: s.field("shed", Json::as_u64)?,
                unavailable: s.field("unavailable", Json::as_u64)?,
                trips: s.field("trips", Json::as_u64)?,
                failed_over: s.field("failed_over", Json::as_bool)?,
                recovered: s.field("recovered", Json::as_u64)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ServeCellReport {
        design,
        lang,
        offered_load: cell.field("offered_load", Json::as_f64)?,
        service_cycles: cell.field("service_cycles", Json::as_u64)?,
        offered: cell.field("offered", Json::as_u64)?,
        completed: cell.field("completed", Json::as_u64)?,
        shed: cell.field("shed", Json::as_u64)?,
        timeouts: cell.field("timeouts", Json::as_u64)?,
        unavailable: cell.field("unavailable", Json::as_u64)?,
        failed: cell.field("failed", Json::as_u64)?,
        retries: cell.field("retries", Json::as_u64)?,
        poisoned_reads: cell.field("poisoned_reads", Json::as_u64)?,
        breaker_trips: cell.field("breaker_trips", Json::as_u64)?,
        failovers: cell.field("failovers", Json::as_u64)?,
        failover_redirects: cell.field("failover_redirects", Json::as_u64)?,
        recovery_legs: cell.field("recovery_legs", Json::as_u64)?,
        durable_set_checks: cell.field("durable_set_checks", Json::as_u64)?,
        pmo_edges_checked: cell.field("pmo_edges_checked", Json::as_u64)?,
        reconverged_strict: cell.field("reconverged_strict", Json::as_u64)?,
        reconverged_salvage: cell.field("reconverged_salvage", Json::as_u64)?,
        silent_corruptions: cell.field("silent_corruptions", Json::as_u64)?,
        p50: cell.field("p50", Json::as_u64)?,
        p99: cell.field("p99", Json::as_u64)?,
        p999: cell.field("p999", Json::as_u64)?,
        max_latency,
        latency,
        shards,
        events_processed: cell.field("events_processed", Json::as_u64)?,
        sim_cycles: cell.field("sim_cycles", Json::as_u64)?,
    })
}
