//! **sw-serve** — a fault-tolerant open-loop serving layer over the
//! StrandWeaver persistent-memory stack.
//!
//! The figures elsewhere in this workspace measure *closed-loop* cost: a
//! fixed population of threads issues the next region as soon as the
//! previous one retires, so offered load collapses exactly when the
//! system slows down and tail latency is flattered. A storage service
//! sees the opposite: requests arrive on their own clock (open loop), and
//! a slow shard grows a queue instead of slowing its clients. This crate
//! drives the `nstore`-style workload through the simulator as such a
//! service and accounts for what operators actually provision against —
//! p50/p99/p999 latency, goodput, shed and timeout counts — per
//! (hardware design × language model) cell.
//!
//! The robustness machinery mirrors the chaos campaign's bar:
//!
//! * a **seeded open-loop generator** ([`ArrivalKind`]) offers Poisson or
//!   bursty arrivals at a configurable fraction of calibrated capacity;
//! * a **bounded admission queue** sheds load by policy ([`ShedPolicy`]):
//!   drop-tail, deadline-based shed, or token bucket;
//! * requests route to independent **shards**, each fronted by an online
//!   [`DeviceFaultUnit`](strandweaver::faults::DeviceFaultUnit) and a
//!   [`CircuitBreaker`]; repeated persist retries or an MCE-class
//!   poisoned read trip the breaker (`Closed → Open → HalfOpen` with
//!   seeded probes);
//! * a quarantined shard runs **Salvage recovery** through the real
//!   recovery harness while the survivors keep serving (degraded mode:
//!   requests for the quarantined shard return explicit `Unavailable`);
//! * **spare-pool exhaustion** in the remap table fails the shard over
//!   (traffic re-routes to survivors) instead of failing the process;
//! * every mid-serve crash/recover leg is held to the chaos-campaign
//!   bar: durable-set equality against a fault-free run plus a
//!   linear-extension check of the formal persist memory order, with a
//!   copy-pasteable reproducer embedded in any failure.
//!
//! Entry points: [`serve_report`] (one cell), [`serve_sweep`]
//! (tail-latency-vs-offered-load across the legal design × lang matrix),
//! both surfaced as `swctl serve`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use strandweaver::experiment::fan_out;
use strandweaver::{BenchmarkId, HwDesign, LangModel};

mod breaker;
mod engine;
mod report;

pub use breaker::{Admission, BreakerState, CircuitBreaker};
pub use engine::serve_cell;
pub use report::{ServeCellReport, ServeReport, ShardReport};

/// Open-loop arrival process shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless arrivals: exponential inter-arrival gaps at the offered
    /// rate. The canonical open-loop model.
    Poisson,
    /// On/off modulated Poisson: alternating bursts (4x the offered
    /// rate) and lulls (1/4 of it), same seed discipline. Stresses the
    /// admission queue and the shed policies far harder than the
    /// averaged rate suggests.
    Bursty,
}

impl ArrivalKind {
    /// All arrival kinds, in a stable order.
    pub const ALL: [ArrivalKind; 2] = [ArrivalKind::Poisson, ArrivalKind::Bursty];

    /// Short stable label used by the CLI and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
        }
    }

    /// Resolves a CLI label.
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Load-shedding policy applied at admission to each shard's bounded
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Reject when the shard's queue is at capacity. Simple, but under
    /// overload it serves requests that will blow their deadline anyway.
    DropTail,
    /// Reject when the queueing estimate already exceeds the request's
    /// deadline — sheds exactly the work that cannot succeed, preserving
    /// goodput under overload.
    DeadlineShed,
    /// A token bucket refilled at the calibrated sustainable service
    /// rate: bursts above capacity are smoothed into the queue bound and
    /// the excess shed at admission.
    TokenBucket,
}

impl ShedPolicy {
    /// All policies, in a stable order.
    pub const ALL: [ShedPolicy; 3] = [
        ShedPolicy::DropTail,
        ShedPolicy::DeadlineShed,
        ShedPolicy::TokenBucket,
    ];

    /// Short stable label used by the CLI and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ShedPolicy::DropTail => "drop-tail",
            ShedPolicy::DeadlineShed => "deadline",
            ShedPolicy::TokenBucket => "token-bucket",
        }
    }

    /// Resolves a CLI label.
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == s)
    }
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration for one serving run.
///
/// Scale fields (`threads`/`regions`/`ops`) size the *calibration*
/// simulation — a real timing run of the benchmark that yields the
/// per-request service time in simulated cycles — and the crash/recover
/// legs. The serving loop itself is an open-loop queueing simulation in
/// the same virtual cycle domain, fully determined by `seed`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Benchmark the service executes per request.
    pub bench: BenchmarkId,
    /// Language-level persistency model.
    pub lang: LangModel,
    /// Hardware persistency design.
    pub design: HwDesign,
    /// Use redo logging instead of undo.
    pub redo: bool,
    /// Simulated cores for the calibration run.
    pub threads: usize,
    /// Total failure-atomic regions in the calibration run.
    pub regions: usize,
    /// Operations per region (also the line writes per request).
    pub ops: usize,
    /// Seed pinning arrivals, routing, faults, and crash sampling.
    pub seed: u64,
    /// Independent, independently-recoverable shards.
    pub shards: usize,
    /// Requests offered by the open-loop generator.
    pub requests: u64,
    /// Offered load as a fraction of calibrated capacity (1.0 = the
    /// shards can just barely keep up; above 1.0 is overload).
    pub offered_load: f64,
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Load-shedding policy.
    pub shed: ShedPolicy,
    /// Admission queue bound per shard, in requests.
    pub queue_depth: usize,
    /// Request deadline as a multiple of the calibrated service time.
    pub deadline_factor: u64,
    /// Device-level retry budget per request before it counts as a
    /// breaker failure.
    pub max_request_retries: u32,
    /// Inject the seeded chaos-under-load fault schedules (sticky
    /// transient wear-out on one shard, spare-pool exhaustion on
    /// another, a poisoned read). Disable for a clean-capacity baseline.
    pub faults: bool,
}

impl ServeConfig {
    /// A default serving cell for `bench` under `lang × design`.
    pub fn new(bench: BenchmarkId, lang: LangModel, design: HwDesign) -> Self {
        ServeConfig {
            bench,
            lang,
            design,
            redo: false,
            threads: 2,
            regions: 24,
            ops: 2,
            seed: 1234,
            shards: 4,
            requests: 600,
            offered_load: 0.85,
            arrival: ArrivalKind::Poisson,
            shed: ShedPolicy::DropTail,
            queue_depth: 32,
            deadline_factor: 16,
            max_request_retries: 3,
            faults: true,
        }
    }

    /// Sets the seed (builder style, mirroring `Experiment`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The copy-pasteable `swctl serve` invocation reproducing this cell
    /// exactly. `--queue-depth`, `--deadline-factor` and `--no-faults`
    /// appear only where they differ from [`ServeConfig::new`].
    pub fn repro_cmd(&self) -> String {
        let mut cmd = format!(
            "swctl serve {} --lang {} --design {} --threads {} --regions {} --ops {} \
             --shards {} --requests {} --load {} --arrival {} --shed-policy {} --seed {}",
            self.bench,
            self.lang,
            self.design,
            self.threads,
            self.regions,
            self.ops,
            self.shards,
            self.requests,
            self.offered_load,
            self.arrival,
            self.shed,
            self.seed,
        );
        let defaults = ServeConfig::new(self.bench, self.lang, self.design);
        if self.redo {
            cmd.push_str(" --redo");
        }
        if self.queue_depth != defaults.queue_depth {
            cmd.push_str(&format!(" --queue-depth {}", self.queue_depth));
        }
        if self.deadline_factor != defaults.deadline_factor {
            cmd.push_str(&format!(" --deadline-factor {}", self.deadline_factor));
        }
        if !self.faults {
            cmd.push_str(" --no-faults");
        }
        cmd
    }
}

/// Offered-load grid the `--sweep` mode walks per (design × lang) cell:
/// comfortable, near-saturation, and overload.
pub const SWEEP_LOADS: [f64; 3] = [0.5, 0.9, 1.3];

/// Runs one serving cell and wraps it in a single-cell report.
///
/// # Errors
///
/// Any crash/recover leg violating durable-set equality, PMO
/// linear-extension, or reconvergence returns the violation with a
/// copy-pasteable reproducer embedded.
pub fn serve_report(cfg: &ServeConfig) -> Result<ServeReport, String> {
    Ok(ServeReport::new(cfg, vec![engine::serve_cell(cfg)?]))
}

/// Tail-latency-vs-offered-load sweep: every legal (design × lang) cell
/// at each load in [`SWEEP_LOADS`], with `cfg` supplying everything else.
///
/// The cells run in parallel on [`fan_out`]'s bounded pool. Each cell
/// owns its config, seed, calibration run and crash legs, so the
/// report is byte-identical to running them one after another.
///
/// # Errors
///
/// The first cell, in sweep order, whose crash/recover legs fail, with
/// its reproducer. The cells after it have run too.
pub fn serve_sweep(cfg: &ServeConfig) -> Result<ServeReport, String> {
    let mut cell_cfgs = Vec::new();
    for design in HwDesign::ALL {
        for lang in LangModel::ALL {
            if !lang.legal_on(design) {
                continue;
            }
            for load in SWEEP_LOADS {
                let mut cell_cfg = cfg.clone();
                cell_cfg.design = design;
                cell_cfg.lang = lang;
                cell_cfg.offered_load = load;
                cell_cfgs.push(cell_cfg);
            }
        }
    }
    let cells = fan_out(&cell_cfgs, engine::serve_cell)
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(ServeReport::new(cfg, cells))
}
