//! Mid-serve crash/recover legs, held to the chaos-campaign bar.
//!
//! Whenever the serving engine quarantines a shard (breaker trip or
//! spare-pool failover), this module runs the chaos campaign's first two
//! legs on the cell's calibration [`Experiment`] while the surviving
//! shards keep serving:
//!
//! 1. **Durable-set equality + PMO linear extension** — the cell's
//!    [`ProbeOracle`] replays under a seeded random fault schedule; the
//!    durable line set must equal the fault-free run's and the acceptance
//!    order must remain a linear extension of the formal persist memory
//!    order.
//! 2. **Crash × recovery reconvergence** — [`Experiment::crash_leg`]: a
//!    formally-sampled crash image of the multi-threaded driven run must
//!    reconverge under interrupted `Strict` recovery, and a copy with a
//!    freshly poisoned log line must reconverge under `Salvage` — the
//!    quarantined shard's recovery path.
//!
//! Any violation surfaces with a copy-pasteable `swctl serve` reproducer
//! embedded, exactly like the chaos campaign's failures.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use strandweaver::experiment::{Experiment, ProbeOracle};
use strandweaver::model::Pmo;
use strandweaver::workloads::driver::DriverOutput;

use crate::ServeConfig;

/// Aggregated results of the legs a serving cell ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LegStats {
    /// Legs completed.
    pub legs: u64,
    /// PMO order edges verified across all legs.
    pub pmo_edges: u64,
    /// Durable-set equality checks passed.
    pub durable_set_checks: u64,
    /// `Strict` reconvergence checks passed.
    pub reconverged_strict: u64,
    /// `Salvage` reconvergence checks passed (the quarantined-shard
    /// path).
    pub reconverged_salvage: u64,
}

/// Per-cell context for the legs: the calibration experiment, its probe
/// oracle, and its driven multi-threaded run to crash with the run's
/// persist memory order, which every leg samples.
#[derive(Debug)]
pub(crate) struct RecoveryContext {
    cfg: ServeConfig,
    cell: Experiment,
    oracle: ProbeOracle,
    out: DriverOutput,
    pmo: Pmo,
    rng: SmallRng,
    pub stats: LegStats,
}

impl RecoveryContext {
    /// Builds the probe oracle, the driven run and its persist memory
    /// order for `cell`, the calibration experiment of `cfg`'s serving
    /// cell.
    pub fn new(cfg: &ServeConfig, cell: Experiment) -> Self {
        let (_, out, pmo) = cell.drive();
        RecoveryContext {
            cfg: cfg.clone(),
            oracle: ProbeOracle::new(&cell),
            cell,
            out,
            pmo,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x5e12_7e5e_12c0_4e12),
            stats: LegStats::default(),
        }
    }

    /// Runs one mid-serve crash/recover leg for a quarantined `shard`.
    ///
    /// # Errors
    ///
    /// The first violated invariant, with the cell's reproducer embedded.
    pub fn leg(&mut self, shard: usize) -> Result<(), String> {
        let leg = self.stats.legs;
        let fail = |detail: String| {
            format!(
                "serve recovery leg {leg} (shard {shard}): {detail}\n  seed {}: reproduce \
                 with `{}`",
                self.cfg.seed,
                self.cfg.repro_cmd()
            )
        };

        let leg_seed = self
            .cfg
            .seed
            .wrapping_add(leg.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ 0x5e12_0000;
        let probe = self.oracle.check(leg_seed).map_err(fail)?;
        self.stats.durable_set_checks += 1;
        self.stats.pmo_edges += probe.pmo_edges as u64;

        self.cell
            .crash_leg(&self.out, &self.pmo, &mut self.rng)
            .map_err(fail)?;
        self.stats.reconverged_strict += 1;
        self.stats.reconverged_salvage += 1;

        self.stats.legs += 1;
        Ok(())
    }
}
