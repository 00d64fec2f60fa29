//! What the campaigns measured: one report type per campaign, each with a
//! human-readable `render` and a machine-readable `to_json`.

use std::fmt::Write as _;

use sw_faults::FaultClass;
use sw_lang::{HwDesign, LangModel};
use sw_pmem::OnlineFaultStats;
use sw_trace::{Json, MetricsSnapshot};

/// What [`Experiment::run_chaos_campaign`](super::Experiment::run_chaos_campaign)
/// measured on one (design × language model) cell.
#[derive(Debug, Clone)]
pub struct ChaosCampaignReport {
    /// Hardware design of the cell.
    pub design: HwDesign,
    /// Language model of the cell.
    pub lang: LangModel,
    /// Campaign rounds executed.
    pub rounds: usize,
    /// Accumulated online-fault activity across all probe rounds
    /// (all-zero on designs that bypass the PM controller write path,
    /// e.g. battery-backed eADR).
    pub online: OnlineFaultStats,
    /// Transitively ordered store pairs on distinct lines the faulted
    /// acceptance orders were verified against (summed
    /// [`ProbeCheck::pmo_edges`](super::ProbeCheck::pmo_edges)).
    pub pmo_edges_checked: usize,
    /// Rounds whose interrupted `Strict` recovery reconverged.
    pub reconverged_strict: usize,
    /// Rounds whose interrupted `Salvage` recovery (on a freshly poisoned
    /// log line) reconverged.
    pub reconverged_salvage: usize,
    /// Rounds whose torn remap-table encoding decoded to a mapping prefix.
    pub remap_prefix_checks: usize,
    /// Machine-check traps delivered across the two MCE runs.
    pub mce_traps: usize,
    /// `true` when the `Strict` MCE run fail-stopped (always true when a
    /// trap fired).
    pub mce_strict_aborted: bool,
    /// Threads the `Salvage` MCE run quarantined.
    pub mce_quarantined: Vec<usize>,
    /// Silent corruptions observed (always 0 on `Ok` — a nonzero count
    /// fails the campaign instead).
    pub silent_corruptions: usize,
}

/// One row of the chaos sweep table: the header's column names, or one
/// cell's figures.
fn sweep_row(cols: [String; 9]) -> String {
    let [design, lang, retries, remaps, poison, strict, salvage, edges, mce] = cols;
    format!(
        "{design:<14} {lang:<7} {retries:>7} {remaps:>7} {poison:>7} {strict:>6} {salvage:>6} \
         {edges:>5} {mce:>5}"
    )
}

/// The `faults.online.*` object of a chaos report.
fn online_json(online: &OnlineFaultStats) -> Json {
    Json::Obj(
        online
            .entries()
            .iter()
            .map(|&(k, v)| (format!("faults.online.{k}"), Json::U64(v)))
            .collect(),
    )
}

impl ChaosCampaignReport {
    /// One human-readable summary line for sweep tables.
    pub fn summary_line(&self) -> String {
        sweep_row([
            self.design.to_string(),
            self.lang.to_string(),
            self.online.retries_succeeded.to_string(),
            self.online.lines_remapped.to_string(),
            self.online.reads_poisoned.to_string(),
            self.reconverged_strict.to_string(),
            self.reconverged_salvage.to_string(),
            self.pmo_edges_checked.to_string(),
            self.mce_traps.to_string(),
        ])
    }

    /// Renders the human-readable campaign report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos campaign: {} x {}, {} rounds, {} silent corruptions",
            self.design, self.lang, self.rounds, self.silent_corruptions
        );
        for (k, v) in self.online.entries() {
            let _ = writeln!(s, "  faults.online.{k} = {v}");
        }
        let _ = writeln!(
            s,
            "  pmo edges checked {}, reconverged strict {}/{} salvage {}/{}, \
             remap prefixes {}/{}",
            self.pmo_edges_checked,
            self.reconverged_strict,
            self.rounds,
            self.reconverged_salvage,
            self.rounds,
            self.remap_prefix_checks,
            self.rounds,
        );
        let _ = writeln!(
            s,
            "  mce traps {} (strict aborted: {}, quarantined: {:?})",
            self.mce_traps, self.mce_strict_aborted, self.mce_quarantined
        );
        s
    }

    /// Machine-readable form of the campaign report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("design", Json::Str(self.design.to_string())),
            ("lang", Json::Str(self.lang.to_string())),
            ("rounds", Json::U64(self.rounds as u64)),
            (
                "silent_corruptions",
                Json::U64(self.silent_corruptions as u64),
            ),
            ("online", online_json(&self.online)),
            (
                "pmo_edges_checked",
                Json::U64(self.pmo_edges_checked as u64),
            ),
            (
                "reconverged_strict",
                Json::U64(self.reconverged_strict as u64),
            ),
            (
                "reconverged_salvage",
                Json::U64(self.reconverged_salvage as u64),
            ),
            (
                "remap_prefix_checks",
                Json::U64(self.remap_prefix_checks as u64),
            ),
            ("mce_traps", Json::U64(self.mce_traps as u64)),
            ("mce_strict_aborted", Json::Bool(self.mce_strict_aborted)),
            (
                "mce_quarantined",
                Json::Arr(
                    self.mce_quarantined
                        .iter()
                        .map(|&t| Json::U64(t as u64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// What [`chaos_sweep`](super::chaos_sweep) measured across every legal
/// (design × language model) pair.
#[derive(Debug, Clone)]
pub struct ChaosSweepReport {
    /// Per-cell reports, designs in presentation order.
    pub cells: Vec<ChaosCampaignReport>,
    /// Online-fault activity aggregated across all cells.
    pub online: OnlineFaultStats,
}

impl ChaosSweepReport {
    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let header = [
            "design", "lang", "retries", "remaps", "poison", "rc-str", "rc-sal", "edges", "mce",
        ];
        let mut s = String::new();
        let _ = writeln!(s, "{}", sweep_row(header.map(String::from)));
        for cell in &self.cells {
            let _ = writeln!(s, "{}", cell.summary_line());
        }
        let _ = writeln!(
            s,
            "total: {} retry successes, {} remaps, {} reads poisoned, 0 silent corruptions",
            self.online.retries_succeeded, self.online.lines_remapped, self.online.reads_poisoned,
        );
        s
    }

    /// Machine-readable form of the sweep report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(ChaosCampaignReport::to_json)
                        .collect(),
                ),
            ),
            ("online", online_json(&self.online)),
            ("silent_corruptions", Json::U64(0)),
        ])
    }
}

/// Per-fault-class tally of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Faults injected.
    pub injected: usize,
    /// Faults recovery reported at the exact injected location.
    pub detected: usize,
    /// Faults whose owning thread the `Salvage` policy quarantined.
    pub salvaged: usize,
}

/// What [`Experiment::run_fault_campaign`](super::Experiment::run_fault_campaign)
/// measured.
#[derive(Debug, Clone)]
pub struct FaultCampaignReport {
    /// Campaign rounds executed.
    pub rounds: usize,
    /// Rounds where the crash image held no published log entry, run as
    /// uninjected controls (the `Strict` false-positive check).
    pub control_rounds: usize,
    /// Injected rounds the `Strict` policy refused (every fatal one).
    pub strict_rejections: usize,
    /// Tallies per fault class, in [`FaultClass::ALL`] order.
    pub per_class: Vec<(FaultClass, ClassTally)>,
    /// Rounds whose interrupted re-recovery converged (all of them, or the
    /// campaign would have errored).
    pub reconverged: usize,
    /// Campaign counters (`faults.injected`, `faults.detected`,
    /// `faults.salvaged`, `faults.strict_rejections`,
    /// `faults.control_rounds`).
    pub metrics: MetricsSnapshot,
}

impl FaultCampaignReport {
    /// Total faults injected across classes.
    pub fn injected(&self) -> usize {
        self.per_class.iter().map(|(_, t)| t.injected).sum()
    }

    /// Total faults detected at their exact location.
    pub fn detected(&self) -> usize {
        self.per_class.iter().map(|(_, t)| t.detected).sum()
    }

    /// `true` when every injected fault was detected (the campaign's
    /// headline requirement).
    pub fn fully_detected(&self) -> bool {
        self.injected() == self.detected()
    }

    /// Renders the human-readable campaign table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} rounds ({} injected, {} controls), {} strict rejections, \
             {} reconverged",
            self.rounds,
            self.rounds - self.control_rounds,
            self.control_rounds,
            self.strict_rejections,
            self.reconverged,
        );
        let _ = writeln!(
            s,
            "{:<10} {:>9} {:>9} {:>9}",
            "class", "injected", "detected", "salvaged"
        );
        for (class, t) in &self.per_class {
            let _ = writeln!(
                s,
                "{:<10} {:>9} {:>9} {:>9}",
                class.label(),
                t.injected,
                t.detected,
                t.salvaged
            );
        }
        let _ = writeln!(
            s,
            "detection: {}/{} ({})",
            self.detected(),
            self.injected(),
            if self.fully_detected() {
                "complete"
            } else {
                "INCOMPLETE"
            },
        );
        s
    }

    /// Machine-readable form of the campaign report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rounds", Json::U64(self.rounds as u64)),
            ("control_rounds", Json::U64(self.control_rounds as u64)),
            (
                "strict_rejections",
                Json::U64(self.strict_rejections as u64),
            ),
            ("reconverged", Json::U64(self.reconverged as u64)),
            ("injected", Json::U64(self.injected() as u64)),
            ("detected", Json::U64(self.detected() as u64)),
            ("fully_detected", Json::Bool(self.fully_detected())),
            (
                "per_class",
                Json::Arr(
                    self.per_class
                        .iter()
                        .map(|(class, t)| {
                            Json::obj([
                                ("class", Json::Str(class.label().to_string())),
                                ("injected", Json::U64(t.injected as u64)),
                                ("detected", Json::U64(t.detected as u64)),
                                ("salvaged", Json::U64(t.salvaged as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// End-of-run occupancy of one heap pool
/// ([`Experiment::run_heap_report`](super::Experiment::run_heap_report)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolOccupancy {
    /// Pool index.
    pub pool: usize,
    /// Arena capacity in cache lines.
    pub arena_lines: u64,
    /// Lines consumed by the setup-time carve frontier.
    pub carved_lines: u64,
    /// Live blocks (carves + dynamic allocations).
    pub live_blocks: u64,
    /// Lines held by live blocks.
    pub live_lines: u64,
    /// Lines on the buddy free lists.
    pub free_lines: u64,
    /// Largest contiguous free block, in lines.
    pub largest_free_lines: u64,
    /// External fragmentation: `1 - largest_free / free` (0 when empty).
    pub fragmentation: f64,
    /// Next allocator-journal slot (journal occupancy).
    pub journal_next_slot: u64,
    /// Checkpoints this pool wrote.
    pub checkpoints: u64,
}

/// What [`Experiment::run_heap_report`](super::Experiment::run_heap_report)
/// measured — `swctl heap`.
#[derive(Debug, Clone)]
pub struct HeapReport {
    /// Per-pool occupancy, pool order.
    pub pools: Vec<PoolOccupancy>,
    /// Setup-time frontier carves across pools.
    pub carves: u64,
    /// Run-time dynamic allocations across pools.
    pub allocs: u64,
    /// Run-time frees across pools.
    pub frees: u64,
    /// Journal checkpoints across pools.
    pub checkpoints: u64,
}

impl HeapReport {
    /// Renders the human-readable occupancy table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} carves, {} allocs, {} frees, {} checkpoints",
            self.carves, self.allocs, self.frees, self.checkpoints
        );
        let _ = writeln!(
            s,
            "{:<5} {:>11} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6} {:>8}",
            "pool",
            "arena_lines",
            "carved",
            "blocks",
            "lines",
            "free",
            "largest",
            "frag",
            "journal"
        );
        for p in &self.pools {
            let _ = writeln!(
                s,
                "{:<5} {:>11} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6.3} {:>8}",
                p.pool,
                p.arena_lines,
                p.carved_lines,
                p.live_blocks,
                p.live_lines,
                p.free_lines,
                p.largest_free_lines,
                p.fragmentation,
                p.journal_next_slot,
            );
        }
        s
    }

    /// Machine-readable form of the occupancy report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("carves", Json::U64(self.carves)),
            ("allocs", Json::U64(self.allocs)),
            ("frees", Json::U64(self.frees)),
            ("checkpoints", Json::U64(self.checkpoints)),
            (
                "pools",
                Json::Arr(
                    self.pools
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("pool", Json::U64(p.pool as u64)),
                                ("arena_lines", Json::U64(p.arena_lines)),
                                ("carved_lines", Json::U64(p.carved_lines)),
                                ("live_blocks", Json::U64(p.live_blocks)),
                                ("live_lines", Json::U64(p.live_lines)),
                                ("free_lines", Json::U64(p.free_lines)),
                                ("largest_free_lines", Json::U64(p.largest_free_lines)),
                                ("fragmentation", Json::F64(p.fragmentation)),
                                ("journal_next_slot", Json::U64(p.journal_next_slot)),
                                ("checkpoints", Json::U64(p.checkpoints)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What [`Experiment::run_heap_smoke`](super::Experiment::run_heap_smoke)
/// measured — `swctl heap --verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapSmokeReport {
    /// Crash states audited.
    pub rounds: usize,
    /// In-flight allocations reclaimed across all rounds (leaks that
    /// recovery repaired; zero remain afterwards by construction of the
    /// passing check).
    pub reclaimed_blocks: u64,
    /// Rounds in which at least one leak was found and reclaimed.
    pub rounds_with_leaks: usize,
    /// Blocks reachable from persistent roots across all rounds.
    pub rooted_blocks: u64,
}

impl HeapSmokeReport {
    /// Renders the human-readable smoke summary.
    pub fn render(&self) -> String {
        format!(
            "{} crash states: {} rooted blocks verified live, {} leaked \
             allocations reclaimed ({} rounds leaked), zero leaks remain\n",
            self.rounds, self.rooted_blocks, self.reclaimed_blocks, self.rounds_with_leaks
        )
    }

    /// Machine-readable form of the smoke report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rounds", Json::U64(self.rounds as u64)),
            ("reclaimed_blocks", Json::U64(self.reclaimed_blocks)),
            (
                "rounds_with_leaks",
                Json::U64(self.rounds_with_leaks as u64),
            ),
            ("rooted_blocks", Json::U64(self.rooted_blocks)),
            ("zero_leaks", Json::Bool(true)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use crate::experiment::small;
    use sw_lang::{HwDesign, LangModel};
    use sw_workloads::BenchmarkId;

    #[test]
    fn fault_campaign_report_renders_and_serializes() {
        let report = small(BenchmarkId::ArraySwap, LangModel::Sfr, HwDesign::IntelX86)
            .run_fault_campaign(6)
            .expect("campaign");
        let text = report.render();
        assert!(text.contains("bitflip"), "{text}");
        let json = report.to_json().render();
        for key in ["per_class", "fully_detected", "faults.injected"] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn chaos_campaign_report_renders_and_serializes() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_chaos_campaign(2)
            .expect("campaign");
        let text = report.render();
        assert!(text.contains("faults.online.retries_succeeded"), "{text}");
        let json = report.to_json().render();
        for key in [
            "faults.online.lines_remapped",
            "silent_corruptions",
            "mce_strict_aborted",
        ] {
            assert!(json.contains(key), "{json}");
        }
    }
}
