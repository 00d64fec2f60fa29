//! Performance trajectory: timed runs of the figure targets, the
//! `BENCH_<label>.json` artifact, and the regression comparison behind the
//! CI gate.
//!
//! [`run_bench`] times each simulation-heavy target ([`Target::BENCH`])
//! with warmup passes and repeated measurements, then takes one profiled
//! pass to attribute wall time to simulator phases (via the `sw-perf`
//! ambient profiler). The result serializes to JSON with the in-workspace
//! writer and parses back with [`parse`], so a committed
//! `BENCH_baseline.json` can be compared against a fresh run by
//! [`compare_reports`]: the gate fails when any target's best wall time
//! regresses past the tolerance, and *refuses* to compare reports taken at
//! different scales or repeat counts (a comparison across scales would be
//! noise dressed as signal).
//!
//! Wall-time gating uses the **minimum** over repeats, not the mean: on a
//! loaded CI container the minimum is the best estimate of the code's
//! intrinsic cost, while the mean absorbs scheduler jitter.

use std::fmt::Write as _;
use std::time::Instant;

use sw_trace::Json;

use crate::targets::{Target, TargetFilters};
use crate::Scale;

/// Wall time and phase attribution for one timed target.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTargetResult {
    /// Target label (`fig7`, `table2`, ...).
    pub target: String,
    /// Best wall time over the repeats, seconds (the gated metric).
    pub wall_secs_min: f64,
    /// Mean wall time over the repeats, seconds.
    pub wall_secs_mean: f64,
    /// Discrete events the target processed (identical across repeats —
    /// the simulator is deterministic).
    pub events_processed: u64,
    /// Simulated cycles summed across the target's runs.
    pub sim_cycles: u64,
    /// Events per second of wall time, at the best repeat.
    pub events_per_sec: f64,
    /// Per-phase attribution from the profiled pass, every phase present.
    pub phases: Vec<BenchPhase>,
    /// The hottest phases by share of attributed time, descending.
    pub hot_phases: Vec<String>,
}

/// One simulator phase's share of a profiled target run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPhase {
    /// Phase label (`engine`, `frontend`, ...).
    pub phase: String,
    /// Nanoseconds attributed to the phase.
    pub nanos: u64,
    /// Boundary crossings recorded for the phase.
    pub calls: u64,
    /// Percentage of all attributed time.
    pub pct: f64,
}

/// A full benchmark run: the `BENCH_<label>.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Artifact label (`ci`, `baseline`, a branch name...).
    pub label: String,
    /// The scale every target ran at.
    pub scale: Scale,
    /// Warmup passes per target (untimed).
    pub warmup: usize,
    /// Timed repeats per target.
    pub repeats: usize,
    /// One result per timed target, in [`Target::BENCH`] order.
    pub targets: Vec<BenchTargetResult>,
}

/// How many hot phases a result names.
const HOT_N: usize = 3;

/// Times every [`Target::BENCH`] target at `scale` under `filters`.
///
/// Each target gets `warmup` untimed passes, `repeats` timed passes
/// (minimum one), and a final profiled pass that is *not* timed into the
/// wall figures — profiling costs a clock read per phase boundary, so the
/// gated numbers come from unprofiled runs only.
pub fn run_bench(
    scale: Scale,
    filters: &TargetFilters,
    label: &str,
    warmup: usize,
    repeats: usize,
) -> BenchReport {
    let repeats = repeats.max(1);
    let targets = Target::BENCH
        .into_iter()
        .map(|t| {
            for _ in 0..warmup {
                let _ = t.run(scale, filters);
            }
            let mut walls = Vec::with_capacity(repeats);
            let mut events_processed = 0u64;
            let mut sim_cycles = 0u64;
            for _ in 0..repeats {
                let start = Instant::now();
                let out = t.run(scale, filters);
                walls.push(start.elapsed().as_secs_f64());
                events_processed = out.events_processed;
                sim_cycles = out.sim_cycles;
            }
            sw_perf::set_global_enabled(true);
            let _ = sw_perf::global_take();
            let _ = t.run(scale, filters);
            let snap = sw_perf::global_take();
            sw_perf::set_global_enabled(false);

            let wall_secs_min = walls.iter().copied().fold(f64::INFINITY, f64::min);
            let wall_secs_mean = walls.iter().sum::<f64>() / walls.len() as f64;
            let phases = snap
                .phases
                .iter()
                .map(|p| BenchPhase {
                    phase: p.phase.to_string(),
                    nanos: p.nanos,
                    calls: p.calls,
                    pct: snap.pct(p.phase),
                })
                .collect();
            let hot_phases = snap
                .hot_phases(HOT_N)
                .into_iter()
                .map(|(name, _)| name.to_string())
                .collect();
            BenchTargetResult {
                target: t.label().to_string(),
                wall_secs_min,
                wall_secs_mean,
                events_processed,
                sim_cycles,
                events_per_sec: if wall_secs_min > 0.0 {
                    events_processed as f64 / wall_secs_min
                } else {
                    0.0
                },
                phases,
                hot_phases,
            }
        })
        .collect();
    BenchReport {
        label: label.to_string(),
        scale,
        warmup,
        repeats,
        targets,
    }
}

impl BenchReport {
    /// Serializes the report (the `BENCH_<label>.json` body).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::Str(self.label.clone())),
            (
                "scale",
                Json::obj([
                    ("threads", Json::U64(self.scale.threads as u64)),
                    ("regions", Json::U64(self.scale.regions as u64)),
                    (
                        "ops_per_region",
                        Json::U64(self.scale.ops_per_region as u64),
                    ),
                ]),
            ),
            ("warmup", Json::U64(self.warmup as u64)),
            ("repeats", Json::U64(self.repeats as u64)),
            (
                "targets",
                Json::Arr(
                    self.targets
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("target", Json::Str(t.target.clone())),
                                ("wall_secs_min", Json::F64(t.wall_secs_min)),
                                ("wall_secs_mean", Json::F64(t.wall_secs_mean)),
                                ("events_processed", Json::U64(t.events_processed)),
                                ("sim_cycles", Json::U64(t.sim_cycles)),
                                ("events_per_sec", Json::F64(t.events_per_sec)),
                                (
                                    "phases",
                                    Json::Arr(
                                        t.phases
                                            .iter()
                                            .map(|p| {
                                                Json::obj([
                                                    ("phase", Json::Str(p.phase.clone())),
                                                    ("nanos", Json::U64(p.nanos)),
                                                    ("calls", Json::U64(p.calls)),
                                                    ("pct", Json::F64(p.pct)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "hot_phases",
                                    Json::Arr(
                                        t.hot_phases.iter().map(|h| Json::Str(h.clone())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Formats the report as the `swctl bench` console table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "bench '{}': {} threads x {} regions x {} ops, warmup {}, repeats {}",
            self.label,
            self.scale.threads,
            self.scale.regions,
            self.scale.ops_per_region,
            self.warmup,
            self.repeats
        );
        let _ = writeln!(
            s,
            "  {:8} {:>10} {:>10} {:>12} {:>12}  hot phases",
            "target", "min (s)", "mean (s)", "events", "events/s"
        );
        for t in &self.targets {
            let _ = writeln!(
                s,
                "  {:8} {:>10.4} {:>10.4} {:>12} {:>12.0}  {}",
                t.target,
                t.wall_secs_min,
                t.wall_secs_mean,
                t.events_processed,
                t.events_per_sec,
                t.hot_phases.join(" ")
            );
        }
        s
    }
}

/// Parses a report previously serialized by [`BenchReport::to_json`]
/// (e.g. a committed `BENCH_baseline.json`).
pub fn parse(text: &str) -> Result<BenchReport, String> {
    let j = sw_trace::json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let scale = j.get("scale").ok_or("missing 'scale'")?;
    let scale = Scale {
        threads: scale.field("threads", Json::as_u64)? as usize,
        regions: scale.field("regions", Json::as_u64)? as usize,
        ops_per_region: scale.field("ops_per_region", Json::as_u64)? as usize,
    };
    let targets = j
        .get("targets")
        .and_then(Json::as_arr)
        .ok_or("missing 'targets' array")?
        .iter()
        .map(|t| {
            let phases = t
                .get("phases")
                .and_then(Json::as_arr)
                .ok_or("missing 'phases' array")?
                .iter()
                .map(|p| {
                    Ok(BenchPhase {
                        phase: p.field("phase", Json::as_str)?.to_string(),
                        nanos: p.field("nanos", Json::as_u64)?,
                        calls: p.field("calls", Json::as_u64)?,
                        pct: p.field("pct", Json::as_f64)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let hot_phases = t
                .get("hot_phases")
                .and_then(Json::as_arr)
                .ok_or("missing 'hot_phases' array")?
                .iter()
                .map(|h| h.as_str().map(str::to_string).ok_or("non-string hot phase"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(BenchTargetResult {
                target: t.field("target", Json::as_str)?.to_string(),
                wall_secs_min: t.field("wall_secs_min", Json::as_f64)?,
                wall_secs_mean: t.field("wall_secs_mean", Json::as_f64)?,
                events_processed: t.field("events_processed", Json::as_u64)?,
                sim_cycles: t.field("sim_cycles", Json::as_u64)?,
                events_per_sec: t.field("events_per_sec", Json::as_f64)?,
                phases,
                hot_phases,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchReport {
        label: j.field("label", Json::as_str)?.to_string(),
        scale,
        warmup: j.field("warmup", Json::as_u64)? as usize,
        repeats: j.field("repeats", Json::as_u64)? as usize,
        targets,
    })
}

/// Compares a fresh report against a baseline; the CI regression gate.
///
/// Returns `Ok` with a per-target summary when every target's best wall
/// time stays within `tolerance_pct` percent of the baseline, `Err` with
/// the offending targets otherwise. `scale_wall` multiplies the current
/// report's wall times before comparison — `1.0` in normal use; the CI
/// self-test passes `3.0` to prove the gate actually fires.
///
/// `floors` are absolute `events_per_sec` minimums per target (the
/// `benchcmp --floor fig7:927573` form): unlike the relative tolerance —
/// which follows whatever baseline is committed — a floor pins a past
/// win's magnitude, so it cannot be ratcheted away by re-recording a
/// slower baseline.
///
/// Reports taken at different scales, warmup, or repeat counts are
/// incomparable and always rejected.
pub fn compare_reports(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance_pct: f64,
    scale_wall: f64,
    floors: &[(String, f64)],
) -> Result<String, String> {
    if current.scale != baseline.scale {
        return Err(format!(
            "scale mismatch: current {:?} vs baseline {:?} — wall times are incomparable",
            current.scale, baseline.scale
        ));
    }
    if current.warmup != baseline.warmup || current.repeats != baseline.repeats {
        return Err(format!(
            "methodology mismatch: current warmup={} repeats={} vs baseline warmup={} repeats={}",
            current.warmup, current.repeats, baseline.warmup, baseline.repeats
        ));
    }
    let mut summary = String::new();
    let mut regressions = Vec::new();
    for base in &baseline.targets {
        let Some(cur) = current.targets.iter().find(|t| t.target == base.target) else {
            return Err(format!(
                "target '{}' missing from current report",
                base.target
            ));
        };
        let adjusted = cur.wall_secs_min * scale_wall;
        let delta_pct = if base.wall_secs_min > 0.0 {
            (adjusted / base.wall_secs_min - 1.0) * 100.0
        } else {
            0.0
        };
        let verdict = if delta_pct > tolerance_pct {
            regressions.push(format!(
                "{}: {:.4}s vs baseline {:.4}s ({:+.1}% > +{:.0}% tolerance)",
                base.target, adjusted, base.wall_secs_min, delta_pct, tolerance_pct
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        let _ = writeln!(
            summary,
            "  {:8} {:>10.4}s vs {:>10.4}s baseline ({:+6.1}%) {}",
            base.target, adjusted, base.wall_secs_min, delta_pct, verdict
        );
    }
    for (target, floor) in floors {
        let Some(cur) = current.targets.iter().find(|t| &t.target == target) else {
            return Err(format!(
                "floor target '{target}' missing from current report"
            ));
        };
        let adjusted_wall = cur.wall_secs_min * scale_wall;
        let eps = if adjusted_wall > 0.0 {
            cur.events_processed as f64 / adjusted_wall
        } else {
            0.0
        };
        if eps < *floor {
            regressions.push(format!(
                "{target}: {eps:.0} events/s below floor {floor:.0}"
            ));
            let _ = writeln!(
                summary,
                "  {target:8} {eps:>10.0} events/s < floor {floor:.0} REGRESSED"
            );
        } else {
            let _ = writeln!(
                summary,
                "  {target:8} {eps:>10.0} events/s >= floor {floor:.0} ok"
            );
        }
    }
    if regressions.is_empty() {
        Ok(summary)
    } else {
        Err(format!(
            "{} target(s) regressed:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            threads: 2,
            regions: 4,
            ops_per_region: 2,
        }
    }

    fn sample() -> BenchReport {
        BenchReport {
            label: "test".into(),
            scale: tiny(),
            warmup: 1,
            repeats: 2,
            targets: vec![BenchTargetResult {
                target: "fig7".into(),
                wall_secs_min: 0.125,
                wall_secs_mean: 0.5,
                events_processed: 1000,
                sim_cycles: 2000,
                events_per_sec: 8000.0,
                phases: vec![BenchPhase {
                    phase: "engine".into(),
                    nanos: 42,
                    calls: 7,
                    pct: 100.0,
                }],
                hot_phases: vec!["engine".into()],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_workspace_json() {
        let r = sample();
        let parsed = parse(&r.to_json().render()).expect("parse back");
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_malformed_reports() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"label\": \"x\"}").is_err());
    }

    #[test]
    fn compare_passes_identical_reports() {
        let r = sample();
        let summary = compare_reports(&r, &r, 25.0, 1.0, &[]).expect("identical reports pass");
        assert!(summary.contains("ok"));
    }

    #[test]
    fn compare_fails_on_artificial_slowdown() {
        let r = sample();
        let err = compare_reports(&r, &r, 25.0, 3.0, &[]).expect_err("3x slowdown must fail");
        assert!(err.contains("fig7"), "{err}");
        assert!(
            err.contains("REGRESSED") || err.contains("regressed"),
            "{err}"
        );
    }

    #[test]
    fn compare_refuses_scale_mismatch() {
        let mut other = sample();
        other.scale.regions = 999;
        let err = compare_reports(&other, &sample(), 25.0, 1.0, &[]).expect_err("scales differ");
        assert!(err.contains("scale mismatch"), "{err}");
    }

    #[test]
    fn compare_refuses_missing_target() {
        let mut cur = sample();
        cur.targets.clear();
        let err = compare_reports(&cur, &sample(), 25.0, 1.0, &[]).expect_err("target missing");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn compare_enforces_events_per_sec_floor() {
        // sample(): 1000 events over 0.125s = 8000 events/s.
        let r = sample();
        let ok = compare_reports(&r, &r, 25.0, 1.0, &[("fig7".into(), 5000.0)])
            .expect("above the floor passes");
        assert!(ok.contains(">= floor"), "{ok}");

        let err = compare_reports(&r, &r, 25.0, 1.0, &[("fig7".into(), 10_000.0)])
            .expect_err("below the floor fails");
        assert!(err.contains("below floor 10000"), "{err}");

        // A floor survives even when the wall-time tolerance would pass:
        // the relative gate compares a report to itself, the absolute
        // floor still fires.
        let err = compare_reports(&r, &r, 100.0, 1.0, &[("fig7".into(), 10_000.0)])
            .expect_err("floor is independent of tolerance");
        assert!(err.contains("fig7"), "{err}");
    }

    #[test]
    fn compare_rejects_floor_for_unknown_target() {
        let r = sample();
        let err = compare_reports(&r, &r, 25.0, 1.0, &[("nope".into(), 1.0)])
            .expect_err("unknown floor target");
        assert!(err.contains("floor target 'nope' missing"), "{err}");
    }

    #[test]
    fn run_bench_times_every_bench_target() {
        let report = run_bench(tiny(), &TargetFilters::default(), "unit", 0, 1);
        assert_eq!(report.targets.len(), Target::BENCH.len());
        for t in &report.targets {
            assert!(t.events_processed > 0, "{} processed no events", t.target);
            assert!(t.events_per_sec > 0.0);
            assert_eq!(t.phases.len(), sw_perf::Phase::ALL.len());
            let attributed: u64 = t.phases.iter().map(|p| p.nanos).sum();
            assert!(attributed > 0, "{} attributed no time", t.target);
            assert!(!t.hot_phases.is_empty());
        }
        // The artifact the harness writes must survive its own parser.
        let parsed = parse(&report.to_json().render()).expect("round-trip");
        assert_eq!(parsed, report);
    }
}
