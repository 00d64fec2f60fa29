//! Crash-injection harness: samples model-allowed crash states from a
//! recorded execution, runs recovery, and checks consistency.
//!
//! The harness ties the stack together:
//!
//! 1. A workload runs against [`FuncCtx`] (setup first with program
//!    recording off, then the crash-able phase with recording on).
//! 2. [`crash_image`] computes the phase's persist memory order under the
//!    design's formal model and samples one reachable crash state — a
//!    PMO-down-closed subset of the phase's stores layered over the
//!    persisted baseline.
//! 3. [`recover`](crate::recovery::recover()) repairs the image.
//! 4. A consistency check matching the model's contract
//!    ([`Consistency`](crate::Consistency)) verifies the recovered state:
//!    [`check_replay_consistency`] for the logged models (the recovered
//!    image equals a replay of exactly the committed regions — failure
//!    atomicity plus commit durability), [`check_prefix_consistency`] for
//!    log-free models (the image equals the baseline plus some prefix of
//!    the run's stores in execution order — strict persistency, no
//!    rollback).

use std::collections::HashSet;

use rand::Rng;

use sw_model::crash::sample_set;
use sw_model::{crash, Pmo};
use sw_pmem::{Addr, PmImage, PmLayout};

use crate::ctx::FuncCtx;
use crate::recovery::{
    recover, recover_with_policy, PolicyOutcome, RecoveryPolicy, RecoveryReport,
};
use crate::runtime::RegionRecord;
use sw_model::HwDesign;

/// A sampled crash followed by recovery.
#[derive(Debug)]
pub struct CrashOutcome {
    /// The recovered PM image.
    pub image: PmImage,
    /// What recovery did.
    pub report: RecoveryReport,
    /// How many of the phase's stores had persisted at the crash.
    pub persisted_stores: usize,
}

/// Samples one crash state of the recorded phase over `baseline` (the
/// persisted image at phase start) **without** running recovery.
pub fn crash_image<R: Rng>(
    ctx: &FuncCtx,
    baseline: &PmImage,
    design: HwDesign,
    rng: &mut R,
) -> (PmImage, usize) {
    let pmo = Pmo::compute(&ctx.execution(), design.memory_model());
    let set = sample_set(&pmo, rng);
    let persisted = set.iter().filter(|&&b| b).count();
    let state = crash::materialize(&pmo, &set);
    let mut img = baseline.clone();
    // `materialize` resolves same-word winners by visibility order, so the
    // map can be applied in any order.
    for (addr, value) in state {
        img.store(addr, value);
    }
    (img, persisted)
}

/// Samples one crash state, runs recovery, and returns the outcome.
pub fn crash_and_recover<R: Rng>(
    ctx: &FuncCtx,
    baseline: &PmImage,
    design: HwDesign,
    rng: &mut R,
) -> CrashOutcome {
    let (mut image, persisted_stores) = crash_image(ctx, baseline, design, rng);
    let report = recover(&mut image, ctx.mem().layout());
    CrashOutcome {
        image,
        report,
        persisted_stores,
    }
}

/// Checks that the recovered image equals a replay, over `baseline`, of
/// exactly the regions recovery reports as committed (those whose
/// terminating sequence number is at or below the thread's commit cut).
///
/// This is the conjunction of the guarantees the runtimes owe their
/// programs: committed regions are durable in full, uncommitted regions
/// leave no trace.
///
/// # Errors
///
/// Returns a description of the first mismatching address.
pub fn check_replay_consistency(
    outcome: &CrashOutcome,
    baseline: &PmImage,
    regions: &[RegionRecord],
) -> Result<(), String> {
    let cuts = &outcome.report.per_thread_cut;
    committed_replay(&outcome.image, cuts, &[], baseline, regions).map_err(
        |(addr, want, got, committed)| {
            format!(
                "replay mismatch at {addr}: expected {want}, recovered {got} \
                 ({committed}/{} regions committed, cuts {:?})",
                regions.len(),
                cuts
            )
        },
    )
}

/// The committed-replay check both [`check_replay_consistency`] and
/// [`check_salvage_consistency`] run: replays, over `baseline`, every
/// region at or below its thread's cut, in region order, then compares
/// `image` against it at every address a region wrote — except the
/// regions of `salvaged` threads and every address any of them wrote.
///
/// Returns the first mismatch as `(addr, expected, recovered, committed
/// regions)`.
fn committed_replay(
    image: &PmImage,
    cuts: &[u64],
    salvaged: &[usize],
    baseline: &PmImage,
    regions: &[RegionRecord],
) -> Result<(), (Addr, u64, u64, usize)> {
    let excluded: HashSet<Addr> = regions
        .iter()
        .filter(|r| salvaged.contains(&r.tid))
        .flat_map(|r| r.writes.iter().map(|&(addr, _, _)| addr))
        .collect();
    let mut expected = baseline.clone();
    let mut ordered: Vec<&RegionRecord> = regions.iter().collect();
    ordered.sort_unstable_by_key(|r| r.first_seq);
    let mut committed = 0usize;
    for region in &ordered {
        let cut = cuts.get(region.tid).copied().unwrap_or(0);
        if region.last_seq <= cut {
            committed += 1;
            for &(addr, _old, new) in &region.writes {
                expected.store(addr, new);
            }
        }
    }
    for region in ordered.iter().filter(|r| !salvaged.contains(&r.tid)) {
        for &(addr, _, _) in &region.writes {
            let (want, got) = (expected.load(addr), image.load(addr));
            if want != got && !excluded.contains(&addr) {
                return Err((addr, want, got, committed));
            }
        }
    }
    Ok(())
}

/// Checks that the recovered image equals `baseline` plus some *prefix* of
/// the recorded regions' stores in execution order — the contract of the
/// log-free ([`Consistency::DurablePrefix`](crate::Consistency)) models on
/// persist-at-visibility hardware: strict persistency makes every crash
/// state a prefix of the store order, and with no log there is no rollback,
/// so a crash may land mid-region but never reorders or tears individual
/// stores.
///
/// The check is over the set of addresses the regions wrote (lock words
/// and other protocol state are outside the contract).
///
/// # Errors
///
/// Returns a description of the nearest-miss prefix when no prefix
/// matches.
pub fn check_prefix_consistency(
    outcome: &CrashOutcome,
    baseline: &PmImage,
    regions: &[RegionRecord],
) -> Result<(), String> {
    let mut ordered: Vec<&RegionRecord> = regions.iter().collect();
    ordered.sort_unstable_by_key(|r| r.first_seq);
    let writes: Vec<(sw_pmem::Addr, u64)> = ordered
        .iter()
        .flat_map(|r| r.writes.iter().map(|&(addr, _old, new)| (addr, new)))
        .collect();
    // Walk the prefixes incrementally: `expected` tracks the image after
    // the first k writes, `mismatches` how many written addresses differ
    // from the recovered image.
    let mut expected: std::collections::HashMap<sw_pmem::Addr, u64> = writes
        .iter()
        .map(|&(addr, _)| (addr, baseline.load(addr)))
        .collect();
    let mut mismatches = expected
        .iter()
        .filter(|&(&addr, &want)| outcome.image.load(addr) != want)
        .count();
    let mut best = (mismatches, 0usize);
    if mismatches == 0 {
        return Ok(());
    }
    for (k, &(addr, new)) in writes.iter().enumerate() {
        let got = outcome.image.load(addr);
        let slot = expected.get_mut(&addr).expect("seeded above");
        if (*slot != got) != (new != got) {
            if new == got {
                mismatches -= 1;
            } else {
                mismatches += 1;
            }
        }
        *slot = new;
        if mismatches == 0 {
            return Ok(());
        }
        if mismatches < best.0 {
            best = (mismatches, k + 1);
        }
    }
    Err(format!(
        "no store-order prefix matches the recovered image: best prefix \
         (first {} of {} writes) still differs at {} addresses",
        best.1,
        writes.len(),
        best.0
    ))
}

/// [`check_replay_consistency`] restricted to the data a `Salvage`-policy
/// recovery still vouches for: every address written by a region of a
/// salvaged thread is dropped from the contract (the salvaged thread's log
/// was damaged, so neither its rollback nor its commit evidence can be
/// trusted — including on addresses it shares with healthy threads).
///
/// `image` is the recovered image `recover_with_policy` produced.
///
/// # Errors
///
/// Returns a description of the first mismatching in-contract address.
pub fn check_salvage_consistency(
    image: &PmImage,
    outcome: &PolicyOutcome,
    baseline: &PmImage,
    regions: &[RegionRecord],
) -> Result<(), String> {
    let cuts = &outcome.report.per_thread_cut;
    committed_replay(image, cuts, &outcome.salvaged_threads, baseline, regions).map_err(
        |(addr, want, got, _)| {
            format!(
                "salvage mismatch at {addr}: expected {want}, recovered {got} \
                 (salvaged threads {:?}, cuts {:?})",
                outcome.salvaged_threads, cuts
            )
        },
    )
}

/// Checks that recovery converges when it is itself interrupted by a
/// crash: recover `crash` fully; then, on a fresh copy, persist only a
/// random subset of recovery's writes (the crash-during-recovery state)
/// and recover again. Both paths must land on the identical image.
///
/// This holds because recovery never mutates log regions (see
/// `sw-lang::recovery` module docs): the second pass recomputes the same
/// write list from the untouched logs and overwrites whatever subset the
/// interrupted pass had persisted.
///
/// # Errors
///
/// Returns a description when either recovery fails under `policy` or the
/// two recovered images differ.
pub fn recovery_reconverges<R: Rng>(
    crash: &PmImage,
    layout: &PmLayout,
    policy: RecoveryPolicy,
    rng: &mut R,
) -> Result<(), String> {
    let mut full = crash.clone();
    let outcome = recover_with_policy(&mut full, layout, policy)
        .map_err(|e| format!("baseline recovery failed: {e}"))?;
    let mut interrupted = crash.clone();
    let mut persisted = 0usize;
    for &(addr, value) in &outcome.writes {
        if rng.gen_bool(0.5) {
            interrupted.store(addr, value);
            persisted += 1;
        }
    }
    let second = recover_with_policy(&mut interrupted, layout, policy)
        .map_err(|e| format!("re-recovery after interruption failed: {e}"))?;
    if second.report != outcome.report {
        return Err(format!(
            "re-recovery diverged in its report after {persisted}/{} partial \
             writes: {:?} vs {:?}",
            outcome.writes.len(),
            second.report,
            outcome.report
        ));
    }
    if interrupted != full {
        return Err(format!(
            "re-recovery diverged from the uninterrupted image after \
             {persisted}/{} partial writes persisted",
            outcome.writes.len()
        ));
    }
    Ok(())
}

/// Convenience: runs `iterations` crash/recover/check rounds with fresh
/// randomness and returns the number of failures (0 = all consistent).
pub fn crash_rounds<R: Rng>(
    ctx: &FuncCtx,
    baseline: &PmImage,
    regions: &[RegionRecord],
    design: HwDesign,
    iterations: usize,
    rng: &mut R,
) -> usize {
    let mut failures = 0;
    for _ in 0..iterations {
        let outcome = crash_and_recover(ctx, baseline, design, rng);
        if check_replay_consistency(&outcome, baseline, regions).is_err() {
            failures += 1;
        }
    }
    failures
}

/// Snapshot the current persisted image as a phase baseline, persisting all
/// outstanding dirty lines first (orderly setup completion).
pub fn baseline(ctx: &mut FuncCtx) -> PmImage {
    ctx.mem_mut().persist_all();
    ctx.mem().persisted_image().clone()
}
