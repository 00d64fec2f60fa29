//! Deterministic fault injection for sampled crash images.
//!
//! The crash harness in `sw-lang` samples *naturally reachable* crash
//! states: every word either holds its written value or never persisted.
//! This crate perturbs such images with damage that crashes alone cannot
//! produce, so the recovery hardening of `sw-lang::recovery` can be
//! exercised end to end:
//!
//! * [`FaultClass::TornLine`] — zero a subset of a published log entry's
//!   words (always including its checksum), mimicking a partial line
//!   persist of an entry whose in-place update *did* persist — the
//!   dangerous tear the checksum exists to catch.
//! * [`FaultClass::BitFlip`] — flip one bit of a log entry line (silent
//!   media or software corruption).
//! * [`FaultClass::PoisonLine`] — mark the line as an uncorrectable media
//!   error ([`sw_pmem::PmImage::poison_line`]).
//!
//! Every injection is **self-verifying**: after perturbing the image the
//! injector re-classifies the slot ([`sw_lang::classify_slot`]) and
//! re-rolls until the result is a damaged state (`Torn`, `Corrupt`, or
//! `Poisoned`). Without this, an unlucky flip can land on a benign state —
//! e.g. flipping the `TYPE` word's low bit of a `Store` entry produces an
//! *invalidated* slot — and the campaign would count a "missed" detection
//! that never existed. The test
//! `bitflip_with_zero_payload_word_masquerades_as_tear` in `sw-lang`
//! documents the related classification subtlety.
//!
//! Injection is deterministic: [`FaultInjector::new`] seeds a
//! [`SmallRng`], so a failing campaign round reproduces from its seed.
//!
//! # Example
//!
//! ```
//! use sw_faults::{FaultClass, FaultInjector, FaultPlan};
//! use sw_lang::{FuncCtx, HwDesign, LangModel, RuntimeConfig, ThreadRuntime};
//! use sw_model::isa::LockId;
//! use sw_pmem::PmLayout;
//!
//! let layout = PmLayout::new(1, 64);
//! let mut ctx = FuncCtx::new(layout.clone(), 1);
//! let mut rt = ThreadRuntime::new(
//!     &layout, 0, RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn));
//! rt.region_begin(&mut ctx, &[LockId(0)]);
//! rt.store(&mut ctx, layout.heap_base(), 42);
//! rt.region_end(&mut ctx);
//! ctx.mem_mut().persist_all();
//! let mut img = ctx.mem().persisted_image().clone();
//!
//! let mut injector = FaultInjector::new(FaultPlan::single(FaultClass::PoisonLine), 7);
//! let injected = injector.inject(&mut img, &layout);
//! assert_eq!(injected.len(), 1);
//! assert!(img.is_poisoned(sw_pmem::LineAddr(injected[0].line)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;

pub use device::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultTrigger,
    OnlineFaultStats, ReadDecision, WriteDecision, BACKOFF_SHIFT_CAP,
};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sw_lang::log::{W_CHECKSUM, W_TYPE};
use sw_lang::{classify_slot, SlotState};
use sw_pmem::{
    classify_heap_slot, Addr, HeapSlotState, PmImage, PmLayout, CACHE_LINE_BYTES,
    HEAP_JOURNAL_SLOTS, HW_CHECKSUM,
};
use sw_trace::TraceEvent;

/// A class of injectable damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Zero a subset of a published entry's words (checksum included):
    /// a torn persist of an entry whose update may have persisted.
    TornLine,
    /// Flip one bit somewhere in an entry line.
    BitFlip,
    /// Poison the entry's line (uncorrectable media error).
    PoisonLine,
}

impl FaultClass {
    /// All classes, in campaign rotation order.
    pub const ALL: [FaultClass; 3] = [
        FaultClass::TornLine,
        FaultClass::BitFlip,
        FaultClass::PoisonLine,
    ];

    /// Short stable label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::TornLine => "torn",
            FaultClass::BitFlip => "bitflip",
            FaultClass::PoisonLine => "poison",
        }
    }

    /// Label used when the class targets allocator metadata instead of
    /// a workload log.
    pub fn heap_label(self) -> &'static str {
        match self {
            FaultClass::TornLine => "heap-torn",
            FaultClass::BitFlip => "heap-bitflip",
            FaultClass::PoisonLine => "heap-poison",
        }
    }
}

/// What to inject on each [`FaultInjector::inject`] call: one fault per
/// listed class, each into a distinct published log slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fault classes to inject, in order.
    pub classes: Vec<FaultClass>,
}

impl FaultPlan {
    /// A plan injecting a single fault of `class`.
    pub fn single(class: FaultClass) -> Self {
        Self {
            classes: vec![class],
        }
    }

    /// A plan injecting one fault of every class.
    pub fn all() -> Self {
        Self {
            classes: FaultClass::ALL.to_vec(),
        }
    }
}

/// One fault the injector placed, with its verified post-injection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The injected class.
    pub class: FaultClass,
    /// Thread owning the damaged log region.
    pub tid: usize,
    /// Slot index within the region (line offset; slot 0 is the header).
    pub slot: u64,
    /// Damaged cache line (`LineAddr` raw value).
    pub line: u64,
    /// How the slot classifies after injection — always a damaged state.
    pub resulting: SlotState,
}

impl InjectedFault {
    /// `true` when the resulting state fails `Strict`-policy recovery
    /// (corrupt or poisoned, as opposed to a benign-looking tear).
    pub fn is_fatal(&self) -> bool {
        matches!(self.resulting, SlotState::Corrupt | SlotState::Poisoned)
    }

    /// The `FaultInjected` trace event recording this fault.
    pub fn event(&self) -> TraceEvent {
        TraceEvent::FaultInjected {
            thread: self.tid as u32,
            line: self.line,
            class: self.class.label(),
        }
    }
}

/// Deterministic fault injector over crash images.
///
/// Targets are *published* log slots — slots that currently classify as
/// [`SlotState::Valid`] — because damage there is what recovery must
/// detect: free and torn slots are already outside the recovery contract.
/// Each injection picks a distinct slot; when an image has fewer valid
/// slots than the plan has classes, the surplus classes are skipped (the
/// caller sees this from the returned list's length and can treat the
/// round as an uninjected control).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
}

impl FaultInjector {
    /// Creates an injector executing `plan` with randomness derived from
    /// `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            plan,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Injects the plan's faults into `img` and returns what was placed.
    pub fn inject(&mut self, img: &mut PmImage, layout: &PmLayout) -> Vec<InjectedFault> {
        let mut candidates = valid_slots(img, layout);
        let mut injected = Vec::new();
        for &class in &self.plan.classes.clone() {
            if candidates.is_empty() {
                break;
            }
            let pick = self.rng.gen_range(0..candidates.len());
            let (tid, slot, base) = candidates.swap_remove(pick);
            let resulting = self.damage_slot(img, base, class);
            debug_assert!(resulting.is_damaged(), "injection must be detectable");
            injected.push(InjectedFault {
                class,
                tid,
                slot,
                line: base.line().raw(),
                resulting,
            });
        }
        injected
    }

    /// Perturbs the slot at `base` and returns its verified new state.
    fn damage_slot(&mut self, img: &mut PmImage, base: Addr, class: FaultClass) -> SlotState {
        match class {
            FaultClass::PoisonLine => img.poison_line(base.line()),
            FaultClass::TornLine => {
                // Zero the checksum word (guaranteeing a detectable tear —
                // `entry_checksum` is never 0) plus a random subset of the
                // other non-TYPE words, mimicking an arbitrary partial
                // persist. TYPE is kept: zeroing it would classify as a
                // benign invalidated slot.
                img.store(base.offset_words(W_CHECKSUM), 0);
                for w in (W_TYPE + 1)..W_CHECKSUM {
                    if self.rng.gen_bool(0.25) {
                        img.store(base.offset_words(w), 0);
                    }
                }
            }
            FaultClass::BitFlip => {
                // Random flips can land on benign states (an invalidated
                // TYPE, a zero word of a tear-shaped entry that still
                // classifies Valid is impossible, but Invalidated/Free
                // are): retry until the slot classifies as damaged, then
                // fall back to a guaranteed checksum flip.
                for _ in 0..64 {
                    let w = self.rng.gen_range(0..=W_CHECKSUM);
                    let bit = self.rng.gen_range(0..64u32);
                    let addr = base.offset_words(w);
                    let old = img.load(addr);
                    img.store(addr, old ^ (1u64 << bit));
                    if classify_slot(img, base).is_damaged() {
                        return classify_slot(img, base);
                    }
                    img.store(addr, old);
                }
                let addr = base.offset_words(W_CHECKSUM);
                img.store(addr, img.load(addr) ^ (1u64 << 63));
            }
        }
        classify_slot(img, base)
    }
}

/// One allocator-metadata fault the injector placed, with its verified
/// post-injection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedHeapFault {
    /// The injected class.
    pub class: FaultClass,
    /// Heap pool whose journal was damaged.
    pub pool: usize,
    /// Journal slot index within the pool.
    pub slot: u64,
    /// Damaged cache line (`LineAddr` raw value).
    pub line: u64,
    /// How the slot classifies after injection — always a damaged state.
    pub resulting: HeapSlotState,
}

impl InjectedHeapFault {
    /// `true` when the resulting state fails `Strict`-policy recovery
    /// (corrupt or poisoned; a tear is reclaimed as in-flight work).
    pub fn is_fatal(&self) -> bool {
        matches!(
            self.resulting,
            HeapSlotState::Corrupt | HeapSlotState::Poisoned
        )
    }

    /// The `FaultInjected` trace event recording this fault: `thread` is
    /// `u32::MAX` (allocator metadata is pool-owned, not thread-owned) and
    /// the class label carries a `heap-` prefix.
    pub fn event(&self) -> TraceEvent {
        TraceEvent::FaultInjected {
            thread: u32::MAX,
            line: self.line,
            class: self.class.heap_label(),
        }
    }
}

impl FaultInjector {
    /// Injects the plan's faults into the allocator-journal metadata of
    /// `img` — one fault per class, each into a distinct *published*
    /// (checksum-valid) journal slot, possibly across pools. Injection
    /// is self-verifying exactly like the log path: the slot must
    /// re-classify as damaged or the perturbation is re-rolled.
    pub fn inject_heap(&mut self, img: &mut PmImage, layout: &PmLayout) -> Vec<InjectedHeapFault> {
        let mut candidates = valid_heap_slots(img, layout);
        let mut injected = Vec::new();
        for &class in &self.plan.classes.clone() {
            if candidates.is_empty() {
                break;
            }
            let pick = self.rng.gen_range(0..candidates.len());
            let (pool, slot, base) = candidates.swap_remove(pick);
            let resulting = self.damage_heap_slot(img, base, class);
            debug_assert!(
                heap_state_damaged(&resulting),
                "heap injection must be detectable"
            );
            injected.push(InjectedHeapFault {
                class,
                pool,
                slot,
                line: base.line().raw(),
                resulting,
            });
        }
        injected
    }

    /// Perturbs the journal slot at `base` and returns its verified new
    /// state.
    fn damage_heap_slot(
        &mut self,
        img: &mut PmImage,
        base: Addr,
        class: FaultClass,
    ) -> HeapSlotState {
        match class {
            FaultClass::PoisonLine => img.poison_line(base.line()),
            FaultClass::TornLine => {
                // Zero the checksum (a valid record's checksum is never
                // zero) plus a random subset of the payload words after
                // KIND; keeping KIND non-zero rules out the all-zero
                // `Free` classification, so the result is always `Torn`.
                img.store(base.offset_words(HW_CHECKSUM), 0);
                for w in 1..HW_CHECKSUM {
                    if self.rng.gen_bool(0.25) {
                        img.store(base.offset_words(w), 0);
                    }
                }
            }
            FaultClass::BitFlip => {
                // Re-roll flips that land benign (e.g. one that zeroes a
                // word turns the record into a tear-shaped — still
                // detectable — state, but a flip restricted to the unused
                // eighth word would not); fall back to a checksum flip
                // that keeps every word non-zero, i.e. `Corrupt`.
                for _ in 0..64 {
                    let w = self.rng.gen_range(0..=HW_CHECKSUM);
                    let bit = self.rng.gen_range(0..64u32);
                    let addr = base.offset_words(w);
                    let old = img.load(addr);
                    img.store(addr, old ^ (1u64 << bit));
                    let got = classify_heap_slot(img, base);
                    if heap_state_damaged(&got) {
                        return got;
                    }
                    img.store(addr, old);
                }
                let addr = base.offset_words(HW_CHECKSUM);
                img.store(addr, img.load(addr) ^ (1u64 << 63));
            }
        }
        classify_heap_slot(img, base)
    }
}

/// `true` for heap-slot states recovery must notice.
fn heap_state_damaged(s: &HeapSlotState) -> bool {
    matches!(
        s,
        HeapSlotState::Torn | HeapSlotState::Corrupt | HeapSlotState::Poisoned
    )
}

/// Enumerates the published (checksum-valid) allocator-journal slots of
/// every heap pool.
fn valid_heap_slots(img: &PmImage, layout: &PmLayout) -> Vec<(usize, u64, Addr)> {
    let mut out = Vec::new();
    for pool in 0..layout.heap_pools() {
        for slot in 0..HEAP_JOURNAL_SLOTS {
            let base = layout.heap_journal_slot(pool, slot);
            if matches!(classify_heap_slot(img, base), HeapSlotState::Valid(_)) {
                out.push((pool, slot, base));
            }
        }
    }
    out
}

/// Enumerates the published (checksum-valid) log slots of every thread.
fn valid_slots(img: &PmImage, layout: &PmLayout) -> Vec<(usize, u64, Addr)> {
    let mut out = Vec::new();
    for tid in 0..layout.threads() {
        let region = layout.log_region(tid);
        let lines = region.bytes / CACHE_LINE_BYTES;
        for slot in 1..lines {
            let base = Addr(region.base.raw() + slot * CACHE_LINE_BYTES);
            if matches!(classify_slot(img, base), SlotState::Valid(_)) {
                out.push((tid, slot, base));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_lang::recovery::{recover_with_policy, RecoveryPolicy};
    use sw_lang::{FuncCtx, HwDesign, LangModel, RuntimeConfig, ThreadRuntime};
    use sw_model::isa::LockId;

    /// A committed and an uncommitted region: the log holds a commit
    /// record plus two live undo entries.
    fn crashed_image() -> (PmImage, PmLayout) {
        let layout = PmLayout::new(1, 64);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut rt = ThreadRuntime::new(
            &layout,
            0,
            RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn),
        );
        let x = layout.heap_base();
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, x, 42);
        rt.region_end(&mut ctx);
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, x, 43);
        rt.store(&mut ctx, x.offset_words(8), 44);
        // No region_end: entries stay live.
        ctx.mem_mut().persist_all();
        (ctx.mem().persisted_image().clone(), layout)
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let (img, layout) = crashed_image();
        let run = |seed| {
            let mut img = img.clone();
            FaultInjector::new(FaultPlan::all(), seed).inject(&mut img, &layout)
        };
        assert_eq!(run(5), run(5));
        // Distinct seeds eventually pick distinct targets; just ensure the
        // plan fully applies either way.
        assert_eq!(run(5).len(), 3);
        assert_eq!(run(6).len(), 3);
    }

    #[test]
    fn every_class_yields_a_damaged_detectable_slot() {
        for (i, class) in FaultClass::ALL.into_iter().enumerate() {
            let (mut img, layout) = crashed_image();
            let faults = FaultInjector::new(FaultPlan::single(class), 100 + i as u64)
                .inject(&mut img, &layout);
            assert_eq!(faults.len(), 1, "{class:?} must find a target");
            let f = faults[0];
            assert!(f.resulting.is_damaged());
            // Salvage-policy recovery must count the damage.
            let out = recover_with_policy(&mut img, &layout, RecoveryPolicy::Salvage)
                .expect("salvage never errors");
            assert!(
                out.report.detected.total() >= 1,
                "{class:?} went undetected: {:?}",
                out.report.detected
            );
            assert_eq!(out.salvaged_threads, vec![f.tid]);
        }
    }

    #[test]
    fn torn_injection_classifies_torn_and_poison_poisoned() {
        let (mut img, layout) = crashed_image();
        let faults = FaultInjector::new(FaultPlan::single(FaultClass::TornLine), 1)
            .inject(&mut img, &layout);
        assert_eq!(faults[0].resulting, SlotState::Torn);
        assert!(!faults[0].is_fatal());
        let faults = FaultInjector::new(FaultPlan::single(FaultClass::PoisonLine), 1)
            .inject(&mut img, &layout);
        assert_eq!(faults[0].resulting, SlotState::Poisoned);
        assert!(faults[0].is_fatal());
    }

    #[test]
    fn bitflips_over_many_seeds_always_detectable() {
        for seed in 0..50 {
            let (mut img, layout) = crashed_image();
            let faults = FaultInjector::new(FaultPlan::single(FaultClass::BitFlip), seed)
                .inject(&mut img, &layout);
            assert_eq!(faults.len(), 1);
            assert!(faults[0].resulting.is_damaged(), "seed {seed}");
        }
    }

    #[test]
    fn empty_image_yields_no_injection() {
        let layout = PmLayout::new(1, 64);
        let mut img = PmImage::new();
        let faults = FaultInjector::new(FaultPlan::all(), 3).inject(&mut img, &layout);
        assert!(faults.is_empty());
        assert_eq!(img, PmImage::new(), "no targets, no mutation");
    }

    #[test]
    fn plan_faults_land_on_distinct_slots() {
        let (mut img, layout) = crashed_image();
        let faults = FaultInjector::new(FaultPlan::all(), 11).inject(&mut img, &layout);
        let mut slots: Vec<u64> = faults.iter().map(|f| f.slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), faults.len());
    }

    /// Allocator-journal records in every pool: three setup carves per
    /// pool, persisted.
    fn heap_image() -> (PmImage, PmLayout) {
        let layout = PmLayout::new(1, 64);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        for pool in 0..layout.heap_pools() {
            let mut heap = ctx.heap_pool(pool);
            heap.alloc_lines(4);
            heap.alloc_lines(2);
            heap.alloc_lines(1);
        }
        ctx.mem_mut().persist_all();
        (ctx.mem().persisted_image().clone(), layout)
    }

    #[test]
    fn heap_injection_is_deterministic_per_seed() {
        let (img, layout) = heap_image();
        let run = |seed| {
            let mut img = img.clone();
            FaultInjector::new(FaultPlan::all(), seed).inject_heap(&mut img, &layout)
        };
        assert_eq!(run(9), run(9));
        assert_eq!(run(9).len(), 3);
    }

    #[test]
    fn heap_torn_is_benign_and_counted() {
        let (mut img, layout) = heap_image();
        let faults = FaultInjector::new(FaultPlan::single(FaultClass::TornLine), 3)
            .inject_heap(&mut img, &layout);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].resulting, HeapSlotState::Torn);
        assert!(!faults[0].is_fatal());
        let out = recover_with_policy(&mut img.clone(), &layout, RecoveryPolicy::Salvage)
            .expect("salvage never errors");
        assert!(out.report.detected.torn >= 1);
        // A tear is in-flight work, not damage: no pool quarantined.
        assert!(out.salvaged_pools.is_empty());
        // Strict tolerates tears too.
        recover_with_policy(&mut img, &layout, RecoveryPolicy::Strict)
            .expect("tears do not fail strict");
    }

    #[test]
    fn fatal_heap_faults_quarantine_exactly_one_pool() {
        for (i, class) in [FaultClass::BitFlip, FaultClass::PoisonLine]
            .into_iter()
            .enumerate()
        {
            let (mut img, layout) = heap_image();
            let faults = FaultInjector::new(FaultPlan::single(class), 40 + i as u64)
                .inject_heap(&mut img, &layout);
            assert_eq!(faults.len(), 1, "{class:?} must find a target");
            let f = faults[0];
            assert!(f.is_fatal(), "{class:?} must be fatal");
            // Strict fails fast on corrupt/poisoned allocator metadata.
            recover_with_policy(&mut img.clone(), &layout, RecoveryPolicy::Strict)
                .expect_err("strict must refuse fatal heap damage");
            // Salvage quarantines only the affected pool.
            let out = recover_with_policy(&mut img, &layout, RecoveryPolicy::Salvage)
                .expect("salvage never errors");
            assert_eq!(out.salvaged_pools, vec![f.pool], "{class:?}");
            assert!(out.report.detected.total() >= 1);
        }
    }

    #[test]
    fn heap_bitflips_over_many_seeds_always_detectable() {
        for seed in 0..50 {
            let (mut img, layout) = heap_image();
            let faults = FaultInjector::new(FaultPlan::single(FaultClass::BitFlip), seed)
                .inject_heap(&mut img, &layout);
            assert_eq!(faults.len(), 1);
            assert!(
                matches!(
                    faults[0].resulting,
                    HeapSlotState::Torn | HeapSlotState::Corrupt | HeapSlotState::Poisoned
                ),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn heap_injection_reports_exact_fault_location() {
        let (mut img, layout) = heap_image();
        let faults = FaultInjector::new(FaultPlan::single(FaultClass::BitFlip), 17)
            .inject_heap(&mut img, &layout);
        let f = faults[0];
        // The reported (pool, slot) really is the damaged slot.
        assert_eq!(
            layout.heap_journal_slot(f.pool, f.slot).line().raw(),
            f.line
        );
        let got = sw_pmem::classify_heap_slot(&img, layout.heap_journal_slot(f.pool, f.slot));
        assert_eq!(got, f.resulting);
    }

    #[test]
    fn heap_fault_events_use_heap_labels() {
        let (mut img, layout) = heap_image();
        let faults = FaultInjector::new(FaultPlan::all(), 2).inject_heap(&mut img, &layout);
        assert_eq!(faults.len(), 3);
        let labels: Vec<&str> = faults
            .iter()
            .map(|f| match f.event() {
                TraceEvent::FaultInjected {
                    class,
                    thread,
                    line,
                } => {
                    assert_eq!(thread, u32::MAX);
                    assert_eq!(line, f.line);
                    class
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(labels, vec!["heap-torn", "heap-bitflip", "heap-poison"]);
    }

    #[test]
    fn fault_events_name_thread_line_and_class() {
        let (mut img, layout) = crashed_image();
        let faults = FaultInjector::new(FaultPlan::all(), 2).inject(&mut img, &layout);
        assert!(!faults.is_empty());
        for f in &faults {
            assert_eq!(
                f.event(),
                TraceEvent::FaultInjected {
                    thread: f.tid as u32,
                    line: f.line,
                    class: f.class.label(),
                }
            );
        }
    }
}
