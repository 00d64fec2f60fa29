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

// The online device-fault model lives beside the PM device it models;
// its names stay reachable here as well.
pub use sw_pmem::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultTrigger,
    OnlineFaultStats, ReadDecision, WriteDecision, BACKOFF_SHIFT_CAP,
};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sw_lang::log::W_CHECKSUM;
use sw_lang::{classify_slot, SlotState};
use sw_pmem::{
    classify_heap_slot, Addr, HeapSlotState, LineAddr, PmImage, PmLayout, CACHE_LINE_BYTES,
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
        let candidates = valid_slots(img, layout);
        self.inject_slots(img, candidates)
            .into_iter()
            .map(|(class, tid, slot, line, resulting)| InjectedFault {
                class,
                tid,
                slot,
                line,
                resulting,
            })
            .collect()
    }

    /// The one injection loop behind [`inject`](Self::inject) and
    /// [`inject_heap`](Self::inject_heap): each planned class damages a
    /// distinct slot drawn from `candidates` (`(owner, slot, base)`, the
    /// owner being a thread or a pool), and comes back as `(class, owner,
    /// slot, line, verified state)`.
    fn inject_slots<S: Slot>(
        &mut self,
        img: &mut PmImage,
        mut candidates: Vec<(usize, u64, Addr)>,
    ) -> Vec<(FaultClass, usize, u64, u64, S)> {
        let Self { plan, rng } = self;
        let mut injected = Vec::new();
        for &class in &plan.classes {
            if candidates.is_empty() {
                break;
            }
            let pick = rng.gen_range(0..candidates.len());
            let (owner, slot, base) = candidates.swap_remove(pick);
            let resulting = damage::<S>(rng, img, base, class);
            debug_assert!(resulting.damaged(), "injection must be detectable");
            injected.push((class, owner, slot, base.line().raw(), resulting));
        }
        injected
    }
}

/// A slot format the injector damages: workload log slots
/// ([`SlotState`]) and allocator-journal slots ([`HeapSlotState`]).
trait Slot: Copy {
    /// The checksum word. Words `1..CHECKSUM` are payload; word 0 (the
    /// entry type or record kind) is never zero in a published slot.
    const CHECKSUM: u64;
    /// Classifies the slot at `base`.
    fn classify(img: &PmImage, base: Addr) -> Self;
    /// `true` for the states recovery must notice.
    fn damaged(self) -> bool;
    /// `true` for a checksum-valid slot: the only kind the injector damages.
    fn published(self) -> bool;
}

impl Slot for SlotState {
    const CHECKSUM: u64 = W_CHECKSUM;
    fn classify(img: &PmImage, base: Addr) -> Self {
        classify_slot(img, base)
    }
    fn damaged(self) -> bool {
        self.is_damaged()
    }
    fn published(self) -> bool {
        matches!(self, SlotState::Valid(_))
    }
}

impl Slot for HeapSlotState {
    const CHECKSUM: u64 = HW_CHECKSUM;
    fn classify(img: &PmImage, base: Addr) -> Self {
        classify_heap_slot(img, base)
    }
    fn damaged(self) -> bool {
        matches!(
            self,
            HeapSlotState::Torn | HeapSlotState::Corrupt | HeapSlotState::Poisoned
        )
    }
    fn published(self) -> bool {
        matches!(self, HeapSlotState::Valid(_))
    }
}

/// Perturbs the slot at `base` and returns its verified new state.
fn damage<S: Slot>(rng: &mut SmallRng, img: &mut PmImage, base: Addr, class: FaultClass) -> S {
    match class {
        FaultClass::PoisonLine => img.poison_line(base.line()),
        FaultClass::TornLine => {
            // Zero the checksum word (guaranteeing a detectable tear — a
            // published checksum is never 0) plus a random subset of the
            // payload words, mimicking an arbitrary partial persist. Word
            // 0 is kept: zeroing it would classify as a benign
            // invalidated (log) or free (heap) slot.
            img.store(base.offset_words(S::CHECKSUM), 0);
            for w in 1..S::CHECKSUM {
                if rng.gen_bool(0.25) {
                    img.store(base.offset_words(w), 0);
                }
            }
        }
        FaultClass::BitFlip => {
            // Random flips can land on benign states (a flipped log TYPE
            // can read as an invalidated slot): retry until the slot
            // classifies as damaged, then fall back to a guaranteed
            // checksum flip.
            for _ in 0..64 {
                let w = rng.gen_range(0..=S::CHECKSUM);
                let bit = rng.gen_range(0..64u32);
                let addr = base.offset_words(w);
                let old = img.load(addr);
                img.store(addr, old ^ (1u64 << bit));
                let got = S::classify(img, base);
                if got.damaged() {
                    return got;
                }
                img.store(addr, old);
            }
            let addr = base.offset_words(S::CHECKSUM);
            img.store(addr, img.load(addr) ^ (1u64 << 63));
        }
    }
    S::classify(img, base)
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
        let candidates = valid_heap_slots(img, layout);
        self.inject_slots(img, candidates)
            .into_iter()
            .map(|(class, pool, slot, line, resulting)| InjectedHeapFault {
                class,
                pool,
                slot,
                line,
                resulting,
            })
            .collect()
    }
}

/// Enumerates the published (checksum-valid) allocator-journal slots of
/// every heap pool.
fn valid_heap_slots(img: &PmImage, layout: &PmLayout) -> Vec<(usize, u64, Addr)> {
    (0..layout.heap_pools())
        .flat_map(|pool| {
            let slot0 = layout.heap_journal_slot(pool, 0).line();
            published::<HeapSlotState>(img, pool, slot0, 0..HEAP_JOURNAL_SLOTS)
        })
        .collect()
}

/// Enumerates the published (checksum-valid) log slots of every thread.
fn valid_slots(img: &PmImage, layout: &PmLayout) -> Vec<(usize, u64, Addr)> {
    (0..layout.threads())
        .flat_map(|tid| {
            let region = layout.log_region(tid);
            let lines = region.bytes / CACHE_LINE_BYTES;
            published::<SlotState>(img, tid, region.base.line(), 1..lines)
        })
        .collect()
}

/// The published slots among `slots` (slot `i` lives on line `slot0 + i`)
/// of one thread's log or one pool's journal, as `(owner, slot, base)`.
/// Only a written or poisoned line can hold a published slot, so only
/// those lines are classified.
fn published<'a, S: Slot + 'a>(
    img: &'a PmImage,
    owner: usize,
    slot0: LineAddr,
    slots: std::ops::Range<u64>,
) -> impl Iterator<Item = (usize, u64, Addr)> + 'a {
    let lines = LineAddr(slot0.0 + slots.start)..LineAddr(slot0.0 + slots.end);
    img.occupied_lines(lines)
        .filter(|line| S::classify(img, line.base()).published())
        .map(move |line| (owner, line.0 - slot0.0, line.base()))
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

    /// The injector enumerates only written or poisoned slots; it must find
    /// the same published slots as a walk over every slot.
    mod enumeration {
        use super::*;
        use proptest::prelude::*;

        type Slots = Vec<(usize, u64, Addr)>;

        /// The published log and journal slots, found by classifying every
        /// slot of every log region and pool journal.
        fn dense_published(img: &PmImage, layout: &PmLayout) -> (Slots, Slots) {
            let mut log = Vec::new();
            for tid in 0..layout.threads() {
                let region = layout.log_region(tid);
                for slot in 1..region.bytes / CACHE_LINE_BYTES {
                    let base = Addr(region.base.raw() + slot * CACHE_LINE_BYTES);
                    if matches!(classify_slot(img, base), SlotState::Valid(_)) {
                        log.push((tid, slot, base));
                    }
                }
            }
            let mut heap = Vec::new();
            for pool in 0..layout.heap_pools() {
                for slot in 0..HEAP_JOURNAL_SLOTS {
                    let base = layout.heap_journal_slot(pool, slot);
                    if matches!(classify_heap_slot(img, base), HeapSlotState::Valid(_)) {
                        heap.push((pool, slot, base));
                    }
                }
            }
            (log, heap)
        }

        /// A log slot: most land among the slots the run wrote, the rest
        /// anywhere, at the first data slot, or in the last bitmap word of
        /// the region's last page, which is partial for every region.
        fn slot() -> impl Strategy<Value = u64> {
            prop_oneof![3 => 0u64..48, 1 => 0u64..1500, 1 => 1440u64..1500, 1 => Just(1u64)]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Under `PmLayout::new(3, 1500)` log regions and pool journals
            /// start mid-page and cross page boundaries. Each touch hits
            /// log region `target` (0–2) or pool journal `target - 3`
            /// (3–6; the slot scaled into the journal) with a word store
            /// (often of zero), an all-zero line persist, poison, or a copy
            /// of a published slot picked by `value` (which publishes the
            /// target slot too).
            #[test]
            fn slot_enumeration_matches_a_dense_walk(
                regions in prop::collection::vec((0usize..3, 1u64..4), 1..16),
                touches in prop::collection::vec(
                    (0usize..7, slot(), 0u64..4, 0usize..8, prop_oneof![Just(0u64), 1u64..u64::MAX]),
                    0..32,
                ),
            ) {
                let layout = PmLayout::new(3, 1500);
                let mut ctx = FuncCtx::new(layout.clone(), 3);
                ctx.heap().alloc_lines(2);
                let mut rts: Vec<ThreadRuntime> = (0..3)
                    .map(|t| {
                        let cfg = RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn);
                        ThreadRuntime::new(&layout, t, cfg)
                    })
                    .collect();
                for (tid, lines) in regions {
                    let rt = &mut rts[tid];
                    rt.region_begin(&mut ctx, &[LockId(0)]);
                    let a = rt.heap_alloc(&mut ctx, lines);
                    rt.store(&mut ctx, a, lines);
                    rt.region_end(&mut ctx);
                }
                ctx.mem_mut().persist_all();
                let mut img = ctx.mem().persisted_image().clone();
                for (target, slot, kind, word, value) in touches {
                    let line = if target < 3 {
                        LineAddr(layout.log_region(target).base.line().0 + slot)
                    } else {
                        layout.heap_journal_slot(target - 3, slot * HEAP_JOURNAL_SLOTS / 1500).line()
                    };
                    match kind {
                        0 => img.store(line.word(word), value),
                        1 => img.set_line_words(line, [0; 8]),
                        2 => img.poison_line(line),
                        _ => {
                            let (log, heap) = dense_published(&img, &layout);
                            let all: Vec<Addr> = log.iter().chain(&heap).map(|s| s.2).collect();
                            if !all.is_empty() {
                                let src = all[value as usize % all.len()].line();
                                img.set_line_words(line, img.line_words(src));
                            }
                        }
                    }
                }
                let (log, heap) = dense_published(&img, &layout);
                prop_assert_eq!(valid_slots(&img, &layout), log);
                prop_assert_eq!(valid_heap_slots(&img, &layout), heap);
            }
        }
    }
}
