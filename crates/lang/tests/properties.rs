//! Property-based crash-consistency tests: arbitrary region workloads must
//! recover consistently under every recoverable design and language model.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sw_lang::harness::{baseline, check_replay_consistency, crash_and_recover};
use sw_lang::{
    FuncCtx, HwDesign, LangModel, LogStrategy, RegionRecord, RuntimeConfig, ThreadRuntime,
};
use sw_model::isa::LockId;
use sw_model::Pmo;
use sw_pmem::PmLayout;

/// One region: which thread runs it and which (word, value) writes it does.
type RegionPlan = (usize, Vec<(u64, u64)>);

fn arb_regions() -> impl Strategy<Value = Vec<RegionPlan>> {
    prop::collection::vec(
        (0usize..2, prop::collection::vec((0u64..8, 1u64..100), 1..5)),
        1..10,
    )
}

fn run_plan(
    plan: &[RegionPlan],
    design: HwDesign,
    lang: LangModel,
) -> (FuncCtx, sw_pmem::PmImage, Vec<RegionRecord>) {
    run_plan_with(plan, design, lang, LogStrategy::Undo)
}

fn run_plan_with(
    plan: &[RegionPlan],
    design: HwDesign,
    lang: LangModel,
    strategy: LogStrategy,
) -> (FuncCtx, sw_pmem::PmImage, Vec<RegionRecord>) {
    let layout = PmLayout::new(2, 256);
    let heap = layout.heap_base();
    let mut ctx = FuncCtx::new(layout.clone(), 2);
    ctx.set_record_program(false);
    let base = baseline(&mut ctx);
    ctx.set_record_program(true);
    let mut rts: Vec<ThreadRuntime> = (0..2)
        .map(|t| {
            let mut cfg = RuntimeConfig::new(design, lang).recording();
            cfg.strategy = strategy;
            ThreadRuntime::new(&layout, t, cfg)
        })
        .collect();
    for (tid, writes) in plan {
        let rt = &mut rts[*tid];
        rt.region_begin(&mut ctx, &[LockId(0)]);
        for (w, v) in writes {
            // All threads share the same 8 words: cross-thread conflicts
            // exercise SPA ordering and the commit-cut chain.
            rt.store(&mut ctx, heap.offset_words(w * 8), *v);
        }
        rt.region_end(&mut ctx);
    }
    if lang.batches_commits() && strategy == LogStrategy::Undo {
        sw_lang::coordinated_commit(&mut ctx, &mut rts);
    }
    let records = rts
        .into_iter()
        .flat_map(ThreadRuntime::into_records)
        .collect();
    (ctx, base, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary conflicting TXN workloads recover consistently under
    /// every ordered design.
    #[test]
    fn txn_crashes_recover_consistently(plan in arb_regions(), seed in 0u64..10_000) {
        for design in [HwDesign::StrandWeaver, HwDesign::NoPersistQueue,
                       HwDesign::IntelX86, HwDesign::Hops] {
            let (ctx, base, records) = run_plan(&plan, design, LangModel::Txn);
            let pmo = Pmo::compute(&ctx.execution(), design.memory_model());
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..8 {
                let outcome = crash_and_recover(&ctx, &base, &pmo, &mut rng);
                let r = check_replay_consistency(&outcome, &base, &records);
                prop_assert!(r.is_ok(), "{design:?}: {:?}", r);
            }
        }
    }

    /// Batched models with coordinated commits recover consistently even
    /// with cross-thread conflicts.
    #[test]
    fn batched_crashes_recover_consistently(plan in arb_regions(), seed in 0u64..10_000) {
        for lang in [LangModel::Sfr, LangModel::Atlas] {
            let (ctx, base, records) = run_plan(&plan, HwDesign::StrandWeaver, lang);
            let pmo = Pmo::compute(&ctx.execution(), HwDesign::StrandWeaver.memory_model());
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..8 {
                let outcome = crash_and_recover(&ctx, &base, &pmo, &mut rng);
                let r = check_replay_consistency(&outcome, &base, &records);
                prop_assert!(r.is_ok(), "{lang:?}: {:?}", r);
            }
        }
    }

    /// Arbitrary conflicting redo workloads recover consistently.
    #[test]
    fn redo_crashes_recover_consistently(plan in arb_regions(), seed in 0u64..10_000) {
        for design in [HwDesign::StrandWeaver, HwDesign::IntelX86] {
            let (ctx, base, records) =
                run_plan_with(&plan, design, LangModel::Txn, LogStrategy::Redo);
            let pmo = Pmo::compute(&ctx.execution(), design.memory_model());
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..8 {
                let outcome = crash_and_recover(&ctx, &base, &pmo, &mut rng);
                let r = check_replay_consistency(&outcome, &base, &records);
                prop_assert!(r.is_ok(), "{design:?} redo: {:?}", r);
            }
        }
    }

    /// Recovery is idempotent on arbitrary sampled crash states, for every
    /// (language model × log strategy) pair: running `recover` twice on the
    /// same crash image yields the same image as running it once. The
    /// log-free Native model runs on eADR (its only legal class), where an
    /// idempotent recovery is trivially a no-op pass over an empty log.
    #[test]
    fn recovery_is_idempotent(plan in arb_regions(), seed in 0u64..10_000) {
        for lang in LangModel::ALL {
            for strategy in LogStrategy::ALL {
                let design = if lang.legal_on(HwDesign::StrandWeaver) {
                    HwDesign::StrandWeaver
                } else {
                    HwDesign::Eadr
                };
                let (ctx, base, _records) = run_plan_with(&plan, design, lang, strategy);
                let pmo = Pmo::compute(&ctx.execution(), design.memory_model());
                let mut rng = SmallRng::seed_from_u64(seed);
                let (mut img, _) = sw_lang::harness::crash_image(&pmo, &base, &mut rng);
                let layout = ctx.mem().layout().clone();
                sw_lang::recovery::recover(&mut img, &layout);
                let snapshot = img.clone();
                sw_lang::recovery::recover(&mut img, &layout);
                prop_assert_eq!(&img, &snapshot, "{}/{} not idempotent", lang, strategy);
            }
        }
    }

    /// On naturally sampled (uninjected) crash images, `Strict`-policy
    /// recovery is bit-identical to the legacy pass for every language
    /// model × log strategy: same recovered image, same report, no fatal
    /// faults, nothing salvaged. Natural crash states can contain torn
    /// slots, but never checksum-valid garbage or poison, so `Strict`
    /// must never refuse one.
    #[test]
    fn strict_policy_matches_legacy_on_natural_images(plan in arb_regions(), seed in 0u64..10_000) {
        for lang in LangModel::ALL {
            for strategy in LogStrategy::ALL {
                let design = if lang.legal_on(HwDesign::StrandWeaver) {
                    HwDesign::StrandWeaver
                } else {
                    HwDesign::Eadr
                };
                let (ctx, base, _records) = run_plan_with(&plan, design, lang, strategy);
                let pmo = Pmo::compute(&ctx.execution(), design.memory_model());
                let mut rng = SmallRng::seed_from_u64(seed);
                let (img, _) = sw_lang::harness::crash_image(&pmo, &base, &mut rng);
                let layout = ctx.mem().layout().clone();
                let mut legacy = img.clone();
                let legacy_report = sw_lang::recovery::recover(&mut legacy, &layout);
                let mut strict = img.clone();
                let outcome = sw_lang::recovery::recover_with_policy(
                    &mut strict,
                    &layout,
                    sw_lang::RecoveryPolicy::Strict,
                );
                prop_assert!(outcome.is_ok(), "{}/{}: {:?}", lang, strategy, outcome);
                let outcome = outcome.unwrap();
                prop_assert_eq!(&strict, &legacy, "{}/{} image diverged", lang, strategy);
                prop_assert_eq!(&outcome.report, &legacy_report);
                prop_assert!(outcome.salvaged_threads.is_empty());
                prop_assert!(outcome.faults.iter().all(|f| !f.is_fatal()));
            }
        }
    }
}

/// `scan_log_detailed` classifies only the written or poisoned slots of a
/// log region and counts the rest as free; it must equal a scan that
/// classifies every slot.
mod sparse_scan {
    use proptest::prelude::*;
    use sw_lang::log::{EntryPayload, EntryType, UndoLog};
    use sw_lang::{classify_slot, scan_log_detailed, DetailedScan, FuncCtx, HwDesign, SlotState};
    use sw_pmem::{Addr, LineAddr, PmImage, PmLayout, Region, CACHE_LINE_BYTES, WORDS_PER_LINE};

    /// Classifies every data slot of `region`: the reference the sparse
    /// scan must equal.
    fn dense_scan(img: &PmImage, region: Region) -> DetailedScan {
        let mut scan = DetailedScan::default();
        for i in 1..region.bytes / CACHE_LINE_BYTES {
            match classify_slot(img, Addr(region.base.raw() + i * CACHE_LINE_BYTES)) {
                SlotState::Free => scan.free += 1,
                SlotState::Invalidated => scan.invalidated += 1,
                SlotState::Valid(e) => scan.entries.push(e),
                SlotState::Torn => scan.torn.push(i),
                SlotState::Corrupt => scan.corrupt.push(i),
                SlotState::Poisoned => scan.poisoned.push(i),
            }
        }
        scan
    }

    /// One change to slot `slot` of thread `tid`'s log region after the
    /// log was persisted.
    #[derive(Debug, Clone)]
    enum Touch {
        /// One word store; the value is often zero.
        Word {
            tid: usize,
            slot: u64,
            word: usize,
            value: u64,
        },
        /// A full-line persist of zeros, which drops the line again.
        Clear { tid: usize, slot: u64 },
        /// An uncorrectable media error, on a line written or not.
        Poison { tid: usize, slot: u64 },
    }

    /// Most touches land among the appended entries; the rest anywhere in
    /// the region, header included.
    fn slot() -> impl Strategy<Value = u64> {
        prop_oneof![3 => 0u64..48, 1 => 0u64..1500]
    }

    fn touch() -> impl Strategy<Value = Touch> {
        let value = prop_oneof![Just(0u64), 1u64..u64::MAX];
        prop_oneof![
            (0usize..3, slot(), 0..WORDS_PER_LINE, value).prop_map(|(tid, slot, word, value)| {
                Touch::Word {
                    tid,
                    slot,
                    word,
                    value,
                }
            }),
            (0usize..3, slot()).prop_map(|(tid, slot)| Touch::Clear { tid, slot }),
            (0usize..3, slot()).prop_map(|(tid, slot)| Touch::Poison { tid, slot }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under `PmLayout::new(3, 1500)` thread 1's region starts mid-page
        /// and thread 2's crosses page boundaries.
        #[test]
        fn sparse_log_scan_matches_a_dense_scan(
            appends in prop::collection::vec((0usize..3, 1u64..1000, 0u64..3, any::<bool>()), 0..40),
            touches in prop::collection::vec(touch(), 0..40),
        ) {
            let layout = PmLayout::new(3, 1500);
            let mut ctx = FuncCtx::new(layout.clone(), 3);
            let mut logs: Vec<UndoLog> =
                (0..3).map(|t| UndoLog::new(layout.log_region(t), t)).collect();
            for (tid, value, aux, commit) in appends {
                let payload = EntryPayload {
                    etype: EntryType::Store,
                    addr: layout.heap_base().offset_words(value),
                    value,
                    aux,
                };
                logs[tid].append(&mut ctx, payload);
                if commit {
                    logs[tid].commit_all(&mut ctx, HwDesign::StrandWeaver);
                }
            }
            ctx.mem_mut().persist_all();
            let mut img = ctx.mem().persisted_image().clone();
            let line = |tid: usize, slot: u64| LineAddr(layout.log_region(tid).base.line().0 + slot);
            for t in touches {
                match t {
                    Touch::Word { tid, slot, word, value } => img.store(line(tid, slot).word(word), value),
                    Touch::Clear { tid, slot } => img.set_line_words(line(tid, slot), [0; WORDS_PER_LINE]),
                    Touch::Poison { tid, slot } => img.poison_line(line(tid, slot)),
                }
            }
            for tid in 0..3 {
                let region = layout.log_region(tid);
                prop_assert_eq!(scan_log_detailed(&img, region), dense_scan(&img, region), "thread {}", tid);
            }
        }
    }
}

/// `harness::crash_image` writes a sampled crash state straight onto a copy
/// of the baseline; it must equal the baseline with `crash::materialize`'s
/// map of the same sampled set applied, poison included (a store heals
/// its line), on random programs and seeds under every memory model.
mod crash_images {
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sw_lang::harness::crash_image;
    use sw_model::crash::{materialize, sample_set};
    use sw_model::{random_interleaving, MemoryModel, OpKind, Pmo, Program};
    use sw_pmem::{Addr, LineAddr, PmImage};

    /// Word `word` of line `line` of six lines that straddle line
    /// 0x40_1000, a page boundary at any power-of-two page size up to
    /// 4,096 lines.
    fn addr(line: u64, word: u64) -> Addr {
        LineAddr(0x40_1000 - 3 + line).word(word as usize)
    }

    fn arb_op() -> impl Strategy<Value = OpKind> {
        prop_oneof![
            6 => (0u64..6, 0u64..2, 1u64..50).prop_map(|(l, w, v)| OpKind::store(addr(l, w), v)),
            1 => Just(OpKind::PersistBarrier),
            1 => Just(OpKind::NewStrand),
            1 => Just(OpKind::JoinStrand),
            1 => Just(OpKind::Sfence),
            1 => Just(OpKind::Ofence),
            1 => Just(OpKind::Dfence),
        ]
    }

    fn arb_program() -> impl Strategy<Value = Program> {
        prop::collection::vec(prop::collection::vec(arb_op(), 1..14), 2).prop_map(|ts| {
            let mut p = Program::new(ts.len());
            for (t, ops) in ts.into_iter().enumerate() {
                for op in ops {
                    p.push(t, op);
                }
            }
            p
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn crash_image_applies_the_materialized_map(
            program in arb_program(),
            seed in any::<u64>(),
            base in prop::collection::vec((0u64..6, 0u64..2, 0u64..50), 0..6),
            poisoned in 0u64..6,
        ) {
            let exec = random_interleaving(&program, &mut SmallRng::seed_from_u64(seed));
            let mut baseline = PmImage::new();
            for (l, w, v) in base {
                baseline.store(addr(l, w), v);
            }
            baseline.poison_line(addr(poisoned, 0).line());
            for model in MemoryModel::ALL {
                let pmo = Pmo::compute(&exec, model);
                let (image, persisted) = crash_image(&pmo, &baseline, &mut SmallRng::seed_from_u64(seed));
                let set = sample_set(&pmo, &mut SmallRng::seed_from_u64(seed));
                let mut want = baseline.clone();
                for (addr, value) in materialize(&pmo, &set) {
                    want.store(addr, value);
                }
                prop_assert_eq!(persisted, set.iter().filter(|&&b| b).count(), "{:?}", model);
                prop_assert!(image == want, "{:?}: crash image differs from the materialized state", model);
            }
        }
    }
}
