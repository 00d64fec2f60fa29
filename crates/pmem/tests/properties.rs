//! Property-based tests for the PM substrate.

use proptest::prelude::*;
use sw_pmem::{Addr, Memory, PmImage, PmLayout, WORDS_PER_LINE};

fn heap_addr(layout: &PmLayout, word: u64) -> Addr {
    layout.heap_base().offset_words(word)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Visible reads always return the last store.
    #[test]
    fn load_returns_last_store(ops in prop::collection::vec((0u64..32, 1u64..1000), 1..60)) {
        let layout = PmLayout::default();
        let mut mem = Memory::new(layout.clone());
        let mut shadow = std::collections::HashMap::new();
        for (w, v) in ops {
            mem.store(heap_addr(&layout, w), v);
            shadow.insert(w, v);
        }
        for (w, v) in shadow {
            prop_assert_eq!(mem.load(heap_addr(&layout, w)), v);
        }
    }

    /// After persisting everything, a crash preserves all stores; without
    /// persisting, a crash loses them all.
    #[test]
    fn crash_semantics(ops in prop::collection::vec((0u64..32, 1u64..1000), 1..40)) {
        let layout = PmLayout::default();
        let mut mem = Memory::new(layout.clone());
        for (w, v) in &ops {
            mem.store(heap_addr(&layout, *w), *v);
        }
        let lost = mem.crash();
        for (w, _) in &ops {
            prop_assert_eq!(lost.load(heap_addr(&layout, *w)), 0);
        }
        mem.persist_all();
        let kept = mem.crash();
        for (w, v) in &ops {
            let expect = ops.iter().rev().find(|(x, _)| x == w).expect("present").1;
            let _ = v;
            prop_assert_eq!(kept.load(heap_addr(&layout, *w)), expect);
        }
    }

    /// Persisting a line drains all words of that line and nothing else.
    #[test]
    fn persist_is_line_granular(words in prop::collection::vec(0u64..(2 * WORDS_PER_LINE as u64), 1..20)) {
        let layout = PmLayout::default();
        let mut mem = Memory::new(layout.clone());
        for &w in &words {
            mem.store(heap_addr(&layout, w), w + 1);
        }
        // Persist only the first heap line.
        mem.persist(layout.heap_base());
        let crashed = mem.crash();
        for &w in &words {
            let expect = if w < WORDS_PER_LINE as u64 { w + 1 } else { 0 };
            prop_assert_eq!(crashed.load(heap_addr(&layout, w)), expect);
        }
    }

    /// Image absorb round-trips arbitrary line contents.
    #[test]
    fn image_absorb_roundtrip(vals in prop::collection::vec(0u64..u64::MAX, WORDS_PER_LINE)) {
        let layout = PmLayout::default();
        let line = layout.heap_base().line();
        let mut src = PmImage::new();
        for (i, v) in vals.iter().enumerate() {
            src.store(line.word(i), *v);
        }
        let mut dst = PmImage::new();
        dst.absorb_line(line, &src);
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(dst.load(line.word(i)), *v);
        }
    }

    /// The layout never hands out overlapping regions.
    #[test]
    fn layout_regions_are_disjoint(threads in 1usize..16, entries in 1u64..512) {
        let layout = PmLayout::new(threads, entries);
        let mut regions = Vec::new();
        for t in 0..threads {
            regions.push(layout.log_region(t));
        }
        regions.push(layout.meta_region());
        regions.push(layout.heap_region());
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                let a_end = a.base.raw() + a.bytes;
                let b_end = b.base.raw() + b.bytes;
                prop_assert!(a_end <= b.base.raw() || b_end <= a.base.raw(),
                    "regions overlap: {a:?} {b:?}");
            }
        }
    }
}

/// A random alloc/free/carve script applied to a [`sw_pmem::PoolAlloc`]
/// with its journal mirrored into a PM image, exactly as the language
/// runtime does it: carve/alloc append an alloc record, free appends a
/// free record once the quarantined block is released.
mod heap {
    use proptest::prelude::*;
    use sw_pmem::{recover_heap, scan_pool, BlockKind, PmImage, PmLayout, PoolAlloc};

    #[derive(Debug, Clone)]
    enum Op {
        Carve(u64),
        Alloc(u64),
        FreeNth(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u64..6).prop_map(Op::Carve),
            (1u64..40).prop_map(Op::Alloc),
            (0usize..16).prop_map(Op::FreeNth),
        ]
    }

    fn write_record(img: &mut PmImage, layout: &PmLayout, (slot, rec): (u64, [u64; 8])) {
        let base = layout.heap_journal_slot(0, slot);
        for (i, &v) in rec.iter().enumerate() {
            img.store(base.offset_words(i as u64), v);
        }
    }

    /// Runs the script, mirroring every durable-effect op into `img`'s
    /// journal. Returns the final volatile pool.
    fn run_script(ops: &[Op], img: &mut PmImage, layout: &PmLayout) -> PoolAlloc {
        img.store(layout.pool_meta_base(0), sw_pmem::HEAP_MAGIC);
        let mut p = PoolAlloc::new(layout.pool_arena_lines(0));
        let mut dynamic: Vec<u64> = Vec::new();
        let mut carving = true;
        for op in ops {
            match *op {
                Op::Carve(n) if carving => {
                    let off = p.carve(n).expect("arena space");
                    write_record(img, layout, p.journal(true, off, n, BlockKind::Carve));
                }
                Op::Carve(_) => {}
                Op::Alloc(n) => {
                    carving = false;
                    let off = p.alloc(n).expect("arena space");
                    let block = n.max(1).next_power_of_two();
                    write_record(img, layout, p.journal(true, off, block, BlockKind::Dynamic));
                    dynamic.push(off);
                }
                Op::FreeNth(i) => {
                    if dynamic.is_empty() {
                        continue;
                    }
                    let off = dynamic.remove(i % dynamic.len());
                    let lines = p.free(off).expect("live dynamic block");
                    write_record(
                        img,
                        layout,
                        p.journal(false, off, lines, BlockKind::Dynamic),
                    );
                }
            }
        }
        p.release_pending();
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// No two live blocks ever overlap, and every arena line is
        /// accounted for exactly once (live + free + pending).
        #[test]
        fn live_blocks_never_overlap(ops in prop::collection::vec(op_strategy(), 1..60)) {
            let layout = PmLayout::new(1, 64);
            let mut img = PmImage::new();
            let p = run_script(&ops, &mut img, &layout);
            let blocks: Vec<_> = p.live_blocks().collect();
            for w in blocks.windows(2) {
                let (a_off, a_len, _) = w[0];
                let (b_off, _, _) = w[1];
                prop_assert!(a_off + a_len <= b_off,
                    "blocks overlap: {:?} {:?}", w[0], w[1]);
            }
            prop_assert!(p.accounting_exact());
        }

        /// Splitting on alloc and coalescing on free round-trip: freeing
        /// everything dynamic restores a fully-coalesced arena.
        #[test]
        fn split_coalesce_round_trip(sizes in prop::collection::vec(1u64..64, 1..24)) {
            let layout = PmLayout::new(1, 64);
            let mut p = PoolAlloc::new(layout.pool_arena_lines(0));
            let offs: Vec<u64> = sizes.iter().map(|&n| p.alloc(n).expect("space")).collect();
            for off in offs {
                prop_assert!(p.free(off).is_some());
            }
            p.release_pending();
            prop_assert_eq!(p.free_lines(), p.arena_lines());
            prop_assert_eq!(p.largest_free_lines(), p.arena_lines());
            prop_assert!(p.accounting_exact());
        }

        /// Journal replay reconstructs exactly the volatile state, and
        /// replaying twice changes nothing (idempotence).
        #[test]
        fn journal_replay_is_idempotent(ops in prop::collection::vec(op_strategy(), 1..60)) {
            let layout = PmLayout::new(1, 64);
            let mut img = PmImage::new();
            let p = run_script(&ops, &mut img, &layout);
            let scan = scan_pool(&img, &layout, 0);
            prop_assert!(scan.faults.is_empty());
            let r1 = PoolAlloc::rebuild(&scan, layout.pool_arena_lines(0)).expect("consistent");
            let r2 = PoolAlloc::rebuild(&scan, layout.pool_arena_lines(0)).expect("consistent");
            prop_assert_eq!(&r1, &r2);
            let live_now: Vec<_> = p.live_blocks().collect();
            let live_replayed: Vec<_> = r1.live_blocks().collect();
            prop_assert_eq!(live_now, live_replayed);
            prop_assert_eq!(p.frontier(), r1.frontier());
            // Whole-heap recovery agrees with the single-pool path.
            let rec = recover_heap(&img, &layout);
            prop_assert!(rec.faults.is_empty());
            prop_assert_eq!(rec.pools[0].as_ref().expect("healthy").live_count(),
                r1.live_count());
        }

        /// Truncating the journal's final record at any word boundary
        /// (a crash mid-publication) never corrupts the scan: the
        /// in-flight record is reclaimed and everything before it
        /// replays cleanly.
        #[test]
        fn torn_tail_record_is_reclaimed(
            ops in prop::collection::vec(op_strategy(), 2..40),
            cut in 0usize..8,
        ) {
            let layout = PmLayout::new(1, 64);
            let mut img = PmImage::new();
            let p = run_script(&ops, &mut img, &layout);
            if p.next_slot == 0 {
                return Ok(());
            }
            // Tear the last record: keep only `cut` of its words.
            let slot = p.next_slot - 1;
            let base = layout.heap_journal_slot(0, slot);
            for w in (cut as u64)..8 {
                img.store(base.offset_words(w), 0);
            }
            let scan = scan_pool(&img, &layout, 0);
            for f in &scan.faults {
                prop_assert!(!f.is_fatal(), "tear misclassified: {f:?}");
            }
            let r = PoolAlloc::rebuild(&scan, layout.pool_arena_lines(0)).expect("consistent");
            prop_assert!(r.accounting_exact());
            // The lost record was one alloc (its block is reclaimed) or
            // one free (its block stays live): one block either way.
            prop_assert!(r.live_count().abs_diff(p.live_count()) <= 1);
        }
    }
}
