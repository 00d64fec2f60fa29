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

/// The sparse line walk ([`sw_pmem::PmImage::occupied_lines`]) and the scans
/// built on it must see exactly what a dense walk over every line sees, on
/// images holding written lines, zero-valued stores, lines cleared by an
/// all-zero `set_line_words`, and lines poisoned without ever being written.
mod sparse {
    use proptest::prelude::*;
    use std::collections::HashSet;
    use sw_pmem::{
        classify_heap_slot, encode_heap_record, scan_pool, BlockKind, HeapFault, HeapSlotState,
        LineAddr, PmImage, PmLayout, PoolScan, HEAP_JOURNAL_SLOTS, HEAP_MAGIC, WORDS_PER_LINE,
    };

    /// One change to one line of an image.
    #[derive(Debug, Clone)]
    enum Touch {
        /// A checksum-valid allocator record of `epoch`.
        Record { line: u64, epoch: u64, seq: u64 },
        /// One word store; the value is often zero.
        Word { line: u64, word: u64, value: u64 },
        /// A full-line persist of zeros, which drops the line again.
        Clear { line: u64 },
        /// An uncorrectable media error, on a line written or not.
        Poison { line: u64 },
    }

    fn touch(lines: u64) -> impl Strategy<Value = Touch> {
        let value = prop_oneof![Just(0u64), 1u64..u64::MAX];
        prop_oneof![
            (0..lines, 0u64..2, 0u64..64).prop_map(|(line, epoch, seq)| Touch::Record {
                line,
                epoch,
                seq
            }),
            (0..lines, 0u64..WORDS_PER_LINE as u64, value)
                .prop_map(|(line, word, value)| Touch::Word { line, word, value }),
            (0..lines).prop_map(|line| Touch::Clear { line }),
            (0..lines).prop_map(|line| Touch::Poison { line }),
        ]
    }

    /// Applies `touches` to the lines `first + touch.line`.
    fn apply(img: &mut PmImage, first: LineAddr, touches: &[Touch]) {
        let at = |line: u64| LineAddr(first.0 + line);
        for t in touches {
            match *t {
                Touch::Record { line, epoch, seq } => {
                    let words = encode_heap_record(true, seq, 1, seq, epoch, BlockKind::Dynamic);
                    img.set_line_words(at(line), words);
                }
                Touch::Word { line, word, value } => img.store(at(line).word(word as usize), value),
                Touch::Clear { line } => img.set_line_words(at(line), [0; WORDS_PER_LINE]),
                Touch::Poison { line } => img.poison_line(at(line)),
            }
        }
    }

    /// The journal part of `scan_pool`, visiting every slot (the pool has
    /// no published table, so the active epoch is 0).
    fn dense_journal(img: &PmImage, layout: &PmLayout, pool: usize) -> PoolScan {
        let mut scan = PoolScan {
            pool,
            formatted: true,
            epoch: 0,
            base_blocks: Vec::new(),
            records: Vec::new(),
            stale_records: 0,
            high_slot: 0,
            faults: Vec::new(),
        };
        for slot in 0..HEAP_JOURNAL_SLOTS {
            let base = layout.heap_journal_slot(pool, slot);
            let state = classify_heap_slot(img, base);
            if state != HeapSlotState::Free {
                scan.high_slot = slot + 1;
            }
            match state {
                HeapSlotState::Free => {}
                HeapSlotState::Valid(mut r) if r.epoch == 0 => {
                    r.slot = slot;
                    scan.records.push(r);
                }
                HeapSlotState::Valid(_) => scan.stale_records += 1,
                HeapSlotState::Torn => scan.faults.push(HeapFault::TornRecord { pool, slot }),
                HeapSlotState::Corrupt => scan.faults.push(HeapFault::CorruptRecord { pool, slot }),
                HeapSlotState::Poisoned => scan.faults.push(HeapFault::Poisoned {
                    pool,
                    line: base.line().raw(),
                }),
            }
        }
        scan.records.sort_by_key(|r| r.seq);
        scan
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `occupied_lines` yields, in ascending order, exactly the lines
        /// of the range that are written or poisoned; every other line
        /// reads zero. `line_words` agrees with word loads everywhere.
        /// The 2,600-line window starts 300 lines below a multiple of
        /// 1,024 lines, so it straddles page boundaries at any page size up
        /// to that.
        #[test]
        fn occupied_lines_match_a_dense_walk(
            touches in prop::collection::vec(touch(2600), 0..80),
            lo in 0u64..2600,
            len in 0u64..2600,
        ) {
            let first = LineAddr(3 * 1024 - 300);
            let mut img = PmImage::new();
            apply(&mut img, first, &touches);
            let written: HashSet<LineAddr> = img.written_lines().collect();
            let range = LineAddr(first.0 + lo)..LineAddr(first.0 + (lo + len).min(2600));
            let dense: Vec<LineAddr> = (range.start.0..range.end.0)
                .map(LineAddr)
                .filter(|l| written.contains(l) || img.is_poisoned(*l))
                .collect();
            let sparse: Vec<LineAddr> = img.occupied_lines(range.clone()).collect();
            prop_assert_eq!(&sparse, &dense);
            for l in (range.start.0..range.end.0).map(LineAddr) {
                let loads: Vec<u64> = (0..WORDS_PER_LINE).map(|w| img.load(l.word(w))).collect();
                prop_assert_eq!(img.line_words(l).to_vec(), loads.clone());
                if !dense.contains(&l) {
                    prop_assert!(loads.iter().all(|&v| v == 0), "unoccupied line {l:?} reads nonzero");
                }
            }
        }

        /// `scan_pool` classifies only occupied journal slots, and equals a
        /// scan that classifies all of them. Under `PmLayout::new(3, 1500)`
        /// every pool's journal starts mid-page and crosses a page boundary.
        #[test]
        fn scan_pool_matches_a_dense_journal_scan(
            pool in 0usize..4,
            touches in prop::collection::vec(touch(HEAP_JOURNAL_SLOTS), 0..60),
        ) {
            let layout = PmLayout::new(3, 1500);
            let first = layout.heap_journal_slot(pool, 0).line();
            let last = layout.heap_journal_slot(pool, HEAP_JOURNAL_SLOTS - 1).line();
            prop_assert!(first.0 / 1024 != last.0 / 1024, "the journal crosses a page");
            let mut img = PmImage::new();
            img.store(layout.pool_meta_base(pool), HEAP_MAGIC);
            apply(&mut img, first, &touches);
            prop_assert_eq!(scan_pool(&img, &layout, pool), dense_journal(&img, &layout, pool));
        }
    }
}

/// `Memory`'s dirty lines, kept as one mask per page: random stores,
/// single-line persists, full flushes and crashes on lines on both sides of
/// a page boundary, on far pages and in volatile memory, checked after
/// every step against a per-line model in which `persist_all` is a
/// `persist_line` of every dirty line.
mod dirty_pages {
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use sw_pmem::{LineAddr, Memory, PmLayout, WORDS_PER_LINE};

    /// The lines the steps touch: two on each side of a line that is a
    /// multiple of 4,096 (a page boundary at any power-of-two page size up
    /// to 4,096 lines), one on a page far above it, one a million lines
    /// up, and one volatile line.
    fn lines(layout: &PmLayout) -> Vec<LineAddr> {
        let b = layout.heap_base().line().raw().next_multiple_of(4096) + 4096;
        let mut lines: Vec<LineAddr> = [b - 2, b - 1, b, b + 1, b + 5 * 4096 + 3, b + 1_000_000]
            .into_iter()
            .map(LineAddr)
            .collect();
        lines.push(layout.volatile_region().base.line());
        lines
    }

    #[derive(Debug, Clone)]
    enum Step {
        Store {
            line: usize,
            word: usize,
            value: u64,
        },
        Persist {
            line: usize,
        },
        PersistAll,
        Crash,
    }

    fn step() -> impl Strategy<Value = Step> {
        let value = prop_oneof![Just(0u64), 1u64..u64::MAX];
        prop_oneof![
            6 => (0usize..7, 0..WORDS_PER_LINE, value)
                .prop_map(|(line, word, value)| Step::Store { line, word, value }),
            3 => (0usize..7).prop_map(|line| Step::Persist { line }),
            1 => Just(Step::PersistAll),
            1 => Just(Step::Crash),
        ]
    }

    /// The reference: each line's visible and persisted words (absent
    /// means never written), and the dirty lines.
    #[derive(Debug, Default)]
    struct Model {
        visible: BTreeMap<usize, [u64; WORDS_PER_LINE]>,
        persisted: BTreeMap<usize, [u64; WORDS_PER_LINE]>,
        dirty: BTreeSet<usize>,
    }

    impl Model {
        fn persist_line(&mut self, i: usize, persistent: bool) {
            if !persistent {
                return;
            }
            match self.visible.get(&i) {
                Some(&words) => self.persisted.insert(i, words),
                None => self.persisted.remove(&i),
            };
            self.dirty.remove(&i);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn dirty_masks_match_a_per_line_model(steps in prop::collection::vec(step(), 1..80)) {
            let layout = PmLayout::default();
            let lines = lines(&layout);
            let persistent: Vec<bool> =
                lines.iter().map(|l| layout.is_persistent(l.base())).collect();
            let mut mem = Memory::new(layout.clone());
            let mut model = Model::default();
            for s in &steps {
                match *s {
                    Step::Store { line: i, word, value } => {
                        mem.store(lines[i].word(word), value);
                        model.visible.entry(i).or_default()[word] = value;
                        if persistent[i] {
                            model.dirty.insert(i);
                        }
                    }
                    Step::Persist { line: i } => {
                        mem.persist_line(lines[i]);
                        model.persist_line(i, persistent[i]);
                    }
                    Step::PersistAll => {
                        mem.persist_all();
                        for i in std::mem::take(&mut model.dirty) {
                            model.persist_line(i, true);
                        }
                    }
                    Step::Crash => {
                        mem = mem.crash();
                        model.visible = model.persisted.clone();
                        model.dirty.clear();
                    }
                }
                for (i, &line) in lines.iter().enumerate() {
                    let visible = model.visible.get(&i).copied().unwrap_or_default();
                    let loads: Vec<u64> = (0..WORDS_PER_LINE).map(|w| mem.load(line.word(w))).collect();
                    prop_assert_eq!(loads, visible.to_vec(), "line {} after {:?}", i, s);
                    let persisted = model.persisted.get(&i).copied().unwrap_or_default();
                    prop_assert_eq!(mem.persisted_image().line_words(line), persisted, "line {}", i);
                    prop_assert_eq!(mem.is_dirty(line), model.dirty.contains(&i), "line {}", i);
                }
                let mut written: Vec<LineAddr> = mem.persisted_image().written_lines().collect();
                written.sort_unstable();
                let want: Vec<LineAddr> = model.persisted.keys().map(|&i| lines[i]).collect();
                prop_assert_eq!(written, want);
            }
        }
    }
}

/// Copy-on-write pages: images that share pages after a clone must behave
/// as fully independent copies. Random stores, full-line persists (zero
/// lines included), line absorbs and poisonings go to several copies,
/// cloned at random points, and every copy is checked against a plain
/// line map after every step.
mod copy_on_write {
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use sw_pmem::{LineAddr, PmImage, WORDS_PER_LINE};

    /// Lines the steps touch: eight around each of three page boundaries,
    /// four on each side, so steps collide on lines and on pages.
    const LINES: u64 = 24;

    /// Line `i`: group `i / 8` straddles line `4,096 · (i / 8 + 1)`, a
    /// page boundary at every power-of-two page size up to 4,096 lines
    /// (the image's pages hold 64), so the helper holds for any page size
    /// the image may take.
    fn line(i: u64) -> LineAddr {
        LineAddr((i / 8 + 1) * 4096 + i % 8 - 4)
    }

    /// The reference: written lines with their words, and poisoned lines.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Model {
        lines: BTreeMap<u64, [u64; WORDS_PER_LINE]>,
        poisoned: BTreeSet<u64>,
    }

    /// One step on copy `copy % copies`.
    #[derive(Debug, Clone)]
    enum Step {
        Store {
            copy: usize,
            line: u64,
            word: usize,
            value: u64,
        },
        SetLine {
            copy: usize,
            line: u64,
            value: u64,
        },
        Absorb {
            copy: usize,
            from: usize,
            line: u64,
        },
        Poison {
            copy: usize,
            line: u64,
        },
        Clone {
            copy: usize,
        },
    }

    fn step() -> impl Strategy<Value = Step> {
        let value = || prop_oneof![Just(0u64), 1u64..u64::MAX];
        prop_oneof![
            4 => (0usize..8, 0..LINES, 0..WORDS_PER_LINE, value())
                .prop_map(|(copy, line, word, value)| Step::Store { copy, line, word, value }),
            3 => (0usize..8, 0..LINES, value())
                .prop_map(|(copy, line, value)| Step::SetLine { copy, line, value }),
            2 => (0usize..8, 0usize..8, 0..LINES)
                .prop_map(|(copy, from, line)| Step::Absorb { copy, from, line }),
            1 => (0usize..8, 0..LINES).prop_map(|(copy, line)| Step::Poison { copy, line }),
            1 => (0usize..8).prop_map(|copy| Step::Clone { copy }),
        ]
    }

    fn apply(copies: &mut Vec<(PmImage, Model)>, step: &Step) {
        let n = copies.len();
        match *step {
            Step::Store {
                copy,
                line: i,
                word,
                value,
            } => {
                let (img, model) = &mut copies[copy % n];
                img.store(line(i).word(word), value);
                model.lines.entry(i).or_default()[word] = value;
                model.poisoned.remove(&i);
            }
            Step::SetLine {
                copy,
                line: i,
                value,
            } => {
                // A line of `value`s except word 0, so zero lines and
                // partly zero lines both occur.
                let mut words = [value; WORDS_PER_LINE];
                words[0] = 0;
                let (img, model) = &mut copies[copy % n];
                img.set_line_words(line(i), words);
                if value == 0 {
                    model.lines.remove(&i);
                } else {
                    model.lines.insert(i, words);
                }
                model.poisoned.remove(&i);
            }
            Step::Absorb {
                copy,
                from,
                line: i,
            } => {
                let (src, src_model) = copies[from % n].clone();
                let (img, model) = &mut copies[copy % n];
                img.absorb_line(line(i), &src);
                match src_model.lines.get(&i) {
                    Some(&words) => model.lines.insert(i, words),
                    None => model.lines.remove(&i),
                };
                model.poisoned.remove(&i);
            }
            Step::Poison { copy, line: i } => {
                let (img, model) = &mut copies[copy % n];
                img.poison_line(line(i));
                model.poisoned.insert(i);
            }
            Step::Clone { copy } => {
                let twin = copies[copy % n].clone();
                copies.push(twin);
            }
        }
    }

    /// Checks `img` against `model` through every read surface.
    fn check(img: &PmImage, model: &Model) -> Result<(), TestCaseError> {
        for i in 0..LINES {
            let want = model.lines.get(&i).copied().unwrap_or_default();
            prop_assert_eq!(img.line_words(line(i)), want, "line {}", i);
            prop_assert_eq!(img.is_poisoned(line(i)), model.poisoned.contains(&i));
        }
        prop_assert_eq!(img.line_count(), model.lines.len());
        let mut written: Vec<LineAddr> = img.written_lines().collect();
        written.sort_unstable();
        let want: Vec<LineAddr> = model.lines.keys().map(|&i| line(i)).collect();
        prop_assert_eq!(written, want);
        let occupied: Vec<LineAddr> = img.occupied_lines(line(0)..line(LINES)).collect();
        let keys: BTreeSet<u64> = model.lines.keys().chain(&model.poisoned).copied().collect();
        let want: Vec<LineAddr> = keys.into_iter().map(line).collect();
        prop_assert_eq!(occupied, want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A write through one copy is never seen through another, and
        /// two copies compare equal exactly when their models do.
        #[test]
        fn a_clone_never_sees_its_twins_writes(
            steps in prop::collection::vec(step(), 1..80),
        ) {
            let mut copies = vec![(PmImage::new(), Model::default())];
            for s in &steps {
                apply(&mut copies, s);
                for (img, model) in &copies {
                    check(img, model)?;
                }
            }
            for (a, ma) in &copies {
                for (b, mb) in &copies {
                    prop_assert_eq!(a == b, ma == mb);
                }
            }
        }
    }
}
