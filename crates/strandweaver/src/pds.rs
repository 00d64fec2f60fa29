//! Ergonomic persistent data structures built on the StrandWeaver stack.
//!
//! This module is the "what a downstream user writes" layer: a [`Heap`]
//! session wraps the execution context and the undo/redo logging runtime
//! behind a closure-scoped transaction API, and [`PVar`], [`PQueue`], and
//! [`PMap`] are recoverable structures built on it. Every transaction is a
//! failure-atomic region lowered onto the chosen hardware design; crash
//! behavior can be explored directly with [`Heap::simulate_crash`].
//!
//! ```
//! use strandweaver::pds::{Heap, PQueue};
//! use strandweaver::{HwDesign, LangModel};
//!
//! let mut heap = Heap::new(HwDesign::StrandWeaver, LangModel::Txn);
//! let queue = PQueue::create(&mut heap, 64);
//! heap.txn(|t| {
//!     queue.push(t, 10);
//!     queue.push(t, 20);
//! });
//! heap.txn(|t| assert_eq!(queue.pop(t), Some(10)));
//!
//! // Crash at a random model-allowed point and inspect the recovered
//! // state: it is always a prefix of the committed transactions — empty,
//! // both pushes, or both pushes plus the pop.
//! let recovered = heap.simulate_crash(7);
//! let contents: Vec<u64> = queue.iter_in(&recovered).collect();
//! assert!(
//!     matches!(contents.as_slice(), [] | [10, 20] | [20]),
//!     "recovered a non-prefix state: {contents:?}"
//! );
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sw_lang::harness;
use sw_lang::{FuncCtx, HwDesign, LangModel, RuntimeConfig, ThreadRuntime};
use sw_model::isa::LockId;
use sw_model::Pmo;
use sw_pmem::{Addr, PmImage, PmLayout};

/// A single-threaded persistent-heap session.
///
/// The session owns the simulated PM, a logging runtime, and an allocator.
/// All mutation happens inside [`Heap::txn`] closures, which are lowered to
/// failure-atomic regions; reads of committed state can also be done
/// directly with [`Heap::peek`].
#[derive(Debug)]
pub struct Heap {
    ctx: FuncCtx,
    rt: ThreadRuntime,
    baseline: PmImage,
    lock: LockId,
}

impl Heap {
    /// Creates a session on a fresh PM heap under `design` and `lang`.
    pub fn new(design: HwDesign, lang: LangModel) -> Self {
        Self::with_config(RuntimeConfig::new(design, lang).recording())
    }

    /// Creates a session with full control over the runtime configuration
    /// (e.g. `RuntimeConfig::new(..).redo()` for the redo extension).
    pub fn with_config(cfg: RuntimeConfig) -> Self {
        let layout = PmLayout::new(1, 4096);
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let baseline = harness::baseline(&mut ctx);
        let rt = ThreadRuntime::new(&layout, 0, cfg);
        Self {
            ctx,
            rt,
            baseline,
            lock: LockId(0),
        }
    }

    /// Convenience: a redo-logging session.
    pub fn new_redo(design: HwDesign) -> Self {
        Self::with_config(
            RuntimeConfig::new(design, LangModel::Txn)
                .redo()
                .recording(),
        )
    }

    /// Allocates `words` machine words of persistent memory from the
    /// session's allocator pool.
    ///
    /// The allocation is journaled in PM allocator metadata; initialize
    /// the memory inside a transaction to make the *contents*
    /// recoverable.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn alloc_words(&mut self, words: u64) -> Addr {
        self.ctx.heap().alloc_words(words)
    }

    /// Allocates `lines` whole cache lines (line-aligned).
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn alloc_lines(&mut self, lines: u64) -> Addr {
        self.ctx.heap().alloc_lines(lines)
    }

    /// Runs `f` as one failure-atomic transaction and returns its result.
    ///
    /// On a crash, either every store made inside `f` is recovered or none
    /// is.
    pub fn txn<R>(&mut self, f: impl FnOnce(&mut Txn<'_>) -> R) -> R {
        let lock = self.lock;
        self.rt.region_begin(&mut self.ctx, &[lock]);
        let r = {
            let mut t = Txn {
                ctx: &mut self.ctx,
                rt: &mut self.rt,
            };
            f(&mut t)
        };
        self.rt.region_end(&mut self.ctx);
        r
    }

    /// Reads a word of the current *visible* state (outside transactions).
    pub fn peek(&self, addr: Addr) -> u64 {
        self.ctx.mem().load(addr)
    }

    /// Samples one formally-allowed crash state, runs recovery, and returns
    /// the recovered PM image. The session itself is unaffected (crashes
    /// are explored counterfactually). The session's execution grows
    /// between calls, so each call computes its persist memory order anew.
    pub fn simulate_crash(&self, seed: u64) -> PmImage {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pmo = Pmo::compute(&self.ctx.execution(), self.design().memory_model());
        harness::crash_and_recover(&self.ctx, &self.baseline, &pmo, &mut rng).image
    }

    /// Flushes and commits everything, then returns the durable image — the
    /// state an orderly shutdown leaves behind.
    pub fn checkpoint(&mut self) -> PmImage {
        self.rt.shutdown(&mut self.ctx);
        let mut snap = self.ctx.mem().clone();
        snap.persist_all();
        let mut img = snap.persisted_image().clone();
        sw_lang::recovery::recover(&mut img, self.ctx.mem().layout());
        img
    }

    /// The hardware design this session lowers onto.
    pub fn design(&self) -> HwDesign {
        self.rt.config().design
    }

    /// Access to the underlying context (advanced: trace extraction,
    /// statistics).
    pub fn ctx(&self) -> &FuncCtx {
        &self.ctx
    }
}

/// An open failure-atomic transaction. All stores are undo/redo logged.
#[derive(Debug)]
pub struct Txn<'a> {
    ctx: &'a mut FuncCtx,
    rt: &'a mut ThreadRuntime,
}

impl Txn<'_> {
    /// Reads a word (honors the transaction's own pending writes).
    pub fn load(&mut self, addr: Addr) -> u64 {
        self.rt.load(self.ctx, addr)
    }

    /// Writes a word, failure-atomically with the rest of the transaction.
    pub fn store(&mut self, addr: Addr, value: u64) {
        self.rt.store(self.ctx, addr, value);
    }

    /// Records `cycles` of application work (affects timing traces only).
    pub fn compute(&mut self, cycles: u32) {
        let tid = self.rt.tid();
        self.ctx.compute(tid, cycles);
    }
}

/// A persistent word variable.
#[derive(Debug, Clone, Copy)]
pub struct PVar {
    addr: Addr,
}

impl PVar {
    /// Allocates a variable initialized to `init`.
    pub fn create(heap: &mut Heap, init: u64) -> Self {
        let addr = heap.alloc_words(1);
        let v = Self { addr };
        heap.txn(|t| t.store(addr, init));
        v
    }

    /// Reads inside a transaction.
    pub fn get(&self, t: &mut Txn<'_>) -> u64 {
        t.load(self.addr)
    }

    /// Writes inside a transaction.
    pub fn set(&self, t: &mut Txn<'_>, value: u64) {
        t.store(self.addr, value);
    }

    /// Reads from a recovered or checkpointed image.
    pub fn get_in(&self, img: &PmImage) -> u64 {
        img.load(self.addr)
    }
}

/// A persistent bounded FIFO queue of words.
#[derive(Debug, Clone, Copy)]
pub struct PQueue {
    head: Addr,
    tail: Addr,
    slots: Addr,
    capacity: u64,
}

impl PQueue {
    /// Allocates an empty queue with room for `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn create(heap: &mut Heap, capacity: u64) -> Self {
        assert!(capacity > 0);
        let head = heap.alloc_lines(1);
        let tail = heap.alloc_lines(1);
        let slots = heap.alloc_lines(capacity.div_ceil(8));
        Self {
            head,
            tail,
            slots,
            capacity,
        }
    }

    fn slot(&self, i: u64) -> Addr {
        self.slots.offset_words(i % self.capacity)
    }

    /// Appends `value`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn push(&self, t: &mut Txn<'_>, value: u64) {
        let head = t.load(self.head);
        let tail = t.load(self.tail);
        assert!(tail - head < self.capacity, "queue full");
        t.store(self.slot(tail), value);
        t.store(self.tail, tail + 1);
    }

    /// Removes and returns the oldest element, or `None` when empty.
    pub fn pop(&self, t: &mut Txn<'_>) -> Option<u64> {
        let head = t.load(self.head);
        let tail = t.load(self.tail);
        if head == tail {
            return None;
        }
        let v = t.load(self.slot(head));
        t.store(self.head, head + 1);
        Some(v)
    }

    /// Number of elements inside a transaction.
    pub fn len(&self, t: &mut Txn<'_>) -> u64 {
        t.load(self.tail) - t.load(self.head)
    }

    /// `true` when empty inside a transaction.
    pub fn is_empty(&self, t: &mut Txn<'_>) -> bool {
        self.len(t) == 0
    }

    /// Number of elements in a recovered or checkpointed image.
    pub fn len_in(&self, img: &PmImage) -> u64 {
        img.load(self.tail) - img.load(self.head)
    }

    /// The elements of a recovered or checkpointed image, oldest first.
    pub fn iter_in<'a>(&'a self, img: &'a PmImage) -> impl Iterator<Item = u64> + 'a {
        (img.load(self.head)..img.load(self.tail)).map(move |i| img.load(self.slot(i)))
    }
}

/// A persistent open-addressing hash map from `u64` keys to `u64` values.
///
/// Fixed capacity, linear probing, no deletion (tombstones are easy to add
/// but the evaluation workloads do not need them). Key 0 is reserved as the
/// empty marker, so keys must be non-zero.
#[derive(Debug, Clone, Copy)]
pub struct PMap {
    table: Addr,
    buckets: u64,
}

impl PMap {
    /// Allocates a map with `buckets` slots (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn create(heap: &mut Heap, buckets: u64) -> Self {
        assert!(buckets > 0);
        let buckets = buckets.next_power_of_two();
        // One line per slot: [key, value].
        let table = heap.alloc_lines(buckets);
        Self { table, buckets }
    }

    fn slot(&self, i: u64) -> Addr {
        Addr(self.table.raw() + (i & (self.buckets - 1)) * 64)
    }

    fn hash(key: u64) -> u64 {
        key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Inserts or updates `key` (non-zero) with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is zero or the map is full.
    pub fn put(&self, t: &mut Txn<'_>, key: u64, value: u64) {
        assert_ne!(key, 0, "key 0 is the empty marker");
        let base = Self::hash(key);
        for probe in 0..self.buckets {
            let s = self.slot(base + probe);
            let k = t.load(s);
            if k == key || k == 0 {
                if k == 0 {
                    t.store(s, key);
                }
                t.store(s.offset_words(1), value);
                return;
            }
        }
        panic!("map full");
    }

    /// Looks up `key` inside a transaction.
    pub fn get(&self, t: &mut Txn<'_>, key: u64) -> Option<u64> {
        let base = Self::hash(key);
        for probe in 0..self.buckets {
            let s = self.slot(base + probe);
            let k = t.load(s);
            if k == key {
                return Some(t.load(s.offset_words(1)));
            }
            if k == 0 {
                return None;
            }
        }
        None
    }

    /// Looks up `key` in a recovered or checkpointed image.
    pub fn get_in(&self, img: &PmImage, key: u64) -> Option<u64> {
        let base = Self::hash(key);
        for probe in 0..self.buckets {
            let s = self.slot(base + probe);
            let k = img.load(s);
            if k == key {
                return Some(img.load(s.offset_words(1)));
            }
            if k == 0 {
                return None;
            }
        }
        None
    }

    /// `(key, value)` pairs in a recovered or checkpointed image.
    pub fn iter_in<'a>(&'a self, img: &'a PmImage) -> impl Iterator<Item = (u64, u64)> + 'a {
        (0..self.buckets).filter_map(move |i| {
            let s = self.slot(i);
            let k = img.load(s);
            (k != 0).then(|| (k, img.load(s.offset_words(1))))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pvar_roundtrip_and_checkpoint() {
        let mut heap = Heap::new(HwDesign::StrandWeaver, LangModel::Txn);
        let v = PVar::create(&mut heap, 5);
        heap.txn(|t| {
            assert_eq!(v.get(t), 5);
            v.set(t, 9);
        });
        let img = heap.checkpoint();
        assert_eq!(v.get_in(&img), 9);
    }

    #[test]
    fn queue_fifo_semantics() {
        let mut heap = Heap::new(HwDesign::StrandWeaver, LangModel::Txn);
        let q = PQueue::create(&mut heap, 8);
        heap.txn(|t| {
            for k in 1..=5 {
                q.push(t, k);
            }
        });
        heap.txn(|t| {
            assert_eq!(q.len(t), 5);
            assert_eq!(q.pop(t), Some(1));
            assert_eq!(q.pop(t), Some(2));
        });
        let img = heap.checkpoint();
        assert_eq!(q.iter_in(&img).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn queue_wraps_circularly() {
        let mut heap = Heap::new(HwDesign::StrandWeaver, LangModel::Txn);
        let q = PQueue::create(&mut heap, 4);
        for round in 0..6u64 {
            heap.txn(|t| {
                q.push(t, round);
                assert_eq!(q.pop(t), Some(round));
            });
        }
        let img = heap.checkpoint();
        assert_eq!(q.len_in(&img), 0);
    }

    #[test]
    #[should_panic(expected = "queue full")]
    fn queue_overflow_panics() {
        let mut heap = Heap::new(HwDesign::StrandWeaver, LangModel::Txn);
        let q = PQueue::create(&mut heap, 2);
        heap.txn(|t| {
            q.push(t, 1);
            q.push(t, 2);
            q.push(t, 3);
        });
    }

    #[test]
    fn map_put_get_update() {
        let mut heap = Heap::new(HwDesign::StrandWeaver, LangModel::Txn);
        let m = PMap::create(&mut heap, 32);
        heap.txn(|t| {
            for k in 1..=20 {
                m.put(t, k, k * 100);
            }
        });
        heap.txn(|t| {
            assert_eq!(m.get(t, 7), Some(700));
            assert_eq!(m.get(t, 99), None);
            m.put(t, 7, 777);
            assert_eq!(m.get(t, 7), Some(777));
        });
        let img = heap.checkpoint();
        assert_eq!(m.get_in(&img, 7), Some(777));
        assert_eq!(m.iter_in(&img).count(), 20);
    }

    #[test]
    fn crashes_respect_transaction_atomicity() {
        let mut heap = Heap::new(HwDesign::StrandWeaver, LangModel::Txn);
        let a = PVar::create(&mut heap, 100);
        let b = PVar::create(&mut heap, 0);
        // Ten transfers of 10 from a to b.
        for _ in 0..10 {
            heap.txn(|t| {
                let x = a.get(t);
                let y = b.get(t);
                a.set(t, x - 10);
                b.set(t, y + 10);
            });
        }
        for seed in 0..60 {
            let img = heap.simulate_crash(seed);
            let (x, y) = (a.get_in(&img), b.get_in(&img));
            assert!(
                x + y == 100 || (x, y) == (0, 0),
                "invariant torn: a={x} b={y} (seed {seed})"
            );
        }
    }

    #[test]
    fn redo_heap_behaves_identically() {
        let mut heap = Heap::new_redo(HwDesign::StrandWeaver);
        let q = PQueue::create(&mut heap, 8);
        heap.txn(|t| {
            q.push(t, 1);
            q.push(t, 2);
            // Read-own-writes inside the deferred-update transaction.
            assert_eq!(q.len(t), 2);
        });
        heap.txn(|t| assert_eq!(q.pop(t), Some(1)));
        for seed in 0..40 {
            let img = heap.simulate_crash(seed);
            let len = q.len_in(&img);
            assert!(len <= 2, "impossible queue length {len}");
        }
        let img = heap.checkpoint();
        assert_eq!(q.iter_in(&img).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn map_survives_crashes_structurally() {
        let mut heap = Heap::new(HwDesign::StrandWeaver, LangModel::Txn);
        let m = PMap::create(&mut heap, 64);
        for k in 1..=15u64 {
            heap.txn(|t| m.put(t, k, k * 11));
        }
        for seed in 0..40 {
            let img = heap.simulate_crash(seed);
            for (k, v) in m.iter_in(&img) {
                assert_eq!(v, k * 11, "torn entry {k} (seed {seed})");
            }
        }
    }
}
