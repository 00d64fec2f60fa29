//! Build your own recoverable data structure on the public API: a tiny
//! persistent key-value store with failure-atomic puts, crash-tested
//! end to end.
//!
//! Run with: `cargo run --release --example persistent_kv`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use strandweaver::lang::harness;
use strandweaver::model::isa::LockId;
use strandweaver::pmem::Addr;
use strandweaver::{
    FuncCtx, HwDesign, LangModel, PmImage, PmLayout, Pmo, RuntimeConfig, ThreadRuntime,
};

/// A fixed-capacity persistent KV store: one cache line per slot holding
/// `[key, value, valid]`.
struct Kv {
    base: Addr,
    capacity: u64,
}

impl Kv {
    fn slot(&self, i: u64) -> Addr {
        Addr(self.base.raw() + i * 64)
    }

    /// Failure-atomic insert/update.
    fn put(&self, ctx: &mut FuncCtx, rt: &mut ThreadRuntime, key: u64, value: u64) {
        rt.region_begin(ctx, &[LockId(0)]);
        let mut target = None;
        for i in 0..self.capacity {
            let s = self.slot(i);
            let valid = ctx.load(rt.tid(), s.offset_words(2));
            if valid == 1 && ctx.load(rt.tid(), s) == key {
                target = Some(s);
                break;
            }
            if valid == 0 && target.is_none() {
                target = Some(s);
            }
        }
        let s = target.expect("kv full");
        rt.store(ctx, s, key);
        rt.store(ctx, s.offset_words(1), value);
        rt.store(ctx, s.offset_words(2), 1);
        rt.region_end(ctx);
    }

    /// Read from a (recovered) image.
    fn get(&self, img: &PmImage, key: u64) -> Option<u64> {
        (0..self.capacity)
            .map(|i| self.slot(i))
            .find(|s| img.load(s.offset_words(2)) == 1 && img.load(*s) == key)
            .map(|s| img.load(s.offset_words(1)))
    }
}

fn main() {
    let layout = PmLayout::new(1, 512);
    let mut ctx = FuncCtx::new(layout.clone(), 1);
    let kv = Kv {
        base: layout.heap_base(),
        capacity: 64,
    };
    let base = harness::baseline(&mut ctx);
    let mut rt = ThreadRuntime::new(
        &layout,
        0,
        RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn).recording(),
    );

    for k in 0..20u64 {
        kv.put(&mut ctx, &mut rt, k, k * 11);
    }
    kv.put(&mut ctx, &mut rt, 7, 999); // update

    // Crash anywhere; every recovered state must be a consistent prefix.
    let pmo = Pmo::compute(&ctx.execution(), HwDesign::StrandWeaver.memory_model());
    let mut rng = SmallRng::seed_from_u64(99);
    let mut seen_partial = false;
    for _ in 0..300 {
        let out = harness::crash_and_recover(&ctx, &base, &pmo, &mut rng);
        let mut present = 0;
        for k in 0..20u64 {
            if let Some(v) = kv.get(&out.image, k) {
                assert!(
                    v == k * 11 || (k == 7 && v == 999),
                    "torn value for {k}: {v}"
                );
                present += 1;
            }
        }
        seen_partial |= present > 0 && present < 20;
    }
    assert!(seen_partial, "crash sampling should hit mid-run states");
    println!("300 crashes: every recovered state was a consistent prefix of the puts");
}
