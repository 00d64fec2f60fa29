//! Native: log-free regions for eADR-class hardware.
//!
//! On a design that persists stores at visibility (battery-backed caches,
//! [`HwDesign::persists_at_visibility`]), an in-place update is durable the
//! moment it executes — a write-ahead log buys nothing a crash could need.
//! The Native policy therefore appends no log entries at all: regions are
//! reduced to the lock-word stamp protocol (mutual exclusion plus the
//! strong-persist-atomicity ordering the stamps carry), and recovery has
//! nothing to roll back or replay.
//!
//! The price is the consistency contract: without a log, a crash can land
//! *inside* a region, so programs get [`Consistency::DurablePrefix`] —
//! every crash state is the baseline plus a prefix of the run's stores in
//! execution order (strict persistency) — **not** failure atomicity. This
//! is the MOD-style "log-free durable data structures" point in the design
//! space, and measuring it against TXN-on-eADR isolates how much of eADR's
//! speedup comes from the hardware versus from deleting the log.
//!
//! `Native` keeps TXN's per-synchronization bookkeeping cost so exactly
//! that comparison is clean. It is rejected on non-eADR-class designs at
//! [`RuntimeConfig`](crate::RuntimeConfig) construction.

use super::{CommitPolicy, Consistency};
use crate::log::EntryType;
use sw_model::HwDesign;

/// The log-free eADR-native policy.
#[derive(Debug)]
pub struct Native;

impl CommitPolicy for Native {
    fn label(&self) -> &'static str {
        "native"
    }

    fn sync_cost(&self) -> u32 {
        8
    }

    fn uses_log(&self) -> bool {
        false
    }

    fn begin_entry(&self) -> Option<EntryType> {
        None
    }

    fn end_entry(&self) -> Option<EntryType> {
        None
    }

    fn commit_at_region_end(&self, _region_had_stores: bool, _live: u64, _threshold: u64) -> bool {
        false
    }

    fn legal_on(&self, design: HwDesign) -> bool {
        design.persists_at_visibility()
    }

    fn consistency(&self) -> Consistency {
        Consistency::DurablePrefix
    }
}

#[cfg(test)]
mod tests {
    use crate::ctx::FuncCtx;
    use crate::{LangModel, RuntimeConfig, ThreadRuntime};
    use sw_model::isa::LockId;
    use sw_model::HwDesign;
    use sw_pmem::PmLayout;

    fn setup() -> (FuncCtx, ThreadRuntime, sw_pmem::Addr) {
        let layout = PmLayout::new(1, 256);
        let heap = layout.heap_base();
        let ctx = FuncCtx::new(layout.clone(), 1);
        let rt = ThreadRuntime::new(
            &layout,
            0,
            RuntimeConfig::new(HwDesign::Eadr, LangModel::Native).recording(),
        );
        (ctx, rt, heap)
    }

    #[test]
    fn native_region_executes_stores() {
        let (mut ctx, mut rt, heap) = setup();
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 7);
        rt.store(&mut ctx, heap.offset_words(8), 8);
        rt.region_end(&mut ctx);
        assert_eq!(ctx.mem().load(heap), 7);
        assert_eq!(ctx.mem().load(heap.offset_words(8)), 8);
    }

    #[test]
    fn native_appends_no_log_entries() {
        let (mut ctx, mut rt, heap) = setup();
        for round in 0..4u64 {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            rt.store(&mut ctx, heap, round);
            rt.region_end(&mut ctx);
        }
        assert_eq!(rt.live_log_entries(), 0, "log-free: nothing ever appended");
        rt.shutdown(&mut ctx);
        ctx.mem_mut().persist_all();
        let img = ctx.mem().persisted_image().clone();
        let region = ctx.mem().layout().log_region(0);
        assert!(
            crate::log::scan_log_detailed(&img, region)
                .entries
                .is_empty(),
            "log region stays empty on PM too"
        );
    }

    #[test]
    fn native_still_stamps_lock_words() {
        let (mut ctx, mut rt, heap) = setup();
        let la = ctx.mem().layout().lock_addr(3);
        rt.region_begin(&mut ctx, &[LockId(3)]);
        let acquire_stamp = ctx.mem().load(la);
        assert!(acquire_stamp > 0, "SPA ordering stamp still published");
        rt.store(&mut ctx, heap, 1);
        rt.region_end(&mut ctx);
        assert!(ctx.mem().load(la) > acquire_stamp, "release stamps again");
    }

    #[test]
    fn native_records_regions_for_the_harness() {
        let (mut ctx, mut rt, heap) = setup();
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 7);
        rt.region_end(&mut ctx);
        rt.region_begin(&mut ctx, &[LockId(0)]);
        rt.store(&mut ctx, heap, 9);
        rt.region_end(&mut ctx);
        let recs = rt.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].writes, vec![(heap, 0, 7)]);
        assert_eq!(recs[1].writes, vec![(heap, 7, 9)]);
        assert!(recs[0].first_seq < recs[0].last_seq);
        assert!(recs[0].last_seq < recs[1].first_seq);
    }

    #[test]
    #[should_panic(expected = "persists stores at visibility")]
    fn native_is_rejected_on_non_eadr_designs() {
        let _ = RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Native);
    }

    #[test]
    fn native_is_rejected_on_every_non_eadr_design() {
        for d in HwDesign::ALL {
            if d.persists_at_visibility() {
                continue;
            }
            let result = std::panic::catch_unwind(|| {
                let _ = RuntimeConfig::new(d, LangModel::Native);
            });
            assert!(result.is_err(), "{d} must reject the log-free model");
        }
    }
}
