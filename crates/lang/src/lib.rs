//! Language-level persistency runtimes for the StrandWeaver reproduction
//! (paper Section V).
//!
//! This crate implements the software half of the paper: write-ahead
//! logging built on the ISA primitives of a chosen hardware design,
//! integrated with four language-level persistency models:
//!
//! * **TXN** — failure-atomic transactions (PMDK-style, eager commit),
//! * **SFR** — synchronization-free regions (batched commits),
//! * **ATLAS** — outermost critical sections (batched commits, heavier
//!   lock bookkeeping),
//! * **Native** — log-free regions, legal only on eADR-class designs that
//!   persist stores at visibility,
//!
//! each lowered onto any of the hardware designs of the evaluation
//! ([`HwDesign`]): Intel x86, HOPS, StrandWeaver without a persist queue,
//! full StrandWeaver, the non-atomic upper bound, and battery-backed eADR.
//!
//! Each model is one row of `LangModel::spec` (under [`policies`]), as
//! each design is one row of `HwDesign::spec`, and each log strategy is
//! one [`LogStrategy`] `match` arm (under [`formats`]). A model-agnostic
//! [`ThreadRuntime`] reads the row and the strategy once to pick its
//! protocol (log-free, undo or redo) and owns the region lifecycle.
//!
//! The crate also provides post-failure [`recovery`] and a crash-injection
//! [`harness`] that samples formally-allowed crash states (via `sw-model`)
//! and checks that recovery restores failure atomicity.
//!
//! # Example
//!
//! ```
//! use sw_lang::{FuncCtx, HwDesign, LangModel, RuntimeConfig, ThreadRuntime};
//! use sw_model::isa::LockId;
//! use sw_pmem::PmLayout;
//!
//! let layout = PmLayout::new(1, 256);
//! let mut ctx = FuncCtx::new(layout.clone(), 1);
//! let mut rt = ThreadRuntime::new(
//!     &layout, 0, RuntimeConfig::new(HwDesign::StrandWeaver, LangModel::Txn));
//!
//! let x = layout.heap_base();
//! rt.region_begin(&mut ctx, &[LockId(0)]);
//! rt.store(&mut ctx, x, 42); // undo-logged, failure-atomic
//! rt.region_end(&mut ctx);   // committed
//! assert_eq!(ctx.mem().load(x), 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ctx;
pub mod formats;
pub mod harness;
pub mod heap;
pub mod log;
pub mod mce;
pub mod policies;
pub mod recovery;
pub(crate) mod runtime;

pub use ctx::{CtxStats, FuncCtx};
pub use formats::{LogStrategy, RecoveryAction};
pub use heap::{HeapHandle, HeapState, JOURNAL_HIGH_WATER};
pub use log::{classify_slot, scan_log_detailed, DetailedScan, SlotState};
pub use mce::MceError;
pub use policies::{Consistency, LangModel};
pub use recovery::{
    FaultCounts, HeapSummary, PolicyOutcome, RecoveryError, RecoveryFault, RecoveryPolicy,
    RecoveryReport,
};
pub use runtime::{
    coordinated_commit, RegionRecord, RuntimeConfig, ThreadRuntime, COMMIT_TOKEN_LOCK,
    GLOBAL_CUT_LOCK, REDO_CHAIN_LOCK_BASE,
};
pub use sw_model::HwDesign;
