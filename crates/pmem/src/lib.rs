//! Persistent-memory substrate for the StrandWeaver reproduction.
//!
//! This crate provides the low-level memory model that every other crate in
//! the workspace builds on:
//!
//! * [`Addr`] and [`LineAddr`] — typed byte and cache-line addresses.
//! * [`PmImage`] — the durable contents of persistent memory, at word
//!   granularity, as recovery would observe them after a failure.
//! * [`Memory`] — a combined volatile + persistent address space with crash
//!   semantics: on a crash the volatile half is lost and only the persisted
//!   image survives.
//! * [`PmLayout`] — a region allocator used to carve per-thread undo-log
//!   buffers and persistent heaps out of the PM address range.
//! * [`timing`] — latency constants of the modelled PM device, taken from the
//!   paper's Table I (which follows the Optane characterization study
//!   [Izraelevitz et al., 2019]).
//! * [`DeviceFaultUnit`] — the online device-fault model: the seeded
//!   [`DeviceFaultSchedule`] of transient write failures, permanent media
//!   errors (retired to spares through a [`RemapTable`]) and read poison
//!   that the simulator's PM controller consults on every access.
//!
//! # Example
//!
//! ```
//! use sw_pmem::{Addr, Memory, PmLayout};
//!
//! let layout = PmLayout::default();
//! let mut mem = Memory::new(layout.clone());
//! let a = layout.heap_base();
//! mem.store(a, 42);
//! assert_eq!(mem.load(a), 42);
//! // The store is visible but not yet persisted:
//! assert_eq!(mem.persisted_image().load(a), 0);
//! mem.persist(a);
//! assert_eq!(mem.persisted_image().load(a), 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
pub mod alloc;
mod device;
pub mod hash;
mod image;
mod layout;
mod memory;
mod remap;
pub mod timing;

pub use addr::{Addr, LineAddr, CACHE_LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use alloc::{
    classify_heap_slot, decode_table, encode_checkpoint, encode_heap_record, record_checksum,
    recover_heap, scan_pool, BlockKind, CheckpointWrites, HeapFault, HeapRecord, HeapRecovery,
    HeapSlotState, PoolAlloc, PoolScan, PoolStats, TableDecode, HEAP_JOURNAL_SLOTS, HEAP_MAGIC,
    HEAP_META_LINES, HEAP_POOLS, HEAP_TABLE_LINES, HW_CHECKSUM, HW_KIND,
};
pub use device::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultTrigger,
    OnlineFaultStats, ReadDecision, WriteDecision, BACKOFF_SHIFT_CAP,
};
pub use hash::{AddrHasher, FastMap, FastSet};
pub use image::PmImage;
pub use layout::{Bump, PmLayout, Region, RegionKind};
pub use memory::Memory;
pub use remap::{RemapTable, REMAP_ENTRY_WORDS};
