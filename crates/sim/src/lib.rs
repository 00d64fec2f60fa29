//! Cycle-stepped multicore timing simulator for the StrandWeaver
//! reproduction (paper Sections IV and VI).
//!
//! The simulator replays per-thread ISA traces (produced by the `sw-lang`
//! runtimes) under one of the hardware persistency designs — the paper's
//! five plus a battery-backed eADR extension, each implemented as a
//! [`PersistEngine`] in [`engines`]. A [`Machine`] stores its design, and
//! [`Machine::run`] matches it once to run the cycle loop over that
//! design's engine. The simulator models the structures whose interplay
//! produces the paper's results:
//!
//! * per-core **store queues** (64 entries) and, for StrandWeaver, the
//!   16-entry **persist queue** that keeps long-latency CLWBs out of the
//!   store queue;
//! * the **strand buffer unit** — four 4-entry strand buffers by default —
//!   that drains CLWBs from different strands concurrently while persist
//!   barriers order each strand internally;
//! * Intel's `SFENCE` semantics (stall issue until prior CLWBs complete),
//!   HOPS's delegated `ofence`/`dfence` persist buffer, and eADR's
//!   persistence domain that makes stores durable at visibility;
//! * private L1s with a dirty-owner directory, snoop-buffer stalls on
//!   read-exclusive steals, write-back buffers with per-strand-buffer tail
//!   indexes, and an ADR PM controller with a bounded write queue (Table I
//!   latencies).
//!
//! # Example
//!
//! ```
//! use sw_model::isa::{FenceKind, IsaOp};
//! use sw_model::HwDesign;
//! use sw_pmem::PmLayout;
//! use sw_sim::{Machine, SimConfig};
//!
//! let layout = PmLayout::new(1, 64);
//! let a = layout.heap_base();
//! let trace = vec![
//!     IsaOp::Store(a),
//!     IsaOp::Clwb(a),
//!     IsaOp::Fence(FenceKind::JoinStrand),
//! ];
//! let m = Machine::new(SimConfig::table_i().with_cores(1), HwDesign::StrandWeaver,
//!                      layout, vec![trace]);
//! let stats = m.run();
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.total_clwbs(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod core;
pub mod engines;
mod machine;
mod memctrl;
mod persist;
mod pipeline;
mod ring;
mod stats;
mod strand_buffer;
mod writeback;

pub use cache::{Directory, Eviction, L1Cache};
pub use config::SimConfig;
pub use engines::PersistEngine;
pub use machine::Machine;
pub use memctrl::{DramController, PmController};
pub use persist::{ClwbState, FlushEngine};
pub use ring::Ring;
pub use stats::{CoreStats, EventCounts, SimStats};
pub use strand_buffer::{DrainTargets, RetireOutcome, Sbu, SbuEntry, MAX_STRAND_BUFFERS};
