//! **StrandWeaver** — a full reproduction of *Relaxed Persist Ordering
//! Using Strand Persistency* (ISCA 2020) in Rust.
//!
//! Strand persistency minimally constrains the order in which stores drain
//! to persistent memory: a `NewStrand` primitive starts an independent
//! strand whose persists may proceed concurrently with earlier ones, a
//! persist barrier orders persists within a strand, and `JoinStrand`
//! merges strands. This workspace reproduces the paper end to end:
//!
//! * [`model`] (`sw-model`) — the formal persistency model: persist memory
//!   order per Equations 1–4, litmus tests (Figure 2), crash-state
//!   enumeration and sampling.
//! * [`pmem`] (`sw-pmem`) — the PM substrate: address spaces, durable
//!   images, crash semantics, device timing (Table I), and the online
//!   device-fault model the simulator's PM controller consults.
//! * [`sim`] (`sw-sim`) — a cycle-level multicore simulator of the
//!   StrandWeaver microarchitecture (persist queue, strand buffer unit,
//!   write-back/snoop tail indexes) with one pluggable `PersistEngine` per
//!   design: the baselines (Intel x86 SFENCE, HOPS ofence/dfence,
//!   no-persist-queue, non-atomic) plus a battery-backed eADR extension.
//! * [`lang`] (`sw-lang`) — language-level persistency runtimes (TXN, SFR,
//!   ATLAS) with undo logging lowered per design (Figure 5), recovery
//!   (Figure 6), and a crash-injection harness.
//! * [`faults`] (`sw-faults`) — deterministic fault injection over crash
//!   images: torn log entries, bit flips, poisoned lines.
//! * [`workloads`] (`sw-workloads`) — the Table II benchmarks.
//! * [`experiment`] — the end-to-end runner used by the benchmark harness
//!   to regenerate every table and figure.
//!
//! # Quickstart
//!
//! ```
//! use strandweaver::experiment::Experiment;
//! use strandweaver::{BenchmarkId, HwDesign, LangModel};
//!
//! // Simulate the queue benchmark under failure-atomic transactions on
//! // StrandWeaver hardware and on Intel's ISA, and compare.
//! let scale = |d| Experiment::new(BenchmarkId::Queue, LangModel::Txn, d)
//!     .threads(2)
//!     .total_regions(20);
//! let sw = scale(HwDesign::StrandWeaver).run_timing();
//! let intel = scale(HwDesign::IntelX86).run_timing();
//! assert!(sw.cycles < intel.cycles);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod pds;

/// The formal strand persistency model (re-export of `sw-model`).
pub mod model {
    pub use sw_model::*;
}

/// The persistent-memory substrate (re-export of `sw-pmem`).
pub mod pmem {
    pub use sw_pmem::*;
}

/// The timing simulator (re-export of `sw-sim`).
pub mod sim {
    pub use sw_sim::*;
}

/// Language-level persistency runtimes (re-export of `sw-lang`).
pub mod lang {
    pub use sw_lang::*;
}

/// The Table II workloads (re-export of `sw-workloads`).
pub mod workloads {
    pub use sw_workloads::*;
}

/// Deterministic fault injection over crash images (re-export of
/// `sw-faults`).
pub mod faults {
    pub use sw_faults::*;
}

/// Structured tracing, metrics, and timeline export (re-export of
/// `sw-trace`).
pub mod trace {
    pub use sw_trace::*;
}

pub use sw_lang::{FuncCtx, HwDesign, LangModel, RuntimeConfig, ThreadRuntime};
pub use sw_model::{MemoryModel, Pmo};
pub use sw_pmem::{Addr, Memory, PmImage, PmLayout};
pub use sw_sim::{Machine, SimConfig, SimStats};
pub use sw_workloads::BenchmarkId;
