//! `sw-trace`: structured event tracing, metrics, and timeline export for
//! the StrandWeaver simulator and runtime.
//!
//! The crate has three layers:
//!
//! 1. **Events and sinks** — [`TraceEvent`] is a typed vocabulary of
//!    observability events (store/CLWB issue, persist-queue and
//!    strand-buffer movement, per-cause stall intervals, fence retirement,
//!    PM-controller accepts, recovery phases, injected and online
//!    faults). Producers emit through the [`TraceSink`] trait; sinks are
//!    held as `Option<Box<dyn TraceSink>>` so the disabled path costs one
//!    branch. [`RingRecorder`] is a bounded in-memory sink whose cloneable
//!    handle lets callers read events back after the producer is consumed.
//! 2. **Metrics** — [`MetricsRegistry`] offers counters, gauges (with
//!    high-water marks) and power-of-two histograms behind index-based
//!    IDs; [`MetricsSnapshot`] freezes values for embedding in run stats.
//! 3. **Export** — [`perfetto::chrome_trace`] renders recorded events as
//!    Chrome trace-event JSON loadable in <https://ui.perfetto.dev>
//!    (per-core stall duration tracks, queue/occupancy counter tracks);
//!    [`perfetto::jsonl`] renders flat JSON Lines. Serialization uses the
//!    in-crate [`json`] model (the build environment has no crates.io
//!    access, so no `serde`).
//!
//! The crate deliberately has **no dependencies**, so the simulator,
//! language runtime, and benchmark driver can all share it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod sink;

pub use event::{StallKind, TimedEvent, TraceEvent};
pub use json::Json;
pub use metrics::{
    CounterId, GaugeId, GaugeSnapshot, HistogramId, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use perfetto::{chrome_trace, jsonl};
pub use sink::{NullSink, RingRecorder, TraceSink};
