//! Typed trace events emitted by the simulator and the language runtime.

use crate::json::Json;

/// Why a core could not make progress: the simulator counts its stall
/// cycles by this kind, and trace events and the `stalls.*` metrics name
/// it by [`StallKind::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Blocked by fence semantics (SFENCE wait, `JoinStrand` drain, HOPS
    /// `dfence`).
    Fence,
    /// Store queue full.
    StoreQueueFull,
    /// Persist queue (or HOPS persist buffer / Intel flush slots) full.
    PersistQueueFull,
    /// Waiting for a contended lock.
    Lock,
    /// The PM controller's write queue itself is full: back-pressure from
    /// the device, not from the design's persist structure.
    PmWriteQueueFull,
    /// A faulted write is in retry backoff at the PM controller (online
    /// device-fault model); everything behind it waits.
    RetryWait,
}

impl StallKind {
    /// All stall kinds, in reporting order.
    pub const ALL: [StallKind; 6] = [
        StallKind::Fence,
        StallKind::StoreQueueFull,
        StallKind::PersistQueueFull,
        StallKind::Lock,
        StallKind::PmWriteQueueFull,
        StallKind::RetryWait,
    ];

    /// Short stable label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::Fence => "fence",
            StallKind::StoreQueueFull => "sq_full",
            StallKind::PersistQueueFull => "pq_full",
            StallKind::Lock => "lock",
            StallKind::PmWriteQueueFull => "pm_wq_full",
            StallKind::RetryWait => "retry_wait",
        }
    }
}

/// One structured observability event.
///
/// Core-side events carry the issuing core; runtime-side events (log and
/// recovery) carry the logical thread. `line` fields are cache-line
/// indexes (`LineAddr` raw values); `kind` fields are short stable labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A store entered the store queue.
    StoreIssue {
        /// Issuing core.
        core: u32,
        /// Target cache line.
        line: u64,
    },
    /// A CLWB was issued into the design's persist structure.
    ClwbIssue {
        /// Issuing core.
        core: u32,
        /// Target cache line.
        line: u64,
    },
    /// An entry entered the persist queue; `depth` is the occupancy after.
    PqEnqueue {
        /// Issuing core.
        core: u32,
        /// Queue depth after the enqueue.
        depth: u32,
    },
    /// An entry left the persist queue for the strand buffer unit.
    PqDequeue {
        /// Issuing core.
        core: u32,
        /// Queue depth after the dequeue.
        depth: u32,
    },
    /// An entry was appended to a strand buffer.
    SbEnqueue {
        /// Owning core.
        core: u32,
        /// Strand buffer index within the unit.
        buffer: u32,
        /// Buffer occupancy after the append.
        occupancy: u32,
    },
    /// Entries retired from a strand buffer (drain progress).
    SbRetire {
        /// Owning core.
        core: u32,
        /// Strand buffer index within the unit.
        buffer: u32,
        /// Buffer occupancy after the retirement.
        occupancy: u32,
    },
    /// A core began stalling for `cause`.
    StallBegin {
        /// Stalled core.
        core: u32,
        /// Stall cause.
        cause: StallKind,
    },
    /// A core stopped stalling for `cause`.
    StallEnd {
        /// Previously stalled core.
        core: u32,
        /// Stall cause that ended.
        cause: StallKind,
    },
    /// A fence instruction retired (its issue condition was satisfied).
    FenceRetire {
        /// Issuing core.
        core: u32,
        /// Fence mnemonic (`pb`, `ns`, `js`, `sfence`, `ofence`,
        /// `dfence`).
        kind: &'static str,
    },
    /// The ADR PM controller accepted a line write (the durability point).
    AdrAccept {
        /// Line made durable.
        line: u64,
        /// Controller write-queue depth after acceptance.
        queue_depth: u32,
    },
    /// A store became durable at coherence visibility (the durability
    /// point of battery-backed eADR designs, where the caches are inside
    /// the persistence domain).
    PersistVisible {
        /// Core whose store retired.
        core: u32,
        /// Line made durable.
        line: u64,
    },
    /// A recovery phase started.
    RecoveryBegin {
        /// Phase label (`scan`, `undo`, `redo`, `reset`).
        phase: &'static str,
    },
    /// A recovery phase finished.
    RecoveryEnd {
        /// Phase label (matches the corresponding `RecoveryBegin`).
        phase: &'static str,
        /// Items processed in the phase (entries scanned / applied).
        items: u64,
    },
    /// A fault-injection campaign perturbed one line of a crash image.
    FaultInjected {
        /// Logical thread owning the damaged log region (`u32::MAX` for
        /// faults outside any log region).
        thread: u32,
        /// Cache line perturbed (`LineAddr` raw value).
        line: u64,
        /// Fault class label (`torn`, `bitflip`, `poison`).
        class: &'static str,
    },
    /// Recovery's scan classified a log slot as damaged.
    CorruptionDetected {
        /// Logical thread owning the log region.
        thread: u32,
        /// Cache line of the damaged slot (`LineAddr` raw value).
        line: u64,
        /// Damage kind label (`torn`, `checksum`, `poison`).
        kind: &'static str,
    },
    /// Salvage-policy recovery dropped a damaged log region from the
    /// consistency contract instead of failing.
    RegionSalvaged {
        /// Logical thread whose log was salvaged.
        thread: u32,
        /// Damaged slots that caused the salvage.
        dropped: u64,
    },
    /// An online device fault fired at the PM controller (transient write
    /// failure, permanent media error, or poisoned read).
    DeviceFault {
        /// Cache line the fault hit (`LineAddr` raw value).
        line: u64,
        /// Fault class label (`transient`, `permanent`, `read_poison`).
        class: &'static str,
    },
    /// A previously faulted line write was accepted on retry (the
    /// transient-fault recovery path; the persist was delayed, never
    /// reordered).
    PersistRetried {
        /// Cache line whose write finally succeeded.
        line: u64,
        /// Failed attempts before the successful one.
        attempts: u32,
    },
    /// A permanent media error was quarantined: the controller remapped
    /// the faulty line to a spare and accepted the write there.
    LineRemapped {
        /// Faulty (logical) line.
        from: u64,
        /// Spare (physical) line now backing it.
        to: u64,
    },
    /// A line needed retirement but the spare pool was empty: the device
    /// has failed and the layer above must fail it over.
    SparesExhausted {
        /// Logical line the device can no longer serve.
        line: u64,
    },
    /// Recovery rebuilt one heap pool from its PM metadata.
    HeapRecovered {
        /// Heap pool recovered.
        pool: u32,
        /// Live blocks after replay.
        live: u64,
        /// Torn in-flight journal records reclaimed.
        reclaimed: u64,
    },
    /// Salvage-policy recovery quarantined a damaged heap pool instead
    /// of failing.
    PoolSalvaged {
        /// Quarantined pool.
        pool: u32,
        /// Fatal metadata faults that caused the quarantine.
        faults: u64,
    },
    /// End-of-run self-profiling attribution for one simulator tick
    /// phase (emitted by `sw-sim` when a profiler is installed; stamped
    /// with the final cycle).
    PerfPhase {
        /// Stable phase label (`sw_perf::Phase::label`).
        phase: &'static str,
        /// Wall nanoseconds attributed to the phase over the run.
        nanos: u64,
        /// Times the phase boundary was crossed.
        calls: u64,
    },
}

impl TraceEvent {
    /// Short stable type tag used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::StoreIssue { .. } => "store_issue",
            TraceEvent::ClwbIssue { .. } => "clwb_issue",
            TraceEvent::PqEnqueue { .. } => "pq_enqueue",
            TraceEvent::PqDequeue { .. } => "pq_dequeue",
            TraceEvent::SbEnqueue { .. } => "sb_enqueue",
            TraceEvent::SbRetire { .. } => "sb_retire",
            TraceEvent::StallBegin { .. } => "stall_begin",
            TraceEvent::StallEnd { .. } => "stall_end",
            TraceEvent::FenceRetire { .. } => "fence_retire",
            TraceEvent::AdrAccept { .. } => "adr_accept",
            TraceEvent::PersistVisible { .. } => "persist_visible",
            TraceEvent::RecoveryBegin { .. } => "recovery_begin",
            TraceEvent::RecoveryEnd { .. } => "recovery_end",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::CorruptionDetected { .. } => "corruption_detected",
            TraceEvent::RegionSalvaged { .. } => "region_salvaged",
            TraceEvent::DeviceFault { .. } => "device_fault",
            TraceEvent::PersistRetried { .. } => "persist_retried",
            TraceEvent::LineRemapped { .. } => "line_remapped",
            TraceEvent::SparesExhausted { .. } => "spares_exhausted",
            TraceEvent::HeapRecovered { .. } => "heap_recovered",
            TraceEvent::PoolSalvaged { .. } => "pool_salvaged",
            TraceEvent::PerfPhase { .. } => "perf_phase",
        }
    }

    /// The event's payload as `(name, value)` pairs, in export order.
    ///
    /// This is the one per-variant field list: the JSONL exporter prints
    /// it after `cycle` and `type`, and the Perfetto exporter derives every
    /// event's args from it.
    pub fn fields(&self) -> Vec<(&'static str, Json)> {
        use TraceEvent::*;
        fn n(v: impl Into<u64>) -> Json {
            Json::U64(v.into())
        }
        fn s(v: &str) -> Json {
            Json::Str(v.to_string())
        }
        match *self {
            StoreIssue { core, line }
            | ClwbIssue { core, line }
            | PersistVisible { core, line } => {
                vec![("core", n(core)), ("line", n(line))]
            }
            PqEnqueue { core, depth } | PqDequeue { core, depth } => {
                vec![("core", n(core)), ("depth", n(depth))]
            }
            SbEnqueue {
                core,
                buffer,
                occupancy,
            }
            | SbRetire {
                core,
                buffer,
                occupancy,
            } => vec![
                ("core", n(core)),
                ("buffer", n(buffer)),
                ("occupancy", n(occupancy)),
            ],
            StallBegin { core, cause } | StallEnd { core, cause } => {
                vec![("core", n(core)), ("cause", s(cause.label()))]
            }
            FenceRetire { core, kind } => vec![("core", n(core)), ("kind", s(kind))],
            AdrAccept { line, queue_depth } => {
                vec![("line", n(line)), ("queue_depth", n(queue_depth))]
            }
            RecoveryBegin { phase } => vec![("phase", s(phase))],
            RecoveryEnd { phase, items } => vec![("phase", s(phase)), ("items", n(items))],
            FaultInjected {
                thread,
                line,
                class,
            } => vec![
                ("thread", n(thread)),
                ("line", n(line)),
                ("class", s(class)),
            ],
            CorruptionDetected { thread, line, kind } => {
                vec![("thread", n(thread)), ("line", n(line)), ("kind", s(kind))]
            }
            RegionSalvaged { thread, dropped } => {
                vec![("thread", n(thread)), ("dropped", n(dropped))]
            }
            DeviceFault { line, class } => vec![("line", n(line)), ("class", s(class))],
            PersistRetried { line, attempts } => {
                vec![("line", n(line)), ("attempts", n(attempts))]
            }
            LineRemapped { from, to } => vec![("from", n(from)), ("to", n(to))],
            SparesExhausted { line } => vec![("line", n(line))],
            HeapRecovered {
                pool,
                live,
                reclaimed,
            } => vec![
                ("pool", n(pool)),
                ("live", n(live)),
                ("reclaimed", n(reclaimed)),
            ],
            PoolSalvaged { pool, faults } => vec![("pool", n(pool)), ("faults", n(faults))],
            PerfPhase {
                phase,
                nanos,
                calls,
            } => vec![
                ("phase", s(phase)),
                ("nanos", n(nanos)),
                ("calls", n(calls)),
            ],
        }
    }
}

/// A [`TraceEvent`] stamped with the cycle (or runtime sequence number) at
/// which it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Timestamp: simulator cycle for hardware events, global store
    /// sequence for runtime events.
    pub cycle: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TimedEvent {
    /// Flat JSON object used by the JSONL exporter: `cycle`, `type`, then
    /// the event's [`fields`](TraceEvent::fields).
    pub fn to_json(&self) -> Json {
        let head = [
            ("cycle", Json::U64(self.cycle)),
            ("type", Json::Str(self.event.kind().to_string())),
        ];
        Json::obj(head.into_iter().chain(self.event.fields()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique() {
        let kinds = [
            TraceEvent::StoreIssue { core: 0, line: 0 }.kind(),
            TraceEvent::ClwbIssue { core: 0, line: 0 }.kind(),
            TraceEvent::PqEnqueue { core: 0, depth: 0 }.kind(),
            TraceEvent::PqDequeue { core: 0, depth: 0 }.kind(),
            TraceEvent::StallBegin {
                core: 0,
                cause: StallKind::Fence,
            }
            .kind(),
            TraceEvent::StallEnd {
                core: 0,
                cause: StallKind::Fence,
            }
            .kind(),
            TraceEvent::AdrAccept {
                line: 0,
                queue_depth: 0,
            }
            .kind(),
            TraceEvent::PersistVisible { core: 0, line: 0 }.kind(),
            TraceEvent::PerfPhase {
                phase: "engine",
                nanos: 0,
                calls: 0,
            }
            .kind(),
            TraceEvent::HeapRecovered {
                pool: 0,
                live: 0,
                reclaimed: 0,
            }
            .kind(),
            TraceEvent::PoolSalvaged { pool: 0, faults: 1 }.kind(),
            TraceEvent::SparesExhausted { line: 0 }.kind(),
        ];
        let mut dedup = kinds.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len());
    }

    #[test]
    fn jsonl_object_carries_fields() {
        let ev = TimedEvent {
            cycle: 7,
            event: TraceEvent::StallBegin {
                core: 2,
                cause: StallKind::PersistQueueFull,
            },
        };
        let rendered = ev.to_json().render();
        assert!(rendered.contains("\"cycle\":7"));
        assert!(rendered.contains("\"type\":\"stall_begin\""));
        assert!(rendered.contains("\"cause\":\"pq_full\""));
    }
}
