//! Byte-for-byte goldens of both exporters over one fixed event list that
//! holds every `TraceEvent` variant, a stall left open at the end of the
//! trace, and a `StallEnd` with no matching begin.
//!
//! The goldens live in the repository's `expected/` directory beside the
//! figure and campaign goldens; regenerate them only when an export format
//! changes on purpose.

use sw_trace::{chrome_trace, jsonl, StallKind, TimedEvent, TraceEvent};

const CHROME_GOLDEN: &str = include_str!("../../../expected/trace_every_variant.json");
const JSONL_GOLDEN: &str = include_str!("../../../expected/trace_every_variant.jsonl");

/// One event of every variant, spread over five cores, two log threads and
/// every non-core track, in an order that is not sorted by cycle.
fn every_variant() -> Vec<TimedEvent> {
    use TraceEvent::*;
    let events = [
        (3, StoreIssue { core: 1, line: 40 }),
        (4, ClwbIssue { core: 1, line: 40 }),
        (5, PqEnqueue { core: 1, depth: 1 }),
        // Counters alone name their core's track (cores 3 and 4).
        (9, PqDequeue { core: 3, depth: 0 }),
        (
            10,
            SbEnqueue {
                core: 0,
                buffer: 2,
                occupancy: 3,
            },
        ),
        (
            12,
            SbRetire {
                core: 4,
                buffer: 0,
                occupancy: 1,
            },
        ),
        (
            6,
            StallBegin {
                core: 1,
                cause: StallKind::Fence,
            },
        ),
        // A duplicate begin is exported but keeps the first begin cycle.
        (
            7,
            StallBegin {
                core: 1,
                cause: StallKind::Fence,
            },
        ),
        (
            11,
            StallEnd {
                core: 1,
                cause: StallKind::Fence,
            },
        ),
        // Left open: closed at the last timestamp of the trace.
        (
            7,
            StallBegin {
                core: 0,
                cause: StallKind::PersistQueueFull,
            },
        ),
        // No matching begin: names core 2's track, emits nothing.
        (
            8,
            StallEnd {
                core: 2,
                cause: StallKind::RetryWait,
            },
        ),
        (
            13,
            FenceRetire {
                core: 1,
                kind: "js",
            },
        ),
        (
            14,
            AdrAccept {
                line: 40,
                queue_depth: 2,
            },
        ),
        (15, PersistVisible { core: 0, line: 41 }),
        (16, LogAppend { thread: 1, seq: 17 }),
        (
            17,
            LogCommit {
                thread: 0,
                entries: 4,
                cut: 17,
            },
        ),
        (18, RecoveryBegin { phase: "scan" }),
        (
            19,
            RecoveryEnd {
                phase: "scan",
                items: 6,
            },
        ),
        (
            20,
            FaultInjected {
                thread: 1,
                line: 42,
                class: "bitflip",
            },
        ),
        (
            21,
            CorruptionDetected {
                thread: 1,
                line: 42,
                kind: "checksum",
            },
        ),
        (
            22,
            RegionSalvaged {
                thread: 1,
                dropped: 1,
            },
        ),
        (
            23,
            DeviceFault {
                line: 43,
                class: "transient",
            },
        ),
        (
            24,
            PersistRetried {
                line: 43,
                attempts: 2,
            },
        ),
        (25, LineRemapped { from: 44, to: 900 }),
        (26, SparesExhausted { line: 45 }),
        (
            27,
            HeapAlloc {
                pool: 1,
                off: 8,
                lines: 4,
                carve: true,
            },
        ),
        (
            28,
            HeapAlloc {
                pool: 1,
                off: 12,
                lines: 2,
                carve: false,
            },
        ),
        (
            29,
            HeapFree {
                pool: 1,
                off: 12,
                lines: 2,
            },
        ),
        (
            30,
            HeapCheckpoint {
                pool: 1,
                epoch: 3,
                blocks: 1,
            },
        ),
        (
            31,
            HeapRecovered {
                pool: 1,
                live: 1,
                reclaimed: 0,
            },
        ),
        (32, PoolSalvaged { pool: 1, faults: 2 }),
        (
            33,
            PerfPhase {
                phase: "engine",
                nanos: 1234,
                calls: 56,
            },
        ),
        (2, StoreIssue { core: 0, line: 39 }),
    ];
    events
        .into_iter()
        .map(|(cycle, event)| TimedEvent { cycle, event })
        .collect()
}

#[test]
fn chrome_trace_matches_its_golden() {
    assert_eq!(chrome_trace(&every_variant()).render(), CHROME_GOLDEN);
}

#[test]
fn jsonl_matches_its_golden() {
    assert_eq!(jsonl(&every_variant()), JSONL_GOLDEN);
}
