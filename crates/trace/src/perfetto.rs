//! Exporters: Chrome/Perfetto trace-event JSON and flat JSONL.
//!
//! The Chrome trace-event format (the legacy JSON format, which Perfetto's
//! UI at <https://ui.perfetto.dev> loads directly) is a `traceEvents` array
//! of objects with `ph` (phase), `ts` (microseconds), `pid`/`tid`, `name`,
//! `cat` and `args`. We map one simulated cycle to one microsecond and lay
//! tracks out as:
//!
//! * `tid = core`            — per-core instruction/stall track: `ph B`/`E`
//!   duration events for stalls (`name = "stall:<cause>"`), `ph i` instants
//!   for store/CLWB issue and fence retirement;
//! * counter tracks (`ph C`) — persist-queue depth per core
//!   (`pq_depth/core<n>`), strand-buffer occupancy per buffer
//!   (`sb_occupancy/core<n>/buf<m>`), and PM-controller queue depth;
//! * `tid = 1000`            — ADR PM controller accepts (`ph i`);
//! * `tid = 1100 + thread`   — runtime log append/commit instants;
//! * `tid = 1200`            — recovery phases as `ph B`/`E` durations,
//!   plus corruption-detected / region-salvaged instants;
//! * `tid = 1300`            — fault-injection instants.
//!
//! Args are never written out per event: an event's args are its
//! [`TraceEvent::fields`] minus those its track or name already carries.

use std::collections::{BTreeSet, HashMap};

use crate::event::{StallKind, TimedEvent, TraceEvent};
use crate::json::Json;

/// `tid` used for the PM controller track.
pub const TID_PM_CONTROLLER: u32 = 1000;
/// `tid` base for runtime log threads (`base + thread`).
pub const TID_LOG_BASE: u32 = 1100;
/// `tid` used for the recovery track.
pub const TID_RECOVERY: u32 = 1200;
/// `tid` used for the fault-injection track.
pub const TID_FAULTS: u32 = 1300;

/// The name Perfetto shows for a track.
fn track_name(tid: u32) -> String {
    match tid {
        TID_PM_CONTROLLER => "pm controller".to_string(),
        TID_RECOVERY => "recovery".to_string(),
        TID_FAULTS => "faults".to_string(),
        t if t >= TID_LOG_BASE => format!("log thread {}", t - TID_LOG_BASE),
        core => format!("core {core}"),
    }
}

fn meta_thread_name(tid: u32) -> Json {
    Json::obj([
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::U64(0)),
        ("tid", Json::U64(tid.into())),
        ("name", Json::Str("thread_name".to_string())),
        ("args", Json::obj([("name", Json::Str(track_name(tid)))])),
    ])
}

/// The leading fields of an event on a track (instants and durations).
fn on_track(ph: &str, ts: u64, tid: u32, name: &str, cat: &str) -> Vec<(&'static str, Json)> {
    vec![
        ("ph", Json::Str(ph.to_string())),
        ("ts", Json::U64(ts)),
        ("pid", Json::U64(0)),
        ("tid", Json::U64(tid.into())),
        ("name", Json::Str(name.to_string())),
        ("cat", Json::Str(cat.to_string())),
    ]
}

fn stall(ph: &str, ts: u64, core: u32, cause: StallKind) -> Json {
    let name = format!("stall:{}", cause.label());
    Json::obj(on_track(ph, ts, core, &name, "stall"))
}

fn counter(ts: u64, name: &str, series: &'static str, value: u64) -> Json {
    Json::obj([
        ("ph", Json::Str("C".to_string())),
        ("ts", Json::U64(ts)),
        ("pid", Json::U64(0)),
        ("name", Json::Str(name.to_string())),
        ("args", Json::obj([(series, Json::U64(value))])),
    ])
}

/// The event's [`fields`](TraceEvent::fields) minus those its track,
/// name or companion counter already carries.
fn args(event: &TraceEvent, carried: &[&str]) -> Json {
    Json::obj(
        event
            .fields()
            .into_iter()
            .filter(|(k, _)| !carried.contains(k)),
    )
}

/// Where an instant event lands: its track, name and category, and the
/// fields those already carry (dropped from its args).
type Placement = (u32, String, &'static str, &'static [&'static str]);

/// The placement row of every event exported as an instant; `None` for
/// the counters and durations that [`chrome_trace`] lays out itself.
fn placement(event: &TraceEvent) -> Option<Placement> {
    use TraceEvent::*;
    let kind = event.kind().to_string();
    Some(match *event {
        StoreIssue { core, .. } => (core, "store".to_string(), "issue", &["core"]),
        ClwbIssue { core, .. } => (core, "clwb".to_string(), "issue", &["core"]),
        FenceRetire { core, kind } => (core, format!("fence:{kind}"), "fence", &["core", "kind"]),
        // The queue depth goes to the `pm_queue_depth` counter.
        AdrAccept { .. } => (TID_PM_CONTROLLER, kind, "pm", &["queue_depth"]),
        PersistVisible { .. } | PersistRetried { .. } | LineRemapped { .. } => {
            (TID_PM_CONTROLLER, kind, "pm", &[])
        }
        LogAppend { thread, .. } | LogCommit { thread, .. } => {
            (TID_LOG_BASE + thread, kind, "log", &["thread"])
        }
        FaultInjected { class, .. } => (TID_FAULTS, format!("fault:{class}"), "fault", &["class"]),
        DeviceFault { class, .. } => (TID_FAULTS, format!("device:{class}"), "fault", &["class"]),
        SparesExhausted { .. } => (TID_FAULTS, kind, "fault", &[]),
        CorruptionDetected { kind, .. } => (
            TID_RECOVERY,
            format!("corruption:{kind}"),
            "fault",
            &["kind"],
        ),
        RegionSalvaged { .. } | PoolSalvaged { .. } => (TID_RECOVERY, kind, "fault", &[]),
        HeapAlloc { carve: true, .. } => {
            (TID_RECOVERY, "heap_carve".to_string(), "heap", &["carve"])
        }
        HeapAlloc { .. } => (TID_RECOVERY, kind, "heap", &["carve"]),
        HeapFree { .. } | HeapCheckpoint { .. } | HeapRecovered { .. } => {
            (TID_RECOVERY, kind, "heap", &[])
        }
        PqEnqueue { .. }
        | PqDequeue { .. }
        | SbEnqueue { .. }
        | SbRetire { .. }
        | StallBegin { .. }
        | StallEnd { .. }
        | RecoveryBegin { .. }
        | RecoveryEnd { .. }
        | PerfPhase { .. } => return None,
    })
}

/// Converts recorded events into a Chrome/Perfetto trace-event JSON
/// document (`{"traceEvents": [...], "displayTimeUnit": "ns"}`).
///
/// One simulated cycle is exported as one microsecond of trace time.
/// Stall intervals become `B`/`E` duration events; a `StallBegin` with no
/// matching `StallEnd` is closed at the last timestamp seen so Perfetto
/// never receives an unbalanced stack.
pub fn chrome_trace(events: &[TimedEvent]) -> Json {
    let mut out: Vec<Json> = Vec::new();
    // Every track an event names, labelled up front in ascending tid order.
    let mut tracks: BTreeSet<u32> = BTreeSet::new();
    // (core, cause) -> begin cycle, for closing dangling stalls.
    let mut open_stalls: HashMap<(u32, StallKind), u64> = HashMap::new();
    let mut max_ts = 0u64;

    for &TimedEvent { cycle: ts, event } in events {
        max_ts = max_ts.max(ts);
        if let Some((tid, name, cat, carried)) = placement(&event) {
            tracks.insert(tid);
            let mut e = on_track("i", ts, tid, &name, cat);
            e.push(("s", Json::Str("t".to_string())));
            e.push(("args", args(&event, carried)));
            out.push(Json::obj(e));
        }
        match event {
            TraceEvent::PqEnqueue { core, depth } | TraceEvent::PqDequeue { core, depth } => {
                tracks.insert(core);
                let name = format!("pq_depth/core{core}");
                out.push(counter(ts, &name, "depth", depth.into()));
            }
            TraceEvent::SbEnqueue {
                core,
                buffer,
                occupancy,
            }
            | TraceEvent::SbRetire {
                core,
                buffer,
                occupancy,
            } => {
                tracks.insert(core);
                let name = format!("sb_occupancy/core{core}/buf{buffer}");
                out.push(counter(ts, &name, "occupancy", occupancy.into()));
            }
            TraceEvent::AdrAccept { queue_depth, .. } => {
                out.push(counter(ts, "pm_queue_depth", "depth", queue_depth.into()));
            }
            TraceEvent::PerfPhase { phase, nanos, .. } => {
                out.push(counter(ts, &format!("perf/{phase}"), "nanos", nanos));
            }
            TraceEvent::StallBegin { core, cause } => {
                tracks.insert(core);
                // A duplicate begin (shouldn't happen) keeps the first.
                open_stalls.entry((core, cause)).or_insert(ts);
                out.push(stall("B", ts, core, cause));
            }
            TraceEvent::StallEnd { core, cause } => {
                tracks.insert(core);
                if open_stalls.remove(&(core, cause)).is_some() {
                    out.push(stall("E", ts, core, cause));
                }
            }
            TraceEvent::RecoveryBegin { phase } => {
                tracks.insert(TID_RECOVERY);
                let name = format!("recovery:{phase}");
                let e = on_track("B", ts, TID_RECOVERY, &name, "recovery");
                out.push(Json::obj(e));
            }
            TraceEvent::RecoveryEnd { phase, .. } => {
                tracks.insert(TID_RECOVERY);
                let name = format!("recovery:{phase}");
                let mut e = on_track("E", ts, TID_RECOVERY, &name, "recovery");
                e.push(("args", args(&event, &["phase"])));
                out.push(Json::obj(e));
            }
            _ => {}
        }
    }

    // Close dangling stall intervals so every B has a matching E.
    let mut dangling: Vec<_> = open_stalls.into_iter().collect();
    dangling.sort_by_key(|((core, cause), begin)| (*core, cause.label(), *begin));
    for ((core, cause), _) in dangling {
        out.push(stall("E", max_ts, core, cause));
    }

    // Thread-name metadata, prepended so viewers label tracks immediately.
    let mut trace: Vec<Json> = tracks.into_iter().map(meta_thread_name).collect();
    trace.extend(out);
    Json::obj([
        ("traceEvents", Json::Arr(trace)),
        ("displayTimeUnit", Json::Str("ns".to_string())),
    ])
}

/// Renders events as JSON Lines: one flat object per line.
pub fn jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for te in events {
        out.push_str(&te.to_json().render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_events() -> Vec<TimedEvent> {
        let mut v = Vec::new();
        let mut push = |cycle: u64, event: TraceEvent| v.push(TimedEvent { cycle, event });
        push(0, TraceEvent::StoreIssue { core: 0, line: 4 });
        push(1, TraceEvent::PqEnqueue { core: 0, depth: 1 });
        push(
            2,
            TraceEvent::SbEnqueue {
                core: 0,
                buffer: 1,
                occupancy: 3,
            },
        );
        push(
            3,
            TraceEvent::StallBegin {
                core: 0,
                cause: StallKind::Fence,
            },
        );
        push(
            9,
            TraceEvent::StallEnd {
                core: 0,
                cause: StallKind::Fence,
            },
        );
        push(
            4,
            TraceEvent::StallBegin {
                core: 1,
                cause: StallKind::Lock,
            },
        );
        // core 1's lock stall never ends: must be closed at max ts.
        push(
            10,
            TraceEvent::AdrAccept {
                line: 4,
                queue_depth: 2,
            },
        );
        push(11, TraceEvent::LogAppend { thread: 0, seq: 1 });
        push(12, TraceEvent::RecoveryBegin { phase: "scan" });
        push(
            13,
            TraceEvent::RecoveryEnd {
                phase: "scan",
                items: 5,
            },
        );
        push(
            14,
            TraceEvent::FaultInjected {
                thread: 0,
                line: 9,
                class: "bitflip",
            },
        );
        push(
            15,
            TraceEvent::CorruptionDetected {
                thread: 0,
                line: 9,
                kind: "checksum",
            },
        );
        push(
            16,
            TraceEvent::RegionSalvaged {
                thread: 0,
                dropped: 1,
            },
        );
        v
    }

    fn events_of(doc: &Json) -> &[Json] {
        doc.get("traceEvents").and_then(Json::as_arr).unwrap()
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let doc = chrome_trace(&sample_events());
        let text = doc.render();
        let parsed = json::parse(&text).expect("exporter output parses");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn stall_intervals_are_balanced() {
        let doc = chrome_trace(&sample_events());
        let mut begins = 0;
        let mut ends = 0;
        for e in events_of(&doc) {
            match e.get("ph").and_then(Json::as_str) {
                Some("B") if e.get("cat").and_then(Json::as_str) == Some("stall") => begins += 1,
                Some("E") if e.get("cat").and_then(Json::as_str) == Some("stall") => ends += 1,
                _ => {}
            }
        }
        assert_eq!(begins, 2);
        assert_eq!(ends, 2, "dangling stall must be closed");
    }

    #[test]
    fn tracks_are_named() {
        let doc = chrome_trace(&sample_events());
        let names: Vec<_> = events_of(&doc)
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert!(names.contains(&"core 0"));
        assert!(names.contains(&"core 1"));
        assert!(names.contains(&"pm controller"));
        assert!(names.contains(&"log thread 0"));
        assert!(names.contains(&"recovery"));
        assert!(names.contains(&"faults"));
    }

    #[test]
    fn fault_events_land_on_their_tracks() {
        let doc = chrome_trace(&sample_events());
        let on_track = |tid: u32, name: &str| {
            events_of(&doc).iter().any(|e| {
                e.get("tid").and_then(Json::as_u64) == Some(tid.into())
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
        };
        assert!(on_track(TID_FAULTS, "fault:bitflip"));
        assert!(on_track(TID_RECOVERY, "corruption:checksum"));
        assert!(on_track(TID_RECOVERY, "region_salvaged"));
    }

    #[test]
    fn counter_tracks_present() {
        let doc = chrome_trace(&sample_events());
        let counters: Vec<_> = events_of(&doc)
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(counters.contains(&"pq_depth/core0"));
        assert!(counters.contains(&"sb_occupancy/core0/buf1"));
        assert!(counters.contains(&"pm_queue_depth"));
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let events = sample_events();
        let text = jsonl(&events);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in lines {
            json::parse(line).expect("each line parses");
        }
    }
}
