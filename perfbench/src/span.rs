//! Spans and counters of a traced pass. Spans stay in memory while the
//! pass runs; the per-layer metrics are folded from them when it ends.

use std::collections::BTreeSet;
use std::time::Instant;

use strandweaver::faults::OnlineFaultStats;
use strandweaver::trace::Json;
use sw_perf::PerfSnapshot;

use crate::host::ThreadFaults;

/// The layer a span name belongs to; `None` for grouping spans (one timing
/// run, one campaign round, one serve cell) whose self time is glue.
pub fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "drive" => "drive",
        "sim.build" | "sim.run" => "sim",
        "pmo" => "pmo",
        "crash" => "crash",
        "recover" => "recover",
        "check" => "check",
        "faults" => "faults",
        "render" => "render",
        _ => return None,
    })
}

/// One closed span. `parent` indexes the same pass's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub self_ns: u64,
    pub minflt: u64,
}

/// Work counted at the same boundaries as the spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub isa_ops: u64,
    pub sim_events: u64,
    pub sim_cycles: u64,
    pub pmo_stores: u64,
    pub pmo_edges: u64,
    /// Largest transitive-closure bitset computed, in bytes.
    pub pmo_closure_bytes: u64,
    /// Distinct executions a PMO was computed over.
    pub pmo_execs: BTreeSet<u64>,
    pub crash_persisted: u64,
    pub crash_stores: u64,
    pub recover_writes: u64,
    pub check_pmo_edges: u64,
    pub injected: u64,
    pub detected: u64,
    pub online: OnlineFaultStats,
    pub render_bytes: u64,
    pub rounds: u64,
    pub reconverged: u64,
    pub legs: u64,
    pub durable_set_checks: u64,
}

impl Counts {
    fn merge(&mut self, o: Counts) {
        self.isa_ops += o.isa_ops;
        self.sim_events += o.sim_events;
        self.sim_cycles += o.sim_cycles;
        self.pmo_stores += o.pmo_stores;
        self.pmo_edges += o.pmo_edges;
        self.pmo_closure_bytes = self.pmo_closure_bytes.max(o.pmo_closure_bytes);
        self.pmo_execs.extend(o.pmo_execs);
        self.crash_persisted += o.crash_persisted;
        self.crash_stores += o.crash_stores;
        self.recover_writes += o.recover_writes;
        self.check_pmo_edges += o.check_pmo_edges;
        self.injected += o.injected;
        self.detected += o.detected;
        self.online.merge(&o.online);
        self.render_bytes += o.render_bytes;
        self.rounds += o.rounds;
        self.reconverged += o.reconverged;
        self.legs += o.legs;
        self.durable_set_checks += o.durable_set_checks;
    }
}

/// Bytes of the PMO transitive closure over `n` stores: one bitset row of
/// ⌈n/64⌉ words per store.
pub fn closure_bytes(n: u64) -> u64 {
    n * n.div_ceil(64) * 8
}

/// A thread's span recorder plus its counters.
pub struct Recorder {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    /// Open spans: (index, nanoseconds covered by closed children).
    open: Vec<(usize, u64)>,
    faults: ThreadFaults,
    next_exec: u64,
    pub counts: Counts,
}

impl Recorder {
    /// A recorder for the calling thread; times are relative to `epoch`.
    pub fn new(epoch: Instant, thread: usize) -> Self {
        Recorder {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            faults: ThreadFaults::open(),
            next_exec: (thread as u64) << 32,
            counts: Counts::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh execution id for [`Counts::pmo_execs`].
    pub fn new_exec(&mut self) -> u64 {
        self.next_exec += 1;
        self.next_exec
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            thread: self.thread,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().map(|&(p, _)| p),
            self_ns: 0,
            minflt: 0,
        });
        self.open.push((idx, 0));
        let flt0 = self.faults.read();
        let t0 = self.now_ns();
        let out = f(self);
        let t1 = self.now_ns();
        let flt1 = self.faults.read();
        let (_, children) = self.open.pop().expect("span stack balanced");
        let span = &mut self.spans[idx];
        span.start_ns = t0;
        span.end_ns = t1;
        span.self_ns = (t1 - t0).saturating_sub(children);
        span.minflt = flt1.saturating_sub(flt0);
        if let Some(parent) = self.open.last_mut() {
            parent.1 += t1 - t0;
        }
        out
    }

    /// Folds another thread's recorder into this one.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.counts.merge(other.counts);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON, for the file written when the pass ends.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_string())),
                        ("thread", Json::U64(s.thread as u64)),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("self_ns", Json::U64(s.self_ns)),
                        ("minflt", Json::U64(s.minflt)),
                    ])
                })
                .collect(),
        )
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Serve-layer figures taken from the untraced run's report.
#[derive(Debug, Clone, Default)]
pub struct ServeNumbers {
    pub cells: u64,
    pub goodput_ratio: f64,
    pub p99_cycles: f64,
    pub shed: u64,
    pub timeouts: u64,
    pub unavailable: u64,
}

/// Everything a traced pass produced.
pub struct TracedPass {
    pub rec: Recorder,
    pub perf: PerfSnapshot,
    pub wall_s: f64,
    /// Threads the replica ran on (1, or `nproc` for the figures sweep).
    pub workers: usize,
}

/// Folds a traced pass into the per-layer metrics. `untraced_wall_s` is
/// the same run's untraced pass, the base of the overhead ratio.
pub fn per_layer(t: &TracedPass, untraced_wall_s: f64, serve: &ServeNumbers) -> Vec<Metric> {
    let spans = t.rec.spans();
    let c = &t.rec.counts;
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let in_layer = |layer: &'static str| {
        spans
            .iter()
            .filter(move |s| layer_of(s.name) == Some(layer))
    };
    let count = |name: &'static str| named(name).count() as f64;
    let secs =
        |it: &mut dyn Iterator<Item = &Span>| it.map(|s| s.self_ns).sum::<u64>() as f64 / 1e9;
    let faults = |layer: &'static str| in_layer(layer).map(|s| s.minflt).sum::<u64>() as f64;
    let phase = |label: &str| {
        t.perf
            .phases
            .iter()
            .find(|p| p.phase == label)
            .map_or(0.0, |p| p.nanos as f64 / 1e9)
    };
    let layer_self_s: f64 = spans
        .iter()
        .filter(|s| layer_of(s.name).is_some())
        .map(|s| s.self_ns)
        .sum::<u64>() as f64
        / 1e9;
    let duration =
        |name: &'static str| named(name).map(|s| s.end_ns - s.start_ns).sum::<u64>() as f64 / 1e9;
    // `serve.cell` wraps the real, opaque `serve_cell` call; the replica
    // of its layer calls runs beside it in `serve.replica`. The traced
    // wall of the replica excludes the real calls.
    let cell_s = duration("serve.cell");
    let replica_wall_s = t.wall_s - cell_s;
    let online = &c.online;
    vec![
        m("drive.calls", count("drive"), "count"),
        m("drive.s", secs(&mut named("drive")), "s"),
        m("drive.isa_ops", c.isa_ops as f64, "count"),
        m("drive.minflt", faults("drive"), "count"),
        m("sim.runs", count("sim.run"), "count"),
        m("sim.build_s", secs(&mut named("sim.build")), "s"),
        m("sim.run_s", secs(&mut named("sim.run")), "s"),
        m("sim.events", c.sim_events as f64, "count"),
        m("sim.cycles", c.sim_cycles as f64, "cycles"),
        m("sim.minflt", faults("sim"), "count"),
        m("sim.phase.memctrl_s", phase("memctrl"), "s"),
        m("sim.phase.coherence_s", phase("coherence"), "s"),
        m("sim.phase.engine_s", phase("engine"), "s"),
        m("sim.phase.store_queue_s", phase("store_queue"), "s"),
        m("sim.phase.writeback_s", phase("writeback"), "s"),
        m("sim.phase.frontend_s", phase("frontend"), "s"),
        m("sim.phase.observe_s", phase("observe"), "s"),
        m("sim.phase.retire_s", phase("retire"), "s"),
        m("pmo.calls", count("pmo"), "count"),
        m("pmo.s", secs(&mut named("pmo")), "s"),
        m("pmo.stores", c.pmo_stores as f64, "count"),
        m("pmo.edges", c.pmo_edges as f64, "count"),
        m("pmo.minflt", faults("pmo"), "count"),
        m(
            "pmo.closure_mb",
            c.pmo_closure_bytes as f64 / (1 << 20) as f64,
            "MB",
        ),
        m(
            "pmo.calls_per_exec",
            ratio(count("pmo"), c.pmo_execs.len() as f64),
            "ratio",
        ),
        m("crash.samples", count("crash"), "count"),
        m("crash.s", secs(&mut named("crash")), "s"),
        m(
            "crash.persisted_frac",
            ratio(c.crash_persisted as f64, c.crash_stores as f64),
            "ratio",
        ),
        m("recover.calls", count("recover"), "count"),
        m("recover.s", secs(&mut named("recover")), "s"),
        m("recover.writes", c.recover_writes as f64, "count"),
        m("recover.minflt", faults("recover"), "count"),
        m("check.calls", count("check"), "count"),
        m("check.s", secs(&mut named("check")), "s"),
        m("check.pmo_edges", c.check_pmo_edges as f64, "count"),
        m("faults.injected", c.injected as f64, "count"),
        m(
            "faults.detected_ratio",
            ratio(c.detected as f64, c.injected as f64),
            "ratio",
        ),
        m("faults.inject_s", secs(&mut named("faults")), "s"),
        m(
            "faults.online.retry_ok_ratio",
            ratio(
                online.retries_succeeded as f64,
                (online.retries_succeeded + online.retries_failed) as f64,
            ),
            "ratio",
        ),
        m(
            "faults.online.remaps",
            online.lines_remapped as f64,
            "count",
        ),
        m("serve.cells", serve.cells as f64, "count"),
        m("serve.cell_s", cell_s, "s"),
        m("serve.legs", c.legs as f64, "count"),
        m("serve.goodput_ratio", serve.goodput_ratio, "ratio"),
        m("serve.p99_cycles", serve.p99_cycles, "cycles"),
        m("serve.shed", serve.shed as f64, "count"),
        m("serve.timeouts", serve.timeouts as f64, "count"),
        m("serve.unavailable", serve.unavailable as f64, "count"),
        // The real cells minus the layer time of their replicas: the
        // engine's request loop, which the replica cannot wrap. (The
        // replica's glue is left out: it holds the spans' own overhead.)
        m(
            "serve.engine_s",
            if cell_s > 0.0 {
                cell_s - (layer_self_s - secs(&mut named("render")))
            } else {
                0.0
            },
            "s",
        ),
        m("render.s", secs(&mut named("render")), "s"),
        m("render.bytes", c.render_bytes as f64, "bytes"),
        m(
            "trace.overhead_ratio",
            ratio(replica_wall_s, untraced_wall_s),
            "ratio",
        ),
        m(
            "trace.coverage",
            ratio(layer_self_s, replica_wall_s * t.workers as f64),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_bytes_is_one_bitset_row_per_store() {
        assert_eq!(closure_bytes(0), 0);
        assert_eq!(closure_bytes(1), 8);
        assert_eq!(closure_bytes(64), 64 * 8);
        assert_eq!(closure_bytes(65), 65 * 2 * 8);
        // ~14k stores, the queue campaign's driven run: ~23 MiB.
        let mb = closure_bytes(14_000) as f64 / (1 << 20) as f64;
        assert!((mb - 23.39).abs() < 0.01, "{mb}");
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.span("serve.cell", |rec| {
            rec.span("pmo", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        let outer = &spans[0];
        let inner = &spans[1];
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(
            outer.self_ns,
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
        assert!(outer.self_ns >= 2_000_000 && outer.self_ns < 5_000_000);
    }
}
