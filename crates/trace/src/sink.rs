//! Trace sinks: where emitted events go.
//!
//! The simulator holds an `Option<Box<dyn TraceSink>>`; when it is `None`
//! the emit sites reduce to a branch on a `None` discriminant, which is the
//! zero-overhead-when-disabled contract the microbenchmark checks.

use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::{TimedEvent, TraceEvent};

/// Receives timed trace events.
///
/// `Debug` is a supertrait so that structs holding a boxed sink can keep
/// deriving `Debug`.
pub trait TraceSink: Debug {
    /// Records one event at `cycle` (simulator cycle, or a runtime
    /// sequence number for software-side events).
    fn record(&mut self, cycle: u64, event: TraceEvent);
}

/// A sink that discards everything: what an untraced call passes to a
/// traced implementation, and the baseline for measuring the cost of the
/// emit-site plumbing itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _cycle: u64, _event: TraceEvent) {}
}

/// Shared state behind a [`RingRecorder`] handle.
#[derive(Debug)]
struct RingState {
    events: Vec<TimedEvent>,
    capacity: usize,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    recorded: u64,
    dropped: u64,
}

/// A bounded in-memory recorder.
///
/// Cloning the recorder clones a *handle* to the same ring, so a caller can
/// keep one handle, hand the other to the simulator (which consumes itself
/// on `run`), and read the events back afterwards. Handles are `Send +
/// Sync`, so a configuration holding one can cross threads. When the ring
/// fills, the oldest events are overwritten and counted in [`dropped`].
///
/// [`dropped`]: RingRecorder::dropped
#[derive(Debug, Clone)]
pub struct RingRecorder {
    state: Arc<Mutex<RingState>>,
}

impl RingRecorder {
    /// Creates a recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            state: Arc::new(Mutex::new(RingState {
                events: Vec::new(),
                capacity,
                head: 0,
                recorded: 0,
                dropped: 0,
            })),
        }
    }

    /// The shared ring (nothing panics while holding its lock).
    fn state(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().expect("ring recorder lock poisoned")
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        let s = self.state();
        if s.events.len() < s.capacity {
            s.events.clone()
        } else {
            // Ring is full: `head` is the oldest entry.
            let mut out = Vec::with_capacity(s.events.len());
            out.extend_from_slice(&s.events[s.head..]);
            out.extend_from_slice(&s.events[..s.head]);
            out
        }
    }

    /// Total events offered to the recorder (kept + dropped).
    pub fn recorded(&self) -> u64 {
        self.state().recorded
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state().dropped
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.state().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        let mut s = self.state();
        s.recorded += 1;
        let timed = TimedEvent { cycle, event };
        if s.events.len() < s.capacity {
            s.events.push(timed);
        } else {
            let head = s.head;
            s.events[head] = timed;
            s.head = (head + 1) % s.capacity;
            s.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(core: u32) -> TraceEvent {
        TraceEvent::StoreIssue {
            core,
            line: core as u64,
        }
    }

    #[test]
    fn records_in_order_below_capacity() {
        let recorder = RingRecorder::new(8);
        let mut sink = recorder.clone();
        for i in 0..5 {
            sink.record(i, ev(i as u32));
        }
        let events = recorder.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].cycle, 0);
        assert_eq!(events[4].cycle, 4);
        assert_eq!(recorder.recorded(), 5);
        assert_eq!(recorder.dropped(), 0);
    }

    #[test]
    fn wraps_and_keeps_newest() {
        let recorder = RingRecorder::new(4);
        let mut sink = recorder.clone();
        for i in 0..10 {
            sink.record(i, ev(i as u32));
        }
        let events = recorder.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(recorder.recorded(), 10);
        assert_eq!(recorder.dropped(), 6);
    }

    #[test]
    fn handle_survives_sink_consumption() {
        let recorder = RingRecorder::new(4);
        {
            let mut sink: Box<dyn TraceSink> = Box::new(recorder.clone());
            sink.record(1, ev(0));
            // Box dropped here, as when Machine::run consumes the machine.
        }
        assert_eq!(recorder.len(), 1);
    }
}
