//! Machine-check surface for uncorrectable PM read errors.
//!
//! A device read of a poisoned line does not return bad data — real PM
//! parts raise a machine-check exception (MCE) and the OS delivers it to
//! the faulting thread. This module models that delivery point for the
//! functional runtime: a [`FuncCtx`](crate::FuncCtx) can be *armed* with
//! the set of poisoned lines ([`arm_mce`](crate::FuncCtx::arm_mce));
//! the first load that touches an armed persistent line trips a pending
//! [`MceError`], which the driver collects at the next region boundary
//! ([`take_mce`](crate::FuncCtx::take_mce)) and resolves under a
//! [`RecoveryPolicy`](crate::RecoveryPolicy):
//!
//! * `Strict` — the run aborts with the structured error (fail-stop, the
//!   data cannot be trusted);
//! * `Salvage` — the faulting thread is quarantined (no further regions
//!   are scheduled on it) and the run continues; consistency is only
//!   promised for data untouched by quarantined threads, mirroring the
//!   crash-image salvage contract.
//!
//! Each armed line trips at most once: hardware signals the poison on
//! first consumption, and the handler (abort or quarantine) prevents the
//! same thread from re-consuming it.

/// An uncorrectable PM read error delivered to a thread, in the style of
/// an MCE record: who consumed the poison, where, and when (the context's
/// load ordinal, for reproducing the trap point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MceError {
    /// Thread whose load consumed the poisoned line.
    pub thread: usize,
    /// Poisoned cache line (`LineAddr` raw value).
    pub line: u64,
    /// Ordinal of the faulting load within the context (1-based).
    pub op_index: u64,
}

impl std::fmt::Display for MceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "uncorrectable PM read (MCE): thread {} consumed poisoned line {} at load #{}",
            self.thread, self.line, self.op_index
        )
    }
}

impl std::error::Error for MceError {}

/// Armed-poison state carried by a [`FuncCtx`](crate::FuncCtx). Boxed
/// behind an `Option` so the unarmed load path pays a single branch.
#[derive(Debug, Default)]
pub(crate) struct MceUnit {
    /// Lines that raise on first consumption (raw `LineAddr` values).
    pub(crate) armed: Vec<u64>,
    /// The oldest undelivered trap (delivery is one at a time, like a
    /// machine-check bank).
    pub(crate) pending: Option<MceError>,
}

impl MceUnit {
    /// Trips the trap for `line` consumed by `thread` at load ordinal
    /// `op_index`, disarming the line. Keeps the oldest pending trap if
    /// one is already undelivered.
    pub(crate) fn trip(&mut self, thread: usize, line: u64, op_index: u64) {
        self.armed.retain(|&l| l != line);
        if self.pending.is_none() {
            self.pending = Some(MceError {
                thread,
                line,
                op_index,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_disarms_and_keeps_oldest() {
        let mut u = MceUnit {
            armed: vec![10, 11],
            pending: None,
        };
        u.trip(0, 10, 5);
        u.trip(1, 11, 9);
        assert!(u.armed.is_empty());
        let e = u.pending.expect("pending trap");
        assert_eq!((e.thread, e.line, e.op_index), (0, 10, 5));
        assert!(e.to_string().contains("poisoned line 10"));
    }
}
