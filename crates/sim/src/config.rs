//! Simulator configuration (paper Table I).

use sw_pmem::{timing, DeviceFaultSchedule};

/// Machine configuration for the timing simulator.
///
/// Defaults reproduce the paper's Table I: an 8-core 2 GHz machine with
/// 32 KB 2-way L1s, a shared 28 MB L2, and an Optane-like PM device
/// (346 ns reads, 96 ns write-to-controller acknowledgement, 500 ns
/// write-to-media), plus the StrandWeaver structures: a 16-entry persist
/// queue and four 4-entry strand buffers per core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of cores (one hardware thread each).
    pub cores: usize,
    /// Store-queue entries per core.
    pub store_queue_entries: usize,
    /// Persist-queue entries per core (StrandWeaver design).
    pub persist_queue_entries: usize,
    /// Number of strand buffers per core.
    pub strand_buffers: usize,
    /// Entries per strand buffer.
    pub strand_buffer_entries: usize,
    /// Outstanding CLWB slots for the Intel design (bounded by the D-cache
    /// MSHRs in Table I).
    pub intel_flush_slots: usize,
    /// Entries in the HOPS per-core persist buffer.
    pub hops_buffer_entries: usize,
    /// Write-back buffer entries per core.
    pub writeback_buffer_entries: usize,
    /// L1 data cache sets.
    pub l1_sets: usize,
    /// L1 data cache ways.
    pub l1_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// L2 hit latency in cycles.
    pub l2_hit_cycles: u64,
    /// DRAM access latency in cycles (volatile data).
    pub dram_cycles: u64,
    /// PM read latency in cycles.
    pub pm_read_cycles: u64,
    /// Cycles until the ADR PM controller acknowledges receipt of a write.
    pub pm_write_ack_cycles: u64,
    /// PM controller write-queue capacity.
    pub pm_write_queue: usize,
    /// Cycles between successive media writes draining the write queue.
    pub pm_drain_interval: u64,
    /// Minimum cycles between successive PM reads (read bandwidth pacing).
    pub pm_read_interval: u64,
    /// Extra latency for a dirty-line transfer between L1s (coherence
    /// steal).
    pub coherence_transfer_cycles: u64,
    /// Safety bound on simulated cycles; exceeding it indicates a deadlock
    /// and panics.
    pub max_cycles: u64,
    /// Let a core sleep until its own next event, and jump the clock over
    /// the cycles at which every core sleeps. Produces bit-identical
    /// `SimStats` to single-stepping (a sleeper charges the cycles it slept
    /// through when it wakes); disable only to cross-check that invariant
    /// in tests. With it off the clock never jumps and only sleeps without
    /// a wake time apply (a lock waiter with an idle back-end, an access
    /// held by a coherence steal), so every core with a pending timer is
    /// visited on every cycle.
    pub skip_ahead: bool,
    /// Online device-fault schedule executed by the PM controller.
    /// `None` (the default) keeps the fault layer entirely out of the
    /// write path; an empty schedule behaves identically.
    pub device_faults: Option<DeviceFaultSchedule>,
}

impl SimConfig {
    /// The paper's Table I configuration.
    pub fn table_i() -> Self {
        Self {
            cores: 8,
            store_queue_entries: 64,
            persist_queue_entries: 16,
            strand_buffers: 4,
            strand_buffer_entries: 4,
            intel_flush_slots: 6, // D-cache MSHRs
            hops_buffer_entries: 16,
            writeback_buffer_entries: 8,
            l1_sets: 256, // 32 KB / 64 B / 2 ways
            l1_ways: 2,
            l1_hit_cycles: timing::L1D_HIT_CYCLES,
            l2_hit_cycles: timing::L2_HIT_CYCLES,
            dram_cycles: timing::DRAM_ACCESS_CYCLES,
            pm_read_cycles: timing::PM_READ_CYCLES,
            pm_write_ack_cycles: timing::PM_WRITE_TO_CONTROLLER_CYCLES,
            pm_write_queue: 64,
            // The ADR controller "hides the write latency of the PM device"
            // (Section VI-B): the banked media sustains far more than one
            // line per 500 ns, so the write queue only back-pressures under
            // bursts. 8 cycles/line ≈ 16 GB/s aggregate.
            pm_drain_interval: 8,
            pm_read_interval: 16,
            coherence_transfer_cycles: 40,
            max_cycles: 20_000_000_000,
            skip_ahead: true,
            device_faults: None,
        }
    }

    /// A copy with timed sleeps and clock jumps toggled (used by the
    /// skip-ahead == single-step equivalence tests).
    pub fn with_skip_ahead(mut self, skip_ahead: bool) -> Self {
        self.skip_ahead = skip_ahead;
        self
    }

    /// A copy with a different strand-buffer-unit shape — the Figure 9
    /// sensitivity axis `(number of buffers, entries per buffer)`.
    pub fn with_strand_buffers(mut self, buffers: usize, entries: usize) -> Self {
        assert!(buffers > 0 && entries > 0);
        self.strand_buffers = buffers;
        self.strand_buffer_entries = entries;
        self
    }

    /// A copy with a different core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0);
        self.cores = cores;
        self
    }

    /// A copy with an online device-fault schedule installed.
    pub fn with_device_faults(mut self, schedule: DeviceFaultSchedule) -> Self {
        self.device_faults = Some(schedule);
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::table_i()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_matches_paper() {
        let c = SimConfig::table_i();
        assert_eq!(c.cores, 8);
        assert_eq!(c.store_queue_entries, 64);
        assert_eq!(c.persist_queue_entries, 16);
        assert_eq!(c.strand_buffers, 4);
        assert_eq!(c.strand_buffer_entries, 4);
        assert_eq!(c.l1_sets * c.l1_ways * 64, 32 * 1024);
        assert_eq!(c.pm_read_cycles, 692);
        assert_eq!(c.pm_write_ack_cycles, 192);
    }

    #[test]
    fn strand_buffer_sweep() {
        let c = SimConfig::table_i().with_strand_buffers(8, 8);
        assert_eq!(c.strand_buffers, 8);
        assert_eq!(c.strand_buffer_entries, 8);
    }
}
