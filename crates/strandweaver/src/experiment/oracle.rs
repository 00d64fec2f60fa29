//! The online-fault oracle: a small lowered probe whose faulted replays
//! must persist what its fault-free run persists, in an order that extends
//! its persist memory order (paper Eq. 1–4).

use std::collections::{BTreeSet, HashMap};

use sw_lang::{FuncCtx, HwDesign, RuntimeConfig, ThreadRuntime};
use sw_model::isa::{IsaTrace, LockId};
use sw_model::{Pmo, StoreId};
use sw_pmem::{DeviceFaultSchedule, LineAddr, OnlineFaultStats, PmLayout};
use sw_sim::{Machine, SimConfig, SimStats};

use super::Experiment;

/// The online-fault oracle of one cell, built once and checked once per
/// fault schedule. It holds a single-threaded lowered probe — six regions
/// of four stores under the cell's `(design, lang, strategy)` — with its
/// formal PMO, the cell's machine configuration (on one core), and the
/// probe's fault-free acceptance order. A faulted replay must persist
/// exactly the lines of that order, in an order that is a linear
/// extension of the PMO: a retry may delay a persist but must never
/// reorder it. Every [`CrashLegs`](super::CrashLegs) leg — each chaos
/// round and each serve quarantine — checks against it.
#[derive(Debug)]
pub struct ProbeOracle {
    design: HwDesign,
    sim: SimConfig,
    layout: PmLayout,
    traces: Vec<IsaTrace>,
    pmo: Pmo,
    clean_order: Vec<LineAddr>,
}

/// What one [`ProbeOracle::check`] verified.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCheck {
    /// Transitively ordered *store* pairs on distinct lines the faulted
    /// acceptance order was verified against (see [`order_extends_pmo`]):
    /// one pair of lines counts once per ordered pair of their stores.
    pub pmo_edges: usize,
    /// The faulted run's online-fault activity (`None` when no fault unit
    /// was consulted).
    pub online: Option<OnlineFaultStats>,
}

impl ProbeOracle {
    /// Builds the probe for `cell` and runs it fault-free.
    pub fn new(cell: &Experiment) -> Self {
        let layout = PmLayout::new(1, 512);
        let heap = layout.heap_base();
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut cfg = RuntimeConfig::new(cell.design, cell.lang);
        cfg.strategy = cell.strategy;
        let mut rt = ThreadRuntime::new(&layout, 0, cfg);
        for r in 0..6u64 {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            for k in 0..4u64 {
                rt.store(&mut ctx, heap.offset_words((r * 4 + k) * 8), r * 10 + k);
            }
            rt.region_end(&mut ctx);
        }
        rt.shutdown(&mut ctx);
        let mut oracle = ProbeOracle {
            design: cell.design,
            sim: cell.sim.clone().with_cores(1),
            layout,
            pmo: Pmo::compute(&ctx.execution(), cell.design.memory_model()),
            traces: ctx.into_traces(),
            clean_order: Vec::new(),
        };
        oracle.clean_order = oracle.run(None).pm_write_order;
        oracle
    }

    /// The probe's formal persist memory order.
    pub fn pmo(&self) -> &Pmo {
        &self.pmo
    }

    /// The fault-free run's PM acceptance order.
    pub fn clean_order(&self) -> &[LineAddr] {
        &self.clean_order
    }

    /// Replays the probe under [`DeviceFaultSchedule::random`] drawn from
    /// `seed` at the fault-free run's scale, then requires the durable
    /// line set to equal the fault-free one (no write silently lost or
    /// invented) and the acceptance order to extend the PMO.
    ///
    /// # Errors
    ///
    /// The diverging lines, or the violated PMO edge.
    pub fn check(&self, seed: u64) -> Result<ProbeCheck, String> {
        let scale = self.clean_order.len() as u64;
        let faulted = self.run(Some(DeviceFaultSchedule::random(seed, scale)));
        let clean: BTreeSet<LineAddr> = self.clean_order.iter().copied().collect();
        let set: BTreeSet<LineAddr> = faulted.pm_write_order.iter().copied().collect();
        if set != clean {
            let missing: Vec<_> = clean.difference(&set).collect();
            let extra: Vec<_> = set.difference(&clean).collect();
            return Err(format!(
                "silent corruption: durable line set diverged under online faults \
                 (missing {missing:?}, extra {extra:?})"
            ));
        }
        let pmo_edges = order_extends_pmo(&self.pmo, &faulted.pm_write_order)
            .map_err(|e| format!("persist order under retries: {e}"))?;
        Ok(ProbeCheck {
            pmo_edges,
            online: faulted.online_faults,
        })
    }

    /// Runs the probe traces, with `faults` installed when given.
    fn run(&self, faults: Option<DeviceFaultSchedule>) -> SimStats {
        let mut cfg = self.sim.clone();
        if let Some(schedule) = faults {
            cfg = cfg.with_device_faults(schedule);
        }
        Machine::new(cfg, self.design, self.layout.clone(), self.traces.clone()).run()
    }
}

/// Checks that a machine's PM acceptance order respects the PMO: every
/// transitively ordered pair of *stores* on distinct lines must be
/// accepted in order. Only lines accepted exactly once map one-to-one onto
/// formal stores (same-line stores share flushes), so pairs touching
/// multiply-accepted lines are skipped. Returns the number of store pairs
/// verified — one pair of lines counts once per ordered pair of their
/// stores — or the first violation in (source id, target id) order.
///
/// Each store's acceptance position is looked up once; then one forward
/// search over direct edges runs from each store that has a position,
/// reusing one visited buffer. The cost is O(order + P·(V+E)) for P such
/// stores, V stores and E direct edges, with no closure built.
///
/// Public so other harnesses can hold their acceptance orders to the same
/// linear-extension bar as [`ProbeOracle`].
pub fn order_extends_pmo(pmo: &Pmo, order: &[LineAddr]) -> Result<usize, String> {
    // Per line: its first acceptance position and how often it was
    // accepted.
    let mut accepted: HashMap<LineAddr, (usize, usize)> = HashMap::new();
    for (pos, &line) in order.iter().enumerate() {
        accepted.entry(line).or_insert((pos, 0)).1 += 1;
    }
    let line = |s: StoreId| pmo.store(s).addr.line();
    let pos: Vec<Option<usize>> = pmo
        .stores()
        .map(|(_, info)| match accepted.get(&info.addr.line()) {
            Some(&(p, 1)) => Some(p),
            _ => None,
        })
        .collect();
    // `seen[s] == Some(i)` once the search from `i` has reached `s`.
    let mut seen: Vec<Option<StoreId>> = vec![None; pmo.num_stores()];
    let mut stack = Vec::new();
    let mut checked = 0;
    for (i, _) in pmo.stores() {
        let Some(pa) = pos[i.0] else { continue };
        let la = line(i);
        let mut violated: Option<(StoreId, usize)> = None;
        stack.push(i);
        while let Some(s) = stack.pop() {
            for &j in pmo.direct_successors(s) {
                if seen[j.0] == Some(i) {
                    continue;
                }
                seen[j.0] = Some(i);
                stack.push(j);
                let Some(pb) = pos[j.0] else { continue };
                if line(j) == la {
                    continue;
                }
                if pa < pb {
                    checked += 1;
                } else if violated.is_none_or(|(v, _)| j < v) {
                    violated = Some((j, pb));
                }
            }
        }
        if let Some((j, pb)) = violated {
            let lb = line(j);
            return Err(format!(
                "PMO edge {la} -> {lb} violated by acceptance order ({pa} >= {pb})"
            ));
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::small;
    use sw_lang::LangModel;
    use sw_workloads::BenchmarkId;

    /// The probe oracle of a small strandweaver cell, plus the positions
    /// in its fault-free order of two lines a PMO edge orders, each
    /// accepted exactly once.
    fn probe_with_edge() -> (ProbeOracle, usize, usize) {
        let oracle = ProbeOracle::new(&small(
            BenchmarkId::Queue,
            LangModel::Txn,
            HwDesign::StrandWeaver,
        ));
        let (pmo, order) = (oracle.pmo(), oracle.clean_order());
        let once = |l: LineAddr| order.iter().filter(|&&x| x == l).count() == 1;
        let pos = |l: LineAddr| order.iter().position(|&x| x == l).unwrap();
        let edge = (0..pmo.num_stores())
            .flat_map(|i| (0..pmo.num_stores()).map(move |j| (StoreId(i), StoreId(j))))
            .map(|(a, b)| (a, b, pmo.store(a).addr.line(), pmo.store(b).addr.line()))
            .find(|&(a, b, la, lb)| la != lb && pmo.ordered_before(a, b) && once(la) && once(lb))
            .map(|(_, _, la, lb)| (pos(la), pos(lb)))
            .expect("the probe orders two once-accepted lines");
        (oracle, edge.0, edge.1)
    }

    #[test]
    fn order_extends_pmo_rejects_a_swapped_edge() {
        let (oracle, a, b) = probe_with_edge();
        let mut order = oracle.clean_order().to_vec();
        assert!(order_extends_pmo(oracle.pmo(), &order).is_ok());
        order.swap(a, b);
        let err = order_extends_pmo(oracle.pmo(), &order).unwrap_err();
        assert!(err.contains("violated by acceptance order"), "{err}");
    }

    #[test]
    fn order_extends_pmo_skips_edges_of_lines_accepted_twice() {
        let (oracle, a, _) = probe_with_edge();
        let clean = oracle.clean_order();
        let checked = order_extends_pmo(oracle.pmo(), clean).unwrap();
        // Moving the edge's source line to the end breaks the edge ...
        let mut moved: Vec<LineAddr> = clean.to_vec();
        let line = moved.remove(a);
        moved.push(line);
        assert!(order_extends_pmo(oracle.pmo(), &moved).is_err());
        // ... unless the line is accepted twice: it then maps onto no
        // single store, so its edges are skipped, not checked.
        moved.push(line);
        let skipped = order_extends_pmo(oracle.pmo(), &moved).expect("edges skipped");
        assert!(skipped < checked, "{skipped} of {checked} edges checked");
    }
}
