//! Persist memory order (PMO) computation — Equations 1–4 of the paper.

use sw_pmem::{Addr, FastMap};

use crate::exec::{Execution, OpRef};
use crate::ops::{OpKind, ThreadId};

/// Which hardware persistency design's ordering rules to apply.
///
/// A program may contain primitives from several designs (they lower from a
/// common language-level runtime); each model interprets only its own
/// primitives and ignores the rest, exactly as the corresponding hardware
/// would (an unknown fence encoding is a no-op for persist ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// Strand persistency (the paper's proposal): `PersistBarrier` orders
    /// within a strand (Eq. 1), `NewStrand` clears intra-thread constraints,
    /// `JoinStrand` orders across strands (Eq. 2).
    StrandWeaver,
    /// Intel x86 epoch persistency: `SFENCE` orders all prior persists on
    /// the thread before all subsequent ones.
    IntelX86,
    /// HOPS delegated epoch persistency: `ofence` and `dfence` are the epoch
    /// boundaries.
    Hops,
    /// No inter-location ordering at all — the paper's NON-ATOMIC upper
    /// bound. Only strong persist atomicity applies.
    NonAtomic,
    /// Strict persistency (Pelley et al.): persists follow the volatile
    /// memory order exactly. Included as a reference point and for tests.
    Strict,
}

impl MemoryModel {
    /// All models, in the order used by evaluation sweeps.
    pub const ALL: [MemoryModel; 5] = [
        MemoryModel::IntelX86,
        MemoryModel::Hops,
        MemoryModel::StrandWeaver,
        MemoryModel::NonAtomic,
        MemoryModel::Strict,
    ];

    /// Returns `true` if `kind` acts as an epoch/persist barrier under this
    /// model (all prior persists on the thread ordered before subsequent).
    fn is_full_thread_barrier(self, kind: OpKind) -> bool {
        match self {
            MemoryModel::IntelX86 => kind == OpKind::Sfence,
            MemoryModel::Hops => matches!(kind, OpKind::Ofence | OpKind::Dfence),
            // JoinStrand orders everything before it on the thread.
            MemoryModel::StrandWeaver => kind == OpKind::JoinStrand,
            MemoryModel::NonAtomic | MemoryModel::Strict => false,
        }
    }
}

/// Identifier of a store within a [`Pmo`] (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreId(pub usize);

/// Metadata about one store in the persist order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreInfo {
    /// Where the store sits in the program.
    pub op: OpRef,
    /// Address written.
    pub addr: Addr,
    /// Value written.
    pub value: u64,
    /// Global position in the witnessed execution (visibility order).
    pub exec_pos: usize,
    /// Strand index on its thread (number of `NewStrand`s executed before
    /// it). Meaningful for [`MemoryModel::StrandWeaver`]; informational
    /// otherwise.
    pub strand: usize,
}

/// The persist memory order of an execution under a memory model: a DAG over
/// the execution's stores whose transitive closure is the order
/// (Equation 4).
///
/// Only the direct edges are stored, in compressed sparse row (CSR) form:
/// store `b`'s predecessors are `pred_ids[pred_start[b]..pred_start[b + 1]]`,
/// and likewise for successors. Store ids follow the witnessed execution
/// order and every edge points forward in it, so the relation is acyclic
/// by construction and crash states are exactly the down-closed subsets of
/// stores (see [`crate::crash`]); transitivity is answered on demand by
/// [`ordered_before`](Pmo::ordered_before), a forward search over direct
/// successors.
#[derive(Debug, Clone)]
pub struct Pmo {
    stores: Vec<StoreInfo>,
    /// Row offsets into `succ_ids`, one per store plus an end marker.
    succ_start: Vec<usize>,
    /// Direct (non-transitive) successors, each row sorted.
    succ_ids: Vec<StoreId>,
    /// Row offsets into `pred_ids`, one per store plus an end marker.
    pred_start: Vec<usize>,
    /// Direct (non-transitive) predecessors, each row sorted.
    pred_ids: Vec<StoreId>,
    /// Lookup from (thread, program index) to StoreId.
    by_op: FastMap<(ThreadId, usize), StoreId>,
    model: MemoryModel,
}

/// Per-thread scan state for the epoch/strand frontier algorithm.
#[derive(Default)]
struct ThreadScan {
    /// Stores whose persist must precede every future store on the thread
    /// (until the frontier is replaced / cleared).
    pb_frontier: Vec<StoreId>,
    /// Stores seen since the last effective persist barrier on the current
    /// strand.
    since_pb: Vec<StoreId>,
    /// Stores whose persist must precede every future store due to
    /// `JoinStrand` (never cleared by `NewStrand`, per Eq. 2).
    js_frontier: Vec<StoreId>,
    /// Stores seen since the last effective `JoinStrand`.
    since_js: Vec<StoreId>,
    /// Strand counter (number of `NewStrand`s so far).
    strand: usize,
}

impl Pmo {
    /// Computes the persist memory order of `exec` under `model`.
    ///
    /// One pass over the execution emits each store's predecessor row as
    /// the store is met (edges come out grouped by target); only that short
    /// row is sorted and deduplicated. Successor rows follow by a counting
    /// transpose, which visits targets in ascending order and so leaves
    /// every row sorted.
    pub fn compute(exec: &Execution, model: MemoryModel) -> Self {
        let mut stores: Vec<StoreInfo> = Vec::new();
        let mut by_op = FastMap::default();
        let mut scans: Vec<ThreadScan> = Vec::new();
        let mut pred_start = vec![0];
        let mut pred_ids: Vec<StoreId> = Vec::new();
        // The predecessor row of the store being scanned.
        let mut row: Vec<StoreId> = Vec::new();
        // Strong persist atomicity: last store to each word (Eq. 3).
        let mut last_to_word: FastMap<Addr, StoreId> = FastMap::default();
        // Strict persistency: previous store in global visibility order.
        let mut prev_global: Option<StoreId> = None;

        for (pos, op_ref, kind) in exec.iter() {
            let tid = op_ref.thread.0;
            if scans.len() <= tid {
                scans.resize_with(tid + 1, ThreadScan::default);
            }
            let scan = &mut scans[tid];
            match kind {
                OpKind::Store { addr, value } => {
                    let id = StoreId(stores.len());
                    stores.push(StoreInfo {
                        op: op_ref,
                        addr,
                        value,
                        exec_pos: pos,
                        strand: scan.strand,
                    });
                    by_op.insert((op_ref.thread, op_ref.index), id);
                    row.clear();

                    // Eq. 1: persist-barrier frontier (per model).
                    if model == MemoryModel::StrandWeaver {
                        row.extend_from_slice(&scan.pb_frontier);
                        scan.since_pb.push(id);
                    }
                    // Eq. 2 (and epoch models): full-thread barrier frontier.
                    row.extend_from_slice(&scan.js_frontier);
                    scan.since_js.push(id);

                    // Eq. 3: strong persist atomicity, word-granular.
                    row.extend(last_to_word.insert(addr, id));

                    // Strict persistency: chain the global visibility order.
                    if model == MemoryModel::Strict {
                        row.extend(prev_global);
                        prev_global = Some(id);
                    }

                    // A store can be a predecessor by two rules (an SPA
                    // predecessor that also sits in a frontier).
                    row.sort_unstable();
                    row.dedup();
                    debug_assert!(row.iter().all(|&a| a < id && stores[a.0].exec_pos < pos));
                    pred_ids.extend_from_slice(&row);
                    pred_start.push(pred_ids.len());
                }
                OpKind::PersistBarrier
                    if model == MemoryModel::StrandWeaver && !scan.since_pb.is_empty() =>
                {
                    scan.pb_frontier = std::mem::take(&mut scan.since_pb);
                }
                OpKind::NewStrand if model == MemoryModel::StrandWeaver => {
                    scan.pb_frontier.clear();
                    scan.since_pb.clear();
                    scan.strand += 1;
                }
                kind if model.is_full_thread_barrier(kind) => {
                    if !scan.since_js.is_empty() {
                        scan.js_frontier = std::mem::take(&mut scan.since_js);
                    }
                    if model == MemoryModel::StrandWeaver {
                        // JoinStrand subsumes the strand-local frontier: all
                        // prior persists are now ordered before subsequent
                        // ones, so the PB frontier can be reset alongside.
                        scan.pb_frontier.clear();
                        scan.since_pb.clear();
                    }
                }
                _ => {}
            }
        }

        // Counting transpose: count each source's out-degree, prefix-sum
        // the counts into row offsets, then place targets in ascending
        // order.
        let n = stores.len();
        let mut succ_start = vec![0; n + 1];
        for &a in &pred_ids {
            succ_start[a.0 + 1] += 1;
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut fill = succ_start[..n].to_vec();
        let mut succ_ids = vec![StoreId(0); pred_ids.len()];
        for b in 0..n {
            for &a in &pred_ids[pred_start[b]..pred_start[b + 1]] {
                succ_ids[fill[a.0]] = StoreId(b);
                fill[a.0] += 1;
            }
        }

        Self {
            stores,
            succ_start,
            succ_ids,
            pred_start,
            pred_ids,
            by_op,
            model,
        }
    }

    /// The model this PMO was computed under.
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Number of stores.
    pub fn num_stores(&self) -> usize {
        self.stores.len()
    }

    /// Metadata of store `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn store(&self, id: StoreId) -> &StoreInfo {
        &self.stores[id.0]
    }

    /// Iterates over all stores in execution order.
    pub fn stores(&self) -> impl Iterator<Item = (StoreId, &StoreInfo)> + '_ {
        self.stores.iter().enumerate().map(|(i, s)| (StoreId(i), s))
    }

    /// Looks up the store at `(thread, program index)`, if that operation is
    /// a store.
    pub fn store_at(&self, thread: usize, index: usize) -> Option<StoreId> {
        self.by_op.get(&(ThreadId(thread), index)).copied()
    }

    /// Returns `true` if `a` must persist before `b` (transitive).
    ///
    /// Answered by a forward search over direct successors. Ids follow
    /// execution order and every edge points forward, so the search only
    /// visits stores between `a` and `b`: it costs O(V+E) of that span.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn ordered_before(&self, a: StoreId, b: StoreId) -> bool {
        let n = self.stores.len();
        assert!(
            a.0 < n && b.0 < n,
            "store ids {a:?}, {b:?} out of range for {n} stores"
        );
        if b <= a {
            return false;
        }
        let mut seen = vec![false; b.0 - a.0];
        let mut stack = vec![a];
        while let Some(s) = stack.pop() {
            for &t in self.direct_successors(s).iter().take_while(|&&t| t <= b) {
                if t == b {
                    return true;
                }
                if !std::mem::replace(&mut seen[t.0 - a.0], true) {
                    stack.push(t);
                }
            }
        }
        false
    }

    /// Direct (non-transitive) successors of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn direct_successors(&self, a: StoreId) -> &[StoreId] {
        &self.succ_ids[self.succ_start[a.0]..self.succ_start[a.0 + 1]]
    }

    /// Direct (non-transitive) predecessors of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn direct_predecessors(&self, a: StoreId) -> &[StoreId] {
        &self.pred_ids[self.pred_start[a.0]..self.pred_start[a.0 + 1]]
    }

    /// Total number of direct edges.
    pub fn num_edges(&self) -> usize {
        self.pred_ids.len()
    }

    /// Checks that `order` (a sequence of distinct StoreIds covering all
    /// stores) is a linear extension of the persist order. Used to validate
    /// persist sequences observed from the timing simulator.
    pub fn is_linear_extension(&self, order: &[StoreId]) -> bool {
        if order.len() != self.stores.len() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.stores.len()];
        for (i, &s) in order.iter().enumerate() {
            if s.0 >= pos.len() || pos[s.0] != usize::MAX {
                return false;
            }
            pos[s.0] = i;
        }
        (0..self.stores.len()).all(|a| {
            self.direct_successors(StoreId(a))
                .iter()
                .all(|b| pos[a] < pos[b.0])
        })
    }

    /// Checks that a set of stores (given as a boolean per store) is
    /// down-closed under the persist order: if `b` is in the set, every `a`
    /// ordered before `b` is too.
    pub fn is_down_closed(&self, in_set: &[bool]) -> bool {
        assert_eq!(in_set.len(), self.stores.len());
        in_set.iter().enumerate().all(|(b, &present)| {
            !present
                || self
                    .direct_predecessors(StoreId(b))
                    .iter()
                    .all(|a| in_set[a.0])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Program;

    fn pm(addr: u64) -> Addr {
        Addr(0x1000_0000 + addr)
    }

    fn compute(p: &Program, model: MemoryModel) -> Pmo {
        Pmo::compute(&p.single_threaded_execution(), model)
    }

    /// Figure 2(a): A; PB; B; NS; C — A<B, C concurrent with both.
    fn fig2a_program() -> Program {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1)); // A
        p.push(0, OpKind::PersistBarrier);
        p.push(0, OpKind::store(pm(64), 1)); // B
        p.push(0, OpKind::NewStrand);
        p.push(0, OpKind::store(pm(128), 1)); // C
        p
    }

    #[test]
    fn persist_barrier_orders_within_strand() {
        let p = fig2a_program();
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        let a = pmo.store_at(0, 0).unwrap();
        let b = pmo.store_at(0, 2).unwrap();
        let c = pmo.store_at(0, 4).unwrap();
        assert!(pmo.ordered_before(a, b));
        assert!(!pmo.ordered_before(b, a));
        assert!(!pmo.ordered_before(a, c));
        assert!(!pmo.ordered_before(b, c));
        assert!(!pmo.ordered_before(c, a));
    }

    #[test]
    fn join_strand_orders_across_strands() {
        // Figure 2(c): A; PB; B on strand 0, NS; C... here: A; NS; B; JS; C.
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1)); // A, strand 0
        p.push(0, OpKind::NewStrand);
        p.push(0, OpKind::store(pm(64), 1)); // B, strand 1
        p.push(0, OpKind::JoinStrand);
        p.push(0, OpKind::store(pm(128), 1)); // C
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        let (a, b, c) = (
            pmo.store_at(0, 0).unwrap(),
            pmo.store_at(0, 2).unwrap(),
            pmo.store_at(0, 4).unwrap(),
        );
        assert!(!pmo.ordered_before(a, b), "A and B on separate strands");
        assert!(pmo.ordered_before(a, c));
        assert!(pmo.ordered_before(b, c));
    }

    #[test]
    fn new_strand_clears_pending_barrier() {
        // A; PB; NS; B — the barrier must not order A before B.
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::PersistBarrier);
        p.push(0, OpKind::NewStrand);
        p.push(0, OpKind::store(pm(64), 1));
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        let (a, b) = (pmo.store_at(0, 0).unwrap(), pmo.store_at(0, 3).unwrap());
        assert!(!pmo.ordered_before(a, b));
    }

    #[test]
    fn consecutive_barriers_with_empty_epoch_chain_transitively() {
        // A; PB; PB; B — still A < B even though the middle epoch is empty.
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::PersistBarrier);
        p.push(0, OpKind::PersistBarrier);
        p.push(0, OpKind::store(pm(64), 1));
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        assert!(pmo.ordered_before(pmo.store_at(0, 0).unwrap(), pmo.store_at(0, 3).unwrap()));
    }

    #[test]
    fn stores_within_epoch_are_concurrent() {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::store(pm(64), 1));
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        let (a, b) = (pmo.store_at(0, 0).unwrap(), pmo.store_at(0, 1).unwrap());
        assert!(!pmo.ordered_before(a, b));
        assert!(!pmo.ordered_before(b, a));
    }

    #[test]
    fn spa_orders_same_word_stores() {
        // Figure 2(e): conflicting stores on different strands are ordered.
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1)); // A=1, strand 0
        p.push(0, OpKind::NewStrand);
        p.push(0, OpKind::store(pm(0), 2)); // A=2, strand 1
        p.push(0, OpKind::PersistBarrier);
        p.push(0, OpKind::store(pm(64), 1)); // B, strand 1
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        let a1 = pmo.store_at(0, 0).unwrap();
        let a2 = pmo.store_at(0, 2).unwrap();
        let b = pmo.store_at(0, 4).unwrap();
        assert!(pmo.ordered_before(a1, a2), "SPA");
        assert!(pmo.ordered_before(a2, b), "barrier on strand 1");
        assert!(
            pmo.ordered_before(a1, b),
            "transitivity (Figure 2(f) forbidden)"
        );
    }

    #[test]
    fn strand_numbers_recorded() {
        let p = fig2a_program();
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        assert_eq!(pmo.store(pmo.store_at(0, 0).unwrap()).strand, 0);
        assert_eq!(pmo.store(pmo.store_at(0, 4).unwrap()).strand, 1);
    }

    #[test]
    fn intel_sfence_orders_epochs_and_ignores_strand_ops() {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::Sfence);
        p.push(0, OpKind::store(pm(64), 1));
        p.push(0, OpKind::NewStrand); // ignored by Intel
        p.push(0, OpKind::store(pm(128), 1));
        let pmo = compute(&p, MemoryModel::IntelX86);
        let (a, b, c) = (
            pmo.store_at(0, 0).unwrap(),
            pmo.store_at(0, 2).unwrap(),
            pmo.store_at(0, 4).unwrap(),
        );
        assert!(pmo.ordered_before(a, b));
        assert!(!pmo.ordered_before(b, c), "B and C share the second epoch");
        assert!(
            pmo.ordered_before(a, c),
            "epoch ordering crosses NewStrand under Intel"
        );
    }

    #[test]
    fn strandweaver_ignores_sfence() {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::Sfence);
        p.push(0, OpKind::store(pm(64), 1));
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        assert!(!pmo.ordered_before(pmo.store_at(0, 0).unwrap(), pmo.store_at(0, 2).unwrap()));
    }

    #[test]
    fn hops_ofence_and_dfence_are_epoch_boundaries() {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::Ofence);
        p.push(0, OpKind::store(pm(64), 1));
        p.push(0, OpKind::Dfence);
        p.push(0, OpKind::store(pm(128), 1));
        let pmo = compute(&p, MemoryModel::Hops);
        let (a, b, c) = (
            pmo.store_at(0, 0).unwrap(),
            pmo.store_at(0, 2).unwrap(),
            pmo.store_at(0, 4).unwrap(),
        );
        assert!(pmo.ordered_before(a, b));
        assert!(pmo.ordered_before(b, c));
        assert!(pmo.ordered_before(a, c));
    }

    #[test]
    fn non_atomic_has_only_spa_edges() {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::Sfence);
        p.push(0, OpKind::PersistBarrier);
        p.push(0, OpKind::store(pm(64), 1));
        p.push(0, OpKind::store(pm(0), 2)); // SPA with first store
        let pmo = compute(&p, MemoryModel::NonAtomic);
        assert_eq!(pmo.num_edges(), 1);
        assert!(pmo.ordered_before(pmo.store_at(0, 0).unwrap(), pmo.store_at(0, 4).unwrap()));
    }

    #[test]
    fn strict_orders_everything_in_program_order() {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::store(pm(64), 1));
        p.push(0, OpKind::store(pm(128), 1));
        let pmo = compute(&p, MemoryModel::Strict);
        let ids: Vec<StoreId> = (0..3).map(|i| pmo.store_at(0, i).unwrap()).collect();
        assert!(pmo.ordered_before(ids[0], ids[1]));
        assert!(pmo.ordered_before(ids[1], ids[2]));
        assert!(pmo.ordered_before(ids[0], ids[2]));
    }

    #[test]
    fn inter_thread_spa_via_interleaving() {
        // Figure 2(i): thread 0 stores B, thread 1 stores B then C with a
        // barrier. If T0's store is visible first, SPA orders it before
        // T1's, and transitively before C.
        let mut p = Program::new(2);
        p.push(0, OpKind::store(pm(64), 1)); // B on T0
        p.push(1, OpKind::store(pm(64), 2)); // B on T1
        p.push(1, OpKind::PersistBarrier);
        p.push(1, OpKind::store(pm(128), 1)); // C on T1
                                              // Interleaving where T0's store is first.
        let execs = crate::enumerate_interleavings(&p, 100);
        let e = execs
            .iter()
            .find(|e| e.op_ref_at(0).thread == ThreadId(0))
            .expect("an interleaving starting with T0");
        let pmo = Pmo::compute(e, MemoryModel::StrandWeaver);
        let b0 = pmo.store_at(0, 0).unwrap();
        let b1 = pmo.store_at(1, 0).unwrap();
        let c = pmo.store_at(1, 2).unwrap();
        assert!(pmo.ordered_before(b0, b1));
        assert!(pmo.ordered_before(b1, c));
        assert!(pmo.ordered_before(b0, c));
    }

    #[test]
    fn linear_extension_validation() {
        let p = fig2a_program();
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        let a = pmo.store_at(0, 0).unwrap();
        let b = pmo.store_at(0, 2).unwrap();
        let c = pmo.store_at(0, 4).unwrap();
        assert!(pmo.is_linear_extension(&[a, b, c]));
        assert!(pmo.is_linear_extension(&[c, a, b]));
        assert!(pmo.is_linear_extension(&[a, c, b]));
        assert!(!pmo.is_linear_extension(&[b, a, c]), "violates A<B");
        assert!(!pmo.is_linear_extension(&[a, b]), "incomplete");
        assert!(!pmo.is_linear_extension(&[a, a, b]), "duplicate");
    }

    #[test]
    fn down_closed_validation() {
        let p = fig2a_program();
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        // Stores in id order: a=0, b=1, c=2 (execution order).
        assert!(pmo.is_down_closed(&[false, false, false]));
        assert!(pmo.is_down_closed(&[true, false, true]));
        assert!(!pmo.is_down_closed(&[false, true, false]), "B without A");
        assert!(pmo.is_down_closed(&[true, true, true]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ordered_before_rejects_a_target_past_the_last_store() {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::store(pm(64), 1));
        compute(&p, MemoryModel::StrandWeaver).ordered_before(StoreId(0), StoreId(10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ordered_before_rejects_a_target_at_the_end_of_a_word() {
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::store(pm(64), 1));
        compute(&p, MemoryModel::StrandWeaver).ordered_before(StoreId(0), StoreId(63));
    }

    #[test]
    fn join_strand_then_new_strand_keeps_join_ordering() {
        // A; JS; NS; B — Eq. 2 has no NewStrand side-condition.
        let mut p = Program::new(1);
        p.push(0, OpKind::store(pm(0), 1));
        p.push(0, OpKind::JoinStrand);
        p.push(0, OpKind::NewStrand);
        p.push(0, OpKind::store(pm(64), 1));
        let pmo = compute(&p, MemoryModel::StrandWeaver);
        assert!(pmo.ordered_before(pmo.store_at(0, 0).unwrap(), pmo.store_at(0, 3).unwrap()));
    }
}
