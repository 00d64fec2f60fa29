//! Property-based tests for the formal persistency model.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sw_model::{crash, random_interleaving, MemoryModel, OpKind, Pmo, Program, StoreId};
use sw_pmem::Addr;

/// A random operation over a small address pool.
fn arb_op() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        4 => (0u64..6).prop_map(|a| OpKind::store(Addr(0x1000_0000 + a * 64), a + 1)),
        1 => (0u64..6).prop_map(|a| OpKind::load(Addr(0x1000_0000 + a * 64))),
        1 => Just(OpKind::PersistBarrier),
        1 => Just(OpKind::NewStrand),
        1 => Just(OpKind::JoinStrand),
        1 => Just(OpKind::Sfence),
        1 => Just(OpKind::Ofence),
        1 => Just(OpKind::Dfence),
    ]
}

fn arb_program(threads: usize, ops: usize) -> impl Strategy<Value = Program> {
    prop::collection::vec(prop::collection::vec(arb_op(), 1..ops), threads).prop_map(|ts| {
        let mut p = Program::new(ts.len());
        for (t, ops) in ts.into_iter().enumerate() {
            for op in ops {
                p.push(t, op);
            }
        }
        p
    })
}

/// The transitive closure of `pmo`'s direct edges as one bitset row per
/// store: bit `j` of row `i` is set iff a path of direct edges leads from
/// store `i` to store `j`. Every edge points forward in execution order, so
/// visiting stores in reverse execution order finishes each successor's row
/// before any row that reads it.
fn bitset_closure(pmo: &Pmo) -> Vec<Vec<u64>> {
    let n = pmo.num_stores();
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| pmo.store(StoreId(i)).exec_pos);
    for &i in order.iter().rev() {
        let mut row = vec![0u64; words];
        for &StoreId(s) in pmo.direct_successors(StoreId(i)) {
            row[s / 64] |= 1 << (s % 64);
            for (w, bits) in reach[s].iter().enumerate() {
                row[w] |= bits;
            }
        }
        reach[i] = row;
    }
    reach
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every PMO edge points forward in the witnessed execution, so the
    /// relation is a DAG and execution order is one linear extension.
    #[test]
    fn execution_order_is_a_linear_extension(p in arb_program(2, 12), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let exec = random_interleaving(&p, &mut rng);
        for model in MemoryModel::ALL {
            let pmo = Pmo::compute(&exec, model);
            let order: Vec<StoreId> = (0..pmo.num_stores()).map(StoreId).collect();
            prop_assert!(pmo.is_linear_extension(&order), "{model:?}");
        }
    }

    /// Sampled crash sets are always down-closed.
    #[test]
    fn sampled_sets_are_down_closed(p in arb_program(2, 12), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let exec = random_interleaving(&p, &mut rng);
        for model in MemoryModel::ALL {
            let pmo = Pmo::compute(&exec, model);
            for _ in 0..10 {
                let set = crash::sample_set(&pmo, &mut rng);
                prop_assert!(pmo.is_down_closed(&set), "{model:?}");
            }
        }
    }

    /// The strand model's orderings are a subset of strict persistency's:
    /// anything ordered under StrandWeaver is ordered under Strict.
    #[test]
    fn strict_dominates_strand(p in arb_program(1, 14), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let exec = random_interleaving(&p, &mut rng);
        let strand = Pmo::compute(&exec, MemoryModel::StrandWeaver);
        let strict = Pmo::compute(&exec, MemoryModel::Strict);
        for i in 0..strand.num_stores() {
            for j in 0..strand.num_stores() {
                if strand.ordered_before(StoreId(i), StoreId(j)) {
                    prop_assert!(strict.ordered_before(StoreId(i), StoreId(j)));
                }
            }
        }
    }

    /// Non-atomic orderings (SPA only) are a subset of every model's.
    #[test]
    fn every_model_dominates_non_atomic(p in arb_program(2, 12), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let exec = random_interleaving(&p, &mut rng);
        let na = Pmo::compute(&exec, MemoryModel::NonAtomic);
        for model in MemoryModel::ALL {
            let pmo = Pmo::compute(&exec, model);
            for i in 0..na.num_stores() {
                for j in 0..na.num_stores() {
                    if na.ordered_before(StoreId(i), StoreId(j)) {
                        prop_assert!(pmo.ordered_before(StoreId(i), StoreId(j)), "{model:?}");
                    }
                }
            }
        }
    }

    /// Strong persist atomicity holds in every model: same-word stores are
    /// ordered by visibility.
    #[test]
    fn spa_holds_in_every_model(p in arb_program(2, 12), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let exec = random_interleaving(&p, &mut rng);
        for model in MemoryModel::ALL {
            let pmo = Pmo::compute(&exec, model);
            let stores: Vec<_> = pmo.stores().map(|(id, info)| (id, *info)).collect();
            for (i, a) in &stores {
                for (j, b) in &stores {
                    if a.addr == b.addr && a.exec_pos < b.exec_pos {
                        prop_assert!(pmo.ordered_before(*i, *j), "{model:?}: SPA violated");
                    }
                }
            }
        }
    }

    /// Materializing the full store set yields the final visible values.
    #[test]
    fn full_set_materializes_final_state(p in arb_program(2, 10), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let exec = random_interleaving(&p, &mut rng);
        let pmo = Pmo::compute(&exec, MemoryModel::StrandWeaver);
        let all = vec![true; pmo.num_stores()];
        let state = crash::materialize(&pmo, &all);
        // Final value per address = last store in execution order.
        let mut expected = std::collections::HashMap::new();
        for (_, info) in pmo.stores() {
            expected.insert(info.addr, info.value);
        }
        prop_assert_eq!(state, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ordered_before` answers exactly the transitive closure of the
    /// direct edges, under every model — including programs long enough
    /// for the closure rows to span several words.
    #[test]
    fn ordered_before_is_the_closure_of_direct_edges(
        p in arb_program(2, 96),
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let exec = random_interleaving(&p, &mut rng);
        for model in MemoryModel::ALL {
            let pmo = Pmo::compute(&exec, model);
            let reach = bitset_closure(&pmo);
            for (i, row) in reach.iter().enumerate() {
                for j in 0..pmo.num_stores() {
                    let closed = row[j / 64] & (1 << (j % 64)) != 0;
                    prop_assert_eq!(
                        pmo.ordered_before(StoreId(i), StoreId(j)),
                        closed,
                        "{:?}: store {} -> store {}",
                        model,
                        i,
                        j
                    );
                }
            }
        }
    }

    /// The two crash APIs agree: every sampled state is in the enumerated
    /// set (sampling is sound w.r.t. exhaustive enumeration).
    #[test]
    fn sampling_is_sound_wrt_enumeration(p in arb_program(1, 8), seed in 0u64..1000) {
        let exec = p.single_threaded_execution();
        let pmo = Pmo::compute(&exec, MemoryModel::StrandWeaver);
        if pmo.num_stores() > 12 {
            return Ok(()); // keep enumeration tractable
        }
        let observe: Vec<Addr> = (0..6).map(|a| Addr(0x1000_0000 + a * 64)).collect();
        let allowed = crash::enumerate_states(&pmo, &observe);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let state = crash::sample_state(&pmo, &mut rng);
            let proj: Vec<u64> =
                observe.iter().map(|a| state.get(a).copied().unwrap_or(0)).collect();
            prop_assert!(allowed.contains(&proj), "sampled state {proj:?} not enumerated");
        }
    }

    /// Adding a JoinStrand at the end never grows the reachable state space
    /// (fences are monotone: more ordering, fewer states).
    #[test]
    fn appending_join_strand_is_monotone(p in arb_program(1, 8)) {
        let observe: Vec<Addr> = (0..6).map(|a| Addr(0x1000_0000 + a * 64)).collect();
        let base_pmo = Pmo::compute(&p.single_threaded_execution(), MemoryModel::StrandWeaver);
        if base_pmo.num_stores() > 12 {
            return Ok(());
        }
        let base = crash::enumerate_states(&base_pmo, &observe);

        let mut fenced = p.clone();
        // Insert a JoinStrand in the middle of the program.
        let mut p2 = Program::new(1);
        let ops = fenced.thread_ops(0).to_vec();
        let mid = ops.len() / 2;
        for (i, op) in ops.iter().enumerate() {
            if i == mid {
                p2.push(0, OpKind::JoinStrand);
            }
            p2.push(0, *op);
        }
        fenced = p2;
        let fenced_pmo = Pmo::compute(&fenced.single_threaded_execution(), MemoryModel::StrandWeaver);
        let fenced_states = crash::enumerate_states(&fenced_pmo, &observe);
        prop_assert!(
            fenced_states.is_subset(&base),
            "a fence created a new reachable state"
        );
    }
}
