//! Exact fail-fast prelude shared by the uncached Steiner constructions
//! ([`crate::algo::steiner_tree_in`] and
//! [`crate::algo::steiner_tree_sparse_in`]).
//!
//! Both constructions price every link before their first search, and a
//! tree that cannot exist is only discovered by the root search's
//! reachability check — after the full weight pass and, for KMB, one
//! Dijkstra per terminal, each run to exhaustion because one target never
//! settles. On a loaded fabric almost every such failure has the same
//! cause: a terminal (the root or a selected local) whose incident links
//! are all priced `+∞`. That is visible from a handful of incident links,
//! so the prelude checks it first and returns the identical error.

use crate::algo::scratch::ScratchPool;
use crate::error::TopoError;
use crate::ids::NodeId;
use crate::link::Link;
use crate::Result;
use crate::Topology;

/// Fail with the full construction's error when a terminal is isolated.
///
/// `all` is the validated terminal set (root first, then first-seen
/// order, at least two entries). Evaluates `weight` on the links incident
/// to each terminal in order, stopping at the first usable one; if every
/// incident link of some terminal `all[k]` is infinite, returns
/// [`TopoError::Disconnected`] with `from = all[0]` and `to` the first
/// terminal of `all[1..]` the root cannot reach:
///
/// * if the root is isolated (`k = 0`), nothing else is reachable, so
///   `to = all[1]`;
/// * otherwise `all[k]` is unreachable, so `to` is the first of
///   `all[1..=k]` that a search from the root misses. The search is the
///   same Dijkstra the root search runs (pooled scratch, weights evaluated
///   on demand) and stops once `all[1..k]` have settled; with `k = 1`
///   there is nothing to search for.
///
/// Returns `Ok(())` when no terminal is isolated, having evaluated at
/// most one usable link per terminal. Nothing is recorded in the pool's
/// read log: a failed construction yields no claims. The answer equals
/// the full construction's for weights that are non-negative or `+∞`
/// (the contract both constructions document).
pub(crate) fn reject_isolated_terminal(
    topo: &Topology,
    all: &[NodeId],
    weight: &impl Fn(&Link) -> f64,
    pool: &mut ScratchPool,
) -> Result<()> {
    let links = topo.links();
    let weight_of = |l: crate::ids::LinkId| weight(&links[l.index()]);
    // The searches skip exactly the links whose weight `is_infinite`.
    let isolated = |t: &NodeId| {
        topo.neighbors(*t)
            .is_ok_and(|incident| incident.iter().all(|&(_, l)| weight_of(l).is_infinite()))
    };
    let Some(k) = all.iter().position(isolated) else {
        return Ok(());
    };
    let root = all[0];
    if k <= 1 {
        return Err(TopoError::Disconnected {
            from: root,
            to: all[1],
        });
    }
    let mut search = pool.take();
    let outcome = search.run_multi(topo, &[root], weight_of, Some(&all[1..k]));
    let to = all[1..k]
        .iter()
        .copied()
        .find(|t| !search.reachable(*t))
        .unwrap_or(all[k]);
    pool.give_back(search);
    outcome?;
    Err(TopoError::Disconnected { from: root, to })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::mehlhorn::{sparse_solve, steiner_tree_sparse_in};
    use crate::algo::steiner::{kmb_solve, steiner_tree_in, terminal_set, trivial_tree};
    use crate::algo::SteinerTree;
    use crate::builders;
    use crate::ids::LinkId;
    use proptest::prelude::*;

    /// The construction without the prelude, as it ran before the prelude
    /// existed: validate, trivial case, then the full solve.
    fn full(
        topo: &Topology,
        root: NodeId,
        terminals: &[NodeId],
        weight: impl Fn(&Link) -> f64,
        sparse: bool,
    ) -> Result<SteinerTree> {
        let all = terminal_set(topo, root, terminals)?;
        if all.len() == 1 {
            return Ok(trivial_tree(topo, root, terminals));
        }
        let mut pool = ScratchPool::new();
        if sparse {
            sparse_solve(topo, &all, terminals, weight, &mut pool)
        } else {
            kmb_solve(topo, &all, terminals, weight, &mut pool)
        }
    }

    fn fast(
        topo: &Topology,
        root: NodeId,
        terminals: &[NodeId],
        weight: impl Fn(&Link) -> f64,
        sparse: bool,
        pool: &mut ScratchPool,
    ) -> Result<SteinerTree> {
        if sparse {
            steiner_tree_sparse_in(topo, root, terminals, weight, pool)
        } else {
            steiner_tree_in(topo, root, terminals, weight, pool)
        }
    }

    #[test]
    fn isolated_terminal_reports_first_unreachable_in_terminal_order() {
        let t = builders::linear(5, 1.0, 100.0);
        // Links: 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,4). Cutting 1 and 3
        // disconnects {2,3} and isolates 4.
        let cut = [LinkId(1), LinkId(3)];
        let w = |l: &Link| {
            if cut.contains(&l.id) {
                f64::INFINITY
            } else {
                1.0
            }
        };
        for sparse in [false, true] {
            let mut pool = ScratchPool::new();
            for terms in [
                vec![NodeId(1), NodeId(3), NodeId(4)],
                vec![NodeId(4), NodeId(3)],
                vec![NodeId(1), NodeId(4), NodeId(3)],
            ] {
                let got = fast(&t, NodeId(0), &terms, w, sparse, &mut pool);
                let want = full(&t, NodeId(0), &terms, w, sparse);
                assert_eq!(got, want, "terminals {terms:?}");
                assert!(matches!(got, Err(TopoError::Disconnected { .. })));
            }
        }
    }

    #[test]
    fn isolated_root_names_the_first_terminal() {
        let t = builders::linear(4, 1.0, 100.0);
        let w = |l: &Link| {
            if l.id == LinkId(0) {
                f64::INFINITY
            } else {
                1.0
            }
        };
        let mut pool = ScratchPool::new();
        for sparse in [false, true] {
            let got = fast(&t, NodeId(0), &[NodeId(3), NodeId(2)], w, sparse, &mut pool);
            assert_eq!(
                got,
                Err(TopoError::Disconnected {
                    from: NodeId(0),
                    to: NodeId(3)
                })
            );
        }
    }

    #[test]
    fn nan_weight_without_isolated_terminal_still_surfaces_as_bad_weight() {
        let t = builders::linear(4, 1.0, 100.0);
        let w = |l: &Link| if l.id == LinkId(1) { f64::NAN } else { 1.0 };
        let mut pool = ScratchPool::new();
        for sparse in [false, true] {
            let got = fast(&t, NodeId(0), &[NodeId(3)], w, sparse, &mut pool);
            assert!(
                matches!(got, Err(TopoError::BadWeight { link, .. }) if link == LinkId(1)),
                "sparse={sparse}: {got:?}"
            );
        }
    }

    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn fabric(pick: u8, seed: u64) -> Topology {
        match pick % 4 {
            0 => builders::random_connected(4 + (seed % 30) as usize, 0.15, seed, 100.0),
            1 => builders::random_connected(12, 0.4, seed, 100.0),
            2 => builders::metro(&builders::MetroParams::default()),
            _ => builders::fat_tree(4, 400.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The prelude never changes an outcome: on random graphs and the
        /// metro and fat-tree fabrics, with random links priced `+∞`,
        /// random terminals cut off entirely, and terminal lists that
        /// repeat entries and include the root, both constructions return
        /// exactly what they return without it — the same tree, or the
        /// same `Disconnected { from, to }`.
        #[test]
        fn fail_fast_equals_full_construction(
            pick in 0u8..4,
            seed in 0u64..10_000,
            cut_pct in 0u64..40,
            isolate in proptest::collection::vec(0usize..1_000, 0..3),
            root_pick in 0usize..1_000,
            picks in proptest::collection::vec(0usize..1_000, 1..9),
        ) {
            let t = fabric(pick, seed);
            let n = t.node_count();
            let root = NodeId((root_pick % n) as u32);
            let mut terminals: Vec<NodeId> = Vec::new();
            for p in &picks {
                let node = match p % 8 {
                    0 => root,
                    1 if !terminals.is_empty() => terminals[p % terminals.len()],
                    _ => NodeId((p / 8 % n) as u32),
                };
                terminals.push(node);
            }
            let mut cut: Vec<bool> = (0..t.link_count() as u64)
                .map(|l| mix(seed ^ (l << 20)) % 100 < cut_pct)
                .collect();
            for i in &isolate {
                let victim = if i % (terminals.len() + 1) == 0 {
                    root
                } else {
                    terminals[i % terminals.len()]
                };
                for &(_, l) in t.neighbors(victim).unwrap() {
                    cut[l.index()] = true;
                }
            }
            let w = |l: &Link| {
                if cut[l.id.index()] {
                    f64::INFINITY
                } else {
                    l.length_km + (mix(seed ^ u64::from(l.id.0)) % 7) as f64
                }
            };
            let mut pool = ScratchPool::new();
            for sparse in [false, true] {
                let got = fast(&t, root, &terminals, w, sparse, &mut pool);
                let want = full(&t, root, &terminals, w, sparse);
                prop_assert_eq!(got, want);
            }
        }
    }
}
