//! Property-based tests for the optical layer.

use flexsched_optical::{GroomingManager, OpticalState, TimeslotTable, WavelengthPolicy};
use flexsched_topo::{algo, builders};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn policy_from(i: u8) -> WavelengthPolicy {
    match i % 4 {
        0 => WavelengthPolicy::FirstFit,
        1 => WavelengthPolicy::LastFit,
        2 => WavelengthPolicy::MostUsed,
        _ => WavelengthPolicy::LeastUsed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No (link, wavelength) slot is ever held by two lightpaths, across any
    /// interleaving of establishments and teardowns under any policy.
    #[test]
    fn rwa_never_double_books(
        ops in proptest::collection::vec((0u8..2, 0u8..4, 0usize..100), 1..60)
    ) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut live: Vec<flexsched_optical::LightpathId> = Vec::new();

        for (op, pol, pick) in ops {
            if op == 0 || live.is_empty() {
                let a = servers[pick % servers.len()];
                let b = servers[(pick / 7 + 1) % servers.len()];
                if a == b { continue; }
                let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
                if let Ok(ids) = state.establish_route(&path, policy_from(pol)) {
                    live.extend(ids);
                }
            } else {
                let id = live.swap_remove(pick % live.len());
                state.teardown(id).unwrap();
            }

            // Invariant: every lightpath's wavelength slot maps back to it,
            // and no two lightpaths claim the same slot.
            let mut seen: BTreeMap<(u32, u16), u64> = BTreeMap::new();
            for lp in state.lightpaths() {
                for l in &lp.path.links {
                    let key = (l.0, lp.wavelength.0);
                    prop_assert!(
                        seen.insert(key, lp.id.0).is_none(),
                        "slot {key:?} double-booked"
                    );
                    prop_assert!(!state.is_free(*l, lp.wavelength).unwrap());
                }
            }
        }
    }

    /// Grooming then releasing every demand leaves zero lightpaths, and
    /// groomed bandwidth never exceeds lightpath capacity meanwhile.
    #[test]
    fn grooming_conserves_and_caps(
        demands in proptest::collection::vec((0usize..100, 1.0f64..40.0), 1..20)
    ) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut mgr = GroomingManager::new();
        let mut ids = Vec::new();
        for (pick, gbps) in demands {
            let a = servers[pick % servers.len()];
            let b = servers[(pick + 1) % servers.len()];
            if a == b { continue; }
            let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
            if let Ok(id) = mgr.groom(&mut state, &path, gbps, WavelengthPolicy::FirstFit) {
                ids.push(id);
            }
            for lp in state.lightpaths() {
                prop_assert!(lp.groomed_gbps <= lp.capacity_gbps + 1e-6,
                    "lightpath over-groomed: {} > {}", lp.groomed_gbps, lp.capacity_gbps);
            }
        }
        for id in ids {
            mgr.release(&mut state, id).unwrap();
        }
        prop_assert_eq!(state.lightpath_count(), 0);
    }

    /// Timeslot allocations are pairwise disjoint and free+held = frame.
    #[test]
    fn timeslots_partition_the_frame(
        frame in 1u16..32,
        asks in proptest::collection::vec(1u16..8, 1..20),
    ) {
        let mut table = TimeslotTable::new(frame);
        let lp = flexsched_optical::LightpathId(0);
        table.register(lp);
        let mut allocs = Vec::new();
        let mut held = 0u16;
        for ask in asks {
            match table.allocate(lp, ask) {
                Ok(a) => {
                    prop_assert_eq!(a.slots.len(), ask as usize);
                    held += ask;
                    allocs.push(a);
                }
                Err(_) => {
                    prop_assert!(held + ask > frame, "refused although space existed");
                }
            }
            prop_assert_eq!(table.free_slots(lp), frame - held);
        }
        // Disjointness.
        let mut seen = std::collections::BTreeSet::new();
        for a in &allocs {
            for s in &a.slots {
                prop_assert!(seen.insert(*s), "slot {s} double-allocated");
            }
        }
        // Release everything; frame is whole again.
        for a in allocs {
            table.release(a.id).unwrap();
        }
        prop_assert_eq!(table.free_slots(lp), frame);
    }

    /// establish/teardown round trip leaves wavelength utilization at zero.
    #[test]
    fn establish_teardown_round_trip(seed in 0u64..500) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let a = servers[(seed as usize) % servers.len()];
        let b = servers[(seed as usize + 3) % servers.len()];
        prop_assume!(a != b);
        let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
        let ids = state.establish_route(&path, WavelengthPolicy::FirstFit).unwrap();
        prop_assert!(state.wavelength_utilization() > 0.0);
        for id in ids {
            state.teardown(id).unwrap();
        }
        prop_assert_eq!(state.wavelength_utilization(), 0.0);
        prop_assert_eq!(state.lightpath_count(), 0);
    }
}

#[test]
fn sanity_establish_route_on_spine_leaf() {
    let topo = Arc::new(builders::spine_leaf(2, 4, 2, true, 400.0));
    let servers = topo.servers();
    let mut state = OpticalState::new(Arc::clone(&topo));
    let path = algo::shortest_path(&topo, servers[0], servers[7], algo::hop_weight).unwrap();
    let ids = state
        .establish_route(&path, WavelengthPolicy::FirstFit)
        .unwrap();
    assert!(!ids.is_empty());
}

/// A topology mix matching the paper's scenarios: metro rings of varying
/// size and spine-leaf fabrics of varying radix.
fn scenario_topology(pick: u8) -> Arc<flexsched_topo::Topology> {
    Arc::new(match pick % 4 {
        0 => builders::metro(&builders::MetroParams::default()),
        1 => builders::metro(&builders::MetroParams {
            core_roadms: 8,
            core_wavelengths: 4,
            servers_per_router: 2,
            chords: 3,
            ..builders::MetroParams::default()
        }),
        2 => builders::spine_leaf(2, 4, 2, true, 400.0),
        _ => builders::spine_leaf(3, 5, 3, true, 800.0),
    })
}

/// The scalar reference implementation of the continuity intersection: one
/// `is_free` probe per (wavelength, hop), exactly the pre-bitset loop.
fn scalar_free_wavelengths(
    state: &OpticalState,
    path: &flexsched_topo::Path,
) -> Vec<flexsched_optical::WavelengthId> {
    use flexsched_optical::WavelengthId;
    if path.links.is_empty() {
        return Vec::new();
    }
    let mut grid = u16::MAX;
    for l in &path.links {
        grid = grid.min(state.topo().link(*l).unwrap().wavelengths.max(1));
    }
    (0..grid)
        .map(WavelengthId)
        .filter(|w| path.links.iter().all(|l| state.is_free(*l, *w).unwrap()))
        .collect()
}

/// Reference usage count derived from the lightpath registry alone.
fn registry_usage_count(state: &OpticalState, w: flexsched_optical::WavelengthId) -> usize {
    state
        .lightpaths()
        .filter(|lp| lp.wavelength == w)
        .map(|lp| lp.path.links.len())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The word-parallel bitset continuity intersection must agree with the
    /// scalar per-wavelength reference on every reachable server pair, under
    /// any interleaving of establishments, teardowns and impairments, on
    /// metro and spine-leaf topologies alike.
    #[test]
    fn bitset_free_wavelengths_match_scalar_reference(
        topo_pick in 0u8..4,
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0usize..100, 0u16..8), 1..50),
        probes in proptest::collection::vec((0usize..100, 0usize..100), 1..8),
    ) {
        let topo = scenario_topology(topo_pick);
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut live: Vec<flexsched_optical::LightpathId> = Vec::new();

        for (op, pol, pick, w) in ops {
            match op {
                0 => {
                    let a = servers[pick % servers.len()];
                    let b = servers[(pick / 7 + 1) % servers.len()];
                    if a == b { continue; }
                    let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
                    if let Ok(ids) = state.establish_route(&path, policy_from(pol)) {
                        live.extend(ids);
                    }
                }
                1 if !live.is_empty() => {
                    let id = live.swap_remove(pick % live.len());
                    state.teardown(id).unwrap();
                }
                _ => {
                    let link = flexsched_topo::LinkId((pick % topo.link_count()) as u32);
                    let grid = topo.link(link).unwrap().wavelengths.max(1);
                    let wid = flexsched_optical::WavelengthId(w % grid);
                    state.set_impaired(link, wid, pick % 2 == 0).unwrap();
                }
            }
        }

        for (i, j) in probes {
            let a = servers[i % servers.len()];
            let b = servers[j % servers.len()];
            if a == b { continue; }
            let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
            prop_assert_eq!(
                state.free_wavelengths_on_path(&path).unwrap(),
                scalar_free_wavelengths(&state, &path),
                "bitset and scalar disagree on {}", path
            );
        }
    }

    /// The incrementally-maintained per-wavelength usage counters must match
    /// a from-scratch count over the lightpath registry at all times.
    #[test]
    fn usage_counters_match_registry(
        topo_pick in 0u8..4,
        ops in proptest::collection::vec((0u8..2, 0u8..4, 0usize..100), 1..60),
    ) {
        let topo = scenario_topology(topo_pick);
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut live: Vec<flexsched_optical::LightpathId> = Vec::new();
        let max_grid = topo.links().iter().map(|l| l.wavelengths.max(1)).max().unwrap();

        for (op, pol, pick) in ops {
            if op == 0 || live.is_empty() {
                let a = servers[pick % servers.len()];
                let b = servers[(pick / 5 + 1) % servers.len()];
                if a == b { continue; }
                let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
                if let Ok(ids) = state.establish_route(&path, policy_from(pol)) {
                    live.extend(ids);
                }
            } else {
                let id = live.swap_remove(pick % live.len());
                state.teardown(id).unwrap();
            }
            for w in 0..max_grid {
                let wid = flexsched_optical::WavelengthId(w);
                prop_assert_eq!(
                    state.usage_count(wid),
                    registry_usage_count(&state, wid),
                    "usage counter drifted for {}", wid
                );
            }
        }
    }

    /// choose_wavelength must pick exactly what the policy dictates over the
    /// scalar free set: first/last index, most/least used with low-index
    /// tie-breaks.
    #[test]
    fn choose_wavelength_matches_scalar_policy_semantics(
        topo_pick in 0u8..4,
        ops in proptest::collection::vec((0u8..4, 0usize..100), 1..30),
        probe in 0usize..100,
        probe2 in 0usize..100,
    ) {
        let topo = scenario_topology(topo_pick);
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        for (pol, pick) in ops {
            let a = servers[pick % servers.len()];
            let b = servers[(pick / 3 + 1) % servers.len()];
            if a == b { continue; }
            let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
            let _ = state.establish_route(&path, policy_from(pol));
        }
        let a = servers[probe % servers.len()];
        let b = servers[probe2 % servers.len()];
        prop_assume!(a != b);
        let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
        let free = scalar_free_wavelengths(&state, &path);
        for pol in [
            WavelengthPolicy::FirstFit,
            WavelengthPolicy::LastFit,
            WavelengthPolicy::MostUsed,
            WavelengthPolicy::LeastUsed,
        ] {
            let expected = match pol {
                WavelengthPolicy::FirstFit => free.first().copied(),
                WavelengthPolicy::LastFit => free.last().copied(),
                WavelengthPolicy::MostUsed => free
                    .iter()
                    .max_by_key(|w| (registry_usage_count(&state, **w), std::cmp::Reverse(w.0)))
                    .copied(),
                WavelengthPolicy::LeastUsed => free
                    .iter()
                    .min_by_key(|w| (registry_usage_count(&state, **w), w.0))
                    .copied(),
            };
            match expected {
                Some(w) => prop_assert_eq!(state.choose_wavelength(&path, pol).unwrap(), w),
                None => prop_assert!(state.choose_wavelength(&path, pol).is_err()),
            }
        }
    }
}

/// Mixed-grid fabric for snapshot equivalence: four servers on 1-wavelength
/// access links into a ROADM ring of 4-, 8-, 16- and 96-wavelength fibers
/// plus a 130-wavelength chord, so links span one to three busy words.
fn mixed_grid_topology() -> Arc<flexsched_topo::Topology> {
    use flexsched_topo::NodeKind;
    let mut t = flexsched_topo::Topology::new();
    let roadms: Vec<_> = (0..4)
        .map(|i| t.add_node(NodeKind::Roadm, format!("r{i}")))
        .collect();
    for (i, r) in roadms.iter().enumerate() {
        let s = t.add_node(NodeKind::Server, format!("s{i}"));
        t.add_link(s, *r, 0.1, 100.0).unwrap();
    }
    for (i, grid) in [4u16, 8, 16, 96].into_iter().enumerate() {
        let (a, b) = (roadms[i], roadms[(i + 1) % 4]);
        t.add_wdm_link(a, b, 10.0, 100.0 * f64::from(grid), grid)
            .unwrap();
    }
    t.add_wdm_link(roadms[0], roadms[2], 15.0, 13_000.0, 130)
        .unwrap();
    Arc::new(t)
}

/// Demands probing the grooming tolerance around every live residual, plus
/// one above any lightpath's capacity.
fn boundary_demands(state: &OpticalState) -> Vec<f64> {
    let mut demands = vec![0.0, 1_000.0];
    for lp in state.lightpaths() {
        let r = lp.residual_gbps();
        demands.extend([r, r - 1e-9, r + 1e-9, r - 2e-9, r + 2e-9]);
        demands.push(lp.capacity_gbps + 1.0);
    }
    demands
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A snapshot answers every feasibility query exactly as the live state
    /// it was captured from: free-wavelength counts and continuity sets,
    /// grooming headroom per link and per endpoint pair, link stamps and
    /// link validation, after any interleaving of establishments under all
    /// four policies, grooming, impairments and teardowns.
    #[test]
    fn snapshot_answers_like_live_state(
        ops in proptest::collection::vec(
            (0u8..5, 0u8..4, 0usize..1_000, 0u16..200, 0.0f64..1.2),
            1..40,
        ),
    ) {
        use flexsched_optical::{LightpathId, WavelengthId};
        use flexsched_topo::LinkId;
        let topo = mixed_grid_topology();
        let nodes: Vec<_> = topo.nodes().iter().map(|n| n.id).collect();
        let mut paths = Vec::new();
        for &a in &nodes {
            for &b in &nodes {
                if a < b {
                    paths.push(algo::shortest_path(&topo, a, b, algo::hop_weight).unwrap());
                }
            }
        }
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut live: Vec<LightpathId> = Vec::new();

        for (op, pol, pick, w, frac) in ops {
            match op {
                0 => {
                    let path = paths[pick % paths.len()].clone();
                    if let Ok(id) = state.establish(path, policy_from(pol)) {
                        live.push(id);
                    }
                }
                1 | 2 if !live.is_empty() => {
                    let id = live[pick % live.len()];
                    let lp = state.lightpath(id).unwrap();
                    // About a third of these steps groom exactly the
                    // residual or release exactly the groomed load; the
                    // rest use a fraction of capacity that may overshoot.
                    let exact = if op == 1 { lp.residual_gbps() } else { lp.groomed_gbps };
                    let gbps = if w % 3 == 0 { exact } else { frac * lp.capacity_gbps };
                    let _ = if op == 1 {
                        state.add_groomed(id, gbps)
                    } else {
                        state.remove_groomed(id, gbps)
                    };
                }
                3 => {
                    let link = LinkId((pick % topo.link_count()) as u32);
                    let grid = topo.link(link).unwrap().wavelengths.max(1);
                    state
                        .set_impaired(link, WavelengthId(w % grid), pick % 2 == 0)
                        .unwrap();
                }
                _ if !live.is_empty() => {
                    let id = live.swap_remove(pick % live.len());
                    state.teardown(id).unwrap();
                }
                _ => {}
            }

            let snap = state.snapshot();
            let demands = boundary_demands(&state);
            for link in topo.links().iter().map(|l| l.id) {
                prop_assert_eq!(
                    snap.has_free_wavelength(link).unwrap(),
                    state.has_free_wavelength(link).unwrap()
                );
                prop_assert_eq!(
                    snap.free_wavelength_count(link).unwrap(),
                    state.free_wavelength_count(link).unwrap()
                );
                prop_assert_eq!(snap.link_version(link), state.link_version(link));
                prop_assert!(snap.check(link).is_ok());
                for &gbps in &demands {
                    prop_assert_eq!(
                        snap.groomable_across(link, gbps),
                        state.groomable_across(link, gbps),
                        "groomable_across({}, {})", link, gbps
                    );
                }
            }
            let unknown = LinkId(topo.link_count() as u32);
            prop_assert!(snap.check(unknown).is_err());
            prop_assert!(state.has_free_wavelength(unknown).is_err());
            prop_assert_eq!(snap.link_version(unknown), state.link_version(unknown));
            prop_assert!(!snap.groomable_across(unknown, 0.0));

            for path in &paths {
                let free = state.free_wavelengths_on_path(path).unwrap();
                prop_assert_eq!(
                    snap.path_has_free_wavelength(path).unwrap(),
                    !free.is_empty()
                );
                prop_assert_eq!(snap.free_wavelengths_on_path(path).unwrap(), free);
                let (src, dst) = (path.source(), path.destination());
                for &gbps in &demands {
                    let live_between = state.lightpaths().any(|lp| {
                        lp.source() == src
                            && lp.destination() == dst
                            && lp.residual_gbps() + 1e-9 >= gbps
                    });
                    prop_assert_eq!(
                        snap.groomable_between(src, dst, gbps),
                        live_between,
                        "groomable_between({}, {}, {})", src, dst, gbps
                    );
                }
            }
        }
    }
}
