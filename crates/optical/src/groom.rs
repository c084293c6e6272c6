//! Traffic grooming: packing sub-wavelength demands onto lightpaths.
//!
//! The testbed's IP routers "groom" AI-task flows onto wavelength circuits.
//! The flexible scheduler's bandwidth saving comes precisely from this: "AI
//! tasks can use some existing paths to transmit model weights". The
//! [`GroomingManager`] reuses an established lightpath when one with the
//! same endpoints has residual capacity, and only lights new wavelengths
//! when necessary; tearing down a demand frees idle lightpaths.

use crate::lightpath::LightpathId;
use crate::rwa::{split_at_electrical, OpticalState, WavelengthPolicy};
use crate::Result;
use flexsched_topo::{NodeId, Path};
use std::collections::BTreeMap;

/// A groomed demand: one IP-layer flow mapped onto per-segment lightpaths.
#[derive(Debug, Clone, PartialEq)]
pub struct GroomedDemand {
    /// Manager-scoped id.
    pub id: u64,
    /// IP-layer endpoints.
    pub src: NodeId,
    /// IP-layer destination.
    pub dst: NodeId,
    /// Groomed rate, Gbit/s.
    pub gbps: f64,
    /// Lightpaths carrying this demand, in path order.
    pub lightpaths: Vec<LightpathId>,
    /// Which of those lightpaths were newly established for this demand.
    pub established: Vec<LightpathId>,
}

/// Grooms demands onto an [`OpticalState`], reusing existing lightpaths.
#[derive(Debug, Default)]
pub struct GroomingManager {
    demands: BTreeMap<u64, GroomedDemand>,
    next_id: u64,
    /// Count of segment placements that reused an existing lightpath, over
    /// grooms that succeeded.
    reuse_hits: u64,
    /// Count of segment placements that had to light a new wavelength,
    /// over grooms that succeeded.
    new_lights: u64,
    /// Count of grooms that failed and were rolled back.
    failures: u64,
}

impl GroomingManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Groom `gbps` along `path`: for every optical segment, reuse an
    /// existing same-endpoint lightpath with residual capacity (preferring
    /// the fullest, to pack) or establish a new one under `policy`.
    /// All-or-nothing: on failure every action is rolled back.
    pub fn groom(
        &mut self,
        optical: &mut OpticalState,
        path: &Path,
        gbps: f64,
        policy: WavelengthPolicy,
    ) -> Result<u64> {
        let segments = split_at_electrical(optical.topo(), path)?;
        let mut used: Vec<LightpathId> = Vec::with_capacity(segments.len());
        let mut established: Vec<LightpathId> = Vec::new();
        let mut groomed: Vec<(LightpathId, f64)> = Vec::new();

        // Placement counts land only if every segment places, so a
        // rolled-back groom leaves the counters as it found them.
        let (mut reuse_hits, mut new_lights) = (0u64, 0u64);

        let rollback = |mgr: &mut Self,
                        optical: &mut OpticalState,
                        groomed: &[(LightpathId, f64)],
                        established: &[LightpathId]| {
            for (id, g) in groomed {
                let _ = optical.remove_groomed(*id, *g);
            }
            for id in established {
                let _ = optical.teardown(*id);
            }
            mgr.failures += 1;
        };

        for seg in &segments {
            // Prefer the existing lightpath with the least residual that
            // still fits (best-fit packing), matching segment endpoints.
            let candidate = optical
                .lightpaths()
                .filter(|lp| {
                    lp.source() == seg.source()
                        && lp.destination() == seg.destination()
                        && lp.residual_gbps() + 1e-9 >= gbps
                })
                .min_by(|a, b| {
                    a.residual_gbps()
                        .partial_cmp(&b.residual_gbps())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.id.cmp(&b.id))
                })
                .map(|lp| lp.id);
            let id = match candidate {
                Some(id) => {
                    reuse_hits += 1;
                    id
                }
                None => match optical.establish(seg.clone(), policy) {
                    Ok(id) => {
                        new_lights += 1;
                        established.push(id);
                        id
                    }
                    Err(e) => {
                        rollback(self, optical, &groomed, &established);
                        return Err(e);
                    }
                },
            };
            if let Err(e) = optical.add_groomed(id, gbps) {
                rollback(self, optical, &groomed, &established);
                return Err(e);
            }
            groomed.push((id, gbps));
            used.push(id);
        }
        self.reuse_hits += reuse_hits;
        self.new_lights += new_lights;

        let id = self.next_id;
        self.next_id += 1;
        self.demands.insert(
            id,
            GroomedDemand {
                id,
                src: path.source(),
                dst: path.destination(),
                gbps,
                lightpaths: used,
                established,
            },
        );
        Ok(id)
    }

    /// Release a demand: remove its groomed bandwidth and tear down any
    /// lightpath left idle.
    pub fn release(&mut self, optical: &mut OpticalState, demand: u64) -> Result<()> {
        let d = self
            .demands
            .remove(&demand)
            .ok_or(crate::OpticalError::UnknownAllocation(demand))?;
        for id in &d.lightpaths {
            optical.remove_groomed(*id, d.gbps)?;
        }
        for id in &d.lightpaths {
            if optical.lightpath(*id).is_ok_and(|lp| lp.is_idle()) {
                optical.teardown(*id)?;
            }
        }
        Ok(())
    }

    /// Active demand count.
    pub fn demand_count(&self) -> usize {
        self.demands.len()
    }

    /// Look up a demand.
    pub fn demand(&self, id: u64) -> Option<&GroomedDemand> {
        self.demands.get(&id)
    }

    /// How many segment placements reused existing lightpaths.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// How many segment placements lit new wavelengths.
    pub fn new_lights(&self) -> u64 {
        self.new_lights
    }

    /// How many grooms failed and were rolled back.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::{algo, NodeKind, Topology};
    use std::sync::Arc;

    /// server - router - ROADM==ROADM - router - server, 4-wavelength core.
    fn rig() -> (Arc<Topology>, Path) {
        let mut t = Topology::new();
        let s0 = t.add_node(NodeKind::Server, "s0");
        let r0 = t.add_node(NodeKind::IpRouter, "r0");
        let o0 = t.add_node(NodeKind::Roadm, "o0");
        let o1 = t.add_node(NodeKind::Roadm, "o1");
        let r1 = t.add_node(NodeKind::IpRouter, "r1");
        let s1 = t.add_node(NodeKind::Server, "s1");
        t.add_link(s0, r0, 0.1, 400.0).unwrap();
        t.add_wdm_link(r0, o0, 0.1, 400.0, 4).unwrap();
        t.add_wdm_link(o0, o1, 20.0, 400.0, 4).unwrap();
        t.add_wdm_link(o1, r1, 0.1, 400.0, 4).unwrap();
        t.add_link(r1, s1, 0.1, 400.0).unwrap();
        let t = Arc::new(t);
        let p = algo::shortest_path(&t, s0, s1, algo::hop_weight).unwrap();
        (t, p)
    }

    #[test]
    fn first_demand_lights_new_wavelengths() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let id = g
            .groom(&mut opt, &p, 10.0, WavelengthPolicy::FirstFit)
            .unwrap();
        assert_eq!(g.demand_count(), 1);
        assert!(g.new_lights() >= 1);
        assert_eq!(g.reuse_hits(), 0);
        let d = g.demand(id).unwrap();
        // Segments: s0-r0 | r0-o0-o1-r1 | r1-s1.
        assert_eq!(d.lightpaths.len(), 3, "one lightpath per segment");
    }

    #[test]
    fn second_demand_reuses_lightpaths() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        g.groom(&mut opt, &p, 10.0, WavelengthPolicy::FirstFit)
            .unwrap();
        let lights_before = opt.lightpath_count();
        g.groom(&mut opt, &p, 10.0, WavelengthPolicy::FirstFit)
            .unwrap();
        assert_eq!(
            opt.lightpath_count(),
            lights_before,
            "second demand must not light new wavelengths"
        );
        assert!(g.reuse_hits() >= 1);
    }

    #[test]
    fn release_tears_down_idle_lightpaths() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let id = g
            .groom(&mut opt, &p, 10.0, WavelengthPolicy::FirstFit)
            .unwrap();
        assert!(opt.lightpath_count() > 0);
        g.release(&mut opt, id).unwrap();
        assert_eq!(opt.lightpath_count(), 0);
        assert_eq!(g.demand_count(), 0);
    }

    #[test]
    fn shared_lightpath_survives_partial_release() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let a = g
            .groom(&mut opt, &p, 10.0, WavelengthPolicy::FirstFit)
            .unwrap();
        let b = g
            .groom(&mut opt, &p, 10.0, WavelengthPolicy::FirstFit)
            .unwrap();
        let count = opt.lightpath_count();
        g.release(&mut opt, a).unwrap();
        assert_eq!(opt.lightpath_count(), count, "b still grooms the paths");
        g.release(&mut opt, b).unwrap();
        assert_eq!(opt.lightpath_count(), 0);
    }

    #[test]
    fn capacity_exhaustion_spills_to_new_wavelength() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        // Core channel is 100 Gbps; two 60 G demands can't share a channel.
        g.groom(&mut opt, &p, 60.0, WavelengthPolicy::FirstFit)
            .unwrap();
        let before = opt.lightpath_count();
        g.groom(&mut opt, &p, 60.0, WavelengthPolicy::FirstFit)
            .unwrap();
        assert!(opt.lightpath_count() > before);
    }

    #[test]
    fn failure_rolls_back_cleanly() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(Arc::clone(&t));
        let mut g = GroomingManager::new();
        // Demand exceeding access-link channel capacity (100 G grey link):
        // grooming must fail and leave no residue.
        let err = g.groom(&mut opt, &p, 150.0, WavelengthPolicy::FirstFit);
        assert!(err.is_err());
        assert_eq!(opt.lightpath_count(), 0);
        assert_eq!(g.demand_count(), 0);
    }

    #[test]
    fn rolled_back_groom_leaves_placement_counters_unchanged() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let a = g
            .groom(&mut opt, &p, 10.0, WavelengthPolicy::FirstFit)
            .unwrap();
        // Fill the core lightpath and light the core's other three
        // wavelengths, so the next demand reuses the access segment but
        // finds no wavelength for the core one.
        let core = g.demand(a).unwrap().lightpaths[1];
        opt.add_groomed(core, 90.0).unwrap();
        let core_path = opt.lightpath(core).unwrap().path.clone();
        for _ in 0..3 {
            opt.establish(core_path.clone(), WavelengthPolicy::FirstFit)
                .unwrap();
            opt.add_groomed(opt.lightpaths().last().unwrap().id, 100.0)
                .unwrap();
        }
        let (hits, lights) = (g.reuse_hits(), g.new_lights());
        assert!(g
            .groom(&mut opt, &p, 10.0, WavelengthPolicy::FirstFit)
            .is_err());
        assert_eq!((g.reuse_hits(), g.new_lights()), (hits, lights));
        assert_eq!(g.failures(), 1);
    }

    #[test]
    fn unknown_release_errors() {
        let (t, _) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        assert!(g.release(&mut opt, 9).is_err());
    }
}
