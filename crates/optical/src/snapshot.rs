//! Frozen, shareable views of the optical-layer occupancy.
//!
//! An [`OpticalSnapshot`] freezes the per-link wavelength busy bitmasks
//! (occupied ∪ impaired) and the grooming headroom of every established
//! lightpath at one instant. It is `Send + Sync`, so scheduler worker
//! threads can evaluate wavelength feasibility and grooming headroom
//! against a consistent view while the live [`OpticalState`] keeps changing
//! under the orchestrator's lock.
//!
//! Capture is flat: the busy words of every link live in one `Vec<u64>`
//! addressed by per-link word offsets, and the lightpath registry is
//! reduced, in one walk over the live routes, to two indices — the largest
//! residual of any lightpath crossing each link (`groom_max`) and one
//! `(src, dst, residual)` entry per lightpath. [`groomable_across`] is then
//! one compare instead of a scan of every lightpath. It answers exactly as
//! the scan `any(residual + 1e-9 >= gbps)` would: rounding `x + 1e-9` is
//! monotone in `x`, so the largest sum comes from the largest residual, and
//! a NaN demand fails both forms.
//!
//! [`groomable_across`]: OpticalSnapshot::groomable_across

use crate::error::OpticalError;
use crate::rwa::{grid_word_mask, words_for, OpticalState, WORD_BITS};
use crate::wavelength::WavelengthId;
use crate::Result;
use flexsched_topo::{LinkId, NodeId, Path, Topology};
use std::sync::Arc;

/// Grooming tolerance, the same as the live state's: a lightpath with
/// `residual` headroom can take `gbps` iff `residual + GROOM_EPS >= gbps`.
const GROOM_EPS: f64 = 1e-9;

/// An immutable point-in-time copy of wavelength occupancy and lightpath
/// grooming headroom.
#[derive(Debug, Clone)]
pub struct OpticalSnapshot {
    topo: Arc<Topology>,
    /// Occupancy ∪ impairment bitmask words of every link, concatenated:
    /// link `l`'s words are `busy[offsets[l]..offsets[l + 1]]`.
    busy: Vec<u64>,
    /// Per-link word offsets into `busy`; one entry more than links.
    offsets: Vec<usize>,
    /// `groom_max[link]` = largest residual (Gbit/s) of any lightpath
    /// crossing `link`; NaN when none does, so every demand fails.
    groom_max: Vec<f64>,
    /// `(src, dst, residual)` of every lightpath, id order.
    endpoints: Vec<(NodeId, NodeId, f64)>,
    version: u64,
    /// Per-link spectrum mutation stamps at capture time.
    link_version: Vec<u64>,
}

impl OpticalSnapshot {
    /// Freeze `state`'s current occupancy. O(links × grid/64) word copies
    /// into one buffer plus one walk over every established lightpath's
    /// route.
    pub fn capture(state: &OpticalState) -> Self {
        let (occupied, impaired, lightpaths, link_version) = state.raw_parts();
        let words: usize = occupied.iter().map(Vec::len).sum();
        let mut busy = Vec::with_capacity(words);
        let mut offsets = Vec::with_capacity(occupied.len() + 1);
        offsets.push(0);
        for (occ, imp) in occupied.iter().zip(impaired) {
            busy.extend(occ.iter().zip(imp).map(|(o, i)| o | i));
            offsets.push(busy.len());
        }
        let mut groom_max = vec![f64::NAN; occupied.len()];
        let mut endpoints = Vec::with_capacity(lightpaths.len());
        for lp in lightpaths.values() {
            let residual = lp.residual_gbps();
            endpoints.push((lp.source(), lp.destination(), residual));
            for l in &lp.path.links {
                // `f64::max` returns the non-NaN operand, so the NaN
                // "no lightpath" sentinel gives way to the first residual.
                if let Some(m) = groom_max.get_mut(l.index()) {
                    *m = m.max(residual);
                }
            }
        }
        OpticalSnapshot {
            topo: state.topo_arc(),
            busy,
            offsets,
            groom_max,
            endpoints,
            version: state.version(),
            link_version: link_version.to_vec(),
        }
    }

    /// The underlying topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Global optical mutation stamp at capture time.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Spectrum mutation stamp of `link` at capture time (zero for unknown
    /// links).
    #[inline]
    pub fn link_version(&self, link: LinkId) -> u64 {
        self.link_version.get(link.index()).copied().unwrap_or(0)
    }

    /// Grid size of `link`, or an error for unknown links.
    fn grid_of(&self, link: LinkId) -> Result<u16> {
        Ok(self.topo.link(link)?.wavelengths.max(1))
    }

    /// Busy words of a link already known to exist.
    #[inline]
    fn words(&self, link: LinkId) -> &[u64] {
        let i = link.index();
        &self.busy[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether any wavelength was free on `link` at capture time.
    pub fn has_free_wavelength(&self, link: LinkId) -> Result<bool> {
        let grid = self.grid_of(link)?;
        Ok(self
            .words(link)
            .iter()
            .enumerate()
            .any(|(i, b)| !b & grid_word_mask(grid, i) != 0))
    }

    /// Number of free wavelengths on `link` at capture time — the
    /// continuity-set headroom the wavelength-aware tree weight reads.
    pub fn free_wavelength_count(&self, link: LinkId) -> Result<u32> {
        let grid = self.grid_of(link)?;
        Ok(self
            .words(link)
            .iter()
            .enumerate()
            .map(|(i, b)| (!b & grid_word_mask(grid, i)).count_ones())
            .sum())
    }

    /// Free-wavelength continuity mask for `path` (see
    /// [`OpticalState::free_mask_on_path`]); empty for trivial paths.
    pub fn free_mask_on_path(&self, path: &Path) -> Result<Vec<u64>> {
        if path.links.is_empty() {
            return Ok(Vec::new());
        }
        let mut grid = u16::MAX;
        for l in &path.links {
            grid = grid.min(self.grid_of(*l)?);
        }
        let words = words_for(grid);
        let mut mask: Vec<u64> = (0..words).map(|i| grid_word_mask(grid, i)).collect();
        for l in &path.links {
            for (m, b) in mask.iter_mut().zip(self.words(*l)) {
                *m &= !b;
            }
        }
        Ok(mask)
    }

    /// Whether some wavelength satisfied the continuity constraint over the
    /// whole of `path` at capture time (true for trivial paths).
    pub fn path_has_free_wavelength(&self, path: &Path) -> Result<bool> {
        if path.links.is_empty() {
            return Ok(true);
        }
        Ok(self.free_mask_on_path(path)?.iter().any(|w| *w != 0))
    }

    /// Wavelengths free on every hop of `path` at capture time, ascending.
    pub fn free_wavelengths_on_path(&self, path: &Path) -> Result<Vec<WavelengthId>> {
        let mask = self.free_mask_on_path(path)?;
        let mut free = Vec::new();
        for (i, mut word) in mask.into_iter().enumerate() {
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                free.push(WavelengthId((i * WORD_BITS + bit) as u16));
                word &= word - 1;
            }
        }
        Ok(free)
    }

    /// Whether some lightpath with endpoints `(src, dst)` still had at
    /// least `gbps` of groomable headroom at capture time.
    pub fn groomable_between(&self, src: NodeId, dst: NodeId, gbps: f64) -> bool {
        self.endpoints
            .iter()
            .any(|&(s, d, residual)| s == src && d == dst && residual + GROOM_EPS >= gbps)
    }

    /// Whether some lightpath crossing `link` still had at least `gbps` of
    /// groomable headroom at capture time. O(1): one compare against the
    /// link's largest residual.
    #[inline]
    pub fn groomable_across(&self, link: LinkId, gbps: f64) -> bool {
        self.groom_max
            .get(link.index())
            .is_some_and(|m| m + GROOM_EPS >= gbps)
    }

    /// Validate that `link` exists, mirroring the live-state error shape.
    pub fn check(&self, link: LinkId) -> Result<()> {
        if link.index() < self.groom_max.len() {
            Ok(())
        } else {
            Err(OpticalError::Topo(flexsched_topo::TopoError::UnknownLink(
                link,
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwa::WavelengthPolicy;
    use flexsched_topo::{NodeKind, Topology};

    fn wdm_line() -> (Arc<Topology>, Path) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Roadm, "a");
        let b = t.add_node(NodeKind::Roadm, "b");
        let c = t.add_node(NodeKind::Roadm, "c");
        t.add_wdm_link(a, b, 10.0, 400.0, 4).unwrap();
        t.add_wdm_link(b, c, 10.0, 400.0, 4).unwrap();
        let t = Arc::new(t);
        let p = flexsched_topo::algo::shortest_path(&t, a, c, flexsched_topo::algo::hop_weight)
            .unwrap();
        (t, p)
    }

    #[test]
    fn snapshot_freezes_occupancy() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        let snap = s.snapshot();
        s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        // The snapshot still sees 3 free wavelengths per link; live has 2.
        assert_eq!(snap.free_wavelength_count(p.links[0]).unwrap(), 3);
        assert_eq!(s.free_wavelength_count(p.links[0]).unwrap(), 2);
        assert!(snap.has_free_wavelength(p.links[0]).unwrap());
    }

    #[test]
    fn continuity_mask_matches_live_state() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(Arc::clone(&t));
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        s.establish_on(hop1, WavelengthId(0)).unwrap();
        let snap = s.snapshot();
        assert_eq!(
            snap.free_wavelengths_on_path(&p).unwrap(),
            s.free_wavelengths_on_path(&p).unwrap()
        );
        assert!(snap.path_has_free_wavelength(&p).unwrap());
    }

    #[test]
    fn lightpath_views_carry_grooming_headroom() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        s.add_groomed(id, 60.0).unwrap();
        let snap = s.snapshot();
        assert!(snap.groomable_between(p.source(), p.destination(), 40.0));
        assert!(!snap.groomable_between(p.source(), p.destination(), 50.0));
        assert!(snap.groomable_across(p.links[1], 40.0));
        assert!(!snap.groomable_across(LinkId(99), 1.0));
    }

    #[test]
    fn versions_track_mutations() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let before = s.snapshot();
        let id = s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        assert!(s.version() > before.version());
        let mid = s.version();
        s.teardown(id).unwrap();
        assert!(s.version() > mid);
    }

    #[test]
    fn per_link_stamps_move_only_for_touched_fibers() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let before = s.snapshot();
        // Establish on the first hop only: the second fiber stays pristine.
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        let id = s.establish_on(hop1, WavelengthId(0)).unwrap();
        assert!(s.link_version(p.links[0]) > before.link_version(p.links[0]));
        assert_eq!(s.link_version(p.links[1]), before.link_version(p.links[1]));
        // Grooming changes the headroom of every crossed fiber.
        let mid = s.link_version(p.links[0]);
        s.add_groomed(id, 10.0).unwrap();
        assert!(s.link_version(p.links[0]) > mid);
        assert_eq!(s.link_version(p.links[1]), before.link_version(p.links[1]));
    }

    #[test]
    fn groomable_across_matches_snapshot_view() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        s.add_groomed(id, 60.0).unwrap();
        let snap = s.snapshot();
        for l in &p.links {
            assert_eq!(
                s.groomable_across(*l, 40.0),
                snap.groomable_across(*l, 40.0)
            );
            assert_eq!(
                s.groomable_across(*l, 50.0),
                snap.groomable_across(*l, 50.0)
            );
        }
        assert!(!s.groomable_across(LinkId(99), 1.0));
    }

    #[test]
    fn grooming_tolerance_is_one_nanogbit_on_both_views() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(Arc::clone(&t));
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        let id = s.establish_on(hop1, WavelengthId(0)).unwrap();
        s.add_groomed(id, 60.0).unwrap();
        let residual = s.lightpath(id).unwrap().residual_gbps();
        let snap = s.snapshot();
        let (crossed, idle) = (p.links[0], p.links[1]);
        for (gbps, groomable) in [
            (residual, true),
            (residual + 1e-9, true),
            (residual + 1e-6, false),
        ] {
            assert_eq!(s.groomable_across(crossed, gbps), groomable, "{gbps}");
            assert_eq!(snap.groomable_across(crossed, gbps), groomable, "{gbps}");
            assert_eq!(
                snap.groomable_between(p.nodes[0], p.nodes[1], gbps),
                groomable,
                "{gbps}"
            );
        }
        for gbps in [residual, 1.0, 0.0, -1.0, f64::NEG_INFINITY] {
            assert!(!s.groomable_across(idle, gbps), "{gbps}");
            assert!(!snap.groomable_across(idle, gbps), "{gbps}");
        }
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OpticalSnapshot>();
    }

    #[test]
    fn impairment_shows_as_busy() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        for w in 0..4 {
            s.set_impaired(p.links[0], WavelengthId(w), true).unwrap();
        }
        let snap = s.snapshot();
        assert!(!snap.has_free_wavelength(p.links[0]).unwrap());
        assert_eq!(snap.free_wavelength_count(p.links[0]).unwrap(), 0);
        assert!(snap.has_free_wavelength(p.links[1]).unwrap());
        assert!(!snap.path_has_free_wavelength(&p).unwrap());
    }

    #[test]
    fn unknown_links_error() {
        let (t, _) = wdm_line();
        let s = OpticalState::new(t);
        let snap = s.snapshot();
        assert!(snap.check(LinkId(9)).is_err());
        assert!(snap.has_free_wavelength(LinkId(9)).is_err());
    }
}
