//! The sharded commit plane: footprint-routed per-region committers.
//!
//! Every commit in the single-lock pipeline serialises through one
//! [`Database`](crate::Database) write lock — correct, but the whole
//! control plane's throughput is one lock's throughput. The fabric
//! builders already know their regions (metro sites, fat-tree pods,
//! spine-leaf racks: [`flexsched_topo::Node::region`]), and PR 5's
//! [`Footprint`](flexsched_sched::Footprint) records exactly which links
//! each decision touches — so state can be partitioned along region lines
//! and commits routed to only the shards their footprint names:
//!
//! * [`ShardMap`] — topology → shard id per node and link. A node's home
//!   is `region % shards` (untagged nodes — fat-tree cores, spines —
//!   fold into shard 0); a link's home is its endpoints' common home, or
//!   the smaller of the two homes for inter-region links.
//! * [`ShardedDb`] — one [`DbShard`] per shard behind its own lock. Every
//!   shard holds full-topology network/optical state but is
//!   *authoritative only for its home links*: all reads and writes of a
//!   link's state go to the link's home shard, so each link has exactly
//!   one owner and the shards' authoritative regions are disjoint.
//! * [`ShardedCommitter`] — classifies an [`Intent`] by its footprint
//!   into write shards (claimed links ∪ the replaced schedule's links)
//!   and read shards (the recorded read region), then acquires the
//!   involved shard locks **in ascending shard-id order** — write locks
//!   for write shards, read locks for read-only shards. Ordered
//!   acquisition makes deadlock impossible (every committer acquires
//!   along the same total order); shard-local intents (the overwhelming
//!   majority on region-disjoint workloads) take exactly one lock and
//!   commit fully in parallel with every other shard's traffic.
//!
//! **1-shard equivalence contract:** with one shard, every link's home is
//! shard 0 and `apply` performs the *identical mutation sequence* as the
//! single-lock [`Committer`](crate::Committer) — validation in the same
//! order with the same first-conflict, then one reservation per flow rule
//! in `Schedule::reservations` order, then per-chain grooming (chains
//! split at shard boundaries are whole at 1 shard). The mutation-stamped
//! `Debug` fingerprint of shard 0 is therefore bit-identical to the
//! single-lock database's — pinned by the shard proptests.
//!
//! At N shards, an optical chain crossing a shard boundary is groomed as
//! per-shard segments — modelling an optical-domain boundary with OEO
//! regeneration at the crossing — so per-link *IP* state stays exactly
//! equivalent to the 1-shard run (each link sees the same reservation
//! subsequence from its home shard) while spectrum assignment may
//! legitimately differ across shard counts.

use crate::commit::{schedule_chains, CommitReceipt, Conflict, GangConflict, Intent, Validation};
use crate::messages::FlowRule;
use crate::Result;
use flexsched_compute::ClusterManager;
use flexsched_optical::{GroomingManager, OpticalState, WavelengthPolicy};
use flexsched_sched::{Proposal, Schedule};
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::TaskId;
use flexsched_topo::{LinkId, NodeId, Path, Topology};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Topology → shard id, derived from the builders' region tags.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: u32,
    node_home: Vec<u32>,
    link_home: Vec<u32>,
}

impl ShardMap {
    /// Derive the partition for `shards` shards: node home =
    /// `region % shards` (untagged → shard 0), link home = the endpoints'
    /// common home, else the smaller endpoint home. `shards` is clamped
    /// to at least 1.
    pub fn new(topo: &Topology, shards: u32) -> Self {
        let shards = shards.max(1);
        let node_home: Vec<u32> = topo
            .nodes()
            .iter()
            .map(|n| n.region.map_or(0, |r| r % shards))
            .collect();
        let link_home: Vec<u32> = topo
            .links()
            .iter()
            .map(|l| {
                let (a, b) = (node_home[l.a.index()], node_home[l.b.index()]);
                a.min(b)
            })
            .collect();
        ShardMap {
            shards,
            node_home,
            link_home,
        }
    }

    /// Number of shards in the partition.
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// The shard authoritative for a link's state.
    #[inline]
    pub fn link_home(&self, link: LinkId) -> u32 {
        self.link_home.get(link.index()).copied().unwrap_or(0)
    }

    /// The shard a node folds into.
    #[inline]
    pub fn node_home(&self, node: NodeId) -> u32 {
        self.node_home.get(node.index()).copied().unwrap_or(0)
    }

    /// Distinct home shards of `links` (any order), ascending.
    pub fn shards_of(&self, links: impl IntoIterator<Item = LinkId>) -> Vec<u32> {
        let mut out: Vec<u32> = links.into_iter().map(|l| self.link_home(l)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One shard's slice of orchestrator state: full-topology network and
/// optical state (authoritative only for the shard's home links) plus the
/// shard's grooming manager.
#[derive(Debug)]
pub struct DbShard {
    /// IP-layer state; only home links are read or written.
    pub network: NetworkState,
    /// Spectrum state; only home links are read or written.
    pub optical: OpticalState,
    /// Grooms chains whose links live on this shard.
    pub groom: GroomingManager,
}

/// Region-partitioned orchestrator state: one [`DbShard`] per shard, each
/// behind its own lock, plus the shared (read-only at commit time) compute
/// cluster view.
#[derive(Debug, Clone)]
pub struct ShardedDb {
    map: Arc<ShardMap>,
    topo: Arc<Topology>,
    shards: Arc<Vec<RwLock<DbShard>>>,
    cluster: Arc<ClusterManager>,
}

impl ShardedDb {
    /// Partition fresh state over `shards` shards of `topo`.
    pub fn new(topo: Arc<Topology>, shards: u32, cluster: ClusterManager) -> Self {
        let map = Arc::new(ShardMap::new(&topo, shards));
        let shards = (0..map.shard_count())
            .map(|_| {
                RwLock::new(DbShard {
                    network: NetworkState::new(Arc::clone(&topo)),
                    optical: OpticalState::new(Arc::clone(&topo)),
                    groom: GroomingManager::new(),
                })
            })
            .collect();
        ShardedDb {
            map,
            topo,
            shards: Arc::new(shards),
            cluster: Arc::new(cluster),
        }
    }

    /// The shared topology every shard's state is built over.
    pub fn topo(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The partition this database is sharded along.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.map.shard_count()
    }

    /// The shared compute cluster view.
    pub fn cluster(&self) -> &ClusterManager {
        &self.cluster
    }

    /// Run `f` with read access to one shard's state.
    pub fn read_shard<R>(&self, shard: u32, f: impl FnOnce(&DbShard) -> R) -> R {
        f(&self.shards[shard as usize].read())
    }

    /// Freeze a [`flexsched_sched::NetworkSnapshot`] of one shard's state.
    /// Sound for proposing *region-local* decisions: every link such a
    /// decision consults is a home link of this shard, so the view is
    /// authoritative over the whole footprint the proposal will carry.
    pub fn shard_snapshot(&self, shard: u32) -> flexsched_sched::NetworkSnapshot {
        let g = self.shards[shard as usize].read();
        flexsched_sched::NetworkSnapshot::capture(&g.network).with_optical(&g.optical)
    }

    /// The mutation-stamped `Debug` fingerprint of the single shard — the
    /// 1-shard equivalence pin against the single-lock database's
    /// `format!("{net:?}|{opt:?}")`.
    ///
    /// # Panics
    /// Panics when called on a multi-shard database: no single shard's
    /// Debug view is authoritative there; use
    /// [`link_fingerprints`](ShardedDb::link_fingerprints) instead.
    pub fn fingerprint_single(&self) -> String {
        assert_eq!(
            self.shard_count(),
            1,
            "whole-state fingerprint is only meaningful at 1 shard"
        );
        let g = self.shards[0].read();
        format!("{:?}|{:?}", g.network, g.optical)
    }

    /// Per-link IP-layer fingerprints from each link's *home shard*:
    /// usage in both directions, down flag and mutation stamp. Because a
    /// link's state is only ever touched through its home shard, and each
    /// link sees the same reservation subsequence regardless of shard
    /// count, these are comparable across shard counts (unlike spectrum
    /// state, which legitimately differs once chains split at shard
    /// boundaries).
    pub fn link_fingerprints(&self) -> Vec<String> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let topo = guards[0].network.topo();
        (0..topo.link_count() as u32)
            .map(LinkId)
            .map(|l| {
                let net = &guards[self.map.link_home(l) as usize].network;
                let link = topo.link(l).expect("dense link ids");
                let a2b = net.usage(DirLink::new(l, flexsched_topo::Direction::AtoB));
                let b2a = net.usage(DirLink::new(l, flexsched_topo::Direction::BtoA));
                format!(
                    "{l}:{a}->{b} {a2b:?} {b2a:?} down={d} v={v}",
                    a = link.a,
                    b = link.b,
                    d = net.is_down(l),
                    v = net.link_version(l)
                )
            })
            .collect()
    }

    /// Apply a *scenario-level* mutation — a fault flipping a down flag,
    /// a repair — to **every** shard's replica of the state, shard 0
    /// first, then the rest in ascending order. Commits only ever touch a
    /// link's home shard, but environment events (outages, repairs) must
    /// be visible to every shard's full-topology view so proposals built
    /// from any shard's snapshot route around them.
    pub fn write_all(&self, mut f: impl FnMut(&mut NetworkState, &mut OpticalState)) {
        for shard in self.shards.iter() {
            let mut g = shard.write();
            let DbShard {
                network, optical, ..
            } = &mut *g;
            f(network, optical);
        }
    }

    /// Grooming statistics summed over the shards: (lightpath reuse hits,
    /// new wavelengths lit, sub-chains dropped) — the sharded analogue of
    /// [`Committer::groom_stats`](crate::Committer::groom_stats).
    pub fn groom_stats(&self) -> (u64, u64, u64) {
        let mut stats = (0, 0, 0);
        for shard in self.shards.iter() {
            let g = shard.read();
            stats.0 += g.groom.reuse_hits();
            stats.1 += g.groom.new_lights();
            stats.2 += g.groom.failures();
        }
        stats
    }

    /// Total reserved bandwidth, summed over each link's home shard.
    pub fn total_reserved_gbps(&self) -> f64 {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let topo = guards[0].network.topo();
        let mut total = 0.0;
        for l in (0..topo.link_count() as u32).map(LinkId) {
            let net = &guards[self.map.link_home(l) as usize].network;
            for dir in [
                flexsched_topo::Direction::AtoB,
                flexsched_topo::Direction::BtoA,
            ] {
                if let Ok(u) = net.usage(DirLink::new(l, dir)) {
                    total += u.occupied_gbps();
                }
            }
        }
        total
    }
}

/// A held shard lock: exclusive for write shards, shared for shards the
/// intent only reads.
enum ShardGuard<'a> {
    Write(std::sync::RwLockWriteGuard<'a, DbShard>),
    Read(std::sync::RwLockReadGuard<'a, DbShard>),
}

impl<'a> ShardGuard<'a> {
    fn state(&self) -> &DbShard {
        match self {
            ShardGuard::Write(g) => g,
            ShardGuard::Read(g) => g,
        }
    }

    fn state_mut(&mut self) -> &mut DbShard {
        match self {
            ShardGuard::Write(g) => g,
            ShardGuard::Read(_) => unreachable!("mutation routed to a read-locked shard"),
        }
    }
}

/// Footprint-routed commit gate over a [`ShardedDb`].
///
/// Owns the rules and groomed demands it installed (the sharded analogue
/// of the single-lock committer's SDN controller + grooming manager), so
/// several committers can drive disjoint regions of one [`ShardedDb`]
/// concurrently, each releasing exactly what it installed.
#[derive(Debug, Default)]
pub struct ShardedCommitter {
    installed: BTreeMap<TaskId, Vec<FlowRule>>,
    /// Committer-scoped groom demand id → (home shard, shard-local id).
    demands: BTreeMap<u64, (u32, u64)>,
    next_demand: u64,
    commits: u64,
    rejections: u64,
    local_commits: u64,
    /// Cross commits whose *writes* fit one shard — only the recorded
    /// read region (stamp checks) pulled in more shards.
    read_foreign_commits: u64,
    /// Cross commits whose writes themselves span more than one shard.
    write_cross_commits: u64,
}

impl ShardedCommitter {
    /// A committer with nothing installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime (commits, rejections) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.commits, self.rejections)
    }

    /// Lifetime (shard-local, cross-shard) commit counters: a commit is
    /// *local* when its whole footprint — write and read shards — fits in
    /// one shard, i.e. it took exactly one lock. The cross count is the
    /// sum of both cross classes in [`locality_detail`](Self::locality_detail).
    pub fn locality(&self) -> (u64, u64) {
        (
            self.local_commits,
            self.read_foreign_commits + self.write_cross_commits,
        )
    }

    /// Lifetime `(local, read-only-foreign, write-cross)` commit counters
    /// — the honest split of the cross class. *Read-only-foreign*: the
    /// commit's writes fit one shard and only the MST search's recorded
    /// read region (validated by stamp checks, never mutated) pulled in
    /// more lock scopes. *Write-cross*: the written tree itself spans
    /// shards, the only class that truly serialises multi-shard mutation.
    /// `local + read_foreign + write_cross == commits`.
    pub fn locality_detail(&self) -> (u64, u64, u64) {
        (
            self.local_commits,
            self.read_foreign_commits,
            self.write_cross_commits,
        )
    }

    /// Classify the intent's footprint into (write shards, read-only
    /// shards), both ascending and disjoint. Write shards cover the new
    /// claims *and* the replaced schedule's standing reservations (both
    /// are mutated); read shards cover the recorded read region (stamp
    /// checks only).
    fn classify(db: &ShardedDb, intent: &Intent<'_>) -> (Vec<u32>, Vec<u32>) {
        let (proposal, old): (&Proposal, Option<&Schedule>) = match intent {
            Intent::Admit { proposal, .. } => (proposal, None),
            Intent::Migrate { old, proposal, .. } => (proposal, Some(old)),
            Intent::Repair { old, proposal, .. } => (proposal, Some(old)),
        };
        let map = db.map();
        let fp = proposal.footprint();
        let (mut writes, reads) = fp.shards(|l| map.link_home(l));
        if let Some(old) = old {
            let old_links: Vec<LinkId> = old
                .reservations(db.topo())
                .map(|r| r.into_iter().map(|(dl, _)| dl.link).collect())
                .unwrap_or_default();
            writes.extend(map.shards_of(old_links));
            writes.sort_unstable();
            writes.dedup();
        }
        let reads: Vec<u32> = reads
            .into_iter()
            .filter(|s| writes.binary_search(s).is_err())
            .collect();
        (writes, reads)
    }

    /// Acquire the involved shard locks in ascending shard-id order —
    /// the no-deadlock argument: every committer, whatever its footprint,
    /// acquires along the same total order, so no cycle of waiters can
    /// form.
    fn acquire<'a>(
        db: &'a ShardedDb,
        writes: &[u32],
        reads: &[u32],
    ) -> BTreeMap<u32, ShardGuard<'a>> {
        let mut guards = BTreeMap::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < writes.len() || j < reads.len() {
            let take_write = match (writes.get(i), reads.get(j)) {
                (Some(w), Some(r)) => w < r,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_write {
                let s = writes[i];
                guards.insert(s, ShardGuard::Write(db.shards[s as usize].write()));
                i += 1;
            } else {
                let s = reads[j];
                guards.insert(s, ShardGuard::Read(db.shards[s as usize].read()));
                j += 1;
            }
        }
        guards
    }

    /// Validate `p` against the acquired shards, consulting each link's
    /// state on its *home shard*. Check order mirrors the single-lock
    /// committer's validator exactly — rate floor, server slots, link
    /// claims in order, wavelength claims, read region last — so the
    /// first conflict reported is identical at any shard count.
    #[allow(clippy::too_many_arguments)]
    fn validate(
        p: &Proposal,
        guards: &BTreeMap<u32, ShardGuard<'_>>,
        map: &ShardMap,
        cluster: &ClusterManager,
        strictness: Validation,
        credit: Option<&[(DirLink, f64)]>,
        stamp_scope: Option<&[LinkId]>,
    ) -> std::result::Result<(), Conflict> {
        let net_of =
            |link: LinkId| -> &NetworkState { &guards[&map.link_home(link)].state().network };
        let opt_of =
            |link: LinkId| -> &OpticalState { &guards[&map.link_home(link)].state().optical };
        let in_scope =
            |link: LinkId| stamp_scope.is_none_or(|scope| scope.binary_search(&link).is_ok());
        let weakest = p
            .schedule
            .broadcast
            .min_rate_gbps()
            .min(p.schedule.upload.min_rate_gbps());
        if weakest + 1e-9 < p.claims.rate_floor_gbps {
            return Err(Conflict::RateFloorViolated {
                rate_gbps: weakest,
                floor_gbps: p.claims.rate_floor_gbps,
            });
        }
        for slot in &p.claims.server_slots {
            if cluster.server(*slot).is_err() {
                return Err(Conflict::MissingServer { node: *slot });
            }
        }
        for c in &p.claims.links {
            let link = c.link.link;
            let net = net_of(link);
            if net.is_down(link) {
                return Err(Conflict::LinkDown { link });
            }
            let mut available = net.residual_gbps(c.link).map_err(|_| Conflict::StaleLink {
                link,
                claimed_gbps: c.gbps,
                available_gbps: 0.0,
            })?;
            if let Some(credit) = credit {
                if let Ok(i) = credit.binary_search_by(|(dl, _)| dl.cmp(&c.link)) {
                    available += credit[i].1;
                }
            }
            let stale_stamp = strictness == Validation::Current
                && in_scope(link)
                && net.link_version(link) != c.seen_version;
            if stale_stamp || c.gbps > available + 1e-9 {
                return Err(Conflict::StaleLink {
                    link,
                    claimed_gbps: c.gbps,
                    available_gbps: available,
                });
            }
        }
        for w in &p.claims.wavelengths {
            let opt = opt_of(w.link);
            if strictness == Validation::Current
                && in_scope(w.link)
                && opt.link_version(w.link) != w.seen_version
            {
                return Err(Conflict::StaleOptical { link: w.link });
            }
            let free = opt.has_free_wavelength(w.link).unwrap_or(false);
            if !free && !opt.groomable_across(w.link, w.demand_gbps) {
                return Err(Conflict::WavelengthTaken { link: w.link });
            }
        }
        if strictness == Validation::Current {
            for r in &p.claims.reads {
                if net_of(r.link).link_version(r.link) != r.seen_version {
                    return Err(Conflict::StaleRead { link: r.link });
                }
                if let Some(seen) = r.seen_spectrum {
                    if opt_of(r.link).link_version(r.link) != seen {
                        return Err(Conflict::StaleRead { link: r.link });
                    }
                }
            }
        }
        Ok(())
    }

    /// Reserve one directed hop per rule, each on its link's home shard,
    /// in rule order — at 1 shard this is exactly `Schedule::apply`'s
    /// mutation sequence. On failure the already-reserved prefix is
    /// rolled back (unreachable after validation; kept defensively).
    fn install_rules(
        guards: &mut BTreeMap<u32, ShardGuard<'_>>,
        map: &ShardMap,
        rules: &[FlowRule],
    ) -> Result<()> {
        for (i, r) in rules.iter().enumerate() {
            let dl = DirLink::new(r.link, r.dir);
            let home = map.link_home(r.link);
            let outcome = guards
                .get_mut(&home)
                .expect("write shard acquired")
                .state_mut()
                .network
                .reserve(dl, r.rate_gbps);
            if let Err(e) = outcome {
                for done in &rules[..i] {
                    let dl = DirLink::new(done.link, done.dir);
                    let home = map.link_home(done.link);
                    guards
                        .get_mut(&home)
                        .expect("write shard acquired")
                        .state_mut()
                        .network
                        .release(dl, done.rate_gbps)
                        .expect("rollback of fresh reservation cannot fail");
                }
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Release one directed hop per rule, each on its link's home shard,
    /// in rule order — mirrors the single-lock SDN controller's removal.
    fn release_rules(
        guards: &mut BTreeMap<u32, ShardGuard<'_>>,
        map: &ShardMap,
        rules: &[FlowRule],
    ) -> Result<()> {
        for r in rules {
            let dl = DirLink::new(r.link, r.dir);
            let home = map.link_home(r.link);
            guards
                .get_mut(&home)
                .expect("write shard acquired")
                .state_mut()
                .network
                .release(dl, r.rate_gbps)?;
        }
        Ok(())
    }

    /// Groom the schedule's chains, split at shard boundaries: each
    /// maximal same-home-shard run grooms on its shard's optical state
    /// (an optical-domain boundary with OEO regeneration at the
    /// crossing). Best-effort per sub-chain, like the single-lock path —
    /// wavelength shortage never blocks the IP-layer schedule. Returns
    /// committer-scoped demand ids.
    fn groom_chains(
        &mut self,
        guards: &mut BTreeMap<u32, ShardGuard<'_>>,
        map: &ShardMap,
        schedule: &Schedule,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        for chain in schedule_chains(schedule) {
            for (shard, seg) in split_chain(map, &chain) {
                let state = guards
                    .get_mut(&shard)
                    .expect("write shard acquired")
                    .state_mut();
                let DbShard { optical, groom, .. } = state;
                if let Ok(local) = groom.groom(
                    optical,
                    &seg,
                    schedule.demand_gbps,
                    WavelengthPolicy::FirstFit,
                ) {
                    let id = self.next_demand;
                    self.next_demand += 1;
                    self.demands.insert(id, (shard, local));
                    out.push(id);
                }
            }
        }
        out
    }

    /// The single typed entry point: classify the intent's footprint,
    /// take the involved shard locks in ascending order, validate against
    /// each link's home shard, and atomically apply — or reject with the
    /// same typed [`Conflict`] the single-lock committer would report,
    /// leaving every shard bit-identical.
    pub fn apply(&mut self, db: &ShardedDb, intent: Intent<'_>) -> Result<CommitReceipt> {
        let (writes, reads) = Self::classify(db, &intent);
        let is_local = writes.len() + reads.len() <= 1;
        let write_cross = writes.len() > 1;
        let mut guards = Self::acquire(db, &writes, &reads);
        let map = db.map();
        let outcome = match intent {
            Intent::Admit {
                proposal,
                validation,
            } => self.commit_guarded(&mut guards, map, db.cluster(), proposal, validation),
            Intent::Migrate {
                old,
                proposal,
                validation,
            } => self.migrate_guarded(
                &mut guards,
                map,
                db.cluster(),
                old,
                proposal,
                validation,
                None,
            ),
            Intent::Repair {
                old,
                proposal,
                delta,
            } => {
                let scope = delta.touched_links();
                self.migrate_guarded(
                    &mut guards,
                    map,
                    db.cluster(),
                    old,
                    proposal,
                    Validation::Current,
                    Some(&scope),
                )
            }
        };
        match &outcome {
            Ok(_) => {
                self.commits += 1;
                if is_local {
                    self.local_commits += 1;
                } else if write_cross {
                    self.write_cross_commits += 1;
                } else {
                    self.read_foreign_commits += 1;
                }
            }
            Err(_) => self.rejections += 1,
        }
        outcome
    }

    fn commit_guarded(
        &mut self,
        guards: &mut BTreeMap<u32, ShardGuard<'_>>,
        map: &ShardMap,
        cluster: &ClusterManager,
        p: &Proposal,
        strictness: Validation,
    ) -> Result<CommitReceipt> {
        Self::validate(p, guards, map, cluster, strictness, None, None)
            .map_err(crate::OrchError::Rejected)?;
        let rules = {
            let any = guards.values().next().expect("at least one shard involved");
            compile_rules(&p.schedule, any.state().network.topo())?
        };
        Self::install_rules(guards, map, &rules)?;
        let groomed = self.groom_chains(guards, map, &p.schedule);
        self.installed.insert(p.schedule.task, rules);
        Ok(CommitReceipt {
            task: p.schedule.task,
            groomed,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn migrate_guarded(
        &mut self,
        guards: &mut BTreeMap<u32, ShardGuard<'_>>,
        map: &ShardMap,
        cluster: &ClusterManager,
        old: &Schedule,
        p: &Proposal,
        strictness: Validation,
        stamp_scope: Option<&[LinkId]>,
    ) -> Result<CommitReceipt> {
        let topo = {
            let any = guards.values().next().expect("at least one shard involved");
            any.state().network.topo_arc()
        };
        let credit = old.aggregated_reservations(&topo)?;
        Self::validate(
            p,
            guards,
            map,
            cluster,
            strictness,
            Some(&credit),
            stamp_scope,
        )
        .map_err(crate::OrchError::Rejected)?;
        let old_rules = self
            .installed
            .remove(&old.task)
            .ok_or(crate::OrchError::UnknownTask(old.task))?;
        Self::release_rules(guards, map, &old_rules)?;
        let rules = compile_rules(&p.schedule, &topo)?;
        if let Err(e) = Self::install_rules(guards, map, &rules) {
            // Unreachable when the credited validation was exact; kept as
            // a defensive rollback so a floating-point edge cannot strand
            // the task ruleless.
            Self::install_rules(guards, map, &old_rules)
                .expect("re-installing just-released rules cannot fail");
            self.installed.insert(old.task, old_rules);
            return Err(e);
        }
        self.installed.insert(p.schedule.task, rules);
        Ok(CommitReceipt {
            task: p.schedule.task,
            groomed: Vec::new(),
        })
    }

    /// Gang-admit a ready stage frontier across the sharded plane: the
    /// union of the members' write/read shards is locked in ascending
    /// order, then — exactly like the single-lock
    /// [`Committer::apply_gang`](crate::Committer::apply_gang) — **every**
    /// member validates (in gang order, against each link's home shard,
    /// with the earlier members' link claims debited) before **any**
    /// member installs. The first failing member rejects the whole gang
    /// with [`OrchError::GangRejected`](crate::OrchError::GangRejected)
    /// and leaves every shard bit-identical, stamps and grooming
    /// included.
    ///
    /// Counters advance by the gang size on success (classified once, by
    /// the union footprint's locality) and by one rejection on failure.
    pub fn apply_gang(
        &mut self,
        db: &ShardedDb,
        gang: &[&Proposal],
        validation: Validation,
    ) -> Result<Vec<CommitReceipt>> {
        let map = db.map();
        let mut writes: Vec<u32> = Vec::new();
        let mut all_reads: Vec<u32> = Vec::new();
        for p in gang {
            let (w, r) = p.footprint().shards(|l| map.link_home(l));
            writes.extend(w);
            all_reads.extend(r);
        }
        writes.sort_unstable();
        writes.dedup();
        all_reads.sort_unstable();
        all_reads.dedup();
        let reads: Vec<u32> = all_reads
            .into_iter()
            .filter(|s| writes.binary_search(s).is_err())
            .collect();
        let is_local = writes.len() + reads.len() <= 1;
        let write_cross = writes.len() > 1;
        let mut guards = Self::acquire(db, &writes, &reads);
        let outcome = (|| -> Result<Vec<CommitReceipt>> {
            // Phase 1 — read-only joint validation with accumulated debit
            // (negated: `validate` adds credit to available capacity).
            let mut debit: BTreeMap<DirLink, f64> = BTreeMap::new();
            for (member, p) in gang.iter().enumerate() {
                let overlay: Vec<(DirLink, f64)> = debit.iter().map(|(dl, g)| (*dl, -*g)).collect();
                let overlay = (!overlay.is_empty()).then_some(overlay);
                Self::validate(
                    p,
                    &guards,
                    map,
                    db.cluster(),
                    validation,
                    overlay.as_deref(),
                    None,
                )
                .map_err(|conflict| {
                    crate::OrchError::GangRejected(GangConflict { member, conflict })
                })?;
                if member + 1 < gang.len() {
                    for c in &p.claims.links {
                        *debit.entry(c.link).or_insert(0.0) += c.gbps;
                    }
                }
            }
            // Phase 2 — all claims hold jointly: install every member.
            let mut receipts: Vec<CommitReceipt> = Vec::with_capacity(gang.len());
            for p in gang.iter() {
                let rules = {
                    let any = guards.values().next().expect("at least one shard involved");
                    compile_rules(&p.schedule, any.state().network.topo())?
                };
                if let Err(e) = Self::install_rules(&mut guards, map, &rules) {
                    // Unreachable when the debited validation was exact;
                    // kept as a defensive rollback so a floating-point
                    // edge cannot leave a partial gang installed.
                    for r in &receipts {
                        let prev = self
                            .installed
                            .remove(&r.task)
                            .expect("gang member was just installed");
                        Self::release_rules(&mut guards, map, &prev)
                            .expect("rolling back fresh gang rules cannot fail");
                        for d in &r.groomed {
                            if let Some((shard, local)) = self.demands.remove(d) {
                                let state = guards
                                    .get_mut(&shard)
                                    .expect("write shard acquired")
                                    .state_mut();
                                let DbShard { optical, groom, .. } = state;
                                let _ = groom.release(optical, local);
                            }
                        }
                    }
                    return Err(e);
                }
                let groomed = self.groom_chains(&mut guards, map, &p.schedule);
                self.installed.insert(p.schedule.task, rules);
                receipts.push(CommitReceipt {
                    task: p.schedule.task,
                    groomed,
                });
            }
            Ok(receipts)
        })();
        match &outcome {
            Ok(r) => {
                self.commits += r.len() as u64;
                let n = r.len() as u64;
                if is_local {
                    self.local_commits += n;
                } else if write_cross {
                    self.write_cross_commits += n;
                } else {
                    self.read_foreign_commits += n;
                }
            }
            Err(_) => self.rejections += 1,
        }
        outcome
    }

    /// Release a committed task: free its flow rules on their home shards
    /// and release its groomed demands — the sharded analogue of the
    /// single-lock committer's release.
    pub fn release(&mut self, db: &ShardedDb, task: TaskId, groomed: &[u64]) -> Result<()> {
        let rules = self
            .installed
            .remove(&task)
            .ok_or(crate::OrchError::UnknownTask(task))?;
        let map = db.map();
        let mut writes = map.shards_of(rules.iter().map(|r| r.link));
        for d in groomed {
            if let Some((shard, _)) = self.demands.get(d) {
                writes.push(*shard);
            }
        }
        writes.sort_unstable();
        writes.dedup();
        let mut guards = Self::acquire(db, &writes, &[]);
        Self::release_rules(&mut guards, map, &rules)?;
        for d in groomed {
            if let Some((shard, local)) = self.demands.remove(d) {
                let state = guards
                    .get_mut(&shard)
                    .expect("write shard acquired")
                    .state_mut();
                let DbShard { optical, groom, .. } = state;
                let _ = groom.release(optical, local);
            }
        }
        Ok(())
    }

    /// Number of tasks with installed rules.
    pub fn task_count(&self) -> usize {
        self.installed.len()
    }
}

/// Compile a schedule into flow rules (no side effects) — one rule per
/// entry of `Schedule::reservations`, in order.
fn compile_rules(schedule: &Schedule, topo: &Topology) -> Result<Vec<FlowRule>> {
    Ok(schedule
        .reservations(topo)?
        .into_iter()
        .map(|(dl, rate)| FlowRule {
            task: schedule.task,
            link: dl.link,
            dir: dl.dir,
            rate_gbps: rate,
        })
        .collect())
}

/// Split a directed chain into maximal runs of links sharing a home
/// shard. At 1 shard the chain comes back whole; a boundary crossing
/// models OEO regeneration between optical domains.
fn split_chain(map: &ShardMap, chain: &Path) -> Vec<(u32, Path)> {
    let mut out = Vec::new();
    if chain.links.is_empty() {
        return out;
    }
    let mut start = 0usize;
    let mut home = map.link_home(chain.links[0]);
    for i in 1..=chain.links.len() {
        let next_home = chain.links.get(i).map(|l| map.link_home(*l));
        if next_home != Some(home) {
            let seg = Path::new(
                chain.nodes[start..=i].to_vec(),
                chain.links[start..i].to_vec(),
            )
            .expect("sub-chain of a valid path is valid");
            out.push((home, seg));
            if let Some(h) = next_home {
                start = i;
                home = h;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_compute::ServerSpec;
    use flexsched_topo::builders;

    fn metro_topo() -> Arc<Topology> {
        Arc::new(builders::metro(&builders::MetroParams::default()))
    }

    #[test]
    fn map_routes_links_to_endpoint_homes() {
        let topo = metro_topo();
        let map = ShardMap::new(&topo, 3);
        assert_eq!(map.shard_count(), 3);
        for l in topo.links() {
            let home = map.link_home(l.id);
            let (a, b) = (map.node_home(l.a), map.node_home(l.b));
            if a == b {
                assert_eq!(home, a, "intra-region link lives in its region");
            } else {
                assert_eq!(home, a.min(b), "boundary link folds to smaller home");
            }
        }
    }

    #[test]
    fn one_shard_maps_everything_home() {
        let topo = metro_topo();
        let map = ShardMap::new(&topo, 1);
        assert!(topo.links().iter().all(|l| map.link_home(l.id) == 0));
        assert!((0..topo.node_count() as u32).all(|n| map.node_home(NodeId(n)) == 0));
    }

    #[test]
    fn shard_counts_clamp_to_one() {
        let topo = metro_topo();
        assert_eq!(ShardMap::new(&topo, 0).shard_count(), 1);
    }

    #[test]
    fn access_links_are_shard_local_on_metro() {
        // Metro access links (router i <-> server i_s) join two region-i
        // nodes: every one must be local to shard i % shards.
        let topo = metro_topo();
        let map = ShardMap::new(&topo, 6);
        let mut locals = 0;
        for l in topo.links() {
            let (ra, rb) = (
                topo.node(l.a).unwrap().region,
                topo.node(l.b).unwrap().region,
            );
            if ra == rb {
                assert_eq!(map.link_home(l.id), ra.unwrap() % 6);
                locals += 1;
            }
        }
        assert!(locals > 0, "metro has intra-site links");
    }

    #[test]
    fn split_chain_whole_at_one_shard() {
        let topo = metro_topo();
        let map = ShardMap::new(&topo, 1);
        // A three-hop walk across the ring: roadm0-roadm1-roadm2.
        let chain = Path::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![
                topo.find_link(NodeId(0), NodeId(1)).unwrap(),
                topo.find_link(NodeId(1), NodeId(2)).unwrap(),
            ],
        )
        .unwrap();
        let segs = split_chain(&map, &chain);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 0);
        assert_eq!(segs[0].1, chain);
    }

    #[test]
    fn split_chain_cuts_at_boundaries() {
        let topo = metro_topo();
        let map = ShardMap::new(&topo, 6);
        let chain = Path::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![
                topo.find_link(NodeId(0), NodeId(1)).unwrap(),
                topo.find_link(NodeId(1), NodeId(2)).unwrap(),
            ],
        )
        .unwrap();
        // roadm0-roadm1 folds to shard 0, roadm1-roadm2 to shard 1.
        let segs = split_chain(&map, &chain);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0, 0);
        assert_eq!(segs[1].0, 1);
        // Segments chain end-to-end: the cut node appears in both.
        assert_eq!(segs[0].1.destination(), segs[1].1.source());
    }

    #[test]
    fn sharded_db_starts_empty_and_clones_share_state() {
        let topo = metro_topo();
        let cluster = ClusterManager::from_topology(&topo, ServerSpec::default());
        let db = ShardedDb::new(Arc::clone(&topo), 4, cluster);
        assert_eq!(db.shard_count(), 4);
        assert!(db.total_reserved_gbps().abs() < 1e-12);
        let clone = db.clone();
        db.shards[0]
            .write()
            .network
            .reserve(
                DirLink::new(LinkId(0), flexsched_topo::Direction::AtoB),
                1.0,
            )
            .unwrap();
        assert!(clone.total_reserved_gbps() > 0.0, "clones share shards");
    }
}
