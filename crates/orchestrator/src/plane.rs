//! Commit-plane selection for the testbed drivers: one write lock, or the
//! region-sharded plane, behind one seam.
//!
//! ROADMAP PR 8 residual (d): the `Testbed`/`EventTestbed` drivers ran
//! the single-lock [`Committer`] only. [`CommitPlane`] closes that gap —
//! a driver configured with [`PlaneConfig::Sharded`] routes every commit,
//! gang commit, migration and release through a [`ShardedCommitter`] over
//! a [`ShardedDb`], while the [`Database`] keeps what it is uniquely good
//! at: the task ledger, container placement, schedules and reverse
//! indexes (commit-time validation never reads cluster *occupancy*, only
//! server existence, so the planes cannot disagree about a server).
//!
//! Semantics by shard count:
//!
//! * **1 shard — authoritative, pinned.** Every link homes on shard 0,
//!   reads and commits see exactly the single-lock state machine, and the
//!   drivers are pinned bit-identical to their single-lock runs
//!   (fingerprints, reports, counters).
//! * **N shards — speculative reads, authoritative commits.** Proposals
//!   and evaluations read shard 0's full-topology replica, which is
//!   authoritative only for its home links (the `shard_sweep` idiom);
//!   commit validation then checks every claim against its *home* shard,
//!   so optimistic reads are caught exactly like any stale snapshot.
//!   Scenario events (outages, repairs) are replicated to every shard's
//!   replica via [`ShardedDb::write_all`], so all views route around
//!   them.
//!
//! Background traffic stays a single-plane feature: the generator mutates
//! state through its own RNG draws, and replaying those across replicas
//! is future work — drivers reject `traffic + Sharded` configurations up
//! front rather than run with silently divergent replicas.

use crate::commit::{CommitReceipt, Committer, Intent, Validation};
use crate::database::Database;
use crate::shard::{ShardedCommitter, ShardedDb};
use crate::Result;
use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_sched::Proposal;
use flexsched_simnet::fault::{FaultEvent, FaultSchedule};
use flexsched_simnet::{NetworkState, SimTime};
use flexsched_task::TaskId;
use flexsched_topo::{LinkId, Topology};
use std::sync::Arc;

/// Which commit plane a testbed driver runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaneConfig {
    /// The single-lock [`Committer`] over the [`Database`]'s own state.
    #[default]
    Single,
    /// The footprint-routed [`ShardedCommitter`] over a [`ShardedDb`]
    /// with the given shard count. At 1 shard this is pinned
    /// bit-identical to [`PlaneConfig::Single`].
    Sharded {
        /// Number of region shards (min 1).
        shards: u32,
    },
}

/// The live commit plane a driver holds: the configured committer plus,
/// for the sharded flavour, the sharded state it commits into.
#[derive(Debug)]
pub enum CommitPlane {
    /// Single write lock: commits mutate the [`Database`]'s own state.
    Single(Committer),
    /// Region-sharded: commits mutate the [`ShardedDb`]; the
    /// [`Database`]'s own network/optical state stays pristine and
    /// unused.
    Sharded {
        /// The sharded network/optical state.
        db: ShardedDb,
        /// The footprint-routing committer.
        committer: ShardedCommitter,
    },
}

impl CommitPlane {
    /// Build the configured plane over `topo`. The sharded plane gets its
    /// own cluster view from the topology — commit validation only checks
    /// server *existence*, which depends on the topology alone, so this
    /// cannot diverge from the database's occupancy-tracking cluster.
    pub fn new(cfg: PlaneConfig, topo: &Arc<Topology>) -> Self {
        match cfg {
            PlaneConfig::Single => CommitPlane::Single(Committer::new()),
            PlaneConfig::Sharded { shards } => CommitPlane::Sharded {
                db: ShardedDb::new(
                    Arc::clone(topo),
                    shards.max(1),
                    ClusterManager::from_topology(topo, ServerSpec::default()),
                ),
                committer: ShardedCommitter::new(),
            },
        }
    }

    /// The sharded state, when this is the sharded plane.
    pub fn sharded(&self) -> Option<&ShardedDb> {
        match self {
            CommitPlane::Single(_) => None,
            CommitPlane::Sharded { db, .. } => Some(db),
        }
    }

    /// Whether this plane supports the background-traffic generator.
    pub fn supports_traffic(&self) -> bool {
        matches!(self, CommitPlane::Single(_))
    }

    /// Apply one intent through the configured committer.
    pub fn apply(&mut self, db: &Database, intent: Intent<'_>) -> Result<CommitReceipt> {
        match self {
            CommitPlane::Single(c) => c.apply(db, intent),
            CommitPlane::Sharded { db: sdb, committer } => committer.apply(sdb, intent),
        }
    }

    /// Gang-admit a frontier, all-or-nothing, through the configured
    /// committer.
    pub fn apply_gang(
        &mut self,
        db: &Database,
        gang: &[&Proposal],
        validation: Validation,
    ) -> Result<Vec<CommitReceipt>> {
        match self {
            CommitPlane::Single(c) => c.apply_gang(db, gang, validation),
            CommitPlane::Sharded { db: sdb, committer } => {
                committer.apply_gang(sdb, gang, validation)
            }
        }
    }

    /// Release a committed task's rules and groomed wavelengths.
    pub fn release(&mut self, db: &Database, task: TaskId, groomed: &[u64]) -> Result<()> {
        match self {
            CommitPlane::Single(c) => c.release(db, task, groomed),
            CommitPlane::Sharded { db: sdb, committer } => committer.release(sdb, task, groomed),
        }
    }

    /// Grooming statistics: (lightpath reuse hits, new wavelengths lit,
    /// chains dropped).
    pub fn groom_stats(&self) -> (u64, u64, u64) {
        match self {
            CommitPlane::Single(c) => c.groom_stats(),
            CommitPlane::Sharded { db, .. } => db.groom_stats(),
        }
    }

    /// Run `f` against the plane's *decision view* — the network/optical
    /// state proposals and evaluations read — plus the database's
    /// occupancy-tracking cluster. Single plane: the database's own state.
    /// Sharded plane: shard 0's full-topology replica (authoritative at 1
    /// shard; at N shards a speculative view that commit validation
    /// re-checks per home shard).
    pub fn read_state<R>(
        &self,
        db: &Database,
        f: impl FnOnce(&NetworkState, &OpticalState, &ClusterManager) -> R,
    ) -> R {
        match self {
            CommitPlane::Single(_) => db.read(f),
            CommitPlane::Sharded { db: sdb, .. } => sdb.read_shard(0, |shard| {
                db.read(|_, _, cluster| f(&shard.network, &shard.optical, cluster))
            }),
        }
    }

    /// Pop the fault schedule's due events and apply them to the plane's
    /// state — every shard's replica on the sharded plane, so all views
    /// route around the outage.
    pub fn apply_faults(
        &self,
        db: &Database,
        faults: &mut FaultSchedule,
        now: SimTime,
    ) -> Result<Vec<FaultEvent>> {
        match self {
            CommitPlane::Single(_) => Ok(db.write(|net, _, _| faults.apply_due(now, net))?),
            CommitPlane::Sharded { db: sdb, .. } => {
                let mut applied: Option<Result<Vec<FaultEvent>>> = None;
                sdb.write_all(|net, _| match &applied {
                    // First visit (shard 0): pop the due events.
                    None => {
                        applied = Some(faults.apply_due(now, net).map_err(Into::into));
                    }
                    // Later visits: replay the same events on the replica.
                    Some(Ok(events)) => {
                        for e in events {
                            e.apply(net).expect("replaying fault on replica");
                        }
                    }
                    Some(Err(_)) => {}
                });
                applied.expect("write_all visits at least one shard")
            }
        }
    }

    /// Flip one link's down flag on the plane's state — every shard's
    /// replica on the sharded plane.
    pub fn set_link_down(&self, db: &Database, link: LinkId, down: bool) -> Result<()> {
        match self {
            CommitPlane::Single(_) => Ok(db.write(|net, _, _| net.set_down(link, down))?),
            CommitPlane::Sharded { db: sdb, .. } => {
                let mut outcome = Ok(());
                sdb.write_all(|net, _| {
                    if outcome.is_ok() {
                        outcome = net.set_down(link, down).map_err(Into::into);
                    }
                });
                outcome
            }
        }
    }

    /// Total reserved bandwidth on the plane's authoritative state.
    pub fn total_reserved_gbps(&self, db: &Database) -> f64 {
        match self {
            CommitPlane::Single(_) => db.total_reserved_gbps(),
            CommitPlane::Sharded { db: sdb, .. } => sdb.total_reserved_gbps(),
        }
    }

    /// The state fingerprint the 1-shard pin compares: the database's
    /// mutation-stamped Debug view on the single plane, shard 0's on the
    /// sharded plane (panics above 1 shard, like
    /// [`ShardedDb::fingerprint_single`]).
    pub fn fingerprint(&self, db: &Database) -> String {
        match self {
            CommitPlane::Single(_) => db.read(|net, opt, _| format!("{net:?}|{opt:?}")),
            CommitPlane::Sharded { db: sdb, .. } => sdb.fingerprint_single(),
        }
    }
}
