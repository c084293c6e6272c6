//! The decision replay: a closed loop over a workload's fabric and task
//! stream that calls the public orchestrator, optical and sched entry
//! points the drivers keep private, with a span around each call.
//!
//! Each decision runs the drivers' pipeline step by step — read the
//! database and capture a `NetworkSnapshot` while selecting local sites,
//! propose, commit through the workload's `CommitPlane` (gang commits on
//! `dag-fattree`), evaluate the committed schedule, and release the
//! oldest schedule once more than `window` are in flight. The window is
//! the driver run's mean concurrency, so the replay decides against a
//! fabric about as loaded as the driver's. The replay has no clock,
//! faults, background traffic or admission gate: it prices one call of
//! each phase, and the benchmark scales those prices by the driver's
//! call counts.

use crate::workloads::{
    dag_config, dag_jobs, metro_config, Workload, DAG_FAT_TREE_K, DAG_LINK_GBPS,
};
use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_orchestrator::{CommitPlane, Database, Intent, OrchError, PlaneConfig, Validation};
use flexsched_sched::{
    evaluate_schedule, FlexibleMst, NetworkSnapshot, Proposal, Scheduler, SelectionStrategy,
};
use flexsched_simnet::{NetworkState, Transport};
use flexsched_task::{AiTask, TaskId, WorkloadStream};
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::builders::{fat_tree, metro};
use flexsched_topo::{NodeId, Topology};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-call durations (ns) of every replayed phase, plus outcome counts.
#[derive(Debug, Default, Clone)]
pub struct ReplayLog {
    /// Database read + snapshot capture + local-site selection.
    pub snapshot_ns: Vec<u64>,
    /// `Scheduler::propose`, successful calls only.
    pub propose_ok_ns: Vec<u64>,
    /// `CommitPlane::apply` (admission intents).
    pub commit_ns: Vec<u64>,
    /// `CommitPlane::apply_gang`.
    pub gang_ns: Vec<u64>,
    /// `evaluate_schedule` under a database read.
    pub evaluate_ns: Vec<u64>,
    /// `CommitPlane::release`.
    pub release_ns: Vec<u64>,
    /// Commits (or gang commits) rejected by validation.
    pub commit_rejects: u64,
    /// See [`ReplayLog::commit_rejects`].
    pub gang_rejects: u64,
    /// Correctness findings (an unexpected error, or reservations left
    /// behind once every replayed schedule was released).
    pub violations: Vec<String>,
}

fn timed<R>(sink: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = black_box(f());
    sink.push(t0.elapsed().as_nanos() as u64);
    out
}

/// The live state one replay decides against.
struct Fabric {
    db: Database,
    plane: CommitPlane,
    scheduler: FlexibleMst,
    scratch: ScratchPool,
    selection: SelectionStrategy,
    transport: Transport,
    /// Committed schedules in commit order: (task, groomed demand ids).
    in_flight: VecDeque<(TaskId, Vec<u64>)>,
    window: usize,
    log: ReplayLog,
}

impl Fabric {
    fn new(topo: Topology, plane: PlaneConfig, window: usize) -> Self {
        let topo = Arc::new(topo);
        let db = Database::new(
            NetworkState::new(Arc::clone(&topo)),
            OpticalState::new(Arc::clone(&topo)),
            ClusterManager::from_topology(&topo, ServerSpec::default()),
        );
        Fabric {
            plane: CommitPlane::new(plane, &topo),
            db,
            scheduler: FlexibleMst::paper(),
            scratch: ScratchPool::new(),
            selection: SelectionStrategy::All,
            transport: Transport::tcp(),
            in_flight: VecDeque::new(),
            window: window.max(1),
            log: ReplayLog::default(),
        }
    }

    /// Snapshot + selection for a group of tasks under one read.
    fn snapshot(&mut self, tasks: &[AiTask]) -> (Vec<Vec<NodeId>>, NetworkSnapshot) {
        let (plane, db, selection) = (&self.plane, &self.db, &self.selection);
        timed(&mut self.log.snapshot_ns, || {
            plane.read_state(db, |net, opt, _| {
                (
                    tasks.iter().map(|t| selection.select(t, net)).collect(),
                    NetworkSnapshot::capture(net).with_optical(opt),
                )
            })
        })
    }

    fn propose(
        &mut self,
        task: &AiTask,
        selected: &[NodeId],
        snap: &NetworkSnapshot,
    ) -> Option<Proposal> {
        if selected.is_empty() {
            return None;
        }
        let t0 = Instant::now();
        let proposal = self
            .scheduler
            .propose(task, selected, snap, &mut self.scratch)
            .ok()?;
        self.log.propose_ok_ns.push(t0.elapsed().as_nanos() as u64);
        Some(proposal)
    }

    fn evaluate(&mut self, task: &AiTask, proposal: &Proposal) {
        let (plane, db, transport) = (&self.plane, &self.db, &self.transport);
        let report = timed(&mut self.log.evaluate_ns, || {
            plane.read_state(db, |net, _, cluster| {
                evaluate_schedule(task, &proposal.schedule, net, cluster, transport)
            })
        });
        if let Err(e) = report {
            self.log
                .violations
                .push(format!("evaluate of a committed schedule failed: {e}"));
        }
    }

    /// Admit `task` through snapshot → propose → commit → evaluate.
    fn decide(&mut self, task: &AiTask) {
        let (selected, snap) = self.snapshot(std::slice::from_ref(task));
        let Some(proposal) = self.propose(task, &selected[0], &snap) else {
            return;
        };
        let (plane, db) = (&mut self.plane, &self.db);
        let receipt = timed(&mut self.log.commit_ns, || {
            plane.apply(db, Intent::admit(&proposal))
        });
        match receipt {
            Ok(r) => {
                self.evaluate(task, &proposal);
                self.in_flight.push_back((task.id, r.groomed));
            }
            Err(OrchError::Rejected(_)) => self.log.commit_rejects += 1,
            Err(e) => self.log.violations.push(format!("commit failed: {e}")),
        }
        self.trim(self.window);
    }

    /// Gang-admit `tasks` (one job's root frontier) all-or-nothing.
    fn decide_gang(&mut self, tasks: &[AiTask]) {
        let (selections, snap) = self.snapshot(tasks);
        let mut proposals = Vec::with_capacity(tasks.len());
        for (task, selected) in tasks.iter().zip(&selections) {
            match self.propose(task, selected, &snap) {
                Some(p) => proposals.push(p),
                None => return,
            }
        }
        let refs: Vec<&Proposal> = proposals.iter().collect();
        let (plane, db) = (&mut self.plane, &self.db);
        let receipts = timed(&mut self.log.gang_ns, || {
            plane.apply_gang(db, &refs, Validation::Fit)
        });
        match receipts {
            Ok(receipts) => {
                for ((task, proposal), r) in tasks.iter().zip(&proposals).zip(receipts) {
                    self.evaluate(task, proposal);
                    self.in_flight.push_back((task.id, r.groomed));
                }
            }
            Err(OrchError::GangRejected(_)) => self.log.gang_rejects += 1,
            Err(e) => self.log.violations.push(format!("gang commit failed: {e}")),
        }
        self.trim(self.window);
    }

    /// Release the oldest schedules until at most `keep` are in flight.
    fn trim(&mut self, keep: usize) {
        while self.in_flight.len() > keep {
            let (task, groomed) = self.in_flight.pop_front().expect("non-empty");
            let (plane, db) = (&mut self.plane, &self.db);
            let out = timed(&mut self.log.release_ns, || {
                plane.release(db, task, &groomed)
            });
            if let Err(e) = out {
                self.log.violations.push(format!("release failed: {e}"));
            }
        }
    }

    fn finish(mut self) -> ReplayLog {
        self.trim(0);
        let left = match self.plane.sharded() {
            Some(sdb) => sdb.total_reserved_gbps(),
            None => self.db.total_reserved_gbps(),
        };
        if left.abs() > 1e-6 {
            self.log
                .violations
                .push(format!("replay left {left} Gbit/s reserved"));
        }
        self.log
    }
}

/// Replay `decisions` admission decisions of `w` for `seed` (gang
/// decisions, one per job, on `dag-fattree`) with `window` schedules in
/// flight.
pub fn replay(w: Workload, seed: u64, window: usize, decisions: usize) -> ReplayLog {
    match w {
        Workload::DagFattree => {
            let mut jobs_left = decisions;
            let mut fabric: Option<Fabric> = None;
            let mut batch = 0;
            while jobs_left > 0 {
                let cfg = dag_config(seed, batch);
                let mut jobs = dag_jobs(&cfg);
                jobs.truncate(jobs_left);
                let f = fabric.get_or_insert_with(|| {
                    Fabric::new(fat_tree(DAG_FAT_TREE_K, DAG_LINK_GBPS), cfg.plane, window)
                });
                for job in &jobs {
                    let roots: Vec<AiTask> = job
                        .roots()
                        .into_iter()
                        .map(|s| job.stages[s as usize].task.clone())
                        .collect();
                    f.decide_gang(&roots);
                }
                // Stage task ids restart with every batch's stream.
                f.trim(0);
                jobs_left -= jobs.len();
                batch += 1;
            }
            fabric.expect("at least one batch").finish()
        }
        _ => {
            let cfg = metro_config(w, seed);
            let topo = metro(&cfg.metro);
            let stream = WorkloadStream::new(&topo, &cfg.workload);
            let mut f = Fabric::new(topo, cfg.plane, window);
            for task in stream.take(decisions) {
                f.decide(&task);
            }
            f.finish()
        }
    }
}
