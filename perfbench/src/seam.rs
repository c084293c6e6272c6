//! The scheduler-seam tracer: a [`Scheduler`] wrapper that times every
//! call the drivers make through their `Box<dyn Scheduler>`.
//!
//! Every driver takes its policy as a trait object, so wrapping
//! [`FlexibleMst::paper`] here measures the sched layer (and, through
//! the scratch pool's closure counters, the topo layer under it) inside
//! the real run without touching driver code. Calls the drivers route
//! elsewhere are invisible to the seam: degraded decisions go straight to
//! the driver's own `FixedSpff`, so they are counted from the run
//! summary's `degraded_decisions` instead.

use flexsched_sched::{
    FlexibleMst, NetworkSnapshot, Proposal, RepairProposal, SchedError, Schedule, Scheduler,
};
use flexsched_task::AiTask;
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::NodeId;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything the seam observed during one driver run.
#[derive(Debug, Default, Clone)]
pub struct SeamLog {
    /// Duration of every `propose` call, ns.
    pub propose_ns: Vec<u64>,
    /// Duration of every `propose` call that returned `Ok`, ns.
    pub propose_ok_ns: Vec<u64>,
    /// `propose` calls that returned `Blocked` or `Unreachable` — work
    /// the driver throws away and retries later.
    pub propose_wasted: u64,
    /// Duration of every `propose_repair` call, ns.
    pub repair_ns: Vec<u64>,
    /// `estimate_fresh_cost` calls and their summed duration, ns.
    pub estimate_calls: u64,
    /// Summed `estimate_fresh_cost` time, ns.
    pub estimate_total_ns: u64,
    /// Closure-cache hits, incremental repairs and full passes, summed
    /// from `ScratchPool::closure_stats` deltas around each call.
    pub closure_hits: u64,
    /// See [`SeamLog::closure_hits`].
    pub closure_repairs: u64,
    /// See [`SeamLog::closure_hits`].
    pub closure_full: u64,
}

impl SeamLog {
    /// Summed `propose` time, ns.
    pub fn propose_total_ns(&self) -> u64 {
        self.propose_ns.iter().sum()
    }

    /// Summed `propose_repair` time, ns.
    pub fn repair_total_ns(&self) -> u64 {
        self.repair_ns.iter().sum()
    }

    /// Append another run's observations (one per `dag-fattree` batch).
    pub fn absorb(&mut self, other: &SeamLog) {
        self.propose_ns.extend_from_slice(&other.propose_ns);
        self.propose_ok_ns.extend_from_slice(&other.propose_ok_ns);
        self.propose_wasted += other.propose_wasted;
        self.repair_ns.extend_from_slice(&other.repair_ns);
        self.estimate_calls += other.estimate_calls;
        self.estimate_total_ns += other.estimate_total_ns;
        self.closure_hits += other.closure_hits;
        self.closure_repairs += other.closure_repairs;
        self.closure_full += other.closure_full;
    }
}

/// Shared handle on a [`SeamLog`]; the tracer writes, the benchmark reads
/// after the driver returns.
pub type SharedLog = Arc<Mutex<SeamLog>>;

/// The paper's flexible scheduler behind a timing wrapper.
pub struct SeamTracer {
    inner: FlexibleMst,
    log: SharedLog,
}

impl SeamTracer {
    /// Wrap [`FlexibleMst::paper`]; returns the tracer and the handle its
    /// log is read through.
    pub fn paper() -> (Self, SharedLog) {
        let log = SharedLog::default();
        (
            SeamTracer {
                inner: FlexibleMst::paper(),
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn with_log(&self, f: impl FnOnce(&mut SeamLog)) {
        f(&mut self.log.lock().expect("seam log holder panicked"));
    }
}

fn closure_counts(scratch: &ScratchPool) -> (u64, u64, u64) {
    let s = scratch.closure_stats();
    (s.hits, s.repairs, s.full_solves)
}

impl Scheduler for SeamTracer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> flexsched_sched::Result<Proposal> {
        let before = closure_counts(scratch);
        let t0 = Instant::now();
        let out = self.inner.propose(task, selected, snapshot, scratch);
        let ns = t0.elapsed().as_nanos() as u64;
        let after = closure_counts(scratch);
        self.with_log(|log| {
            log.propose_ns.push(ns);
            match &out {
                Ok(_) => log.propose_ok_ns.push(ns),
                Err(SchedError::Blocked { .. }) | Err(SchedError::Unreachable { .. }) => {
                    log.propose_wasted += 1
                }
                Err(_) => {}
            }
            log.closure_hits += after.0 - before.0;
            log.closure_repairs += after.1 - before.1;
            log.closure_full += after.2 - before.2;
        });
        out
    }

    fn propose_repair(
        &self,
        task: &AiTask,
        current: &Schedule,
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> flexsched_sched::Result<Option<RepairProposal>> {
        let t0 = Instant::now();
        let out = self.inner.propose_repair(task, current, snapshot, scratch);
        let ns = t0.elapsed().as_nanos() as u64;
        self.with_log(|log| log.repair_ns.push(ns));
        out
    }

    fn estimate_fresh_cost(
        &self,
        task: &AiTask,
        current: &Schedule,
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> flexsched_sched::Result<Option<f64>> {
        let t0 = Instant::now();
        let out = self
            .inner
            .estimate_fresh_cost(task, current, snapshot, scratch);
        let ns = t0.elapsed().as_nanos() as u64;
        self.with_log(|log| {
            log.estimate_calls += 1;
            log.estimate_total_ns += ns;
        });
        out
    }
}
