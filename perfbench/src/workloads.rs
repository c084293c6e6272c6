//! The four named workloads and one measured scenario through a real
//! driver.
//!
//! A *scenario* builds a driver from its seed (timed as set-up), runs it
//! to completion (timed as the run), and folds the run summary into an
//! [`Outcome`]: simulated metrics that must repeat exactly for a seed,
//! host timings, and the correctness gate's findings.

use crate::host::{self, HostClock, Paced, SharedClock};
use crate::seam::{SeamLog, SeamTracer, SharedLog};
use flexsched_orchestrator::database::TaskPhase;
use flexsched_orchestrator::{
    AdmissionConfig, ClassBucket, DagEventTestbed, DagTestbedConfig, DagTopology, Database,
    EventTestbed, MemoryMode, PlaneConfig, RepairScope, RunSummary, ShardedDb, TestbedConfig,
};
use flexsched_sched::{FlexibleMst, ReschedulePolicy, Scheduler};
use flexsched_simnet::traffic::TrafficConfig;
use flexsched_simnet::SimTime;
use flexsched_task::{
    AiJob, DagConfig, JobStream, ServiceClass, WorkloadConfig, PRODUCTION_CLASS_MIX,
};
use flexsched_topo::builders::{fat_tree, MetroParams};
use std::collections::BTreeMap;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The poster's 6-ROADM metro at ~35% load, single-lock plane.
    MetroPaper,
    /// A 16-ROADM metro, 16 locals per task, on the 4-shard commit plane.
    WideSharded,
    /// The paper metro at ~2x capacity behind the admission gate, with
    /// background traffic, link faults and rescheduling.
    MetroStorm,
    /// Stage-DAG jobs on a k=8 fat-tree under a two-second-outage storm.
    DagFattree,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::MetroPaper,
        Workload::WideSharded,
        Workload::MetroStorm,
        Workload::DagFattree,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroPaper => "metro-paper",
            Workload::WideSharded => "wide-sharded",
            Workload::MetroStorm => "metro-storm",
            Workload::DagFattree => "dag-fattree",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Tasks per scenario on the metro workloads, chosen so one scenario
/// takes four to six host seconds on a 2-core x86-64 container.
const METRO_PAPER_TASKS: usize = 40_000;
const WIDE_SHARDED_TASKS: usize = 3_200;
const METRO_STORM_TASKS: usize = 3_700;
/// `dag-fattree` runs independently seeded batches: `DagCore::new`
/// pre-admits every job's containers, so one k=8 fat-tree scenario fails
/// with `ServerFull` somewhere below 150 jobs.
const DAG_JOBS_PER_BATCH: usize = 100;
/// The `dag-fattree` fabric: a k=8 fat-tree of 400 Gbit/s links.
pub const DAG_FAT_TREE_K: usize = 8;
/// See [`DAG_FAT_TREE_K`].
pub const DAG_LINK_GBPS: f64 = 400.0;
const DAG_BATCHES: u64 = 18;

/// metro-storm's design (1x) inter-arrival gap; it is offered twice that
/// rate, with the gate's buckets sized to the 1x rate.
const STORM_1X_INTERARRIVAL_NS: u64 = 16_000_000;

/// Per-seed stream separation: every random source of a workload gets
/// its own seed derived from the benchmark seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The event-testbed scenario of a metro workload.
pub fn metro_config(w: Workload, seed: u64) -> TestbedConfig {
    let open_ended = SimTime::from_secs(1_000_000);
    match w {
        Workload::MetroPaper => TestbedConfig {
            workload: WorkloadConfig {
                num_tasks: METRO_PAPER_TASKS,
                locals_per_task: 4,
                mean_interarrival_ns: 10_000_000,
                seed,
                ..WorkloadConfig::default()
            },
            horizon: open_ended,
            ..TestbedConfig::default()
        },
        Workload::WideSharded => TestbedConfig {
            metro: MetroParams {
                core_roadms: 16,
                core_wavelengths: 16,
                servers_per_router: 8,
                chords: 4,
                ..MetroParams::default()
            },
            workload: WorkloadConfig {
                num_tasks: WIDE_SHARDED_TASKS,
                locals_per_task: 16,
                mean_interarrival_ns: 10_000_000,
                seed,
                ..WorkloadConfig::default()
            },
            plane: PlaneConfig::Sharded { shards: 4 },
            horizon: open_ended,
            ..TestbedConfig::default()
        },
        Workload::MetroStorm => {
            let interarrival = STORM_1X_INTERARRIVAL_NS / 2;
            // Background traffic re-arms itself forever, so the horizon
            // is the arrival window plus room for the last tasks to drain.
            let horizon = SimTime::from_ns(interarrival * METRO_STORM_TASKS as u64 * 11 / 10)
                + SimTime::from_secs(5);
            let rate_1x = 1e9 / STORM_1X_INTERARRIVAL_NS as f64;
            // A shallow queue watermark, so the storm also drives the
            // gate into degraded mode (the cheap fixed-tree scheduler).
            let gate = AdmissionConfig {
                queue_high: 16,
                queue_low: 8,
                ..AdmissionConfig::default()
            }
            .with_bucket(
                ServiceClass::Standard,
                ClassBucket {
                    rate_per_sec: 0.6 * rate_1x,
                    burst: 8.0,
                },
            )
            .with_bucket(
                ServiceClass::BestEffort,
                ClassBucket {
                    rate_per_sec: 0.3 * rate_1x,
                    burst: 4.0,
                },
            );
            TestbedConfig {
                workload: WorkloadConfig {
                    num_tasks: METRO_STORM_TASKS,
                    locals_per_task: 8,
                    mean_interarrival_ns: interarrival,
                    class_mix: PRODUCTION_CLASS_MIX,
                    seed,
                    ..WorkloadConfig::default()
                },
                traffic: Some(TrafficConfig {
                    mean_rate_gbps: 8.0,
                    seed: derive(seed, 1),
                    ..TrafficConfig::default()
                }),
                fault_count: (horizon.as_secs_f64() * 10.0) as usize,
                fault_seed: derive(seed, 2),
                mean_repair: SimTime::from_ms(200),
                reschedule: Some(ReschedulePolicy::default()),
                admission: Some(gate),
                horizon,
                ..TestbedConfig::default()
            }
        }
        Workload::DagFattree => unreachable!("dag-fattree runs the DAG driver"),
    }
}

/// The DAG scenario of batch `batch` of `dag-fattree`.
pub fn dag_config(seed: u64, batch: u64) -> DagTestbedConfig {
    let batch_seed = derive(seed, 100 + batch);
    DagTestbedConfig {
        topology: DagTopology::FatTree {
            k: DAG_FAT_TREE_K,
            link_gbps: DAG_LINK_GBPS,
        },
        // One model family: the catalogue's small models give makespans
        // tens of times apart, and a batch median would flip between the
        // two modes from seed to seed. Jobs arrive across the whole outage
        // window, so every job meets the same outage density instead of a
        // burst of jobs meeting whichever outages land early.
        workload: WorkloadConfig {
            model_mix: vec![1],
            mean_interarrival_ns: 500_000_000,
            ..WorkloadConfig::seeded_scenario(batch_seed, 8, 5)
        },
        dag: DagConfig {
            num_jobs: DAG_JOBS_PER_BATCH,
            ..DagConfig::default()
        },
        fault_count: 150,
        fault_seed: derive(batch_seed, 3),
        fault_window: Some(SimTime::from_secs(60)),
        mean_repair: SimTime::from_secs(2),
        reschedule: Some(ReschedulePolicy::default()),
        repair_scope: RepairScope::Stage,
        horizon: SimTime::from_secs(3_600),
        ..DagTestbedConfig::default()
    }
}

/// The jobs one DAG batch offers, regenerated from its seed (untimed;
/// the driver draws the identical stream).
pub fn dag_jobs(cfg: &DagTestbedConfig) -> Vec<AiJob> {
    let topo = fat_tree(DAG_FAT_TREE_K, DAG_LINK_GBPS);
    JobStream::new(&topo, &cfg.workload, cfg.dag.clone()).collect()
}

/// One scenario's results.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Work units offered: tasks, or stages on `dag-fattree`.
    pub offered_units: u64,
    /// Tasks (jobs on `dag-fattree`) offered and completed.
    pub offered: u64,
    /// See [`Outcome::offered`].
    pub completed: u64,
    /// Tasks or stages that were started (committed at admission).
    pub started: u64,
    /// Simulated time-in-system tails (job makespan on `dag-fattree`), ns.
    pub sojourn_p50_ns: f64,
    /// See [`Outcome::sojourn_p50_ns`].
    pub sojourn_p99_ns: f64,
    /// Simulated arrival-to-service tail, ns. On `dag-fattree`: the mean
    /// critical-path wait per completed job (the driver keeps no per-job
    /// queueing samples).
    pub queueing_p99_ns: f64,
    /// Mean per-iteration latency over committed schedules, ms.
    pub iteration_ms_mean: f64,
    /// Summed Fig-3b bandwidth of every committed schedule, Gbit/s.
    pub task_bandwidth_gbps: f64,
    /// Simulation events processed.
    pub events: u64,
    /// Peak pending events in the engine heap (0 where not reported).
    pub peak_pending: u64,
    /// Driver counters, straight from the run summary.
    pub retries: u64,
    /// See [`Outcome::retries`].
    pub migrations: u64,
    /// See [`Outcome::retries`].
    pub repairs: u64,
    /// See [`Outcome::retries`].
    pub shed: u64,
    /// See [`Outcome::retries`].
    pub degraded: u64,
    /// Critical-class shed verdicts at the admission gate.
    pub shed_critical: u64,
    /// Grooming: lightpath reuses and newly lit wavelengths.
    pub groom_reuse: u64,
    /// See [`Outcome::groom_reuse`].
    pub groom_new: u64,
    /// Lightpaths still lit once the run has drained.
    pub lightpaths_live_end: u64,
    /// Gang commits and rejections (`dag-fattree` only).
    pub gang_commits: u64,
    /// See [`Outcome::gang_commits`].
    pub gang_rejections: u64,
    /// Mean simulated concurrency of committed schedules — the replay's
    /// in-flight window.
    pub mean_concurrency: f64,
    /// FNV-1a fold of every simulated quantity above.
    pub fingerprint: u64,
    /// Correctness-gate findings; empty means the scenario is correct.
    pub violations: Vec<String>,
    /// Reference seconds (see `host.rs`) to build the driver(s): median
    /// of repeated builds on a metro workload, their sum on `dag-fattree`.
    pub setup_s: f64,
    /// Host seconds inside the driver's run call(s), the reference
    /// solves of a [`Mode::Timed`] run excluded.
    pub run_s: f64,
    /// The same driver time in reference seconds; [`Mode::Timed`] only.
    pub run_reference_s: f64,
    /// The seam's log when the scenario was traced.
    pub seam: Option<SeamLog>,
}

impl Outcome {
    fn fold_fingerprint(&mut self) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for v in [
            self.offered_units,
            self.offered,
            self.completed,
            self.started,
            self.sojourn_p50_ns.to_bits(),
            self.sojourn_p99_ns.to_bits(),
            self.queueing_p99_ns.to_bits(),
            self.iteration_ms_mean.to_bits(),
            self.task_bandwidth_gbps.to_bits(),
            self.events,
            self.peak_pending,
            self.retries,
            self.migrations,
            self.repairs,
            self.shed,
            self.degraded,
            self.shed_critical,
            self.groom_reuse,
            self.groom_new,
            self.lightpaths_live_end,
            self.gang_commits,
            self.gang_rejections,
        ] {
            fold(v);
        }
        self.fingerprint = h;
    }
}

/// How many times a metro scenario rebuilds its driver to time set-up
/// (the median is reported). A `dag-fattree` scenario already builds one driver
/// per batch and reports their sum.
const METRO_SETUP_REPEATS: usize = 51;

/// How a scenario's driver run is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end timing: the host clock paces the run (see `host.rs`).
    Timed,
    /// The bare scheduler, nothing in front of it.
    Plain,
    /// The seam tracer in front of the scheduler.
    Traced,
}

/// The policy under test, the paper scheduler, as `mode` observes it.
fn policy(mode: Mode) -> (Box<dyn Scheduler>, Option<SharedLog>, Option<SharedClock>) {
    match mode {
        Mode::Timed => {
            let (paced, clock) = Paced::paper();
            (Box::new(paced), None, Some(clock))
        }
        Mode::Plain => (Box::new(FlexibleMst::paper()), None, None),
        Mode::Traced => {
            let (tracer, log) = SeamTracer::paper();
            (Box::new(tracer), Some(log), None)
        }
    }
}

/// Run a driver, timed: raw host seconds, and reference seconds when a
/// host clock paces it.
fn timed_run<R>(clock: Option<&SharedClock>, run: impl FnOnce() -> R) -> (R, f64, f64) {
    let Some(clock) = clock else {
        let t0 = Instant::now();
        let out = run();
        return (out, t0.elapsed().as_secs_f64(), 0.0);
    };
    let slot = || clock.lock().expect("host clock holder panicked");
    *slot() = Some(HostClock::start());
    let out = run();
    let t = slot()
        .take()
        .expect("the clock stays installed for the run")
        .finish();
    (out, t.raw_s, t.reference_s)
}

/// Lightpaths lit on a plane's authoritative optical state.
fn lit_lightpaths(db: &Database, sharded: Option<&ShardedDb>) -> u64 {
    match sharded {
        None => db.read(|_, opt, _| opt.lightpath_count() as u64),
        Some(sdb) => (0..sdb.shard_count())
            .map(|s| sdb.read_shard(s, |sh| sh.optical.lightpath_count() as u64))
            .sum(),
    }
}

/// Reserved task bandwidth left on a plane's authoritative state.
fn reserved_left(db: &Database, sharded: Option<&ShardedDb>) -> f64 {
    match sharded {
        None => db.total_reserved_gbps(),
        Some(sdb) => sdb.total_reserved_gbps(),
    }
}

/// Run one scenario of `w` for `seed`, observed as `mode` says.
pub fn run_scenario(w: Workload, seed: u64, mode: Mode) -> Outcome {
    match w {
        Workload::DagFattree => run_dag_scenario(seed, mode),
        _ => run_metro_scenario(w, seed, mode),
    }
}

fn run_metro_scenario(w: Workload, seed: u64, mode: Mode) -> Outcome {
    let cfg = metro_config(w, seed);
    let ((tb, log, clock), setup_s) = host::timed_builds(METRO_SETUP_REPEATS, || {
        let (sched, log, clock) = policy(mode);
        let tb = EventTestbed::new(cfg.clone(), sched).with_memory_mode(MemoryMode::Bounded);
        (tb, log, clock)
    });
    let db = tb.database().clone();
    let sharded = tb.sharded_db();
    let (run, run_s, run_reference_s) = timed_run(clock.as_ref(), || tb.run_detailed(false));
    let mut o = Outcome {
        setup_s,
        run_s,
        run_reference_s,
        offered_units: cfg.workload.num_tasks as u64,
        offered: cfg.workload.num_tasks as u64,
        ..Outcome::default()
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            o.violations.push(format!("driver error: {e}"));
            return o;
        }
    };
    let s = &run.summary;
    let soj = s.sojourn.expect("event runs report sojourn");
    o.completed = soj.completed;
    o.started = soj.completed;
    o.sojourn_p50_ns = soj.sojourn_p50_ns as f64;
    o.sojourn_p99_ns = soj.sojourn_p99_ns as f64;
    o.queueing_p99_ns = soj.queueing_p99_ns as f64;
    o.peak_pending = run.peak_pending_events as u64;
    o.shed_critical = s
        .admission
        .as_ref()
        .map_or(0, |a| a.shed[ServiceClass::Critical.index()]);
    add_summary(&mut o, s);
    o.iteration_ms_mean = s.mean_iteration_ms;
    // Little's law over the service part of the sojourn.
    let service_ns = (soj.sojourn_mean_ns - soj.queueing_mean_ns).max(0.0);
    o.mean_concurrency = soj.completed as f64 * service_ns / s.duration.as_ns().max(1) as f64;

    let terminal = soj.completed + u64::from(s.blocked) + u64::from(s.shed);
    if terminal != o.offered {
        o.violations.push(format!(
            "{terminal} of {} offered tasks reached a terminal outcome",
            o.offered
        ));
    }
    check_drained(&mut o, &db, sharded.as_ref(), false);
    o.lightpaths_live_end = lit_lightpaths(&db, sharded.as_ref());
    o.seam = log.map(|l| l.lock().expect("seam log holder panicked").clone());
    o.fold_fingerprint();
    o
}

/// Add one run summary's counters to `o` (a `dag-fattree` scenario adds
/// one per batch).
fn add_summary(o: &mut Outcome, s: &RunSummary) {
    o.task_bandwidth_gbps += s.sum_task_bandwidth_gbps;
    o.events += s.events;
    o.retries += u64::from(s.retries);
    o.migrations += u64::from(s.reschedules);
    o.repairs += u64::from(s.repairs);
    o.shed += u64::from(s.shed);
    o.degraded += u64::from(s.degraded_decisions);
    o.groom_reuse += s.groom_reuse_hits;
    o.groom_new += s.groom_new_lights;
}

/// The drain half of the correctness gate: no reservation and no
/// per-task ledger entry outlives the run. The DAG driver retains its
/// task records and frees a stage's containers only when the stage
/// completes (see [`check_dag_containers`]), so `retain_mode` exempts
/// exactly those two kinds of entry.
fn check_drained(o: &mut Outcome, db: &Database, sharded: Option<&ShardedDb>, retain_mode: bool) {
    let left = reserved_left(db, sharded);
    if left.abs() > 1e-6 {
        o.violations
            .push(format!("{left} Gbit/s still reserved after the run"));
    }
    let leftovers: Vec<String> = db
        .ledger_leftovers()
        .into_iter()
        .filter(|l| {
            !(retain_mode && (l.starts_with("task record") || l.ends_with("placed on the cluster")))
        })
        .collect();
    if let Some(first) = leftovers.first() {
        o.violations.push(format!(
            "{} ledger leftovers after the run (first: {first})",
            leftovers.len()
        ));
    }
}

fn run_dag_scenario(seed: u64, mode: Mode) -> Outcome {
    let mut o = Outcome::default();
    let mut makespan_p50 = Vec::new();
    let mut makespan_p99 = Vec::new();
    let mut iter_weighted = 0.0;
    let mut log_sum: Option<SeamLog> = (mode == Mode::Traced).then(SeamLog::default);
    let mut duration_ns = 0u64;
    let mut busy_ns = 0u64;
    let mut queueing_sum_ns = 0.0;
    for batch in 0..DAG_BATCHES {
        let cfg = dag_config(seed, batch);
        let jobs = dag_jobs(&cfg);
        let offered_jobs = jobs.len() as u64;
        o.offered += offered_jobs;
        o.offered_units += jobs.iter().map(|j| j.stages.len() as u64).sum::<u64>();
        let ((tb, log, clock), setup_s) = host::timed_builds(1, || {
            let (sched, log, clock) = policy(mode);
            let tb = DagEventTestbed::new(cfg.clone(), sched).expect("dag scenario builds");
            (tb, log, clock)
        });
        o.setup_s += setup_s;
        let db = tb.database().clone();
        let (run, run_s, run_reference_s) = timed_run(clock.as_ref(), || tb.run());
        o.run_s += run_s;
        o.run_reference_s += run_reference_s;
        let s = match run {
            Ok(s) => s,
            Err(e) => {
                o.violations
                    .push(format!("batch {batch}: driver error: {e}"));
                continue;
            }
        };
        let d = s.dag.expect("dag driver reports DagStats");
        if d.jobs != offered_jobs || d.jobs_completed + d.jobs_shed != d.jobs {
            o.violations.push(format!(
                "batch {batch}: {} completed + {} shed of {} arrived, {offered_jobs} offered",
                d.jobs_completed, d.jobs_shed, d.jobs
            ));
        }
        check_dag_containers(&mut o, &db, &jobs, batch);
        // Critical-path queueing: a completed job's makespan minus its
        // ideal critical path under the admission-time stage durations
        // (exactly the driver's inflation baseline) is the time its
        // critical path spent waiting for gang admission.
        let ideal: BTreeMap<u64, u64> =
            s.reports.iter().map(|r| (r.task.0, r.total_ns())).collect();
        let ideal_sum: u64 = jobs
            .iter()
            .filter(|j| job_completed(&db, j))
            .map(|j| {
                j.critical_path_ns(|sid| {
                    ideal
                        .get(&j.stages[sid as usize].task.id.0)
                        .copied()
                        .unwrap_or(0)
                })
            })
            .sum();
        queueing_sum_ns += d.makespan_mean_ns * d.jobs_completed as f64 - ideal_sum as f64;
        o.completed += d.jobs_completed;
        o.started += d.stages_committed;
        o.gang_commits += d.gang_commits;
        o.gang_rejections += d.gang_rejections;
        makespan_p50.push(d.makespan_p50_ns as f64);
        makespan_p99.push(d.makespan_p99_ns as f64);
        iter_weighted += s.mean_iteration_ms * s.reports.len() as f64;
        busy_ns += s.reports.iter().map(|r| r.total_ns()).sum::<u64>();
        duration_ns += s.duration.as_ns();
        add_summary(&mut o, &s);
        check_drained(&mut o, &db, None, true);
        o.lightpaths_live_end += lit_lightpaths(&db, None);
        if let (Some(sum), Some(log)) = (log_sum.as_mut(), log) {
            sum.absorb(&log.lock().expect("seam log holder panicked"));
        }
    }
    // The driver exports per-batch quantiles only; their mean over the
    // scenario's batches is the steadier estimate of the job-level tail.
    o.sojourn_p50_ns = makespan_p50.iter().sum::<f64>() / makespan_p50.len().max(1) as f64;
    o.sojourn_p99_ns = makespan_p99.iter().sum::<f64>() / makespan_p99.len().max(1) as f64;
    o.queueing_p99_ns = queueing_sum_ns / o.completed.max(1) as f64;
    o.iteration_ms_mean = iter_weighted / o.started.max(1) as f64;
    o.mean_concurrency = busy_ns as f64 / duration_ns.max(1) as f64;
    o.seam = log_sum;
    o.fold_fingerprint();
    o
}

/// Whether every stage of `job` completed.
fn job_completed(db: &Database, job: &AiJob) -> bool {
    job.stages
        .iter()
        .all(|st| matches!(db.task(st.task.id), Ok((_, TaskPhase::Completed))))
}

/// The DAG driver pre-admits every stage's containers and frees them when
/// the stage completes, so after the run exactly the containers of
/// never-completed stages (those of shed jobs) may remain placed — one
/// global plus one per local site. Any other count is a leak or a double
/// free, and no stage may still be running.
fn check_dag_containers(o: &mut Outcome, db: &Database, jobs: &[AiJob], batch: u64) {
    let mut expected = 0usize;
    for st in jobs.iter().flat_map(|j| &j.stages) {
        match db.task(st.task.id) {
            Ok((_, TaskPhase::Completed)) => {}
            Ok((_, TaskPhase::Running)) => o.violations.push(format!(
                "batch {batch}: stage task {:?} still running",
                st.task.id
            )),
            _ => expected += 1 + st.task.local_sites.len(),
        }
    }
    let placed = db.read(|_, _, cluster| cluster.container_count());
    if placed != expected {
        o.violations.push(format!(
            "batch {batch}: {placed} containers placed after the run, {expected} expected"
        ));
    }
}
