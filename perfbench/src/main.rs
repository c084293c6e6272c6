//! `perfbench` — the flexsched benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload through the real drivers (`EventTestbed`,
//! `DagEventTestbed`) on one thread: a few scenarios seeded from `--seed`
//! (one per seven seconds of `--seconds`, less one), then the first
//! scenario again. Every scenario passes the correctness gate, the repeat
//! must reproduce the first bit for bit, and the run prints one JSON
//! object as its last line of output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! * `--trace 0` reports the end-to-end metrics, measured with no tracing.
//!   Their host timings are in reference seconds: every slice of driver
//!   time is scaled by a fixed reference solve timed right after it, so
//!   the figures do not follow the shared host's speed (see `host.rs`).
//! * `--trace 1` reports the per-layer metrics: the scheduler seam inside
//!   the driver (see `seam.rs`), the decision replay (see `replay.rs`),
//!   the run summary's layer counters, a bare simcore dispatch probe and
//!   a fixed host-speed probe.
//!
//! A scenario that fails the gate makes the run report no numbers and
//! exit with code 1. See `NOTES.md` beside this crate for the workloads and
//! the meaning of every metric.

mod host;
mod replay;
mod seam;
mod stats;
mod workloads;

use stats::{mean, median, quantile, ratio};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{run_scenario, Mode, Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports: the gate's verdict and, when it passed, metrics.
struct Report {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Fold one scenario into the gate: its units count as attempted, and
    /// a scenario with findings fails all of them.
    fn gate(&mut self, o: &Outcome) {
        self.attempted += o.offered_units;
        if !o.violations.is_empty() {
            self.failed += o.offered_units;
            self.violations.extend(o.violations.iter().cloned());
        }
    }

    /// Every run of one scenario seed must agree on every simulated
    /// quantity.
    fn gate_determinism(&mut self, runs: &[&Outcome]) {
        if let Some(first) = runs.first() {
            for (i, p) in runs.iter().enumerate().skip(1) {
                if p.fingerprint != first.fingerprint {
                    self.violations.push(format!(
                        "run {i} fingerprint {:#018x} differs from run 0 {:#018x}",
                        p.fingerprint, first.fingerprint
                    ));
                    self.failed += p.offered_units;
                }
            }
        }
    }

    fn to_json(&self) -> String {
        let correct = self.violations.is_empty();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            for (i, m) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                write!(
                    out,
                    "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
                .expect("writing to a String cannot fail");
            }
        }
        out.push_str("}}");
        out
    }
}

/// Seconds of the budget per scenario. A scenario takes four to six host
/// seconds on a 2-core x86-64 container, so a run measures one scenario
/// per this many seconds, less one for the determinism repeat, and keeps
/// a margin for the host's slow phases.
const SCENARIO_SECONDS: u64 = 7;

/// The scenarios a run of `seconds` measures: independently seeded, so
/// the simulated metrics average over several seeds' worth of arrivals,
/// outages and traffic. The count depends on `--seconds` alone, so every
/// simulated metric is a function of (seed, seconds).
fn scenario_seeds(seed: u64, seconds: u64) -> Vec<u64> {
    let count = (seconds / SCENARIO_SECONDS).saturating_sub(1).max(1);
    (0..count)
        .map(|i| workloads::derive(seed, 1_000 + i))
        .collect()
}

/// Peak resident set of this process, MiB (VmHWM from procfs).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end run, tracing off: every scenario once under the host
/// clock, then the first again without it, to check that a seed
/// reproduces bit for bit and that the clock's pacing changes nothing
/// simulated. Host throughput is pooled over the scenarios; simulated
/// quantiles are their means.
fn end_to_end(args: &Args) -> Report {
    let seeds = scenario_seeds(args.seed, args.seconds);
    let runs: Vec<Outcome> = seeds
        .iter()
        .map(|&s| run_scenario(args.workload, s, Mode::Timed))
        .collect();
    let repeat = run_scenario(args.workload, seeds[0], Mode::Plain);
    let mut r = Report::new();
    for o in runs.iter().chain(std::iter::once(&repeat)) {
        r.gate(o);
    }
    r.gate_determinism(&[&runs[0], &repeat]);

    let sum = |f: fn(&Outcome) -> f64| runs.iter().map(f).sum::<f64>();
    let mean_of = |f: fn(&Outcome) -> f64| sum(f) / runs.len() as f64;
    let setup: Vec<f64> = runs
        .iter()
        .chain(std::iter::once(&repeat))
        .map(|o| o.setup_s)
        .collect();
    let started = sum(|o| o.started as f64);
    let units = sum(|o| o.offered_units as f64);
    // Raw host throughput, for a reader comparing phases of the host; the
    // reported figure is in reference seconds (see `host.rs`).
    eprintln!(
        "perfbench: {:.1} units per host second, host at {:.3}x nominal speed",
        units / sum(|o| o.run_s),
        sum(|o| o.run_reference_s) / sum(|o| o.run_s)
    );
    r.push("tasks_per_s", units / sum(|o| o.run_reference_s), "1/s");
    r.push("setup_s", median(&setup), "s");
    r.push("peak_rss_mib", peak_rss_mib(), "MiB");
    r.push(
        "served_frac",
        sum(|o| o.completed as f64) / sum(|o| o.offered as f64),
        "ratio",
    );
    r.push("sojourn_p50_ms", mean_of(|o| o.sojourn_p50_ns) / 1e6, "ms");
    r.push("sojourn_p99_ms", mean_of(|o| o.sojourn_p99_ns) / 1e6, "ms");
    r.push(
        "queueing_p99_ms",
        mean_of(|o| o.queueing_p99_ns) / 1e6,
        "ms",
    );
    r.push(
        "iteration_ms_mean",
        ratio(sum(|o| o.iteration_ms_mean * o.started as f64), started),
        "ms",
    );
    r.push(
        "bandwidth_gbps_per_task",
        ratio(sum(|o| o.task_bandwidth_gbps), started),
        "Gbit/s",
    );
    r
}

/// A bare simcore engine: one component re-arming a single event, so the
/// cost per event is the engine's own dispatch and heap work.
struct Ticker {
    left: u64,
}

impl flexsched_simcore::Component for Ticker {
    fn handle(
        &mut self,
        _at: flexsched_simnet::SimTime,
        event: flexsched_simcore::Event,
        ctx: &mut flexsched_simcore::SimContext<'_>,
    ) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_self_after(flexsched_simnet::SimTime::from_ns(1_000), event);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// ns per dispatched event on the bare engine (median of 5 rounds).
fn dispatch_probe() -> f64 {
    const EVENTS: u64 = 400_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut sim = flexsched_simcore::Simulation::new();
            let id = sim.add_component("ticker", Box::new(Ticker { left: EVENTS }));
            // A few concurrent chains keep the heap non-trivial.
            for i in 0..8 {
                sim.schedule_at(
                    flexsched_simnet::SimTime::from_ns(i),
                    id,
                    flexsched_simcore::Event::RescheduleCheck,
                );
            }
            let t0 = Instant::now();
            sim.run();
            t0.elapsed().as_nanos() as f64 / sim.processed().max(1) as f64
        })
        .collect();
    median(&rounds)
}

/// µs per fixed solve of the preserved pre-refactor scheduler
/// (`flexsched_bench::baseline`) on an idle metro with 15 locals: a
/// host-speed reference that no change to the scheduler can move.
fn host_probe() -> f64 {
    use flexsched_compute::ModelProfile;
    use flexsched_task::{AiTask, TaskId};
    use flexsched_topo::builders::{metro, MetroParams};
    let topo = std::sync::Arc::new(metro(&MetroParams::default()));
    let state = flexsched_simnet::NetworkState::new(std::sync::Arc::clone(&topo));
    let servers = topo.servers();
    let task = AiTask {
        id: TaskId(0),
        model: ModelProfile::mobilenet(),
        global_site: servers[0],
        local_sites: servers[1..16].to_vec(),
        data_utility: Default::default(),
        iterations: 1,
        comm_budget_ms: 40.0,
        arrival_ns: 0,
        class: Default::default(),
    };
    let times: Vec<f64> = (0..301)
        .map(|_| {
            let t0 = Instant::now();
            let s = flexsched_bench::baseline::baseline_flexible_schedule(
                std::hint::black_box(&task),
                &task.local_sites,
                &state,
                None,
                0.0,
            );
            std::hint::black_box(s);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&times)
}

/// Decisions the replay makes: enough for stable per-call medians while
/// staying well under a second on every workload.
fn replay_decisions(w: Workload) -> usize {
    match w {
        Workload::MetroPaper => 6_000,
        Workload::WideSharded => 800,
        Workload::MetroStorm => 3_000,
        Workload::DagFattree => 300,
    }
}

/// The traced run: per-layer metrics.
fn per_layer(args: &Args) -> Report {
    let w = args.workload;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // Untraced and traced runs of the first scenario alternate, so host
    // drift lands on both sides of `trace.overhead_frac` alike; the replay
    // and probes take about a fifth of the budget.
    let seed = scenario_seeds(args.seed, args.seconds)[0];
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    loop {
        plain.push(run_scenario(w, seed, Mode::Plain));
        traced.push(run_scenario(w, seed, Mode::Traced));
        let spent = start.elapsed();
        let per_pair = spent / plain.len() as u32;
        if spent + per_pair > budget.mul_f64(0.8) {
            break;
        }
    }
    let mut r = Report::new();
    for p in plain.iter().chain(&traced) {
        r.gate(p);
    }
    r.gate_determinism(&plain.iter().chain(&traced).collect::<Vec<_>>());

    // The traced run whose wall time is the median one supplies the seam
    // figures; its run summary supplies the layer counters.
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| traced[a].run_s.total_cmp(&traced[b].run_s));
    let o = &traced[order[order.len() / 2]];
    let seam = o.seam.clone().unwrap_or_default();
    let wall_ns = o.run_s * 1e9;
    let plain_wall = median(&plain.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|p| p.run_s).collect::<Vec<_>>());

    let log = replay::replay(
        w,
        seed,
        o.mean_concurrency.round() as usize,
        replay_decisions(w),
    );
    if !log.violations.is_empty() {
        r.failed += 1;
        r.violations.extend(log.violations.iter().cloned());
    }

    // Attribute the driver's wall time: measured seam self time, plus the
    // replay's mean price per call times the driver's call count for each
    // phase the seam cannot see, plus the residual (engine dispatch, the
    // drivers' own bookkeeping, degraded decisions, ...).
    let propose_calls = seam.propose_ns.len() as f64;
    let gang_attempts = (o.gang_commits + o.gang_rejections) as f64;
    let (snapshots, commits) = if w == Workload::DagFattree {
        (o.retries as f64 + o.gang_commits as f64, 0.0)
    } else {
        (
            propose_calls + o.degraded as f64,
            seam.propose_ok_ns.len() as f64 + o.degraded as f64,
        )
    };
    let est = |samples: &[u64], calls: f64| mean(samples) * calls;
    let snapshot_ns = est(&log.snapshot_ns, snapshots);
    let commit_ns = est(&log.commit_ns, commits);
    let gang_ns = est(&log.gang_ns, gang_attempts);
    let evaluate_ns = est(&log.evaluate_ns, o.started as f64);
    let release_ns = est(&log.release_ns, o.started as f64);
    let seam_ns =
        (seam.propose_total_ns() + seam.repair_total_ns() + seam.estimate_total_ns) as f64;
    let residual_ns =
        wall_ns - seam_ns - snapshot_ns - commit_ns - gang_ns - evaluate_ns - release_ns;
    let share = |ns: f64| ratio(ns, wall_ns);
    let us = |samples: &[u64], q: f64| quantile(samples, q) / 1e3;
    let per_unit = |v: u64| ratio(v as f64, o.offered_units as f64);

    let seam_p50 = us(&seam.propose_ns, 0.5);
    r.push("sched.propose.calls", propose_calls, "count");
    r.push("sched.propose.p50_us", seam_p50, "us");
    r.push("sched.propose.p99_us", us(&seam.propose_ns, 0.99), "us");
    r.push(
        "sched.propose.share",
        share(seam.propose_total_ns() as f64),
        "ratio",
    );
    r.push(
        "sched.propose.wasted_frac",
        ratio(seam.propose_wasted as f64, propose_calls),
        "ratio",
    );
    r.push("sched.repair.calls", seam.repair_ns.len() as f64, "count");
    r.push("sched.repair.p99_us", us(&seam.repair_ns, 0.99), "us");
    r.push(
        "sched.repair.share",
        share(seam.repair_total_ns() as f64),
        "ratio",
    );
    r.push("sched.estimate.calls", seam.estimate_calls as f64, "count");
    r.push("sched.evaluate.p50_us", us(&log.evaluate_ns, 0.5), "us");
    r.push("sched.evaluate.share", share(evaluate_ns), "ratio");
    r.push("topo.closure.hits", seam.closure_hits as f64, "count");
    r.push("topo.closure.repairs", seam.closure_repairs as f64, "count");
    r.push("topo.closure.full", seam.closure_full as f64, "count");
    r.push("orch.snapshot.p50_us", us(&log.snapshot_ns, 0.5), "us");
    r.push("orch.snapshot.share", share(snapshot_ns), "ratio");
    r.push("orch.commit.p50_us", us(&log.commit_ns, 0.5), "us");
    r.push("orch.commit.p99_us", us(&log.commit_ns, 0.99), "us");
    r.push("orch.commit.share", share(commit_ns), "ratio");
    r.push(
        "orch.commit.reject_frac",
        ratio(log.commit_rejects as f64, log.commit_ns.len() as f64),
        "ratio",
    );
    r.push("orch.release.p50_us", us(&log.release_ns, 0.5), "us");
    r.push("orch.release.share", share(release_ns), "ratio");
    r.push("orch.gang.p50_us", us(&log.gang_ns, 0.5), "us");
    r.push("orch.gang.share", share(gang_ns), "ratio");
    r.push(
        "orch.gang.reject_frac",
        ratio(log.gang_rejects as f64, log.gang_ns.len() as f64),
        "ratio",
    );
    r.push("orch.retries_per_task", per_unit(o.retries), "ratio");
    r.push("orch.migrations", o.migrations as f64, "count");
    r.push("orch.admission.shed_frac", per_unit(o.shed), "ratio");
    r.push(
        "orch.admission.degraded_frac",
        ratio(o.degraded as f64, o.degraded as f64 + propose_calls),
        "ratio",
    );
    r.push(
        "orch.admission.shed_critical",
        o.shed_critical as f64,
        "count",
    );
    r.push(
        "optical.groom.reuse_per_task",
        ratio(o.groom_reuse as f64, o.started as f64),
        "ratio",
    );
    r.push(
        "optical.groom.new_per_task",
        ratio(o.groom_new as f64, o.started as f64),
        "ratio",
    );
    r.push(
        "optical.lightpaths_live_end",
        o.lightpaths_live_end as f64,
        "count",
    );
    r.push("simcore.events_per_task", per_unit(o.events), "ratio");
    r.push("simcore.peak_pending", o.peak_pending as f64, "count");
    r.push("simcore.dispatch_ns_per_event", dispatch_probe(), "ns");
    r.push(
        "trace.overhead_frac",
        traced_wall / plain_wall - 1.0,
        "ratio",
    );
    r.push("trace.residual_share", share(residual_ns), "ratio");
    // Blocked proposals fail fast and the replay meets fewer of them, so
    // the cross-check compares successful proposals only.
    r.push(
        "replay.propose_p50_ratio",
        ratio(us(&log.propose_ok_ns, 0.5), us(&seam.propose_ok_ns, 0.5)),
        "ratio",
    );
    r.push("host.probe_us", host_probe(), "us");
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <metro-paper|wide-sharded|metro-storm|dag-fattree> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for v in &report.violations {
        eprintln!("perfbench: correctness gate: {v}");
    }
    println!("{}", report.to_json());
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
