//! Host-speed normalisation of the end-to-end host timings.
//!
//! The benchmark runs on cores shared with other tenants, and their load
//! slows this host by up to 2x for a minute at a time. Raw throughput
//! follows the host, so two sets of runs of the same code disagree by
//! more than any useful bound. The end-to-end timings are therefore taken
//! against a fixed reference computation, timed on the same thread while
//! the driver runs:
//!
//! * [`Paced`] sits in front of the scheduler in end-to-end runs and,
//!   every [`SLICE`] of driver time, hands control to the [`HostClock`];
//! * the clock times one [`reference`] solve and scales the slice of
//!   driver time just ended by `NOMINAL_NS / reference time`.
//!
//! The sum is the time the run would have taken on a host that does the
//! reference in [`NOMINAL_NS`]: "reference seconds". The reference's own
//! time is excluded from the driver's. The reference is this crate's own
//! code and calls nothing in the repository, so no change to the program
//! can move it. It mimics the program's kind of work: Steiner-tree
//! solves over ordered maps and a binary heap, and many short-lived
//! allocations. That is what makes it slow down with the host the way
//! the program does; without the allocation churn it tracked about half
//! as well.

use crate::stats::median;
use flexsched_sched::{
    FlexibleMst, NetworkSnapshot, Proposal, RepairProposal, Schedule, Scheduler,
};
use flexsched_task::AiTask;
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Driver time between two reference solves.
const SLICE: Duration = Duration::from_millis(50);

/// The reference's time on the host the figures are expressed for, ns:
/// about its median on a 2-core x86-64 container in a quiet phase.
const NOMINAL_NS: f64 = 2_250_000.0;

/// One link of the reference fabric.
struct RefLink {
    a: u32,
    b: u32,
    km: f64,
    capacity: f64,
    used: f64,
}

/// A fixed metro-like fabric: a ring of sites with chords, one switch per
/// site and eight servers under each.
struct RefNet {
    links: Vec<RefLink>,
    adjacency: Vec<Vec<usize>>,
    servers: Vec<u32>,
}

impl RefNet {
    fn build() -> Self {
        const SITES: u32 = 12;
        const SERVERS_PER_SITE: u32 = 8;
        let mut s = 0x0005_DEEC_E66D_u64;
        let mut draw = move |modulo: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % modulo) as f64
        };
        let mut links = Vec::new();
        let mut link = |a, b, km, capacity, used| {
            links.push(RefLink {
                a,
                b,
                km,
                capacity,
                used,
            })
        };
        for r in 0..SITES {
            link(r, (r + 1) % SITES, 5.0 + draw(40), 400.0, draw(300));
        }
        for c in 0..4 {
            link(c, c + SITES / 2, 30.0 + draw(40), 400.0, draw(300));
        }
        let mut servers = Vec::new();
        let mut next = SITES;
        for r in 0..SITES {
            let switch = next;
            next += 1;
            link(r, switch, 0.5, 800.0, draw(400));
            for _ in 0..SERVERS_PER_SITE {
                link(switch, next, 0.1, 100.0, draw(60));
                servers.push(next);
                next += 1;
            }
        }
        let mut adjacency = vec![Vec::new(); next as usize];
        for (i, l) in links.iter().enumerate() {
            adjacency[l.a as usize].push(i);
            adjacency[l.b as usize].push(i);
        }
        RefNet {
            links,
            adjacency,
            servers,
        }
    }

    /// A latency-plus-load weight, in the spirit of the paper's auxiliary
    /// weight.
    fn weight(l: &RefLink) -> f64 {
        let free = (l.capacity - l.used).max(1e-9);
        let load = (l.used / l.capacity).clamp(0.0, 0.99);
        l.km * 5.0 / 52.0 + 0.1 * load / (1.0 - load) + (25.0 / free).min(100.0)
    }

    fn far_end(&self, link: usize, from: u32) -> u32 {
        let l = &self.links[link];
        if l.a == from {
            l.b
        } else {
            l.a
        }
    }

    /// Shortest-path tree from `source`: distances and parent links.
    #[allow(clippy::type_complexity)]
    fn shortest_paths(&self, source: u32) -> (BTreeMap<u32, f64>, BTreeMap<u32, (u32, usize)>) {
        let mut dist = BTreeMap::from([(source, 0.0)]);
        let mut parent = BTreeMap::new();
        let mut heap = BinaryHeap::from([Reverse((0u64, source))]);
        while let Some(Reverse((bits, u))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[&u] {
                continue;
            }
            for &li in &self.adjacency[u as usize] {
                let v = self.far_end(li, u);
                let nd = d + Self::weight(&self.links[li]);
                if dist.get(&v).is_none_or(|&old| nd < old) {
                    dist.insert(v, nd);
                    parent.insert(v, (u, li));
                    heap.push(Reverse((nd.to_bits(), v)));
                }
            }
        }
        (dist, parent)
    }

    /// A KMB Steiner tree over twelve servers picked by `offset`: one
    /// shortest-path tree per terminal, Kruskal over the metric closure,
    /// path expansion, leaf pruning and a walk from the root. Returns the
    /// tree's weight plus its size.
    fn steiner(&self, offset: usize) -> f64 {
        let terminals: Vec<u32> = (0..12)
            .map(|i| self.servers[(offset + i * 7) % self.servers.len()])
            .collect();
        let trees: Vec<_> = terminals.iter().map(|&t| self.shortest_paths(t)).collect();
        let mut closure = Vec::new();
        for (i, (dist, _)) in trees.iter().enumerate() {
            for (j, t) in terminals.iter().enumerate().skip(i + 1) {
                closure.push((dist[t], i, j));
            }
        }
        closure.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut component: Vec<usize> = (0..terminals.len()).collect();
        fn find(component: &mut [usize], mut x: usize) -> usize {
            while component[x] != x {
                component[x] = component[component[x]];
                x = component[x];
            }
            x
        }
        let mut tree = BTreeSet::new();
        for (_, i, j) in closure {
            let (a, b) = (find(&mut component, i), find(&mut component, j));
            if a == b {
                continue;
            }
            component[a] = b;
            let mut v = terminals[j];
            while v != terminals[i] {
                let (p, li) = trees[i].1[&v];
                tree.insert(li);
                v = p;
            }
        }
        let keep: BTreeSet<u32> = terminals.iter().copied().collect();
        loop {
            let mut degree: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for &li in &tree {
                let l = &self.links[li];
                degree.entry(l.a).or_default().push(li);
                degree.entry(l.b).or_default().push(li);
            }
            let prune: Vec<usize> = degree
                .iter()
                .filter(|(n, ls)| ls.len() == 1 && !keep.contains(n))
                .map(|(_, ls)| ls[0])
                .collect();
            if prune.is_empty() {
                break;
            }
            for li in prune {
                tree.remove(&li);
            }
        }
        let mut neighbours: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &li in &tree {
            let l = &self.links[li];
            neighbours.entry(l.a).or_default().push(l.b);
            neighbours.entry(l.b).or_default().push(l.a);
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([terminals[0]]);
        while let Some(n) = queue.pop_front() {
            if seen.insert(n) {
                queue.extend(neighbours.get(&n).into_iter().flatten());
            }
        }
        seen.len() as f64
            + tree
                .iter()
                .map(|&li| Self::weight(&self.links[li]))
                .sum::<f64>()
    }
}

/// Ordered-map churn: `n` pseudo-random inserts, then `n / 2` removals.
fn map_churn(n: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut x = 0x0139_408D_CBBF_7A44u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, i);
    }
    let mut sum = 0;
    for i in 0..n / 2 {
        sum += map.remove(&(i * 7 % 100_000)).unwrap_or(0);
    }
    sum + map.len() as u64
}

/// Allocation churn: `n` short vectors of 2–65 words, at most 65 alive.
fn alloc_churn(n: u64) -> u64 {
    let mut x = 0x51u64;
    let mut live: Vec<Vec<u64>> = Vec::new();
    let mut sum = 0;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = (x % 64 + 2) as usize;
        let v = vec![i; len];
        sum += v[len - 1];
        live.push(v);
        if live.len() > 64 {
            live.swap_remove((x % 64) as usize);
        }
    }
    sum + live.len() as u64
}

/// The reference computation: two Steiner solves, an ordered-map churn
/// and an allocation churn, the same fixed work every call. Returns its
/// duration, ns.
fn reference(round: usize) -> f64 {
    static NET: OnceLock<RefNet> = OnceLock::new();
    let net = NET.get_or_init(RefNet::build);
    let t0 = Instant::now();
    let n = net.servers.len();
    std::hint::black_box(net.steiner(round % n));
    std::hint::black_box(net.steiner((round + 1) % n));
    std::hint::black_box(map_churn(std::hint::black_box(1_500)));
    std::hint::black_box(alloc_churn(std::hint::black_box(20_000)));
    t0.elapsed().as_nanos() as f64
}

/// Reference time → scale factor onto the nominal host.
fn scale(reference_ns: f64) -> f64 {
    NOMINAL_NS / reference_ns.max(1.0)
}

/// Host timings of one driver run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunTiming {
    /// Driver seconds, the reference's own time excluded.
    pub raw_s: f64,
    /// The same driver time in reference seconds.
    pub reference_s: f64,
}

/// Accumulates one driver run's time, slice by slice.
pub struct HostClock {
    mark: Instant,
    raw_ns: f64,
    reference_ns: f64,
    rounds: usize,
}

impl HostClock {
    /// Start timing now.
    pub fn start() -> Self {
        HostClock {
            mark: Instant::now(),
            raw_ns: 0.0,
            reference_ns: 0.0,
            rounds: 0,
        }
    }

    /// Close the current slice once it has lasted [`SLICE`].
    fn tick(&mut self) {
        if self.mark.elapsed() >= SLICE {
            self.close_slice();
        }
    }

    fn close_slice(&mut self) {
        let slice = self.mark.elapsed().as_nanos() as f64;
        let r = reference(self.rounds);
        self.rounds += 1;
        self.raw_ns += slice;
        self.reference_ns += slice * scale(r);
        self.mark = Instant::now();
    }

    /// Close the last slice and return the run's timing.
    pub fn finish(mut self) -> RunTiming {
        self.close_slice();
        RunTiming {
            raw_s: self.raw_ns / 1e9,
            reference_s: self.reference_ns / 1e9,
        }
    }
}

/// Shared handle on the clock a [`Paced`] scheduler ticks.
pub type SharedClock = Arc<Mutex<Option<HostClock>>>;

/// The paper's flexible scheduler, handing the [`HostClock`] a turn
/// before each call. The driver makes a scheduler call at every decision,
/// so slices stay close to [`SLICE`].
pub struct Paced {
    inner: FlexibleMst,
    clock: SharedClock,
}

impl Paced {
    /// Wrap [`FlexibleMst::paper`]; the clock is installed into the
    /// returned handle when the run starts.
    pub fn paper() -> (Self, SharedClock) {
        let clock = SharedClock::default();
        (
            Paced {
                inner: FlexibleMst::paper(),
                clock: Arc::clone(&clock),
            },
            clock,
        )
    }

    fn tick(&self) {
        if let Some(c) = self
            .clock
            .lock()
            .expect("host clock holder panicked")
            .as_mut()
        {
            c.tick();
        }
    }
}

impl Scheduler for Paced {
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
        self.tick();
        self.inner.propose(task, selected, snapshot, scratch)
    }

    fn propose_repair(
        &self,
        task: &AiTask,
        current: &Schedule,
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> flexsched_sched::Result<Option<RepairProposal>> {
        self.tick();
        self.inner.propose_repair(task, current, snapshot, scratch)
    }

    fn estimate_fresh_cost(
        &self,
        task: &AiTask,
        current: &Schedule,
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> flexsched_sched::Result<Option<f64>> {
        self.tick();
        self.inner
            .estimate_fresh_cost(task, current, snapshot, scratch)
    }
}

/// Build a value `repeats` times back to back, keep the last, and return
/// it with the median build time in reference seconds: scaled by the mean
/// of two reference solves, one just before the builds and one just after.
pub fn timed_builds<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let before = reference(0);
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    let after = reference(1);
    (
        last.expect("at least one build"),
        median(&times) * scale((before + after) / 2.0),
    )
}
