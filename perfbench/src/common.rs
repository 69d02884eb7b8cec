//! The closed loop shared by every workload: set-up, timed
//! installs and restarts, fixed virtual steps and counter snapshots.

use crate::spans::Spans;
use p2_chord::ChordRing;
use p2_core::{InstallError, ParallelHarness, ProgramId};
use p2_types::{Addr, TimeDelta, Tuple, Value};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Seed of every population (ring IDs, node RNGs, timer stagger). The
/// workload seed picks only the injected inputs, so runs with different
/// seeds measure the same testbed under different input schedules.
pub const POPULATION_SEED: u64 = 1;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Push a metric onto a list.
pub fn put(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// Correctness tally: every checked operation, by kind.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// `kind -> (attempted, failed)`.
    pub by_kind: BTreeMap<&'static str, (u64, u64)>,
}

impl Ops {
    /// Record one checked operation.
    pub fn record(&mut self, kind: &'static str, ok: bool) {
        let e = self.by_kind.entry(kind).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    /// Operations attempted, all kinds.
    pub fn attempted(&self) -> u64 {
        self.by_kind.values().map(|v| v.0).sum()
    }

    /// Add another tally's operations to this one.
    pub fn merge(&mut self, other: &Ops) {
        for (kind, (att, fail)) in &other.by_kind {
            let e = self.by_kind.entry(kind).or_default();
            e.0 += att;
            e.1 += fail;
        }
    }

    /// Operations failed, all kinds.
    pub fn failed(&self) -> u64 {
        self.by_kind.values().map(|v| v.1).sum()
    }
}

/// Population-wide counters that can be read without disturbing any
/// node (all `&self` accessors).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Σ node busy time, seconds.
    pub busy_s: f64,
    /// Envelopes sent (node counters).
    pub msgs_sent: u64,
    /// Payload tuples sent.
    pub tuples_sent: u64,
    /// Tuples dispatched through the demux.
    pub dispatches: u64,
    /// Rule-strand firings.
    pub firings: u64,
    /// Tuples dropped by the dispatch budget.
    pub overflow_drops: u64,
    /// Strand work units dropped by the budget.
    pub strand_overflow_drops: u64,
    /// Malformed envelopes dropped.
    pub malformed_drops: u64,
    /// Envelopes accepted by the fabric.
    pub net_sent: u64,
    /// Envelopes the fabric dropped.
    pub net_dropped: u64,
    /// Shard event instants.
    pub events: u64,
    /// Shard barrier waits.
    pub barriers: u64,
    /// Cross-shard mailbox envelopes.
    pub mailbox: u64,
    /// Index-answered probes.
    pub index_probes: u64,
    /// Linear-scan probes.
    pub linear_probes: u64,
    /// Rows examined by probes.
    pub rows_scanned: u64,
    /// Rows returned by probes.
    pub rows_returned: u64,
    /// Expiry-heap pops.
    pub heap_pops: u64,
    /// Live tuples at read time.
    pub live_tuples: u64,
    /// Σ `Node::approx_bytes` at read time.
    pub approx_bytes: u64,
    /// Ship payload bytes received.
    pub ship_bytes_received: u64,
    /// Ship announce generations applied.
    pub ship_announces_applied: u64,
    /// Ship delta segments sent.
    pub ship_delta_segments: u64,
    /// Ship failures held (timeouts, nacks, bad segments).
    pub ship_failures: u64,
}

impl Counters {
    /// Read every node and shard.
    pub fn read(sim: &ParallelHarness) -> Counters {
        let mut c = Counters::default();
        for addr in sim.addrs() {
            let node = sim.node(addr);
            let m = node.metrics();
            c.busy_s += m.busy.as_secs_f64();
            c.msgs_sent += m.msgs_sent;
            c.tuples_sent += m.tuples_sent;
            c.dispatches += m.tuples_dispatched;
            c.firings += m.strand_firings;
            c.overflow_drops += m.overflow_drops;
            c.strand_overflow_drops += m.strand_overflow_drops;
            c.malformed_drops += m.malformed_drops;
            c.live_tuples += node.live_tuples() as u64;
            c.approx_bytes += node.approx_bytes() as u64;
            let s = node.ship_stats();
            c.ship_bytes_received += s.bytes_received;
            c.ship_announces_applied += s.announces_applied;
            c.ship_delta_segments += s.delta_segments;
            c.ship_failures += node.ship_failures().count() as u64;
        }
        for s in sim.shard_stats() {
            c.events += s.events;
            c.barriers += s.barrier_waits;
            c.mailbox += s.mailbox_envelopes;
        }
        let net = sim.net_stats();
        c.net_sent = net.total_sent();
        c.net_dropped = net.dropped;
        c
    }

    /// Store probe counters need a catalog borrow; they are read apart
    /// so per-step reads stay cheap.
    pub fn read_store(&mut self, sim: &mut ParallelHarness) {
        for addr in sim.addrs().to_vec() {
            for (_, p) in sim.node_mut(&addr).catalog_mut().index_stats() {
                self.index_probes += p.index_probes;
                self.linear_probes += p.linear_probes;
                self.rows_scanned += p.rows_scanned;
                self.rows_returned += p.rows_returned;
                self.heap_pops += p.heap_pops;
            }
        }
    }
}

/// Thread placement on Linux CPUs (`sched_getaffinity` and
/// `sched_setaffinity` on the calling thread).
pub mod affinity {
    /// A CPU set of up to 1024 CPUs, as the kernel lays it out.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn get() -> Option<Mask> {
        let mut m: Mask = [0; 16];
        // SAFETY: `m` is a writable CPU set of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), m.as_mut_ptr()) };
        (rc == 0).then_some(m)
    }

    /// Restrict the calling thread to `m`; false if the kernel refused.
    pub fn set(m: &Mask) -> bool {
        // SAFETY: `m` is a readable CPU set of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), m.as_ptr()) == 0 }
    }

    /// The CPU numbers in `m`.
    pub fn cpus(m: &Mask) -> Vec<usize> {
        (0..m.len() * 64)
            .filter(|&c| m[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// The set holding only CPU `cpu`.
    pub fn only(cpu: usize) -> Mask {
        let mut m: Mask = [0; 16];
        m[cpu / 64] = 1 << (cpu % 64);
        m
    }
}

/// Peak resident memory of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 longs,
    /// the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable `struct rusage` of the platform's layout.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Σ node busy time, seconds.
fn total_busy_s(sim: &ParallelHarness) -> f64 {
    sim.addrs()
        .iter()
        .map(|a| sim.node(a).metrics().busy.as_secs_f64())
        .sum()
}

/// Σ node busy time per shard, seconds (the per-step read of traced
/// runs; shard taken from `Node::shard_stats`).
fn shard_busy_s(sim: &ParallelHarness) -> Vec<f64> {
    let mut busy = vec![0.0; sim.shard_count()];
    for addr in sim.addrs() {
        let node = sim.node(addr);
        let shard = node.shard_stats().map_or(0, |s| s.shard as usize);
        if let Some(b) = busy.get_mut(shard) {
            *b += node.metrics().busy.as_secs_f64();
        }
    }
    busy
}

/// Archive, tracer and durable-log counters. Reading them drains spill
/// buffers, so they are read only at fixed virtual instants that are the
/// same in traced and untraced runs.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Rows ever spilled into archives.
    pub spilled_rows: u64,
    /// Sealed segments held.
    pub sealed_segments: u64,
    /// Bytes of sealed segments held.
    pub sealed_bytes: u64,
    /// Tracer rows written (`ruleExec` + `tupleTable`: spilled + live).
    pub trace_rows: u64,
    /// Sealed bytes of the tracer relations.
    pub trace_bytes: u64,
    /// Durable appends.
    pub durable_appends: u64,
}

const TRACE_TABLES: [&str; 2] = ["ruleExec", "tupleTable"];

impl History {
    /// Read every node's archive and durable store.
    pub fn read(sim: &mut ParallelHarness) -> History {
        let mut h = History::default();
        let now = sim.now();
        for addr in sim.addrs().to_vec() {
            let node = sim.node_mut(&addr);
            if let Some(d) = node.catalog_mut().durable_stats() {
                h.durable_appends += d.appends;
            }
            for (rel, a) in node.catalog_mut().archive_stats() {
                h.spilled_rows += a.spilled_rows;
                h.sealed_segments += a.segments;
                h.sealed_bytes += a.sealed_bytes;
                if TRACE_TABLES.contains(&rel.as_str()) {
                    h.trace_rows += a.spilled_rows;
                    h.trace_bytes += a.sealed_bytes;
                }
            }
            if node.tracing() {
                for t in TRACE_TABLES {
                    h.trace_rows += node.table_scan(t, now).len() as u64;
                }
            }
        }
        h
    }
}

/// Exact work counters of a run; same seed, same fingerprint.
pub fn fingerprint(c: &Counters, h: &History, installs: u64) -> Vec<(&'static str, u64)> {
    vec![
        ("envelopes", c.net_sent),
        ("dispatches", c.dispatches),
        ("strand_firings", c.firings),
        ("shard_events", c.events),
        ("barriers", c.barriers),
        ("mailbox_envelopes", c.mailbox),
        ("archive_spilled", h.spilled_rows),
        ("archive_sealed", h.sealed_segments),
        ("durable_appends", h.durable_appends),
        ("ship_bytes", c.ship_bytes_received),
        ("installs", installs),
    ]
}

/// Crash-restarts made through the benchmark.
#[derive(Debug, Clone, Default)]
pub struct Restarts {
    /// Wall time of each `restart`, seconds.
    pub wall_s: Vec<f64>,
    /// Segments the reborn nodes rebuilt from their durable logs.
    pub recovered_segments: u64,
    /// Sealed bytes the reborn nodes held right after recovery.
    pub recovered_bytes: u64,
}

/// Per-step observations, kept only in traced runs.
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    /// Step wall minus the busiest shard's busy time, ms.
    pub wait_ms: Vec<f64>,
    /// Busiest shard busy / mean shard busy.
    pub skew: Vec<f64>,
}

/// A population under test plus everything the benchmark records about
/// it.
pub struct Bench {
    /// The engine.
    pub sim: ParallelHarness,
    /// The Chord ring running on it.
    pub ring: ChordRing,
    /// Bench spans (recording only in traced runs).
    pub spans: Spans,
    /// Correctness tally.
    pub ops: Ops,
    /// Wall time of each timed `install`, ms.
    pub install_ms: Vec<f64>,
    /// Programs installed through the benchmark.
    pub installs: u64,
    /// Crash-restarts and what they recovered.
    pub restarts: Restarts,
    /// `(pruned, visited)` sealed segments of the query phase's history
    /// scans.
    pub query_segments: (u64, u64),
    /// Fixed virtual step.
    pub step: TimeDelta,
    /// Wall time of each measured step, ms.
    pub step_ms: Vec<f64>,
    /// Wall time of each window iteration, ms: from the end of the
    /// previous step (or the window's opening) to the end of this one, so
    /// the injects, installs and checks between steps count too.
    pub iter_ms: Vec<f64>,
    /// Σ node busy time of each measured step, ms.
    pub busy_ms: Vec<f64>,
    iter_end: Option<Instant>,
    busy_total_s: f64,
    /// Per-step layer observations (traced runs only).
    pub step_trace: StepTrace,
    /// Whether steps are being recorded (false once the window closed).
    pub recording: bool,
    last: Option<Vec<f64>>,
}

impl Bench {
    /// Wrap a freshly built ring.
    pub fn new(sim: ParallelHarness, ring: ChordRing, spans: Spans, step: TimeDelta) -> Bench {
        Bench {
            sim,
            ring,
            spans,
            ops: Ops::default(),
            install_ms: Vec::new(),
            installs: 0,
            restarts: Restarts::default(),
            query_segments: (0, 0),
            step,
            step_ms: Vec::new(),
            iter_ms: Vec::new(),
            busy_ms: Vec::new(),
            iter_end: None,
            busy_total_s: 0.0,
            step_trace: StepTrace::default(),
            recording: false,
            last: None,
        }
    }

    /// Install `source` on a running node, timing the call. In traced
    /// runs the front end, analysis and planner are first timed on the
    /// same source from outside, so the installer's own share is the
    /// install minus those three.
    pub fn install(&mut self, addr: &Addr, source: &str) -> Result<ProgramId, InstallError> {
        if self.spans.on() {
            self.time_front_end(addr, source);
        }
        let g = self.spans.enter("installer.install");
        let t = Instant::now();
        let r = self.sim.install(addr, source);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.spans.exit(g);
        self.install_ms.push(ms);
        self.installs += 1;
        self.ops.record("install", r.is_ok());
        if let Err(e) = &r {
            eprintln!("install failed on {addr}: {e}");
        }
        r
    }

    fn time_front_end(&mut self, addr: &Addr, source: &str) {
        let known: HashSet<String> = self
            .sim
            .node_mut(addr)
            .catalog_mut()
            .table_stats()
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        let g = self.spans.enter("overlog.compile");
        let program = p2_overlog::compile(source);
        self.spans.exit(g);
        let Ok(program) = program else {
            return;
        };
        let ctx = p2_analysis::AnalysisCtx {
            known_tables: known.clone(),
            ..Default::default()
        };
        let g = self.spans.enter("analysis.analyze");
        std::hint::black_box(p2_analysis::analyze(&[&program], &ctx));
        self.spans.exit(g);
        let g = self.spans.enter("planner.compile");
        let _ = std::hint::black_box(p2_planner::compile_program_with(
            &program,
            &known,
            &p2_planner::PlanOpts::default(),
        ));
        self.spans.exit(g);
    }

    /// Uninstall a program and check that the node's strand count
    /// returns to `strands_before`.
    pub fn uninstall(&mut self, addr: &Addr, pid: ProgramId, strands_before: usize) {
        let g = self.spans.enter("installer.uninstall");
        self.sim.node_mut(addr).uninstall(pid);
        self.spans.exit(g);
        let after = self.sim.node(addr).strand_count();
        self.ops.record("uninstall", after <= strands_before);
    }

    /// Crash-restart a node from its durable log, timing the call and
    /// reading what its recovery rebuilt.
    pub fn restart(&mut self, addr: &Addr) {
        let g = self.spans.enter("core.restart");
        let t = Instant::now();
        let r = self.sim.restart(addr);
        let s = t.elapsed().as_secs_f64();
        self.spans.exit(g);
        self.ops.record("restart", r.is_ok());
        if let Err(e) = &r {
            eprintln!("restart failed on {addr}: {e}");
        }
        self.restarts.wall_s.push(s);
        let catalog = self.sim.node_mut(addr).catalog_mut();
        if let Some(d) = catalog.durable_stats() {
            self.restarts.recovered_segments += d.recovered_segments;
        }
        self.restarts.recovered_bytes += catalog
            .archive_stats()
            .iter()
            .map(|(_, a)| a.sealed_bytes)
            .sum::<u64>();
    }

    /// Advance one fixed virtual step without recording it (set-up).
    pub fn advance(&mut self, delta: TimeDelta) {
        let g = self.spans.enter("core.step");
        self.sim.run_for(delta);
        self.spans.exit(g);
    }

    /// Advance one measured step, recording its wall time (and, in traced
    /// runs, the shard balance of the step).
    pub fn step(&mut self) {
        let g = self.spans.enter("core.step");
        let t = Instant::now();
        self.sim.run_for(self.step);
        let end = Instant::now();
        let ms = end.duration_since(t).as_secs_f64() * 1e3;
        self.spans.exit(g);
        if !self.recording {
            return;
        }
        self.step_ms.push(ms);
        if let Some(prev) = self.iter_end {
            self.iter_ms
                .push(end.duration_since(prev).as_secs_f64() * 1e3);
        }
        let busy = total_busy_s(&self.sim);
        self.busy_ms.push((busy - self.busy_total_s) * 1e3);
        self.busy_total_s = busy;
        if self.spans.on() {
            let now = shard_busy_s(&self.sim);
            if let Some(prev) = &self.last {
                let busy: Vec<f64> = now.iter().zip(prev).map(|(a, b)| (a - b) * 1e3).collect();
                let max = busy.iter().copied().fold(0.0, f64::max);
                let mean = busy.iter().sum::<f64>() / busy.len() as f64;
                self.step_trace.wait_ms.push((ms - max).max(0.0));
                if mean > 0.0 {
                    self.step_trace.skew.push(max / mean);
                }
            }
            self.last = Some(now);
        }
        // The next iteration starts after these reads.
        self.iter_end = Some(Instant::now());
    }

    /// Start recording steps from now.
    pub fn begin_window(&mut self) {
        self.step_ms.clear();
        self.iter_ms.clear();
        self.busy_ms.clear();
        self.busy_total_s = total_busy_s(&self.sim);
        self.recording = true;
        if self.spans.on() {
            self.last = Some(shard_busy_s(&self.sim));
        }
        self.iter_end = Some(Instant::now());
    }

    /// Inject a tuple at a node (settles like any harness inject).
    pub fn inject(&mut self, addr: &Addr, tuple: Tuple) {
        let g = self.spans.enter("core.inject");
        self.sim.inject(addr, tuple);
        self.spans.exit(g);
    }
}

/// Row `rel(addr, id, peer)` as used by Chord's `succ`, `pred` and
/// `bestSucc` tables.
pub fn link(rel: &str, addr: &Addr, id: p2_types::RingId, peer: &Addr) -> Tuple {
    Tuple::new(
        rel,
        [
            Value::Addr(addr.clone()),
            Value::Id(id),
            Value::Addr(peer.clone()),
        ],
    )
}

/// Start the ring from its converged state: every node is told its true
/// successor and predecessor, as stabilization would eventually derive.
/// A simultaneous join of hundreds of nodes through one landmark takes
/// far longer than a benchmark set-up can afford.
pub fn warm_start(b: &mut Bench) {
    for addr in b.ring.addrs.clone() {
        seed_links(b, &addr);
    }
}

/// Tell one node its true successor and predecessor.
pub fn seed_links(b: &mut Bench, addr: &Addr) {
    let sorted = b.ring.live_sorted(&b.sim);
    let n = sorted.len();
    let i = sorted
        .iter()
        .position(|(_, a)| a == addr)
        .expect("node is a live ring member");
    let (sid, saddr) = &sorted[(i + 1) % n];
    let (pid, paddr) = &sorted[(i + n - 1) % n];
    b.inject(addr, link("succ", addr, *sid, saddr));
    b.inject(addr, link("pred", addr, *pid, paddr));
}

#[cfg(test)]
mod tests {
    use super::affinity;

    #[test]
    fn single_cpu_sets_round_trip() {
        for cpu in [0, 1, 63, 64, 1023] {
            assert_eq!(affinity::cpus(&affinity::only(cpu)), vec![cpu]);
        }
    }
}
