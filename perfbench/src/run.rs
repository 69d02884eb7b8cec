//! One workload run: repeated set-up and window, and the metrics of
//! either kind.

use crate::common::{
    affinity, fingerprint, peak_rss_mb, put, Bench, Counters, History, Metric, Ops,
};
use crate::host::{self, REF_KERNEL_MS};
use crate::spans::Spans;
use crate::stats::{fastest, median, percentile, ratio};
use p2_core::ParallelHarness;
use p2_types::Time;
use std::time::{Duration, Instant};

/// Fewest repetitions of set-up and window in an end-to-end run: the
/// median of five stays put when two of them are disturbed.
pub const MIN_REPS: usize = 5;

/// Figures of one window.
#[derive(Debug, Clone)]
pub struct Figures {
    /// Virtual seconds of the window.
    virt_s: f64,
    /// Wall time of each step, ms.
    step_ms: Vec<f64>,
    /// Wall time of each window iteration (step and the work around it), ms.
    iter_ms: Vec<f64>,
    /// Σ node busy time of each step, ms.
    busy_ms: Vec<f64>,
    nodes: f64,
    msgs_node_s: f64,
    mem_kb_node: f64,
    rss_mb: f64,
}

/// The measured window's controller: a closed loop of exactly the
/// workload's `window_steps` fixed virtual steps.
pub struct Phase {
    window_steps: usize,
    budget_end: Instant,
    virt: Time,
    start: Counters,
    /// The window's figures, once it has closed.
    pub figures: Option<Figures>,
    /// Counters at window start and end.
    pub counters: Option<(Counters, Counters)>,
    /// History counters at window start and end.
    pub history: Option<(History, History)>,
    /// The deterministic counter fingerprint, taken at window end.
    pub fingerprint: Vec<(&'static str, u64)>,
}

impl Phase {
    fn new(window_steps: usize, budget_end: Instant) -> Phase {
        Phase {
            window_steps,
            budget_end,
            virt: Time::from_millis(0),
            start: Counters::default(),
            figures: None,
            counters: None,
            history: None,
            fingerprint: Vec::new(),
        }
    }

    /// Open the window.
    pub fn open(&mut self, b: &mut Bench) {
        let g = b.spans.enter("bench.counters");
        let h = History::read(&mut b.sim);
        self.history = Some((h.clone(), h));
        let mut start = Counters::read(&b.sim);
        start.read_store(&mut b.sim);
        self.start = start;
        self.virt = b.sim.now();
        b.begin_window();
        b.spans.exit(g);
    }

    /// Whether the window has closed (it closes in [`Phase::after_step`]).
    pub fn done(&self) -> bool {
        self.figures.is_some()
    }

    /// Whether the run's wall budget is spent. Only work after the last
    /// window may depend on it.
    pub fn budget_spent(&self) -> bool {
        Instant::now() >= self.budget_end
    }

    /// Call after every measured step; closes the window after its last.
    pub fn after_step(&mut self, b: &mut Bench, steps: usize) {
        if self.done() || steps < self.window_steps {
            return;
        }
        let g = b.spans.enter("bench.counters");
        let h = History::read(&mut b.sim);
        let mut end = Counters::read(&b.sim);
        let rss_mb = peak_rss_mb();
        self.fingerprint = fingerprint(&end, &h, b.installs);
        end.read_store(&mut b.sim);
        let nodes = b.sim.addrs().len() as f64;
        let virt = b.sim.now().since(self.virt).as_secs_f64();
        self.figures = Some(Figures {
            virt_s: virt,
            step_ms: b.step_ms.clone(),
            iter_ms: b.iter_ms.clone(),
            busy_ms: b.busy_ms.clone(),
            nodes,
            msgs_node_s: (end.net_sent - self.start.net_sent) as f64 / (nodes * virt),
            mem_kb_node: end.approx_bytes as f64 / nodes / 1024.0,
            rss_mb,
        });
        if let Some(hist) = &mut self.history {
            hist.1 = h;
        }
        self.counters = Some((self.start.clone(), end));
        // Steps after this (draining in-flight checks) are not measured.
        b.recording = false;
        b.spans.exit(g);
    }
}

/// A workload: its set-up, window and sizing.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Steps of the measured window; the counter fingerprint is taken at
    /// its end.
    pub window_steps: usize,
    /// Nominal wall seconds of one set-up plus window on the reference
    /// host (2 vCPUs): a run of `--seconds` S makes round(S / rep_s)
    /// repetitions, and at least [`MIN_REPS`].
    pub rep_s: f64,
    /// Build and warm the population.
    pub setup: fn(Spans) -> Bench,
    /// Run the window, and after it, when the flag says this is the last
    /// repetition, the workload's other phases; returns the workload's own
    /// figures.
    pub run: fn(&mut Bench, u64, &mut Phase, bool) -> Vec<Metric>,
}

/// Result of one pass: every repetition's figures, and the last
/// repetition's population.
pub struct Pass {
    /// The last population after its window.
    pub bench: Bench,
    /// The last window's controller.
    pub phase: Phase,
    /// Workload figures of the last repetition, printed but not gated.
    pub report: Vec<Metric>,
    /// Wall seconds of the last window and the phases after it.
    pub window_s: f64,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The reference kernel's wall milliseconds just before each set-up.
    pub kernel_ms: Vec<f64>,
    /// The reference kernel's wall milliseconds just after each window.
    pub kernel_after_ms: Vec<f64>,
    /// Figures of each window.
    pub figures: Vec<Figures>,
}

impl Pass {
    /// The end-to-end metrics. The timings are corrected for the host's
    /// speed (see [`crate::host`]) in two ways:
    ///
    /// - Every repetition's window does the same work, so each step, each
    ///   window iteration and each step's node busy time is taken at its
    ///   fastest over the repetitions (time the host takes away only ever
    ///   adds), and scaled by the reference kernel's fastest time over the
    ///   run: the fastest the host was, against the fastest it allowed.
    /// - Each set-up is scaled by the kernel time measured just before it,
    ///   and the median of the scaled set-ups is reported.
    ///
    /// The other metrics count work and are medians over the repetitions.
    pub fn e2e(&self) -> Vec<Metric> {
        let med = |f: fn(&Figures) -> f64| {
            let v: Vec<f64> = self.figures.iter().map(f).collect();
            median(&v).unwrap_or(f64::NAN)
        };
        let scale = REF_KERNEL_MS / self.fastest_kernel_ms();
        let fastest_ms = |f: fn(&Figures) -> &Vec<f64>| {
            let rows: Vec<Vec<f64>> = self.figures.iter().map(|x| f(x).clone()).collect();
            let v = fastest(&rows);
            v.into_iter().map(|ms| ms * scale).collect::<Vec<f64>>()
        };
        let step_ms = fastest_ms(|f| &f.step_ms);
        let window_s = fastest_ms(|f| &f.iter_ms).iter().sum::<f64>() / 1e3;
        let busy_s = fastest_ms(|f| &f.busy_ms).iter().sum::<f64>() / 1e3;
        let virt_s = med(|f| f.virt_s);
        let setup_s: Vec<f64> = self
            .setup_s
            .iter()
            .zip(&self.kernel_ms)
            .map(|(s, k)| s * REF_KERNEL_MS / k)
            .collect();
        let pct = |q| percentile(&step_ms, q).unwrap_or(f64::NAN);
        let mut m = Vec::new();
        put(&mut m, "setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
        put(&mut m, "sim_rate", virt_s / window_s, "vs/s");
        put(&mut m, "step_ms_p50", pct(50.0), "ms");
        put(&mut m, "step_ms_p90", pct(90.0), "ms");
        put(
            &mut m,
            "cpu_pct",
            100.0 * busy_s / (med(|f| f.nodes) * virt_s),
            "%",
        );
        put(&mut m, "msgs_node_s", med(|f| f.msgs_node_s), "env/node/vs");
        put(&mut m, "mem_kb_node", med(|f| f.mem_kb_node), "KiB");
        put(&mut m, "rss_mb", med(|f| f.rss_mb), "MiB");
        m
    }

    /// The reference kernel's fastest time over the run, before set-ups
    /// and after windows.
    fn fastest_kernel_ms(&self) -> f64 {
        self.kernel_ms
            .iter()
            .chain(&self.kernel_after_ms)
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The host's figures: the reference kernel's fastest time over the
    /// run, and the uncorrected median set-up time.
    pub fn host_figures(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        put(&mut m, "host_kernel_ms", self.fastest_kernel_ms(), "ms");
        let setup_s = median(&self.setup_s).unwrap_or(f64::NAN);
        put(&mut m, "uncorrected_setup_s", setup_s, "s");
        m
    }
}

/// Repetitions of set-up and window in an end-to-end run of `seconds`.
pub fn reps(w: &Workload, seconds: f64) -> usize {
    ((seconds / w.rep_s).round() as usize).max(MIN_REPS)
}

/// Set up and run the window `reps` times, each on a fresh population
/// built from the same seeds, so every repetition does the same work. The
/// last repetition also runs the workload's phases after the window until
/// `budget_s` wall seconds after the first set-up (at least once).
/// Fails if two repetitions did different work.
pub fn pass(
    w: &Workload,
    seed: u64,
    budget_s: f64,
    traced: bool,
    reps: usize,
) -> Result<Pass, String> {
    let budget_end = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut setup_s = Vec::new();
    let mut figures = Vec::new();
    // Install timings and checked operations of every repetition are
    // pooled: the same installs on the same population.
    let mut install_ms = Vec::new();
    let mut ops = Ops::default();
    let mut first_fp = None;
    let mut kernel_ms = Vec::new();
    let mut kernel_after_ms = Vec::new();
    let mut last = None;
    let allowed = affinity::get();
    let cpus = allowed.as_ref().map(affinity::cpus).unwrap_or_default();
    for rep in 0..reps.max(1) {
        // The previous population goes before the next is built, so peak
        // memory is that of one.
        drop(last.take());
        // The host's speed just before this set-up.
        kernel_ms.push(host::kernel_ms_now(&cpus, allowed.as_ref()));
        let mut spans = Spans::new(traced, 1);
        let root = spans.enter("workload");
        let t = Instant::now();
        let mut b = (w.setup)(spans);
        setup_s.push(t.elapsed().as_secs_f64());
        let mut phase = Phase::new(w.window_steps, budget_end);
        // A single-shard population runs on one thread, which follows the
        // speed of whichever CPU it sits on, and on a shared virtual
        // machine each CPU slows and recovers on its own. Its windows
        // therefore take the CPUs in turn, so a run samples all of them,
        // as a multi-shard population does at every step.
        let pinned = b.sim.shard_count() == 1
            && cpus.len() > 1
            && affinity::set(&affinity::only(cpus[rep % cpus.len()]));
        let t = Instant::now();
        let report = (w.run)(&mut b, seed, &mut phase, rep + 1 == reps.max(1));
        let window_s = t.elapsed().as_secs_f64();
        if let (true, Some(m)) = (pinned, &allowed) {
            affinity::set(m);
        }
        kernel_after_ms.push(host::kernel_ms_now(&cpus, allowed.as_ref()));
        b.spans.exit(root);
        let f = phase.figures.clone().ok_or("the window never closed")?;
        figures.push(f);
        match &first_fp {
            None => first_fp = Some(phase.fingerprint.clone()),
            Some(fp) if *fp != phase.fingerprint => {
                return Err(format!(
                    "repetitions of one run did different work:\n  first {fp:?}\n  now   {:?}",
                    phase.fingerprint
                ));
            }
            Some(_) => {}
        }
        install_ms.append(&mut b.install_ms);
        ops.merge(&b.ops);
        last = Some((b, phase, report, window_s));
    }
    let (mut b, phase, mut report, window_s) = last.expect("at least one repetition");
    b.install_ms = install_ms;
    b.ops = ops;
    // Install latency is a workload figure, not a gated metric: with the
    // tracer on (`forensic_incident`) its run-to-run spread exceeds 0.25.
    for (i, (name, q)) in [("install_ms_p50", 50.0), ("install_ms_p90", 90.0)]
        .into_iter()
        .enumerate()
    {
        let value = percentile(&b.install_ms, q).unwrap_or(f64::NAN);
        let metric = Metric {
            name: name.into(),
            value,
            unit: "ms",
        };
        report.insert(i, metric);
    }
    Ok(Pass {
        bench: b,
        phase,
        report,
        window_s,
        setup_s,
        kernel_ms,
        kernel_after_ms,
        figures,
    })
}

/// Per-layer metrics of a traced pass.
pub fn layer_metrics(p: &mut Pass) -> Vec<Metric> {
    let totals = p.bench.spans.totals();
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e3)
    };
    let b = &mut p.bench;
    let (c0, c1) = p.phase.counters.clone().expect("window closed");
    let (h0, h1) = p.phase.history.clone().expect("window opened");
    let d = |f: fn(&Counters) -> u64| f(&c1).saturating_sub(f(&c0)) as f64;
    let shards = b.sim.shard_count() as f64;
    let virt = b.step.as_secs_f64() * b.step_ms.len() as f64;
    let step_wall_ms: f64 = b.step_ms.iter().sum();
    let busy_s = c1.busy_s - c0.busy_s;
    let dispatches = d(|c| c.dispatches);
    let mut m = Vec::new();

    put(
        &mut m,
        "overlog.compile_us",
        mean_us("overlog.compile"),
        "us",
    );
    put(
        &mut m,
        "analysis.analyze_us",
        mean_us("analysis.analyze"),
        "us",
    );
    put(
        &mut m,
        "planner.compile_us",
        mean_us("planner.compile"),
        "us",
    );
    let install = mean_us("installer.install");
    put(&mut m, "installer.install_us", install, "us");
    put(
        &mut m,
        "installer.uninstall_us",
        mean_us("installer.uninstall"),
        "us",
    );
    let front =
        mean_us("overlog.compile") + mean_us("analysis.analyze") + mean_us("planner.compile");
    put(
        &mut m,
        "installer.self_us",
        (install - front).max(0.0),
        "us",
    );

    put(
        &mut m,
        "core.step_ms",
        ratio(step_wall_ms, b.step_ms.len() as f64),
        "ms",
    );
    put(
        &mut m,
        "core.busy_share",
        ratio(busy_s * 1e3, step_wall_ms * shards),
        "ratio",
    );
    put(
        &mut m,
        "core.busy_us_per_dispatch",
        ratio(busy_s * 1e6, dispatches),
        "us",
    );

    let st = &b.step_trace;
    put(
        &mut m,
        "parallel.wait_ms",
        ratio(st.wait_ms.iter().sum(), st.wait_ms.len() as f64),
        "ms",
    );
    put(
        &mut m,
        "parallel.skew",
        ratio(st.skew.iter().sum(), st.skew.len() as f64),
        "ratio",
    );
    put(&mut m, "parallel.events", d(|c| c.events), "count");
    put(&mut m, "parallel.barrier_waits", d(|c| c.barriers), "count");
    put(
        &mut m,
        "parallel.mailbox_envelopes",
        d(|c| c.mailbox),
        "count",
    );
    put(
        &mut m,
        "parallel.barriers_per_vs",
        ratio(d(|c| c.barriers), virt),
        "1/vs",
    );

    put(&mut m, "dataflow.dispatches", dispatches, "count");
    put(&mut m, "dataflow.strand_firings", d(|c| c.firings), "count");
    put(
        &mut m,
        "dataflow.firings_per_dispatch",
        ratio(d(|c| c.firings), dispatches),
        "ratio",
    );
    put(
        &mut m,
        "dataflow.overflow_drops",
        d(|c| c.overflow_drops),
        "count",
    );
    put(
        &mut m,
        "dataflow.strand_overflow_drops",
        d(|c| c.strand_overflow_drops),
        "count",
    );

    let (ip, lp) = (d(|c| c.index_probes), d(|c| c.linear_probes));
    put(&mut m, "store.index_probes", ip, "count");
    put(&mut m, "store.linear_probes", lp, "count");
    put(&mut m, "store.index_hit_ratio", ratio(ip, ip + lp), "ratio");
    put(
        &mut m,
        "store.rows_scanned_per_returned",
        ratio(d(|c| c.rows_scanned), d(|c| c.rows_returned)),
        "ratio",
    );
    put(&mut m, "store.heap_pops", d(|c| c.heap_pops), "count");
    put(&mut m, "store.live_tuples", c1.live_tuples as f64, "count");

    let dh = |f: fn(&History) -> u64| f(&h1).saturating_sub(f(&h0)) as f64;
    put(&mut m, "trace.rows", dh(|h| h.trace_rows), "count");
    put(&mut m, "trace.bytes", dh(|h| h.trace_bytes), "B");
    put(
        &mut m,
        "archive.spilled_rows",
        dh(|h| h.spilled_rows),
        "count",
    );
    put(
        &mut m,
        "archive.sealed_segments",
        dh(|h| h.sealed_segments),
        "count",
    );
    put(&mut m, "archive.sealed_bytes", dh(|h| h.sealed_bytes), "B");
    put(&mut m, "archive.scan_us", mean_us("archive.scan"), "us");
    let (pruned, visited) = b.query_segments;
    put(
        &mut m,
        "archive.pruned_ratio",
        ratio(pruned as f64, visited as f64),
        "ratio",
    );
    put(
        &mut m,
        "durable.appends",
        dh(|h| h.durable_appends),
        "count",
    );
    put(
        &mut m,
        "durable.bytes",
        durable_log_bytes(&mut b.sim) as f64,
        "B",
    );
    let r = &b.restarts;
    put(
        &mut m,
        "durable.recovered_segments",
        r.recovered_segments as f64,
        "count",
    );
    put(
        &mut m,
        "durable.recover_mb_s",
        ratio(r.recovered_bytes as f64 / 1e6, r.wall_s.iter().sum()),
        "MB/s",
    );

    put(
        &mut m,
        "ship.bytes_received",
        d(|c| c.ship_bytes_received),
        "B",
    );
    put(
        &mut m,
        "ship.announces_applied",
        d(|c| c.ship_announces_applied),
        "count",
    );
    put(
        &mut m,
        "ship.delta_segments",
        d(|c| c.ship_delta_segments),
        "count",
    );
    put(&mut m, "ship.failures", c1.ship_failures as f64, "count");

    let env = d(|c| c.msgs_sent);
    put(&mut m, "net.envelopes", d(|c| c.net_sent), "count");
    put(
        &mut m,
        "net.tuples_per_envelope",
        ratio(d(|c| c.tuples_sent), env),
        "ratio",
    );
    put(&mut m, "net.dropped", d(|c| c.net_dropped), "count");
    put(
        &mut m,
        "net.malformed_drops",
        d(|c| c.malformed_drops),
        "count",
    );

    for (metric, span) in [
        ("monitor.ring_wf_us", "monitor.ring_wf"),
        ("monitor.ring_wf_collected_us", "monitor.ring_wf_collected"),
        ("monitor.ordering_us", "monitor.ordering"),
        (
            "monitor.ordering_collected_us",
            "monitor.ordering_collected",
        ),
        ("monitor.oscillators_us", "monitor.oscillators"),
        (
            "monitor.oscillators_collected_us",
            "monitor.oscillators_collected",
        ),
    ] {
        put(&mut m, metric, mean_us(span), "us");
    }
    let (lookups, failed) = b.ops.by_kind.get("lookup").copied().unwrap_or((0, 0));
    put(
        &mut m,
        "chord.lookups_ok_ratio",
        ratio((lookups - failed) as f64, lookups as f64),
        "ratio",
    );
    m
}

/// Bytes held in every node's durable segment log. Detaches the stores,
/// so it is the last thing read from a population.
fn durable_log_bytes(sim: &mut ParallelHarness) -> usize {
    let mut total = 0;
    for addr in sim.addrs().to_vec() {
        let catalog = sim.node_mut(&addr).catalog_mut();
        let rels = catalog.enrolled_relations().to_vec();
        if let Some(store) = catalog.take_durable() {
            total += rels.iter().map(|r| store.log_len(r)).sum::<usize>();
        }
    }
    total
}
