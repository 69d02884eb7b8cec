//! `forensic_incident`: a 48-node forensic-mode ring on one shard with a
//! subscribe-mode collector. The run phase repeats seeded successor
//! corruptions while sampling the live oracle; the query phase then asks
//! the §3.1 questions about those instants, per node and from the
//! collector; finally seeded nodes are crash-restarted from their durable
//! logs.

use crate::common::{link, put, seed_links, warm_start, Bench, Metric, POPULATION_SEED};
use crate::run::Phase;
use crate::spans::Spans;
use crate::stats::percentile;
use p2_chord::{build_ring, ring_is_ordered, ring_is_well_formed, ChordConfig};
use p2_core::{DurabilityMode, NodeConfig, ParallelHarness};
use p2_monitor::{retrospect, ring, watchpoints};
use p2_net::SimConfig;
use p2_types::{Addr, DetRng, Time, TimeDelta};
use std::time::Instant;

const NODES: usize = 48;
const STEP_MS: u64 = 500;
/// Crash-restarts, one per step after the query phase.
const RESTARTS: usize = 20;
/// First step of the corruption phase.
const PROBE_FROM: usize = 36;
/// Probe instants, one per step.
const PROBES: usize = 34;
/// A successor corruption every `CORRUPT_EVERY` steps of the probe phase.
const CORRUPT_EVERY: usize = 8;
const CORRUPTIONS: usize = PROBES.div_ceil(CORRUPT_EVERY);
/// Steps after the last probe instant: past the next 30 s collector
/// sweep (at window step 100), so shipped history covers every probe
/// instant, and enough for a window of at least 100 steps (the p90 rule).
const SETTLE: usize = 40;
/// Steps of the measured window.
pub const WINDOW_STEPS: usize = PROBE_FROM + PROBES + SETTLE;
/// Window of the oscillation question, ending at the probe instant.
const OSC_WINDOW_MS: u64 = 10_000;

/// The collector is the last node added; every ring node streams its
/// sealed history there.
fn collector(b: &Bench) -> Addr {
    b.sim.addrs().last().expect("collector added").clone()
}

/// Build the forensic ring, its collector and the monitoring stack.
pub fn setup(spans: Spans) -> Bench {
    let config = NodeConfig {
        durability: Some(DurabilityMode::default()),
        ..NodeConfig::forensic()
    };
    let mut sim = ParallelHarness::new(SimConfig::default(), config, POPULATION_SEED, 1);
    let ring = build_ring(&mut sim, NODES, &ChordConfig::default());
    let c = sim.add_node("collector");
    for addr in &ring.addrs {
        sim.node_mut(addr).ship_subscribe(c.clone());
    }
    let mut b = Bench::new(sim, ring, spans, TimeDelta::from_millis(STEP_MS));
    b.advance(TimeDelta::from_secs(5));
    warm_start(&mut b);
    // Past the first collector sweep (t = 30 s), so the monitors go onto
    // nodes that have been tracing and archiving for a while and the
    // window starts with sealed, shipped history in place.
    b.advance(TimeDelta::from_secs(30));
    for addr in b.ring.addrs.clone() {
        let _ = b.install(&addr, &ring::active_probe_program(2));
        let _ = b.install(&addr, &ring::passive_check_program());
        let _ = b.install(&addr, &watchpoints::suite_program(5));
    }
    b.advance(TimeDelta::from_secs(5));
    b
}

struct Probe {
    at: Time,
    live_wf: bool,
    live_ordered: bool,
}

/// The run phase and the query phase.
pub fn run(b: &mut Bench, seed: u64, phase: &mut Phase, last: bool) -> Vec<Metric> {
    let mut rng = DetRng::derive(seed, "forensic_incident.inputs");
    let coll = collector(b);
    let sorted = b.ring.live_sorted(&b.sim);
    // The incident is placed on the ring by the seed but shaped the same
    // for every seed: restart victims are every other non-landmark node
    // in ring order from a seeded offset (restarted in seeded order), and
    // the corruptions are evenly spaced from another seeded offset.
    let members: Vec<Addr> = sorted
        .iter()
        .map(|(_, a)| a.clone())
        .filter(|a| a != b.ring.landmark())
        .collect();
    let offset = rng.below(members.len() as u64) as usize;
    let mut victims: Vec<Addr> = (0..RESTARTS)
        .map(|k| members[(offset + 2 * k) % members.len()].clone())
        .collect();
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let corrupt_offset = rng.below(sorted.len() as u64) as usize;
    let mut probes: Vec<Probe> = Vec::new();
    let mut steps = 0usize;

    phase.open(b);
    while !phase.done() {
        let k = steps.wrapping_sub(PROBE_FROM);
        if steps >= PROBE_FROM && k.is_multiple_of(CORRUPT_EVERY) && k < PROBES {
            let n = sorted.len();
            let i = (corrupt_offset + (k / CORRUPT_EVERY) * n / CORRUPTIONS) % n;
            let victim = sorted[i].1.clone();
            let (wid, wrong) = sorted[(i + 2) % n].clone();
            b.inject(&victim, link("bestSucc", &victim, wid, &wrong));
        }
        // Probe instants are sampled after the instant's injections, so
        // the live sample and the reconstruction see the same state.
        if steps > PROBE_FROM && probes.len() < PROBES {
            let g = b.spans.enter("chord.oracle");
            let live_wf = ring_is_well_formed(&mut b.sim, &b.ring);
            let live_ordered = ring_is_ordered(&mut b.sim, &b.ring);
            b.spans.exit(g);
            probes.push(Probe {
                at: b.sim.now(),
                live_wf,
                live_ordered,
            });
        }
        b.step();
        steps += 1;
        phase.after_step(b, steps);
    }

    if !last {
        return Vec::new();
    }

    // Query phase: every question answered per node and from the
    // collector, both checked against each other and the live sample.
    let before = bestsucc_scans(&mut b.sim);
    let mut query_ms = Vec::new();
    let mut scan_rng = DetRng::derive(seed, "forensic_incident.scans");
    // The window has a fixed length (its archive and memory grow with
    // virtual time); the rest of the wall budget is spent on rounds of
    // questions.
    let mut rounds = 0;
    while rounds == 0 || !phase.budget_spent() {
        rounds += 1;
        for p in &probes {
            let t = p.at;
            let wf = timed(b, &mut query_ms, "monitor.ring_wf", |sim, ring| {
                retrospect::ring_was_well_formed_at(sim, ring, t)
            });
            let wf_c = timed(
                b,
                &mut query_ms,
                "monitor.ring_wf_collected",
                |sim, ring| retrospect::ring_was_well_formed_at_collected(sim, &coll, ring, t),
            );
            let ok = wf == wf_c && wf == p.live_wf;
            if !ok {
                eprintln!(
                    "verdict mismatch at {t}: well-formed per node {wf}, collector {wf_c}, live {}",
                    p.live_wf
                );
            }
            b.ops.record("verdict", ok);
            let ord = timed(b, &mut query_ms, "monitor.ordering", |sim, ring| {
                retrospect::ordering_violations_at(sim, ring, t)
            });
            let ord_c = timed(
                b,
                &mut query_ms,
                "monitor.ordering_collected",
                |sim, ring| retrospect::ordering_violations_at_collected(sim, &coll, ring, t),
            );
            let ok = ord == ord_c && ord.is_empty() == p.live_ordered;
            if !ok {
                eprintln!(
                "verdict mismatch at {t}: ordering violations per node {}, collector {}, live ordered {}",
                ord.len(),
                ord_c.len(),
                p.live_ordered
            );
            }
            b.ops.record("verdict", ok);
            let t0 = Time::from_millis((t.micros() / 1000).saturating_sub(OSC_WINDOW_MS));
            let osc = timed(b, &mut query_ms, "monitor.oscillators", |sim, ring| {
                retrospect::oscillators_in(sim, ring, t0, t, 2)
            });
            let osc_c = timed(
                b,
                &mut query_ms,
                "monitor.oscillators_collected",
                |sim, ring| retrospect::oscillators_in_collected(sim, &coll, ring, t0, t, 2),
            );
            if osc != osc_c {
                eprintln!(
                    "verdict mismatch at {t}: oscillators per node {osc:?}, collector {osc_c:?}"
                );
            }
            b.ops.record("verdict", osc == osc_c);
            // One direct scan of each kind per instant.
            let node = b.ring.addrs[scan_rng.below(NODES as u64) as usize].clone();
            let now = b.sim.now();
            let g = b.spans.enter("archive.scan");
            let own = b.sim.node_mut(&node).history_scan("bestSucc", t0, t, now);
            let all = b
                .sim
                .node_mut(&coll)
                .deployment_history_scan("bestSucc", t0, t, now);
            b.spans.exit(g);
            b.ops.record("scan", own.is_ok() && all.is_ok());
        }
    }
    let after = bestsucc_scans(&mut b.sim);
    b.query_segments = (after.0 - before.0, after.1 - before.1);

    // Crash-restart phase, after the questions: a restarted node keeps
    // only its sealed history, so per-node answers about earlier instants
    // would legitimately differ from the collector's.
    for v in &victims {
        b.restart(v);
        // Subscriptions are soft state: re-enroll the reborn origin, and
        // re-seed its neighbour links as set-up did, so it rejoins without
        // a join lookup (see the lookup storm in README.md).
        b.sim.node_mut(v).ship_subscribe(coll.clone());
        seed_links(b, v);
        b.step();
    }

    let mut report: Vec<Metric> = Vec::new();
    let q = |p| percentile(&query_ms, p).unwrap_or(f64::NAN);
    put(&mut report, "query_ms_p50", q(50.0), "ms");
    put(&mut report, "query_ms_p90", q(90.0), "ms");
    let restart_ms: Vec<f64> = b.restarts.wall_s.iter().map(|s| s * 1e3).collect();
    put(
        &mut report,
        "restart_ms_p50",
        percentile(&restart_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    report
}

/// Time one question, as a span and as a query sample.
fn timed<T>(
    b: &mut Bench,
    samples: &mut Vec<f64>,
    span: &'static str,
    f: impl FnOnce(&mut ParallelHarness, &p2_chord::ChordRing) -> T,
) -> T {
    let g = b.spans.enter(span);
    let t = Instant::now();
    let r = f(&mut b.sim, &b.ring);
    samples.push(t.elapsed().as_secs_f64() * 1e3);
    b.spans.exit(g);
    r
}

/// `(pruned segments, segments visited)` of `bestSucc` history scans so
/// far, summed over the population; a scan visits every sealed segment.
fn bestsucc_scans(sim: &mut ParallelHarness) -> (u64, u64) {
    let mut pruned = 0;
    let mut visited = 0;
    for addr in sim.addrs().to_vec() {
        for (rel, a) in sim.node_mut(&addr).catalog_mut().archive_stats() {
            if rel == "bestSucc" {
                pruned += a.pruned_segments;
                visited += a.scans * a.segments;
            }
        }
    }
    (pruned, visited)
}
