//! `ring_monitor`: a 256-node Chord ring on two shards with the paper's
//! monitoring stack on every node, one seeded ring-link corruption in
//! the window and, in traced runs, one seeded lookup after it.

use crate::common::{link, put, warm_start, Bench, Counters, Metric, POPULATION_SEED};
use crate::run::Phase;
use crate::spans::Spans;
use p2_chord::{build_ring, issue_lookup, lookup_oracle, ChordConfig};
use p2_core::{NodeConfig, ParallelHarness};
use p2_monitor::{ring, watchpoints};
use p2_net::SimConfig;
use p2_types::{DetRng, RingId, Time, TimeDelta, Value};
use std::time::Instant;

const NODES: usize = 256;
const SHARDS: usize = 2;
/// Virtual seconds per measured step.
const STEP_MS: u64 = 500;
/// Steps of the measured window: five 10 s probe/watchpoint periods,
/// and the fewest steps whose p90 has ten samples beyond it.
pub const WINDOW_STEPS: usize = 100;
/// Virtual deadline for the lookup answer, in steps.
const DEADLINE_STEPS: usize = 10;
/// Step at which the ring-link corruption is injected.
const CORRUPT_STEP: usize = 40;

/// Build, warm-start and monitor the ring.
pub fn setup(spans: Spans) -> Bench {
    let mut sim = ParallelHarness::new(
        SimConfig::default(),
        NodeConfig::default(),
        POPULATION_SEED,
        SHARDS,
    );
    let ring = build_ring(&mut sim, NODES, &ChordConfig::default());
    let mut b = Bench::new(sim, ring, spans, TimeDelta::from_millis(STEP_MS));
    b.advance(TimeDelta::from_secs(5));
    warm_start(&mut b);
    for addr in b.ring.addrs.clone() {
        let _ = b.install(&addr, &ring::active_probe_program(2));
        let _ = b.install(&addr, &ring::passive_check_program());
        let _ = b.install(&addr, &watchpoints::suite_program(5));
        b.sim.node_mut(&addr).watch(ring::ALARM);
    }
    b.advance(TimeDelta::from_secs(20));
    b
}

/// The measured window, then one lookup checked against the oracle.
pub fn run(b: &mut Bench, seed: u64, phase: &mut Phase, _last: bool) -> Vec<Metric> {
    let mut rng = DetRng::derive(seed, "ring_monitor.inputs");
    let sorted = b.ring.live_sorted(&b.sim);
    let n = sorted.len();
    let victim_idx = rng.below(n as u64) as usize;
    let mut corrupt_at: Option<Time> = None;
    let mut detected: Option<Time> = None;
    let mut alarms_before = 0u64;
    let mut steps = 0usize;

    phase.open(b);
    while !phase.done() {
        if steps == CORRUPT_STEP {
            // Point the victim's predecessor two nodes ahead: the link the
            // §3.1.1 probes check. (A corrupted `bestSucc` is re-derived
            // from the successor table within one step here, before any
            // probe runs.)
            let victim = sorted[victim_idx].1.clone();
            let (wid, wrong) = sorted[(victim_idx + 2) % n].clone();
            b.inject(&victim, link("pred", &victim, wid, &wrong));
            corrupt_at = Some(b.sim.now());
        }
        b.step();
        steps += 1;
        for addr in b.ring.addrs.clone() {
            for (t, _) in b.sim.node_mut(&addr).take_watched(ring::ALARM) {
                match corrupt_at {
                    Some(c) if t >= c => detected = Some(detected.map_or(t, |d: Time| d.min(t))),
                    _ => alarms_before += 1,
                }
            }
        }
        phase.after_step(b, steps);
    }
    b.ops.record("detect", detected.is_some());
    let mut report: Vec<Metric> = Vec::new();
    if let (Some(c), Some(d)) = (corrupt_at, detected) {
        put(&mut report, "detect_vs", d.since(c).as_secs_f64(), "vs");
    }
    put(
        &mut report,
        "alarms_before_corruption",
        alarms_before as f64,
        "count",
    );
    if !b.spans.on() {
        return report;
    }

    // Traced runs only: one seeded multi-hop lookup from a seeded node,
    // answered within the deadline by the node the oracle names. A
    // multi-hop lookup currently sets off a duplicate-forwarding storm
    // whose cost depends on the key (from thousands to millions of
    // dispatches), far too uneven for the end-to-end runs.
    let origin = sorted[rng.below(n as u64) as usize].1.clone();
    let key = rng.ring_id();
    let want = lookup_oracle(&b.sim, &b.ring, key).map(|(_, a)| a);
    b.sim.node_mut(&origin).watch("lookupResults");
    let before = Counters::read(&b.sim).dispatches;
    let req = 1u64 << 62;
    let t = Instant::now();
    let g = b.spans.enter("chord.lookup");
    issue_lookup(&mut b.sim, &origin, key, &origin, req);
    b.spans.exit(g);
    let mut got = None;
    for _ in 0..DEADLINE_STEPS {
        b.step();
        for (_, r) in b.sim.node_mut(&origin).take_watched("lookupResults") {
            if r.get(4) == Some(&Value::Id(RingId(req))) && got.is_none() {
                got = r.get(3).and_then(Value::to_addr);
            }
        }
        if got.is_some() {
            break;
        }
    }
    let lookup_ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = got.is_some() && got == want;
    b.ops.record("lookup", ok);

    put(&mut report, "lookup_ms", lookup_ms, "ms");
    put(
        &mut report,
        "lookup_dispatches",
        (Counters::read(&b.sim).dispatches - before) as f64,
        "count",
    );
    report
}
