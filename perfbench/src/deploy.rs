//! `deploy_churn`: the paper's 21-node testbed, with monitors deployed
//! piecemeal on-line (§1.3, Figs 4–5). The workload cycles through the §3
//! monitor programs and the Fig-4 periodic / Fig-5 piggy-backed rule
//! sets, installing each on every node, running ten virtual seconds,
//! then uninstalling it.
//!
//! Two §3 programs are left out of the cycle: the consistency probes
//! issue Chord lookups, and every multi-hop lookup currently sets off a
//! duplicate-forwarding storm (see README.md), which at a 2 s probe rate
//! stalls the run for tens of seconds; the profiling walk needs
//! tracer tables, so it only installs on traced nodes.

use crate::common::{warm_start, Bench, Metric, POPULATION_SEED};
use crate::run::Phase;
use crate::spans::Spans;
use p2_chord::{build_ring, ChordConfig};
use p2_core::{NodeConfig, ParallelHarness, ProgramId};
use p2_monitor::{ordering, oscillation, ring, snapshot, watchpoints};
use p2_net::SimConfig;
use p2_types::{DetRng, TimeDelta};

const NODES: usize = 21;
const STEP_MS: u64 = 500;
/// Measured steps a rule set stays installed: 10 virtual seconds, the
/// longest Chord timer period, so every set runs through the same Chord
/// timer phases whatever the order.
const HOLD_STEPS: usize = 20;
/// Steps of the measured window: two full cycles through the 13 rule
/// sets.
pub const WINDOW_STEPS: usize = 2 * 13 * HOLD_STEPS;

/// Fig. 4: `n` rules with a private 1 s timer each.
fn periodic_rules(n: usize) -> String {
    (0..n)
        .map(|i| format!("f4r{i} result@NAddr() :- periodic@NAddr(E, 1).\n"))
        .collect()
}

/// Fig. 5: `n` rules sharing one 1 s timer, each with a state lookup.
fn piggyback_rules(n: usize) -> String {
    let mut out = String::from("f5drv f5ev@NAddr() :- periodic@NAddr(E, 1).\n");
    for i in 0..n {
        out.push_str(&format!(
            "f5r{i} result@NAddr() :- f5ev@NAddr(), bestSucc@NAddr(SID, SAddr).\n"
        ));
    }
    out
}

/// The rule sets the workload cycles through, each a list of programs.
fn rule_sets() -> Vec<Vec<String>> {
    let mut sets = vec![
        vec![ring::active_probe_program(2), ring::passive_check_program()],
        vec![
            ordering::opportunistic_program(),
            ordering::traversal_program(),
        ],
        vec![oscillation::full_program()],
        vec![
            snapshot::backpointer_program(),
            snapshot::snapshot_program(),
        ],
        vec![watchpoints::suite_program(5)],
    ];
    for n in [10, 50, 100, 250] {
        sets.push(vec![periodic_rules(n)]);
        sets.push(vec![piggyback_rules(n)]);
    }
    sets
}

/// Build and warm the 21-node ring.
pub fn setup(spans: Spans) -> Bench {
    let mut sim = ParallelHarness::new(
        SimConfig::default(),
        NodeConfig::default(),
        POPULATION_SEED,
        1,
    );
    let ring = build_ring(&mut sim, NODES, &ChordConfig::default());
    let mut b = Bench::new(sim, ring, spans, TimeDelta::from_millis(STEP_MS));
    b.advance(TimeDelta::from_secs(5));
    warm_start(&mut b);
    // One set deployed and removed during set-up, so the window starts
    // with every monitor relation already known to the catalogs.
    for set in rule_sets() {
        deploy(&mut b, &set, |b| b.advance(TimeDelta::from_millis(STEP_MS)));
    }
    b.advance(TimeDelta::from_secs(20));
    b
}

/// Install `set` on every node, run `hold`, uninstall it again.
fn deploy(b: &mut Bench, set: &[String], hold: impl FnOnce(&mut Bench)) {
    let addrs = b.ring.addrs.clone();
    let mut installed: Vec<(usize, Vec<ProgramId>)> = Vec::new();
    for addr in &addrs {
        let before = b.sim.node(addr).strand_count();
        let mut pids = Vec::new();
        for src in set {
            if let Ok(pid) = b.install(addr, src) {
                pids.push(pid);
            }
        }
        installed.push((before, pids));
    }
    hold(b);
    for (addr, (before, pids)) in addrs.iter().zip(installed) {
        for (i, pid) in pids.iter().enumerate() {
            // The node's strand count is back to its pre-install value
            // once the set's last program is gone.
            let bound = if i + 1 == pids.len() {
                before
            } else {
                usize::MAX
            };
            b.uninstall(addr, *pid, bound);
        }
    }
}

/// The measured window: seeded cycles over the rule sets.
pub fn run(b: &mut Bench, seed: u64, phase: &mut Phase, _last: bool) -> Vec<Metric> {
    let mut rng = DetRng::derive(seed, "deploy_churn.inputs");
    let sets = rule_sets();
    let mut order: Vec<usize> = Vec::new();
    let mut steps = 0usize;
    phase.open(b);
    while !phase.done() {
        if order.is_empty() {
            order = (0..sets.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let set = order.pop().expect("refilled above");
        deploy(b, &sets[set], |b| {
            for _ in 0..HOLD_STEPS {
                b.step();
                steps += 1;
                phase.after_step(b, steps);
            }
        });
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_sets_parse() {
        for set in rule_sets() {
            for src in set {
                p2_overlog::compile(&src).expect("rule set compiles");
            }
        }
    }
}
