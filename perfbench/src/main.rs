//! The p2ql benchmark: runs one named workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <ring_monitor|forensic_incident|deploy_churn>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` set-up and window are repeated as often as
//! `--seconds` nominal seconds allow (at least five times) and the
//! end-to-end metrics, medians over the repetitions, are printed. With
//! `--trace 1` the workload runs once without and once with bench spans;
//! the per-layer metrics, the span attribution and the span overhead are
//! printed, and `--spans-out PATH` writes every span as CSV. The last
//! line is a JSON record that `run.py` turns into the benchmark's result
//! line.

mod common;
mod deploy;
mod forensic;
mod host;
mod ring_monitor;
mod run;
mod spans;
mod stats;

use common::Metric;
use run::{layer_metrics, pass, reps, Pass, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Layer coverage below which the unattributed share is printed.
const COVERAGE_FLOOR: f64 = 0.90;

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "ring_monitor",
            window_steps: ring_monitor::WINDOW_STEPS,
            rep_s: 5.0,
            setup: ring_monitor::setup,
            run: ring_monitor::run,
        },
        Workload {
            name: "forensic_incident",
            window_steps: forensic::WINDOW_STEPS,
            rep_s: 5.0,
            setup: forensic::setup,
            run: forensic::run,
        },
        Workload {
            name: "deploy_churn",
            window_steps: deploy::WINDOW_STEPS,
            rep_s: 3.0,
            setup: deploy::setup,
            run: deploy::run,
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--spans-out" => a.spans_out = Some(val()?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(a)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_counts<'a>(kv: impl Iterator<Item = (&'a str, u64)>) -> String {
    let body: Vec<String> = kv.map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn lookup(ms: &[Metric], name: &str) -> f64 {
    ms.iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// Print where the traced run's wall time (set-up and window) went and
/// return the unattributed share.
fn attribution(p: &Pass) -> f64 {
    let totals = p.bench.spans.totals();
    let window_ns = totals.get("workload").map_or(0, |t| t.total_ns) as f64;
    println!("span attribution (self time over the traced set-up and window):");
    let mut layers: Vec<(&str, u64)> = totals
        .iter()
        .filter(|(name, _)| **name != "workload")
        .map(|(name, t)| (*name, t.self_ns))
        .collect();
    layers.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    for (name, ns) in &layers {
        println!(
            "  {:<34} {:>12.3} ms {:>7.2}%",
            name,
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / window_ns
        );
    }
    let st = &p.bench.step_trace;
    let step_ms: f64 = p.bench.step_ms.iter().sum();
    let wait_ms: f64 = st.wait_ms.iter().sum();
    println!(
        "  core.step split: busiest shard's node busy time {:.3} ms, rest of the step (harness loop, routing, barrier) {:.3} ms",
        step_ms - wait_ms,
        wait_ms
    );
    let unattributed = totals.get("workload").map_or(0, |t| t.self_ns) as f64 / window_ns;
    if 1.0 - unattributed < COVERAGE_FLOOR {
        println!(
            "  unattributed                       {:>12.3} ms {:>7.2}%",
            unattributed * window_ns / 1e6,
            100.0 * unattributed
        );
    }
    unattributed
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!("perfbench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let run = |traced, budget_s, reps| {
        pass(w, args.seed, budget_s, traced, reps).map_err(|e| {
            eprintln!("perfbench: nondeterminism: {e}");
            ExitCode::from(3)
        })
    };
    let (main_pass, metrics, extra_fp) = if args.trace {
        let plain = match run(false, 0.0, 1) {
            Ok(p) => p,
            Err(code) => return code,
        };
        let mut traced = match run(true, 0.0, 1) {
            Ok(p) => p,
            Err(code) => return code,
        };
        let (a, b) = (&plain.e2e(), &traced.e2e());
        let overhead = 100.0 * (lookup(b, "step_ms_p50") / lookup(a, "step_ms_p50") - 1.0);
        println!(
            "span overhead: step_ms_p50 {:.4} -> {:.4} ms ({overhead:+.2}%), sim_rate {:.4} -> {:.4} vs/s",
            lookup(a, "step_ms_p50"),
            lookup(b, "step_ms_p50"),
            lookup(a, "sim_rate"),
            lookup(b, "sim_rate"),
        );
        let unattributed = attribution(&traced);
        let mut layer = layer_metrics(&mut traced);
        common::put(&mut layer, "unattributed_share", unattributed, "ratio");
        common::put(&mut layer, "span_overhead_pct", overhead, "%");
        if let Some(path) = &args.spans_out {
            if let Err(e) = std::fs::write(path, traced.bench.spans.to_csv()) {
                eprintln!("perfbench: cannot write spans to {path}: {e}");
                return ExitCode::from(2);
            }
        }
        let fp = plain.phase.fingerprint.clone();
        (traced, layer, Some(fp))
    } else {
        let mut p = match run(false, args.seconds, reps(w, args.seconds)) {
            Ok(p) => p,
            Err(code) => return code,
        };
        let e2e = p.e2e();
        let host = p.host_figures();
        p.report.extend(host);
        (p, e2e, None)
    };

    let p = &main_pass;
    if let Some(fp) = &extra_fp {
        if *fp != p.phase.fingerprint {
            eprintln!("perfbench: nondeterminism: traced and untraced passes did different work");
            eprintln!("  untraced {fp:?}");
            eprintln!("  traced   {:?}", p.phase.fingerprint);
            return ExitCode::from(3);
        }
    }
    print_metrics(
        if args.trace {
            "per-layer metrics:"
        } else {
            "end-to-end metrics:"
        },
        &metrics,
    );
    print_metrics("workload figures:", &p.report);
    println!(
        "repetitions {}: each a set-up and a window of {} steps of {} ms; last window and after {:.3} s",
        p.figures.len(),
        p.bench.step_ms.len(),
        p.bench.step.as_secs_f64() * 1e3,
        p.window_s,
    );
    println!("samples: install {}", p.bench.install_ms.len());
    let ops = &p.bench.ops;
    for (kind, (att, fail)) in &ops.by_kind {
        println!("ops {kind}: {att} attempted, {fail} failed");
    }
    let (attempted, failed) = (ops.attempted(), ops.failed());
    println!(
        "failed_frac {} ({failed} / {attempted})",
        stats::failed_frac(attempted, failed)
    );
    println!(
        "fingerprint {}",
        json_counts(p.phase.fingerprint.iter().copied())
    );

    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}, \
         \"report\": {}, \"fingerprint\": {}, \"shards\": {}}}",
        failed == 0 && attempted > 0 && metrics.iter().all(|m| m.value.is_finite()),
        json_metrics(&metrics),
        json_metrics(&p.report),
        json_counts(p.phase.fingerprint.iter().copied()),
        p.bench.sim.shard_count(),
    );
    println!("{line}");
    ExitCode::SUCCESS
}
