//! End-to-end and per-layer benchmark of the nanophotonic NoC simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench spread --workload <name>
//! ```
//!
//! The first form runs one workload and prints, as its last line, one JSON
//! object with the correctness verdict and the metrics: the end-to-end set
//! with `--trace 0`, the per-layer set with `--trace 1`. It exits non-zero
//! when any correctness check fails. The second form runs the first form
//! untraced for seeds 1 to 10 at the benchmark's run length and prints each
//! metric's median, quartiles and spread.
//! See README.md beside this file.

mod layers;
mod reference;
mod report;
mod stats;
mod workloads;

use layers::Layers;
use report::{Metric, Report};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::app_replay::AppReplay;
use workloads::cmp_loop::CmpLoop;
use workloads::fault_drill::FaultDrill;
use workloads::qos_sweep::QosSweep;
use workloads::{RunRecord, Workload};

/// Workload names, in documentation order.
const WORKLOADS: [&str; 4] = ["app-replay", "qos-sweep", "cmp-closed-loop", "fault-drill"];

/// Mixed into `--seed` for the seed self-test's second seed.
const OTHER_SEED: u64 = 0x5EED_5E1F_7E57;

/// The seed of input variant `variant` of a run with `--seed seed`; variant
/// 0 is the seed itself.
fn variant_seed(seed: u64, variant: u64) -> u64 {
    if variant == 0 {
        seed
    } else {
        workloads::sub_seed(seed, 0x100 + variant)
    }
}

/// Seeds `spread` runs.
const SPREAD_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// Seconds per `spread` run: `run_seconds` in BENCHMARK.json.
const RUN_SECONDS: &str = "25";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parse `--flag value` pairs. Every flag is required except where a
/// default is given.
fn flags(args: &[String], defaults: &[(&str, &str)]) -> Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = defaults
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = out
            .iter_mut()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("unknown flag {flag}"))?;
        slot.1.clone_from(value);
    }
    if let Some((k, _)) = out.iter().find(|(_, v)| v.is_empty()) {
        return Err(format!("--{k} is required"));
    }
    Ok(out)
}

fn get<'a>(flags: &'a [(String, String)], key: &str) -> &'a str {
    &flags
        .iter()
        .find(|(k, _)| k == key)
        .expect("flag declared")
        .1
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let f = flags(
        args,
        &[
            ("workload", ""),
            ("seed", ""),
            ("seconds", ""),
            ("trace", "0"),
        ],
    )?;
    let workload = get(&f, "workload").to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get(&f, "seed")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get(&f, "seconds")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get(&f, "trace") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Tally of runs attempted and runs that failed a check.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
}

impl Verdict {
    /// Record one run (or global check) with its problems, if any.
    fn check(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("check failed: {p}");
            }
        }
    }
}

/// Checks every run must pass: the run's own, conservation of measured
/// packets, and finite outcomes.
fn run_problems(r: &RunRecord) -> Vec<String> {
    let mut problems = r.problems.clone();
    let o = &r.outcome;
    if o.delivered > o.generated {
        problems.push(format!(
            "{}: delivered {} measured packets of {} generated",
            r.label, o.delivered, o.generated
        ));
    }
    let values = [o.avg_latency, o.p99_latency, o.throughput_per_core];
    if values.iter().chain(&o.jain_worst).any(|v| !v.is_finite()) {
        problems.push(format!("{}: non-finite outcome {o:?}", r.label));
    }
    problems
}

/// Compare two passes run for run; returns one problem list per run.
fn identity_problems(what: &str, a: &[RunRecord], b: &[RunRecord]) -> Vec<Vec<String>> {
    if a.len() != b.len() {
        return vec![vec![format!("{what}: {} runs vs {}", a.len(), b.len())]];
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            if x.fingerprint == y.fingerprint {
                Vec::new()
            } else {
                vec![format!(
                    "{what}: {} differs\n  {}\n  {}",
                    x.label, x.fingerprint, y.fingerprint
                )]
            }
        })
        .collect()
}

/// Peak resident set of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// The simulated outcome of a pass, aggregated over its runs.
struct Simulated {
    /// Mean latency over every measured packet delivered, cycles.
    avg_latency: f64,
    /// Mean over runs of each run's 99th-percentile latency, cycles.
    p99_latency: f64,
    /// Mean over runs of accepted packets/cycle/core.
    throughput_per_core: f64,
    /// Mean over runs (with per-channel service counts) of the least-fair
    /// channel's Jain index.
    jain_worst: f64,
    /// Measured packets delivered / measured packets generated.
    delivered_share: f64,
}

impl Simulated {
    fn of(runs: &[RunRecord]) -> Self {
        let n = runs.len() as f64;
        let delivered: u64 = runs.iter().map(|r| r.outcome.delivered).sum();
        let generated: u64 = runs.iter().map(|r| r.outcome.generated).sum();
        let weighted_latency: f64 = runs
            .iter()
            .map(|r| r.outcome.avg_latency * r.outcome.delivered as f64)
            .sum();
        let jains: Vec<f64> = runs.iter().filter_map(|r| r.outcome.jain_worst).collect();
        let mean = |f: fn(&RunRecord) -> f64| runs.iter().map(f).sum::<f64>() / n;
        Self {
            avg_latency: weighted_latency / delivered as f64,
            p99_latency: mean(|r| r.outcome.p99_latency),
            throughput_per_core: mean(|r| r.outcome.throughput_per_core),
            jain_worst: jains.iter().sum::<f64>() / jains.len() as f64,
            delivered_share: delivered as f64 / generated as f64,
        }
    }

    /// The seed-stable part, reported end to end.
    fn end_to_end(&self) -> [Metric; 2] {
        [
            metric("sim_delivered_share", self.delivered_share, "ratio"),
            metric("sim_jain_worst", self.jain_worst, "index"),
        ]
    }

    /// The part that swings with the seed's traffic, reported with the
    /// per-layer metrics of the modelled network.
    fn per_layer(&self) -> [Metric; 3] {
        [
            metric("noc.avg_latency_cycles", self.avg_latency, "cycles"),
            metric("noc.p99_latency_cycles", self.p99_latency, "cycles"),
            metric(
                "noc.throughput_per_core",
                self.throughput_per_core,
                "pkt/cycle/core",
            ),
        ]
    }
}

/// The untraced run: end-to-end metrics.
fn end_to_end<W: Workload>(w: &W, args: &Args) -> Report {
    let mut verdict = Verdict::default();

    // Every pass sets up afresh, so `setup_s` is the median over passes,
    // taken under the same host conditions as the passes. Pass `p` sets up
    // input variant `p % VARIANTS` and must reproduce, from its own setup,
    // the results of the first pass of that variant.
    let mut setup_s = Vec::new();
    let mut set_up = |variant| {
        let t = Instant::now();
        let inputs = w.setup(variant_seed(args.seed, variant));
        let prepared = w.prepare(&inputs);
        setup_s.push(t.elapsed().as_secs_f64());
        (inputs, prepared)
    };

    // Timed passes until the budget is spent; at least one more than there
    // are variants, so the same-seed identity is always checked.
    let start = Instant::now();
    let mut firsts: Vec<workloads::Pass> = Vec::new();
    let mut untimed = Vec::new();
    let mut peak_rss = None;
    let (mut rates, mut host_rates, mut round_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed_s = 0.0;
    let mut passes = 0;
    while passes <= W::VARIANTS || start.elapsed().as_secs_f64() < args.seconds {
        let variant = passes % W::VARIANTS;
        if variant == 1 && peak_rss.is_none() {
            // The peak over the passes before the inputs first change: a
            // `nas.is` replay's memory grows with the congestion its random
            // phases cause, so a peak over all twelve `app-replay` variants
            // would be set by the rare worst of them.
            peak_rss = Some(peak_rss_mb());
        }
        let (inputs, prepared) = set_up(variant);
        let pass = w.run(&inputs, prepared);
        if passes == 0 {
            untimed = w.untimed(&inputs);
            for r in &untimed {
                verdict.check(&run_problems(r));
            }
        }
        drop(inputs);
        rates.push(pass.cycles_per_round());
        host_rates.push(pass.cycles_per_s());
        round_ms.push(1e3 * pass.clock.round_s());
        timed_s += pass.clock.timed_s;
        match firsts.get(variant as usize) {
            Some(first) => {
                for problems in identity_problems("same-seed pass", &first.runs, &pass.runs) {
                    verdict.check(&problems);
                }
            }
            None => {
                for r in &pass.runs {
                    verdict.check(&run_problems(r));
                }
                firsts.push(pass);
            }
        }
        passes += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let first_runs: Vec<RunRecord> = firsts.iter().flat_map(|p| p.runs.clone()).collect();

    // Seed self-test: a different seed must change the simulated result.
    let mut problems = Vec::new();
    if w.probe(args.seed) == w.probe(args.seed ^ OTHER_SEED) {
        problems.push("a different seed left the probe run unchanged".to_string());
    }
    verdict.check(&problems);

    let mut metrics = vec![
        metric("setup_s", stats::median(&setup_s).expect("setups ran"), "s"),
        // Per reference round rather than per second: on a shared host the
        // pass rate drifts with neighbouring load, and the reference round
        // drifts with it (see reference.rs).
        metric(
            "sim_cycles_per_ref",
            stats::median(&rates).expect("passes ran"),
            "cycles/ref",
        ),
    ];
    match peak_rss.unwrap_or_else(peak_rss_mb) {
        Ok(mb) => metrics.push(metric("peak_rss_mb", mb, "MB")),
        Err(e) => verdict.check(&[format!("peak RSS unavailable: {e}")]),
    }
    metrics.extend(Simulated::of(&[first_runs.as_slice(), &untimed].concat()).end_to_end());
    let spread = |values: &[f64]| {
        let sorted = stats::sorted(values);
        let pct = |p| stats::percentile(&sorted, p).expect("passes ran");
        format!(
            "p0 {:.4} p25 {:.4} p50 {:.4} p100 {:.4}",
            sorted[0],
            pct(25.0),
            pct(50.0),
            sorted[sorted.len() - 1]
        )
    };
    eprintln!(
        "{}: {} passes over {} input variants of {} runs (+{} untimed), {:.0}% of {:.1} s timed; per pass: simulated cycles/ref {}; cycles/s {}; reference round ms {}",
        args.workload,
        passes,
        W::VARIANTS,
        firsts[0].runs.len(),
        untimed.len(),
        100.0 * timed_s / wall_s,
        wall_s,
        spread(&rates),
        spread(&host_rates),
        spread(&round_ms)
    );
    finish(verdict, metrics)
}

/// The traced run: per-layer metrics, each driven run checked against its
/// untraced twin.
fn per_layer<W: Workload>(w: &W, args: &Args) -> Report {
    let mut verdict = Verdict::default();
    let inputs = w.setup(args.seed);
    let mut layers = Layers::default();
    let mut simulated = None;
    let start = Instant::now();
    loop {
        let pass = w.traced(&inputs, &mut layers);
        layers.passes += 1;
        simulated.get_or_insert_with(|| Simulated::of(&pass.untraced));
        let identity = identity_problems("traced vs untraced", &pass.untraced, &pass.traced);
        for (r, mut problems) in pass.traced.iter().zip(identity) {
            problems.extend(run_problems(r));
            verdict.check(&problems);
        }
        verdict.attempted += pass.untraced.len() as u64;
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    eprintln!(
        "{}: {} traced passes, tracing overhead {:.1}%",
        args.workload,
        layers.passes,
        100.0 * (layers.traced_s - layers.untraced_s) / layers.untraced_s
    );
    let mut metrics = layers.metrics();
    metrics.extend(simulated.expect("one traced pass ran").per_layer());
    finish(verdict, metrics)
}

fn finish(mut verdict: Verdict, metrics: Vec<Metric>) -> Report {
    let mut report = Report {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics,
    };
    if let Err(e) = report.validate() {
        verdict.check(&[e]);
    }
    report.correct = verdict.failed == 0;
    report.attempted = verdict.attempted;
    report.failed = verdict.failed;
    report
}

fn bench(args: &Args) -> Report {
    fn go<W: Workload>(w: &W, args: &Args) -> Report {
        if args.trace {
            per_layer(w, args)
        } else {
            end_to_end(w, args)
        }
    }
    match args.workload.as_str() {
        "app-replay" => go(&AppReplay, args),
        "qos-sweep" => go(&QosSweep, args),
        "cmp-closed-loop" => go(&CmpLoop, args),
        "fault-drill" => go(&FaultDrill, args),
        other => unreachable!("workload {other} was validated"),
    }
}

/// `spread`: run the benchmark untraced once per seed and summarize each
/// metric.
fn spread(args: &[String]) -> Result<(), String> {
    let f = flags(args, &[("workload", "")])?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    for seed in SPREAD_SEEDS {
        let out = Command::new(&exe)
            .args(["--workload", get(&f, "workload")])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", RUN_SECONDS, "--trace", "0"])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let report = Report::parse(line).map_err(|e| format!("seed {seed}: {e}"))?;
        if !out.status.success() || !report.correct {
            return Err(format!(
                "seed {seed} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        eprintln!("seed {seed}: {}", stderr.lines().last().unwrap_or_default());
        eprintln!("seed {seed}: {line}");
        reports.push(report);
    }
    println!("| metric | unit | median | q1 | q3 | (q3-q1)/median |");
    println!("|---|---|---|---|---|---|");
    for (i, m) in reports[0].metrics.iter().enumerate() {
        let values: Vec<f64> = reports.iter().map(|r| r.metrics[i].value).collect();
        let median = stats::median(&values).expect("ten runs");
        let (q1, q3) = stats::quartiles(&values).expect("ten runs");
        println!(
            "| {} | {} | {median:.6} | {q1:.6} | {q3:.6} | {:.4} |",
            m.name,
            m.unit,
            (q3 - q1) / median.abs()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        return match spread(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("spread: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = bench(&args);
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload qos-sweep --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "qos-sweep".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(
            !parse_args(&argv("--workload app-replay --seed 1 --seconds 2"))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload app-replay --seconds 1",
            "--workload app-replay --seed x --seconds 1",
            "--workload app-replay --seed 1 --seconds 0",
            "--workload app-replay --seed 1 --seconds 1 --trace 2",
            "--workload app-replay --seed 1 --seconds 1 --bogus 3",
            "--workload app-replay --seed 1 --seconds",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_metric_name_is_legal() {
        let sim = Simulated::of(&[]);
        for m in sim.per_layer().iter().chain(&sim.end_to_end()) {
            assert!(report::valid_name(&m.name), "{}", m.name);
        }
        let r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Layers::default().metrics(),
        };
        assert!(r.validate().is_ok());
    }
}
