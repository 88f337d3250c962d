//! Wall-clock benchmark of the whole Sweeper reproduction.
//!
//! ```text
//! perfbench --workload <steady|outbreak|epidemic_1m> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! One workload runs in this single-threaded process. After one untimed
//! warm-up it repeats (setup, measured run) in whole cycles over the
//! workload's inputs for about `--seconds`, checks every output, prints
//! each metric as `metric <name> = <value> <unit> (n=..)` and ends with
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A wrong output prints `"correct": false` and
//! exits 1. See `README.md` next to this file.

mod epi;
mod metrics;
mod replay;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use apps::workload::Target;
use fleet::FleetConfig;
use sweeper::RecoveryMode;

use crate::epi::ArmRun;
use crate::metrics::{Metric, Table};
use crate::replay::{CallSamples, Replay, ReplayOutcome};
use crate::trace::Trace;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 32 Squid hosts under steady load, no outbreak.
    Steady,
    /// 256 Apache1 hosts through a worm outbreak, domain recovery.
    Outbreak,
    /// The four `fig9fail` arms at 1M hosts.
    Epidemic1m,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "steady" => Some(Workload::Steady),
            "outbreak" => Some(Workload::Outbreak),
            "epidemic_1m" => Some(Workload::Epidemic1m),
            _ => None,
        }
    }

    fn is_fleet(self) -> bool {
        self != Workload::Epidemic1m
    }
}

/// Workload size: `full` is the benchmark, `smoke` the tests' size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Size {
    Full,
    Smoke,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut size = Size::Full;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--size" => {
                size = match value {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(format!("--size takes full or smoke, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
    })
}

/// The fleet configuration of a fleet workload.
fn fleet_config(w: Workload, seed: u64, size: Size) -> FleetConfig {
    let base = FleetConfig::new(1, seed);
    match (w, size) {
        (Workload::Steady, Size::Full) => FleetConfig {
            hosts: 32,
            target: Target::Squid,
            arrival_rate_hz: 200.0,
            horizon_ms: 3000.0,
            outbreak_at_ms: None,
            contact_cap: 0,
            ..base
        },
        (Workload::Steady, Size::Smoke) => FleetConfig {
            hosts: 4,
            target: Target::Squid,
            arrival_rate_hz: 200.0,
            horizon_ms: 300.0,
            outbreak_at_ms: None,
            contact_cap: 0,
            ..base
        },
        (Workload::Outbreak, Size::Full) => FleetConfig {
            hosts: 256,
            arrival_rate_hz: 10.0,
            horizon_ms: 2000.0,
            producer_every: 16,
            contact_cap: 256,
            wire_delay_ms: (300.0, 500.0),
            recovery: RecoveryMode::Domain,
            ..base
        },
        (Workload::Outbreak, Size::Smoke) => FleetConfig {
            arrival_rate_hz: 10.0,
            recovery: RecoveryMode::Domain,
            ..FleetConfig::smoke(16, seed)
        },
        (Workload::Epidemic1m, _) => unreachable!("epidemic_1m is not a fleet workload"),
    }
}

fn epidemic_hosts(size: Size) -> u64 {
    match size {
        Size::Full => 1_000_000,
        Size::Smoke => 100_000,
    }
}

/// What one measured run of a workload produced.
pub enum Body {
    /// A fleet run.
    Fleet {
        /// The replay's outcome (outside the timed phase).
        out: Box<ReplayOutcome>,
        /// `poll_offer` wall samples.
        samples: CallSamples,
    },
    /// The four epidemic arms.
    Epidemic {
        /// Arm results in [`epi::ARMS`] order.
        arms: Vec<ArmRun>,
    },
}

/// One repetition: setup, then the measured run.
pub struct Rep {
    /// Seed of the repetition's inputs.
    pub seed: u64,
    /// Whether the benchmark's spans were on.
    pub traced: bool,
    /// Wall seconds of setup.
    pub setup_s: f64,
    /// Wall seconds of the measured run.
    pub run_s: f64,
    /// Spans of setup.
    pub setup_trace: Trace,
    /// Spans of the measured run.
    pub run_trace: Trace,
    /// Outputs.
    pub body: Body,
}

fn fleet_rep(cfg: &FleetConfig, traced: bool) -> Result<Rep, String> {
    let mut setup_trace = Trace::new(traced);
    let start = Instant::now();
    let mut replay = Replay::boot(cfg, &mut setup_trace, traced)?;
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    replay.run();
    let run_s = start.elapsed().as_secs_f64();
    let (out, run_trace, samples) = replay.finish();
    Ok(Rep {
        seed: cfg.seed,
        traced,
        setup_s,
        run_s,
        setup_trace,
        run_trace,
        body: Body::Fleet {
            out: Box::new(out),
            samples,
        },
    })
}

/// Times the epidemic setup (building the four arms' parameters) is
/// repeated per repetition; its median is the repetition's `setup_s`.
const EPIDEMIC_SETUPS: usize = 101;

fn epidemic_rep(hosts: u64, seed: u64, traced: bool) -> Rep {
    let setup_trace = Trace::new(traced);
    let mut setups = Vec::with_capacity(EPIDEMIC_SETUPS);
    let mut params = None;
    for _ in 0..EPIDEMIC_SETUPS {
        let start = Instant::now();
        params = Some(std::hint::black_box(epi::arm_params(
            std::hint::black_box(hosts),
            std::hint::black_box(seed),
        )));
        setups.push(start.elapsed().as_secs_f64());
    }
    let params = params.expect("at least one setup");
    let setup_s = metrics::median(&setups);
    let mut run_trace = Trace::new(traced);
    let start = Instant::now();
    let arms = epi::run_arms(&params, &mut run_trace);
    let run_s = start.elapsed().as_secs_f64();
    Rep {
        seed,
        traced,
        setup_s,
        run_s,
        setup_trace,
        run_trace,
        body: Body::Epidemic { arms },
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Epidemic arm seeds per run. Each repetition runs the four arms at
/// the next of these seeds, derived from `--seed`, so one run spans the
/// takeoff randomness of a one-host outbreak instead of one draw of it.
const EPIDEMIC_SEEDS: u64 = 8;
/// Domain tag of the epidemic arm seeds (`"pbep"`).
const DOMAIN_EPIDEMIC_SEED: u64 = 0x7062_6570;
/// Fleet repetitions before the time budget may end the run, per mode.
const MIN_FLEET_REPS: usize = 3;
/// Hard wall limit on the measuring loop, whatever `--seconds` says.
const MAX_MEASURE: Duration = Duration::from_secs(140);

/// Distinct inputs one cycle of repetitions runs.
fn inputs(w: Workload) -> usize {
    if w.is_fleet() {
        1
    } else {
        EPIDEMIC_SEEDS as usize
    }
}

/// The seed of repetition input `k`: the fleet seed is `--seed` itself;
/// the epidemic cycles through [`EPIDEMIC_SEEDS`] derived seeds.
fn input_seed(args: &Args, k: u64) -> u64 {
    if args.workload.is_fleet() {
        args.seed
    } else {
        epidemic::rng::draw(args.seed, DOMAIN_EPIDEMIC_SEED, k)
    }
}

fn rep(args: &Args, seed: u64, traced: bool) -> Result<Rep, String> {
    if args.workload.is_fleet() {
        fleet_rep(&fleet_config(args.workload, seed, args.size), traced)
    } else {
        Ok(epidemic_rep(epidemic_hosts(args.size), seed, traced))
    }
}

/// Run one untimed warm-up repetition of the first input (it faults in
/// the allocator's memory, which every later repetition reuses), then
/// repeat whole cycles over the inputs until the next cycle would end
/// past `--seconds`. With `--trace 1` every input runs twice in a row,
/// untraced then traced, so the tracing overhead is measured against the
/// same input and the same machine conditions. Returns the warm-up
/// repetition and the measured ones.
fn measure(args: &Args) -> Result<(Rep, Vec<Rep>), String> {
    let budget = Duration::from_secs_f64(args.seconds).min(MAX_MEASURE);
    let inputs = inputs(args.workload);
    let min_cycles = if args.workload.is_fleet() {
        MIN_FLEET_REPS
    } else {
        1
    };
    let per_input = if args.trace { 2 } else { 1 };
    let cycle = inputs * per_input;
    let start = Instant::now();
    let warmup = rep(args, input_seed(args, 0), false)?;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let i = reps.len();
        let traced = args.trace && i % 2 == 1;
        let seed = input_seed(args, ((i / per_input) % inputs) as u64);
        let r = rep(args, seed, traced)?;
        eprintln!(
            "rep {i:>3} seed {seed:#018x} {:<8} setup_s {:.6} run_s {:.6}",
            if traced { "traced" } else { "untraced" },
            r.setup_s,
            r.run_s
        );
        reps.push(r);
        let elapsed = start.elapsed();
        if elapsed >= MAX_MEASURE {
            break;
        }
        if reps.len().is_multiple_of(cycle) {
            let cycles = reps.len() / cycle;
            let per_cycle = elapsed / cycles as u32;
            if cycles >= min_cycles && elapsed + per_cycle > budget {
                break;
            }
        }
    }
    Ok((warmup, reps))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (warmup, reps) = match measure(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let rss = match peak_rss_mb() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    // Output checks, outside every timed region.
    let failures = if args.workload.is_fleet() {
        metrics::check_fleet(
            &fleet_config(args.workload, args.seed, args.size),
            args.workload,
            &reps,
        )
    } else {
        metrics::check_epidemic(&reps, &warmup)
    };
    let table = Table::new(args.workload, inputs(args.workload), &reps, rss);
    for m in table.named_metrics() {
        println!("metric {}", m.render());
    }
    let reported: Vec<Metric> = if args.trace {
        for line in table.layer_lines() {
            println!("{line}");
        }
        table.per_layer()
    } else {
        table.end_to_end()
    };
    for m in &reported {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            return ExitCode::from(1);
        }
    }
    for f in &failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let (attempted, failed) = table.attempted_failed();
    println!(
        "{}",
        metrics::result_json(failures.is_empty(), attempted, failed, &reported)
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
