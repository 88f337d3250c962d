//! Regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `tables [table1|table2|table3|fig4|fig5|fig6|fig7|fig8|vsef|endtoend|ablation|rho|nx|vigilante|all]`
//!
//! Community-engine (sharded tick model) extras, not part of `all`.
//! Every subcommand accepts the flags `--hosts=N --shards=K --seed=S
//! --requests=N --out=F --full` and uses the ones listed below; an
//! unknown flag exits 2 and lists the known ones. A subcommand that
//! writes JSON writes `--out` (default `target/bench.json`), so a
//! committed `BENCH_pr<N>.json` snapshot always names its file.
//!
//! * `fig6mc|fig7mc|fig8mc [--hosts=N] [--shards=K] [--seed=S]` — the
//!   same figures regenerated by the discrete-tick community engine
//!   instead of the ODEs (bit-deterministic per seed at any `K`).
//! * `shards [--hosts=N] [--shards=K] [--seed=S]` — one large
//!   Figure-7-style run printing the per-shard counter report (hosts
//!   infected, antibodies applied, events exchanged, phase wall-clock).
//! * `benchjson [--hosts=N] [--seed=S] [--out=F]` — quick fixed-iteration
//!   snapshot: the tight-loop guest's instruction and decode-cache
//!   counts with the cache off and on, the community engine's outcome
//!   at K = 1 and K = 4, the `fig9dist` distribution-network sweep and
//!   the `ckptcadence` checkpoint-overhead sweep — written
//!   machine-readably to `--out`. Asserts that K = 1 and K = 4 give the
//!   identical community outcome. No wall-clock rates: `perfbench/` is
//!   the wall-clock record. CI gates on the written document.
//! * `fleet [--hosts=N] [--shards=K] [--seed=S] [--out=F] [--full]` —
//!   the virtual-clock fleet reactor: N guest Sweeper hosts (default
//!   1000) under open-loop Poisson load with a mid-run worm outbreak,
//!   reporting fleet-wide p50/p99/p999 benign service latency for the
//!   outbreak window vs the quiescent baseline. The run executes at 1
//!   and K reactor shards and asserts bit-equal digests (invariant
//!   I10). Writes the `"fleet"` block to `--out`; with `--full` it is
//!   attached to a fresh full snapshot instead of a fleet-only document.
//! * `fleetrecover [--hosts=N] [--shards=K] [--seed=S] [--out=F]
//!   [--full]` — the Full-vs-Domain recovery comparison on the same
//!   fleet reactor: the identical outbreak runs once with every
//!   attacked host doing whole-epoch rollback/replay (`Full`) and once
//!   with per-connection rollback domains (`Domain`, the default
//!   mode), plus a `Differential` leg running both in lockstep as a
//!   recovery oracle. Gates: Domain outbreak p999 strictly below Full,
//!   zero I12 violations (benign domains undisturbed), differential
//!   parity, and Domain digests shard-invariant. Writes the
//!   `"recovery"` block to `--out`; with `--full` it is attached to a
//!   fresh full snapshot.
//! * `fig9fail [--hosts=N] [--seed=S] [--out=F] [--full]` — the
//!   million-host containment sweep on the struct-of-arrays engine:
//!   the same scanning worm with no defense, the connection-failure
//!   estimator, the antibody distribution (α = 0.1 %, γ = 10 ticks),
//!   and both. Gates on the 20k-host differential parity run (SoA ↔
//!   legacy bit-equal at K ∈ {1, 4}, invariant I11) and records each
//!   arm's outcome. Writes the `"epidemic1m"` block to `--out`; with `--full` it is
//!   attached to a fresh full snapshot instead of an epidemic-only
//!   document.
//! * `ckptparity` — checkpoint parity smoke: drive all four guests
//!   (benign load + the canonical exploit) under the differential
//!   snapshot engine and round-trip every retained checkpoint; any
//!   divergence between the incremental rebuild and the full-copy
//!   oracle fails the gate (CI tier 2; exits nonzero on divergence).
//! * `ckptcadence [--requests=N]` — print the checkpoint-overhead sweep
//!   (full vs incremental engine, 20–200 ms cadences) as a text table;
//!   the incremental 200 ms cell is the PR-7 < 1% acceptance number.
//! * `fig9dist [--hosts=N] [--seed=S]` — print the containment-vs-loss /
//!   Byzantine-fraction sweep as a text table: the community outbreak
//!   with the antibody distribution network over an increasingly lossy
//!   and adversarial wire (γ becomes emergent; see EXPERIMENTS.md).
//! * `obs` — run the canonical Squid exploit end-to-end and dump the
//!   merged observability snapshot (counters, gauges, pipeline phase
//!   spans on the virtual clock with wall-clock mirrors) human-readably.
//! * `obsjson` — the same snapshot as compact JSON (the shape embedded
//!   as the `"obs"` block of `BENCH_*.json`).

use apps::{squid, workload::Target};
use bench::perf::ToJson;
use bench::PerfReport;
use bench::{
    attack_timeline, checkpoint_overhead, end_to_end_gamma, table1, table2, table3, vsef_overhead,
};
use epidemic::{CommunitySweepConfig, Parallelism};
use sweeper::Config;

/// Every flag a subcommand may take.
const FLAGS: &str = "--hosts=N --shards=K --seed=S --requests=N --out=F --full";

/// The flags after the subcommand; `None` means the subcommand's
/// default.
#[derive(Default)]
struct Flags {
    hosts: Option<u64>,
    shards: Option<usize>,
    seed: Option<u64>,
    requests: Option<usize>,
    out: Option<String>,
    full: bool,
}

impl Flags {
    /// Parse `args`, exiting 2 on an unknown flag or a malformed value.
    fn parse(args: impl Iterator<Item = String>) -> Flags {
        let mut f = Flags::default();
        for arg in args {
            match arg.split_once('=') {
                Some(("--hosts", v)) => f.hosts = Some(value(&arg, v)),
                Some(("--shards", v)) => f.shards = Some(value(&arg, v)),
                Some(("--seed", v)) => f.seed = Some(value(&arg, v)),
                Some(("--requests", v)) => f.requests = Some(value(&arg, v)),
                Some(("--out", v)) => f.out = Some(v.to_string()),
                None if arg == "--full" => f.full = true,
                _ => usage_error(&format!("unknown flag '{arg}'"), "flags", FLAGS),
            }
        }
        f
    }

    /// The community-engine sweep config, with `default_hosts` unless
    /// `--hosts` is given.
    fn community(&self, default_hosts: u64) -> CommunitySweepConfig {
        let d = CommunitySweepConfig::default();
        CommunitySweepConfig {
            hosts: self.hosts.unwrap_or(default_hosts),
            seed: self.seed.unwrap_or(d.seed),
            parallelism: self.shards.map_or(d.parallelism, Parallelism::Fixed),
            ..d
        }
    }

    /// The seed of the fleet and `fig9fail` runs, 7 by default.
    fn run_seed(&self) -> u64 {
        self.seed.unwrap_or(7)
    }

    /// The fleet reactor config: 1000 hosts by default.
    fn fleet(&self) -> fleet::FleetConfig {
        let hosts = u32::try_from(self.hosts.unwrap_or(1000)).expect("--hosts fits in u32");
        fleet::FleetConfig::new(hosts, self.run_seed())
    }

    /// Write `doc` to `--out`, creating its directory.
    fn write(&self, doc: &str) {
        let path = std::path::Path::new(self.out.as_deref().unwrap_or("target/bench.json"));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create --out directory");
        }
        std::fs::write(path, doc).expect("write bench json");
        println!("wrote {}", path.display());
    }

    /// Write `block` under `key`: alone in a partial document, or with
    /// `--full` put in place by `attach` on a fresh full snapshot.
    fn write_block<B: ToJson>(&self, key: &'static str, block: B, attach: fn(&mut PerfReport, B)) {
        if self.full {
            let mut r = bench::measure(20_000, self.run_seed(), 100_000);
            attach(&mut r, block);
            self.write(&r.to_json());
        } else {
            self.write(&bench::perf::document(vec![(key, block.to_json())]));
        }
    }
}

/// Parse the value `v` of the flag `arg`, exiting 2 when malformed.
fn value<T: std::str::FromStr>(arg: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("bad value in '{arg}'"), "flags", FLAGS))
}

/// Report a command-line mistake and the `known` alternatives, then
/// exit 2.
fn usage_error(msg: &str, kind: &str, known: &str) -> ! {
    eprintln!("tables: {msg}");
    eprintln!("known {kind}: {known}");
    std::process::exit(2);
}

/// Every subcommand `main` dispatches on, in dispatch order.
const SUBCOMMANDS: &[&str] = &[
    "all",
    "table1",
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig6mc",
    "fig7mc",
    "fig8mc",
    "shards",
    "benchjson",
    "fleet",
    "fleetrecover",
    "ckptparity",
    "ckptcadence",
    "fig9fail",
    "fig9dist",
    "obs",
    "obsjson",
    "vsef",
    "endtoend",
    "ablation",
    "rho",
    "vigilante",
    "nx",
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if !SUBCOMMANDS.contains(&which.as_str()) {
        let msg = format!("unknown subcommand '{which}'");
        usage_error(&msg, "subcommands", &SUBCOMMANDS.join(" "));
    }
    let flags = Flags::parse(std::env::args().skip(2));
    let all = which == "all";
    if all || which == "table1" {
        println!("{}", table1());
    }
    if all || which == "table2" {
        println!("{}", table2());
    }
    if all || which == "table3" {
        println!("{}", table3());
    }
    if all || which == "fig4" {
        fig4();
    }
    if all || which == "fig5" {
        fig5();
    }
    if all || which == "fig6" {
        println!("{}", epidemic::figure6().render());
    }
    if all || which == "fig7" {
        println!("{}", epidemic::figure7().render());
    }
    if all || which == "fig8" {
        println!("{}", epidemic::figure8().render());
    }
    let mc_cfg = || flags.community(CommunitySweepConfig::default().hosts);
    if which == "fig6mc" {
        println!("{}", epidemic::figure6_community(&mc_cfg()).render());
    }
    if which == "fig7mc" {
        println!("{}", epidemic::figure7_community(&mc_cfg()).render());
    }
    if which == "fig8mc" {
        println!("{}", epidemic::figure8_community(&mc_cfg()).render());
    }
    if which == "shards" {
        let cfg = flags.community(100_000);
        let (outcome, secs) = bench::model_campaign(cfg.hosts, cfg.parallelism, cfg.seed);
        println!("Figure-7-style run, sharded community engine:");
        println!("{}", outcome.shard_report());
        println!("wall-clock: {secs:.3} s\n");
    }
    if which == "benchjson" {
        let cfg = flags.community(20_000);
        let r = bench::measure(cfg.hosts, cfg.seed, 100_000);
        assert!(
            r.community.outcomes_identical,
            "shard counts must not change the community outcome"
        );
        flags.write(&r.to_json());
        println!("{}\n", r.render());
    }
    if which == "fleet" {
        let cfg = flags.fleet();
        let block = bench::perf::fleet_block(&cfg, flags.shards.unwrap_or(2)).expect("fleet run");
        assert!(
            block.shard_invariant,
            "reactor shard count changed the outcome digest (invariant I10)"
        );
        println!("{}\n", bench::perf::render_fleet_block(&block));
        flags.write_block("fleet", block, |r, b| r.fleet = Some(b));
    }
    if which == "fleetrecover" {
        let cfg = flags.fleet();
        let block =
            bench::perf::recovery_block(&cfg, flags.shards.unwrap_or(2)).expect("fleet run");
        assert!(
            block.shard_invariant,
            "reactor shard count changed the Domain recovery digest (invariant I10)"
        );
        assert!(
            block.i12_violations == 0,
            "partial rollback disturbed a benign domain (invariant I12)"
        );
        assert!(
            block.domain_parity,
            "Differential recovery found a Domain/Full divergence"
        );
        assert!(
            block.p999_ratio < 1.0,
            "Domain recovery must beat Full on outbreak tail latency, got {:.3}x",
            block.p999_ratio
        );
        println!("{}\n", bench::perf::render_recovery_block(&block));
        flags.write_block("recovery", block, |r, b| r.recovery = Some(b));
    }
    if which == "ckptparity" {
        println!("checkpoint parity smoke (all guests, differential engine):");
        for line in bench::perf::ckptparity_smoke() {
            println!("  {line}");
        }
        println!("ckptparity: OK\n");
    }
    if which == "ckptcadence" {
        let block = bench::perf::checkpoint_block(flags.requests.unwrap_or(2000));
        println!("{}\n", bench::perf::render_checkpoint_block(&block));
    }
    if which == "fig9fail" {
        let block =
            bench::perf::epidemic1m_block(flags.hosts.unwrap_or(1_000_000), flags.run_seed());
        assert!(
            block.soa_parity,
            "SoA and legacy engines diverged under the differential gate (invariant I11)"
        );
        assert!(
            block.k_invariant,
            "shard count changed the parity-gate outcome"
        );
        println!("{}\n", bench::perf::render_epidemic_block(&block));
        flags.write_block("epidemic1m", block, |r, b| r.epidemic1m = Some(b));
    }
    if which == "fig9dist" {
        let cfg = flags.community(2_000);
        let cells = bench::perf::distnet_sweep(cfg.hosts, cfg.seed);
        println!(
            "{}",
            bench::perf::render_distnet_sweep(cfg.hosts, cfg.seed, &cells)
        );
    }
    if which == "obs" {
        println!("Observability snapshot (Squid exploit, full producer pipeline):");
        println!("{}", bench::obs_snapshot().render());
    }
    if which == "obsjson" {
        println!("{}", bench::obs_snapshot().to_json());
    }
    if all || which == "vsef" {
        let (base, vsef, overhead, sites) = vsef_overhead(200);
        println!(
            "VSEF overhead (section 5.3, Squid): baseline {base:.2} Mbps vs VSEF {vsef:.2} Mbps -> {:.2}% drop ({sites} instrumented sites)\n",
            overhead * 100.0
        );
    }
    if all || which == "endtoend" {
        println!("{}", end_to_end_gamma());
    }
    if all || which == "ablation" {
        println!("{}", bench::defense_matrix(6));
    }
    if all || which == "rho" {
        let trials = 2000;
        let (hits, rate) = bench::empirical_rho(trials, 0xabcde);
        println!(
            "Empirical ASLR bypass probability: {hits}/{trials} compromises (rate {rate:.5}; model rho = 2^-12 = {:.5})\n",
            (2.0f64).powi(-12)
        );
    }
    if all || which == "vigilante" {
        let (cpu_mult, always_on, sweeper) = bench::ablation::vigilante_comparison(120);
        println!("Vigilante-style baseline (always-on taint) vs Sweeper:");
        println!("  CPU-bound taint multiplier      : {cpu_mult:.1}x (paper band: 30-40x)");
        println!(
            "  always-on taint server overhead : {:.2}%",
            always_on * 100.0
        );
        println!(
            "  Sweeper default server overhead : {:.2}%\n",
            sweeper * 100.0
        );
    }
    if all || which == "nx" {
        let (compromised, detected) = bench::nx_ablation();
        println!(
            "NX ablation (perfect layout guess): compromised = {compromised}, detected = {detected}\n"
        );
    }
}

fn fig4() {
    println!("Figure 4: throughput overhead vs checkpoint interval (Squid, benign load)");
    println!("{:>12} {:>12}", "interval", "overhead");
    let app = squid::app().expect("app");
    for ms in [
        20.0, 30.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0,
    ] {
        let o = checkpoint_overhead(&app, Target::Squid, ms, 6000);
        println!("{:>10} ms {:>11.3}%", ms, o * 100.0);
    }
    println!();
}

fn fig5() {
    println!("Figure 5: throughput during a single attack against Squid");
    let app = squid::app().expect("app");
    let tl = attack_timeline(
        &app,
        Config::producer(17),
        Target::Squid,
        squid::exploit_crash(&app).input,
        400,
        400,
        0.02,
    );
    println!(
        "attack at {:.3}s; recovery: {} ({:.3}s pause)",
        tl.attack_secs, tl.method, tl.pause_secs
    );
    let peak = tl.mbps.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
    for (i, m) in tl.mbps.iter().enumerate() {
        let t = i as f64 * tl.bin_secs;
        let bar = "#".repeat(((m / peak) * 50.0) as usize);
        println!("{t:>7.2}s |{bar:<50}| {m:>8.2} Mbps");
    }
    println!();
}
