//! Regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `tables [table1|table2|table3|fig4|fig5|fig6|fig7|fig8|vsef|endtoend|ablation|rho|nx|community|vigilante|all]`
//!
//! Community-engine (sharded agent model) extras, not part of `all`:
//!
//! * `fig6mc|fig7mc|fig8mc [--hosts=N] [--shards=K] [--seed=S]` — the
//!   same figures regenerated by the discrete-tick community engine
//!   instead of the ODEs (bit-deterministic per seed at any `K`).
//! * `shards [--hosts=N] [--shards=K] [--seed=S]` — one large
//!   Figure-7-style run printing the per-shard counter report (hosts
//!   infected, antibodies applied, events exchanged, phase wall-clock).
//! * `speedup [--hosts=N] [--seed=S] [--out=F]` — wall-clock at K = 1 vs
//!   K = 4 shards for the same run, verifying identical outcomes. On a
//!   single-core host the wall-clock ratio is meaningless, so the line is
//!   marked `SKIPPED (1 core)` (still exit 0); either way the measured
//!   numbers are recorded in the bench JSON (default `BENCH_pr5.json`).
//! * `benchjson [--hosts=N] [--seed=S] [--out=F]` — quick fixed-iteration
//!   perf snapshot: interpreter insns/sec on all three execution tiers
//!   (interpreter / icache / icache + superblocks, tight-loop and
//!   straight-line guests), community-engine tick rates at K = 1 and
//!   K = 4, the chaos differential sweep (skipped with an explicit
//!   marker on 1-core hosts), plus the `fig9dist` distribution-network
//!   sweep and the `ckptcadence` checkpoint-overhead sweep — written
//!   machine-readably to `--out` (default `BENCH_pr10.json`, schema v9).
//!   CI runs this as a non-failing smoke step; commit the refreshed
//!   file when a PR changes performance.
//! * `fleet [--hosts=N] [--shards=K] [--seed=S] [--out=F] [--full]` —
//!   the virtual-clock fleet reactor: N guest Sweeper hosts (default
//!   1000) under open-loop Poisson load with a mid-run worm outbreak,
//!   reporting fleet-wide p50/p99/p999 benign service latency for the
//!   outbreak window vs the quiescent baseline. The run executes at 1
//!   and K reactor shards and asserts bit-equal digests (invariant
//!   I10). Writes the schema-v9 `"fleet"` block to `--out` (default
//!   `BENCH_pr10.json`); with `--full` it is attached to a fresh full
//!   snapshot instead of a fleet-only document.
//! * `fleetrecover [--hosts=N] [--shards=K] [--seed=S] [--out=F]
//!   [--full]` — the Full-vs-Domain recovery comparison on the same
//!   fleet reactor: the identical outbreak runs once with every
//!   attacked host doing whole-epoch rollback/replay (`Full`) and once
//!   with per-connection rollback domains (`Domain`, the default
//!   mode), plus a `Differential` leg running both in lockstep as a
//!   recovery oracle. Gates: Domain outbreak p999 strictly below Full,
//!   zero I12 violations (benign domains undisturbed), differential
//!   parity, and Domain digests shard-invariant. Writes the schema-v9
//!   `"recovery"` block to `--out` (default `BENCH_pr10.json`); with
//!   `--full` it is attached to a fresh full snapshot.
//! * `fig9fail [--hosts=N] [--seed=S] [--out=F] [--full]` — the
//!   million-host containment sweep on the struct-of-arrays engine:
//!   the same scanning worm with no defense, the connection-failure
//!   estimator, the antibody distribution (α = 0.1 %, γ = 10 ticks),
//!   and both. Gates on the 20k-host differential parity run (SoA ↔
//!   legacy bit-equal at K ∈ {1, 4}, invariant I11) and records the
//!   antibody-arm per-host tick rate against the PR-5 dense baseline.
//!   Writes the schema-v9 `"epidemic1m"` block to `--out` (default
//!   `BENCH_pr10.json`); with `--full` it is attached to a fresh full
//!   snapshot instead of an epidemic-only document.
//! * `sbparity` — superblock parity smoke: run a benign workload on all
//!   four guests on every execution tier and require bit-identical
//!   observable state (CI gate; exits nonzero on divergence).
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
use bench::{
    attack_timeline, checkpoint_overhead, end_to_end_gamma, table1, table2, table3, vsef_overhead,
};
use epidemic::{CommunitySweepConfig, Parallelism};
use sweeper::Config;

/// Parse `--hosts= / --shards= / --seed=` flags into a sweep config.
fn community_cfg() -> CommunitySweepConfig {
    let mut cfg = CommunitySweepConfig::default();
    for arg in std::env::args().skip(2) {
        if let Some(v) = arg.strip_prefix("--hosts=") {
            cfg.hosts = v.parse().expect("--hosts=N");
        } else if let Some(v) = arg.strip_prefix("--shards=") {
            cfg.parallelism = Parallelism::Fixed(v.parse().expect("--shards=K"));
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            cfg.seed = v.parse().expect("--seed=S");
        }
    }
    cfg
}

/// Like [`community_cfg`], but with a different default host count used
/// when no `--hosts=` flag is given (the large-run subcommands).
fn community_cfg_or(default_hosts: u64) -> CommunitySweepConfig {
    let mut cfg = community_cfg();
    if !std::env::args().skip(2).any(|a| a.starts_with("--hosts=")) {
        cfg.hosts = default_hosts;
    }
    cfg
}

/// Parse `--out=` (bench JSON path), defaulting to `BENCH_pr10.json`.
fn out_path() -> String {
    std::env::args()
        .skip(2)
        .find_map(|a| a.strip_prefix("--out=").map(str::to_string))
        .unwrap_or_else(|| "BENCH_pr10.json".to_string())
}

/// Run the quick perf pass and write the bench JSON; shared by the
/// `benchjson` and `speedup` subcommands.
fn write_bench_json(hosts: u64, seed: u64) -> bench::PerfReport {
    let report = bench::measure(hosts, seed, 100_000);
    let path = out_path();
    bench::perf::write_json(&path, &report).expect("write bench json");
    println!("wrote {path}");
    report
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
    "speedup",
    "benchjson",
    "fleet",
    "fleetrecover",
    "sbparity",
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
    "community",
    "vigilante",
    "nx",
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if !SUBCOMMANDS.contains(&which.as_str()) {
        eprintln!("tables: unknown subcommand '{which}'");
        eprintln!("known subcommands: {}", SUBCOMMANDS.join(" "));
        std::process::exit(2);
    }
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
    if which == "fig6mc" {
        println!("{}", epidemic::figure6_community(&community_cfg()).render());
    }
    if which == "fig7mc" {
        println!("{}", epidemic::figure7_community(&community_cfg()).render());
    }
    if which == "fig8mc" {
        println!("{}", epidemic::figure8_community(&community_cfg()).render());
    }
    if which == "shards" {
        let cfg = community_cfg_or(100_000);
        let (outcome, secs) = bench::model_campaign(cfg.hosts, cfg.parallelism, cfg.seed);
        println!("Figure-7-style run, sharded community engine:");
        println!("{}", outcome.shard_report());
        println!("wall-clock: {secs:.3} s\n");
    }
    if which == "speedup" {
        let cfg = community_cfg_or(100_000);
        let r = write_bench_json(cfg.hosts, cfg.seed);
        assert!(
            r.outcomes_identical,
            "shard counts must not change the outcome"
        );
        let (t1, t4) = (r.k1.wall_secs, r.k4.wall_secs);
        if r.cores <= 1 {
            println!(
                "speedup: SKIPPED (1 core) — K=1 {t1:.3} s vs K=4 {t4:.3} s recorded; \
                 wall-clock ratio needs >1 core (outcomes bit-identical, {} hosts infected)\n",
                r.k1.infected,
            );
        } else {
            println!(
                "speedup: K=1 {t1:.3} s vs K=4 {t4:.3} s -> {:.2}x (outcomes bit-identical, {} hosts infected)\n",
                r.community_speedup, r.k1.infected,
            );
        }
    }
    if which == "benchjson" {
        let cfg = community_cfg_or(20_000);
        let r = write_bench_json(cfg.hosts, cfg.seed);
        println!("{}\n", r.render());
    }
    if which == "fleet" {
        let mut hosts: u32 = 1000;
        let mut shards: usize = 2;
        let mut seed: u64 = 7;
        let mut full = false;
        for arg in std::env::args().skip(2) {
            if let Some(v) = arg.strip_prefix("--hosts=") {
                hosts = v.parse().expect("--hosts=N");
            } else if let Some(v) = arg.strip_prefix("--shards=") {
                shards = v.parse().expect("--shards=K");
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                seed = v.parse().expect("--seed=S");
            } else if arg == "--full" {
                full = true;
            }
        }
        let cfg = fleet::FleetConfig::new(hosts, seed);
        let block = bench::perf::fleet_block(&cfg, shards).expect("fleet run");
        assert!(
            block.shard_invariant,
            "reactor shard count changed the outcome digest (invariant I10)"
        );
        println!("{}\n", bench::perf::render_fleet_block(&block));
        let path = out_path();
        if full {
            // Attach the fleet block to a fresh full snapshot — the
            // committed-BENCH_pr8.json path.
            let mut r = bench::measure(20_000, seed, 100_000);
            r.fleet = Some(block);
            bench::perf::write_json(&path, &r).expect("write bench json");
        } else {
            // Fleet-only document — the fast CI `fleet-smoke` path.
            bench::perf::write_fleet_json(&path, &block).expect("write fleet json");
        }
        println!("wrote {path}");
    }
    if which == "fleetrecover" {
        let mut hosts: u32 = 1000;
        let mut shards: usize = 2;
        let mut seed: u64 = 7;
        let mut full = false;
        for arg in std::env::args().skip(2) {
            if let Some(v) = arg.strip_prefix("--hosts=") {
                hosts = v.parse().expect("--hosts=N");
            } else if let Some(v) = arg.strip_prefix("--shards=") {
                shards = v.parse().expect("--shards=K");
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                seed = v.parse().expect("--seed=S");
            } else if arg == "--full" {
                full = true;
            }
        }
        let cfg = fleet::FleetConfig::new(hosts, seed);
        let block = bench::perf::recovery_block(&cfg, shards).expect("fleet run");
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
        let path = out_path();
        if full {
            // Attach the recovery block to a fresh full snapshot — the
            // committed-BENCH_pr10.json path.
            let mut r = bench::measure(20_000, seed, 100_000);
            r.recovery = Some(block);
            bench::perf::write_json(&path, &r).expect("write bench json");
        } else {
            // Recovery-only document — the fast CI `recovery-smoke` path.
            bench::perf::write_recovery_json(&path, &block).expect("write recovery json");
        }
        println!("wrote {path}");
    }
    if which == "sbparity" {
        println!("superblock parity smoke (all guests, all execution tiers):");
        for line in bench::perf::superblock_parity_smoke() {
            println!("  {line}");
        }
        println!("sbparity: OK\n");
    }
    if which == "ckptparity" {
        println!("checkpoint parity smoke (all guests, differential engine):");
        for line in bench::perf::ckptparity_smoke() {
            println!("  {line}");
        }
        println!("ckptparity: OK\n");
    }
    if which == "ckptcadence" {
        let requests = std::env::args()
            .skip(2)
            .find_map(|a| a.strip_prefix("--requests=").map(str::to_string))
            .map_or(2000, |v| v.parse().expect("--requests=N"));
        let block = bench::perf::checkpoint_block(requests);
        println!("{}\n", bench::perf::render_checkpoint_block(&block));
    }
    if which == "fig9fail" {
        let mut hosts: u64 = 1_000_000;
        let mut seed: u64 = 7;
        let mut full = false;
        for arg in std::env::args().skip(2) {
            if let Some(v) = arg.strip_prefix("--hosts=") {
                hosts = v.parse().expect("--hosts=N");
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                seed = v.parse().expect("--seed=S");
            } else if arg == "--full" {
                full = true;
            }
        }
        let block = bench::perf::epidemic1m_block(hosts, seed);
        assert!(
            block.soa_parity,
            "SoA and legacy engines diverged under the differential gate (invariant I11)"
        );
        assert!(
            block.k_invariant,
            "shard count changed the parity-gate outcome"
        );
        println!("{}\n", bench::perf::render_epidemic_block(&block));
        let path = out_path();
        if full {
            // Attach the epidemic1m block to a fresh full snapshot —
            // the committed-BENCH_pr9.json path.
            let mut r = bench::measure(20_000, seed, 100_000);
            r.epidemic1m = Some(block);
            bench::perf::write_json(&path, &r).expect("write bench json");
        } else {
            // Epidemic-only document — the fast CI `epidemic-smoke` path.
            bench::perf::write_epidemic_json(&path, &block).expect("write epidemic json");
        }
        println!("wrote {path}");
    }
    if which == "fig9dist" {
        let cfg = community_cfg_or(2_000);
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
    if all || which == "community" {
        println!("Community defense over real Sweeper hosts (CVS unlink worm, hit-list order):");
        for (producer_every, dissemination) in [(4usize, 2usize), (10, 3), (10, 6)] {
            let cfg = bench::CampaignConfig {
                hosts: 12,
                producer_every,
                dissemination_attempts: dissemination,
                consumers_unrandomized: true,
                seed: 0xc0117,
                parallelism: epidemic::Parallelism::Auto,
            };
            let r = bench::run_campaign(cfg);
            println!("  {}", bench::community_sim::render(cfg, &r));
        }
        println!();
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
