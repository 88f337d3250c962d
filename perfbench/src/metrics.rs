//! Metric definitions, output checks and the result line.

use crate::epi::{ArmRun, ARMS};
use crate::replay::PIPELINE_PHASES;
use crate::trace::Key;
use crate::{Body, Rep, Workload};
use fleet::FleetConfig;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }

    /// `name = value unit (n=..)`.
    pub fn render(&self) -> String {
        format!(
            "{} = {} {} (n={})",
            self.name, self.value, self.unit, self.n
        )
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile `q` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (mean of the middle pair when even; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// Everything the metrics are computed from.
pub struct Table<'a> {
    workload: Workload,
    /// Distinct inputs a cycle runs.
    inputs: usize,
    untraced: Vec<&'a Rep>,
    traced: Vec<&'a Rep>,
    rss_mb: f64,
}

impl<'a> Table<'a> {
    /// Split `reps` (whole cycles over `inputs` inputs) by tracing mode.
    pub fn new(workload: Workload, inputs: usize, reps: &'a [Rep], rss_mb: f64) -> Table<'a> {
        Table {
            workload,
            inputs,
            untraced: reps.iter().filter(|r| !r.traced).collect(),
            traced: reps.iter().filter(|r| r.traced).collect(),
            rss_mb,
        }
    }

    fn first(&self) -> &'a Rep {
        self.untraced[0]
    }

    /// Benign `poll_offer` wall samples (fleet) or community tick wall
    /// times (epidemic) of every untraced repetition, µs.
    fn step_samples_us(&self) -> Vec<f64> {
        let mut all = Vec::new();
        for rep in &self.untraced {
            match &rep.body {
                Body::Fleet { samples, .. } => all.extend_from_slice(&samples.served_us),
                Body::Epidemic { arms } => all.extend(arms.iter().flat_map(|a| {
                    a.outcome
                        .tick_stats
                        .iter()
                        .map(|t| t.wall_nanos as f64 / 1e3)
                })),
            }
        }
        all
    }

    /// Work items of one repetition: benign requests served (fleet) or
    /// community ticks simulated (epidemic).
    fn steps(rep: &Rep) -> f64 {
        match &rep.body {
            Body::Fleet { out, .. } => out.benign_served as f64,
            Body::Epidemic { arms } => arms.iter().map(|a| a.outcome.ticks as f64).sum(),
        }
    }

    fn pooled(&self, pick: impl Fn(&crate::replay::CallSamples) -> &Vec<f64>) -> Vec<f64> {
        let mut all = Vec::new();
        for rep in &self.untraced {
            if let Body::Fleet { samples, .. } = &rep.body {
                all.extend_from_slice(pick(samples));
            }
        }
        all
    }

    /// `(attempted, failed)` operations of one repetition.
    ///
    /// Fleet: benign requests offered, exploit deliveries and bundles
    /// delivered are attempted; a benign request that was not served, a
    /// delivery that compromised its host and a rejected bundle failed.
    /// Epidemic: each arm run is attempted; an arm whose outcome differs
    /// from the first repetition's failed.
    pub fn attempted_failed(&self) -> (u64, u64) {
        match &self.first().body {
            Body::Fleet { out, .. } => (
                out.benign_offered + out.worm_offered + out.bundles_delivered,
                (out.benign_offered - out.benign_served) + out.compromised + out.bundles_rejected,
            ),
            Body::Epidemic { .. } => {
                let all: Vec<&Rep> = self.untraced.iter().chain(&self.traced).copied().collect();
                let mut attempted = 0;
                let mut failed = 0;
                for rep in &all {
                    let reference = reference_fingerprints(&all, rep.seed);
                    for (i, f) in fingerprints(rep).iter().enumerate() {
                        attempted += 1;
                        failed += u64::from(reference.get(i) != Some(f));
                    }
                }
                (attempted, failed)
            }
        }
    }

    /// The end-to-end metrics: the `--trace 0` result, every workload.
    ///
    /// Timings are medians over cycles of the cycle's mean: a cycle runs
    /// every input once (one repetition on a fleet, the eight seeds on
    /// the epidemic), so the median never picks one input's repetition.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let cycles: Vec<&[&Rep]> = self.untraced.chunks_exact(self.inputs).collect();
        let n = cycles.len();
        let per_cycle = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
            cycles
                .iter()
                .map(|c| mean(c.iter().map(|r| f(r))))
                .collect()
        };
        let setup = per_cycle(&|r| r.setup_s);
        let run = per_cycle(&|r| r.run_s);
        let rate: Vec<f64> = per_cycle(&Self::steps)
            .iter()
            .zip(&run)
            .map(|(steps, run)| ratio(*steps, *run))
            .collect();
        let steps = self.step_samples_us();
        let (attempted, failed) = self.attempted_failed();
        vec![
            Metric::new("setup_s", median(&setup), "s", n),
            Metric::new("run_s", median(&run), "s", n),
            Metric::new("steps_per_s", median(&rate), "1/s", n),
            Metric::new(
                "step_wall_us_p99",
                percentile(&steps, 0.99),
                "us",
                steps.len(),
            ),
            Metric::new("peak_rss_mb", self.rss_mb, "MB", 1),
            Metric::new(
                "ok_frac",
                1.0 - ratio(failed as f64, attempted as f64),
                "ratio",
                attempted as usize,
            ),
        ]
    }

    /// The end-to-end metrics under the names of the benchmark's
    /// definition, the ones that apply to this workload; printed as
    /// `metric` lines in both modes.
    pub fn named_metrics(&self) -> Vec<Metric> {
        let e2e = self.end_to_end();
        let get = |name: &str| e2e.iter().find(|m| m.name == name).cloned();
        let mut out: Vec<Metric> = ["setup_s", "run_s"].iter().filter_map(|n| get(n)).collect();
        let (attempted, failed) = self.attempted_failed();
        match &self.first().body {
            Body::Fleet { out: o, .. } => {
                let served = self.pooled(|s| &s.served_us);
                let renamed = |from: &str, to: &str, unit: &'static str| {
                    get(from).map(|m| Metric::new(to, m.value, unit, m.n))
                };
                out.extend(renamed("steps_per_s", "benign_rps", "req/s"));
                out.push(Metric::new(
                    "serve_wall_us_p50",
                    percentile(&served, 0.5),
                    "us",
                    served.len(),
                ));
                out.extend(renamed("step_wall_us_p99", "serve_wall_us_p99", "us"));
                if self.workload == Workload::Outbreak {
                    let rec = self.pooled(|s| &s.recover_us);
                    let ana = self.pooled(|s| &s.analysis_us);
                    out.push(Metric::new(
                        "recover_wall_ms_p50",
                        percentile(&rec, 0.5) / 1e3,
                        "ms",
                        rec.len(),
                    ));
                    out.push(Metric::new(
                        "recover_wall_ms_p90",
                        percentile(&rec, 0.9) / 1e3,
                        "ms",
                        rec.len(),
                    ));
                    out.push(Metric::new(
                        "analysis_wall_ms_p50",
                        percentile(&ana, 0.5) / 1e3,
                        "ms",
                        ana.len(),
                    ));
                }
                out.push(Metric::new("peak_rss_mb", self.rss_mb, "MB", 1));
                out.push(Metric::new(
                    "fail_frac",
                    ratio(failed as f64, attempted as f64),
                    "ratio",
                    attempted as usize,
                ));
                let book = if self.workload == Workload::Outbreak {
                    &o.outbreak
                } else {
                    &o.quiescent
                };
                out.push(Metric::new(
                    "benign_p99_vms",
                    book.percentile(0.99).unwrap_or(0.0),
                    "vms",
                    book.len(),
                ));
                if self.workload == Workload::Outbreak {
                    let total = analysis_vms(o);
                    out.push(Metric::new(
                        "analysis_vms_p50",
                        percentile(&total, 0.5),
                        "vms",
                        total.len(),
                    ));
                    out.push(Metric::new(
                        "protected_frac",
                        ratio(f64::from(o.protected_hosts), f64::from(o.hosts)),
                        "ratio",
                        o.hosts as usize,
                    ));
                }
            }
            Body::Epidemic { .. } => {
                out.push(Metric::new("peak_rss_mb", self.rss_mb, "MB", 1));
                out.push(Metric::new(
                    "fail_frac",
                    ratio(failed as f64, attempted as f64),
                    "ratio",
                    attempted as usize,
                ));
                let contained = self.contained_fracs();
                out.push(Metric::new(
                    "contained_frac",
                    median(&contained),
                    "ratio",
                    contained.len(),
                ));
            }
        }
        out
    }

    /// The antibody arm's infected share of each untraced repetition.
    fn contained_fracs(&self) -> Vec<f64> {
        self.untraced
            .iter()
            .filter_map(|r| match &r.body {
                Body::Epidemic { arms } => Some(arms[2].outcome.infection_ratio),
                Body::Fleet { .. } => None,
            })
            .collect()
    }

    /// Mean per traced repetition of a per-rep quantity.
    fn traced_mean(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        mean(self.traced.iter().map(|r| f(r)))
    }

    /// Mean µs per call of `key` over the traced repetitions.
    fn per_call_us(&self, key: Key, setup: bool) -> f64 {
        let (ns, calls) = self.traced.iter().fold((0u64, 0u64), |(ns, c), r| {
            let t = if setup { &r.setup_trace } else { &r.run_trace };
            (ns + t.nanos(key), c + t.calls(key))
        });
        ratio(ns as f64 / 1e3, calls as f64)
    }

    fn calls_per_rep(&self, key: Key) -> f64 {
        self.traced_mean(|r| r.run_trace.calls(key) as f64)
    }

    fn layer_self_s(&self, layer: &str, setup: bool) -> f64 {
        self.traced_mean(|r| {
            let t = if setup { &r.setup_trace } else { &r.run_trace };
            t.layer_self_nanos()
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or(0.0, |(_, ns)| *ns as f64 / 1e9)
        })
    }

    fn residual_s(&self, setup: bool) -> f64 {
        self.traced_mean(|r| {
            let (t, total) = if setup {
                (&r.setup_trace, r.setup_s)
            } else {
                (&r.run_trace, r.run_s)
            };
            total - t.covered_nanos() as f64 / 1e9
        })
    }

    /// Layer shares of the traced `run_s` and `setup_s`, one line each,
    /// with the check that self times plus residual sum to the total.
    pub fn layer_lines(&self) -> Vec<String> {
        let run = self.traced_mean(|r| r.run_s);
        let setup = self.traced_mean(|r| r.setup_s);
        let mut lines = vec![format!(
            "layers ({} traced reps; self seconds and share of traced run_s / setup_s)",
            self.traced.len()
        )];
        let mut sum_run = 0.0;
        let mut sum_setup = 0.0;
        for layer in LAYERS {
            let (r, s) = (
                self.layer_self_s(layer, false),
                self.layer_self_s(layer, true),
            );
            sum_run += r;
            sum_setup += s;
            lines.push(format!(
                "layer {layer:<9} run {r:>10.6} s {:>6.2}%   setup {s:>10.6} s {:>6.2}%",
                100.0 * ratio(r, run),
                100.0 * ratio(s, setup)
            ));
        }
        let (rr, rs) = (self.residual_s(false), self.residual_s(true));
        lines.push(format!(
            "layer {:<9} run {rr:>10.6} s {:>6.2}%   setup {rs:>10.6} s {:>6.2}%",
            "residual",
            100.0 * ratio(rr, run),
            100.0 * ratio(rs, setup)
        ));
        lines.push(format!(
            "layer {:<9} run {:>10.6} s (traced run_s {run:.6} s)   setup {:>10.6} s (traced setup_s {setup:.6} s)",
            "sum",
            sum_run + rr,
            sum_setup + rs
        ));
        lines
    }

    /// The per-layer metrics: the `--trace 1` result, every workload
    /// (0 where a layer does no work on it).
    pub fn per_layer(&self) -> Vec<Metric> {
        let n = self.traced.len();
        let mut v: Vec<Metric> = Vec::new();
        let mut push = |name: &str, value: f64| {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| panic!("metric {name} is not in PER_LAYER"), |(_, u)| *u);
            v.push(Metric::new(name, value, unit, n));
        };

        // sweeper
        push(
            "sweeper.protect.wall_us",
            self.per_call_us(Key::Protect, true),
        );
        for (key, class) in [
            (Key::PollServed, "served"),
            (Key::PollFiltered, "filtered"),
            (Key::PollRecover, "recover"),
            (Key::PollAnalysis, "analysis"),
        ] {
            push(
                &format!("sweeper.poll_offer.{class}.wall_us"),
                self.per_call_us(key, false),
            );
            push(
                &format!("sweeper.poll_offer.{class}.count"),
                self.calls_per_rep(key),
            );
        }
        push(
            "sweeper.drain_precopy.wall_us",
            self.per_call_us(Key::Drain, false),
        );
        push(
            "sweeper.drain_precopy.count",
            self.calls_per_rep(Key::Drain),
        );
        push(
            "sweeper.certify_antibody.wall_us",
            self.per_call_us(Key::Certify, false),
        );
        push(
            "sweeper.receive_certified.wall_us",
            self.per_call_us(Key::Receive, false),
        );
        let rec = self.pooled(|s| &s.recover_us);
        let ana = self.pooled(|s| &s.analysis_us);
        push("sweeper.recover_wall_ms_p50", percentile(&rec, 0.5) / 1e3);
        push("sweeper.recover_wall_ms_p90", percentile(&rec, 0.9) / 1e3);
        push("sweeper.analysis_wall_ms_p50", percentile(&ana, 0.5) / 1e3);
        for layer in LAYERS {
            push(
                &format!("{layer}.run_self_s"),
                self.layer_self_s(layer, false),
            );
        }
        for layer in ["apps", "sweeper", "fleet"] {
            push(
                &format!("{layer}.setup_self_s"),
                self.layer_self_s(layer, true),
            );
        }

        // Deterministic counters: from the first repetition.
        let fleet = match &self.first().body {
            Body::Fleet { out, samples } => Some((out, samples)),
            Body::Epidemic { .. } => None,
        };
        let c = |name: &str| fleet.map_or(0.0, |(o, _)| o.metrics.counter(name) as f64);
        let requests = fleet.map_or(0.0, |(o, _)| (o.served + o.filtered + o.attacks) as f64);
        push("svm.insns_per_req", ratio(c("svm.insns_retired"), requests));
        push(
            "svm.syscalls_per_req",
            ratio(c("svm.syscalls_retired"), requests),
        );
        push(
            "svm.icache_hit_ratio",
            ratio(
                c("svm.icache.hits"),
                c("svm.icache.hits") + c("svm.icache.misses"),
            ),
        );
        push(
            "svm.sb_insn_share",
            ratio(c("svm.superblock.insns"), c("svm.insns_retired")),
        );
        push(
            "svm.mapped_pages_per_host",
            fleet.map_or(0.0, |(o, _)| o.mapped_pages_per_host),
        );
        push("checkpoint.takes", c("checkpoint.taken_total"));
        push(
            "checkpoint.pages_copied_per_take",
            ratio(
                c("checkpoint.pages_copied_total"),
                c("checkpoint.taken_total"),
            ),
        );
        push(
            "checkpoint.dedupe_hit_ratio",
            ratio(
                c("checkpoint.dedupe_hits"),
                c("checkpoint.dedupe_hits") + c("checkpoint.store_inserted"),
            ),
        );
        let drains = self.calls_per_rep(Key::Drain);
        push(
            "checkpoint.pages_drained_per_call",
            ratio(
                self.traced_mean(|r| match &r.body {
                    Body::Fleet { samples, .. } => samples.drained_pages as f64,
                    Body::Epidemic { .. } => 0.0,
                }),
                drains,
            ),
        );
        push(
            "checkpoint.domain_rollbacks",
            c("checkpoint.domain_rollbacks"),
        );
        push(
            "checkpoint.domain_fallbacks",
            c("recovery.domain_fallbacks"),
        );
        push(
            "checkpoint.domain_pages_restored_per_rollback",
            ratio(
                c("checkpoint.domain_pages_restored"),
                c("checkpoint.domain_rollbacks"),
            ),
        );
        push("checkpoint.proxy_conns_logged", c("proxy.conns_logged"));

        // analysis / dbi: wall mirrors per analysis, traced reps.
        let analyses = self.calls_per_rep(Key::PollAnalysis);
        for (i, phase) in PIPELINE_PHASES.iter().enumerate() {
            let ms = self.traced_mean(|r| r.run_trace.pipeline_nanos[i] as f64 / 1e6);
            let short = phase.trim_start_matches("pipeline.");
            push(&format!("analysis.{short}.wall_ms"), ratio(ms, analyses));
        }
        push(
            "analysis.vms_p50",
            fleet.map_or(0.0, |(o, _)| percentile(&analysis_vms(o), 0.5)),
        );
        push("dbi.auto_detached_total", c("dbi.auto_detached_total"));

        // antibody
        push(
            "antibody.bundles_deployed",
            fleet.map_or(0.0, |(o, _)| o.bundles_deployed as f64),
        );
        push(
            "antibody.bundles_rejected",
            fleet.map_or(0.0, |(o, _)| o.bundles_rejected as f64),
        );
        push("antibody.vsefs_deployed", c("sweeper.deployed_vsefs"));
        push(
            "antibody.protected_frac",
            fleet.map_or(0.0, |(o, _)| {
                ratio(f64::from(o.protected_hosts), f64::from(o.hosts))
            }),
        );

        // fleet
        push(
            "fleet.reactor.events",
            fleet.map_or(0.0, |(o, _)| o.events as f64),
        );
        push(
            "fleet.reactor.schedule.wall_ns",
            1e3 * self.per_call_us(Key::Schedule, false),
        );
        push(
            "fleet.reactor.pop.wall_ns",
            1e3 * self.per_call_us(Key::Pop, false),
        );
        push(
            "fleet.queue_depth_max",
            fleet.map_or(0.0, |(o, _)| o.queue_depth_max as f64),
        );
        let host_calls = self.traced_mean(|r| {
            [
                Key::PollServed,
                Key::PollFiltered,
                Key::PollRecover,
                Key::PollAnalysis,
                Key::Drain,
                Key::Certify,
                Key::Receive,
            ]
            .iter()
            .map(|k| r.run_trace.nanos(*k) as f64 / 1e9)
            .sum()
        });
        push(
            "fleet.loop_self_s",
            if self.workload.is_fleet() {
                self.traced_mean(|r| r.run_s) - host_calls
            } else {
                0.0
            },
        );
        push(
            "fleet.benign_p99_vms",
            fleet.map_or(0.0, |(o, _)| {
                let book = if self.workload == Workload::Outbreak {
                    &o.outbreak
                } else {
                    &o.quiescent
                };
                book.percentile(0.99).unwrap_or(0.0)
            }),
        );

        // epidemic: per arm, traced reps for wall time.
        fn arms_of(r: &Rep) -> Option<&[ArmRun]> {
            match &r.body {
                Body::Epidemic { arms } => Some(arms.as_slice()),
                Body::Fleet { .. } => None,
            }
        }
        let first_arms = arms_of(self.first());
        for (i, arm) in ARMS.iter().enumerate() {
            let wall = self.traced_mean(|r| arms_of(r).map_or(0.0, |a| a[i].wall_s));
            let o = first_arms.map(|a| &a[i]);
            let ticks = o.map_or(0.0, |a| a.outcome.ticks as f64);
            let hosts = o.map_or(0.0, |a| {
                a.outcome.shard_stats.iter().map(|s| s.hosts as f64).sum()
            });
            push(&format!("epidemic.{arm}.wall_s"), wall);
            push(&format!("epidemic.{arm}.ticks"), ticks);
            push(
                &format!("epidemic.{arm}.host_ticks_per_s"),
                ratio(hosts * ticks, wall),
            );
            push(
                &format!("epidemic.{arm}.infected"),
                o.map_or(0.0, |a| a.outcome.infected as f64),
            );
            push(
                &format!("epidemic.{arm}.failest_suppressed"),
                o.map_or(0.0, |a| a.suppressed() as f64),
            );
        }
        push("epidemic.contained_frac", median(&self.contained_fracs()));

        // trace
        let traced_run = self.traced_mean(|r| r.run_s);
        let untraced_run = mean(self.untraced.iter().map(|r| r.run_s));
        push("trace.run_s", traced_run);
        push("trace.setup_s", self.traced_mean(|r| r.setup_s));
        push("trace.overhead_s", traced_run - untraced_run);
        push("trace.residual_s", self.residual_s(false));
        push("trace.setup_residual_s", self.residual_s(true));
        v
    }
}

/// The layers self time is attributed to (crates), in report order.
pub const LAYERS: [&str; 5] = ["apps", "sweeper", "fleet", "epidemic", "analysis"];

/// Virtual ms of each analysis's `pipeline.total` span (Table 3).
fn analysis_vms(o: &crate::replay::ReplayOutcome) -> Vec<f64> {
    o.metrics
        .spans_named("pipeline.total")
        .map(|s| s.ms())
        .collect()
}

/// Every per-layer metric's `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sweeper.protect.wall_us", "us"),
    ("sweeper.poll_offer.served.wall_us", "us"),
    ("sweeper.poll_offer.served.count", "count"),
    ("sweeper.poll_offer.filtered.wall_us", "us"),
    ("sweeper.poll_offer.filtered.count", "count"),
    ("sweeper.poll_offer.recover.wall_us", "us"),
    ("sweeper.poll_offer.recover.count", "count"),
    ("sweeper.poll_offer.analysis.wall_us", "us"),
    ("sweeper.poll_offer.analysis.count", "count"),
    ("sweeper.drain_precopy.wall_us", "us"),
    ("sweeper.drain_precopy.count", "count"),
    ("sweeper.certify_antibody.wall_us", "us"),
    ("sweeper.receive_certified.wall_us", "us"),
    ("sweeper.recover_wall_ms_p50", "ms"),
    ("sweeper.recover_wall_ms_p90", "ms"),
    ("sweeper.analysis_wall_ms_p50", "ms"),
    ("apps.run_self_s", "s"),
    ("sweeper.run_self_s", "s"),
    ("fleet.run_self_s", "s"),
    ("epidemic.run_self_s", "s"),
    ("analysis.run_self_s", "s"),
    ("apps.setup_self_s", "s"),
    ("sweeper.setup_self_s", "s"),
    ("fleet.setup_self_s", "s"),
    ("svm.insns_per_req", "insns"),
    ("svm.syscalls_per_req", "count"),
    ("svm.icache_hit_ratio", "ratio"),
    ("svm.sb_insn_share", "ratio"),
    ("svm.mapped_pages_per_host", "pages"),
    ("checkpoint.takes", "count"),
    ("checkpoint.pages_copied_per_take", "pages"),
    ("checkpoint.dedupe_hit_ratio", "ratio"),
    ("checkpoint.pages_drained_per_call", "pages"),
    ("checkpoint.domain_rollbacks", "count"),
    ("checkpoint.domain_fallbacks", "count"),
    ("checkpoint.domain_pages_restored_per_rollback", "pages"),
    ("checkpoint.proxy_conns_logged", "count"),
    ("analysis.memory_state.wall_ms", "ms"),
    ("analysis.memory_bug.wall_ms", "ms"),
    ("analysis.taint.wall_ms", "ms"),
    ("analysis.slicing.wall_ms", "ms"),
    ("analysis.vms_p50", "vms"),
    ("dbi.auto_detached_total", "count"),
    ("antibody.bundles_deployed", "count"),
    ("antibody.bundles_rejected", "count"),
    ("antibody.vsefs_deployed", "count"),
    ("antibody.protected_frac", "ratio"),
    ("fleet.reactor.events", "count"),
    ("fleet.reactor.schedule.wall_ns", "ns"),
    ("fleet.reactor.pop.wall_ns", "ns"),
    ("fleet.queue_depth_max", "count"),
    ("fleet.loop_self_s", "s"),
    ("fleet.benign_p99_vms", "vms"),
    ("epidemic.none.wall_s", "s"),
    ("epidemic.none.ticks", "count"),
    ("epidemic.none.host_ticks_per_s", "1/s"),
    ("epidemic.none.infected", "count"),
    ("epidemic.none.failest_suppressed", "count"),
    ("epidemic.failest.wall_s", "s"),
    ("epidemic.failest.ticks", "count"),
    ("epidemic.failest.host_ticks_per_s", "1/s"),
    ("epidemic.failest.infected", "count"),
    ("epidemic.failest.failest_suppressed", "count"),
    ("epidemic.antibody.wall_s", "s"),
    ("epidemic.antibody.ticks", "count"),
    ("epidemic.antibody.host_ticks_per_s", "1/s"),
    ("epidemic.antibody.infected", "count"),
    ("epidemic.antibody.failest_suppressed", "count"),
    ("epidemic.both.wall_s", "s"),
    ("epidemic.both.ticks", "count"),
    ("epidemic.both.host_ticks_per_s", "1/s"),
    ("epidemic.both.infected", "count"),
    ("epidemic.both.failest_suppressed", "count"),
    ("epidemic.contained_frac", "ratio"),
    ("trace.run_s", "s"),
    ("trace.setup_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.setup_residual_s", "s"),
];

/// Output checks of a fleet workload; each failure is one message.
pub fn check_fleet(cfg: &FleetConfig, workload: Workload, reps: &[Rep]) -> Vec<String> {
    let mut fails = Vec::new();
    let reference = match fleet::run(cfg) {
        Ok(r) => r,
        Err(e) => return vec![format!("fleet::run failed: {e}")],
    };
    for (i, rep) in reps.iter().enumerate() {
        let Body::Fleet { out, .. } = &rep.body else {
            fails.push(format!("rep {i}: not a fleet run"));
            continue;
        };
        let mode = if rep.traced { "traced" } else { "untraced" };
        println!(
            "check digest replay {:#x} fleet::run {:#x} (rep {i}, {mode}, seed {})",
            out.digest, reference.digest, cfg.seed
        );
        let pairs = [
            ("digest", out.digest, reference.digest),
            ("served", out.served, reference.served),
            ("filtered", out.filtered, reference.filtered),
            ("attacks", out.attacks, reference.attacks),
            (
                "protected_hosts",
                u64::from(out.protected_hosts),
                u64::from(reference.protected_hosts),
            ),
            (
                "bundles_deployed",
                out.bundles_deployed,
                reference.bundles_deployed,
            ),
            (
                "bundles_rejected",
                out.bundles_rejected,
                reference.bundles_rejected,
            ),
        ];
        for (what, got, want) in pairs {
            if got != want {
                fails.push(format!(
                    "rep {i} ({mode}): replay {what} {got:#x} != fleet::run {want:#x}"
                ));
            }
        }
        let i12 = out.metrics.counter("recovery.i12_violations");
        if i12 != 0 {
            fails.push(format!("rep {i}: recovery.i12_violations = {i12}"));
        }
        if out.bundles_rejected != 0 {
            fails.push(format!(
                "rep {i}: {} bundles rejected",
                out.bundles_rejected
            ));
        }
        if out.compromised != 0 {
            fails.push(format!("rep {i}: {} hosts compromised", out.compromised));
        }
        if out.benign_served != out.benign_offered {
            fails.push(format!(
                "rep {i}: {} of {} benign requests served",
                out.benign_served, out.benign_offered
            ));
        }
        match workload {
            Workload::Steady if out.attacks != 0 || out.worm_offered != 0 => {
                fails.push(format!("rep {i}: steady saw {} attacks", out.attacks))
            }
            Workload::Outbreak if out.attacks == 0 || out.protected_hosts < out.hosts / 2 => fails
                .push(format!(
                    "rep {i}: outbreak lost its shape: {} attacks, {}/{} hosts protected",
                    out.attacks, out.protected_hosts, out.hosts
                )),
            _ => {}
        }
    }
    fails
}

/// Output checks of the epidemic workload: every repetition's arms
/// decide exactly what `warmup` (an untimed run of the first input) and
/// every other repetition of the same seed decided, and the antibody arm
/// contains the worm below 5 % of hosts.
pub fn check_epidemic(reps: &[Rep], warmup: &Rep) -> Vec<String> {
    let mut fails = Vec::new();
    let all: Vec<&Rep> = std::iter::once(warmup).chain(reps).collect();
    for (i, rep) in reps.iter().enumerate() {
        let Body::Epidemic { arms } = &rep.body else {
            fails.push(format!("rep {i}: not an epidemic run"));
            continue;
        };
        if fingerprints(rep) != reference_fingerprints(&all, rep.seed) {
            fails.push(format!(
                "rep {i}: arm outcomes differ from another run of seed {:#x}",
                rep.seed
            ));
        }
        let contained = arms[2].outcome.infection_ratio;
        if contained >= 0.05 {
            fails.push(format!(
                "rep {i}: antibody arm infected share {contained} >= 0.05"
            ));
        }
    }
    fails
}

fn fingerprints(rep: &Rep) -> Vec<String> {
    match &rep.body {
        Body::Epidemic { arms } => arms.iter().map(|a| a.fingerprint()).collect(),
        Body::Fleet { .. } => Vec::new(),
    }
}

/// The arm fingerprints of the first of `reps` with `seed`.
fn reference_fingerprints(reps: &[&Rep], seed: u64) -> Vec<String> {
    reps.iter()
        .find(|r| r.seed == seed)
        .map_or_else(Vec::new, |r| fingerprints(r))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
