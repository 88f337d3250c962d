//! Machine-readable performance snapshots (`BENCH_*.json`).
//!
//! `tables benchjson` runs a quick fixed-iteration pass and writes one
//! snapshot; a change that moves performance commits the refreshed
//! `BENCH_*.json`, so the repository records the trajectory change by
//! change. Every figure is a count or a virtual-clock model output, so
//! the same command writes the same document (the `obs` block's
//! `epidemic.*_wall_ms` gauges aside). Wall-clock measurements, repeated
//! with their spread, come from the `perfbench/` benchmark alone.
//!
//! One writer prints every document: each block converts to a [`Json`]
//! key→value list, and [`document`] prints the blocks under the
//! `SCHEMA` header. The workspace is offline and dependency-free, so
//! the writer is hand-rolled.

use svm::asm::assemble;
use svm::loader::Aslr;
use svm::{CacheStats, Machine, NopHook, Status};

use epidemic::community::CommunityParams;
use epidemic::{CommunityEngine, DistNetParams, FailContParams, Parallelism};

use crate::driver::{cadence_sweep, CadenceCell};

/// The schema every `BENCH_*.json` document declares.
const SCHEMA: &str = "sweeper-bench-v11";

/// A JSON value as the BENCH writer prints it. A scalar is held as its
/// printed text: the [`ToJson`] impls below own number formatting and
/// string escaping.
///
/// Layout: an object whose values are all scalars prints on one line;
/// every other object, and every array, prints one entry per line,
/// indented two spaces per depth.
#[derive(Debug, Clone)]
pub enum Json {
    /// A scalar's printed text, or already-serialized JSON embedded
    /// verbatim (the `obs` block).
    Text(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in print order.
    Obj(Vec<(&'static str, Json)>),
}

/// Conversion into the writer's [`Json`] value.
pub trait ToJson {
    /// `self` as JSON.
    fn to_json(&self) -> Json;
}

/// `fields! { "key": value, ... }`: an object's entries in print order.
macro_rules! fields {
    ($($key:literal: $value:expr),* $(,)?) => {
        vec![$(($key, $crate::perf::ToJson::to_json(&$value))),*]
    };
}

/// Define a struct whose field names are its JSON keys, in print order,
/// and derive its [`ToJson`].
macro_rules! json_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl $crate::perf::ToJson for $name {
            fn to_json(&self) -> $crate::perf::Json {
                let fields = vec![$((stringify!($field), $crate::perf::ToJson::to_json(&self.$field))),*];
                $crate::perf::Json::Obj(fields)
            }
        }
    };
}
pub(crate) use json_struct;

/// [`ToJson`] for types whose `Display` text is already JSON.
macro_rules! display_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Text(self.to_string())
            }
        }
    )*};
}
display_to_json!(bool, u32, u64, usize);

impl ToJson for f64 {
    /// Six decimals; `null` when non-finite.
    fn to_json(&self) -> Json {
        Json::Text(if self.is_finite() {
            format!("{self:.6}")
        } else {
            "null".to_string()
        })
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        let escaped = self.replace('\\', "\\\\").replace('"', "\\\"");
        Json::Text(format!("\"{escaped}\""))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref()
            .map_or(Json::Text("null".to_string()), ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl Json {
    /// `block` as JSON, or the skip marker naming the `tables`
    /// subcommand that fills it, so consumers can tell "not run" from
    /// "silently dropped".
    fn or_skipped<T: ToJson>(block: &Option<T>, cmd: &str) -> Json {
        block.as_ref().map_or_else(
            || Json::Obj(fields! { "status": format!("SKIPPED (run tables {cmd})") }),
            ToJson::to_json,
        )
    }

    fn print(&self, out: &mut String, depth: usize) {
        match self {
            Json::Text(text) => out.push_str(text),
            Json::Obj(fields) if fields.iter().all(|(_, v)| matches!(v, Json::Text(_))) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    out.push_str(&format!("{sep}\"{key}\": "));
                    value.print(out, depth);
                }
                out.push('}');
            }
            Json::Obj(fields) => {
                print_lines(out, depth, ('{', '}'), fields, |out, (key, value)| {
                    out.push_str(&format!("\"{key}\": "));
                    value.print(out, depth + 1);
                })
            }
            Json::Arr(items) => print_lines(out, depth, ('[', ']'), items, |out, item| {
                item.print(out, depth + 1)
            }),
        }
    }
}

/// Print `items` one per line between `open` and `close`, indented one
/// level deeper than `depth`.
fn print_lines<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: &[T],
    mut entry: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        entry(out, item);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// Print a whole BENCH document: the `SCHEMA` header, then `blocks`
/// in order. A partial document is the same call with fewer blocks.
pub fn document(blocks: Vec<(&'static str, Json)>) -> String {
    let mut fields = fields! { "schema": SCHEMA };
    fields.extend(blocks);
    let mut out = String::new();
    Json::Obj(fields).print(&mut out, 0);
    out.push('\n');
    out
}

/// One interpreter run of a fixed guest under NopHook.
#[derive(Debug, Clone, Copy)]
pub struct VmRate {
    /// Instructions retired.
    pub insns: u64,
    /// Decode-cache counters at the end of the run.
    pub stats: CacheStats,
}

impl ToJson for VmRate {
    fn to_json(&self) -> Json {
        Json::Obj(fields! {
            "insns": self.insns,
            "cache_hits": self.stats.hits,
            "cache_misses": self.stats.misses,
            "cache_invalidations": self.stats.invalidations,
        })
    }
}

json_struct! {
    /// One guest measured with the decode cache off and on (the `"vm"`
    /// block).
    #[derive(Debug, Clone)]
    pub struct VmBlock {
        /// Instructions retired per rep (identical either way).
        pub loop_insns: u64,
        /// Pure interpreter.
        pub uncached: VmRate,
        /// Predecoded icache.
        pub cached: VmRate,
    }
}

json_struct! {
    /// One community-engine run at a fixed shard count.
    #[derive(Debug, Clone)]
    pub struct CommunityRate {
        /// Shard count (K).
        pub shards: usize,
        /// Ticks simulated.
        pub ticks: u64,
        /// Hosts infected at the end (outcome fingerprint).
        pub infected: u64,
        /// Tick of first producer contact (outcome fingerprint).
        pub t0_tick: Option<u64>,
        /// FNV-style fingerprint of the infection curve (outcome equality).
        pub curve_fnv: u64,
    }
}

json_struct! {
    /// The community engine at K = 1 vs K = 4 (the `"community"` block).
    #[derive(Debug, Clone)]
    pub struct CommunityBlock {
        /// Community hosts.
        pub hosts: u64,
        /// Run seed.
        pub seed: u64,
        /// The run at K = 1.
        pub k1: CommunityRate,
        /// The run at K = 4.
        pub k4: CommunityRate,
        /// Whether K = 1 and K = 4 produced bit-identical outcomes.
        pub outcomes_identical: bool,
    }
}

json_struct! {
    /// One cell of the `fig9dist` containment-vs-loss/Byzantine sweep: a
    /// contained outbreak run with the antibody distribution network over a
    /// wire with the given loss probability and Byzantine producer fraction.
    #[derive(Debug, Clone)]
    pub struct DistNetCell {
        /// Per-transmission loss probability.
        pub loss: f64,
        /// Byzantine producer fraction.
        pub byzantine: f64,
        /// Hosts infected when the run ended (containment axis).
        pub infected: u64,
        /// Consumers protected by a verified bundle when the run ended.
        pub protected: u64,
        /// Emergent γ: ticks from first producer contact to full community
        /// protection (`None` if protection never completed).
        pub gamma_effective: Option<u64>,
        /// Ticks simulated.
        pub ticks: u64,
        /// Bundles that passed verify-before-deploy.
        pub verified: u64,
        /// Bundles rejected by verification (Byzantine forgeries).
        pub rejected: u64,
        /// `(consumer, producer)` quarantine events.
        pub quarantines: u64,
        /// Consumers that exhausted their retry budget.
        pub gave_up: u64,
        /// I8 counter: unverified deployments (must be 0 in every cell).
        pub deployed_unverified: u64,
    }
}

json_struct! {
    /// The `fig9dist` sweep as recorded in the `"distnet"` block.
    #[derive(Debug, Clone)]
    pub struct DistNetBlock {
        /// `"ok"` always today (the sweep runs single-shard), but emitted
        /// explicitly so consumers never have to infer presence.
        pub status: String,
        /// Hosts of the sweep (capped so it stays a quick pass even when
        /// the community `hosts` is large).
        pub hosts: u64,
        /// Run seed.
        pub seed: u64,
        /// The loss × Byzantine-fraction cells.
        pub cells: Vec<DistNetCell>,
    }
}

/// The community parameters for one `fig9dist` cell: a contained
/// outbreak (high producer density, ρ = 0.5, short γ_production) so the
/// antibody race is winnable and the wire knobs — not saturation — are
/// what moves the containment numbers.
pub fn distnet_params(hosts: u64, seed: u64, distnet: DistNetParams) -> CommunityParams {
    CommunityParams {
        hosts,
        alpha: 0.05,
        rho: 0.5,
        gamma_ticks: 6,
        attempts_per_tick: 1,
        attempt_prob: 1.0,
        i0: 1,
        max_ticks: 4000,
        seed,
        parallelism: Parallelism::Fixed(1),
        engine: CommunityEngine::default(),
        distnet,
        failcont: FailContParams::disabled(),
    }
}

/// Run the `fig9dist` sweep: loss ∈ {0, 0.2, 0.4, 0.6} × Byzantine
/// fraction ∈ {0, 0.2}, each cell a deterministic contained outbreak
/// with the distribution network enabled.
pub fn distnet_sweep(hosts: u64, seed: u64) -> Vec<DistNetCell> {
    let mut cells = Vec::new();
    for &byzantine in &[0.0, 0.2] {
        for &loss in &[0.0, 0.2, 0.4, 0.6] {
            let dn = DistNetParams::lossy(loss, byzantine);
            let out = epidemic::community::run(&distnet_params(hosts, seed, dn));
            let d = out.dist.as_ref().expect("distnet enabled");
            let (mut verified, mut rejected, mut quarantines, mut gave_up) = (0, 0, 0, 0);
            for s in &d.shard_stats {
                verified += s.verified;
                rejected += s.rejected;
                quarantines += s.quarantines;
                gave_up += s.gave_up;
            }
            cells.push(DistNetCell {
                loss,
                byzantine,
                infected: out.infected,
                protected: d.protected,
                gamma_effective: out.t0_tick.and_then(|t0| d.gamma_effective(t0)),
                ticks: out.ticks,
                verified,
                rejected,
                quarantines,
                gave_up,
                deployed_unverified: d.deployed_unverified,
            });
        }
    }
    cells
}

/// Render the `fig9dist` sweep as the figure's text table.
pub fn render_distnet_sweep(hosts: u64, seed: u64, cells: &[DistNetCell]) -> String {
    let mut s = format!(
        "Figure 9 (distnet): containment vs wire loss and Byzantine fraction \
         (hosts={hosts}, seed={seed})\n\
         {:>5} {:>5} {:>9} {:>10} {:>10} {:>9} {:>9} {:>6} {:>8} {:>11}\n",
        "loss",
        "byz",
        "infected",
        "protected",
        "gamma_eff",
        "verified",
        "rejected",
        "quar",
        "gave_up",
        "unverified"
    );
    for c in cells {
        s.push_str(&format!(
            "{:>5.2} {:>5.2} {:>9} {:>10} {:>10} {:>9} {:>9} {:>6} {:>8} {:>11}\n",
            c.loss,
            c.byzantine,
            c.infected,
            c.protected,
            c.gamma_effective
                .map_or("never".to_string(), |g| g.to_string()),
            c.verified,
            c.rejected,
            c.quarantines,
            c.gave_up,
            c.deployed_unverified,
        ));
    }
    s
}

json_struct! {
    /// The schema-v6 `"checkpoint"` block: the `ckptcadence` sweep
    /// (full-copy vs incremental engine overhead across production
    /// cadences) plus the headline 200 ms cells. Always emitted — virtual
    /// time, so there is nothing to skip on small hosts.
    #[derive(Debug, Clone, Default)]
    pub struct CheckpointBlock {
        /// `"ok"` always (explicit, matching the other blocks' convention).
        pub status: String,
        /// Guest server driven (the paper's Figure 4 subject).
        pub guest: String,
        /// Benign requests per measured run.
        pub requests: usize,
        /// Incremental-engine overhead at the paper's 200 ms default
        /// cadence — the incremental engine's acceptance gate (< 0.01).
        pub incremental_200ms_overhead: f64,
        /// Full-copy overhead at 200 ms, for the same-row comparison.
        pub full_200ms_overhead: f64,
        /// The sweep cells: engine × interval.
        pub cells: Vec<CadenceCell>,
    }
}

impl CheckpointBlock {
    /// Extract the overhead of `engine` at `interval_ms`, NaN if absent.
    fn cell_overhead(cells: &[CadenceCell], engine: &str, interval_ms: f64) -> f64 {
        cells
            .iter()
            .find(|c| c.engine == engine && c.interval_ms == interval_ms)
            .map_or(f64::NAN, |c| c.overhead)
    }
}

json_struct! {
    /// Percentile summary of one latency window of the fleet run
    /// (quiescent or outbreak). All values in virtual milliseconds; NaN
    /// (serialized as `null`) when the window collected no samples.
    #[derive(Debug, Clone, Copy)]
    pub struct FleetLatency {
        /// Benign requests completed in this window.
        pub samples: u64,
        /// Median service latency.
        pub p50_ms: f64,
        /// 99th-percentile service latency.
        pub p99_ms: f64,
        /// 99.9th-percentile service latency.
        pub p999_ms: f64,
        /// Worst observed service latency.
        pub max_ms: f64,
        /// Mean service latency.
        pub mean_ms: f64,
    }
}

impl FleetLatency {
    fn from_book(book: &sweeper::LatencyBook) -> FleetLatency {
        FleetLatency {
            samples: book.len() as u64,
            p50_ms: book.percentile(0.5).unwrap_or(f64::NAN),
            p99_ms: book.percentile(0.99).unwrap_or(f64::NAN),
            p999_ms: book.percentile(0.999).unwrap_or(f64::NAN),
            max_ms: book.max_ms().unwrap_or(f64::NAN),
            mean_ms: book.mean_ms().unwrap_or(f64::NAN),
        }
    }
}

json_struct! {
    /// The schema-v7 `"fleet"` block: the virtual-clock reactor run
    /// (`tables fleet`) — fleet-wide benign service latency during an
    /// outbreak versus the quiescent baseline, plus the determinism
    /// evidence.
    ///
    /// Deliberately carries **no wall-clock time and no shard count**:
    /// every field is a pure function of `(hosts, seed, …)`, which is what
    /// makes the committed block reproducible bit-for-bit. Shard
    /// invariance is reported *inside* the block (`shard_invariant`,
    /// computed by running the same seed at 1 and N reactor shards and
    /// comparing digests) rather than by leaking the shard knob into it.
    #[derive(Debug, Clone)]
    pub struct FleetBlock {
        /// `"ok"` always once produced (an absent block prints as its
        /// skip marker).
        pub status: String,
        /// Guest Sweeper hosts simulated.
        pub hosts: u32,
        /// Master seed of the run.
        pub seed: u64,
        /// Guest application (`Apache1` etc.).
        pub target: String,
        /// Virtual-time horizon of the run, ms.
        pub horizon_ms: f64,
        /// Patient-zero instant, ms (NaN → `null` for quiescent-only runs).
        pub outbreak_at_ms: f64,
        /// Requests served normally.
        pub served: u64,
        /// Requests dropped by deployed signatures.
        pub filtered: u64,
        /// Attacks detected.
        pub attacks: u64,
        /// Worm contacts scheduled.
        pub contacts: u64,
        /// Certified bundles verified and deployed.
        pub bundles_deployed: u64,
        /// Certified bundles rejected at verification (must stay 0).
        pub bundles_rejected: u64,
        /// Hosts holding at least one antibody at the end.
        pub protected_hosts: u32,
        /// Latency of benign requests arriving before the outbreak.
        pub quiescent: FleetLatency,
        /// Latency of benign requests arriving during the outbreak.
        pub outbreak: FleetLatency,
        /// The run's determinism digest, hex-printed.
        pub digest: String,
        /// Whether 1-shard and N-shard runs produced bit-equal digests
        /// (chaos invariant I10; must be `true`).
        pub shard_invariant: bool,
    }
}

/// Run the fleet reactor at 1 shard and at `check_shards` shards and
/// fold the (1-shard) outcome plus the shard-invariance verdict into
/// the schema-v7 `"fleet"` block.
pub fn fleet_block(cfg: &fleet::FleetConfig, check_shards: usize) -> Result<FleetBlock, String> {
    let serial = fleet::run(&cfg.with_shards(1))?;
    let sharded = fleet::run(&cfg.with_shards(check_shards.max(2)))?;
    Ok(FleetBlock {
        status: "ok".to_string(),
        hosts: serial.hosts,
        seed: serial.seed,
        target: format!("{:?}", cfg.target),
        horizon_ms: cfg.horizon_ms,
        outbreak_at_ms: cfg.outbreak_at_ms.unwrap_or(f64::NAN),
        served: serial.served,
        filtered: serial.filtered,
        attacks: serial.attacks,
        contacts: serial.contacts,
        bundles_deployed: serial.bundles_deployed,
        bundles_rejected: serial.bundles_rejected,
        protected_hosts: serial.protected_hosts,
        quiescent: FleetLatency::from_book(&serial.quiescent),
        outbreak: FleetLatency::from_book(&serial.outbreak),
        digest: format!("{:#018x}", serial.digest),
        shard_invariant: serial.digest == sharded.digest,
    })
}

/// Render the fleet block as a text table (what `tables fleet` prints).
pub fn render_fleet_block(b: &FleetBlock) -> String {
    let row = |name: &str, l: &FleetLatency| {
        format!(
            "{name:>10} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            l.samples, l.p50_ms, l.p99_ms, l.p999_ms, l.max_ms, l.mean_ms
        )
    };
    let mut s = format!(
        "fleet: {} hosts ({}), seed {}, horizon {} ms, outbreak @ {} ms\n\
         {:>10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        b.hosts,
        b.target,
        b.seed,
        b.horizon_ms,
        if b.outbreak_at_ms.is_finite() {
            format!("{}", b.outbreak_at_ms)
        } else {
            "never".to_string()
        },
        "window",
        "samples",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "max_ms",
        "mean_ms"
    );
    s.push_str(&row("quiescent", &b.quiescent));
    s.push_str(&row("outbreak", &b.outbreak));
    s.push_str(&format!(
        "served {} | filtered {} | attacks {} | contacts {} | bundles +{}/-{} | \
         protected {}/{} | digest {} | shard_invariant {}",
        b.served,
        b.filtered,
        b.attacks,
        b.contacts,
        b.bundles_deployed,
        b.bundles_rejected,
        b.protected_hosts,
        b.hosts,
        b.digest,
        b.shard_invariant,
    ));
    s
}

json_struct! {
    /// The schema-v9 `"recovery"` block: the `tables fleetrecover` run —
    /// the same fleet outbreak measured under Full recovery (whole-machine
    /// rollback + drop-the-attack replay) and under Domain recovery
    /// (partial rollback of only the attacked connection's domain),
    /// plus a Differential leg in which every attacked host runs both modes
    /// for the same fault and asserts bit-equal post-recovery digests.
    ///
    /// Follows the [`FleetBlock`] conventions: no wall-clock time, no shard
    /// count — every field is a pure function of `(hosts, seed, …)`, with
    /// shard invariance reported *inside* the block.
    #[derive(Debug, Clone)]
    pub struct RecoveryBlock {
        /// `"ok"` always once produced (an absent block prints as its
        /// skip marker).
        pub status: String,
        /// Guest Sweeper hosts simulated (per leg).
        pub hosts: u32,
        /// Master seed of the run (identical across legs).
        pub seed: u64,
        /// Guest application (`Apache1` etc.).
        pub target: String,
        /// Quiescent benign latency under Full recovery.
        pub full_quiescent: FleetLatency,
        /// Outbreak-window benign latency under Full recovery.
        pub full_outbreak: FleetLatency,
        /// Quiescent benign latency under Domain recovery.
        pub domain_quiescent: FleetLatency,
        /// Outbreak-window benign latency under Domain recovery.
        pub domain_outbreak: FleetLatency,
        /// Partial rollbacks completed on the Domain leg.
        pub domain_rollbacks: u64,
        /// Fail-closed fallbacks from Domain to Full on the Domain leg.
        pub domain_fallbacks: u64,
        /// Cross-domain spills the page→domain ledger counted on the Domain
        /// leg (each one forces a fallback).
        pub domain_spills: u64,
        /// `recovery.i12_violations` summed over every leg: partial
        /// rollbacks that disturbed a benign domain. Must be 0.
        pub i12_violations: u64,
        /// Whether the Differential leg proved Domain ≡ Full: at least one
        /// in-lockstep parity check ran and none mismatched.
        pub domain_parity: bool,
        /// Hosts protected at the end of the Full leg.
        pub protected_full: u32,
        /// Hosts protected at the end of the Domain leg.
        pub protected_domain: u32,
        /// Domain outbreak p999 over Full outbreak p999 — the headline
        /// number: partial recovery keeps the analysis pause off the benign
        /// service path, so this must stay well below 1.
        pub p999_ratio: f64,
        /// Domain-leg determinism digest, hex-printed.
        pub digest_domain: String,
        /// Whether the Domain leg's digest is shard-count-invariant
        /// (invariant I10; must be `true`).
        pub shard_invariant: bool,
    }
}

/// Run the fleet under Full, Domain (at 1 and `check_shards` shards),
/// and Differential recovery, and fold the comparison into the
/// schema-v9 `"recovery"` block.
pub fn recovery_block(
    cfg: &fleet::FleetConfig,
    check_shards: usize,
) -> Result<RecoveryBlock, String> {
    use sweeper::RecoveryMode;
    let full = fleet::run(&cfg.with_recovery(RecoveryMode::Full).with_shards(1))?;
    let domain = fleet::run(&cfg.with_recovery(RecoveryMode::Domain).with_shards(1))?;
    let sharded = fleet::run(
        &cfg.with_recovery(RecoveryMode::Domain)
            .with_shards(check_shards.max(2)),
    )?;
    let diff = fleet::run(&cfg.with_recovery(RecoveryMode::Differential).with_shards(1))?;
    let parity_checks = diff.metrics.counter("recovery.domain_parity_checks");
    let parity_mismatches = diff.metrics.counter("recovery.domain_parity_mismatches");
    let i12_violations = [&full, &domain, &sharded, &diff]
        .iter()
        .map(|o| o.metrics.counter("recovery.i12_violations"))
        .sum();
    Ok(RecoveryBlock {
        status: "ok".to_string(),
        hosts: domain.hosts,
        seed: domain.seed,
        target: format!("{:?}", cfg.target),
        full_quiescent: FleetLatency::from_book(&full.quiescent),
        full_outbreak: FleetLatency::from_book(&full.outbreak),
        domain_quiescent: FleetLatency::from_book(&domain.quiescent),
        domain_outbreak: FleetLatency::from_book(&domain.outbreak),
        domain_rollbacks: domain.metrics.counter("recovery.domain_rollbacks"),
        domain_fallbacks: domain.metrics.counter("recovery.domain_fallbacks"),
        domain_spills: domain.metrics.counter("checkpoint.domain_spills"),
        i12_violations,
        domain_parity: parity_checks > 0 && parity_mismatches == 0,
        protected_full: full.protected_hosts,
        protected_domain: domain.protected_hosts,
        p999_ratio: domain.outbreak.percentile(0.999).unwrap_or(f64::NAN)
            / full.outbreak.percentile(0.999).unwrap_or(f64::NAN),
        digest_domain: format!("{:#018x}", domain.digest),
        shard_invariant: domain.digest == sharded.digest,
    })
}

/// Render the recovery block as a text table (what `tables fleetrecover`
/// prints).
pub fn render_recovery_block(b: &RecoveryBlock) -> String {
    let row = |name: &str, l: &FleetLatency| {
        format!(
            "{name:>16} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            l.samples, l.p50_ms, l.p99_ms, l.p999_ms, l.max_ms, l.mean_ms
        )
    };
    let mut s = format!(
        "fleetrecover: {} hosts ({}), seed {} — Full vs Domain recovery\n\
         {:>16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        b.hosts,
        b.target,
        b.seed,
        "window",
        "samples",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "max_ms",
        "mean_ms"
    );
    s.push_str(&row("full quiescent", &b.full_quiescent));
    s.push_str(&row("full outbreak", &b.full_outbreak));
    s.push_str(&row("domain quiescent", &b.domain_quiescent));
    s.push_str(&row("domain outbreak", &b.domain_outbreak));
    s.push_str(&format!(
        "outbreak p999 ratio (domain/full) {:.4} | domain rollbacks {} | fallbacks {} | \
         spills {} | i12_violations {} | domain_parity {} | protected {}/{} (full) {}/{} (domain) | \
         digest {} | shard_invariant {}",
        b.p999_ratio,
        b.domain_rollbacks,
        b.domain_fallbacks,
        b.domain_spills,
        b.i12_violations,
        b.domain_parity,
        b.protected_full,
        b.hosts,
        b.protected_domain,
        b.hosts,
        b.digest_domain,
        b.shard_invariant,
    ));
    s
}

json_struct! {
    /// One arm of the `fig9fail` containment-mechanism sweep: the same
    /// scanning-worm outbreak with one combination of defenses switched on.
    #[derive(Debug, Clone)]
    pub struct FailArm {
        /// `"none"`, `"failest"`, `"antibody"`, or `"both"`.
        pub name: String,
        /// Consumers infected when the run ended.
        pub infected: u64,
        /// `infected / hosts`.
        pub infection_ratio: f64,
        /// Ticks simulated.
        pub ticks: u64,
        /// Sources flagged by the failure estimator (failest arms only).
        pub flagged_sources: u64,
        /// Attempt slots suppressed at flagged sources (failest arms only).
        pub suppressed_attempts: u64,
        /// Hosts holding the antibody at the end (antibody arms only).
        pub protected: u64,
    }
}

json_struct! {
    /// The schema-v8 `"epidemic1m"` block: the `tables fig9fail` sweep —
    /// connection-failure containment (Zhou-style hyper-compact failure
    /// estimators) versus the paper's antibody distribution on the same
    /// million-host outbreak, run on the struct-of-arrays engine, plus the
    /// differential-parity evidence that the SoA engine matches the legacy
    /// one.
    ///
    /// Follows the [`FleetBlock`] conventions: `status` is `"ok"` once the
    /// block is produced (an absent block prints as its skip marker), and
    /// the parity verdicts are reported *inside* the block rather than as
    /// side channels.
    #[derive(Debug, Clone)]
    pub struct Epidemic1mBlock {
        /// `"ok"` always once produced.
        pub status: String,
        /// Community size of the sweep arms.
        pub hosts: u64,
        /// Run seed (shared by every arm and the parity gate).
        pub seed: u64,
        /// Contact-state backend of the sweep arms (`"soa"`).
        pub engine: String,
        /// Whether both K = 1 and K = 4 differential runs at
        /// `parity_hosts` reported zero SoA/legacy mismatches (invariant
        /// I11; must be `true`).
        pub soa_parity: bool,
        /// Whether the K = 1 and K = 4 differential outcomes were
        /// bit-identical to each other (must be `true`).
        pub k_invariant: bool,
        /// Hosts used for the differential parity gate (20k, or `hosts`
        /// when smaller).
        pub parity_hosts: u64,
        /// The four sweep arms, in none/failest/antibody/both order.
        pub arms: Vec<FailArm>,
    }
}

/// Run the `fig9fail` sweep and fold it into the schema-v8
/// `"epidemic1m"` block.
///
/// The shared environment is a fast scanning worm (1 attempt per tick,
/// ρ = 0.1 proactive protection, one initial infection) over `hosts`
/// hosts on the SoA engine. The four arms switch defenses on one at a
/// time: `none` (die-out guard only), `failest` (the failure
/// estimator), `antibody` (α = 0.1 % producers, γ = 10 ticks), `both`.
/// The parity gate re-runs the failest shape at 20k hosts under
/// [`CommunityEngine::Differential`] at K ∈ {1, 4}.
pub fn epidemic1m_block(hosts: u64, seed: u64) -> Epidemic1mBlock {
    use epidemic::community::run;

    let arm_params = |alpha: f64, gamma_ticks: u64, failcont: FailContParams| CommunityParams {
        hosts,
        alpha,
        rho: 0.1,
        gamma_ticks,
        attempts_per_tick: 1,
        attempt_prob: 1.0,
        i0: 1,
        max_ticks: 400,
        seed,
        parallelism: Parallelism::Fixed(1),
        engine: CommunityEngine::Soa,
        distnet: DistNetParams::disabled(),
        failcont,
    };
    let specs: [(&str, f64, u64, FailContParams); 4] = [
        ("none", 0.0, 0, FailContParams::disabled()),
        ("failest", 0.0, 0, FailContParams::standard()),
        ("antibody", 0.001, 10, FailContParams::disabled()),
        ("both", 0.001, 10, FailContParams::standard()),
    ];
    let mut arms = Vec::new();
    for (name, alpha, gamma, fc) in specs {
        let o = run(&arm_params(alpha, gamma, fc));
        arms.push(FailArm {
            name: name.to_string(),
            infected: o.infected,
            infection_ratio: o.infection_ratio,
            ticks: o.ticks,
            flagged_sources: o.failcont.as_ref().map_or(0, |f| f.flagged_sources),
            suppressed_attempts: o.failcont.as_ref().map_or(0, |f| f.suppressed_attempts),
            protected: o.shard_stats.iter().map(|s| s.antibodies_applied).sum(),
        });
    }

    // The differential parity gate: the failest arm's shape (the
    // richest code path — estimator folds plus the epidemic core) at up
    // to 20k hosts, both backends in lockstep, at two shard counts.
    let parity_hosts = hosts.min(20_000);
    let parity = |k: usize| {
        run(&CommunityParams {
            hosts: parity_hosts,
            parallelism: Parallelism::Fixed(k),
            engine: CommunityEngine::Differential,
            ..arm_params(0.0, 0, FailContParams::standard())
        })
    };
    let d1 = parity(1);
    let d4 = parity(4);
    let soa_parity = d1.soa_parity_mismatches == Some(0) && d4.soa_parity_mismatches == Some(0);
    let k_invariant = (d1.t0_tick, d1.infected, &d1.curve, d1.ticks)
        == (d4.t0_tick, d4.infected, &d4.curve, d4.ticks);

    Epidemic1mBlock {
        status: "ok".to_string(),
        hosts,
        seed,
        engine: "soa".to_string(),
        soa_parity,
        k_invariant,
        parity_hosts,
        arms,
    }
}

/// Render the epidemic1m block as a text table (what `tables fig9fail`
/// prints).
pub fn render_epidemic_block(b: &Epidemic1mBlock) -> String {
    let mut s = format!(
        "fig9fail: {} hosts, seed {}, engine {} (scanning worm, rho = 0.1)\n\
         {:>10} {:>10} {:>7} {:>9} {:>11} {:>10}\n",
        b.hosts, b.seed, b.engine, "arm", "infected", "ticks", "flagged", "suppressed", "protected"
    );
    for a in &b.arms {
        s.push_str(&format!(
            "{:>10} {:>10} {:>7} {:>9} {:>11} {:>10}\n",
            a.name, a.infected, a.ticks, a.flagged_sources, a.suppressed_attempts, a.protected
        ));
    }
    s.push_str(&format!(
        "parity @ {} hosts: soa_parity {} | k_invariant {}",
        b.parity_hosts, b.soa_parity, b.k_invariant,
    ));
    s
}

/// The full quick-pass snapshot written to `BENCH_*.json`: one field
/// per top-level block, in print order.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The branch-dense tight-loop guest, decode cache off and on.
    pub vm: VmBlock,
    /// The community engine at K = 1 vs K = 4.
    pub community: CommunityBlock,
    /// The `fig9dist` containment-vs-loss/Byzantine sweep.
    pub distnet: DistNetBlock,
    /// The `ckptcadence` sweep.
    pub checkpoint: CheckpointBlock,
    /// The fleet reactor run. `None` in the quick pass — a 1k-host
    /// fleet is far too heavy for `measure()`'s budget. `tables fleet
    /// --full` attaches it.
    pub fleet: Option<FleetBlock>,
    /// The `fig9fail` million-host containment sweep. `None` in the
    /// quick pass — the sweep is sized by its own `--hosts` flag.
    /// `tables fig9fail --full` attaches it.
    pub epidemic1m: Option<Epidemic1mBlock>,
    /// The `fleetrecover` Full-vs-Domain recovery comparison. `None` in
    /// the quick pass — it runs the fleet four times. `tables
    /// fleetrecover --full` attaches it.
    pub recovery: Option<RecoveryBlock>,
    /// Observability snapshot gathered during the quick pass: the
    /// tight-loop icache run's machine counters merged with the
    /// K = 1 community run's simulation counters.
    pub obs: obs::MetricsRegistry,
}

/// The tight-loop guest: branch-dense, so dispatch cost dominates.
fn tight_src(loop_iters: u32) -> String {
    format!(
        ".text\nmain:\n movi r1, {loop_iters}\nloop:\n subi r1, r1, 1\n cmpi r1, 0\n jnz loop\n halt\n"
    )
}

/// Run the guest `src` to halt once and export the machine's
/// counters. `cache` enables the predecoded icache.
pub fn vm_rate(src: &str, cache: bool) -> (VmRate, obs::MetricsRegistry) {
    let prog = assemble(src).expect("asm");
    let mut m = Machine::boot(&prog, Aslr::off())
        .expect("boot")
        .with_decode_cache(cache);
    let status = m.run(&mut NopHook, u64::MAX);
    assert!(matches!(status, Status::Halted(_)), "loop must halt");
    let mut reg = obs::MetricsRegistry::new();
    m.export_metrics(&mut reg);
    let r = VmRate {
        insns: m.insns_retired,
        stats: m.icache_stats(),
    };
    (r, reg)
}

/// Run the guest `src` with the decode cache off and on, returning the
/// block and the cached run's machine counters.
fn vm_block(src: &str) -> (VmBlock, obs::MetricsRegistry) {
    let (uncached, _) = vm_rate(src, false);
    let (cached, metrics) = vm_rate(src, true);
    let block = VmBlock {
        loop_insns: uncached.insns,
        uncached,
        cached,
    };
    (block, metrics)
}

/// A Figure-7-style large-N run of the sharded *model* engine (hit-list
/// worm, β = 1000, ρ = 2⁻¹², γ = 5 s) with a hot start (half the
/// community already infected) so the per-tick workload is dense enough
/// to measure sharding speedups. Returns the outcome plus wall-clock
/// seconds. Bit-identical results at any shard count for a fixed seed.
pub fn model_campaign(
    hosts: u64,
    parallelism: Parallelism,
    seed: u64,
) -> (epidemic::CommunityOutcome, f64) {
    let scenario = epidemic::Scenario {
        n: hosts as f64,
        ..epidemic::Scenario::hitlist(1000.0, 0.001, 5.0)
    };
    let params = epidemic::CommunityParams {
        i0: hosts / 2,
        ..epidemic::CommunityParams::from_scenario(&scenario, 0.01, seed, parallelism)
    };
    let start = std::time::Instant::now();
    let outcome = epidemic::community::run(&params);
    (outcome, start.elapsed().as_secs_f64())
}

/// Run the sharded community model engine once at shard count `k`,
/// also returning the run's metrics snapshot
/// ([`epidemic::CommunityOutcome::metrics`]).
pub fn community_rate(hosts: u64, k: usize, seed: u64) -> (CommunityRate, obs::MetricsRegistry) {
    let (outcome, _) = model_campaign(hosts, Parallelism::Fixed(k), seed);
    let rate = CommunityRate {
        shards: k,
        ticks: outcome.ticks,
        infected: outcome.infected,
        t0_tick: outcome.t0_tick,
        curve_fnv: outcome
            .curve
            .iter()
            .fold(0u64, |h, &v| h.wrapping_mul(0x100_0000_01b3) ^ v),
    };
    (rate, outcome.metrics())
}

/// Run the whole quick pass: the tight-loop guest with the decode cache
/// off and on, the community engine at K = 1 and K = 4, the distnet
/// sweep and the checkpoint sweep.
pub fn measure(hosts: u64, seed: u64, vm_loop_iters: u32) -> PerfReport {
    let (vm, mut obs) = vm_block(&tight_src(vm_loop_iters));
    let (k1, k1_obs) = community_rate(hosts, 1, seed);
    let (k4, _) = community_rate(hosts, 4, seed);
    obs.merge(&k1_obs);
    let community = CommunityBlock {
        hosts,
        seed,
        outcomes_identical: (k1.infected, k1.t0_tick, k1.ticks, k1.curve_fnv)
            == (k4.infected, k4.t0_tick, k4.ticks, k4.curve_fnv),
        k1,
        k4,
    };
    let distnet_hosts = hosts.clamp(400, 4_000);
    let distnet = DistNetBlock {
        status: "ok".to_string(),
        hosts: distnet_hosts,
        seed,
        cells: distnet_sweep(distnet_hosts, seed),
    };
    // The 200 ms cells only take periodic checkpoints once the run
    // spans several intervals (~1500 requests per 200 ms of virtual
    // time), so the committed snapshot uses a long run; the quick test
    // pass keeps a short one and gates on the denser cadences instead.
    let ckpt_requests = if vm_loop_iters >= 10_000 { 6_000 } else { 250 };
    PerfReport {
        vm,
        community,
        distnet,
        checkpoint: checkpoint_block(ckpt_requests),
        fleet: None,
        epidemic1m: None,
        recovery: None,
        obs,
    }
}

/// Run the `ckptcadence` sweep on the Figure 4 guest (Squid) and fold
/// it into the schema-v6 `"checkpoint"` block.
pub fn checkpoint_block(requests: usize) -> CheckpointBlock {
    use apps::{squid, workload::Target};
    let app = squid::app().expect("squid assembles");
    let cells = cadence_sweep(&app, Target::Squid, requests);
    CheckpointBlock {
        status: "ok".to_string(),
        guest: "squid".to_string(),
        requests,
        incremental_200ms_overhead: CheckpointBlock::cell_overhead(&cells, "incremental", 200.0),
        full_200ms_overhead: CheckpointBlock::cell_overhead(&cells, "full", 200.0),
        cells,
    }
}

/// Render the `ckptcadence` sweep as a text table.
pub fn render_checkpoint_block(b: &CheckpointBlock) -> String {
    let mut s = format!(
        "ckptcadence: checkpoint overhead vs cadence and engine ({}, {} requests)\n\
         {:>12} {:>10} {:>11} {:>12}\n",
        b.guest, b.requests, "engine", "interval", "overhead", "checkpoints"
    );
    for c in &b.cells {
        s.push_str(&format!(
            "{:>12} {:>7} ms {:>10.4}% {:>12}\n",
            c.engine,
            c.interval_ms,
            c.overhead * 100.0,
            c.checkpoints
        ));
    }
    s.push_str(&format!(
        "incremental @ 200 ms: {:.4}% (gate: < 1%) | full @ 200 ms: {:.4}%",
        b.incremental_200ms_overhead * 100.0,
        b.full_200ms_overhead * 100.0
    ));
    s
}

impl PerfReport {
    /// Serialize as a full BENCH document; an absent block prints as
    /// its skip marker.
    pub fn to_json(&self) -> String {
        document(fields! {
            "vm": self.vm,
            "community": self.community,
            "distnet": self.distnet,
            "checkpoint": self.checkpoint,
            "fleet": Json::or_skipped(&self.fleet, "fleet"),
            "epidemic1m": Json::or_skipped(&self.epidemic1m, "fig9fail"),
            "recovery": Json::or_skipped(&self.recovery, "fleetrecover"),
            "obs": Json::Text(self.obs.to_json()),
        })
    }

    /// Human-readable summary (what `tables benchjson` prints).
    pub fn render(&self) -> String {
        let unverified: u64 = self
            .distnet
            .cells
            .iter()
            .map(|c| c.deployed_unverified)
            .sum();
        let fleet_line = match &self.fleet {
            Some(f) => format!(
                "\nfleet       : {} hosts, p99 {:.3} ms quiescent -> {:.3} ms outbreak, \
                 protected {}/{}, shard_invariant {} [{}]",
                f.hosts,
                f.quiescent.p99_ms,
                f.outbreak.p99_ms,
                f.protected_hosts,
                f.hosts,
                f.shard_invariant,
                f.status,
            ),
            None => "\nfleet       : SKIPPED (run tables fleet)".to_string(),
        };
        let epi_line = match &self.epidemic1m {
            Some(e) => format!(
                "\nepidemic1m  : {} hosts, soa_parity {}, k_invariant {} [{}]",
                e.hosts, e.soa_parity, e.k_invariant, e.status,
            ),
            None => "\nepidemic1m  : SKIPPED (run tables fig9fail)".to_string(),
        };
        let recovery_line = match &self.recovery {
            Some(r) => format!(
                "\nrecovery    : {} hosts, outbreak p999 {:.3} ms domain vs {:.3} ms full \
                 ({:.2}x), i12 {}, parity {}, shard_invariant {} [{}]",
                r.hosts,
                r.domain_outbreak.p999_ms,
                r.full_outbreak.p999_ms,
                r.p999_ratio,
                r.i12_violations,
                r.domain_parity,
                r.shard_invariant,
                r.status,
            ),
            None => "\nrecovery    : SKIPPED (run tables fleetrecover)".to_string(),
        };
        format!(
            "interpreter : {} insns uncached | {} icache ({} hits, {} misses)\n\
             community   : K=1 {} ticks, {} infected | K=4 {} ticks, {} infected\n\
             outcomes    : identical across K = {}\n\
             distnet     : {} fig9dist cells over {} hosts, {} unverified deployments (I8) [{}]\n\
             checkpoint  : incremental {:.4}% vs full {:.4}% @ 200 ms ({} requests) [{}]{fleet_line}{epi_line}{recovery_line}",
            self.vm.uncached.insns,
            self.vm.cached.insns,
            self.vm.cached.stats.hits,
            self.vm.cached.stats.misses,
            self.community.k1.ticks,
            self.community.k1.infected,
            self.community.k4.ticks,
            self.community.k4.infected,
            self.community.outcomes_identical,
            self.distnet.cells.len(),
            self.distnet.hosts,
            unverified,
            self.distnet.status,
            self.checkpoint.incremental_200ms_overhead * 100.0,
            self.checkpoint.full_200ms_overhead * 100.0,
            self.checkpoint.requests,
            self.checkpoint.status,
        )
    }
}

/// The checkpoint parity smoke behind `tables ckptparity`: drive a
/// benign workload (with the canonical exploit injected mid-stream) on
/// all four Table 1 guests under the **differential** snapshot engine —
/// every materialization rebuilds the incremental base+delta image *and*
/// compares it page-by-page against the full-copy oracle — then
/// round-trip every retained checkpoint through materialize/rollback.
/// Returns one summary line per guest; panics on any divergence (CI
/// treats the panic as the gate failing).
pub fn ckptparity_smoke() -> Vec<String> {
    use apps::workload::{Target, Workload};
    use apps::{cvs, httpd1, httpd2, squid, App};
    use checkpoint::{mem_digest, Engine};
    use sweeper::{Config, Sweeper};

    let guests: Vec<(&str, Target, App, Vec<u8>)> = vec![
        (
            "httpd1",
            Target::Apache1,
            httpd1::app().expect("app"),
            httpd1::app()
                .map(|a| httpd1::exploit_crash(&a).input)
                .expect("exploit"),
        ),
        (
            "httpd2",
            Target::Apache2,
            httpd2::app().expect("app"),
            httpd2::app()
                .map(|a| httpd2::exploit_crash(&a).input)
                .expect("exploit"),
        ),
        (
            "cvs",
            Target::Cvs,
            cvs::app().expect("app"),
            cvs::app()
                .map(|a| cvs::exploit_crash(&a).input)
                .expect("exploit"),
        ),
        (
            "squid",
            Target::Squid,
            squid::app().expect("app"),
            squid::app()
                .map(|a| squid::exploit_crash(&a).input)
                .expect("exploit"),
        ),
    ];
    let mut lines = Vec::new();
    for (name, target, app, exploit) in guests {
        let cfg = Config::producer(7)
            .with_interval_ms(30.0)
            .with_engine(Engine::Differential);
        let mut s = Sweeper::protect(&app, cfg).expect("protect");
        let mut w = Workload::new(target, 13);
        for i in 0..24 {
            if i == 12 {
                s.offer_request(exploit.clone());
            } else {
                s.offer_request(w.next_request());
            }
        }
        assert!(s.status().healthy, "{name}: service not restored");
        // Round-trip every retained checkpoint: each materialize runs
        // the engine lockstep (incremental rebuild vs full oracle), and
        // a second rebuild must be bit-identical to the first.
        let ids: Vec<_> = s.mgr.ids().collect();
        assert!(!ids.is_empty(), "{name}: no retained checkpoints");
        for id in &ids {
            let a = s.mgr.materialize(*id).expect("materialize");
            let b = s.mgr.rollback(*id).expect("rollback");
            assert_eq!(
                (mem_digest(&a.mem), a.cpu.pc, a.insns_retired),
                (mem_digest(&b.mem), b.cpu.pc, b.insns_retired),
                "{name}: rollback round-trip diverged at {id:?}"
            );
        }
        assert_eq!(
            s.mgr.parity_mismatches(),
            0,
            "{name}: incremental image diverged from the full-copy oracle"
        );
        assert_eq!(
            s.mgr.materialize_failures(),
            0,
            "{name}: undamaged chain failed to materialize"
        );
        lines.push(format!(
            "{name:>7}: {} checkpoints round-tripped, {} store pages, 0 parity mismatches — incremental ≡ full",
            ids.len(),
            s.mgr.store_pages(),
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_rate_counts_cache_activity() {
        let tight = tight_src(500);
        let (off, _) = vm_rate(&tight, false);
        let (on, _) = vm_rate(&tight, true);
        assert_eq!(off.insns, on.insns, "same program, same retire count");
        assert_eq!(off.stats, CacheStats::default(), "disabled cache is inert");
        assert!(on.stats.hits > 0, "enabled cache serves hits");
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let r = measure(400, 7, 300);
        assert!(
            r.community.outcomes_identical,
            "K must not change the outcome"
        );
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"schema\": \"sweeper-bench-v11\""));
        assert!(
            json.contains("\"distnet\": {\n    \"status\": \"ok\""),
            "distnet block carries an explicit status"
        );
        assert!(
            json.contains("\"checkpoint\": {\n    \"status\": \"ok\""),
            "checkpoint block is never skipped (virtual time)"
        );
        assert!(
            json.contains("\"fleet\": {\"status\": \"SKIPPED (run tables fleet)\"}"),
            "the quick pass marks the fleet block skipped, never drops it"
        );
        assert!(
            json.contains("\"epidemic1m\": {\"status\": \"SKIPPED (run tables fig9fail)\"}"),
            "the quick pass marks the epidemic1m block skipped, never drops it"
        );
        assert!(
            json.contains("\"recovery\": {\"status\": \"SKIPPED (run tables fleetrecover)\"}"),
            "the quick pass marks the recovery block skipped, never drops it"
        );
        // Both tiers retired the same instruction stream.
        assert_eq!(r.vm.uncached.insns, r.vm.cached.insns);
        // The distnet block is present and populated.
        assert!(json.contains("\"distnet\""));
        assert!(json.contains("\"deployed_unverified\""));
        assert_eq!(r.distnet.cells.len(), 8, "4 loss x 2 byzantine cells");
        // The checkpoint block is present and carries the full sweep:
        // 2 engines x 4 intervals, with the headline 200 ms cells.
        assert!(json.contains("\"checkpoint\": {"));
        assert!(json.contains("\"incremental_200ms_overhead\""));
        assert_eq!(r.checkpoint.cells.len(), 8, "2 engines x 4 intervals");
        assert!(
            r.checkpoint.incremental_200ms_overhead < 0.01,
            "PR-7 gate: incremental engine must stay under 1% at 200 ms, got {:.4}",
            r.checkpoint.incremental_200ms_overhead
        );
        // The quick pass is too short for periodic 200 ms checkpoints
        // (both engines read 0 there), so the engine comparison gates on
        // the 20 ms cells, which take several checkpoints even here.
        let inc_20 = CheckpointBlock::cell_overhead(&r.checkpoint.cells, "incremental", 20.0);
        let full_20 = CheckpointBlock::cell_overhead(&r.checkpoint.cells, "full", 20.0);
        assert!(
            inc_20 < full_20,
            "incremental must beat the full copy at the same cadence: {inc_20:.4} vs {full_20:.4}"
        );
        assert!(
            r.checkpoint.incremental_200ms_overhead <= r.checkpoint.full_200ms_overhead,
            "incremental never costs more than full at 200 ms"
        );
        // The obs block carries both VM and community counters.
        assert!(json.contains("\"obs\": {\"counters\""));
        assert!(r.obs.counter("svm.insns_retired") > 0);
        assert!(r.obs.counter("epidemic.infected") > 0);
        // Non-finite floats must serialize as `null`, never bare tokens.
        assert!(!json.contains("NaN") && !json.contains(": inf"));
    }

    #[test]
    fn quick_pass_document_is_deterministic() {
        // The document carries no wall-clock figure apart from the
        // community run's two phase-time gauges in the `obs` block.
        let doc = || {
            let mut r = measure(400, 7, 300);
            for gauge in ["epidemic.generate_wall_ms", "epidemic.apply_wall_ms"] {
                assert!(r.obs.gauge_value(gauge).is_some(), "{gauge} exported");
                r.obs.gauge(gauge, 0.0);
            }
            r.to_json()
        };
        assert_eq!(doc(), doc());
    }

    #[test]
    fn epidemic_block_reports_parity_and_the_containment_ordering() {
        let b = epidemic1m_block(4_000, 21);
        assert_eq!(b.status, "ok");
        assert!(b.soa_parity, "I11 must hold in the committed block");
        assert!(b.k_invariant, "K must not change the parity-gate outcome");
        assert_eq!(b.parity_hosts, 4_000, "gate runs at min(hosts, 20k)");
        let arm = |name: &str| {
            b.arms
                .iter()
                .find(|a| a.name == name)
                .unwrap_or_else(|| panic!("missing arm {name}"))
        };
        // No defense saturates; the estimator flags and suppresses; the
        // antibody arms actually distribute protection.
        assert_eq!(arm("none").infected, 4_000, "undefended worm saturates");
        assert!(arm("failest").flagged_sources > 0, "estimator engaged");
        assert!(arm("failest").suppressed_attempts > 0);
        assert!(arm("antibody").protected > 0, "antibody arm protects");
        assert!(
            arm("antibody").infected < arm("none").infected,
            "antibody distribution must beat no defense"
        );
        assert!(
            arm("both").infected < arm("none").infected,
            "combined defenses must beat no defense"
        );
        // The JSON block round-trips without bare non-finite tokens.
        let json = document(vec![("epidemic1m", b.to_json())]);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"soa_parity\": true"));
        assert!(json.contains("\"k_invariant\": true"));
        assert!(!json.contains("NaN") && !json.contains(": inf"));
        // Same seed, same block: the sweep records no wall-clock time.
        let again = document(vec![("epidemic1m", epidemic1m_block(4_000, 21).to_json())]);
        assert_eq!(json, again, "epidemic1m block is bit-stable");
    }

    #[test]
    fn fleet_block_reports_latency_and_shard_invariance() {
        let cfg = fleet::FleetConfig::smoke(5, 9);
        let b = fleet_block(&cfg, 3).expect("fleet runs");
        assert_eq!(b.status, "ok");
        assert!(b.shard_invariant, "1 vs 3 shards must digest-match");
        assert!(b.quiescent.samples > 0);
        assert!(b.quiescent.p99_ms.is_finite() && b.quiescent.p99_ms > 0.0);
        assert!(b.attacks > 0, "smoke outbreak lands: {b:?}");
        // Same seed, same block — including through the JSON encoding.
        let again = fleet_block(&cfg, 3).expect("fleet runs");
        let json = document(vec![("fleet", b.to_json())]);
        assert_eq!(
            json,
            document(vec![("fleet", again.to_json())]),
            "fleet block is bit-stable"
        );
        assert!(json.contains("\"shard_invariant\": true"));
        // An empty window serializes its percentiles as null; a
        // populated one never does.
        let quiescent_cell = document(fields! { "quiescent": &b.quiescent });
        assert!(!quiescent_cell.contains("null"), "{quiescent_cell}");
        // The exact text at this config, pinned: CI's `recovery-smoke`
        // `sed` parses the one-line latency objects.
        assert_eq!(json, GOLDEN_FLEET_SMOKE);
    }

    const GOLDEN_FLEET_SMOKE: &str = r#"{
  "schema": "sweeper-bench-v11",
  "fleet": {
    "status": "ok",
    "hosts": 5,
    "seed": 9,
    "target": "Apache1",
    "horizon_ms": 600.000000,
    "outbreak_at_ms": 250.000000,
    "served": 7,
    "filtered": 4,
    "attacks": 6,
    "contacts": 10,
    "bundles_deployed": 4,
    "bundles_rejected": 0,
    "protected_hosts": 5,
    "quiescent": {"samples": 1, "p50_ms": 0.101265, "p99_ms": 0.101265, "p999_ms": 0.101265, "max_ms": 0.101265, "mean_ms": 0.101265},
    "outbreak": {"samples": 6, "p50_ms": 0.101680, "p99_ms": 0.101782, "p999_ms": 0.101782, "max_ms": 0.101782, "mean_ms": 0.101642},
    "digest": "0x5b873a80f53c9ad1",
    "shard_invariant": true
  }
}
"#;

    const GOLDEN_RECOVERY_SMOKE: &str = r#"{
  "schema": "sweeper-bench-v11",
  "recovery": {
    "status": "ok",
    "hosts": 5,
    "seed": 9,
    "target": "Apache1",
    "full_quiescent": {"samples": 1, "p50_ms": 0.101265, "p99_ms": 0.101265, "p999_ms": 0.101265, "max_ms": 0.101265, "mean_ms": 0.101265},
    "full_outbreak": {"samples": 6, "p50_ms": 0.101680, "p99_ms": 0.101782, "p999_ms": 0.101782, "max_ms": 0.101782, "mean_ms": 0.101587},
    "domain_quiescent": {"samples": 1, "p50_ms": 0.101265, "p99_ms": 0.101265, "p999_ms": 0.101265, "max_ms": 0.101265, "mean_ms": 0.101265},
    "domain_outbreak": {"samples": 6, "p50_ms": 0.101680, "p99_ms": 0.101782, "p999_ms": 0.101782, "max_ms": 0.101782, "mean_ms": 0.101642},
    "domain_rollbacks": 6,
    "domain_fallbacks": 0,
    "domain_spills": 0,
    "i12_violations": 0,
    "domain_parity": true,
    "protected_full": 5,
    "protected_domain": 5,
    "p999_ratio": 1.000000,
    "digest_domain": "0x5b873a80f53c9ad1",
    "shard_invariant": true
  }
}
"#;

    #[test]
    fn recovery_block_holds_i12_and_parity_at_smoke_scale() {
        let cfg = fleet::FleetConfig::smoke(5, 9);
        let b = recovery_block(&cfg, 3).expect("fleet runs");
        assert_eq!(b.status, "ok");
        assert!(b.shard_invariant, "Domain digest must be shard-invariant");
        assert_eq!(b.i12_violations, 0, "benign domains stay undisturbed");
        assert!(
            b.domain_parity,
            "differential legs must check and match: {b:?}"
        );
        assert_eq!(b.protected_full, b.protected_domain, "same protection");
        assert!(b.domain_rollbacks > 0, "Domain mode actually ran: {b:?}");
        // Same seed, same block — including through the JSON encoding.
        let again = recovery_block(&cfg, 3).expect("fleet runs");
        let json = document(vec![("recovery", b.to_json())]);
        assert_eq!(
            json,
            document(vec![("recovery", again.to_json())]),
            "recovery block is bit-stable"
        );
        assert!(json.contains("\"domain_parity\": true"));
        assert!(!json.contains("NaN") && !json.contains(": inf"));
        assert_eq!(json, GOLDEN_RECOVERY_SMOKE);
    }

    #[test]
    fn writer_prints_null_skip_markers_and_escapes() {
        let json = document(fields! {
            "finite": 0.5,
            "nan": f64::NAN,
            "inf": f64::INFINITY,
            "none": None::<u64>,
            "quoted": "a \"b\" \\c",
            "fleet": Json::or_skipped(&None::<FleetBlock>, "fleet"),
        });
        assert_eq!(
            json,
            r#"{
  "schema": "sweeper-bench-v11",
  "finite": 0.500000,
  "nan": null,
  "inf": null,
  "none": null,
  "quoted": "a \"b\" \\c",
  "fleet": {"status": "SKIPPED (run tables fleet)"}
}
"#
        );
    }

    #[test]
    fn distnet_sweep_contains_and_never_deploys_unverified() {
        let cells = distnet_sweep(600, 11);
        assert_eq!(cells.len(), 8);
        for c in &cells {
            // I8 holds in every cell of the committed figure.
            assert_eq!(
                c.deployed_unverified, 0,
                "loss={} byz={}: unverified deployment",
                c.loss, c.byzantine
            );
            assert!(c.infected <= 600);
        }
        // The zero-fault cell completes protection; lossier wires never
        // contain *better* than the perfect wire.
        let ideal = &cells[0];
        assert_eq!(ideal.loss, 0.0);
        assert_eq!(ideal.byzantine, 0.0);
        assert!(ideal.gamma_effective.is_some(), "ideal wire protects all");
        for c in &cells[1..4] {
            assert!(
                c.infected >= ideal.infected,
                "loss={} contained better than the perfect wire",
                c.loss
            );
        }
        // Byzantine cells actually exercise verify-before-deploy.
        let byz_rejected: u64 = cells
            .iter()
            .filter(|c| c.byzantine > 0.0)
            .map(|c| c.rejected)
            .sum();
        assert!(byz_rejected > 0, "no Byzantine bundle was ever rejected");
    }
}
