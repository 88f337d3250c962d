//! The `epidemic_1m` workload: the four `fig9fail` containment arms
//! (none / failest / antibody / both) on the struct-of-arrays community
//! engine, one serial shard.

use std::time::Instant;

use epidemic::community::{run, CommunityEngine, CommunityParams, Parallelism};
use epidemic::{CommunityOutcome, DistNetParams, FailContParams};

use crate::trace::{Key, Trace};

/// Arm names, in run order.
pub const ARMS: [&str; 4] = ["none", "failest", "antibody", "both"];

/// The four arms' parameters: a fast scanning worm (one attempt per
/// tick, ρ = 0.1, one initial infection, 400-tick cap) with the
/// failure estimator and/or antibody distribution (α = 0.1 %,
/// γ = 10 ticks) switched on, exactly as `tables fig9fail` runs them.
pub fn arm_params(hosts: u64, seed: u64) -> [CommunityParams; 4] {
    let arm = |alpha: f64, gamma_ticks: u64, failcont: FailContParams| CommunityParams {
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
    [
        arm(0.0, 0, FailContParams::disabled()),
        arm(0.0, 0, FailContParams::standard()),
        arm(0.001, 10, FailContParams::disabled()),
        arm(0.001, 10, FailContParams::standard()),
    ]
}

/// One arm's result.
#[derive(Debug)]
pub struct ArmRun {
    /// Wall seconds of `community::run`.
    pub wall_s: f64,
    /// The engine's outcome.
    pub outcome: CommunityOutcome,
}

impl ArmRun {
    /// Hosts holding the antibody at the end.
    pub fn protected(&self) -> u64 {
        self.outcome
            .shard_stats
            .iter()
            .map(|s| s.antibodies_applied)
            .sum()
    }

    /// Attempt slots the failure estimator suppressed.
    pub fn suppressed(&self) -> u64 {
        self.outcome
            .failcont
            .as_ref()
            .map_or(0, |f| f.suppressed_attempts)
    }

    /// Everything the arm decided, minus wall-clock counters: must be
    /// identical across repetitions of the same seed.
    pub fn fingerprint(&self) -> String {
        let o = &self.outcome;
        format!(
            "{:?}/{}/{}/{:?}/{:?}/{}",
            o.t0_tick,
            o.infected,
            o.ticks,
            o.curve,
            o.failcont,
            self.protected()
        )
    }
}

/// Run the four arms in order, each inside a [`Key::CommunityRun`] span.
pub fn run_arms(params: &[CommunityParams; 4], trace: &mut Trace) -> Vec<ArmRun> {
    params
        .iter()
        .map(|p| {
            let start = Instant::now();
            let outcome = trace.time(Key::CommunityRun, || run(p));
            ArmRun {
                wall_s: start.elapsed().as_secs_f64(),
                outcome,
            }
        })
        .collect()
}
