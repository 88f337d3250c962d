//! A replay of `fleet::sim`'s event loop on the public fleet, epidemic,
//! apps and sweeper APIs, so every call into a `Sweeper` can be timed.
//!
//! `fleet::run` is one opaque call that also boots the hosts. This
//! replay splits it into [`Replay::boot`] (setup) and [`Replay::run`]
//! (the measured phase) and wraps each call into the program in a
//! [`Trace`] span. It folds the same FNV digest as `fleet::sim`, and the
//! benchmark refuses to report unless the digest and the served /
//! attack / protected counts equal `fleet::run`'s for the same config,
//! so the replay cannot drift from the program it measures.

use std::collections::VecDeque;
use std::time::Instant;

use antibody::CertifiedBundle;
use apps::workload::{Target, Workload};
use apps::{cvs, httpd1, httpd2, squid, App};
use epidemic::rng::{draw, draw_unit};
use epidemic::ContactModel;
use fleet::sim::{DOMAIN_FLEET, DOMAIN_WIRE};
use fleet::{FleetConfig, LoadGen, Reactor, COMMUNITY_KEY};
use obs::MetricsRegistry;
use svm::clock::{cycles_to_secs, secs_to_cycles};
use sweeper::{BundleOutcome, Config, LatencyBook, PollOutcome, RequestOutcome, Sweeper};

use crate::trace::{Key, Trace};

/// The `pipeline.*` spans whose wall mirrors make up an analysis.
pub const PIPELINE_PHASES: [&str; 4] = [
    "pipeline.memory_state",
    "pipeline.memory_bug",
    "pipeline.taint",
    "pipeline.slicing",
];

struct PendingReq {
    bytes: Vec<u8>,
    arrival: u64,
    worm: bool,
}

struct Host {
    sw: Sweeper,
    wl: Workload,
    queue: VecDeque<PendingReq>,
    busy: bool,
}

enum Ev {
    Benign { k: u64 },
    Worm,
    Complete,
    Drain,
    Deliver(Box<CertifiedBundle>),
}

fn fnv_fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Wall-time samples of the `poll_offer` calls, by outcome, in µs.
#[derive(Debug, Default)]
pub struct CallSamples {
    /// Benign requests served.
    pub served_us: Vec<f64>,
    /// Attacks recovered without analysis.
    pub recover_us: Vec<f64>,
    /// Attacks that ran the producer pipeline.
    pub analysis_us: Vec<f64>,
    /// Pages each `drain_precopy` call folded.
    pub drained_pages: u64,
}

/// Everything one measured run of the replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Same construction as `fleet::FleetOutcome::digest`.
    pub digest: u64,
    /// Requests served (benign and, before antibodies, none else).
    pub served: u64,
    /// Requests dropped at the signature filter.
    pub filtered: u64,
    /// Attacks detected.
    pub attacks: u64,
    /// Hosts holding an antibody at the end.
    pub protected_hosts: u32,
    /// Bundles deployed fleet-wide.
    pub bundles_deployed: u64,
    /// Bundles rejected at verification.
    pub bundles_rejected: u64,
    /// Benign requests offered (arrivals queued).
    pub benign_offered: u64,
    /// Benign requests served.
    pub benign_served: u64,
    /// Exploit deliveries offered.
    pub worm_offered: u64,
    /// Attack reports with `compromised` set.
    pub compromised: u64,
    /// Certified bundles delivered to hosts.
    pub bundles_delivered: u64,
    /// Benign latency (virtual ms) before the outbreak, or all of it.
    pub quiescent: LatencyBook,
    /// Benign latency (virtual ms) from the outbreak instant on.
    pub outbreak: LatencyBook,
    /// All hosts' metrics merged in host order.
    pub metrics: MetricsRegistry,
    /// Reactor events popped.
    pub events: u64,
    /// Deepest per-host service queue seen.
    pub queue_depth_max: usize,
    /// Hosts booted.
    pub hosts: u32,
    /// Mean of the hosts' `svm.mem.mapped_pages` gauges (the merged
    /// registry keeps only the last host's gauge).
    pub mapped_pages_per_host: f64,
}

/// The fleet, booted and ready to run.
pub struct Replay {
    cfg: FleetConfig,
    hosts: Vec<Host>,
    reactor: Reactor<Ev>,
    lg: LoadGen,
    contact: ContactModel,
    wire_seed: u64,
    worm_input: Vec<u8>,
    horizon: u64,
    outbreak_at: Option<u64>,
    interval_cycles: u64,
    next_infection: u64,
    bundle_sent: bool,
    served: u64,
    filtered: u64,
    attacks: u64,
    contacts: u64,
    bundles_deployed: u64,
    bundles_rejected: u64,
    benign_offered: u64,
    benign_served: u64,
    worm_offered: u64,
    compromised: u64,
    bundles_delivered: u64,
    events: u64,
    queue_depth_max: usize,
    quiescent: LatencyBook,
    outbreak: LatencyBook,
    digest: u64,
    /// Spans of the measured phase.
    pub trace: Trace,
    /// `poll_offer` wall samples (always recorded).
    pub samples: CallSamples,
}

impl Replay {
    /// Boot every host of `cfg`, recording the setup spans in `setup`.
    pub fn boot(cfg: &FleetConfig, setup: &mut Trace, trace_run: bool) -> Result<Replay, String> {
        let (app, worm_input) = setup.time(Key::AppsBoot, || {
            boot_app(cfg.target).map(|app| {
                let input = exploit_input(cfg.target, &app);
                (app, input)
            })
        })?;
        let mut hosts = Vec::with_capacity(cfg.hosts as usize);
        for h in 0..cfg.hosts {
            let hseed = draw(cfg.seed, DOMAIN_FLEET, 0x100 + u64::from(h));
            let producer = cfg.producer_every > 0 && h % cfg.producer_every == 0;
            let conf = if producer {
                Config::producer(hseed)
            } else {
                Config::consumer(hseed)
            }
            .with_interval_ms(cfg.interval_ms as f64)
            .with_recovery(cfg.recovery);
            let sw = setup
                .time(Key::Protect, || Sweeper::protect(&app, conf))
                .map_err(|e| format!("fleet host {h} failed to boot: {e}"))?;
            let wl = setup.time(Key::WorkloadNew, || {
                Workload::new(cfg.target, hseed ^ 0x776c)
            });
            hosts.push(Host {
                sw,
                wl,
                queue: VecDeque::new(),
                busy: false,
            });
        }
        let reactor = setup.time(Key::ReactorNew, || {
            Reactor::new(cfg.hosts, cfg.shards, draw(cfg.seed, DOMAIN_FLEET, 4))
        });
        Ok(Replay {
            hosts,
            reactor,
            lg: LoadGen {
                seed: draw(cfg.seed, DOMAIN_FLEET, 1),
                rate_per_sec: cfg.arrival_rate_hz,
            },
            contact: ContactModel {
                seed: draw(cfg.seed, DOMAIN_FLEET, 2),
                hosts: u64::from(cfg.hosts),
                rate_per_sec: cfg.worm_rate_hz,
                fanout: cfg.fanout,
            },
            wire_seed: draw(cfg.seed, DOMAIN_FLEET, 3),
            worm_input,
            horizon: secs_to_cycles(cfg.horizon_ms / 1e3),
            outbreak_at: cfg.outbreak_at_ms.map(|ms| secs_to_cycles(ms / 1e3)),
            interval_cycles: secs_to_cycles(cfg.interval_ms as f64 / 1e3),
            next_infection: 0,
            bundle_sent: false,
            served: 0,
            filtered: 0,
            attacks: 0,
            contacts: 0,
            bundles_deployed: 0,
            bundles_rejected: 0,
            benign_offered: 0,
            benign_served: 0,
            worm_offered: 0,
            compromised: 0,
            bundles_delivered: 0,
            events: 0,
            queue_depth_max: 0,
            quiescent: LatencyBook::new(),
            outbreak: LatencyBook::new(),
            digest: FNV_OFFSET,
            trace: Trace::new(trace_run),
            samples: CallSamples::default(),
            cfg: *cfg,
        })
    }

    fn schedule(&mut self, at: u64, host: u32, ev: Ev) {
        let reactor = &mut self.reactor;
        self.trace
            .time(Key::Schedule, || reactor.schedule(at, host, ev));
    }

    fn gap_cycles(&mut self, h: u32, k: u64) -> u64 {
        let lg = self.lg;
        secs_to_cycles(self.trace.time(Key::Gap, || lg.gap_secs(h, k)))
    }

    fn prime(&mut self) {
        for h in 0..self.cfg.hosts {
            let at = self.gap_cycles(h, 0);
            if at <= self.horizon {
                self.schedule(at, h, Ev::Benign { k: 0 });
            }
            if self.interval_cycles <= self.horizon {
                self.schedule(self.interval_cycles, h, Ev::Drain);
            }
        }
        if let Some(at) = self.outbreak_at {
            let infection = self.next_infection;
            self.next_infection += 1;
            self.spawn_contacts(infection, at);
        }
    }

    fn spawn_contacts(&mut self, infection: u64, from: u64) {
        let contact = self.contact;
        let burst = self.trace.time(Key::Burst, || contact.burst(infection));
        for (delay_secs, victim) in burst {
            if self.contacts >= u64::from(self.cfg.contact_cap) {
                return;
            }
            let at = from + secs_to_cycles(delay_secs);
            if at > self.horizon {
                continue;
            }
            self.contacts += 1;
            self.schedule(at, victim as u32, Ev::Worm);
        }
    }

    /// One `poll_offer`, always timed: the wall samples are end-to-end
    /// metrics, and the outcome picks the span.
    fn poll(&mut self, h: u32, bytes: Vec<u8>) -> PollOutcome {
        let sw = &mut self.hosts[h as usize].sw;
        let spans_before = sw.obs.spans().len();
        let start = Instant::now();
        let poll = sw.poll_offer(bytes);
        let nanos = start.elapsed().as_nanos() as u64;
        let us = nanos as f64 / 1e3;
        let key = match &poll.outcome {
            RequestOutcome::Served { .. } => Key::PollServed,
            RequestOutcome::Filtered { .. } => Key::PollFiltered,
            RequestOutcome::Attack(r) if r.analysis.is_some() => Key::PollAnalysis,
            RequestOutcome::Attack(_) => Key::PollRecover,
        };
        match key {
            Key::PollServed => self.samples.served_us.push(us),
            Key::PollRecover => self.samples.recover_us.push(us),
            Key::PollAnalysis => {
                self.samples.analysis_us.push(us);
                for span in &sw.obs.spans()[spans_before..] {
                    if let Some(i) = PIPELINE_PHASES.iter().position(|p| *p == span.name) {
                        self.trace.pipeline_nanos[i] += span.wall_nanos;
                    }
                }
            }
            _ => {}
        }
        self.trace.add(key, nanos);
        poll
    }

    fn maybe_begin_service(&mut self, h: u32, t: u64) {
        let host = &mut self.hosts[h as usize];
        if host.busy {
            return;
        }
        let Some(req) = host.queue.pop_front() else {
            return;
        };
        host.busy = true;
        let poll = self.poll(h, req.bytes);
        let done = t + poll.busy_cycles;
        self.digest = fnv_fold(
            fnv_fold(fnv_fold(self.digest, u64::from(h)), req.arrival),
            done,
        );
        match poll.outcome {
            RequestOutcome::Served { .. } => {
                self.served += 1;
                if !req.worm {
                    self.benign_served += 1;
                }
            }
            RequestOutcome::Filtered { .. } => self.filtered += 1,
            RequestOutcome::Attack(report) => {
                self.attacks += 1;
                if report.compromised {
                    self.compromised += 1;
                }
                if req.worm {
                    let infection = self.next_infection;
                    self.next_infection += 1;
                    self.spawn_contacts(infection, done);
                }
                if !self.bundle_sent {
                    if let Some(analysis) = report.analysis.as_ref() {
                        let sw = &mut self.hosts[h as usize].sw;
                        let bundle = self.trace.time(Key::Certify, || {
                            sw.certify_antibody(h, 0, COMMUNITY_KEY, &analysis.antibody)
                        });
                        if let Some(bundle) = bundle {
                            self.bundle_sent = true;
                            self.broadcast(h, done, &bundle);
                        }
                    }
                }
            }
        }
        if !req.worm {
            let ms = cycles_to_secs(done - req.arrival) * 1e3;
            let book = match self.outbreak_at {
                Some(outbreak) if req.arrival >= outbreak => &mut self.outbreak,
                _ => &mut self.quiescent,
            };
            book.add(done, ms);
        }
        self.schedule(done, h, Ev::Complete);
    }

    fn broadcast(&mut self, from: u32, at: u64, bundle: &CertifiedBundle) {
        let (lo, hi) = self.cfg.wire_delay_ms;
        for dest in 0..self.cfg.hosts {
            if dest == from {
                continue;
            }
            let counter = (u64::from(from) << 32) | u64::from(dest);
            let u = draw_unit(self.wire_seed, DOMAIN_WIRE, counter);
            let delay = secs_to_cycles((lo + u * (hi - lo)) / 1e3);
            self.schedule(at + delay, dest, Ev::Deliver(Box::new(bundle.clone())));
        }
    }

    fn drain(&mut self, h: u32) {
        let sw = &mut self.hosts[h as usize].sw;
        let pages = self.trace.time(Key::Drain, || sw.drain_precopy());
        self.samples.drained_pages += pages as u64;
    }

    fn enqueue(&mut self, h: u32, req: PendingReq) {
        let queue = &mut self.hosts[h as usize].queue;
        queue.push_back(req);
        self.queue_depth_max = self.queue_depth_max.max(queue.len());
    }

    /// The measured phase: prime the reactor and run it dry.
    pub fn run(&mut self) {
        self.prime();
        loop {
            let reactor = &mut self.reactor;
            let Some(fired) = self.trace.time(Key::Pop, || reactor.pop()) else {
                break;
            };
            self.events += 1;
            let (t, h) = (fired.at_cycles, fired.host);
            match fired.payload {
                Ev::Benign { k } => {
                    let wl = &mut self.hosts[h as usize].wl;
                    let bytes = self.trace.time(Key::NextRequest, || wl.next_request());
                    self.benign_offered += 1;
                    self.enqueue(
                        h,
                        PendingReq {
                            bytes,
                            arrival: t,
                            worm: false,
                        },
                    );
                    let next = t + self.gap_cycles(h, k + 1);
                    if next <= self.horizon {
                        self.schedule(next, h, Ev::Benign { k: k + 1 });
                    }
                    self.maybe_begin_service(h, t);
                }
                Ev::Worm => {
                    self.worm_offered += 1;
                    let bytes = self.worm_input.clone();
                    self.enqueue(
                        h,
                        PendingReq {
                            bytes,
                            arrival: t,
                            worm: true,
                        },
                    );
                    self.maybe_begin_service(h, t);
                }
                Ev::Complete => {
                    self.hosts[h as usize].busy = false;
                    self.drain(h);
                    self.maybe_begin_service(h, t);
                }
                Ev::Drain => {
                    if !self.hosts[h as usize].busy {
                        self.drain(h);
                    }
                    let next = t + self.interval_cycles;
                    if next <= self.horizon {
                        self.schedule(next, h, Ev::Drain);
                    }
                }
                Ev::Deliver(bundle) => {
                    self.bundles_delivered += 1;
                    let sw = &mut self.hosts[h as usize].sw;
                    let outcome = self.trace.time(Key::Receive, || {
                        sw.receive_certified(&bundle, COMMUNITY_KEY)
                    });
                    match outcome {
                        BundleOutcome::Deployed { .. } => self.bundles_deployed += 1,
                        BundleOutcome::Rejected(_) => self.bundles_rejected += 1,
                        BundleOutcome::SenderQuarantined => {}
                    }
                }
            }
        }
    }

    /// Fold the final host state into the digest and merge the hosts'
    /// metrics, exactly as `fleet::sim` does (outside the timed phase).
    pub fn finish(mut self) -> (ReplayOutcome, Trace, CallSamples) {
        let mut protected = 0u32;
        for host in &self.hosts {
            let s = host.sw.status();
            if s.deployed_signatures > 0 || s.deployed_vsefs > 0 {
                protected += 1;
            }
            for v in [
                s.requests_served,
                s.requests_sampled,
                s.attacks_detected,
                s.requests_filtered,
                s.deployed_vsefs as u64,
                s.deployed_signatures as u64,
                s.checkpoints_retained as u64,
                s.checkpoints_taken,
                host.sw.machine.clock.cycles(),
            ] {
                self.digest = fnv_fold(self.digest, v);
            }
        }
        let exported: Vec<MetricsRegistry> =
            self.hosts.iter().map(|h| h.sw.export_metrics()).collect();
        let mapped: f64 = exported
            .iter()
            .filter_map(|r| r.gauge_value("svm.mem.mapped_pages"))
            .sum();
        let out = ReplayOutcome {
            digest: self.digest,
            served: self.served,
            filtered: self.filtered,
            attacks: self.attacks,
            protected_hosts: protected,
            bundles_deployed: self.bundles_deployed,
            bundles_rejected: self.bundles_rejected,
            benign_offered: self.benign_offered,
            benign_served: self.benign_served,
            worm_offered: self.worm_offered,
            compromised: self.compromised,
            bundles_delivered: self.bundles_delivered,
            quiescent: self.quiescent,
            outbreak: self.outbreak,
            metrics: MetricsRegistry::merge_all(&exported),
            events: self.events,
            queue_depth_max: self.queue_depth_max,
            hosts: self.cfg.hosts,
            mapped_pages_per_host: mapped / f64::from(self.cfg.hosts.max(1)),
        };
        (out, self.trace, self.samples)
    }
}

fn boot_app(target: Target) -> Result<App, String> {
    match target {
        Target::Apache1 => httpd1::app(),
        Target::Apache2 => httpd2::app(),
        Target::Cvs => cvs::app(),
        Target::Squid => squid::app(),
    }
    .map_err(|e| format!("fleet app boot ({target:?}): {e}"))
}

fn exploit_input(target: Target, app: &App) -> Vec<u8> {
    match target {
        Target::Apache1 => httpd1::exploit_crash(app).input,
        Target::Apache2 => httpd2::exploit_crash(app).input,
        Target::Cvs => cvs::exploit_crash(app).input,
        Target::Squid => squid::exploit_crash(app).input,
    }
}
