//! Wall-clock spans the benchmark records around its own calls into the
//! repository's crates.
//!
//! Every span is a top-level interval of the benchmark's event loop (no
//! two benchmark spans nest), so a layer's self time is its span total
//! minus the child time it reports from inside the program (the
//! `pipeline.*` wall mirrors of an analysis), and the time no span
//! covers is the residual of the enclosing phase. Spans accumulate into
//! fixed per-key totals, so recording one costs two `Instant::now`
//! calls and two additions.

use std::time::Instant;

/// One call site the benchmark wraps, named `<crate>.<call>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Key {
    /// `apps::<app>::app` plus the exploit input (setup).
    AppsBoot,
    /// `sweeper::Sweeper::protect`, once per host (setup).
    Protect,
    /// `apps::workload::Workload::new`, once per host (setup).
    WorkloadNew,
    /// `fleet::Reactor::new` (setup).
    ReactorNew,
    /// `fleet::Reactor::schedule`.
    Schedule,
    /// `fleet::Reactor::pop`.
    Pop,
    /// `fleet::LoadGen::gap_secs`.
    Gap,
    /// `apps::workload::Workload::next_request`.
    NextRequest,
    /// `epidemic::ContactModel::burst`.
    Burst,
    /// `sweeper::Sweeper::poll_offer` that served the request.
    PollServed,
    /// `sweeper::Sweeper::poll_offer` dropped at the signature filter.
    PollFiltered,
    /// `sweeper::Sweeper::poll_offer` on an attack without analysis:
    /// detect, rollback, resume.
    PollRecover,
    /// `sweeper::Sweeper::poll_offer` on an attack the producer pipeline
    /// analysed (the span's self time excludes the `pipeline.*` mirrors).
    PollAnalysis,
    /// `sweeper::Sweeper::drain_precopy`.
    Drain,
    /// `sweeper::Sweeper::certify_antibody`.
    Certify,
    /// `sweeper::Sweeper::receive_certified`.
    Receive,
    /// `epidemic::community::run`, one arm.
    CommunityRun,
}

impl Key {
    /// Every key, in report order.
    pub const ALL: [Key; 17] = [
        Key::AppsBoot,
        Key::Protect,
        Key::WorkloadNew,
        Key::ReactorNew,
        Key::Schedule,
        Key::Pop,
        Key::Gap,
        Key::NextRequest,
        Key::Burst,
        Key::PollServed,
        Key::PollFiltered,
        Key::PollRecover,
        Key::PollAnalysis,
        Key::Drain,
        Key::Certify,
        Key::Receive,
        Key::CommunityRun,
    ];

    /// The crate whose public function the span wraps.
    pub fn layer(self) -> &'static str {
        match self {
            Key::AppsBoot | Key::WorkloadNew | Key::NextRequest => "apps",
            Key::Protect
            | Key::PollServed
            | Key::PollFiltered
            | Key::PollRecover
            | Key::PollAnalysis
            | Key::Drain
            | Key::Certify
            | Key::Receive => "sweeper",
            Key::ReactorNew | Key::Schedule | Key::Pop | Key::Gap => "fleet",
            Key::Burst | Key::CommunityRun => "epidemic",
        }
    }
}

/// Per-key wall totals of one phase (setup or run) of one repetition.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    on: bool,
    nanos: [u64; Key::ALL.len()],
    calls: [u64; Key::ALL.len()],
    /// Wall time of the analysis phases measured inside `poll_offer`
    /// (the wall mirrors of the `pipeline.*` spans, in
    /// `replay::PIPELINE_PHASES` order), carved out of
    /// [`Key::PollAnalysis`] as the `analysis` layer's self time.
    pub pipeline_nanos: [u64; 4],
}

impl Trace {
    /// A trace that records spans only when `on`.
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            ..Trace::default()
        }
    }

    /// Run `f` inside a span for `key` (a plain call when tracing is off).
    #[inline]
    pub fn time<R>(&mut self, key: Key, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.add(key, start.elapsed().as_nanos() as u64);
        r
    }

    /// Record a span measured by the caller (always, even when off: the
    /// `poll_offer` timings are end-to-end samples too).
    #[inline]
    pub fn add(&mut self, key: Key, nanos: u64) {
        self.nanos[key as usize] += nanos;
        self.calls[key as usize] += 1;
    }

    /// Total nanoseconds under `key`.
    pub fn nanos(&self, key: Key) -> u64 {
        self.nanos[key as usize]
    }

    /// Calls recorded under `key`.
    pub fn calls(&self, key: Key) -> u64 {
        self.calls[key as usize]
    }

    /// Sum of every span, i.e. the covered part of the phase.
    pub fn covered_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Self time per layer, in report order. The `pipeline.*` mirrors
    /// move from `sweeper` to `analysis`, so the layers still sum to
    /// [`Trace::covered_nanos`].
    pub fn layer_self_nanos(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for key in Key::ALL {
            let ns = self.nanos(key);
            match out.iter_mut().find(|(l, _)| *l == key.layer()) {
                Some((_, total)) => *total += ns,
                None => out.push((key.layer(), ns)),
            }
        }
        let analysis: u64 = self.pipeline_nanos.iter().sum();
        if let Some((_, total)) = out.iter_mut().find(|(l, _)| *l == "sweeper") {
            *total -= analysis.min(*total);
        }
        out.push(("analysis", analysis));
        out
    }
}
