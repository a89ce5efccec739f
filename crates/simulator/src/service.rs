//! The open-system service mode: the scheduler as a long-running server.
//!
//! Batch mode materializes a finite trace, pushes every arrival into the
//! event queue up front, and simulates to completion. [`ServiceEngine`]
//! instead drives the same round machinery under a *continuous* arrival
//! stream: apps are admitted as an [`AppSource`] produces them, retired
//! (and removed from the arena) the moment they finish, and measured with
//! rolling-window percentiles plus a steady-state detector instead of
//! end-of-trace aggregates.
//!
//! ## Closed-system equivalence
//!
//! Replaying a fully-materialized arrival sequence through service mode
//! (no heartbeat ticks, infinite horizon) produces a report byte-identical
//! to the batch engine's. Two details make that exact rather than
//! approximate:
//!
//! * **Arrivals are admitted outside the event queue.** In batch mode the
//!   arrival events are pushed first and therefore win every same-time
//!   tie; the service loop reproduces that by comparing the next pending
//!   arrival against the next queued event and admitting on `<=`.
//! * **The clock only ever moves to event times.** Training progress
//!   accumulates floating-point work per `advance_to` slice, and
//!   `(a + b) · r ≠ a · r + b · r` in floats — so the service loop never
//!   advances to a time the batch run would not have advanced to (no jump
//!   to the horizon, no tick injection during equivalence runs).
//!
//! ## Incremental rounds
//!
//! Service cells run with [`SimConfig::incremental`] set: heartbeat ticks
//! on a clean offer set skip the policy call entirely (see
//! `Engine::process_round`), which is what makes a mostly-idle
//! long-running server cheap between bursts.

use crate::app_runtime::AppRuntime;
use crate::arrivals::ArrivalProcess;
use crate::engine::{Engine, SimConfig};
use crate::metrics::{AppOutcome, SimReport};
use crate::scheduler::Scheduler;
use crate::window::{ServiceWindows, SteadyConfig, SteadyStateDetector, WindowSummary};
use std::collections::BTreeMap;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::AppId;
use themis_cluster::time::Time;
use themis_workload::app::AppSpec;
use themis_workload::stream::TraceStream;

/// A source of app specs in non-decreasing arrival order. `None` ends the
/// stream (the service run keeps draining queued events afterwards).
pub trait AppSource {
    /// The next app, or `None` when the stream is exhausted.
    fn next_app(&mut self) -> Option<AppSpec>;
}

/// Replays a fixed, fully-materialized trace — the closed-system
/// equivalence harness.
#[derive(Debug)]
pub struct ReplaySource {
    specs: std::vec::IntoIter<AppSpec>,
}

impl ReplaySource {
    /// Creates a source over a trace sorted by arrival time (the order a
    /// [`TraceGenerator`](themis_workload::trace::TraceGenerator) emits).
    pub fn new(trace: Vec<AppSpec>) -> Self {
        assert!(
            trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "replayed trace must be sorted by arrival"
        );
        ReplaySource {
            specs: trace.into_iter(),
        }
    }
}

impl AppSource for ReplaySource {
    fn next_app(&mut self) -> Option<AppSpec> {
        self.specs.next()
    }
}

/// The live open-system source: arrival times from an [`ArrivalProcess`],
/// app attributes from a [`TraceStream`], bounded by an admission horizon.
#[derive(Debug)]
pub struct StreamSource {
    arrivals: ArrivalProcess,
    stream: TraceStream,
    admit_until: Time,
    dry: bool,
}

impl StreamSource {
    /// Creates a source admitting apps with arrival times up to (and
    /// including) `admit_until`.
    pub fn new(arrivals: ArrivalProcess, stream: TraceStream, admit_until: Time) -> Self {
        StreamSource {
            arrivals,
            stream,
            admit_until,
            dry: false,
        }
    }
}

impl AppSource for StreamSource {
    fn next_app(&mut self) -> Option<AppSpec> {
        if self.dry {
            return None;
        }
        let arrival = self.arrivals.next_arrival();
        if arrival > self.admit_until {
            self.dry = true;
            return None;
        }
        Some(self.stream.next_app_at(arrival))
    }
}

/// Configuration of a service run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Events after this simulated time are left unprocessed; the run ends.
    pub horizon: Time,
    /// Heartbeat round interval. Ticks fill event-free stretches so
    /// windowed metrics and the steady-state check keep moving; `None`
    /// (required for closed-system equivalence runs) schedules none.
    pub tick_interval: Option<Time>,
    /// Width of the rolling metric windows.
    pub window: Time,
    /// The steady-state convergence test.
    pub steady: SteadyConfig,
}

/// The report of a service run: the batch-shaped [`SimReport`] over every
/// app the run touched (retired + still live), plus the windowed service
/// metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Outcome-level report, byte-identical to a batch run over the same
    /// arrival history (see the module docs).
    pub sim: SimReport,
    /// Final snapshot of the rolling-window metrics.
    pub windows: WindowSummary,
    /// Apps admitted over the run.
    pub admitted: u64,
    /// Apps retired (finished and removed from the arena) over the run.
    pub retired: u64,
    /// When the steady-state detector declared convergence, if it did.
    pub steady_state_at: Option<Time>,
    /// Rounds that invoked the scheduling policy.
    pub auctions_run: u64,
    /// Rounds the incremental hot path skipped the policy call on.
    pub auctions_skipped: u64,
}

/// Per-app observation state for the windowed metrics.
#[derive(Debug, Default, Clone, Copy)]
struct AppTrack {
    granted_once: bool,
    prev_held: usize,
    shrink_at: Option<Time>,
    zero_rounds: u64,
}

/// The long-running open-system driver around [`Engine`].
pub struct ServiceEngine<S: Scheduler, A: AppSource> {
    engine: Engine<S>,
    source: A,
    config: ServiceConfig,
    windows: ServiceWindows,
    detector: SteadyStateDetector,
    track: BTreeMap<AppId, AppTrack>,
    retired_outcomes: Vec<AppOutcome>,
    admitted: u64,
    pending: Option<AppSpec>,
    source_dry: bool,
    next_tick: Time,
}

impl<S: Scheduler, A: AppSource> ServiceEngine<S, A> {
    /// Creates a service engine over an empty arena.
    pub fn new(
        cluster: Cluster,
        scheduler: S,
        sim: SimConfig,
        config: ServiceConfig,
        source: A,
    ) -> Self {
        let engine = Engine::with_runtimes(cluster, Vec::new(), scheduler, sim);
        let first_tick = config.tick_interval.unwrap_or(Time::INFINITY);
        ServiceEngine {
            engine,
            source,
            windows: ServiceWindows::new(config.window, config.steady.warmup),
            detector: SteadyStateDetector::new(config.steady),
            config,
            track: BTreeMap::new(),
            retired_outcomes: Vec::new(),
            admitted: 0,
            pending: None,
            source_dry: false,
            next_tick: first_tick,
        }
    }

    /// Runs the service loop to its horizon (or until the arrival stream is
    /// exhausted and the event queue drained) and returns the report.
    pub fn run(mut self) -> ServiceReport {
        loop {
            self.refill_pending();
            if self.source_dry && self.pending.is_none() && self.engine.all_finished() {
                // Mirrors the batch engine's early exit: every admitted app
                // finished and no more will come — stale queued events
                // would not change anything.
                break;
            }
            self.maybe_schedule_tick();
            let next_arrival = self.pending.as_ref().map(|s| s.arrival);
            let next_event = self.engine.next_event_time();
            // Arrivals win ties: batch mode pushes every arrival event
            // before any runtime event, so its arrivals carry the lowest
            // sequence numbers at equal times.
            let admit_now = match (next_arrival, next_event) {
                (Some(a), Some(e)) => a <= e,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if admit_now {
                self.admit_next_batch();
            } else if !self.engine.step_due(self.config.horizon) {
                break;
            }
            self.observe();
        }
        self.finish()
    }

    /// Pulls the next spec from the source if none is staged. Arrivals
    /// beyond the horizon end the stream: they could only be admitted at a
    /// time the run will never reach.
    fn refill_pending(&mut self) {
        if self.pending.is_some() || self.source_dry {
            return;
        }
        match self.source.next_app() {
            Some(spec) if spec.arrival <= self.config.horizon => self.pending = Some(spec),
            Some(_) | None => self.source_dry = true,
        }
    }

    /// Admits the staged arrival plus every immediately following same-time
    /// arrival as one batch (the batch engine sees all same-time arrivals
    /// in the arena from the first of their rounds).
    fn admit_next_batch(&mut self) {
        let first = self.pending.take().expect("caller checked pending");
        let arrival = first.arrival;
        let mut batch = vec![first];
        loop {
            self.refill_pending();
            match &self.pending {
                Some(spec) if spec.arrival == arrival => {
                    batch.push(self.pending.take().expect("just matched"));
                }
                _ => break,
            }
        }
        self.admitted += batch.len() as u64;
        for spec in &batch {
            self.track.insert(spec.id, AppTrack::default());
        }
        let runtimes: Vec<AppRuntime> = batch
            .into_iter()
            .map(AppRuntime::with_default_hpo)
            .collect();
        self.engine.admit(runtimes);
    }

    /// Keeps exactly one heartbeat tick staged: pushed only when it would
    /// be the next thing to happen, and skipped over stretches where real
    /// events are already driving rounds.
    fn maybe_schedule_tick(&mut self) {
        let Some(interval) = self.config.tick_interval else {
            return;
        };
        // Ticks that real events have already driven past are not owed.
        while self.next_tick <= self.engine.now() {
            self.next_tick += interval;
        }
        if self.next_tick > self.config.horizon {
            return;
        }
        let due_before_others = self
            .engine
            .next_event_time()
            .is_none_or(|e| self.next_tick < e)
            && self
                .pending
                .as_ref()
                .is_none_or(|s| self.next_tick < s.arrival);
        if due_before_others {
            self.engine.push_tick(self.next_tick);
            self.next_tick += interval;
        }
    }

    /// Post-round observation: retire finished apps into the report,
    /// update per-app grant/queueing tracking, feed the windows and the
    /// steady-state detector.
    fn observe(&mut self) {
        let now = self.engine.now();
        for outcome in self.engine.retire_finished() {
            self.track.remove(&outcome.app);
            if let Some(rho) = outcome.rho {
                self.windows.record_rho(now, rho);
            }
            self.retired_outcomes.push(outcome);
        }
        let mut backlog = 0usize;
        for rt in self.engine.apps().iter() {
            if !rt.is_schedulable(now) {
                continue;
            }
            let id = rt.id();
            let held = self.engine.cluster().gpus_held_by(id);
            let track = self.track.entry(id).or_default();
            if held > 0 && !track.granted_once {
                track.granted_once = true;
                self.windows
                    .record_queueing(now, (now - rt.spec.arrival).as_minutes());
            }
            if held < track.prev_held && track.shrink_at.is_none() {
                track.shrink_at = Some(now);
            } else if held > track.prev_held {
                if let Some(shrunk) = track.shrink_at.take() {
                    self.windows
                        .record_renewal(now, (now - shrunk).as_minutes());
                }
            }
            if held == 0 {
                backlog += 1;
                track.zero_rounds += 1;
                let rounds = track.zero_rounds;
                self.windows.note_queue_rounds(now, rounds);
            } else {
                track.zero_rounds = 0;
            }
            track.prev_held = held;
        }
        self.detector
            .observe(now, self.windows.rho_window(), backlog);
    }

    fn finish(mut self) -> ServiceReport {
        let now = self.engine.now();
        let windows = self.windows.summary(now);
        let (auctions_run, auctions_skipped) = self.engine.auction_counts();
        let retired = self.retired_outcomes.len() as u64;
        let sim = self
            .engine
            .into_report()
            .with_merged_outcomes(self.retired_outcomes);
        ServiceReport {
            sim,
            windows,
            admitted: self.admitted,
            retired,
            steady_state_at: self.detector.converged_at(),
            auctions_run,
            auctions_skipped,
        }
    }
}
