//! The fleet engine: replicas behind a router, sized by a scale driver,
//! degraded by faults, and guarded by SLO-aware admission control.
//!
//! [`ChaosEngine`] is the one fleet loop for collocated replicas (the
//! disaggregated prefill/decode pools live in [`crate::pools`]). It routes
//! one arrival stream over the routable replicas with a
//! [`rago_schema::RouterPolicy`] (state-aware: every live replica is
//! advanced to just before each arrival, so the router sees live queue and
//! decode state) and merges the per-replica runs into one [`ChaosReport`].
//! What varies between runs is configuration, not code:
//!
//! * **[`ScaleDriver`]** — how capacity follows the trace:
//!   [`ScaleDriver::Static`] holds a fixed fleet (homogeneous, or one
//!   pipeline per replica via [`ChaosEngine::heterogeneous`]);
//!   [`ScaleDriver::Reactive`] evaluates an [`AutoscalerPolicy`] at its
//!   interval (scale-out on queue depth or recent attainment, warm-up,
//!   cooldown-gated scale-in with drain); [`ScaleDriver::Predictive`]
//!   executes a precomputed [`ScalingPlan`] (e.g. derived from
//!   `plan_capacity_profile`'s rate-profile schedule in `rago-core`) that
//!   provisions capacity *before* the load arrives.
//! * **[`FaultSchedule`]** — a deterministic list of [`FaultEvent`]s
//!   (explicit or seeded): replica crashes (in-flight requests re-queued or
//!   failed per [`CrashPolicy`], restart after a configurable delay with
//!   **cold caches** on the dead replica's pipeline), straggler
//!   onset/recovery (all stage and decode latencies scaled by a factor),
//!   and spot preemption with advance notice (the replica drains during
//!   the notice window, then dies). Empty by default.
//! * **[`AdmissionConfig`]** — fleet-level load shedding with per-class
//!   priorities: when the mean queue depth per routable replica exceeds a
//!   class's threshold, the arrival is shed instead of routed. Higher
//!   priority ⇒ higher threshold ⇒ shed later, so best-effort traffic
//!   absorbs the degradation. Shed counts are threaded into the merged
//!   [`crate::ServingMetrics::shed`] and the per-class rows. Off by default.
//! * **[`crate::sink::MetricsMode`]** — a run argument
//!   ([`ChaosEngine::run_with_mode`]). Exact runs retain every request
//!   timeline and the `(request, replica)` assignment log. Streaming runs
//!   keep `O(buckets)` metric state per replica: each replica feeds its
//!   completed requests into its own [`crate::sink::HistogramSink`] when
//!   it drains — or when it dies, so a faulted run holds no timelines
//!   either — and the sinks merge in slot-index order.
//!
//! The [`ChaosReport`] carries the merged [`FleetReport`] (one row per slot
//! ever provisioned), the scaling history and provisioned replica-seconds,
//! a [`FaultReport`] (requests lost/shed/retried, disruption log), and —
//! on exact runs — windowed attainment timelines, time-to-reattainment and
//! goodput-dip area per disruption.
//!
//! A one-replica static fleet reproduces
//! [`ServingEngine::run`](crate::engine::ServingEngine::run) exactly —
//! event order, timelines, and metrics (`tests/proptest_cluster.rs`).
//! Fault events ride a dedicated lane of the event queue
//! (`crate::equeue`) that orders **before** same-instant arrivals and
//! scheduled completions, so a fault landing exactly at an arrival instant
//! is in force before that request is processed — the tie-break is pinned
//! by `tests/golden/fault_*.json`.
//!
//! # Examples
//!
//! Crash one replica of a three-replica fleet mid-trace and inspect the
//! recovery:
//!
//! ```
//! use rago_serving_sim::faults::{ChaosEngine, FaultEvent, FaultSchedule, ScaleDriver};
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_schema::{RouterPolicy, SloTarget};
//! use rago_schema::SequenceProfile;
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! let spec = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 4, LatencyTable::constant(4, 0.02))],
//!     DecodeSpec::new(16, LatencyTable::constant(16, 2e-3)),
//! );
//! let trace = TraceSpec {
//!     num_requests: 120,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
//!     length_jitter: 0.0,
//!     seed: 7,
//! }
//! .generate();
//! let faults = FaultSchedule::new(vec![FaultEvent::Crash {
//!     replica: 0,
//!     at_s: 1.0,
//!     restart_delay_s: 0.5,
//! }]);
//! let report = ChaosEngine::new(spec, RouterPolicy::LeastOutstanding,
//!     ScaleDriver::Static { replicas: 3 })
//!     .with_faults(faults)
//!     .run_trace(&trace);
//! // Every injected request is accounted for exactly once.
//! assert_eq!(report.fault.injected, 120);
//! assert_eq!(
//!     report.fault.completed + report.fault.shed + report.fault.failed,
//!     120,
//! );
//! assert_eq!(report.fault.disruptions.len(), 1);
//! let slo = SloTarget::new(5.0, 1.0);
//! assert!(report.offered_attainment(&slo) > 0.0);
//! ```

use crate::autoscaler::{AutoscalerPolicy, ReplicaLifetime, ScalingAction, ScalingEvent};
use crate::cluster::{route_pick, FleetReport, LoadImbalance, ReplicaObs, ReplicaReport};
use crate::engine::{
    build_report, compute_metrics_for, sort_by_arrival, ClassMetrics, EngineRequest, PipelineSpec,
    ReplicaSim, RequestTimeline, SimAccumulators,
};
use crate::sink::{HistogramSink, MetricsMode};
use rago_schema::{RouterPolicy, SloTarget};
use rago_workloads::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// One injected fault. Replica indices refer to fleet slots in provisioning
/// order: the initial fleet is `0..initial`, and every later provisioning
/// (scale-out, plan step, restart) appends the next index. A fault whose
/// target slot does not exist — or is already dead — at the fault instant
/// is skipped (counted in [`FaultReport::faults_skipped`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The replica dies instantly at `at_s`: its caches and queued work are
    /// lost, in-flight requests are re-queued or failed per [`CrashPolicy`],
    /// and — unless `restart_delay_s` is infinite — a **cold** replacement
    /// replica is provisioned `restart_delay_s` later, taking the same
    /// warm-up path as a scale-out.
    Crash {
        /// Target fleet slot.
        replica: usize,
        /// Crash instant, in seconds.
        at_s: f64,
        /// Delay until the cold replacement is provisioned;
        /// `f64::INFINITY` means the replica never restarts.
        restart_delay_s: f64,
    },
    /// The replica degrades at `at_s`: every stage and decode latency is
    /// multiplied by `slowdown` until a matching [`FaultEvent::StragglerEnd`].
    StragglerStart {
        /// Target fleet slot.
        replica: usize,
        /// Onset instant, in seconds.
        at_s: f64,
        /// Latency multiplier (finite, `> 0`; `> 1` slows the replica down).
        slowdown: f64,
    },
    /// The replica recovers to full speed at `at_s`.
    StragglerEnd {
        /// Target fleet slot.
        replica: usize,
        /// Recovery instant, in seconds.
        at_s: f64,
    },
    /// Spot preemption with advance notice: at `at_s` the replica stops
    /// taking new traffic and drains; `notice_s` later it dies, and whatever
    /// is still in flight is re-queued or failed per [`CrashPolicy`]. A
    /// preempted replica never restarts.
    Preempt {
        /// Target fleet slot.
        replica: usize,
        /// Notice instant, in seconds.
        at_s: f64,
        /// Drain window between the notice and the kill, in seconds.
        notice_s: f64,
    },
}

impl FaultEvent {
    /// The fault's injection instant.
    pub fn at_s(&self) -> f64 {
        match *self {
            FaultEvent::Crash { at_s, .. }
            | FaultEvent::StragglerStart { at_s, .. }
            | FaultEvent::StragglerEnd { at_s, .. }
            | FaultEvent::Preempt { at_s, .. } => at_s,
        }
    }

    /// The targeted fleet slot.
    pub fn replica(&self) -> usize {
        match *self {
            FaultEvent::Crash { replica, .. }
            | FaultEvent::StragglerStart { replica, .. }
            | FaultEvent::StragglerEnd { replica, .. }
            | FaultEvent::Preempt { replica, .. } => replica,
        }
    }

    fn assert_valid(&self) {
        let at = self.at_s();
        assert!(
            at.is_finite() && at >= 0.0,
            "fault times must be finite and non-negative"
        );
        match *self {
            FaultEvent::Crash {
                restart_delay_s, ..
            } => assert!(
                restart_delay_s >= 0.0 && !restart_delay_s.is_nan(),
                "restart delays must be non-negative (infinity = never)"
            ),
            FaultEvent::StragglerStart { slowdown, .. } => assert!(
                slowdown.is_finite() && slowdown > 0.0,
                "straggler slowdown factors must be finite and positive"
            ),
            FaultEvent::StragglerEnd { .. } => {}
            FaultEvent::Preempt { notice_s, .. } => assert!(
                notice_s.is_finite() && notice_s >= 0.0,
                "preemption notice must be finite and non-negative"
            ),
        }
    }
}

/// A deterministic fault injection schedule: an explicit event list or a
/// seeded crash process. Events are stably sorted by time, so same-instant
/// events keep their list order — the replay is exactly reproducible and
/// golden-pinnable.
///
/// # Examples
///
/// ```
/// use rago_serving_sim::faults::{FaultEvent, FaultSchedule};
///
/// // Explicit: replica 1 straggles at 4x between t=2 and t=5.
/// let schedule = FaultSchedule::new(vec![
///     FaultEvent::StragglerEnd { replica: 1, at_s: 5.0 },
///     FaultEvent::StragglerStart { replica: 1, at_s: 2.0, slowdown: 4.0 },
/// ]);
/// assert_eq!(schedule.len(), 2);
/// assert_eq!(schedule.events()[0].at_s(), 2.0); // sorted by time
///
/// // Seeded: exponential crash inter-arrivals, reproducible per seed.
/// let a = FaultSchedule::seeded(13, 4, 20.0, 60.0, 5.0);
/// let b = FaultSchedule::seeded(13, 4, 20.0, 60.0, 5.0);
/// assert_eq!(a, b);
/// assert!(!a.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// A schedule of the given events, stably sorted by fault time.
    ///
    /// # Panics
    ///
    /// Panics if any event is malformed (negative or non-finite time,
    /// non-positive slowdown, negative notice or restart delay).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        for e in &events {
            e.assert_valid();
        }
        events.sort_by(|a, b| a.at_s().total_cmp(&b.at_s()));
        Self { events }
    }

    /// The empty schedule: no faults are ever injected.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A seeded crash process over `replicas` fleet slots: crash
    /// inter-arrival times are exponential with mean `mtbf_s` (mean time
    /// between failures), targets are uniform over the slots, and every
    /// crash restarts after `restart_delay_s`. Generation stops at
    /// `horizon_s`. Identical seeds produce identical schedules.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or `mtbf_s`/`horizon_s` are not
    /// positive and finite.
    pub fn seeded(
        seed: u64,
        replicas: usize,
        mtbf_s: f64,
        horizon_s: f64,
        restart_delay_s: f64,
    ) -> Self {
        assert!(replicas > 0, "a seeded schedule needs at least one replica");
        assert!(
            mtbf_s.is_finite() && mtbf_s > 0.0,
            "the mean time between failures must be positive and finite"
        );
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "the schedule horizon must be positive and finite"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_5EED);
        let mut events = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen();
            t += -mtbf_s * (1.0 - u).ln();
            if t > horizon_s {
                break;
            }
            let replica = rng.gen_range(0..replicas);
            events.push(FaultEvent::Crash {
                replica,
                at_s: t,
                restart_delay_s,
            });
        }
        Self::new(events)
    }

    /// The events, ascending by fault time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What happens to a dying replica's in-flight requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CrashPolicy {
    /// Re-queue them into the surviving fleet at the crash instant (their
    /// original arrival times are kept, so TTFT includes the lost time).
    /// Re-queued requests bypass admission control — they were admitted
    /// once. If no replica is routable they wait for the next one.
    #[default]
    Requeue,
    /// Fail them outright; they count in [`FaultReport::failed`].
    Fail,
}

/// Fleet-level, priority-aware admission control. At each arrival the
/// engine measures the mean queue depth per routable replica; the arrival
/// is **shed** when that depth exceeds its class's threshold
///
/// ```text
/// threshold(class) = shed_queue_depth + depth_per_priority × priority(class)
/// ```
///
/// so a higher-priority class tolerates a deeper backlog before shedding —
/// the shed decision is monotone in priority by construction
/// (`tests/proptest_faults.rs` holds this under arbitrary load).
///
/// # Examples
///
/// ```
/// use rago_serving_sim::faults::AdmissionConfig;
///
/// // Shed best-effort traffic above 2 queued per replica; each priority
/// // level buys 4 more.
/// let admission = AdmissionConfig::new(2.0, 4.0)
///     .with_class_priority(1, 2); // class 1 is high priority
/// assert_eq!(admission.priority_of(0), 0);
/// assert_eq!(admission.priority_of(1), 2);
/// assert_eq!(admission.threshold_for(0), 2.0);
/// assert_eq!(admission.threshold_for(2), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Mean queued requests per routable replica above which priority-0
    /// (best-effort) traffic is shed.
    pub shed_queue_depth: f64,
    /// Additional queue depth each priority level tolerates before
    /// shedding.
    pub depth_per_priority: f64,
    /// Priority per workload class, indexed by class id; classes beyond the
    /// table are priority 0. Matches
    /// `rago_workloads::RequestClass::priority` when built from a mix.
    pub class_priorities: Vec<u32>,
}

impl AdmissionConfig {
    /// An admission policy with the given base threshold and per-priority
    /// headroom; every class starts at priority 0.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is negative or non-finite.
    pub fn new(shed_queue_depth: f64, depth_per_priority: f64) -> Self {
        assert!(
            shed_queue_depth.is_finite() && shed_queue_depth >= 0.0,
            "the shed queue depth must be non-negative and finite"
        );
        assert!(
            depth_per_priority.is_finite() && depth_per_priority >= 0.0,
            "the per-priority depth must be non-negative and finite"
        );
        Self {
            shed_queue_depth,
            depth_per_priority,
            class_priorities: Vec::new(),
        }
    }

    /// Sets one class's priority (growing the table as needed).
    #[must_use]
    pub fn with_class_priority(mut self, class: u32, priority: u32) -> Self {
        let idx = class as usize;
        if self.class_priorities.len() <= idx {
            self.class_priorities.resize(idx + 1, 0);
        }
        self.class_priorities[idx] = priority;
        self
    }

    /// The priority of `class` (0 for classes beyond the table).
    pub fn priority_of(&self, class: u32) -> u32 {
        self.class_priorities
            .get(class as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The mean-queue-depth threshold above which priority `priority`
    /// traffic is shed.
    pub fn threshold_for(&self, priority: u32) -> f64 {
        self.shed_queue_depth + self.depth_per_priority * f64::from(priority)
    }
}

/// One shed arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedEvent {
    /// When the arrival was shed, in seconds.
    pub time_s: f64,
    /// The request id.
    pub id: u64,
    /// The request's workload class.
    pub class: u32,
    /// The class's priority at the time.
    pub priority: u32,
    /// The observed mean queue depth per routable replica.
    pub mean_queue_depth: f64,
}

/// One step of a [`ScalingPlan`]: from `at_s` on, the fleet targets
/// `replicas` provisioned replicas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    /// When the step takes effect, in seconds.
    pub at_s: f64,
    /// The provisioned-replica target from then on (at least 1).
    pub replicas: u32,
}

/// A feed-forward capacity schedule: the fleet starts at `initial` replicas
/// and re-targets at each step, provisioning *ahead* of predicted load
/// instead of reacting to queue build-up. `rago-core` derives one from
/// `plan_capacity_profile`'s per-window replica counts.
///
/// # Examples
///
/// ```
/// use rago_serving_sim::faults::{PlanStep, ScalingPlan};
///
/// let plan = ScalingPlan::new(1, vec![
///     PlanStep { at_s: 4.0, replicas: 3 },
///     PlanStep { at_s: 10.0, replicas: 1 },
/// ]);
/// assert_eq!(plan.target_at(0.0), 1);
/// assert_eq!(plan.target_at(4.0), 3);
/// assert_eq!(plan.target_at(11.0), 1);
/// // A flat plan is a static fleet.
/// assert_eq!(ScalingPlan::flat(2).target_at(123.0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingPlan {
    /// Replicas provisioned at the start of the run (at least 1).
    pub initial: u32,
    /// Re-target steps, strictly increasing in time.
    pub steps: Vec<PlanStep>,
}

impl ScalingPlan {
    /// A plan with the given initial size and steps.
    ///
    /// # Panics
    ///
    /// Panics if `initial` or any step target is zero, any step time is
    /// negative or non-finite, or step times are not strictly increasing.
    pub fn new(initial: u32, steps: Vec<PlanStep>) -> Self {
        assert!(initial >= 1, "a plan must start with at least one replica");
        for step in &steps {
            assert!(
                step.at_s.is_finite() && step.at_s >= 0.0,
                "plan step times must be finite and non-negative"
            );
            assert!(step.replicas >= 1, "plan targets must be at least 1");
        }
        assert!(
            steps.windows(2).all(|w| w[0].at_s < w[1].at_s),
            "plan step times must be strictly increasing"
        );
        Self { initial, steps }
    }

    /// A constant plan: `replicas` for the whole run. A predictive driver
    /// with a flat plan is bit-identical to a static fleet of the same
    /// size (`tests/proptest_faults.rs`).
    pub fn flat(replicas: u32) -> Self {
        Self::new(replicas, Vec::new())
    }

    /// The provisioned-replica target in force at time `t`.
    pub fn target_at(&self, t: f64) -> u32 {
        let mut target = self.initial;
        for step in &self.steps {
            if step.at_s <= t {
                target = step.replicas;
            } else {
                break;
            }
        }
        target
    }
}

/// The predictive autoscaler: a [`ScalingPlan`] plus the warm-up delay each
/// newly provisioned replica pays before taking traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictivePolicy {
    /// The capacity schedule to feed forward.
    pub plan: ScalingPlan,
    /// Seconds a newly provisioned replica warms up before it is routable.
    pub warmup_s: f64,
}

impl PredictivePolicy {
    /// A predictive policy over `plan` with the given warm-up.
    ///
    /// # Panics
    ///
    /// Panics if the warm-up is negative or non-finite.
    pub fn new(plan: ScalingPlan, warmup_s: f64) -> Self {
        assert!(
            warmup_s.is_finite() && warmup_s >= 0.0,
            "the warm-up delay must be non-negative and finite"
        );
        Self { plan, warmup_s }
    }
}

/// How the chaos engine sizes the fleet while the trace plays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScaleDriver {
    /// A fixed fleet (no ticks, no scaling; restarts are immediate since a
    /// static fleet has no warm-up concept).
    Static {
        /// Fleet size (at least 1).
        replicas: u32,
    },
    /// A reactive [`AutoscalerPolicy`], evaluated at its interval: scale
    /// out on queue depth (or recent attainment), scale in after a
    /// cooldown, hold new replicas out of the router while they warm up.
    Reactive(AutoscalerPolicy),
    /// A feed-forward [`ScalingPlan`]: capacity changes at the plan's step
    /// times regardless of observed load.
    Predictive(PredictivePolicy),
}

impl ScaleDriver {
    fn assert_valid(&self) {
        match self {
            ScaleDriver::Static { replicas } => {
                assert!(*replicas >= 1, "a static fleet needs at least one replica");
            }
            ScaleDriver::Reactive(policy) => policy.assert_valid(),
            ScaleDriver::Predictive(_) => {} // validated at construction
        }
    }

    fn initial_replicas(&self) -> u32 {
        match self {
            ScaleDriver::Static { replicas } => *replicas,
            ScaleDriver::Reactive(policy) => policy.min_replicas,
            ScaleDriver::Predictive(p) => p.plan.initial,
        }
    }

    /// The warm-up a provisioned replica pays — scale-out and restart take
    /// the same path.
    fn warmup_s(&self) -> f64 {
        match self {
            ScaleDriver::Static { .. } => 0.0,
            ScaleDriver::Reactive(policy) => policy.warmup_s,
            ScaleDriver::Predictive(p) => p.warmup_s,
        }
    }

    fn track_completions(&self) -> bool {
        matches!(self, ScaleDriver::Reactive(p) if p.attainment_trigger.is_some())
    }
}

/// The kind of one capacity disruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A crash (instant death).
    Crash,
    /// A spot preemption (death after the notice window).
    Preemption,
}

/// One capacity loss, as recorded for recovery analysis. Preemptions are
/// logged at the *notice* instant — capacity stops there even though the
/// replica drains on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Disruption {
    /// When the fleet lost the capacity, in seconds.
    pub time_s: f64,
    /// The fleet slot that died.
    pub replica: usize,
    /// Crash or preemption.
    pub kind: FaultKind,
}

/// One class's shed count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassShed {
    /// The workload class.
    pub class: u32,
    /// Arrivals of this class shed by admission control.
    pub shed: usize,
}

/// Fault-path accounting of one chaos run. Request conservation holds
/// exactly: `injected == completed + shed + failed`
/// (`tests/proptest_faults.rs`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Requests offered to the fleet.
    pub injected: usize,
    /// Requests that finished generation.
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests lost to crashes/preemptions under [`CrashPolicy::Fail`],
    /// plus requests still waiting for a routable replica when the run
    /// ended.
    pub failed: usize,
    /// Re-queue occurrences: each time an in-flight request was recovered
    /// from a dying replica and re-queued (a request crashed twice counts
    /// twice).
    pub retried: usize,
    /// Fault events that found their target alive and were applied.
    pub faults_applied: usize,
    /// Fault events whose target slot did not exist or was already dead.
    pub faults_skipped: usize,
    /// Shed counts per class, ascending by class id.
    pub shed_by_class: Vec<ClassShed>,
    /// Every shed arrival, in time order.
    pub shed_log: Vec<ShedEvent>,
    /// Every capacity loss, in time order.
    pub disruptions: Vec<Disruption>,
}

/// One window of the attainment timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttainmentWindow {
    /// Window start, in seconds.
    pub start_s: f64,
    /// Window end, in seconds.
    pub end_s: f64,
    /// Requests completing inside the window.
    pub completed: usize,
    /// Of those, requests meeting the SLO.
    pub met: usize,
    /// `met / completed`; **zero** for an empty window — a fleet completing
    /// nothing is attaining nothing, which is exactly the dip the recovery
    /// metrics integrate.
    pub attainment: f64,
}

/// Per-disruption recovery metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryMetrics {
    /// The disruption instant, in seconds.
    pub fault_s: f64,
    /// The fleet slot that died.
    pub replica: usize,
    /// Crash or preemption.
    pub kind: FaultKind,
    /// Seconds from the disruption until the start of the first window at
    /// or above the SLO's attainment target *after the dip*: the scan
    /// starts at the disruption, waits for the first window that falls
    /// below target (queued work often keeps the fleet healthy for a few
    /// windows after a crash), and then measures to the first recovered
    /// window. `Some(0.0)` when attainment never dipped at all; `None`
    /// when it dipped and never recovered within the run.
    pub reattainment_s: Option<f64>,
    /// Integral of the attainment shortfall (target minus windowed
    /// attainment, clamped at zero) from the disruption to reattainment —
    /// or to the end of the run if attainment never recovered. Seconds of
    /// full outage contribute `target × window` each; zero when attainment
    /// never dipped.
    pub dip_area: f64,
}

/// The result of one chaos run: the ordinary fleet report and scaling
/// history, plus fault accounting and recovery analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The merged fleet report — the same metric definitions as a
    /// single-engine run, with one row per fleet slot ever provisioned
    /// (dead slots report what they completed before dying). [`crate::ServingMetrics::shed`] carries the
    /// admission-control counts in the merged and per-class rows.
    pub fleet: FleetReport,
    /// Every *policy* scaling decision, in time order (restarts appear in
    /// [`Self::lifetimes`], not here).
    pub events: Vec<ScalingEvent>,
    /// Per-slot provisioning windows, by slot index. A crashed slot retires
    /// at its death; its cold replacement is a new slot.
    pub lifetimes: Vec<ReplicaLifetime>,
    /// Largest number of provisioned replicas at any instant.
    pub peak_provisioned: u32,
    /// Smallest number of provisioned replicas at any instant (crashes
    /// count: a fleet reduced to zero reads zero here).
    pub min_provisioned: u32,
    /// Integral of provisioned replicas over time, in replica-seconds —
    /// dead time between a crash and its restart is *not* paid.
    pub replica_seconds: f64,
    /// Fault accounting.
    pub fault: FaultReport,
}

impl ChaosReport {
    /// Mean provisioned replicas over the run (`replica_seconds` divided
    /// by the makespan; zero for an empty run).
    pub fn mean_provisioned(&self) -> f64 {
        let makespan = self.fleet.merged.metrics.makespan_s;
        if makespan <= 0.0 {
            return 0.0;
        }
        self.replica_seconds / makespan
    }

    /// Attainment against everything *offered*: requests meeting `slo`
    /// divided by all injected requests, so shed and failed requests count
    /// against the fleet (1.0 when nothing was injected). The plain
    /// [`FleetReport::attainment`] scores completions only.
    ///
    /// # Panics
    ///
    /// For a streaming report, panics unless `slo` is the SLO the run
    /// counted (see [`ServingReport::slo_met`](crate::ServingReport::slo_met)).
    pub fn offered_attainment(&self, slo: &SloTarget) -> f64 {
        if self.fault.injected == 0 {
            return 1.0;
        }
        self.fleet.merged.slo_met(slo) as f64 / self.fault.injected as f64
    }

    /// The windowed attainment timeline: completions bucketed by completion
    /// time into `window_s`-wide windows from `t = 0` to the run's
    /// makespan. Empty windows read zero attainment (see
    /// [`AttainmentWindow::attainment`]). Returns an empty vector for an
    /// empty run, a non-positive window, or a streaming report (it keeps no
    /// completion times to bucket).
    pub fn attainment_timeline(&self, slo: &SloTarget, window_s: f64) -> Vec<AttainmentWindow> {
        if !window_s.is_finite() || window_s <= 0.0 || self.fleet.merged.timelines.is_empty() {
            return Vec::new();
        }
        let makespan = self.fleet.merged.metrics.makespan_s;
        let n = (makespan / window_s).floor() as usize + 1;
        let mut windows: Vec<AttainmentWindow> = (0..n)
            .map(|k| AttainmentWindow {
                start_s: k as f64 * window_s,
                end_s: (k + 1) as f64 * window_s,
                completed: 0,
                met: 0,
                attainment: 0.0,
            })
            .collect();
        for t in &self.fleet.merged.timelines {
            let k = ((t.completion_s / window_s).floor() as usize).min(n - 1);
            windows[k].completed += 1;
            if slo.meets(t.ttft_s(), t.tpot_s()) {
                windows[k].met += 1;
            }
        }
        for w in &mut windows {
            if w.completed > 0 {
                w.attainment = w.met as f64 / w.completed as f64;
            }
        }
        windows
    }

    /// Recovery metrics per disruption: time-to-reattainment and the
    /// goodput-dip area, measured on the `window_s`-wide attainment
    /// timeline against `slo` (whose `attainment` field is the recovery
    /// target).
    ///
    /// The dip is detected, not assumed: in-flight and queued work often
    /// keeps windowed attainment at target for a while after a crash, so
    /// the scan runs from the disruption to the *first window below
    /// target*, and measures reattainment from the disruption to the first
    /// at-target window after that. A disruption the fleet absorbs without
    /// ever dipping reports `reattainment_s = Some(0.0)` and a zero dip.
    ///
    /// Returns an empty vector for a streaming report: it has no timeline
    /// to measure, and an absent dip must not read as "never dipped".
    pub fn recovery(&self, slo: &SloTarget, window_s: f64) -> Vec<RecoveryMetrics> {
        if self.fleet.merged.streamed.is_some() {
            return Vec::new();
        }
        let timeline = self.attainment_timeline(slo, window_s);
        self.fault
            .disruptions
            .iter()
            .map(|d| {
                let mut dip = 0.0;
                let mut dipped = false;
                let mut reattainment = None;
                for w in timeline.iter().filter(|w| w.start_s >= d.time_s) {
                    let at_target = w.completed > 0 && w.attainment >= slo.attainment;
                    if !dipped {
                        if at_target {
                            continue;
                        }
                        dipped = true;
                    } else if at_target {
                        reattainment = Some(w.start_s - d.time_s);
                        break;
                    }
                    dip += (slo.attainment - w.attainment).max(0.0) * window_s;
                }
                if !dipped {
                    reattainment = Some(0.0);
                }
                RecoveryMetrics {
                    fault_s: d.time_s,
                    replica: d.replica,
                    kind: d.kind,
                    reattainment_s: reattainment,
                    dip_area: dip,
                }
            })
            .collect()
    }
}

/// One fleet slot. `sim` is `None` once the replica is dead (crashed or
/// killed); what it finished before dying is already parked with the run.
struct ChaosSlot {
    sim: Option<ReplicaSim>,
    /// Index of the slot's pipeline in the engine's spec list; a restart
    /// inherits its dead slot's.
    pipeline: usize,
    provisioned_s: f64,
    routable_s: f64,
    decommissioned_s: Option<f64>,
    /// Death instant of a crashed/preempted slot — its chips are released
    /// here, unlike a decommissioned-but-draining slot.
    retired_at: Option<f64>,
    assigned: usize,
    completion_cursor: usize,
}

impl ChaosSlot {
    fn alive(&self) -> bool {
        self.sim.is_some()
    }

    fn routable_at(&self, t: f64) -> bool {
        self.alive() && self.routable_s <= t && self.decommissioned_s.is_none()
    }
}

/// The simulation of a slot known to be routable (hence alive).
fn live(slot: &ChaosSlot) -> &ReplicaSim {
    slot.sim.as_ref().expect("routable slots are alive")
}

/// One pending fault-lane action of the run's agenda.
#[derive(Debug, Clone, Copy)]
enum Action {
    Crash { slot: usize, restart_delay_s: f64 },
    Slowdown { slot: usize, factor: f64 },
    PreemptNotice { slot: usize, notice_s: f64 },
    Kill { slot: usize },
    Restart { pipeline: usize },
}

struct Agendum {
    t: f64,
    seq: u64,
    action: Action,
}

/// The fleet engine: replicas behind a router, sized by a [`ScaleDriver`],
/// degraded by a [`FaultSchedule`], and guarded by optional
/// [`AdmissionConfig`] load shedding. See the module docs.
#[derive(Debug, Clone)]
pub struct ChaosEngine {
    /// One pipeline per initial slot; scale-outs run the first.
    specs: Vec<PipelineSpec>,
    router: RouterPolicy,
    driver: ScaleDriver,
    faults: FaultSchedule,
    crash_policy: CrashPolicy,
    admission: Option<AdmissionConfig>,
    telemetry: rago_telemetry::TelemetryConfig,
}

impl ChaosEngine {
    /// A fleet of `spec` replicas behind `router`, sized by `driver`, with
    /// no faults and no admission control.
    ///
    /// # Panics
    ///
    /// Panics if the driver is malformed (zero replicas, invalid reactive
    /// policy).
    pub fn new(spec: PipelineSpec, router: RouterPolicy, driver: ScaleDriver) -> Self {
        driver.assert_valid();
        let specs = vec![spec; driver.initial_replicas() as usize];
        Self::from_parts(specs, router, driver)
    }

    /// A static fleet with one (possibly different) pipeline per replica —
    /// e.g. distinct schedules from a Pareto frontier serving side by side.
    /// A crashed replica restarts on its own pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn heterogeneous(specs: Vec<PipelineSpec>, router: RouterPolicy) -> Self {
        assert!(!specs.is_empty(), "a fleet needs at least one replica");
        let replicas = u32::try_from(specs.len()).expect("fleet size fits in u32");
        Self::from_parts(specs, router, ScaleDriver::Static { replicas })
    }

    fn from_parts(specs: Vec<PipelineSpec>, router: RouterPolicy, driver: ScaleDriver) -> Self {
        Self {
            specs,
            router,
            driver,
            faults: FaultSchedule::empty(),
            crash_policy: CrashPolicy::default(),
            admission: None,
            telemetry: rago_telemetry::TelemetryConfig::disabled(),
        }
    }

    /// Sets the telemetry config used by [`Self::run_telemetry`] (and by
    /// [`Self::run_traced`] for its gauge cadence). The untraced run paths
    /// never consult it.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: rago_telemetry::TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Injects a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the in-flight policy for dying replicas (default
    /// [`CrashPolicy::Requeue`]).
    #[must_use]
    pub fn with_crash_policy(mut self, policy: CrashPolicy) -> Self {
        self.crash_policy = policy;
        self
    }

    /// Enables priority-aware admission control.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// The scale driver.
    pub fn driver(&self) -> &ScaleDriver {
        &self.driver
    }

    fn new_sim(&self, pipeline: usize, track_probes: bool) -> ReplicaSim {
        let mut sim = ReplicaSim::new(self.specs[pipeline].clone());
        sim.track_completions = self.driver.track_completions();
        sim.track_probes = track_probes;
        sim
    }

    /// Runs a generated trace through the fleet, exact metrics.
    pub fn run_trace(&self, trace: &Trace) -> ChaosReport {
        self.run_trace_with_mode(trace, &MetricsMode::Exact)
    }

    /// [`Self::run_trace`] with an explicit metrics pipeline.
    pub fn run_trace_with_mode(&self, trace: &Trace, mode: &MetricsMode) -> ChaosReport {
        self.run_with_mode(
            trace.requests.iter().map(EngineRequest::from).collect(),
            mode,
        )
    }

    /// Runs the fleet over `requests` (sorted by arrival time internally),
    /// exact metrics.
    ///
    /// The run interleaves four chronological streams under one clock, with
    /// a pinned tie-break at equal instants: **fault actions** first, then
    /// **pending-request flushes** (requests that arrived while no replica
    /// was routable), then **policy ticks / plan steps**, then **arrivals**
    /// — a fault or scaling decision at an arrival's instant is in force
    /// before that arrival is routed. Before each arrival every live
    /// replica is advanced to just before that instant and the router
    /// inspects the routable ones. No policy scaling happens after the last
    /// arrival, but faults (and restarts) keep firing through the drain,
    /// after which the surviving replicas run to completion independently.
    ///
    /// # Panics
    ///
    /// Panics if any arrival time is negative or non-finite, or any request
    /// generates zero tokens.
    pub fn run(&self, requests: Vec<EngineRequest>) -> ChaosReport {
        self.run_with_mode(requests, &MetricsMode::Exact)
    }

    /// [`Self::run`] with an explicit metrics pipeline. Streaming mode
    /// keeps `O(buckets)` metric state per replica: the report holds no
    /// timelines and no assignment log, and its SLO accessors answer only
    /// for the SLOs configured in the [`crate::sink::StreamingConfig`]
    /// (the scaling history, lifetimes and fault ledger are retained either
    /// way — they are `O(events + replicas)`).
    pub fn run_with_mode(&self, requests: Vec<EngineRequest>, mode: &MetricsMode) -> ChaosReport {
        self.run_traced(requests, mode, &mut rago_telemetry::NullRecorder)
    }

    /// [`Self::run_with_mode`] recording a trace into `rec`: router picks
    /// (including crash-requeue re-picks) live during routing; per-replica
    /// request spans, cache probes, load gauges (at the
    /// [`Self::with_telemetry`] cadence) and self-profiling counters,
    /// scaling decisions, replica lifecycle instants, a routable-replica
    /// gauge, admission sheds and fault disruptions derived post-hoc from
    /// the ledgers the report already carries. Spans and gauges need
    /// timelines, so streaming traces carry the rest only. A
    /// [`rago_telemetry::NullRecorder`] makes this exactly
    /// [`Self::run_with_mode`].
    pub fn run_traced<R: rago_telemetry::Recorder>(
        &self,
        requests: Vec<EngineRequest>,
        mode: &MetricsMode,
        rec: &mut R,
    ) -> ChaosReport {
        let (report, obs) = Run::new(self, mode, &mut *rec).play(requests);
        if R::ENABLED {
            let end_s = report.fleet.merged.metrics.makespan_s;
            crate::cluster::record_fleet_observability(
                rec,
                &report.fleet,
                &obs,
                self.telemetry.gauge_cadence_s,
            );
            crate::telemetry::record_scaling_events(rec, &report.events);
            crate::telemetry::record_replica_lifetimes(rec, &report.lifetimes);
            crate::telemetry::record_routable_gauge(
                rec,
                &report.lifetimes,
                self.telemetry.gauge_cadence_s,
                end_s,
            );
            crate::telemetry::record_shed_events(rec, &report.fault.shed_log);
            crate::telemetry::record_disruptions(rec, &report.fault.disruptions);
        }
        report
    }

    /// Convenience wrapper: an exact [`Self::run_traced`] with a
    /// [`rago_telemetry::TraceRecorder`] built from the engine's
    /// [`Self::with_telemetry`] config.
    pub fn run_telemetry(
        &self,
        requests: Vec<EngineRequest>,
    ) -> (ChaosReport, rago_telemetry::TraceRecorder) {
        let mut rec = rago_telemetry::TraceRecorder::new(self.telemetry.clone());
        let report = self.run_traced(requests, &MetricsMode::Exact, &mut rec);
        (report, rec)
    }
}

/// One replica's finished share of a run: its completed requests in the
/// run's metrics mode, plus the observability harvested when it stopped.
struct Finished {
    replica: usize,
    done: Done,
    obs: ReplicaObs,
}

enum Done {
    Exact(Vec<RequestTimeline>, SimAccumulators),
    /// The sink's `acc` holds the replica's accumulators.
    Streaming(Box<HistogramSink>),
}

/// Stops `replica` where it stands: its completed requests go into the
/// mode's per-replica container, and its in-flight requests come back for
/// the caller to re-queue or fail (none for a drained replica).
fn retire(
    replica: usize,
    mut sim: ReplicaSim,
    mode: &MetricsMode,
) -> (Finished, Vec<EngineRequest>) {
    let obs = ReplicaObs {
        replica,
        probes: sim.drain_probe_log(),
        equeue: sim.equeue_stats(),
    };
    let (done, in_flight) = match mode {
        MetricsMode::Exact => {
            let (timelines, in_flight, acc) = sim.dismantle();
            (Done::Exact(timelines, acc), in_flight)
        }
        MetricsMode::Streaming(config) => {
            let mut sink = HistogramSink::new(config);
            let (in_flight, acc) = sim.dismantle_into(&mut sink);
            sink.acc = acc;
            (Done::Streaming(Box::new(sink)), in_flight)
        }
    };
    (Finished { replica, done, obs }, in_flight)
}

/// Runs every surviving replica to completion and retires it. The drain is
/// the expensive leg (no routing interaction is left), so a multi-replica
/// fleet drains in parallel; the caller re-orders by slot index, so every
/// later step sees the serial order.
fn drain_survivors(alive: Vec<(usize, ReplicaSim)>, mode: &MetricsMode) -> Vec<Finished> {
    let drain = |(replica, mut sim): (usize, ReplicaSim)| {
        sim.run_to_completion();
        let (finished, in_flight) = retire(replica, sim, mode);
        debug_assert!(in_flight.is_empty(), "a drained replica holds no work");
        finished
    };
    if alive.len() > 1 {
        alive
            .into_iter()
            .par_bridge()
            .fold(Vec::new, |mut acc, item| {
                acc.push(drain(item));
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            })
    } else {
        alive.into_iter().map(drain).collect()
    }
}

/// Mean queued and mean outstanding requests per routable replica — the
/// one load observation admission control, the reactive policy and plan
/// steps read. Zero for an empty routable set.
fn fleet_load(slots: &[ChaosSlot], routable: &[usize]) -> (f64, f64) {
    if routable.is_empty() {
        return (0.0, 0.0);
    }
    let (mut queued, mut outstanding) = (0usize, 0usize);
    for &i in routable {
        let sim = live(&slots[i]);
        queued += sim.queued();
        outstanding += sim.outstanding();
    }
    let n = routable.len() as f64;
    (queued as f64 / n, outstanding as f64 / n)
}

/// Live, non-decommissioned replicas — the "provisioned" count, with dead
/// slots excluded.
fn provisioned_count(slots: &[ChaosSlot]) -> u32 {
    slots
        .iter()
        .filter(|s| s.alive() && s.decommissioned_s.is_none())
        .count() as u32
}

/// The state of one fleet run. The recorder sees router picks only;
/// everything else is derived from the returned ledgers.
struct Run<'e, R> {
    engine: &'e ChaosEngine,
    mode: &'e MetricsMode,
    rec: &'e mut R,
    slots: Vec<ChaosSlot>,
    /// Slot indices routable at the current instant, ascending — refilled
    /// in place, so routing an arrival allocates nothing.
    routable: Vec<usize>,
    /// Results parked by replicas that died mid-run.
    dead: Vec<Finished>,
    agenda: Vec<Agendum>,
    next_seq: u64,
    /// Requests that arrived (or were re-queued) while nothing was
    /// routable.
    pending: VecDeque<EngineRequest>,
    /// `(request id, slot)` per routing decision; exact mode only.
    assignments: Vec<(u64, usize)>,
    round_robin_next: usize,
    events: Vec<ScalingEvent>,
    last_action_s: f64,
    peak_provisioned: u32,
    min_provisioned: u32,
    /// The fault ledger; `completed` and `shed_by_class` are filled in at
    /// the merge.
    fault: FaultReport,
    shed_by_class: BTreeMap<u32, usize>,
}

impl<'e, R: rago_telemetry::Recorder> Run<'e, R> {
    fn new(engine: &'e ChaosEngine, mode: &'e MetricsMode, rec: &'e mut R) -> Self {
        let initial = engine.driver.initial_replicas();
        let agenda: Vec<Agendum> = engine
            .faults
            .events()
            .iter()
            .enumerate()
            .map(|(i, e)| Agendum {
                t: e.at_s(),
                seq: i as u64,
                action: match *e {
                    FaultEvent::Crash {
                        replica,
                        restart_delay_s,
                        ..
                    } => Action::Crash {
                        slot: replica,
                        restart_delay_s,
                    },
                    FaultEvent::StragglerStart {
                        replica, slowdown, ..
                    } => Action::Slowdown {
                        slot: replica,
                        factor: slowdown,
                    },
                    FaultEvent::StragglerEnd { replica, .. } => Action::Slowdown {
                        slot: replica,
                        factor: 1.0,
                    },
                    FaultEvent::Preempt {
                        replica, notice_s, ..
                    } => Action::PreemptNotice {
                        slot: replica,
                        notice_s,
                    },
                },
            })
            .collect();
        let mut run = Self {
            engine,
            mode,
            rec,
            slots: Vec::with_capacity(initial as usize),
            routable: Vec::with_capacity(initial as usize),
            dead: Vec::new(),
            next_seq: agenda.len() as u64,
            agenda,
            pending: VecDeque::new(),
            assignments: Vec::new(),
            round_robin_next: 0,
            events: Vec::new(),
            last_action_s: f64::NEG_INFINITY,
            peak_provisioned: initial,
            min_provisioned: initial,
            fault: FaultReport::default(),
            shed_by_class: BTreeMap::new(),
        };
        for pipeline in 0..initial as usize {
            run.provision(pipeline, 0.0, 0.0);
        }
        run
    }

    fn play(mut self, mut requests: Vec<EngineRequest>) -> (ChaosReport, Vec<ReplicaObs>) {
        sort_by_arrival(&mut requests);
        self.fault.injected = requests.len();
        if matches!(self.mode, MetricsMode::Exact) {
            self.assignments.reserve(requests.len());
        }
        let engine = self.engine;
        let driver = &engine.driver;
        let last_arrival = requests.last().map(|r| r.arrival_s).unwrap_or(0.0);
        let mut next_req = 0usize;
        // Reactive tick state / predictive step cursor.
        let mut next_tick = match driver {
            ScaleDriver::Reactive(policy) => policy.evaluation_interval_s,
            _ => f64::INFINITY,
        };
        let mut next_step = 0usize;

        loop {
            let arrival_t = requests.get(next_req).map(|r| r.arrival_s);
            let agenda_pick = self
                .agenda
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.t.total_cmp(&b.t).then(a.seq.cmp(&b.seq)))
                .map(|(i, a)| (i, a.t));
            let flush_t = if self.pending.is_empty() {
                None
            } else {
                self.slots
                    .iter()
                    .filter(|s| s.alive() && s.decommissioned_s.is_none())
                    .map(|s| s.routable_s)
                    .min_by(f64::total_cmp)
            };
            let tick_t: Option<f64> = match driver {
                ScaleDriver::Reactive(_) => (next_tick <= last_arrival).then_some(next_tick),
                ScaleDriver::Predictive(p) => p
                    .plan
                    .steps
                    .get(next_step)
                    .map(|s| s.at_s)
                    .filter(|&t| t <= last_arrival),
                ScaleDriver::Static { .. } => None,
            };

            // Earliest wins; ties break fault < flush < tick < arrival.
            let agenda_t = agenda_pick.map(|(_, t)| t);
            let best = [agenda_t, flush_t, tick_t, arrival_t]
                .iter()
                .enumerate()
                .filter_map(|(lane, t)| t.map(|t| (lane, t)))
                .min_by(|(la, ta), (lb, tb)| ta.total_cmp(tb).then(la.cmp(lb)));
            let Some((lane, now)) = best else {
                break;
            };

            match lane {
                0 => {
                    let (idx, _) = agenda_pick.expect("lane 0 implies an agenda entry");
                    let Agendum { action, .. } = self.agenda.remove(idx);
                    self.apply_action(action, now);
                }
                1 => self.flush(now),
                2 => {
                    self.advance_to(now);
                    match driver {
                        ScaleDriver::Reactive(policy) => {
                            next_tick += policy.evaluation_interval_s;
                            self.evaluate_reactive(policy, now);
                        }
                        ScaleDriver::Predictive(p) => {
                            let target = p.plan.steps[next_step].replicas;
                            next_step += 1;
                            self.apply_plan_target(target, p.warmup_s, now);
                        }
                        ScaleDriver::Static { .. } => unreachable!("static drivers have no ticks"),
                    }
                }
                _ => {
                    let req = requests[next_req];
                    next_req += 1;
                    self.advance_to(now);
                    if self.routable.is_empty() {
                        self.pending.push_back(req);
                    } else if !self.shed(&req, now) {
                        self.route(&req, now).inject(req);
                    }
                }
            }
        }

        // Requests that never found a routable replica fail.
        self.fault.failed += self.pending.len();
        self.pending.clear();
        self.finish()
    }

    /// Advances every live replica to just before `t` and refreshes the
    /// routable set at `t`.
    fn advance_to(&mut self, t: f64) {
        // One pass over the slots: this runs at every arrival.
        self.routable.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(sim) = slot.sim.as_mut() {
                sim.advance_before(t);
            }
            if slot.routable_at(t) {
                self.routable.push(i);
            }
        }
    }

    /// Refreshes the routable set at `t` without advancing: after a kill
    /// or a scale-in changed it mid-instant.
    fn refresh_routable(&mut self, t: f64) {
        self.routable.clear();
        self.routable.extend(
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.routable_at(t))
                .map(|(i, _)| i),
        );
    }

    /// Returns `true` (and records the shed) when admission control rejects
    /// `req` at `t` given the routable fleet state.
    fn shed(&mut self, req: &EngineRequest, t: f64) -> bool {
        let Some(admission) = &self.engine.admission else {
            return false;
        };
        let (depth, _) = fleet_load(&self.slots, &self.routable);
        let priority = admission.priority_of(req.class);
        if depth <= admission.threshold_for(priority) {
            return false;
        }
        self.fault.shed += 1;
        *self.shed_by_class.entry(req.class).or_insert(0) += 1;
        self.fault.shed_log.push(ShedEvent {
            time_s: t,
            id: req.id,
            class: req.class,
            priority,
            mean_queue_depth: depth,
        });
        true
    }

    /// Routes `req` over the routable slots and returns the chosen
    /// replica for the caller to inject into. The recorder sees one
    /// decision event per pick; it never influences the pick.
    fn route(&mut self, req: &EngineRequest, t: f64) -> &mut ReplicaSim {
        let router = self.engine.router;
        let (slots, routable) = (&self.slots, &self.routable);
        let pick = route_pick(
            router,
            routable.len(),
            |i| live(&slots[routable[i]]),
            // Hash homes key on the stable slot index, not the position in
            // the routable subset, so scale events do not re-home every
            // template.
            |i| routable[i],
            &mut self.round_robin_next,
            req,
        );
        let replica = routable[pick];
        if R::ENABLED {
            crate::telemetry::record_route_pick(
                self.rec,
                t,
                router,
                replica,
                req,
                live(&slots[replica]),
            );
        }
        if matches!(self.mode, MetricsMode::Exact) {
            self.assignments.push((req.id, replica));
        }
        let slot = &mut self.slots[replica];
        slot.assigned += 1;
        slot.sim.as_mut().expect("routable slots are alive")
    }

    /// Flush lane: a replica just became routable; pending requests go
    /// through admission and routing at this instant.
    fn flush(&mut self, now: f64) {
        self.advance_to(now);
        // Empty when the candidate replica died in this same instant: the
        // requests wait for the next one.
        if self.routable.is_empty() {
            return;
        }
        while let Some(req) = self.pending.pop_front() {
            if !self.shed(&req, now) {
                self.route(&req, now).inject_delayed(req, now);
            }
        }
    }

    /// Provisions a fresh (cold) replica slot and returns its index.
    fn provision(&mut self, pipeline: usize, provisioned_s: f64, routable_s: f64) -> usize {
        self.slots.push(ChaosSlot {
            sim: Some(self.engine.new_sim(pipeline, R::ENABLED)),
            pipeline,
            provisioned_s,
            routable_s,
            decommissioned_s: None,
            retired_at: None,
            assigned: 0,
            completion_cursor: 0,
        });
        self.slots.len() - 1
    }

    /// Whether fault target `slot` does not exist or is already dead.
    fn gone(&self, slot: usize) -> bool {
        self.slots.get(slot).map_or(true, |s| !s.alive())
    }

    /// Applies one fault-lane action at time `now`.
    fn apply_action(&mut self, action: Action, now: f64) {
        match action {
            Action::Slowdown { slot, factor } => {
                match self.slots.get_mut(slot).and_then(|s| s.sim.as_mut()) {
                    Some(sim) => {
                        // Rides the sim's own fault lane: in force before
                        // any same-instant arrival is processed.
                        sim.schedule_slowdown(now, factor);
                        self.fault.faults_applied += 1;
                    }
                    None => self.fault.faults_skipped += 1,
                }
            }
            Action::Crash {
                slot,
                restart_delay_s,
            } => {
                if self.gone(slot) {
                    self.fault.faults_skipped += 1;
                    return;
                }
                self.fault.faults_applied += 1;
                self.kill_slot(slot, now);
                self.fault.disruptions.push(Disruption {
                    time_s: now,
                    replica: slot,
                    kind: FaultKind::Crash,
                });
                if restart_delay_s.is_finite() {
                    let pipeline = self.slots[slot].pipeline;
                    self.schedule(now + restart_delay_s, Action::Restart { pipeline });
                }
            }
            Action::PreemptNotice { slot, notice_s } => {
                if self.gone(slot) {
                    self.fault.faults_skipped += 1;
                    return;
                }
                self.fault.faults_applied += 1;
                // Capacity stops at the notice: the replica drains, the
                // router excludes it, and the disruption clock starts now.
                self.slots[slot].decommissioned_s.get_or_insert(now);
                self.min_provisioned = self.min_provisioned.min(provisioned_count(&self.slots));
                self.fault.disruptions.push(Disruption {
                    time_s: now,
                    replica: slot,
                    kind: FaultKind::Preemption,
                });
                self.schedule(now + notice_s, Action::Kill { slot });
            }
            Action::Kill { slot } => {
                // The preemption deadline; skip silently if the replica
                // already crashed during the notice window.
                if !self.gone(slot) {
                    self.kill_slot(slot, now);
                }
            }
            Action::Restart { pipeline } => {
                // A cold replacement replica: same provisioning path as a
                // scale-out (fresh caches, full warm-up).
                self.provision(pipeline, now, now + self.engine.driver.warmup_s());
                self.peak_provisioned = self.peak_provisioned.max(provisioned_count(&self.slots));
            }
        }
    }

    fn schedule(&mut self, t: f64, action: Action) {
        self.agenda.push(Agendum {
            t,
            seq: self.next_seq,
            action,
        });
        self.next_seq += 1;
    }

    /// Tears one replica down at `now`: its completed work is parked for
    /// the merge, its in-flight requests are re-queued or failed, and its
    /// chips are released.
    fn kill_slot(&mut self, slot: usize, now: f64) {
        // Work completing strictly before the death instant survives; work
        // completing exactly at it is lost with the replica (the pinned
        // `advance_before` semantics).
        self.advance_to(now);
        let sim = self.slots[slot]
            .sim
            .take()
            .expect("kill_slot targets live slots");
        let (finished, in_flight) = retire(slot, sim, self.mode);
        self.dead.push(finished);
        let s = &mut self.slots[slot];
        s.decommissioned_s.get_or_insert(now);
        s.retired_at = Some(now);
        self.min_provisioned = self.min_provisioned.min(provisioned_count(&self.slots));
        match self.engine.crash_policy {
            CrashPolicy::Fail => self.fault.failed += in_flight.len(),
            CrashPolicy::Requeue => {
                self.refresh_routable(now);
                for req in in_flight {
                    self.fault.retried += 1;
                    if self.routable.is_empty() {
                        self.pending.push_back(req);
                    } else {
                        // Retries bypass admission — they were admitted
                        // once; TTFT keeps accruing from the original
                        // arrival.
                        self.route(&req, now).inject_delayed(req, now);
                    }
                }
            }
        }
    }

    /// The routable replica with the fewest outstanding requests; ties
    /// retire the newest, keeping long-lived replicas (and the round-robin
    /// pattern over them) stable.
    fn emptiest_routable(&self) -> usize {
        self.routable
            .iter()
            .copied()
            .min_by_key(|&i| (live(&self.slots[i]).outstanding(), usize::MAX - i))
            .expect("routable is non-empty")
    }

    /// One reactive policy evaluation at tick `now` (the fleet already
    /// advanced): observe the routable replicas, then take at most one
    /// scaling action.
    fn evaluate_reactive(&mut self, policy: &AutoscalerPolicy, now: f64) {
        if self.routable.is_empty() {
            return; // only while the whole fleet warms up or is dead
        }
        let provisioned = provisioned_count(&self.slots);
        let (mean_queue_depth, mean_outstanding) = fleet_load(&self.slots, &self.routable);
        let queue_trigger = mean_queue_depth > policy.scale_out_queue_depth;
        // Consecutive ticks are `evaluation_interval_s` apart, so consuming
        // everything up to `now` from each replica's cursor is exactly the
        // last interval's completions — in O(new completions), not a rescan
        // of every request.
        let attainment_trigger = policy.attainment_trigger.is_some_and(|t| {
            let (mut met, mut total) = (0usize, 0usize);
            for slot in &mut self.slots {
                let Some(sim) = slot.sim.as_ref() else {
                    continue;
                };
                for &(_, ttft, tpot) in sim.completions_up_to(&mut slot.completion_cursor, now) {
                    total += 1;
                    met += usize::from(t.slo.meets(ttft, tpot));
                }
            }
            total > 0 && (met as f64 / total as f64) < t.floor
        });

        let routable = self.routable.len() as u32;
        let (action, replica, provisioned_after, routable_after) =
            if (queue_trigger || attainment_trigger) && provisioned < policy.max_replicas {
                let replica = self.provision(0, now, now + policy.warmup_s);
                self.peak_provisioned = self.peak_provisioned.max(provisioned + 1);
                // A zero-warm-up replica is routable at this very tick, so it
                // already counts.
                let routable_after = routable + u32::from(policy.warmup_s <= 0.0);
                (
                    ScalingAction::ScaleOut,
                    replica,
                    provisioned + 1,
                    routable_after,
                )
            } else if mean_outstanding < policy.scale_in_outstanding
                && routable > policy.min_replicas
                && now - self.last_action_s >= policy.cooldown_s
            {
                // Drain the emptiest routable replica.
                let victim = self.emptiest_routable();
                self.slots[victim].decommissioned_s = Some(now);
                self.min_provisioned = self.min_provisioned.min(provisioned - 1);
                (
                    ScalingAction::ScaleIn,
                    victim,
                    provisioned - 1,
                    routable - 1,
                )
            } else {
                return;
            };
        self.last_action_s = now;
        self.events.push(ScalingEvent {
            time_s: now,
            action,
            replica,
            provisioned_after,
            routable_after,
            mean_queue_depth,
            mean_outstanding,
        });
    }

    /// One predictive plan step (the fleet already advanced): provision or
    /// decommission until the live fleet matches `target`.
    fn apply_plan_target(&mut self, target: u32, warmup_s: f64, now: f64) {
        let (mean_queue_depth, mean_outstanding) = fleet_load(&self.slots, &self.routable);
        let mut provisioned = provisioned_count(&self.slots);
        let mut routable_now = self.routable.len() as u32;
        let event = |action, replica, provisioned_after, routable_after| ScalingEvent {
            time_s: now,
            action,
            replica,
            provisioned_after,
            routable_after,
            mean_queue_depth,
            mean_outstanding,
        };
        while provisioned < target {
            let replica = self.provision(0, now, now + warmup_s);
            provisioned += 1;
            if warmup_s <= 0.0 {
                routable_now += 1;
            }
            self.peak_provisioned = self.peak_provisioned.max(provisioned);
            let ev = event(ScalingAction::ScaleOut, replica, provisioned, routable_now);
            self.events.push(ev);
        }
        while provisioned > target {
            // Decommission the emptiest routable replica; never take the
            // last one (warming replicas cannot drain the backlog).
            self.refresh_routable(now);
            if self.routable.len() <= 1 {
                break;
            }
            let victim = self.emptiest_routable();
            self.slots[victim].decommissioned_s = Some(now);
            provisioned -= 1;
            routable_now = routable_now.saturating_sub(1);
            self.min_provisioned = self.min_provisioned.min(provisioned);
            let ev = event(ScalingAction::ScaleIn, victim, provisioned, routable_now);
            self.events.push(ev);
        }
    }

    /// Drains the surviving replicas, merges them with the dead replicas'
    /// parked results in slot-index order, patches shed counts into the
    /// metrics, and assembles the report and cost ledger.
    fn finish(mut self) -> (ChaosReport, Vec<ReplicaObs>) {
        let assigned_counts: Vec<usize> = self.slots.iter().map(|s| s.assigned).collect();
        let alive: Vec<(usize, ReplicaSim)> = self
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.sim.take().map(|sim| (i, sim)))
            .collect();
        let mut finished = drain_survivors(alive, self.mode);
        finished.append(&mut self.dead);
        finished.sort_by_key(|f| f.replica);

        let mut per_replica = Vec::with_capacity(finished.len());
        let mut obs = Vec::with_capacity(finished.len());
        let (mut merged, merged_acc) = match self.mode {
            MetricsMode::Exact => {
                let mut timelines = Vec::with_capacity(self.fault.injected);
                let mut acc = SimAccumulators::default();
                for f in finished {
                    let Done::Exact(replica_timelines, replica_acc) = f.done else {
                        unreachable!("exact runs retire into timelines");
                    };
                    timelines.extend(replica_timelines.iter().cloned());
                    acc.merge_from(&replica_acc);
                    per_replica.push(ReplicaReport {
                        replica: f.replica,
                        assigned: assigned_counts[f.replica],
                        report: build_report(replica_timelines, &replica_acc),
                    });
                    obs.push(f.obs);
                }
                timelines.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
                (build_report(timelines, &acc), acc)
            }
            MetricsMode::Streaming(config) => {
                let mut sink = HistogramSink::new(config);
                for f in finished {
                    let Done::Streaming(replica_sink) = f.done else {
                        unreachable!("streaming runs retire into sinks");
                    };
                    sink.merge_from(&replica_sink);
                    per_replica.push(ReplicaReport {
                        replica: f.replica,
                        assigned: assigned_counts[f.replica],
                        report: replica_sink.into_report(),
                    });
                    obs.push(f.obs);
                }
                let acc = sink.acc.clone();
                (sink.into_report(), acc)
            }
        };

        // Thread the shed counts into the merged and per-class rows —
        // untouched when nothing was shed, preserving bit-identity.
        if self.fault.shed > 0 {
            merged.metrics.shed = self.fault.shed;
            for row in &mut merged.per_class {
                row.metrics.shed = self.shed_by_class.get(&row.class).copied().unwrap_or(0);
            }
            for (&class, &count) in &self.shed_by_class {
                if !merged.per_class.iter().any(|r| r.class == class) {
                    // A class shed in its entirety still gets a row: zero
                    // completions, its shed count, shared-resource fields
                    // repeating the run-level values like every class row.
                    let mut metrics = compute_metrics_for(&[], Some(class), &merged_acc);
                    metrics.shed = count;
                    merged.per_class.push(ClassMetrics { class, metrics });
                }
            }
            merged.per_class.sort_by_key(|r| r.class);
        }

        let mut fault = self.fault;
        fault.completed = merged.metrics.completed;
        fault.shed_by_class = self
            .shed_by_class
            .iter()
            .map(|(&class, &shed)| ClassShed { class, shed })
            .collect();
        debug_assert_eq!(
            fault.injected,
            fault.completed + fault.shed + fault.failed,
            "request conservation must hold"
        );

        let fleet = FleetReport {
            merged,
            per_replica,
            assignments: self.assignments,
            imbalance: LoadImbalance::from_counts(assigned_counts),
            router: self.engine.router,
        };

        // Cost accounting: a dead replica releases its chips at death, a
        // decommissioned one when its drain finishes (its last completion
        // is its makespan; an idle replica's is its provisioning instant),
        // and every other replica at the end of the run.
        let makespan = fleet.merged.metrics.makespan_s;
        let mut lifetimes = Vec::with_capacity(self.slots.len());
        let mut replica_seconds = 0.0;
        for (replica, slot) in self.slots.iter().enumerate() {
            let report = &fleet.per_replica[replica];
            let last_completion = report.report.metrics.makespan_s.max(slot.provisioned_s);
            let retired_s = match (slot.retired_at, slot.decommissioned_s) {
                (Some(death), _) => death,
                (None, Some(d)) => d.max(last_completion),
                (None, None) => makespan.max(slot.provisioned_s),
            };
            replica_seconds += retired_s - slot.provisioned_s;
            lifetimes.push(ReplicaLifetime {
                replica,
                provisioned_s: slot.provisioned_s,
                routable_s: slot.routable_s,
                decommissioned_s: slot.decommissioned_s,
                retired_s,
                assigned: report.assigned,
            });
        }

        let report = ChaosReport {
            fleet,
            events: self.events,
            lifetimes,
            peak_provisioned: self.peak_provisioned,
            min_provisioned: self.min_provisioned,
            replica_seconds,
            fault,
        };
        (report, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DecodeSpec, LatencyTable, StageSpec};
    use crate::sink::StreamingConfig;
    use rago_schema::{HistogramSpec, SequenceProfile};
    use rago_workloads::{ArrivalProcess, TraceSpec};

    fn one_stage_spec(stage_latency: f64, batch: u32) -> PipelineSpec {
        PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                batch,
                LatencyTable::constant(batch, stage_latency),
            )],
            DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
        )
    }

    fn poisson_trace(n: usize, rate: f64, seed: u64) -> Trace {
        TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: 0.0,
            seed,
        }
        .generate()
    }

    fn spike_trace(n: usize) -> Trace {
        TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Spike {
                base_rps: 2.0,
                spike_rps: 80.0,
                start_s: 3.0,
                duration_s: 3.0,
            },
            length_jitter: 0.0,
            seed: 5,
        }
        .generate()
    }

    fn req(id: u64, arrival: f64, class: u32, tokens: u32) -> EngineRequest {
        EngineRequest {
            id,
            arrival_s: arrival,
            prefix_tokens: 0,
            decode_tokens: tokens,
            class,
            identity: None,
        }
    }

    /// A predictive driver with a flat plan is a static fleet, bit-exact.
    #[test]
    fn predictive_flat_plan_matches_static_exactly() {
        let spec = one_stage_spec(0.03, 2);
        let trace = poisson_trace(140, 50.0, 23);
        let baseline = ChaosEngine::new(
            spec.clone(),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .run_trace(&trace);
        let predictive = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Predictive(PredictivePolicy::new(ScalingPlan::flat(2), 0.5)),
        )
        .run_trace(&trace);
        assert_eq!(predictive.fleet, baseline.fleet);
        assert_eq!(predictive.replica_seconds, baseline.replica_seconds);
        assert!(predictive.events.is_empty());
    }

    #[test]
    fn crash_requeues_in_flight_and_restarts_cold() {
        let spec = one_stage_spec(0.05, 2);
        let trace = poisson_trace(120, 40.0, 7);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 1.0,
            restart_delay_s: 0.5,
        }]);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        // Conservation: everything completes (requeue policy, surviving
        // replica plus restart).
        assert_eq!(report.fault.injected, 120);
        assert_eq!(report.fault.completed, 120);
        assert_eq!(report.fault.failed, 0);
        assert!(report.fault.retried > 0, "the crash held no in-flight work");
        assert_eq!(report.fault.faults_applied, 1);
        assert_eq!(report.fault.disruptions.len(), 1);
        // The replacement slot exists, provisioned at crash + delay, cold.
        assert_eq!(report.lifetimes.len(), 3);
        let dead = &report.lifetimes[0];
        assert_eq!(dead.retired_s, 1.0);
        assert_eq!(dead.decommissioned_s, Some(1.0));
        let replacement = &report.lifetimes[2];
        assert!((replacement.provisioned_s - 1.5).abs() < 1e-12);
        // Static driver: restart is immediately routable (no warm-up).
        assert_eq!(replacement.routable_s, replacement.provisioned_s);
        // Chips: the dead replica is paid only until the crash.
        assert!(report.replica_seconds < 3.0 * report.fleet.merged.metrics.makespan_s);
        // Requests re-queued kept their original arrival: TTFT of retried
        // requests spans the crash.
        assert!(report.fleet.merged.metrics.ttft.max_s >= 0.0);
    }

    #[test]
    fn crash_fail_policy_fails_in_flight() {
        let spec = one_stage_spec(0.05, 2);
        let trace = poisson_trace(120, 40.0, 7);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 1.0,
            restart_delay_s: f64::INFINITY,
        }]);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .with_crash_policy(CrashPolicy::Fail)
        .run_trace(&trace);
        assert!(report.fault.failed > 0, "the crash held no in-flight work");
        assert_eq!(report.fault.retried, 0);
        assert_eq!(
            report.fault.completed + report.fault.failed,
            report.fault.injected
        );
        // No restart: only the two initial slots exist.
        assert_eq!(report.lifetimes.len(), 2);
    }

    #[test]
    fn straggler_slows_completions_then_recovers() {
        let spec = one_stage_spec(0.02, 4);
        let trace = poisson_trace(200, 50.0, 3);
        let healthy = ChaosEngine::new(
            spec.clone(),
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .run_trace(&trace);
        let faults = FaultSchedule::new(vec![
            FaultEvent::StragglerStart {
                replica: 0,
                at_s: 0.5,
                slowdown: 8.0,
            },
            FaultEvent::StragglerEnd {
                replica: 0,
                at_s: 2.5,
            },
        ]);
        let degraded = ChaosEngine::new(
            spec,
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert_eq!(degraded.fault.faults_applied, 2);
        assert_eq!(degraded.fault.completed, 200);
        // The straggler window shows up as worse tail latency.
        assert!(
            degraded.fleet.merged.metrics.latency.p99_s
                > healthy.fleet.merged.metrics.latency.p99_s
        );
        // Recovery: the run still ends, and the post-recovery completions
        // are as fast as the healthy run's steady state.
        assert!(
            degraded.fleet.merged.metrics.makespan_s >= healthy.fleet.merged.metrics.makespan_s
        );
    }

    #[test]
    fn admission_sheds_low_priority_first() {
        let spec = one_stage_spec(0.2, 1); // slow: queues build fast
                                           // Two classes, same arrivals: class 1 is high priority.
        let mut requests = Vec::new();
        for i in 0..40u64 {
            let t = i as f64 * 0.01;
            requests.push(req(2 * i, t, 0, 8));
            requests.push(req(2 * i + 1, t, 1, 8));
        }
        let admission = AdmissionConfig::new(1.0, 100.0).with_class_priority(1, 1);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_admission(admission)
        .run(requests);
        assert!(report.fault.shed > 0, "overload never shed");
        // Only the best-effort class was shed (class 1's threshold is far
        // higher).
        for s in &report.fault.shed_log {
            assert_eq!(s.class, 0, "high-priority request {} was shed", s.id);
        }
        // Shed counts are threaded into the metrics.
        assert_eq!(report.fleet.merged.metrics.shed, report.fault.shed);
        let class0 = report
            .fleet
            .merged
            .per_class
            .iter()
            .find(|r| r.class == 0)
            .expect("class 0 row");
        assert_eq!(class0.metrics.shed, report.fault.shed);
        let class1 = report
            .fleet
            .merged
            .per_class
            .iter()
            .find(|r| r.class == 1)
            .expect("class 1 row");
        assert_eq!(class1.metrics.shed, 0);
        // Conservation.
        assert_eq!(
            report.fault.completed + report.fault.shed + report.fault.failed,
            report.fault.injected
        );
    }

    /// The warm-up regression the restart path exposed: a replica
    /// provisioned by a *restart* must take the same warm-up path as a
    /// scale-out — crash one replica right after a scale-out event and
    /// check both replacements pay the identical warm-up window.
    #[test]
    fn restart_takes_the_same_warmup_path_as_scale_out() {
        let spec = one_stage_spec(0.05, 1);
        let trace = spike_trace(200);
        let policy = AutoscalerPolicy::new(2, 6)
            .with_evaluation_interval(0.25)
            .with_scale_out_queue_depth(1.0)
            .with_warmup(0.75);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 3.6, // right after the spike's first scale-out ticks
            restart_delay_s: 0.25,
        }]);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Reactive(policy),
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert!(
            report
                .events
                .iter()
                .any(|e| e.action == ScalingAction::ScaleOut && e.time_s < 3.6),
            "the spike never scaled out before the crash"
        );
        // Every non-initial slot — scale-outs AND the restart replacement —
        // pays exactly the policy warm-up.
        let late: Vec<_> = report
            .lifetimes
            .iter()
            .filter(|l| l.provisioned_s > 0.0)
            .collect();
        assert!(late.len() >= 2, "need both a scale-out and a restart");
        for l in late {
            assert!(
                (l.routable_s - l.provisioned_s - 0.75).abs() < 1e-12,
                "slot {} warm-up window is {} not 0.75",
                l.replica,
                l.routable_s - l.provisioned_s
            );
            // And no request reached it before it became routable.
            let r = &report.fleet.per_replica[l.replica].report;
            assert!(r.timelines.iter().all(|t| t.arrival_s >= 0.0));
        }
        assert_eq!(report.fault.completed, 200);
    }

    #[test]
    fn preemption_drains_during_the_notice_window() {
        let spec = one_stage_spec(0.05, 2);
        let trace = poisson_trace(120, 40.0, 9);
        let faults = FaultSchedule::new(vec![FaultEvent::Preempt {
            replica: 0,
            at_s: 1.0,
            notice_s: 0.5,
        }]);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert_eq!(report.fault.disruptions.len(), 1);
        assert_eq!(report.fault.disruptions[0].kind, FaultKind::Preemption);
        assert_eq!(report.fault.disruptions[0].time_s, 1.0);
        // The preempted slot stopped taking traffic at the notice and died
        // at the deadline.
        let preempted = &report.lifetimes[0];
        assert_eq!(preempted.decommissioned_s, Some(1.0));
        assert_eq!(preempted.retired_s, 1.5);
        // No request was routed to it after the notice.
        let r = &report.fleet.per_replica[0].report;
        assert!(r.timelines.iter().all(|t| t.arrival_s <= 1.0 + 1e-12));
        assert_eq!(
            report.fault.completed + report.fault.failed,
            report.fault.injected
        );
    }

    #[test]
    fn predictive_plan_steps_resize_the_fleet() {
        let spec = one_stage_spec(0.04, 2);
        let trace = poisson_trace(200, 40.0, 13);
        let plan = ScalingPlan::new(
            1,
            vec![
                PlanStep {
                    at_s: 1.0,
                    replicas: 3,
                },
                PlanStep {
                    at_s: 3.0,
                    replicas: 1,
                },
            ],
        );
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Predictive(PredictivePolicy::new(plan, 0.25)),
        )
        .run_trace(&trace);
        assert_eq!(report.peak_provisioned, 3);
        let outs = report
            .events
            .iter()
            .filter(|e| e.action == ScalingAction::ScaleOut)
            .count();
        let ins = report
            .events
            .iter()
            .filter(|e| e.action == ScalingAction::ScaleIn)
            .count();
        assert_eq!(outs, 2, "step to 3 provisions two replicas");
        assert_eq!(ins, 2, "step back to 1 decommissions two");
        assert!(report
            .events
            .iter()
            .all(|e| e.time_s == 1.0 || e.time_s == 3.0));
        assert_eq!(report.fault.completed, 200);
    }

    #[test]
    fn recovery_metrics_see_the_dip_and_the_reattainment() {
        let spec = one_stage_spec(0.03, 4);
        let trace = poisson_trace(400, 50.0, 17);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 2.0,
            restart_delay_s: 1.0,
        }]);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        let slo = SloTarget::new(0.5, 0.02).with_attainment(0.9);
        let recovery = report.recovery(&slo, 0.5);
        assert_eq!(recovery.len(), 1);
        let r = &recovery[0];
        assert_eq!(r.fault_s, 2.0);
        assert_eq!(r.kind, FaultKind::Crash);
        assert!(r.dip_area >= 0.0);
        // The timeline covers the run and windows sum to the completions.
        let timeline = report.attainment_timeline(&slo, 0.5);
        assert!(!timeline.is_empty());
        let total: usize = timeline.iter().map(|w| w.completed).sum();
        assert_eq!(total, report.fault.completed);
        for w in &timeline {
            assert!(w.met <= w.completed);
            assert!((0.0..=1.0).contains(&w.attainment));
        }
    }

    #[test]
    fn crash_at_time_zero_with_restart_still_serves() {
        let spec = one_stage_spec(0.03, 2);
        let trace = poisson_trace(60, 20.0, 19);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 0.0,
            restart_delay_s: 0.5,
        }]);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        // Arrivals before the restart wait (pending) and are flushed once
        // the replacement is routable; everything completes.
        assert_eq!(report.fault.completed, 60);
        assert_eq!(report.fault.failed, 0);
        assert_eq!(report.min_provisioned, 0);
        // The pre-restart arrivals were served no earlier than the restart.
        let replacement = &report.fleet.per_replica[1].report;
        assert!(replacement.timelines.iter().all(|t| t.first_token_s >= 0.5));
    }

    #[test]
    fn crash_without_restart_fails_unroutable_pending() {
        let spec = one_stage_spec(0.03, 2);
        let trace = poisson_trace(60, 20.0, 19);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 0.0,
            restart_delay_s: f64::INFINITY,
        }]);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert_eq!(report.fault.completed, 0);
        assert_eq!(report.fault.failed, 60);
        assert_eq!(report.fault.injected, 60);
    }

    #[test]
    fn faults_on_missing_replicas_are_skipped() {
        let spec = one_stage_spec(0.03, 2);
        let trace = poisson_trace(40, 20.0, 21);
        let faults = FaultSchedule::new(vec![
            FaultEvent::Crash {
                replica: 7, // never exists
                at_s: 0.5,
                restart_delay_s: 0.1,
            },
            FaultEvent::StragglerStart {
                replica: 9,
                at_s: 0.6,
                slowdown: 2.0,
            },
        ]);
        let baseline = ChaosEngine::new(
            spec.clone(),
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .run_trace(&trace);
        let report = ChaosEngine::new(
            spec,
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert_eq!(report.fault.faults_skipped, 2);
        assert_eq!(report.fault.faults_applied, 0);
        // Skipped faults leave the run bit-identical.
        assert_eq!(report.fleet, baseline.fleet);
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_bounded() {
        let a = FaultSchedule::seeded(42, 3, 5.0, 30.0, 1.0);
        let b = FaultSchedule::seeded(42, 3, 5.0, 30.0, 1.0);
        assert_eq!(a, b);
        let c = FaultSchedule::seeded(43, 3, 5.0, 30.0, 1.0);
        assert_ne!(a, c, "different seeds should differ");
        for e in a.events() {
            assert!(e.at_s() <= 30.0);
            assert!(e.replica() < 3);
            assert!(matches!(e, FaultEvent::Crash { .. }));
        }
        assert!(a.events().windows(2).all(|w| w[0].at_s() <= w[1].at_s()));
    }

    /// A traced static fleet narrates its replicas' lifecycles and the
    /// routable-replicas gauge, as autoscaled and faulted runs do.
    #[test]
    fn traced_static_fleets_record_lifecycles_and_the_routable_gauge() {
        let engine = ChaosEngine::new(
            one_stage_spec(0.03, 2),
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_telemetry(rago_telemetry::TelemetryConfig::full(0.25));
        let trace = poisson_trace(40, 20.0, 3);
        let (report, rec) =
            engine.run_telemetry(trace.requests.iter().map(EngineRequest::from).collect());
        assert_eq!(report, engine.run_trace(&trace));
        let named = |name: &str| -> Vec<Option<f64>> {
            rec.events()
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.value)
                .collect()
        };
        assert_eq!(named("replica.provisioned").len(), 2);
        assert_eq!(named("replica.routable").len(), 2);
        assert!(named("replica.decommissioned").is_empty());
        let gauge = named("routable_replicas");
        assert!(!gauge.is_empty());
        assert!(gauge.iter().all(|&v| v == Some(2.0)));
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = || {
            ChaosEngine::new(
                one_stage_spec(0.04, 2),
                RouterPolicy::LeastOutstanding,
                ScaleDriver::Reactive(
                    AutoscalerPolicy::new(1, 4)
                        .with_evaluation_interval(0.3)
                        .with_scale_out_queue_depth(1.0),
                ),
            )
            .with_faults(FaultSchedule::seeded(7, 4, 2.0, 8.0, 0.5))
            .with_admission(AdmissionConfig::new(6.0, 4.0))
            .run_trace(&spike_trace(180))
        };
        assert_eq!(run(), run());
    }

    /// Streaming runs keep no timelines even under faults: a dying replica
    /// folds what it finished into its own sink. The SLO counts, fault
    /// tallies and cost ledger match the exact run; the timeline-derived
    /// recovery metrics are absent rather than "never dipped".
    #[test]
    fn streaming_chaos_run_matches_exact_tallies() {
        let spec = one_stage_spec(0.05, 1);
        let trace = poisson_trace(300, 60.0, 29);
        let slo = SloTarget::new(0.5, 0.01).with_attainment(0.9);
        let engine = ChaosEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 3 },
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 1,
            at_s: 1.5,
            restart_delay_s: 1.0,
        }]))
        .with_admission(AdmissionConfig::new(1.0, 0.0));
        let exact = engine.run_trace(&trace);
        let streaming = engine.run_trace_with_mode(
            &trace,
            &MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()).with_slo(slo)),
        );
        assert!(exact.fault.shed > 0 && exact.fault.retried > 0);
        assert!(streaming.fleet.merged.timelines.is_empty());
        assert!(streaming.fleet.assignments.is_empty());
        assert_eq!(
            streaming.offered_attainment(&slo).to_bits(),
            exact.offered_attainment(&slo).to_bits()
        );
        assert_eq!(streaming.fault, exact.fault);
        assert_eq!(streaming.lifetimes, exact.lifetimes);
        assert_eq!(streaming.replica_seconds, exact.replica_seconds);
        assert_eq!(
            streaming.fleet.merged.metrics.shed,
            exact.fleet.merged.metrics.shed
        );
        assert_eq!(exact.recovery(&slo, 0.5).len(), 1);
        assert!(streaming.recovery(&slo, 0.5).is_empty());
        assert!(streaming.attainment_timeline(&slo, 0.5).is_empty());
    }

    /// A heterogeneous fleet's crashed replica restarts cold on its own
    /// pipeline, not on the first one.
    #[test]
    fn heterogeneous_crash_restarts_on_the_dead_slots_pipeline() {
        let fast = one_stage_spec(0.02, 2);
        let slow = one_stage_spec(0.2, 2);
        let trace = poisson_trace(160, 8.0, 31);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 1,
            at_s: 5.0,
            restart_delay_s: 0.5,
        }]);
        let run = |specs: Vec<PipelineSpec>| {
            ChaosEngine::heterogeneous(specs, RouterPolicy::RoundRobin)
                .with_faults(faults.clone())
                .run_trace(&trace)
        };
        // Slot 2 replaces slot 1. A slow replica's prefix stage alone takes
        // 0.2 s, bounding every TTFT it serves from below; a fast one's
        // takes 0.02 s. Scale-outs would run slot 0's pipeline, so both
        // orders tell the restart path apart from them.
        let ttfts = |specs| {
            let report = run(specs);
            assert_eq!(report.lifetimes.len(), 3);
            let replacement = &report.fleet.per_replica[2].report;
            assert!(!replacement.timelines.is_empty());
            replacement
                .timelines
                .iter()
                .map(|t| t.ttft_s())
                .collect::<Vec<_>>()
        };
        assert!(ttfts(vec![fast.clone(), slow.clone()])
            .iter()
            .all(|&t| t >= 0.2 - 1e-9));
        assert!(ttfts(vec![slow, fast]).iter().all(|&t| t < 0.2));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_plans_are_rejected() {
        let _ = ScalingPlan::new(
            1,
            vec![
                PlanStep {
                    at_s: 2.0,
                    replicas: 2,
                },
                PlanStep {
                    at_s: 2.0,
                    replicas: 3,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn malformed_fault_times_are_rejected() {
        let _ = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: f64::NAN,
            restart_delay_s: 1.0,
        }]);
    }
}
