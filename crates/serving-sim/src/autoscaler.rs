//! Reactive fleet autoscaling inside the cluster simulation.
//!
//! [`crate::cluster::ClusterEngine`] answers what a *fixed* fleet does under
//! a request stream. Real traffic breathes — diurnal cycles, flash crowds —
//! and capacity must follow it: provisioning for the peak wastes chips all
//! night, provisioning for the mean misses the SLO every evening. This
//! module adds the provisioning loop the cluster-serving literature
//! (Splitwise's pool sizing, DistServe's SLO-goodput framing) assumes sits
//! above the router: an [`AutoscaleEngine`] drives the same per-replica
//! simulations as the cluster engine, but re-evaluates a reactive
//! [`AutoscalerPolicy`] at a fixed interval while the trace plays:
//!
//! * **Scale-out** when the mean queue depth per routable replica crosses a
//!   threshold, or (optionally) when the SLO attainment of recently
//!   completed requests falls below a floor ([`AttainmentTrigger`]).
//! * **Warm-up** — a newly provisioned replica takes no traffic until its
//!   warm-up delay elapses (model loading, cache warming), but its chips
//!   are paid for from the provisioning decision.
//! * **Scale-in** only after a cooldown since the last scaling action, and
//!   only while more than the minimum replica count is routable. A
//!   decommissioned replica stops receiving requests and drains what it
//!   holds; its chips are paid until the drain finishes.
//!
//! The run produces the same [`FleetReport`] a fixed fleet would (merged
//! metrics, per-replica breakdowns, per-class rows) plus the scaling
//! history: every [`ScalingEvent`], per-replica [`ReplicaLifetime`]s, and
//! the provisioned **replica-seconds** integral that capacity planning
//! compares against static provisioning (chip-hours = replica-seconds ×
//! chips per replica / 3600).
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::autoscaler::{AutoscaleEngine, AutoscalerPolicy};
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_schema::RouterPolicy;
//! use rago_schema::SequenceProfile;
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! let spec = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 2, LatencyTable::constant(2, 0.05))],
//!     DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
//! );
//! // A flash crowd: 2 rps background, 60 rps for four seconds.
//! let trace = TraceSpec {
//!     num_requests: 200,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Spike {
//!         base_rps: 2.0, spike_rps: 60.0, start_s: 4.0, duration_s: 4.0,
//!     },
//!     length_jitter: 0.0,
//!     seed: 3,
//! }
//! .generate();
//! let policy = AutoscalerPolicy::new(1, 6)
//!     .with_evaluation_interval(0.5)
//!     .with_scale_out_queue_depth(2.0)
//!     .with_warmup(0.5);
//! let report = AutoscaleEngine::new(spec, RouterPolicy::LeastOutstanding, policy)
//!     .run_trace(&trace);
//! assert_eq!(report.fleet.merged.metrics.completed, 200);
//! assert!(report.peak_provisioned > 1, "the spike should trigger scale-out");
//! assert!(report.replica_seconds > 0.0);
//! ```

use crate::cluster::{
    merge_finished_replicas, merge_finished_replicas_streaming, record_fleet_observability,
    route_pick, FleetReport, ReplicaObs,
};
use crate::engine::{EngineRequest, PipelineSpec, ReplicaSim};
use crate::sink::MetricsMode;
use rago_schema::{RouterPolicy, SloTarget};
use rago_workloads::Trace;
use serde::{Deserialize, Serialize};

/// Scale out when the SLO attainment of requests completed in the last
/// evaluation interval falls below `floor`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttainmentTrigger {
    /// The SLO recently completed requests are checked against.
    pub slo: SloTarget,
    /// Scale out when the recent attainment fraction drops below this floor
    /// (in `(0, 1]`). Windows with no completions never trigger.
    pub floor: f64,
}

/// A reactive autoscaling policy, evaluated at a fixed interval during the
/// simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerPolicy {
    /// Fewest replicas ever provisioned (at least 1; the fleet starts here).
    pub min_replicas: u32,
    /// Most replicas ever provisioned (warming replicas count).
    pub max_replicas: u32,
    /// Seconds between policy evaluations (ticks).
    pub evaluation_interval_s: f64,
    /// Scale out when the mean number of *queued* requests per routable
    /// replica exceeds this threshold.
    pub scale_out_queue_depth: f64,
    /// Scale in when the mean number of *outstanding* requests (queued or
    /// in service) per routable replica falls below this threshold. Zero
    /// disables scale-in entirely (mean outstanding is never negative).
    pub scale_in_outstanding: f64,
    /// Minimum seconds between the previous scaling action (either
    /// direction) and a scale-in. Scale-out is never delayed: under-capacity
    /// misses SLOs, over-capacity only costs chips.
    pub cooldown_s: f64,
    /// Seconds a newly provisioned replica needs before it can take traffic
    /// (its chips are paid from the provisioning decision).
    pub warmup_s: f64,
    /// Optional recent-SLO-attainment scale-out trigger.
    pub attainment_trigger: Option<AttainmentTrigger>,
}

impl AutoscalerPolicy {
    /// A policy with the given replica bounds and conservative defaults:
    /// 1 s evaluation interval, scale-out above 4 queued per replica,
    /// scale-in below 1 outstanding per replica, 4 s cooldown, 1 s warm-up,
    /// no attainment trigger.
    pub fn new(min_replicas: u32, max_replicas: u32) -> Self {
        Self {
            min_replicas,
            max_replicas,
            evaluation_interval_s: 1.0,
            scale_out_queue_depth: 4.0,
            scale_in_outstanding: 1.0,
            cooldown_s: 4.0,
            warmup_s: 1.0,
            attainment_trigger: None,
        }
    }

    /// Sets the evaluation interval.
    pub fn with_evaluation_interval(mut self, interval_s: f64) -> Self {
        self.evaluation_interval_s = interval_s;
        self
    }

    /// Sets the scale-out queue-depth threshold.
    pub fn with_scale_out_queue_depth(mut self, depth: f64) -> Self {
        self.scale_out_queue_depth = depth;
        self
    }

    /// Sets the scale-in mean-outstanding threshold.
    pub fn with_scale_in_outstanding(mut self, outstanding: f64) -> Self {
        self.scale_in_outstanding = outstanding;
        self
    }

    /// Sets the scale-in cooldown.
    pub fn with_cooldown(mut self, cooldown_s: f64) -> Self {
        self.cooldown_s = cooldown_s;
        self
    }

    /// Sets the replica warm-up delay.
    pub fn with_warmup(mut self, warmup_s: f64) -> Self {
        self.warmup_s = warmup_s;
        self
    }

    /// Adds a recent-attainment scale-out trigger.
    pub fn with_attainment_trigger(mut self, slo: SloTarget, floor: f64) -> Self {
        self.attainment_trigger = Some(AttainmentTrigger { slo, floor });
        self
    }

    /// Panics unless the policy is well-formed.
    pub(crate) fn assert_valid(&self) {
        assert!(self.min_replicas >= 1, "min_replicas must be at least 1");
        assert!(
            self.max_replicas >= self.min_replicas,
            "max_replicas must be at least min_replicas"
        );
        assert!(
            self.evaluation_interval_s > 0.0 && self.evaluation_interval_s.is_finite(),
            "the evaluation interval must be positive and finite"
        );
        assert!(
            self.scale_out_queue_depth >= 0.0 && self.scale_out_queue_depth.is_finite(),
            "the scale-out queue depth must be non-negative and finite"
        );
        assert!(
            self.scale_in_outstanding >= 0.0 && self.scale_in_outstanding.is_finite(),
            "the scale-in outstanding threshold must be non-negative and finite"
        );
        assert!(
            self.cooldown_s >= 0.0 && self.cooldown_s.is_finite(),
            "the cooldown must be non-negative and finite"
        );
        assert!(
            self.warmup_s >= 0.0 && self.warmup_s.is_finite(),
            "the warm-up delay must be non-negative and finite"
        );
        if let Some(t) = &self.attainment_trigger {
            assert!(
                t.floor > 0.0 && t.floor <= 1.0,
                "the attainment floor must be in (0, 1]"
            );
            assert!(t.slo.validate().is_ok(), "the trigger SLO must be valid");
        }
    }
}

/// The direction of one scaling action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingAction {
    /// A replica was provisioned (it becomes routable after warm-up).
    ScaleOut,
    /// A replica was decommissioned (it drains and stops taking traffic).
    ScaleIn,
}

/// One scaling decision taken at an evaluation tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingEvent {
    /// When the decision was taken, in seconds.
    pub time_s: f64,
    /// The direction.
    pub action: ScalingAction,
    /// The replica index provisioned or decommissioned.
    pub replica: usize,
    /// Provisioned replicas (routable + warming) after the action.
    pub provisioned_after: u32,
    /// Routable replicas after the action.
    pub routable_after: u32,
    /// Mean queued requests per routable replica observed at the tick.
    pub mean_queue_depth: f64,
    /// Mean outstanding requests per routable replica observed at the tick.
    pub mean_outstanding: f64,
}

/// The provisioning window of one replica across the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicaLifetime {
    /// Replica index (matches [`FleetReport::per_replica`]).
    pub replica: usize,
    /// When the replica was provisioned (0 for the initial fleet), in
    /// seconds.
    pub provisioned_s: f64,
    /// When the replica became routable (provisioning plus warm-up), in
    /// seconds.
    pub routable_s: f64,
    /// When the replica was decommissioned, or `None` if it served until
    /// the end of the run.
    pub decommissioned_s: Option<f64>,
    /// When the replica's chips were released: the end of the run for
    /// replicas never decommissioned, otherwise the later of the
    /// decommission decision and the completion of its last in-flight
    /// request (the drain).
    pub retired_s: f64,
    /// Requests the router assigned to this replica.
    pub assigned: usize,
}

impl ReplicaLifetime {
    /// Seconds this replica's chips were provisioned.
    pub fn provisioned_duration_s(&self) -> f64 {
        (self.retired_s - self.provisioned_s).max(0.0)
    }
}

/// The result of one autoscaled run: the fleet report plus the scaling
/// history and the provisioned-capacity integral.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleReport {
    /// The merged fleet report — same definitions as a fixed-fleet
    /// [`crate::cluster::ClusterEngine`] run, with one
    /// [`crate::cluster::ReplicaReport`] per replica ever provisioned.
    pub fleet: FleetReport,
    /// Every scaling decision, in time order.
    pub events: Vec<ScalingEvent>,
    /// Per-replica provisioning windows, by replica index.
    pub lifetimes: Vec<ReplicaLifetime>,
    /// Largest number of provisioned replicas at any instant.
    pub peak_provisioned: u32,
    /// Smallest number of provisioned replicas at any instant.
    pub min_provisioned: u32,
    /// Integral of provisioned replicas over time, in replica-seconds —
    /// what the fleet *paid for*. A static fleet of `N` replicas over the
    /// same run pays `N × makespan`.
    pub replica_seconds: f64,
}

impl AutoscaleReport {
    /// Mean provisioned replicas over the run (replica-seconds divided by
    /// the makespan; zero for an empty run).
    pub fn mean_provisioned(&self) -> f64 {
        let makespan = self.fleet.merged.metrics.makespan_s;
        if makespan <= 0.0 {
            return 0.0;
        }
        self.replica_seconds / makespan
    }
}

/// One replica slot of the elastic fleet.
struct Slot {
    sim: ReplicaSim,
    provisioned_s: f64,
    routable_s: f64,
    decommissioned_s: Option<f64>,
    assigned: usize,
    /// Position in the replica's chronological completion log up to which
    /// the attainment trigger has already consumed outcomes — each
    /// completion is scored exactly once across ticks.
    completion_cursor: usize,
}

/// An elastic fleet: replicas of one pipeline behind a router, resized by a
/// reactive policy while the trace plays. See the module docs.
#[derive(Debug, Clone)]
pub struct AutoscaleEngine {
    spec: PipelineSpec,
    router: RouterPolicy,
    policy: AutoscalerPolicy,
    telemetry: rago_telemetry::TelemetryConfig,
}

impl AutoscaleEngine {
    /// Creates an autoscaled fleet of `spec` replicas behind `router`.
    ///
    /// # Panics
    ///
    /// Panics if the policy is malformed (zero minimum, inverted bounds,
    /// non-positive evaluation interval, negative thresholds or delays, or
    /// an invalid attainment trigger).
    pub fn new(spec: PipelineSpec, router: RouterPolicy, policy: AutoscalerPolicy) -> Self {
        policy.assert_valid();
        Self {
            spec,
            router,
            policy,
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

    /// The policy driving the fleet size.
    pub fn policy(&self) -> &AutoscalerPolicy {
        &self.policy
    }

    /// A fresh replica simulation for one slot. Completion logging is
    /// enabled only when the policy actually has an attainment trigger —
    /// it is the log's only consumer, and an untracked run should not
    /// retain per-request completion tuples.
    fn new_sim(&self, track_probes: bool) -> ReplicaSim {
        let mut sim = ReplicaSim::new(self.spec.clone());
        sim.track_completions = self.policy.attainment_trigger.is_some();
        sim.track_probes = track_probes;
        sim
    }

    /// Routes every request of a generated trace through the elastic fleet.
    pub fn run_trace(&self, trace: &Trace) -> AutoscaleReport {
        self.run(trace.requests.iter().map(EngineRequest::from).collect())
    }

    /// [`Self::run_trace`] with an explicit metrics pipeline.
    pub fn run_trace_with_mode(&self, trace: &Trace, mode: &MetricsMode) -> AutoscaleReport {
        self.run_with_mode(
            trace.requests.iter().map(EngineRequest::from).collect(),
            mode,
        )
    }

    /// Runs the elastic fleet over `requests` (sorted by arrival time
    /// internally) and returns the merged report plus scaling history.
    ///
    /// The run interleaves three chronological streams under one clock:
    /// request arrivals (routed exactly as
    /// [`crate::cluster::ClusterEngine::run`] routes them, over the
    /// currently routable replicas), policy evaluation ticks (every
    /// [`AutoscalerPolicy::evaluation_interval_s`] up to the last arrival;
    /// ticks at the same instant as an arrival are evaluated first, so a
    /// scale-out decision never benefits from hindsight about the arrival),
    /// and replica state transitions (warm-up completion makes a replica
    /// routable; decommissioning removes it from routing). After the last
    /// arrival the fleet drains to completion; no scaling happens during
    /// the drain.
    ///
    /// # Panics
    ///
    /// Panics if any arrival time is negative or non-finite, or any request
    /// generates zero tokens.
    pub fn run(&self, requests: Vec<EngineRequest>) -> AutoscaleReport {
        self.run_with_mode(requests, &MetricsMode::Exact)
    }

    /// [`Self::run`] with an explicit metrics pipeline. Streaming mode
    /// keeps `O(buckets)` metric state per replica: the fleet report holds
    /// no timelines and no per-request assignment log (the scaling history
    /// and lifetimes are retained either way — they are `O(scale events +
    /// replicas)`).
    pub fn run_with_mode(
        &self,
        requests: Vec<EngineRequest>,
        mode: &MetricsMode,
    ) -> AutoscaleReport {
        self.run_recorded(requests, mode, &mut rago_telemetry::NullRecorder)
            .0
    }

    /// [`Self::run_with_mode`] recording a trace into `rec`: router picks
    /// live during routing; scaling decisions (with the triggering metric
    /// value), replica lifecycle instants, a routable-replica gauge, and
    /// all the per-replica fleet observability of
    /// [`crate::cluster::ClusterEngine::run_traced`] derived post-hoc. A
    /// [`rago_telemetry::NullRecorder`] makes this exactly
    /// [`Self::run_with_mode`].
    pub fn run_traced<R: rago_telemetry::Recorder>(
        &self,
        requests: Vec<EngineRequest>,
        mode: &MetricsMode,
        rec: &mut R,
    ) -> AutoscaleReport {
        let (report, obs) = self.run_recorded(requests, mode, rec);
        if R::ENABLED {
            let end_s = report.fleet.merged.metrics.makespan_s;
            record_fleet_observability(rec, &report.fleet, &obs, self.telemetry.gauge_cadence_s);
            crate::telemetry::record_scaling_events(rec, &report.events);
            crate::telemetry::record_replica_lifetimes(rec, &report.lifetimes);
            crate::telemetry::record_routable_gauge(
                rec,
                &report.lifetimes,
                self.telemetry.gauge_cadence_s,
                end_s,
            );
        }
        report
    }

    /// Convenience wrapper: [`Self::run_traced`] with a
    /// [`rago_telemetry::TraceRecorder`] built from the engine's
    /// [`Self::with_telemetry`] config.
    pub fn run_telemetry(
        &self,
        requests: Vec<EngineRequest>,
        mode: &MetricsMode,
    ) -> (AutoscaleReport, rago_telemetry::TraceRecorder) {
        let mut rec = rago_telemetry::TraceRecorder::new(self.telemetry.clone());
        let report = self.run_traced(requests, mode, &mut rec);
        (report, rec)
    }

    /// The shared elastic-fleet run body: routes, ticks the policy, drains,
    /// and merges; the recorder sees router picks only (everything else is
    /// derived from the returned ledgers).
    fn run_recorded<R: rago_telemetry::Recorder>(
        &self,
        mut requests: Vec<EngineRequest>,
        mode: &MetricsMode,
        rec: &mut R,
    ) -> (AutoscaleReport, Vec<ReplicaObs>) {
        crate::engine::sort_by_arrival(&mut requests);
        let log_assignments = matches!(mode, MetricsMode::Exact);
        let policy = &self.policy;
        let mut slots: Vec<Slot> = (0..policy.min_replicas)
            .map(|_| Slot {
                sim: self.new_sim(R::ENABLED),
                provisioned_s: 0.0,
                routable_s: 0.0,
                decommissioned_s: None,
                assigned: 0,
                completion_cursor: 0,
            })
            .collect();
        let mut events: Vec<ScalingEvent> = Vec::new();
        let mut assignments: Vec<(u64, usize)> = if log_assignments {
            Vec::with_capacity(requests.len())
        } else {
            Vec::new()
        };
        let mut round_robin_next = 0usize;
        let mut last_action_s = f64::NEG_INFINITY;
        let mut peak_provisioned = policy.min_replicas;
        let mut min_provisioned = policy.min_replicas;

        let last_arrival = requests.last().map(|r| r.arrival_s).unwrap_or(0.0);
        let interval = policy.evaluation_interval_s;
        let mut next_tick = interval;
        let mut next_req = 0usize;
        while next_req < requests.len() || next_tick <= last_arrival {
            let arrival_t = requests.get(next_req).map(|r| r.arrival_s);
            // Ticks run first at equal instants: the policy must not see an
            // arrival that has not happened yet from its point of view.
            let tick_due =
                next_tick <= last_arrival && arrival_t.map(|t| next_tick <= t).unwrap_or(true);
            if tick_due {
                let now = next_tick;
                next_tick += interval;
                advance_slots(&mut slots, now);
                self.evaluate_policy(
                    now,
                    &mut slots,
                    &mut events,
                    &mut last_action_s,
                    &mut peak_provisioned,
                    &mut min_provisioned,
                    R::ENABLED,
                );
            } else {
                let req = requests[next_req];
                next_req += 1;
                advance_slots(&mut slots, req.arrival_s);
                let routable: Vec<usize> = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.routable_s <= req.arrival_s && s.decommissioned_s.is_none())
                    .map(|(i, _)| i)
                    .collect();
                debug_assert!(
                    !routable.is_empty(),
                    "the fleet never drops below one routable replica"
                );
                let pick = route_pick(
                    self.router,
                    routable.len(),
                    |i| &slots[routable[i]].sim,
                    // Hash homes key on the stable slot index, not the
                    // position in the routable subset, so scale events do
                    // not re-home every template.
                    |i| routable[i],
                    &mut round_robin_next,
                    &req,
                );
                let replica = routable[pick];
                if R::ENABLED {
                    crate::telemetry::record_route_pick(
                        rec,
                        req.arrival_s,
                        self.router,
                        replica,
                        &req,
                        &slots[replica].sim,
                    );
                }
                if log_assignments {
                    assignments.push((req.id, replica));
                }
                slots[replica].assigned += 1;
                slots[replica].sim.inject(req);
            }
        }

        // Drain: no scaling after the last arrival.
        let assigned_counts: Vec<usize> = slots.iter().map(|s| s.assigned).collect();
        let mut lifetimes_partial: Vec<(f64, f64, Option<f64>)> = slots
            .iter()
            .map(|s| (s.provisioned_s, s.routable_s, s.decommissioned_s))
            .collect();
        let sims: Vec<ReplicaSim> = slots.into_iter().map(|s| s.sim).collect();
        let (fleet, obs) = match mode {
            MetricsMode::Exact => {
                merge_finished_replicas(sims, assigned_counts, assignments, self.router)
            }
            MetricsMode::Streaming(config) => {
                merge_finished_replicas_streaming(sims, assigned_counts, self.router, config)
            }
        };

        // Cost accounting: a never-decommissioned replica is paid until the
        // end of the run; a decommissioned one until its drain finishes.
        let makespan = fleet.merged.metrics.makespan_s;
        let mut lifetimes = Vec::with_capacity(lifetimes_partial.len());
        let mut replica_seconds = 0.0;
        for (replica, (provisioned_s, routable_s, decommissioned_s)) in
            lifetimes_partial.drain(..).enumerate()
        {
            let report = &fleet.per_replica[replica].report;
            // The replica's last completion is its makespan (both metric
            // pipelines track it); an idle replica's is its provisioning
            // instant.
            let last_completion = report.metrics.makespan_s.max(provisioned_s);
            let retired_s = match decommissioned_s {
                Some(d) => d.max(last_completion),
                None => makespan.max(provisioned_s),
            };
            replica_seconds += retired_s - provisioned_s;
            lifetimes.push(ReplicaLifetime {
                replica,
                provisioned_s,
                routable_s,
                decommissioned_s,
                retired_s,
                assigned: fleet.per_replica[replica].assigned,
            });
        }

        let report = AutoscaleReport {
            fleet,
            events,
            lifetimes,
            peak_provisioned,
            min_provisioned,
            replica_seconds,
        };
        (report, obs)
    }

    /// One policy evaluation at tick `now`: observe the routable replicas,
    /// then take at most one scaling action.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_policy(
        &self,
        now: f64,
        slots: &mut Vec<Slot>,
        events: &mut Vec<ScalingEvent>,
        last_action_s: &mut f64,
        peak_provisioned: &mut u32,
        min_provisioned: &mut u32,
        track_probes: bool,
    ) {
        let policy = &self.policy;
        let routable: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.routable_s <= now && s.decommissioned_s.is_none())
            .map(|(i, _)| i)
            .collect();
        let provisioned = slots
            .iter()
            .filter(|s| s.decommissioned_s.is_none())
            .count() as u32;
        if routable.is_empty() {
            return; // only possible transiently while the whole minimum fleet warms up
        }
        let n = routable.len() as f64;
        let mean_queue_depth = routable
            .iter()
            .map(|&i| slots[i].sim.queued())
            .sum::<usize>() as f64
            / n;
        let mean_outstanding = routable
            .iter()
            .map(|&i| slots[i].sim.outstanding())
            .sum::<usize>() as f64
            / n;

        let queue_trigger = mean_queue_depth > policy.scale_out_queue_depth;
        // Consecutive ticks are `evaluation_interval_s` apart, so consuming
        // everything up to `now` from each replica's cursor is exactly the
        // last interval's completions — in O(new completions), not a rescan
        // of every request.
        let attainment_trigger = if let Some(t) = &policy.attainment_trigger {
            let mut met = 0usize;
            let mut total = 0usize;
            for slot in slots.iter_mut() {
                for &(_, ttft, tpot) in slot.sim.completions_up_to(&mut slot.completion_cursor, now)
                {
                    total += 1;
                    if t.slo.meets(ttft, tpot) {
                        met += 1;
                    }
                }
            }
            total > 0 && (met as f64 / total as f64) < t.floor
        } else {
            false
        };

        if (queue_trigger || attainment_trigger) && provisioned < policy.max_replicas {
            let replica = slots.len();
            slots.push(Slot {
                sim: self.new_sim(track_probes),
                provisioned_s: now,
                routable_s: now + policy.warmup_s,
                decommissioned_s: None,
                assigned: 0,
                completion_cursor: 0,
            });
            *last_action_s = now;
            *peak_provisioned = (*peak_provisioned).max(provisioned + 1);
            events.push(ScalingEvent {
                time_s: now,
                action: ScalingAction::ScaleOut,
                replica,
                provisioned_after: provisioned + 1,
                // A zero-warm-up replica is routable at this very tick, so
                // it already counts.
                routable_after: routable.len() as u32 + u32::from(policy.warmup_s <= 0.0),
                mean_queue_depth,
                mean_outstanding,
            });
        } else if mean_outstanding < policy.scale_in_outstanding
            && routable.len() as u32 > policy.min_replicas
            && now - *last_action_s >= policy.cooldown_s
        {
            // Drain the emptiest routable replica; ties retire the newest,
            // keeping long-lived replicas (and the round-robin pattern over
            // them) stable.
            let victim = routable
                .iter()
                .copied()
                .min_by_key(|&i| (slots[i].sim.outstanding(), usize::MAX - i))
                .expect("routable is non-empty");
            slots[victim].decommissioned_s = Some(now);
            *last_action_s = now;
            *min_provisioned = (*min_provisioned).min(provisioned - 1);
            events.push(ScalingEvent {
                time_s: now,
                action: ScalingAction::ScaleIn,
                replica: victim,
                provisioned_after: provisioned - 1,
                routable_after: routable.len() as u32 - 1,
                mean_queue_depth,
                mean_outstanding,
            });
        }
    }
}

/// Advances every slot's replica to just before `t`, serially: it runs at
/// every arrival and tick, and moves each replica only a few events.
fn advance_slots(slots: &mut [Slot], t: f64) {
    for slot in slots {
        slot.sim.advance_before(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterEngine;
    use crate::engine::{DecodeSpec, LatencyTable, StageSpec};
    use rago_schema::SequenceProfile;
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

    #[test]
    fn spike_scales_out_and_scales_back_in() {
        let policy = AutoscalerPolicy::new(1, 8)
            .with_evaluation_interval(0.25)
            .with_scale_out_queue_depth(1.5)
            .with_scale_in_outstanding(1.0)
            .with_cooldown(1.0)
            .with_warmup(0.25);
        let report = AutoscaleEngine::new(
            one_stage_spec(0.04, 2),
            RouterPolicy::LeastOutstanding,
            policy,
        )
        .run_trace(&spike_trace(260));
        assert_eq!(report.fleet.merged.metrics.completed, 260);
        assert!(report.peak_provisioned > 1, "spike never scaled out");
        assert!(
            report
                .events
                .iter()
                .any(|e| e.action == ScalingAction::ScaleIn),
            "quiet tail never scaled in"
        );
        // Bounds hold throughout.
        assert!(report.peak_provisioned <= 8);
        assert!(report.min_provisioned >= 1);
        // Replica-seconds are cheaper than statically provisioning the peak.
        let static_cost =
            f64::from(report.peak_provisioned) * report.fleet.merged.metrics.makespan_s;
        assert!(report.replica_seconds < static_cost);
        assert!(report.mean_provisioned() < f64::from(report.peak_provisioned));
    }

    #[test]
    fn zero_trigger_trace_never_scales() {
        // Thresholds no light trace can cross: the fleet must stay at min.
        let policy = AutoscalerPolicy::new(2, 6)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(1e6)
            .with_scale_in_outstanding(0.0);
        let trace = TraceSpec {
            num_requests: 60,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            length_jitter: 0.1,
            seed: 7,
        }
        .generate();
        let report =
            AutoscaleEngine::new(one_stage_spec(0.02, 4), RouterPolicy::RoundRobin, policy)
                .run_trace(&trace);
        assert!(report.events.is_empty());
        assert_eq!(report.peak_provisioned, 2);
        assert_eq!(report.min_provisioned, 2);
        assert_eq!(report.fleet.per_replica.len(), 2);
    }

    #[test]
    fn static_policy_reproduces_the_fixed_fleet_exactly() {
        // min == max and disabled triggers: the elastic fleet must be
        // bit-identical to a ClusterEngine run of the same size.
        let spec = one_stage_spec(0.03, 2);
        let trace = spike_trace(150);
        let policy = AutoscalerPolicy::new(3, 3)
            .with_evaluation_interval(0.4)
            .with_scale_in_outstanding(0.0);
        for router in RouterPolicy::ALL {
            let elastic = AutoscaleEngine::new(spec.clone(), router, policy).run_trace(&trace);
            let fixed = ClusterEngine::homogeneous(spec.clone(), 3, router).run_trace(&trace);
            assert_eq!(elastic.fleet, fixed, "router {router} diverged");
            assert!(elastic.events.is_empty());
        }
    }

    #[test]
    fn warmup_delays_traffic_to_new_replicas() {
        let policy = AutoscalerPolicy::new(1, 4)
            .with_evaluation_interval(0.25)
            .with_scale_out_queue_depth(0.5)
            .with_warmup(2.0);
        let report = AutoscaleEngine::new(
            one_stage_spec(0.05, 1),
            RouterPolicy::LeastOutstanding,
            policy,
        )
        .run_trace(&spike_trace(120));
        for (lifetime, scaled_out) in report.lifetimes.iter().zip([false, true, true, true]) {
            if !scaled_out {
                continue;
            }
            assert!(
                (lifetime.routable_s - lifetime.provisioned_s - 2.0).abs() < 1e-12,
                "warm-up window wrong for replica {}",
                lifetime.replica
            );
            // No request was routed to the replica before it became
            // routable.
            let report_r = &report.fleet.per_replica[lifetime.replica].report;
            assert!(report_r
                .timelines
                .iter()
                .all(|t| t.arrival_s >= lifetime.routable_s - 1e-12));
        }
    }

    #[test]
    fn scale_ins_respect_the_cooldown() {
        let policy = AutoscalerPolicy::new(1, 6)
            .with_evaluation_interval(0.2)
            .with_scale_out_queue_depth(1.0)
            .with_scale_in_outstanding(2.0)
            .with_cooldown(1.5);
        let report = AutoscaleEngine::new(
            one_stage_spec(0.03, 2),
            RouterPolicy::LeastOutstanding,
            policy,
        )
        .run_trace(&spike_trace(220));
        let mut last_action = f64::NEG_INFINITY;
        for e in &report.events {
            if e.action == ScalingAction::ScaleIn {
                assert!(
                    e.time_s - last_action >= 1.5 - 1e-12,
                    "scale-in at {} only {} after the previous action",
                    e.time_s,
                    e.time_s - last_action
                );
            }
            last_action = e.time_s;
        }
    }

    #[test]
    fn attainment_trigger_scales_out_without_queueing() {
        // A queue-free SLO violation: the 25 ms decode step blows the 20 ms
        // TPOT target on every request, but the 64-slot decode batch
        // swallows 10 rps of 16-token requests without any queueing — the
        // queue-depth trigger is blind to it, the attainment trigger is not
        // (scaling out cannot fix the step latency, so the reactive policy
        // walks to its maximum — which is exactly the observable signal).
        let spec = PipelineSpec::new(
            Vec::new(),
            DecodeSpec::new(64, LatencyTable::constant(64, 0.025)),
        );
        let trace = TraceSpec {
            num_requests: 150,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            length_jitter: 0.0,
            seed: 11,
        }
        .generate();
        let queue_only = AutoscalerPolicy::new(1, 4)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(5.0);
        let with_attainment = queue_only.with_attainment_trigger(SloTarget::new(2.0, 0.02), 0.9);
        let quiet = AutoscaleEngine::new(spec.clone(), RouterPolicy::LeastOutstanding, queue_only)
            .run_trace(&trace);
        let reactive = AutoscaleEngine::new(spec, RouterPolicy::LeastOutstanding, with_attainment)
            .run_trace(&trace);
        assert!(reactive.peak_provisioned > quiet.peak_provisioned);
    }

    #[test]
    fn autoscaled_runs_are_deterministic() {
        let policy = AutoscalerPolicy::new(1, 5)
            .with_evaluation_interval(0.3)
            .with_scale_out_queue_depth(1.0);
        let run = || {
            AutoscaleEngine::new(
                one_stage_spec(0.04, 2),
                RouterPolicy::DecodeFillAware,
                policy,
            )
            .run_trace(&spike_trace(180))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_request_sets_produce_an_empty_report() {
        let policy = AutoscalerPolicy::new(2, 4);
        let report =
            AutoscaleEngine::new(one_stage_spec(0.05, 1), RouterPolicy::RoundRobin, policy)
                .run(Vec::new());
        assert_eq!(report.fleet.merged.metrics.requests, 0);
        assert!(report.events.is_empty());
        assert_eq!(report.lifetimes.len(), 2);
        assert_eq!(report.replica_seconds, 0.0);
    }

    #[test]
    #[should_panic(expected = "min_replicas must be at least 1")]
    fn zero_minimum_fleets_are_rejected() {
        let _ = AutoscaleEngine::new(
            one_stage_spec(0.05, 1),
            RouterPolicy::RoundRobin,
            AutoscalerPolicy::new(0, 2),
        );
    }

    #[test]
    #[should_panic(expected = "at least min_replicas")]
    fn inverted_bounds_are_rejected() {
        let _ = AutoscaleEngine::new(
            one_stage_spec(0.05, 1),
            RouterPolicy::RoundRobin,
            AutoscalerPolicy::new(4, 2),
        );
    }
}
