//! Faults, admission control and predictive scaling.
//!
//! A [`crate::scenario::Scenario`] plays a
//! [`rago_serving_sim::faults::FaultSchedule`] of crashes, stragglers and
//! spot preemptions against a collocated fleet while it serves (or per-pool
//! [`rago_serving_sim::pools::PoolCrash`]es against a `[Prefill, Decode]`
//! split), sheds work by class priority under an optional
//! [`rago_serving_sim::faults::AdmissionConfig`], and sizes the fleet with a
//! [`rago_serving_sim::faults::ScaleDriver`] — static, reactive, or a *predictive* [`ScalingPlan`]
//! derived from a provisioning-side [`CapacityProfile`] by
//! [`scaling_plan_from_profile`], defined here.
//!
//! Scoring is on *offered* traffic: shed requests count against their class
//! and failed ones against the fleet, so an admission controller cannot buy
//! attainment by refusing work. When the scenario injects faults, recovery
//! metrics (time to SLO re-attainment and the goodput-dip area after each
//! disruption) come from the windowed attainment timeline of the
//! [`rago_serving_sim::faults::ChaosReport`]; streaming runs keep no
//! timelines and report neither.

use crate::capacity::CapacityProfile;
use rago_serving_sim::faults::{PlanStep, ScalingPlan};

/// Converts a provisioning-side [`CapacityProfile`] (the per-interval
/// replica schedule [`crate::capacity::plan_capacity_profile`] computes)
/// into the feed-forward [`ScalingPlan`] a predictive
/// [`rago_serving_sim::faults::ScaleDriver::Predictive`] executes — the planning loop closed: size
/// the fleet offline from the known rate profile, then play that schedule
/// forward against the live trace.
///
/// `lead_s` shifts every step earlier by that many seconds so replicas
/// finish warming up *before* the rate change arrives (a step shifted to
/// or past time zero is folded into the initial count, taking the larger
/// target). Zero-replica intervals are clamped to one — a serving fleet
/// never scales to nothing. Consecutive intervals with the same target
/// merge into one step.
///
/// # Panics
///
/// Panics unless `lead_s` is finite and non-negative, or if the profile
/// has no intervals.
///
/// # Examples
///
/// ```
/// use rago_core::faulted::scaling_plan_from_profile;
/// use rago_core::{CapacityInterval, CapacityProfile};
///
/// let interval = |start_s: f64, replicas: u32| CapacityInterval {
///     start_s,
///     duration_s: 10.0,
///     rate_rps: 5.0,
///     replicas,
///     attainment: 1.0,
/// };
/// let profile = CapacityProfile {
///     intervals: vec![interval(0.0, 1), interval(10.0, 3), interval(20.0, 3), interval(30.0, 0)],
///     peak_replicas: 3,
///     replica_seconds: 70.0,
///     static_replica_seconds: 120.0,
///     savings_fraction: 5.0 / 12.0,
/// };
/// let plan = scaling_plan_from_profile(&profile, 2.0);
/// assert_eq!(plan.initial, 1);
/// // One step up (led by 2 s), the repeat merged away, and the zero-rate
/// // tail clamped to one replica.
/// assert_eq!(plan.steps.len(), 2);
/// assert_eq!((plan.steps[0].at_s, plan.steps[0].replicas), (8.0, 3));
/// assert_eq!((plan.steps[1].at_s, plan.steps[1].replicas), (28.0, 1));
/// ```
pub fn scaling_plan_from_profile(profile: &CapacityProfile, lead_s: f64) -> ScalingPlan {
    assert!(
        lead_s.is_finite() && lead_s >= 0.0,
        "lead must be finite and non-negative, got {lead_s}"
    );
    assert!(
        !profile.intervals.is_empty(),
        "a capacity profile needs at least one interval"
    );
    let mut initial = profile.intervals[0].replicas.max(1);
    let mut steps: Vec<PlanStep> = Vec::new();
    for interval in &profile.intervals[1..] {
        let target = interval.replicas.max(1);
        let at_s = interval.start_s - lead_s;
        if at_s <= 0.0 {
            // The lead pushes this step before the run starts: provision it
            // from the beginning, never below an earlier folded target.
            initial = initial.max(target);
            continue;
        }
        // Collapse steps the lead squeezed onto the same instant (take the
        // larger target — over-provision rather than under) and merge
        // consecutive equal targets.
        if let Some(last) = steps.last_mut() {
            if at_s <= last.at_s {
                last.replicas = last.replicas.max(target);
                continue;
            }
        }
        let current = steps.last().map_or(initial, |s| s.replicas);
        if target != current {
            steps.push(PlanStep {
                at_s,
                replicas: target,
            });
        }
    }
    ScalingPlan::new(initial, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{plan_capacity_profile, CapacityOptions};
    use crate::error::RagoError;
    use crate::placement::PlacementPlan;
    use crate::profiler::StageProfiler;
    use crate::scenario::{evaluate_scenario, Evaluation, FleetEvaluation, Scenario};
    use crate::schedule::{BatchingPolicy, ResourceAllocation, Schedule};
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::{
        FleetConfig, HistogramSpec, RouterPolicy, SequenceProfile, SloTarget, Stage,
    };
    use rago_serving_sim::autoscaler::AutoscalerPolicy;
    use rago_serving_sim::faults::{
        AdmissionConfig, FaultEvent, FaultSchedule, PredictivePolicy, ScaleDriver,
    };
    use rago_serving_sim::{MetricsMode, StreamingConfig};
    use rago_workloads::{
        ArrivalProcess, MixTraceSpec, RateSegment, RequestClass, Trace, WorkloadMix,
    };

    fn case1_profiler() -> StageProfiler {
        StageProfiler::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        )
    }

    fn case1_schedule() -> Schedule {
        Schedule {
            placement: PlacementPlan {
                predecode_groups: vec![vec![Stage::Prefix]],
            },
            allocation: ResourceAllocation {
                group_xpus: vec![8],
                decode_xpus: 8,
                retrieval_servers: 32,
            },
            batching: BatchingPolicy::new(8, 64),
        }
    }

    fn priority_mix() -> WorkloadMix {
        WorkloadMix::new(vec![
            RequestClass::new(
                "batch",
                1.0,
                SequenceProfile::paper_default().with_decode_tokens(64),
                0.1,
                SloTarget::new(10.0, 0.2),
            ),
            RequestClass::new(
                "chat",
                2.0,
                SequenceProfile::paper_default().with_decode_tokens(32),
                0.1,
                SloTarget::new(2.0, 0.05),
            )
            .with_priority(2),
        ])
    }

    fn diurnal_trace(mix: &WorkloadMix, n: usize) -> Trace {
        MixTraceSpec {
            num_requests: n,
            mix: mix.clone(),
            arrival: ArrivalProcess::Diurnal {
                base_rps: 5.0,
                peak_rps: 80.0,
                period_s: 20.0,
            },
            seed: 31,
        }
        .generate()
    }

    /// A mix-scored scenario of `replicas` LeastOutstanding replicas.
    fn scenario<'a>(mix: &WorkloadMix, trace: &'a Trace, replicas: u32) -> Scenario<'a> {
        let fleet = FleetConfig::new(replicas, RouterPolicy::LeastOutstanding);
        Scenario::new(case1_schedule(), fleet, trace, mix.clone())
    }

    fn run(scenario: &Scenario<'_>) -> Result<FleetEvaluation, RagoError> {
        evaluate_scenario(&case1_profiler(), scenario).map(Evaluation::into_fleet)
    }

    /// The acceptance criterion: under a single-replica crash with
    /// admission on, the highest-priority class degrades less than the
    /// fleet's share of the lost replica.
    #[test]
    fn high_priority_class_degrades_less_than_fleet_share() {
        let mix = priority_mix();
        let trace = diurnal_trace(&mix, 400);
        let replicas = 3u32;
        let crash = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 4.0, // near the first diurnal peak
            restart_delay_s: 6.0,
        }]);
        let healthy = run(&scenario(&mix, &trace, replicas)).unwrap();
        let faulted = run(&scenario(&mix, &trace, replicas)
            .with_faults(crash)
            .with_admission(AdmissionConfig::new(4.0, 24.0)))
        .unwrap();
        // Priorities were inherited from the mix (empty table).
        let chat = &faulted.per_class[1];
        assert_eq!(chat.priority, 2);
        assert_eq!(faulted.per_class[0].priority, 0);
        // The crash actually disrupted the run.
        assert_eq!(faulted.fault.disruptions.len(), 1);
        // The high-priority class's attainment drop is bounded by the
        // fleet share of the lost replica (1/3 here).
        let healthy_chat = &healthy.per_class[1];
        let drop = (healthy_chat.attainment - chat.attainment).max(0.0);
        let fleet_share = 1.0 / f64::from(replicas);
        assert!(
            drop < fleet_share,
            "chat dropped {drop:.3}, worse than the lost replica's share {fleet_share:.3}"
        );
        // Shed is attributed per class and offered conservation holds.
        let offered: usize = faulted.per_class.iter().map(|c| c.offered).sum();
        assert_eq!(offered + faulted.fault.failed, faulted.fault.injected);
    }

    #[test]
    fn predictive_plan_from_profile_closes_the_loop() {
        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let slo = SloTarget::new(2.0, 0.1);
        let profile_segments = vec![
            RateSegment {
                rate_rps: 5.0,
                duration_s: 5.0,
            },
            RateSegment {
                rate_rps: 60.0,
                duration_s: 5.0,
            },
            RateSegment {
                rate_rps: 5.0,
                duration_s: 5.0,
            },
        ];
        let options = CapacityOptions {
            max_replicas: 4,
            num_requests: 80,
            ..Default::default()
        };
        let capacity =
            plan_capacity_profile(&profiler, &schedule, &slo, &profile_segments, &options).unwrap();
        let plan = scaling_plan_from_profile(&capacity, 1.0);
        assert!(plan.initial >= 1);
        // The plan follows the profile: the mid-window surge needs more
        // replicas than the trough.
        let peak_target = plan
            .steps
            .iter()
            .map(|s| s.replicas)
            .max()
            .unwrap_or(plan.initial);
        assert_eq!(peak_target, capacity.peak_replicas.max(1));
        // And it drives a faulted evaluation end to end.
        let profile_def = SequenceProfile::paper_default().with_decode_tokens(32);
        let mix = WorkloadMix::single("all", profile_def, 0.1, slo);
        let trace = MixTraceSpec {
            num_requests: 300,
            mix: mix.clone(),
            arrival: ArrivalProcess::PiecewiseRate {
                segments: profile_segments,
            },
            seed: 11,
        }
        .generate();
        let driver = ScaleDriver::Predictive(PredictivePolicy::new(plan.clone(), 0.5));
        let eval = run(&scenario(&mix, &trace, 1).with_driver(driver)).unwrap();
        assert_eq!(eval.fault.completed, 300);
        let scaling = eval
            .scaling
            .expect("a predictive run has a scaling history");
        assert_eq!(scaling.peak_provisioned, peak_target.max(plan.initial));
    }

    #[test]
    fn recovery_metrics_follow_a_crash() {
        let slo = SloTarget::new(2.0, 0.1).with_attainment(0.8);
        let profile = SequenceProfile::paper_default().with_decode_tokens(32);
        let mix = WorkloadMix::single("all", profile, 0.1, slo);
        let trace = MixTraceSpec {
            num_requests: 400,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            seed: 17,
        }
        .generate();
        let eval = run(&scenario(&mix, &trace, 2)
            .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
                replica: 0,
                at_s: 3.0,
                restart_delay_s: 1.0,
            }]))
            .with_recovery_window(0.5))
        .unwrap();
        assert_eq!(eval.recovery.len(), 1);
        assert!(eval.recovery[0].dip_area >= 0.0);
        assert!(!eval.timeline.is_empty());
        let covered: usize = eval.timeline.iter().map(|w| w.completed).sum();
        assert_eq!(covered, eval.fault.completed);
        if eval.recovery[0].reattainment_s.is_some() {
            assert_eq!(eval.worst_recovery_s(), eval.recovery[0].reattainment_s);
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mix = priority_mix();
        let empty = Trace { requests: vec![] };
        assert!(matches!(
            run(&scenario(&mix, &empty, 1)),
            Err(RagoError::InvalidConfig { .. })
        ));
        let mut trace = diurnal_trace(&mix, 10);
        trace.requests[2].class = 9;
        assert!(matches!(
            run(&scenario(&mix, &trace, 1)),
            Err(RagoError::InvalidConfig { .. })
        ));
        // Inputs the engine builders panic on are configuration errors: a
        // zero-replica static fleet, an inverted autoscaler range, a NaN
        // recovery window.
        let trace = diurnal_trace(&mix, 10);
        let inverted = AutoscalerPolicy {
            min_replicas: 3,
            max_replicas: 1,
            ..AutoscalerPolicy::new(1, 1)
        };
        for bad in [
            scenario(&mix, &trace, 1).with_driver(ScaleDriver::Static { replicas: 0 }),
            scenario(&mix, &trace, 1).with_driver(ScaleDriver::Reactive(inverted)),
            scenario(&mix, &trace, 1).with_recovery_window(f64::NAN),
        ] {
            assert!(matches!(run(&bad), Err(RagoError::InvalidConfig { .. })));
        }
    }

    /// Every scenario has a metrics mode now: streaming runs of static,
    /// reactive and crash-with-admission scenarios score the same bits as
    /// exact ones, and keep no timeline or recovery analysis.
    #[test]
    fn streaming_faulted_scenarios_match_exact() {
        let mix = priority_mix();
        let trace = diurnal_trace(&mix, 400);
        let reactive = AutoscalerPolicy::new(1, 4)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(1.0)
            .with_scale_in_outstanding(2.0)
            .with_cooldown(2.0)
            .with_warmup(0.5);
        let crash = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 4.0,
            restart_delay_s: 2.0,
        }]);
        let streaming = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));
        let mut shed = 0;
        for base in [
            scenario(&mix, &trace, 3),
            scenario(&mix, &trace, 1).with_driver(ScaleDriver::Reactive(reactive)),
            scenario(&mix, &trace, 2)
                .with_faults(crash.clone())
                .with_admission(AdmissionConfig::new(0.5, 4.0)),
        ] {
            let exact = run(&base).unwrap();
            let streamed = run(&base.clone().with_mode(streaming.clone())).unwrap();
            assert_eq!(streamed.attainment.to_bits(), exact.attainment.to_bits());
            assert_eq!(streamed.goodput_rps.to_bits(), exact.goodput_rps.to_bits());
            assert_eq!(streamed.meets_slo, exact.meets_slo);
            assert_eq!(
                streamed.replica_seconds.to_bits(),
                exact.replica_seconds.to_bits()
            );
            assert_eq!(streamed.per_class, exact.per_class);
            assert_eq!(streamed.fault.shed, exact.fault.shed);
            assert_eq!(streamed.fault.failed, exact.fault.failed);
            assert!(streamed.timeline.is_empty() && streamed.recovery.is_empty());
            assert!(streamed.report.merged.timelines.is_empty());
            shed += exact.fault.shed;
            assert_eq!(exact.timeline.is_empty(), exact.scaling.is_none());
            assert_eq!(exact.recovery.is_empty(), base.faults.is_empty());
        }
        assert!(
            shed > 0,
            "admission never shed, so the shed counts were not compared"
        );
    }

    /// A prefill-pool crash mid-run degrades (never improves) the split's
    /// attainment, conserves every request onto the survivors, and invalid
    /// crash targets error instead of panicking.
    #[test]
    fn pool_crashes_requeue_to_survivors_and_degrade_attainment() {
        use rago_schema::PoolRole;
        use rago_serving_sim::pools::PoolCrash;
        use rago_workloads::TraceSpec;

        let profiler = case1_profiler();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = TraceSpec {
            num_requests: 120,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 120.0 },
            length_jitter: 0.2,
            seed: 23,
        }
        .generate();
        let fleet = FleetConfig::split(2, 1, RouterPolicy::LeastOutstanding);
        let split = Scenario::new(case1_schedule(), fleet, &trace, slo);
        let evaluate = |crash: PoolCrash| {
            let crashed = split.clone().with_pool_crashes(vec![crash]);
            evaluate_scenario(&profiler, &crashed).and_then(Evaluation::into_disagg)
        };
        let healthy = evaluate_scenario(&profiler, &split)
            .and_then(Evaluation::into_disagg)
            .unwrap();
        let crashed = evaluate(PoolCrash {
            pool: PoolRole::Prefill,
            replica: 0,
            at_s: 0.2,
            restart_delay_s: None,
        })
        .unwrap();
        // Conservation: every request still completes on the survivors.
        assert_eq!(crashed.report.merged.metrics.completed, 120);
        assert!(crashed.attainment <= healthy.attainment);
        // Crashing the Monolithic pool is a configuration error.
        let bad = PoolCrash {
            pool: PoolRole::Monolithic,
            replica: 0,
            at_s: 0.1,
            restart_delay_s: None,
        };
        assert!(matches!(
            evaluate(bad),
            Err(RagoError::InvalidConfig { .. })
        ));
    }
}
