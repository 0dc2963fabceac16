//! Property-based tests for the chaos layer: fault injection, admission
//! control, and predictive scaling.
//!
//! Invariants:
//!
//! 1. **Conservation under crashes** — for any crash time, restart delay,
//!    crash policy, and fleet size, every injected request is accounted
//!    for exactly once: `completed + shed + failed == injected`, and the
//!    completed timelines carry unique ids from the input set.
//! 2. **Shed is monotone in priority** — two classes offering identical
//!    arrival patterns shed in priority order: the higher-priority class
//!    never sheds more than the lower-priority one.
//! 3. **Degenerate fault timing** — a crash scheduled after the fleet has
//!    drained leaves the served timelines bit-identical to the fault-free
//!    run; a crash at t=0 with no restart on a one-replica fleet fails
//!    everything but still conserves the request set.
//! 4. **Flat predictive plans are static fleets** — a
//!    [`ScalingPlan::flat`] predictive driver reproduces the static driver
//!    bit-exactly for any replica count.
//! 5. **Bad scenarios are errors, not panics** — NaN, zero, negative,
//!    infinite and huge values in a `rago-core` `Scenario`'s driver,
//!    admission, recovery-window and pool-crash fields come back from
//!    `evaluate_scenario` as `InvalidConfig` whenever they are out of range,
//!    and never reach an engine `assert!`.

use proptest::prelude::*;
use rago::core::{
    evaluate_scenario, BatchingPolicy, PlacementPlan, RagoError, ResourceAllocation, Scenario,
    Schedule, StageProfiler,
};
use rago::hardware::ClusterSpec;
use rago::schema::presets::{self, LlmSize};
use rago::schema::{FleetConfig, PoolRole, RouterPolicy, SequenceProfile, SloTarget, Stage};
use rago::serving_sim::autoscaler::AutoscalerPolicy;
use rago::serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago::serving_sim::faults::{
    AdmissionConfig, ChaosEngine, CrashPolicy, FaultEvent, FaultSchedule, PlanStep,
    PredictivePolicy, ScaleDriver, ScalingPlan,
};
use rago::serving_sim::pools::PoolCrash;
use rago::workloads::{ArrivalProcess, TraceSpec};

fn pipeline(stage_latency: f64, batch: u32) -> PipelineSpec {
    PipelineSpec::new(
        vec![StageSpec::new(
            "prefix",
            0,
            batch,
            LatencyTable::from_fn(batch, |b| stage_latency * (1.0 + 0.1 * f64::from(b))),
        )],
        DecodeSpec::new(
            8,
            LatencyTable::from_fn(8, |b| 2e-3 * (1.0 + 0.05 * f64::from(b))),
        ),
    )
}

/// A deterministic request list with the given inter-arrival gap; classes
/// alternate 0, 1 when `classes == 2` (arriving at the *same* instant in
/// pairs so both classes face identical queue depths).
fn requests(n: usize, gap: f64, classes: u32) -> Vec<EngineRequest> {
    (0..n)
        .map(|i| EngineRequest {
            id: i as u64,
            arrival_s: gap * (i as u64 / u64::from(classes)) as f64,
            prefix_tokens: 0,
            decode_tokens: 1 + (i as u32 * 7) % 17,
            class: i as u32 % classes,
            identity: None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any crash instant, restart delay, crash policy, and fleet size,
    /// the chaos run partitions the request set: nothing is lost,
    /// duplicated, or invented.
    #[test]
    fn crashes_conserve_the_request_set(
        n in 20usize..70,
        replicas in 1u32..4,
        crash_decis in 0u32..40,
        restart_case in 0u32..3,
        fail_policy in 0u32..2,
    ) {
        let reqs = requests(n, 0.02, 1);
        let restart_delay_s = match restart_case {
            0 => f64::INFINITY,
            1 => 0.25,
            _ => 1.0,
        };
        let policy = if fail_policy == 0 {
            CrashPolicy::Requeue
        } else {
            CrashPolicy::Fail
        };
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: f64::from(crash_decis) * 0.1,
            restart_delay_s,
        }]);
        let report = ChaosEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas },
        )
        .with_faults(faults)
        .with_crash_policy(policy)
        .run(reqs);
        let fault = &report.fault;
        prop_assert_eq!(fault.injected, n);
        prop_assert_eq!(fault.completed + fault.shed + fault.failed, n);
        prop_assert_eq!(report.fleet.merged.timelines.len(), fault.completed);
        let mut ids: Vec<u64> = report.fleet.merged.timelines.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), fault.completed, "duplicate completions");
        prop_assert!(ids.iter().all(|&id| id < n as u64), "invented request id");
        // Requeue never fails in-flight work; only unroutable pending can
        // fail, and that needs the whole fleet dead.
        if policy == CrashPolicy::Requeue && (replicas > 1 || restart_delay_s.is_finite()) {
            prop_assert_eq!(fault.failed, 0);
        }
    }

    /// Two classes with identical arrival patterns shed in priority order:
    /// the higher-priority class sheds no more than the lower.
    #[test]
    fn shed_is_monotone_in_priority(
        n_pairs in 10usize..40,
        gap_millis in 1u32..10,
        base_depth in 1u32..6,
        bonus_depth in 1u32..20,
    ) {
        let reqs = requests(2 * n_pairs, f64::from(gap_millis) * 1e-3, 2);
        let admission = AdmissionConfig::new(f64::from(base_depth), f64::from(bonus_depth))
            .with_class_priority(1, 1);
        let report = ChaosEngine::new(
            pipeline(0.05, 1),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_admission(admission)
        .run(reqs);
        let shed_of = |class: u32| {
            report
                .fault
                .shed_by_class
                .iter()
                .find(|s| s.class == class)
                .map_or(0, |s| s.shed)
        };
        prop_assert!(
            shed_of(1) <= shed_of(0),
            "high-priority class shed {} > low-priority {}",
            shed_of(1),
            shed_of(0)
        );
        prop_assert_eq!(
            report.fault.completed + report.fault.shed,
            2 * n_pairs,
            "shedding lost requests"
        );
    }

    /// A crash scheduled after the fleet has drained (and a restart after
    /// the trace ends) does not change what was served.
    #[test]
    fn crash_after_drain_changes_nothing_served(
        n in 15usize..50,
        replicas in 1u32..4,
    ) {
        let build = || ChaosEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas },
        );
        let baseline = build().run(requests(n, 0.02, 1));
        let makespan = baseline.fleet.merged.metrics.makespan_s;
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: makespan + 1.0,
            restart_delay_s: 5.0,
        }]);
        let late = build().with_faults(faults).run(requests(n, 0.02, 1));
        prop_assert_eq!(late.fault.completed, n);
        prop_assert_eq!(late.fault.retried, 0);
        prop_assert_eq!(
            &late.fleet.merged.timelines,
            &baseline.fleet.merged.timelines,
            "a post-drain crash rewrote served timelines"
        );
    }

    /// A crash at t=0 with no restart on a one-replica fleet fails the
    /// whole trace — and still conserves it.
    #[test]
    fn crash_at_zero_without_restart_fails_everything(n in 10usize..40) {
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 0.0,
            restart_delay_s: f64::INFINITY,
        }]);
        let report = ChaosEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_faults(faults)
        .run(requests(n, 0.02, 1));
        prop_assert_eq!(report.fault.completed, 0);
        prop_assert_eq!(report.fault.failed, n);
        prop_assert!(report.fleet.merged.timelines.is_empty());
    }

    /// A flat predictive plan is a static fleet, bit for bit, for any
    /// replica count and trace size.
    #[test]
    fn flat_predictive_plan_is_a_static_fleet(
        n in 15usize..60,
        replicas in 1u32..4,
    ) {
        let static_run = ChaosEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas },
        )
        .run(requests(n, 0.015, 1));
        let predictive = ChaosEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Predictive(PredictivePolicy::new(ScalingPlan::flat(replicas), 0.5)),
        )
        .run(requests(n, 0.015, 1));
        prop_assert_eq!(&predictive.fleet, &static_run.fleet);
        prop_assert_eq!(predictive.replica_seconds, static_run.replica_seconds);
        prop_assert!(predictive.events.is_empty());
    }

    /// One degenerate value in every scenario field: out-of-range values
    /// are `InvalidConfig`, in-range ones (zero cooldowns, huge but finite
    /// delays) evaluate, and nothing panics.
    #[test]
    fn degenerate_scenario_fields_are_errors_not_panics(pick in 0usize..5) {
        let x = [f64::NAN, 0.0, -1.0, f64::INFINITY, 1e300][pick];
        let n = [0u32, 4097, u32::MAX, 5, 1][pick];
        let non_negative = x.is_finite() && x >= 0.0;
        let positive = non_negative && x > 0.0;
        let profiler = StageProfiler::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let schedule = Schedule {
            placement: PlacementPlan {
                predecode_groups: vec![vec![Stage::Prefix]],
            },
            allocation: ResourceAllocation {
                group_xpus: vec![8],
                decode_xpus: 8,
                retrieval_servers: 32,
            },
            batching: BatchingPolicy::new(8, 64),
        };
        let trace = TraceSpec {
            num_requests: 12,
            profile: SequenceProfile::paper_default().with_decode_tokens(8),
            arrival: ArrivalProcess::Poisson { rate_rps: 20.0 },
            length_jitter: 0.0,
            seed: 3,
        }
        .generate();
        let slo = SloTarget::new(1.0, 0.1);
        let flat = FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        for field in 0..16 {
            let mut scenario = Scenario::new(schedule.clone(), flat.clone(), &trace, slo);
            let mut policy = AutoscalerPolicy::new(1, 4);
            let mut plan = ScalingPlan::new(1, vec![PlanStep { at_s: 0.5, replicas: 2 }]);
            let mut crash = PoolCrash {
                pool: PoolRole::Prefill,
                replica: 0,
                at_s: 0.1,
                restart_delay_s: Some(0.2),
            };
            let mut warmup = 0.5;
            let valid = match field {
                0 => {
                    scenario.recovery_window_s = x;
                    positive
                }
                1 | 2 => {
                    let mut a = AdmissionConfig::new(1.0, 1.0);
                    if field == 1 {
                        a.shed_queue_depth = x;
                    } else {
                        a.depth_per_priority = x;
                    }
                    scenario.admission = Some(a);
                    non_negative
                }
                3 => {
                    policy.evaluation_interval_s = x;
                    positive
                }
                4 => {
                    policy.scale_out_queue_depth = x;
                    non_negative
                }
                5 => {
                    policy.scale_in_outstanding = x;
                    non_negative
                }
                6 => {
                    policy.cooldown_s = x;
                    non_negative
                }
                7 => {
                    policy.warmup_s = x;
                    non_negative
                }
                8 => {
                    policy = policy.with_attainment_trigger(slo, 0.5);
                    policy.attainment_trigger.as_mut().unwrap().floor = x;
                    x > 0.0 && x <= 1.0
                }
                9 => {
                    warmup = x;
                    non_negative
                }
                10 => {
                    plan.steps[0].at_s = x;
                    non_negative
                }
                11 => {
                    crash.at_s = x;
                    non_negative
                }
                12 => {
                    crash.restart_delay_s = Some(x);
                    non_negative
                }
                13 => {
                    scenario.fleet.replicas = n;
                    scenario.driver = ScaleDriver::Static { replicas: n };
                    n == 1 || n == 5
                }
                14 => {
                    policy.min_replicas = n;
                    n == 1
                }
                _ => {
                    plan.initial = n;
                    n == 1 || n == 5
                }
            };
            match field {
                3..=8 | 14 => scenario.driver = ScaleDriver::Reactive(policy),
                9 | 10 | 15 => {
                    scenario.driver = ScaleDriver::Predictive(PredictivePolicy { plan, warmup_s: warmup })
                }
                11 | 12 => {
                    scenario.fleet = FleetConfig::split(2, 1, RouterPolicy::LeastOutstanding);
                    scenario.driver = ScaleDriver::Static { replicas: 3 };
                    scenario.pool_crashes = vec![crash];
                }
                _ => {}
            }
            let result = evaluate_scenario(&profiler, &scenario);
            if valid {
                prop_assert!(result.is_ok(), "field {field}, value {x} / {n}: {result:?}");
            } else {
                prop_assert!(
                    matches!(result, Err(RagoError::InvalidConfig { .. })),
                    "field {field} value {x} / {n} was not rejected"
                );
            }
        }
    }
}
