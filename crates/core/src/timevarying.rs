//! Multi-tenant scoring: every tenant class against its own SLO.
//!
//! A [`crate::scenario::Scenario`] scored by a [`WorkloadMix`] runs a
//! class-tagged trace — often from a time-varying
//! [`rago_workloads::ArrivalProcess`] (diurnal, spike, piecewise) — through
//! a fleet that may be elastic, and scores each class against its own
//! [`rago_schema::SloTarget`] on *offered* traffic. This module holds the
//! per-class outcome, the scaling history an elastic run reports, and the
//! per-class scoring itself.
//!
//! With one class, a constant rate and a static fleet, the mix-scored
//! evaluation reproduces the single-SLO one bit for bit
//! (`timevarying_matches_fleet_dynamic_bit_exactly` below).

use rago_schema::SloTarget;
use rago_serving_sim::autoscaler::{ReplicaLifetime, ScalingEvent};
use rago_serving_sim::engine::ServingReport;
use rago_serving_sim::faults::{AdmissionConfig, FaultReport};
use rago_workloads::WorkloadMix;
use serde::{Deserialize, Serialize};

/// One tenant class's outcome, scored on *offered* traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassOutcome {
    /// The workload-class tag (index into the mix).
    pub class: u32,
    /// The tenant name from the mix.
    pub name: String,
    /// Requests of this class offered to the fleet (completed + shed; lost
    /// requests are counted fleet-wide in
    /// [`FaultReport::failed`], not per class).
    pub offered: usize,
    /// Requests of this class that completed.
    pub completed: usize,
    /// Requests of this class shed by admission control.
    pub shed: usize,
    /// The admission priority of the class.
    pub priority: u32,
    /// The SLO this tenant was scored against (its own, from the mix).
    pub slo: SloTarget,
    /// Fraction of *offered* requests meeting the class SLO (shed requests
    /// count as misses; 1.0 when the class offered nothing).
    pub attainment: f64,
    /// Requests meeting the class SLO per second of the class's own serving
    /// window.
    pub goodput_rps: f64,
    /// Whether offered attainment reaches the SLO's required fraction.
    pub meets_slo: bool,
}

/// The scaling history of an elastic or faulted evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingSummary {
    /// Every scaling decision, in time order.
    pub events: Vec<ScalingEvent>,
    /// Per-replica provisioning windows.
    pub lifetimes: Vec<ReplicaLifetime>,
    /// Largest provisioned replica count at any instant.
    pub peak_provisioned: u32,
    /// Smallest provisioned replica count at any instant.
    pub min_provisioned: u32,
    /// Mean provisioned replicas over the run.
    pub mean_provisioned: f64,
}

/// Scores every class of `mix` on `report` through the engine's per-class
/// SLO counts, with shed counts from `fault`; returns the met total and
/// the outcomes. Every request belongs to exactly one class (tags are
/// validated against the mix), so the classes partition the run.
pub(crate) fn score_classes(
    report: &ServingReport,
    fault: &FaultReport,
    mix: &WorkloadMix,
    admission: Option<&AdmissionConfig>,
) -> (usize, Vec<ClassOutcome>) {
    let mut met_total = 0;
    let per_class = mix
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let class = i as u32;
            let (met, completed) = report.class_slo_counts(class, &c.slo);
            let shed = fault
                .shed_by_class
                .iter()
                .find(|s| s.class == class)
                .map_or(0, |s| s.shed);
            let offered = completed + shed;
            met_total += met;
            let attainment = if offered == 0 {
                1.0
            } else {
                met as f64 / offered as f64
            };
            // `ServingReport::class_goodput_rps` without its second count.
            let window = report
                .per_class
                .iter()
                .find(|r| r.class == class)
                .map_or(0.0, |r| r.metrics.serving_duration_s);
            ClassOutcome {
                class,
                name: c.name.clone(),
                offered,
                completed,
                shed,
                priority: admission.map_or(c.priority, |a| a.priority_of(class)),
                slo: c.slo,
                attainment,
                goodput_rps: if window > 0.0 {
                    met as f64 / window
                } else {
                    0.0
                },
                meets_slo: attainment >= c.slo.attainment,
            }
        })
        .collect();
    (met_total, per_class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RagoError;
    use crate::placement::PlacementPlan;
    use crate::profiler::StageProfiler;
    use crate::scenario::{evaluate_scenario, Evaluation, FleetEvaluation, Scenario};
    use crate::schedule::Schedule;
    use crate::schedule::{BatchingPolicy, ResourceAllocation};
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::{FleetConfig, RouterPolicy, SequenceProfile, Stage};
    use rago_serving_sim::autoscaler::AutoscalerPolicy;
    use rago_serving_sim::faults::ScaleDriver;
    use rago_serving_sim::{MetricsMode, StreamingConfig};
    use rago_workloads::{ArrivalProcess, MixTraceSpec, RequestClass, Trace, TraceSpec};

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

    fn two_class_mix() -> WorkloadMix {
        WorkloadMix::new(vec![
            RequestClass::new(
                "chat",
                3.0,
                SequenceProfile::paper_default().with_decode_tokens(32),
                0.1,
                SloTarget::new(2.0, 0.05),
            ),
            RequestClass::new(
                "report",
                1.0,
                SequenceProfile::paper_default().with_decode_tokens(128),
                0.1,
                SloTarget::new(10.0, 0.2),
            ),
        ])
    }

    /// A mix-scored scenario of `fleet`, autoscaled by `policy` when set.
    fn mix_eval(
        mix: &WorkloadMix,
        trace: &Trace,
        fleet: &FleetConfig,
        policy: Option<AutoscalerPolicy>,
        mode: MetricsMode,
    ) -> Result<FleetEvaluation, RagoError> {
        let mut scenario =
            Scenario::new(case1_schedule(), fleet.clone(), trace, mix.clone()).with_mode(mode);
        if let Some(policy) = policy {
            scenario = scenario.with_driver(ScaleDriver::Reactive(policy));
        }
        evaluate_scenario(&case1_profiler(), &scenario).map(Evaluation::into_fleet)
    }

    /// The acceptance-criterion equivalence: one class, constant rate, no
    /// autoscaler — scoring against a one-class mix reproduces scoring
    /// against its SLO bit-exactly.
    #[test]
    fn timevarying_matches_fleet_dynamic_bit_exactly() {
        let slo = SloTarget::new(1.0, 0.1);
        let profile = SequenceProfile::paper_default().with_decode_tokens(32);
        let trace = TraceSpec {
            num_requests: 90,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            length_jitter: 0.2,
            seed: 13,
        }
        .generate();
        let fleet = FleetConfig::new(3, RouterPolicy::LeastOutstanding);
        let mix = WorkloadMix::single("all", profile, 0.2, slo);
        let tv = mix_eval(&mix, &trace, &fleet, None, MetricsMode::Exact).unwrap();
        let scenario = Scenario::new(case1_schedule(), fleet, &trace, slo);
        let dynamic = evaluate_scenario(&case1_profiler(), &scenario)
            .unwrap()
            .into_fleet();
        assert_eq!(tv.report, dynamic.report);
        assert_eq!(tv.attainment, dynamic.attainment);
        assert_eq!(tv.goodput_rps, dynamic.goodput_rps);
        assert_eq!(tv.replica_seconds, dynamic.replica_seconds);
        assert!(tv.scaling.is_none());
        assert!(dynamic.per_class.is_empty());
        assert_eq!(tv.per_class.len(), 1);
        assert_eq!(tv.per_class[0].offered, 90);
        assert_eq!(
            tv.replica_seconds,
            3.0 * tv.report.merged.metrics.makespan_s
        );
        assert!(tv.chip_seconds > tv.replica_seconds); // 16 XPUs per replica
    }

    #[test]
    fn tenants_are_scored_against_their_own_slos() {
        let mix = two_class_mix();
        let trace = MixTraceSpec {
            num_requests: 120,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
            seed: 7,
        }
        .generate();
        let fleet = FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        let tv = mix_eval(&mix, &trace, &fleet, None, MetricsMode::Exact).unwrap();
        assert_eq!(tv.per_class.len(), 2);
        let total: usize = tv.per_class.iter().map(|c| c.offered).sum();
        assert_eq!(total, 120);
        // The overall attainment is the request-weighted mix of the classes.
        let weighted: f64 = tv
            .per_class
            .iter()
            .map(|c| c.attainment * c.offered as f64)
            .sum::<f64>()
            / 120.0;
        assert!((weighted - tv.attainment).abs() < 1e-12);
        // Ranking is sorted by goodput.
        let ranked = tv.tenants_by_goodput();
        for pair in ranked.windows(2) {
            assert!(pair[0].goodput_rps >= pair[1].goodput_rps);
        }
        // meets_slo is the conjunction over classes.
        assert_eq!(tv.meets_slo, tv.per_class.iter().all(|c| c.meets_slo));
        // Without admission, priorities come from the mix.
        assert!(tv.per_class.iter().all(|c| c.priority == 0 && c.shed == 0));
    }

    #[test]
    fn autoscaled_diurnal_run_saves_chip_time_at_matching_attainment() {
        let profile = SequenceProfile::paper_default().with_decode_tokens(32);
        let slo = SloTarget::new(2.0, 0.1);
        let mix = WorkloadMix::single("all", profile, 0.1, slo);
        // One diurnal cycle: trough 5 rps, peak 120 rps over 30 s.
        let trace = MixTraceSpec {
            num_requests: 900,
            mix: mix.clone(),
            arrival: ArrivalProcess::Diurnal {
                base_rps: 5.0,
                peak_rps: 120.0,
                period_s: 30.0,
            },
            seed: 21,
        }
        .generate();
        let static_fleet = FleetConfig::new(4, RouterPolicy::LeastOutstanding);
        let fixed = mix_eval(&mix, &trace, &static_fleet, None, MetricsMode::Exact).unwrap();
        let policy = AutoscalerPolicy::new(1, 5)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(1.0)
            .with_scale_in_outstanding(2.0)
            .with_cooldown(2.0)
            .with_warmup(0.5);
        let elastic = mix_eval(
            &mix,
            &trace,
            &static_fleet,
            Some(policy),
            MetricsMode::Exact,
        )
        .unwrap();
        let scaling = elastic.scaling.as_ref().expect("autoscaled run");
        assert!(
            scaling.peak_provisioned > 1,
            "diurnal peak never scaled out"
        );
        assert!(!scaling.events.is_empty());
        assert!(
            elastic.replica_seconds < fixed.replica_seconds,
            "autoscaler paid {} replica-seconds vs static {}",
            elastic.replica_seconds,
            fixed.replica_seconds
        );
        assert!(
            elastic.attainment >= fixed.attainment - 0.05,
            "autoscaler attainment {} collapsed vs static {}",
            elastic.attainment,
            fixed.attainment
        );
    }

    /// Streaming mode reproduces the exact evaluation's tenant scores — SLO
    /// counting is exact online; only percentile estimates are
    /// histogram-quantized — for both static and autoscaled fleets.
    #[test]
    fn streaming_timevarying_matches_exact_tenant_scores() {
        use rago_schema::HistogramSpec;

        let mix = two_class_mix();
        let trace = MixTraceSpec {
            num_requests: 120,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
            seed: 7,
        }
        .generate();
        let fleet = FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        let mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));
        for policy in [
            None,
            Some(
                AutoscalerPolicy::new(1, 3)
                    .with_evaluation_interval(0.5)
                    .with_scale_out_queue_depth(1.0),
            ),
        ] {
            let exact = mix_eval(&mix, &trace, &fleet, policy, MetricsMode::Exact).unwrap();
            let streamed = mix_eval(&mix, &trace, &fleet, policy, mode.clone()).unwrap();
            assert_eq!(streamed.attainment, exact.attainment);
            assert_eq!(streamed.goodput_rps, exact.goodput_rps);
            assert_eq!(streamed.meets_slo, exact.meets_slo);
            assert_eq!(streamed.replica_seconds, exact.replica_seconds);
            assert_eq!(streamed.per_class, exact.per_class);
            assert!(streamed.report.merged.timelines.is_empty());
            assert!(streamed.report.merged.retained_bytes() < exact.report.merged.retained_bytes());
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mix = two_class_mix();
        let fleet = FleetConfig::new(1, RouterPolicy::RoundRobin);
        // Empty trace.
        let empty = Trace { requests: vec![] };
        assert!(matches!(
            mix_eval(&mix, &empty, &fleet, None, MetricsMode::Exact),
            Err(RagoError::InvalidConfig { .. })
        ));
        // A class tag outside the mix.
        let mut trace = MixTraceSpec {
            num_requests: 10,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            seed: 1,
        }
        .generate();
        trace.requests[3].class = 9;
        assert!(matches!(
            mix_eval(&mix, &trace, &fleet, None, MetricsMode::Exact),
            Err(RagoError::InvalidConfig { .. })
        ));
        // A split fleet cannot score per class: it is rejected, not run as
        // five collocated replicas.
        let trace = MixTraceSpec {
            num_requests: 10,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            seed: 1,
        }
        .generate();
        let split = FleetConfig::split(2, 3, RouterPolicy::RoundRobin);
        assert!(matches!(
            mix_eval(&mix, &trace, &split, None, MetricsMode::Exact),
            Err(RagoError::InvalidConfig { .. })
        ));
    }
}
