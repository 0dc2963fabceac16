//! Crash a replica at the diurnal peak and watch the fleet recover —
//! reactive versus predictive scaling, side by side.
//!
//! The walkthrough:
//!
//! 1. search the Case I scheduling space and take the best QPS/chip
//!    schedule off the Pareto frontier;
//! 2. sample one diurnal cycle of traffic and schedule a replica **crash
//!    at the peak** (with a cold restart a few seconds later);
//! 3. serve the faulted trace twice — once with a **reactive**
//!    autoscaler that discovers the loss through queue build-up, once
//!    with a **predictive** plan derived from the known rate profile
//!    (`plan_capacity_profile` → `scaling_plan_from_profile`);
//! 4. print a plot-ready windowed attainment timeline for both runs plus
//!    the recovery metrics (time back to SLO attainment, goodput-dip
//!    area).
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```

use rago::core::faulted::scaling_plan_from_profile;
use rago::core::{CapacityOptions, Rago, Scenario, SearchOptions};
use rago::hardware::ClusterSpec;
use rago::schema::{presets, FleetConfig, RouterPolicy, SequenceProfile, SloTarget};
use rago::serving_sim::autoscaler::AutoscalerPolicy;
use rago::serving_sim::faults::{FaultEvent, FaultSchedule, PredictivePolicy, ScaleDriver};
use rago::workloads::{ArrivalProcess, MixTraceSpec, RateSegment, WorkloadMix};

fn main() {
    let schema = presets::case1_hyperscale(presets::LlmSize::B8, 1);
    let rago = Rago::new(schema, ClusterSpec::paper_default());

    // Step 1: the schedule under test.
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("the fast grid has feasible schedules");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    let static_qps = best.performance.qps;
    println!("schedule under test: {}", best.schedule.describe());

    // Step 2: one diurnal cycle, and a crash right at its peak.
    let slo = SloTarget::new(2.0, 0.1);
    let profile = SequenceProfile::paper_default().with_decode_tokens(32);
    let mix = WorkloadMix::single("all", profile, 0.1, slo);
    let (base_rps, peak_rps, period_s) = (0.3 * static_qps, 2.2 * static_qps, 24.0);
    let trace = MixTraceSpec {
        num_requests: (0.5 * (base_rps + peak_rps) * period_s).ceil() as usize,
        mix: mix.clone(),
        arrival: ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        },
        seed: 41,
    }
    .generate();
    let crash_at_s = period_s / 2.0; // the sinusoid's peak
    let restart_delay_s = period_s / 8.0;
    let faults = FaultSchedule::new(vec![FaultEvent::Crash {
        replica: 0,
        at_s: crash_at_s,
        restart_delay_s,
    }]);
    println!(
        "diurnal trace: {} requests, trough {base_rps:.0} rps -> peak {peak_rps:.0} rps; \
         replica 0 crashes at t = {crash_at_s:.0} s (restart after {restart_delay_s:.0} s)",
        trace.requests.len()
    );

    // Step 3a: size the fleet from the known rate profile and feed the
    // schedule forward as a predictive plan (led by the warm-up time).
    let warmup_s = 0.5;
    let capacity = CapacityOptions {
        max_replicas: 6,
        num_requests: (peak_rps * 4.0).ceil() as usize,
        profile,
        ..CapacityOptions::default()
    };
    let quarter = period_s / 4.0;
    let mid_rps = 0.5 * (base_rps + peak_rps);
    let segments = [
        RateSegment::new(quarter, base_rps),
        RateSegment::new(quarter, mid_rps),
        RateSegment::new(quarter, peak_rps),
        RateSegment::new(quarter, mid_rps),
    ];
    let planned = rago
        .plan_capacity_profile(&best.schedule, &slo, &segments, &capacity)
        .expect("every segment is plannable");
    let plan = scaling_plan_from_profile(&planned, warmup_s);
    let max_replicas = planned.peak_replicas.max(1);
    println!(
        "capacity profile: peak {} replicas; predictive plan starts at {} with {} step(s)",
        planned.peak_replicas,
        plan.initial,
        plan.steps.len()
    );

    // Step 3b: the two drivers, identical trace and fault schedule.
    let window_s = period_s / 48.0;
    let reactive_policy = AutoscalerPolicy::new(1, max_replicas)
        .with_evaluation_interval(0.25)
        .with_scale_out_queue_depth(2.0)
        .with_scale_in_outstanding(10.0)
        .with_cooldown(1.0)
        .with_warmup(warmup_s);
    // The driver owns the replica count; the fleet supplies the router.
    let fleet = FleetConfig::new(1, RouterPolicy::LeastOutstanding);
    let run = |driver: ScaleDriver| {
        let scenario = Scenario::new(best.schedule.clone(), fleet.clone(), &trace, mix.clone())
            .with_driver(driver)
            .with_faults(faults.clone())
            .with_recovery_slo(slo)
            .with_recovery_window(window_s);
        rago.evaluate_scenario(&scenario)
            .expect("the faulted run succeeds")
            .into_fleet()
    };
    let reactive = run(ScaleDriver::Reactive(reactive_policy));
    let predictive = run(ScaleDriver::Predictive(PredictivePolicy::new(
        plan, warmup_s,
    )));

    // Step 4: the plot-ready recovery timeline — windowed attainment for
    // both runs on one time axis (paste into any plotting tool).
    println!("\n# t_start_s  reactive_attainment  predictive_attainment");
    for (r, p) in reactive.timeline.iter().zip(&predictive.timeline) {
        let marker = if (r.start_s..r.end_s).contains(&crash_at_s) {
            "  <- crash"
        } else {
            ""
        };
        println!(
            "{:>9.2}  {:>19.3}  {:>21.3}{marker}",
            r.start_s, r.attainment, p.attainment
        );
    }

    for (name, eval) in [("reactive", &reactive), ("predictive", &predictive)] {
        println!(
            "\n{name}: offered attainment {:.3}, chip-hours {:.3}, \
             {} retried, {} shed, {} failed",
            eval.attainment,
            eval.chip_hours(),
            eval.fault.retried,
            eval.fault.shed,
            eval.fault.failed
        );
        for r in &eval.recovery {
            match r.reattainment_s {
                Some(t) => println!(
                    "  recovery from the t={:.0}s crash: back above the SLO floor in {t:.2} s \
                     (goodput dip area {:.3})",
                    r.fault_s, r.dip_area
                ),
                None => println!(
                    "  recovery from the t={:.0}s crash: never re-attained within the run \
                     (dip area {:.3})",
                    r.fault_s, r.dip_area
                ),
            }
        }
    }
    println!(
        "\npredictive vs reactive: attainment {:.3} vs {:.3}, chip-hours {:.3} vs {:.3}",
        predictive.attainment,
        reactive.attainment,
        predictive.chip_hours(),
        reactive.chip_hours()
    );
}
