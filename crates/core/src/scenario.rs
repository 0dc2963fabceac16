//! One fleet scenario, one evaluator.
//!
//! A [`Scenario`] is every axis of a fleet evaluation in one value: the
//! schedule (or one schedule per replica), the [`FleetConfig`] with its
//! pools, the trace and how it is scored ([`Scoring`]: one SLO, or each
//! tenant class against its own from a [`WorkloadMix`]), an optional
//! [`CacheConfig`], the [`ScaleDriver`], the flat fault schedule with its
//! crash policy and admission control, per-pool crashes, the recovery SLO
//! and window, and the [`MetricsMode`]. [`evaluate_scenario`] runs any
//! valid combination and [`Scenario::validate`] is the one place user input
//! is checked, so no combination reaches an engine `assert!`.
//!
//! **Dispatch.** A `[Prefill, Decode]` pool fleet runs on
//! [`rago_serving_sim::pools::DisaggEngine`] and returns
//! [`Evaluation::Disaggregated`]; every other fleet runs on
//! [`ChaosEngine`] behind the pool's router (a single declared
//! `[Monolithic]` pool's router, else `fleet.router`) and returns
//! [`Evaluation::Collocated`]. The pool engine has no streaming mode, no
//! autoscaler, no flat faults or admission, and scores one SLO, so
//! `validate` rejects those combinations on a split fleet, and rejects pool
//! crashes on a flat one.
//!
//! **Scoring.** Collocated runs score *offered* traffic: shed and failed
//! requests count as misses. Without admission and faults nothing is shed
//! or lost, and the scores equal completion-based scoring bit for bit.

use crate::capacity::MAX_PLANNER_REPLICAS;
use crate::disagg::DisaggEvaluation;
use crate::dynamic::{
    check_mode_slo, pipeline_spec_cached, record_profiler_memo, reject_empty_trace,
};
use crate::error::RagoError;
use crate::profiler::StageProfiler;
use crate::schedule::Schedule;
use crate::timevarying::{ClassOutcome, ScalingSummary};
use rago_cache::CacheConfig;
use rago_schema::{FleetConfig, PoolRole, RouterPolicy, SloTarget};
use rago_serving_sim::cluster::FleetReport;
use rago_serving_sim::engine::EngineRequest;
use rago_serving_sim::faults::{
    AdmissionConfig, AttainmentWindow, ChaosEngine, CrashPolicy, FaultReport, FaultSchedule,
    RecoveryMetrics, ScaleDriver,
};
use rago_serving_sim::pools::PoolCrash;
use rago_serving_sim::{MetricsMode, StreamingConfig};
use rago_telemetry::{NullRecorder, Recorder, TelemetryConfig};
use rago_workloads::{Trace, WorkloadMix};
use serde::{Deserialize, Serialize};

/// What a scenario's requests are scored against.
#[derive(Debug, Clone, PartialEq)]
pub enum Scoring {
    /// Every request against one SLO.
    Slo(SloTarget),
    /// Every request against its own class's SLO from the mix; the result
    /// carries one [`ClassOutcome`] per class.
    Mix(WorkloadMix),
}

impl From<SloTarget> for Scoring {
    fn from(slo: SloTarget) -> Self {
        Scoring::Slo(slo)
    }
}

impl From<WorkloadMix> for Scoring {
    fn from(mix: WorkloadMix) -> Self {
        Scoring::Mix(mix)
    }
}

/// One fleet evaluation's every input (see the module docs). Build one
/// with [`Scenario::new`] or [`Scenario::heterogeneous`] and the `with_*`
/// setters; the fields are public, and [`Scenario::validate`] checks
/// whatever they hold.
///
/// # Examples
///
/// ```
/// use rago_core::{evaluate_scenario, Rago, Scenario, SearchOptions};
/// use rago_hardware::ClusterSpec;
/// use rago_schema::{presets, FleetConfig, RouterPolicy, SequenceProfile, SloTarget};
/// use rago_serving_sim::faults::{FaultEvent, FaultSchedule};
/// use rago_workloads::{ArrivalProcess, TraceSpec};
///
/// let rago = Rago::new(
///     presets::case1_hyperscale(presets::LlmSize::B8, 1),
///     ClusterSpec::paper_default(),
/// );
/// let best = rago.optimize(&SearchOptions::fast())?.max_qps_per_chip().unwrap().clone();
/// let trace = TraceSpec {
///     num_requests: 60,
///     profile: SequenceProfile::paper_default().with_decode_tokens(16),
///     arrival: ArrivalProcess::Poisson { rate_rps: 20.0 },
///     length_jitter: 0.1,
///     seed: 3,
/// }
/// .generate();
/// let fleet = FleetConfig::new(3, RouterPolicy::LeastOutstanding);
/// let scenario = Scenario::new(best.schedule, fleet, &trace, SloTarget::paper_default())
///     .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
///         replica: 0,
///         at_s: 1.0,
///         restart_delay_s: 0.5,
///     }]))
///     .with_recovery_window(0.5);
/// let eval = evaluate_scenario(rago.profiler(), &scenario)?.into_fleet();
/// assert_eq!(eval.fault.disruptions.len(), 1);
/// assert_eq!(eval.fault.completed + eval.fault.failed, 60);
/// # Ok::<(), rago_core::RagoError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario<'a> {
    /// One schedule every replica runs, or one schedule per replica of a
    /// static flat fleet.
    pub schedules: Vec<Schedule>,
    /// Replica count, router and pools.
    pub fleet: FleetConfig,
    /// The arrivals to serve.
    pub trace: &'a Trace,
    /// What the requests are scored against.
    pub scoring: Scoring,
    /// Per-replica caches (on the prefill pool of a split fleet), or `None`.
    pub cache: Option<CacheConfig>,
    /// How a flat fleet is sized over time. A static driver's count must
    /// equal `fleet.replicas`; reactive and predictive drivers own the count.
    pub driver: ScaleDriver,
    /// Crashes, stragglers and preemptions played against a flat fleet.
    pub faults: FaultSchedule,
    /// What happens to a dying flat replica's in-flight work.
    pub crash_policy: CrashPolicy,
    /// Admission control on a flat fleet, or `None` to admit everything. An
    /// empty priority table inherits the mix's class priorities.
    pub admission: Option<AdmissionConfig>,
    /// Per-pool crashes played against a split fleet.
    pub pool_crashes: Vec<PoolCrash>,
    /// The SLO recovery is measured against, or `None` for the scored SLO
    /// (the mix's class-0 SLO).
    pub recovery_slo: Option<SloTarget>,
    /// Window width of the attainment timeline and recovery metrics, in
    /// seconds (finite and positive).
    pub recovery_window_s: f64,
    /// Exact or streaming metrics. A streaming mode must name the scored
    /// SLO; under a mix the class SLOs are filled in automatically.
    pub mode: MetricsMode,
}

impl<'a> Scenario<'a> {
    /// `fleet` serving `trace` with every replica running `schedule`, scored
    /// against `scoring`: a static fleet, no cache, no faults, no admission,
    /// exact metrics and a half-second recovery window.
    pub fn new(
        schedule: Schedule,
        fleet: FleetConfig,
        trace: &'a Trace,
        scoring: impl Into<Scoring>,
    ) -> Self {
        Self::with_schedules(vec![schedule], fleet, trace, scoring.into())
    }

    /// A static flat fleet with one replica per schedule behind `router` —
    /// e.g. two Pareto-frontier schedules serving side by side.
    pub fn heterogeneous(
        schedules: Vec<Schedule>,
        router: RouterPolicy,
        trace: &'a Trace,
        scoring: impl Into<Scoring>,
    ) -> Self {
        let replicas = u32::try_from(schedules.len()).unwrap_or(u32::MAX);
        let fleet = FleetConfig::new(replicas, router);
        Self::with_schedules(schedules, fleet, trace, scoring.into())
    }

    fn with_schedules(
        schedules: Vec<Schedule>,
        fleet: FleetConfig,
        trace: &'a Trace,
        scoring: Scoring,
    ) -> Self {
        Self {
            schedules,
            driver: ScaleDriver::Static {
                replicas: fleet.replicas,
            },
            fleet,
            trace,
            scoring,
            cache: None,
            faults: FaultSchedule::empty(),
            crash_policy: CrashPolicy::default(),
            admission: None,
            pool_crashes: Vec::new(),
            recovery_slo: None,
            recovery_window_s: 0.5,
            mode: MetricsMode::Exact,
        }
    }

    /// Attaches per-replica caches.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the scale driver.
    #[must_use]
    pub fn with_driver(mut self, driver: ScaleDriver) -> Self {
        self.driver = driver;
        self
    }

    /// Sets the flat fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the crash policy.
    #[must_use]
    pub fn with_crash_policy(mut self, policy: CrashPolicy) -> Self {
        self.crash_policy = policy;
        self
    }

    /// Enables admission control.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Sets the per-pool crashes of a split fleet.
    #[must_use]
    pub fn with_pool_crashes(mut self, crashes: Vec<PoolCrash>) -> Self {
        self.pool_crashes = crashes;
        self
    }

    /// Sets the SLO recovery is measured against.
    #[must_use]
    pub fn with_recovery_slo(mut self, slo: SloTarget) -> Self {
        self.recovery_slo = Some(slo);
        self
    }

    /// Sets the recovery/timeline window width (checked by
    /// [`Self::validate`]).
    #[must_use]
    pub fn with_recovery_window(mut self, window_s: f64) -> Self {
        self.recovery_window_s = window_s;
        self
    }

    /// Sets the metrics mode.
    #[must_use]
    pub fn with_mode(mut self, mode: MetricsMode) -> Self {
        self.mode = mode;
        self
    }

    /// Checks every input [`evaluate_scenario`] would otherwise trip over,
    /// before any profiling or simulation.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] for: no schedule or an invalid
    /// one; an invalid fleet, or one above [`MAX_PLANNER_REPLICAS`]; an
    /// empty trace; an invalid scored SLO, or a streaming mode naming
    /// another; a class tag outside the mix or an invalid class SLO; an
    /// invalid recovery SLO, or a recovery window that is not finite and
    /// positive; negative or non-finite admission thresholds; a malformed
    /// driver (zero or more than [`MAX_PLANNER_REPLICAS`] replicas, a static
    /// count other than `fleet.replicas`, `min_replicas > max_replicas`,
    /// non-finite or negative policy timings and thresholds, an unordered
    /// plan); per-replica schedules on anything but a static flat fleet of
    /// that many replicas; a split fleet with a streaming mode, a non-static
    /// driver, flat faults, admission, a mix or per-replica schedules; pool
    /// crashes on a flat fleet, on the Monolithic pool, on a missing
    /// replica, or with a negative or non-finite time.
    pub fn validate(&self) -> Result<(), RagoError> {
        if self.schedules.is_empty() {
            return invalid("a fleet needs at least one schedule".into());
        }
        for schedule in &self.schedules {
            schedule.validate()?;
        }
        self.fleet
            .validate()
            .map_err(|e| RagoError::InvalidConfig {
                reason: e.to_string(),
            })?;
        if self.fleet.replicas > MAX_PLANNER_REPLICAS {
            return invalid(format!(
                "a fleet of {} replicas exceeds the bound of {MAX_PLANNER_REPLICAS}",
                self.fleet.replicas
            ));
        }
        reject_empty_trace(self.trace)?;
        match &self.scoring {
            Scoring::Slo(slo) => {
                check_slo("the scored SLO", slo)?;
                check_mode_slo(&self.mode, slo)?;
            }
            Scoring::Mix(mix) => {
                let num_classes = mix.num_classes() as u32;
                if let Some(bad) = self.trace.requests.iter().find(|r| r.class >= num_classes) {
                    return invalid(format!(
                        "request {} carries class tag {} but the mix has only {num_classes} classes",
                        bad.id, bad.class
                    ));
                }
                for class in &mix.classes {
                    check_slo(&format!("class `{}`", class.name), &class.slo)?;
                }
            }
        }
        if let Some(slo) = &self.recovery_slo {
            check_slo("the recovery SLO", slo)?;
        }
        if !(self.recovery_window_s.is_finite() && self.recovery_window_s > 0.0) {
            return invalid(format!(
                "the recovery window must be finite and positive, got {}",
                self.recovery_window_s
            ));
        }
        if let Some(a) = &self.admission {
            check_non_negative("the shed queue depth", a.shed_queue_depth)?;
            check_non_negative("the per-priority depth", a.depth_per_priority)?;
        }
        self.validate_driver()?;
        let static_fleet = matches!(self.driver, ScaleDriver::Static { .. });
        let per_replica = self.schedules.len() > 1;
        if per_replica && !(static_fleet && self.schedules.len() == self.fleet.replicas as usize) {
            return invalid(format!(
                "{} per-replica schedules need a static flat fleet of as many replicas",
                self.schedules.len()
            ));
        }
        let Some((prefill, decode)) = self.fleet.prefill_decode() else {
            if !self.pool_crashes.is_empty() {
                return invalid("pool crashes need a [Prefill, Decode] pool fleet".into());
            }
            return Ok(());
        };
        let unsupported = [
            (
                !matches!(self.mode, MetricsMode::Exact),
                "streaming metrics",
            ),
            (!static_fleet, "a non-static scale driver"),
            (!self.faults.is_empty(), "a flat fault schedule"),
            (self.admission.is_some(), "admission control"),
            (matches!(self.scoring, Scoring::Mix(_)), "per-class scoring"),
            (per_replica, "per-replica schedules"),
        ];
        if let Some((_, what)) = unsupported.iter().find(|(bad, _)| *bad) {
            return invalid(format!(
                "{what} is not supported on a disaggregated [Prefill, Decode] pool fleet"
            ));
        }
        for c in &self.pool_crashes {
            let pool_len = match c.pool {
                PoolRole::Prefill => prefill.replicas,
                PoolRole::Decode => decode.replicas,
                PoolRole::Monolithic => {
                    return invalid("pool crashes target the Prefill or Decode pool".into())
                }
            };
            if c.replica as u64 >= u64::from(pool_len) {
                return invalid(format!(
                    "crash at {:.3}s targets replica {} of a {}-replica {} pool",
                    c.at_s, c.replica, pool_len, c.pool
                ));
            }
            check_non_negative("a crash time", c.at_s)?;
            if let Some(d) = c.restart_delay_s {
                check_non_negative("a restart delay", d)?;
            }
        }
        Ok(())
    }

    fn validate_driver(&self) -> Result<(), RagoError> {
        let check_count = |what: &str, n: u32| {
            if n == 0 || n > MAX_PLANNER_REPLICAS {
                return invalid(format!(
                    "{what} must be between 1 and {MAX_PLANNER_REPLICAS} replicas, got {n}"
                ));
            }
            Ok(())
        };
        match &self.driver {
            ScaleDriver::Static { replicas } => {
                check_count("a static fleet", *replicas)?;
                if *replicas != self.fleet.replicas {
                    return invalid(format!(
                        "the static driver holds {replicas} replicas but the fleet declares {}",
                        self.fleet.replicas
                    ));
                }
            }
            ScaleDriver::Reactive(p) => {
                check_count("min_replicas", p.min_replicas)?;
                check_count("max_replicas", p.max_replicas)?;
                if p.min_replicas > p.max_replicas {
                    return invalid(format!(
                        "min_replicas {} exceeds max_replicas {}",
                        p.min_replicas, p.max_replicas
                    ));
                }
                if !(p.evaluation_interval_s.is_finite() && p.evaluation_interval_s > 0.0) {
                    return invalid(format!(
                        "the evaluation interval must be finite and positive, got {}",
                        p.evaluation_interval_s
                    ));
                }
                check_non_negative("the scale-out queue depth", p.scale_out_queue_depth)?;
                check_non_negative("the scale-in outstanding threshold", p.scale_in_outstanding)?;
                check_non_negative("the cooldown", p.cooldown_s)?;
                check_non_negative("the warm-up delay", p.warmup_s)?;
                if let Some(t) = &p.attainment_trigger {
                    if !(t.floor > 0.0 && t.floor <= 1.0) {
                        return invalid(format!(
                            "the attainment floor must be in (0, 1], got {}",
                            t.floor
                        ));
                    }
                    check_slo("the attainment trigger", &t.slo)?;
                }
            }
            ScaleDriver::Predictive(p) => {
                check_non_negative("the warm-up delay", p.warmup_s)?;
                check_count("the plan's initial size", p.plan.initial)?;
                for step in &p.plan.steps {
                    check_count("a plan step", step.replicas)?;
                    check_non_negative("a plan step time", step.at_s)?;
                }
                if !p.plan.steps.windows(2).all(|w| w[0].at_s < w[1].at_s) {
                    return invalid("plan step times must be strictly increasing".into());
                }
            }
        }
        Ok(())
    }
}

fn invalid(reason: String) -> Result<(), RagoError> {
    Err(RagoError::InvalidConfig { reason })
}

fn check_non_negative(what: &str, value: f64) -> Result<(), RagoError> {
    if !(value.is_finite() && value >= 0.0) {
        return invalid(format!(
            "{what} must be finite and non-negative, got {value}"
        ));
    }
    Ok(())
}

fn check_slo(what: &str, slo: &SloTarget) -> Result<(), RagoError> {
    slo.validate().map_err(|e| RagoError::InvalidConfig {
        reason: format!("{what}: {e}"),
    })
}

/// The outcome of one collocated-fleet evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetEvaluation {
    /// The merged fleet report: per-replica breakdowns, per-class metric
    /// rows in `report.merged.per_class`, imbalance stats.
    pub report: FleetReport,
    /// Fraction of all *offered* requests meeting their SLO (shed and
    /// failed requests count as misses).
    pub attainment: f64,
    /// Requests meeting their SLO per second of fleet serving duration.
    pub goodput_rps: f64,
    /// Whether attainment reaches the SLO's required fraction; under a mix,
    /// whether every class reaches its own and no request was lost.
    pub meets_slo: bool,
    /// Per-tenant outcomes by class id (empty under [`Scoring::Slo`]).
    pub per_class: Vec<ClassOutcome>,
    /// Scaling history, or `None` for a static fleet without faults.
    pub scaling: Option<ScalingSummary>,
    /// Fault-path accounting: injected, completed, shed, failed, retried,
    /// and the disruption log.
    pub fault: FaultReport,
    /// Windowed SLO-attainment timeline, for recovery plots. Empty for a
    /// static fleet without faults, and on streaming runs.
    pub timeline: Vec<AttainmentWindow>,
    /// Per-disruption recovery metrics (empty without disruptions, and on
    /// streaming runs).
    pub recovery: Vec<RecoveryMetrics>,
    /// Provisioned replicas integrated over time, in replica-seconds: for a
    /// static fleet without faults `replicas × makespan`, otherwise the
    /// chaos ledger (dead replicas stop accruing at their death).
    pub replica_seconds: f64,
    /// `replica_seconds ×` XPUs per replica (the mean over per-replica
    /// schedules) — the chip-time the deployment paid.
    pub chip_seconds: f64,
}

impl FleetEvaluation {
    /// The tenants ranked by goodput, best first (ties break toward the
    /// lower class id).
    pub fn tenants_by_goodput(&self) -> Vec<ClassOutcome> {
        let mut ranked = self.per_class.clone();
        ranked.sort_by(|a, b| {
            b.goodput_rps
                .total_cmp(&a.goodput_rps)
                .then(a.class.cmp(&b.class))
        });
        ranked
    }

    /// Chip-hours paid by the deployment.
    pub fn chip_hours(&self) -> f64 {
        self.chip_seconds / 3600.0
    }

    /// The worst per-disruption time-to-reattainment, or `None` when no
    /// disruption occurred or some disruption never recovered within the
    /// run (a non-recovery is *worse* than any finite time, so callers
    /// should treat `None` after a disruption as failure).
    pub fn worst_recovery_s(&self) -> Option<f64> {
        if self.recovery.is_empty() {
            return None;
        }
        self.recovery
            .iter()
            .map(|r| r.reattainment_s)
            .collect::<Option<Vec<f64>>>()
            .map(|times| times.into_iter().fold(0.0, f64::max))
    }
}

/// The outcome of [`evaluate_scenario`], by fleet shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Evaluation {
    /// A flat or single-`[Monolithic]`-pool fleet.
    Collocated(FleetEvaluation),
    /// A `[Prefill, Decode]` pool fleet.
    Disaggregated(DisaggEvaluation),
}

impl Evaluation {
    /// The disaggregated result.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] for a collocated result: the
    /// fleet was not a `[Prefill, Decode]` pool pair.
    pub fn into_disagg(self) -> Result<DisaggEvaluation, RagoError> {
        match self {
            Evaluation::Disaggregated(e) => Ok(e),
            Evaluation::Collocated(_) => Err(RagoError::InvalidConfig {
                reason: "disaggregated evaluation needs a [Prefill, Decode] pool pair".into(),
            }),
        }
    }

    /// The result in the collocated shape. A disaggregated run is flattened
    /// with [`rago_serving_sim::pools::DisaggReport::to_fleet_report`]
    /// (replicas renumbered prefill-first) and costed as a static fleet of
    /// all its replicas for the makespan.
    pub fn into_fleet(self) -> FleetEvaluation {
        match self {
            Evaluation::Collocated(e) => e,
            Evaluation::Disaggregated(e) => {
                let report = e.report.to_fleet_report();
                let metrics = &report.merged.metrics;
                let fault = FaultReport {
                    injected: metrics.requests,
                    completed: metrics.completed,
                    ..FaultReport::default()
                };
                let makespan = metrics.makespan_s;
                FleetEvaluation {
                    replica_seconds: report.per_replica.len() as f64 * makespan,
                    chip_seconds: f64::from(e.total_xpus) * makespan,
                    report,
                    attainment: e.attainment,
                    goodput_rps: e.goodput_rps,
                    meets_slo: e.meets_slo,
                    per_class: Vec::new(),
                    scaling: None,
                    fault,
                    timeline: Vec::new(),
                    recovery: Vec::new(),
                }
            }
        }
    }
}

/// Evaluates `scenario` (see the module docs). Exactly
/// [`evaluate_scenario_recorded`] with a [`NullRecorder`].
///
/// # Errors
///
/// [`Scenario::validate`]'s errors, plus [`RagoError::InvalidConfig`] for a
/// cache whose stage the schema lacks or a split of a schema without a
/// pre-decode stage, and [`RagoError::CostModel`] when a schedule cannot be
/// profiled.
pub fn evaluate_scenario(
    profiler: &StageProfiler,
    scenario: &Scenario<'_>,
) -> Result<Evaluation, RagoError> {
    evaluate_scenario_recorded(
        profiler,
        scenario,
        &TelemetryConfig::disabled(),
        &mut NullRecorder,
    )
}

/// [`evaluate_scenario`] recording a telemetry trace into `rec`: the run is
/// bit-identical for any recorder (with a [`NullRecorder`] the hooks
/// compile to nothing), and the profiler's memoization counters are
/// appended as Profile-lane counters after it. `telemetry` only sets the
/// derived gauge cadence. A split fleet traces prefill replicas on tracks
/// `0..P` and decode replicas on `P..P+D`.
///
/// # Errors
///
/// As [`evaluate_scenario`].
pub fn evaluate_scenario_recorded<R: Recorder>(
    profiler: &StageProfiler,
    scenario: &Scenario<'_>,
    telemetry: &TelemetryConfig,
    rec: &mut R,
) -> Result<Evaluation, RagoError> {
    scenario.validate()?;
    let eval = if scenario.fleet.is_disaggregated() {
        let Scoring::Slo(slo) = &scenario.scoring else {
            unreachable!("validate rejects per-class scoring on pool fleets")
        };
        let schedule = &scenario.schedules[0];
        let report = crate::disagg::run_disagg(
            profiler,
            schedule,
            &scenario.fleet,
            scenario.trace,
            scenario.cache.as_ref(),
            &scenario.pool_crashes,
            telemetry,
            rec,
        )?;
        Evaluation::Disaggregated(crate::disagg::score_disagg(report, schedule, slo))
    } else {
        Evaluation::Collocated(run_collocated(profiler, scenario, telemetry, rec)?)
    };
    let makespan_s = match &eval {
        Evaluation::Collocated(e) => e.report.merged.metrics.makespan_s,
        Evaluation::Disaggregated(e) => e.report.merged.metrics.makespan_s,
    };
    record_profiler_memo(profiler, rec, makespan_s);
    Ok(eval)
}

fn run_collocated<R: Recorder>(
    profiler: &StageProfiler,
    s: &Scenario<'_>,
    telemetry: &TelemetryConfig,
    rec: &mut R,
) -> Result<FleetEvaluation, RagoError> {
    let mut specs = s
        .schedules
        .iter()
        .map(|schedule| pipeline_spec_cached(profiler, schedule, s.cache.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;
    let router = match s.fleet.pools.as_slice() {
        [only] => only.router,
        _ => s.fleet.router,
    };
    let mut engine = if specs.len() == 1 {
        ChaosEngine::new(specs.remove(0), router, s.driver.clone())
    } else {
        ChaosEngine::heterogeneous(specs, router)
    }
    .with_telemetry(telemetry.clone())
    .with_faults(s.faults.clone())
    .with_crash_policy(s.crash_policy);

    // Under a mix, an admission table left empty inherits the class
    // priorities, and a streaming sink counts every class SLO online.
    let mut admission = s.admission.clone();
    let mut mode = s.mode.clone();
    if let Scoring::Mix(mix) = &s.scoring {
        if let Some(a) = admission.as_mut().filter(|a| a.class_priorities.is_empty()) {
            a.class_priorities = mix.classes.iter().map(|c| c.priority).collect();
        }
        if let MetricsMode::Streaming(config) = &s.mode {
            let mut cfg = StreamingConfig::new(config.spec);
            cfg.slo = config.slo;
            for (i, class) in mix.classes.iter().enumerate() {
                cfg = cfg.with_class_slo(i as u32, class.slo);
            }
            mode = MetricsMode::Streaming(cfg);
        }
    }
    if let Some(a) = admission.clone() {
        engine = engine.with_admission(a);
    }
    let requests = s.trace.requests.iter().map(EngineRequest::from).collect();
    let chaos = engine.run_traced(requests, &mode, rec);

    let merged = &chaos.fleet.merged;
    let (met, per_class, scored_slo) = match &s.scoring {
        Scoring::Slo(slo) => (merged.slo_met(slo), Vec::new(), *slo),
        Scoring::Mix(mix) => {
            let (met, per_class) =
                crate::timevarying::score_classes(merged, &chaos.fault, mix, admission.as_ref());
            (met, per_class, mix.classes[0].slo)
        }
    };
    let injected = chaos.fault.injected;
    let attainment = if injected == 0 {
        1.0
    } else {
        met as f64 / injected as f64
    };
    let serving_duration = merged.metrics.serving_duration_s;
    let goodput_rps = if serving_duration > 0.0 {
        met as f64 / serving_duration
    } else {
        0.0
    };
    let meets_slo = match &s.scoring {
        Scoring::Slo(slo) => attainment >= slo.attainment,
        Scoring::Mix(_) => per_class.iter().all(|c| c.meets_slo) && chaos.fault.failed == 0,
    };

    // A static fleet without faults holds every replica for the whole run:
    // nothing to scale, nothing to recover from.
    let fixed = matches!(s.driver, ScaleDriver::Static { .. }) && s.faults.is_empty();
    let slo = s.recovery_slo.unwrap_or(scored_slo);
    let timeline = if fixed {
        Vec::new()
    } else {
        chaos.attainment_timeline(&slo, s.recovery_window_s)
    };
    let recovery = if chaos.fault.disruptions.is_empty() {
        Vec::new()
    } else {
        chaos.recovery(&slo, s.recovery_window_s)
    };
    let replica_seconds = if fixed {
        f64::from(s.fleet.replicas) * merged.metrics.makespan_s
    } else {
        chaos.replica_seconds
    };
    let xpus: u32 = s.schedules.iter().map(|x| x.allocation.total_xpus()).sum();
    let chip_seconds = replica_seconds * (f64::from(xpus) / s.schedules.len() as f64);
    let mean_provisioned = chaos.mean_provisioned();
    let scaling = (!fixed).then_some(ScalingSummary {
        peak_provisioned: chaos.peak_provisioned,
        min_provisioned: chaos.min_provisioned,
        mean_provisioned,
        events: chaos.events,
        lifetimes: chaos.lifetimes,
    });
    Ok(FleetEvaluation {
        report: chaos.fleet,
        attainment,
        goodput_rps,
        meets_slo,
        per_class,
        scaling,
        fault: chaos.fault,
        timeline,
        recovery,
        replica_seconds,
        chip_seconds,
    })
}
