//! The four benchmark workloads. Each is built from a seed, runs one
//! operation sequence through the library's public API, checks the
//! outputs, and digests the *simulated* results so two builds can be shown
//! to produce bit-identical outputs.
//!
//! When a [`Layers`] map is passed (the traced run), an operation also
//! records per-layer numbers, and runs its extra layer probes *after* its
//! root span closes, so the root span times exactly the untraced
//! operation.

use std::collections::{BTreeMap, HashMap};

use rago_core::dynamic::evaluate_schedule_dynamic_with;
use rago_core::schedule::Schedule;
use rago_core::{CapacityOptions, ParetoFrontier, Rago, SearchOptions, StochasticConfig};
use rago_hardware::ClusterSpec;
use rago_schema::presets::{self, LlmSize};
use rago_schema::{
    FleetConfig, HistogramSpec, KvTransferModel, RagSchema, RouterPolicy, SequenceProfile,
    SloTarget,
};
use rago_serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago_serving_sim::faults::{
    AdmissionConfig, ChaosEngine, FaultEvent, FaultSchedule, PlanStep, PredictivePolicy,
    ScaleDriver, ScalingPlan,
};
use rago_serving_sim::{MetricsMode, StreamingConfig};
use rago_telemetry::TelemetryConfig;
use rago_telemetry::{export_chrome_trace, export_jsonl, validate_json, validate_jsonl};
use rago_workloads::{ArrivalProcess, MixTraceSpec, RequestClass, Trace, TraceSpec, WorkloadMix};

use crate::spans::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["plan_fleet", "search_rank", "stream_long", "chaos_trace"];

/// Per-layer numbers of one traced operation, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Full-size inputs for the timed operations, or reduced ones for the
/// untimed warm-up that set-up runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Warmup,
}

impl Scale {
    fn pick<T>(self, full: T, warmup: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Warmup => warmup,
        }
    }
}

/// Simulated work done by the DES calls of one operation, and the host
/// seconds those calls took.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTally {
    pub requests: u64,
    pub events: u64,
    pub host_s: f64,
}

impl SimTally {
    fn add(&mut self, requests: usize, events: u64, host_s: f64) {
        self.requests += requests as u64;
        self.events += events;
        self.host_s += host_s;
    }
}

/// The result of one operation: failed output checks (empty when all
/// pass), the digest of its simulated outputs, and its DES tally.
#[derive(Debug, Default)]
pub struct Outcome {
    pub failures: Vec<String>,
    pub digest: u64,
    pub sim: SimTally,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// FNV-1a over the bit patterns of simulated outputs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
    fn u(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    fn f(&mut self, v: f64) -> &mut Self {
        self.u(v.to_bits())
    }
    fn frontier(&mut self, frontier: &ParetoFrontier) -> &mut Self {
        self.u(frontier.evaluated_schedules as u64);
        for p in &frontier.points {
            self.bytes(p.schedule.describe().as_bytes())
                .f(p.performance.ttft_s)
                .f(p.performance.qps_per_chip);
        }
        self
    }
}

/// Derives an independent input seed per use from the workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// The case-1 optimizer with its best QPS/chip schedule and that
/// schedule's static QPS — the schedule the fleet and streaming workloads
/// serve.
fn case1_best() -> Result<(Rago, Schedule, f64), String> {
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        ClusterSpec::paper_default(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .map_err(|e| err("case-1 search", e))?;
    let best = frontier
        .max_qps_per_chip()
        .ok_or("case-1 frontier is empty")?
        .clone();
    Ok((rago, best.schedule, best.performance.qps))
}

/// One built workload: its inputs, ready to run.
pub trait Workload {
    /// Runs the operation sequence once. `Err` means a library call
    /// returned an error; failed output checks land in the outcome.
    fn run(&self, tr: &mut Tracer, layers: Option<&mut Layers>) -> Result<Outcome, String>;

    /// The input sizes, as a JSON object.
    fn sizes(&self) -> String;
}

/// Builds workload `name`'s inputs from `seed`.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    threads: usize,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "plan_fleet" => Box::new(PlanFleet::build(seed, scale)?),
        "search_rank" => Box::new(SearchRank::build(seed, scale, threads)),
        "stream_long" => Box::new(StreamLong::build(seed, scale)?),
        "chaos_trace" => Box::new(ChaosTrace::build(seed, scale)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

// ---------------------------------------------------------------- plan_fleet

/// `Rago::plan_capacity` sized for about 40 replicas, then
/// `plan_capacity_pools` at a smaller rate; both plans re-checked by
/// evaluating the planned fleet and the next-smaller one.
pub struct PlanFleet {
    rago: Rago,
    schedule: Schedule,
    slo: SloTarget,
    fleet_qps: f64,
    fleet_options: CapacityOptions,
    pools_qps: f64,
    pools_options: CapacityOptions,
    transfer: KvTransferModel,
}

impl PlanFleet {
    fn build(seed: u64, scale: Scale) -> Result<Self, String> {
        let (rago, schedule, static_qps) = case1_best()?;
        let options = |num_requests: usize, stream: u64| CapacityOptions {
            max_replicas: 64,
            router: RouterPolicy::LeastOutstanding,
            num_requests,
            seed: derive(seed, stream),
            ..CapacityOptions::default()
        };
        Ok(Self {
            rago,
            schedule,
            slo: SloTarget::paper_default(),
            fleet_qps: scale.pick(50.0, 10.0) * static_qps,
            fleet_options: options(scale.pick(40_000, 4_000), 1),
            pools_qps: scale.pick(4.0, 2.0) * static_qps,
            pools_options: options(scale.pick(6_000, 1_000), 2),
            transfer: KvTransferModel::zero(),
        })
    }

    /// The sizing trace the planners generate internally, rebuilt from the
    /// same options so the plans can be re-checked on it.
    fn sizing_trace(qps: f64, options: &CapacityOptions) -> Trace {
        TraceSpec {
            num_requests: options.num_requests,
            profile: options.profile,
            arrival: ArrivalProcess::Poisson { rate_rps: qps },
            length_jitter: options.length_jitter,
            seed: options.seed,
        }
        .generate()
    }
}

impl Workload for PlanFleet {
    fn run(&self, tr: &mut Tracer, layers: Option<&mut Layers>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut d = Digest::new();
        let router = RouterPolicy::LeastOutstanding;
        tr.enter("bench.plan_fleet");

        let (plan, plan_s) = tr.time("capacity.plan", || {
            self.rago.plan_capacity(
                &self.schedule,
                &self.slo,
                self.fleet_qps,
                &self.fleet_options,
            )
        });
        let plan = plan.map_err(|e| err("plan_capacity", e))?;
        d.u(u64::from(plan.replicas))
            .f(plan.attainment)
            .f(plan.goodput_rps);
        let (trace, _) = tr.time("workloads.generate", || {
            Self::sizing_trace(self.fleet_qps, &self.fleet_options)
        });
        let fleet = |replicas: u32| FleetConfig::new(replicas, router);
        let (at, fleet_run_s) = tr.time("fleet.run", || {
            self.rago
                .evaluate_fleet(&self.schedule, &fleet(plan.replicas), &trace, &self.slo)
        });
        let at = at.map_err(|e| err("evaluate_fleet at the plan", e))?;
        let m = &at.report.merged.metrics;
        out.sim.add(m.requests, m.events_processed, fleet_run_s);
        out.check(at.meets_slo && at.attainment == plan.attainment, || {
            format!(
                "the planned {} replicas do not reproduce the plan's attainment {} (got {})",
                plan.replicas, plan.attainment, at.attainment
            )
        });
        if plan.replicas > 1 {
            let (below, s) = tr.time("fleet.run", || {
                self.rago.evaluate_fleet(
                    &self.schedule,
                    &fleet(plan.replicas - 1),
                    &trace,
                    &self.slo,
                )
            });
            let below = below.map_err(|e| err("evaluate_fleet below the plan", e))?;
            let m = &below.report.merged.metrics;
            out.sim.add(m.requests, m.events_processed, s);
            out.check(!below.meets_slo, || {
                format!("{} replicas already meet the SLO", plan.replicas - 1)
            });
            d.f(below.attainment);
        }

        let (pools, pools_s) = tr.time("disagg.plan", || {
            self.rago.plan_capacity_pools(
                &self.schedule,
                &self.slo,
                self.pools_qps,
                &self.transfer,
                &self.pools_options,
            )
        });
        let pools = pools.map_err(|e| err("plan_capacity_pools", e))?;
        d.u(u64::from(pools.prefill_replicas))
            .u(u64::from(pools.decode_replicas))
            .f(pools.attainment)
            .f(pools.goodput_rps);
        let (pool_trace, _) = tr.time("workloads.generate", || {
            Self::sizing_trace(self.pools_qps, &self.pools_options)
        });
        let split = |p: u32, d: u32| FleetConfig::split(p, d, router).with_transfer(self.transfer);
        let (p, dd) = (pools.prefill_replicas, pools.decode_replicas);
        let (at_split, s) = tr.time("disagg.run", || {
            self.rago
                .evaluate_fleet_disagg(&self.schedule, &split(p, dd), &pool_trace, &self.slo)
        });
        let at_split = at_split.map_err(|e| err("evaluate_fleet_disagg at the plan", e))?;
        let m = &at_split.report.merged.metrics;
        out.sim.add(m.requests, m.events_processed, s);
        out.check(
            at_split.meets_slo && at_split.attainment == pools.attainment,
            || format!("the planned ({p}, {dd}) split does not reproduce the plan's attainment"),
        );
        if dd > 1 {
            let (below, s) = tr.time("disagg.run", || {
                self.rago.evaluate_fleet_disagg(
                    &self.schedule,
                    &split(p, dd - 1),
                    &pool_trace,
                    &self.slo,
                )
            });
            let below = below.map_err(|e| err("evaluate_fleet_disagg below the plan", e))?;
            let m = &below.report.merged.metrics;
            out.sim.add(m.requests, m.events_processed, s);
            out.check(!below.meets_slo, || {
                format!("the ({p}, {}) split already meets the SLO", dd - 1)
            });
            d.f(below.attainment);
        }
        tr.exit();
        out.digest = d.0;

        if let Some(layers) = layers {
            // Standalone replays of each replica's routed requests: what
            // the replicas cost on their own, so the rest of the fleet run
            // is the fleet layer's own time.
            let replica_of: HashMap<u64, usize> = at.report.assignments.iter().copied().collect();
            let mut routed: Vec<Vec<rago_workloads::Request>> =
                vec![Vec::new(); at.report.per_replica.len()];
            for r in &trace.requests {
                routed[replica_of[&r.id]].push(*r);
            }
            let mut replay_s = 0.0;
            for (i, requests) in routed.into_iter().enumerate() {
                if requests.is_empty() {
                    continue;
                }
                let sub = Trace { requests };
                let (replay, s) = tr.time("fleet.replay", || {
                    self.rago.evaluate_dynamic(&self.schedule, &sub, &self.slo)
                });
                let replay = replay.map_err(|e| err("standalone replay", e))?;
                replay_s += s;
                let fleet_row = &at.report.per_replica[i].report.metrics;
                out.check(replay.report.metrics == *fleet_row, || {
                    format!("replica {i}'s standalone replay differs from its fleet row")
                });
            }
            layers.insert("capacity.plan_s", plan_s);
            layers.insert("capacity.replicas", f64::from(plan.replicas));
            layers.insert("disagg.plan_s", pools_s);
            layers.insert("disagg.prefill_replicas", f64::from(p));
            layers.insert("disagg.decode_replicas", f64::from(dd));
            layers.insert("fleet.run_s", fleet_run_s);
            layers.insert("fleet.replay_sum_s", replay_s);
            layers.insert("fleet.self_s", fleet_run_s - replay_s);
            layers.insert("fleet.self_share", (fleet_run_s - replay_s) / fleet_run_s);
            layers.insert("fleet.replicas", f64::from(plan.replicas));
            layers.insert(
                "fleet.imbalance_cv",
                at.report.imbalance.coefficient_of_variation,
            );
        }
        Ok(out)
    }

    fn sizes(&self) -> String {
        format!(
            "{{\"fleet_requests\":{},\"fleet_qps\":{:.3},\"max_replicas\":{},\
             \"pools_requests\":{},\"pools_qps\":{:.3}}}",
            self.fleet_options.num_requests,
            self.fleet_qps,
            self.fleet_options.max_replicas,
            self.pools_options.num_requests,
            self.pools_qps
        )
    }
}

// --------------------------------------------------------------- search_rank

/// Cold exhaustive searches on case 3 (iterative) and case 4 (rewriter +
/// reranker), a seeded stochastic search on case 4 that must recover the
/// exhaustive frontier, and a goodput ranking of both frontiers.
pub struct SearchRank {
    case3: RagSchema,
    case4: RagSchema,
    cluster: ClusterSpec,
    grid3: SearchOptions,
    grid4: SearchOptions,
    case3_candidates: usize,
    case4_candidates: usize,
    stochastic: StochasticConfig,
    rank_requests: usize,
    rank_seed: u64,
    slo: SloTarget,
}

impl SearchRank {
    fn build(seed: u64, scale: Scale, threads: usize) -> Self {
        let cluster = ClusterSpec::paper_default();
        let case3 = presets::case3_iterative(LlmSize::B8, 4);
        let case4 = presets::case4_rewriter_reranker(LlmSize::B8);
        let grid3 = SearchOptions {
            xpu_steps: scale.pick(vec![4, 8, 16, 32, 64], vec![4, 16, 64]),
            server_steps: Vec::new(),
            predecode_batch_steps: scale.pick(vec![1, 4, 16, 64], vec![1, 16]),
            decode_batch_steps: scale.pick(vec![64, 256, 1024], vec![64, 256]),
            iterative_batch_steps: scale.pick(vec![4, 16, 64], vec![4, 16]),
            placements: None,
        };
        let grid4 = SearchOptions {
            xpu_steps: scale.pick(vec![4, 16, 64], vec![16, 64]),
            server_steps: Vec::new(),
            predecode_batch_steps: scale.pick(vec![1, 8, 32], vec![8]),
            decode_batch_steps: scale.pick(vec![64, 256], vec![256]),
            iterative_batch_steps: vec![8],
            placements: None,
        };
        let probe = |schema: &RagSchema, grid: &SearchOptions| {
            Rago::new(schema.clone(), cluster.clone())
                .schedule_iter(grid)
                .count()
        };
        let case3_candidates = probe(&case3, &grid3);
        let case4_candidates = probe(&case4, &grid4);
        // A budget above the size of the sampled index space lets the
        // stochastic search exhaust it, so its frontier must equal the
        // exhaustive one.
        let space = Rago::new(case4.clone(), cluster.clone()).schedule_space(&grid4);
        let stochastic = StochasticConfig::default()
            .with_seed(derive(seed, 3))
            .with_workers(threads)
            .with_budget(
                usize::try_from(space.size())
                    .unwrap_or(usize::MAX)
                    .saturating_add(1),
            );
        Self {
            case3,
            case4,
            cluster,
            grid3,
            grid4,
            case3_candidates,
            case4_candidates,
            stochastic,
            rank_requests: scale.pick(8_000, 800),
            rank_seed: derive(seed, 4),
            slo: SloTarget::paper_default(),
        }
    }

    fn rank_trace(&self) -> Trace {
        TraceSpec {
            num_requests: self.rank_requests,
            profile: SequenceProfile::paper_default().with_decode_tokens(64),
            arrival: ArrivalProcess::Poisson { rate_rps: 20.0 },
            length_jitter: 0.2,
            seed: self.rank_seed,
        }
        .generate()
    }
}

impl Workload for SearchRank {
    fn run(&self, tr: &mut Tracer, layers: Option<&mut Layers>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut d = Digest::new();
        tr.enter("bench.search_rank");

        let rago3 = Rago::new(self.case3.clone(), self.cluster.clone());
        let (f3, cold3_s) = tr.time("search.optimize", || rago3.optimize(&self.grid3));
        let f3 = f3.map_err(|e| err("case-3 optimize", e))?;
        let rago4 = Rago::new(self.case4.clone(), self.cluster.clone());
        let (f4, cold4_s) = tr.time("search.optimize", || rago4.optimize(&self.grid4));
        let f4 = f4.map_err(|e| err("case-4 optimize", e))?;
        let (st, stochastic_s) = tr.time("search.stochastic", || {
            rago4.optimize_stochastic(&self.grid4, &self.stochastic)
        });
        let st = st.map_err(|e| err("case-4 stochastic search", e))?;
        out.check(st.exhausted && st.frontier.points == f4.points, || {
            format!(
                "the stochastic case-4 frontier ({} points, {} evaluations, exhausted: {}) \
                 differs from the exhaustive one ({} points of {} schedules)",
                st.frontier.len(),
                st.evaluations,
                st.exhausted,
                f4.len(),
                f4.evaluated_schedules
            )
        });
        d.frontier(&f3).frontier(&f4).frontier(&st.frontier);

        let (trace, _) = tr.time("workloads.generate", || self.rank_trace());
        let mut rank_s = 0.0;
        let mut rank_points = 0usize;
        for (case, rago, frontier) in [("case 3", &rago3, &f3), ("case 4", &rago4, &f4)] {
            out.check(!frontier.is_empty(), || {
                format!("the {case} frontier is empty")
            });
            out.check(
                frontier.iter().all(|p| {
                    p.performance.ttft_s.is_finite()
                        && p.performance.ttft_s > 0.0
                        && p.performance.qps_per_chip > 0.0
                }),
                || format!("the {case} frontier holds an infeasible point"),
            );
            let (ranked, s) = tr.time("rank.goodput", || {
                rago.rank_frontier_by_goodput(frontier, &trace, &self.slo)
            });
            rank_s += s;
            rank_points += ranked.len();
            out.check(ranked.len() == frontier.len(), || {
                format!(
                    "{} of {} {case} points ranked",
                    ranked.len(),
                    frontier.len()
                )
            });
            for (point, eval) in &ranked {
                let m = &eval.report.metrics;
                out.sim.add(m.requests, m.events_processed, 0.0);
                d.bytes(point.schedule.describe().as_bytes())
                    .f(eval.goodput_rps);
            }
        }
        out.sim.host_s += rank_s;
        tr.exit();
        out.digest = d.0;

        if let Some(layers) = layers {
            // Memo counters of the operation itself, before the warm
            // searches below add their all-hit lookups.
            let (hits3, misses3) = rago3.profiler().memo_stats();
            let (hits4, misses4) = rago4.profiler().memo_stats();
            let (hits, misses) = (hits3 + hits4, misses3 + misses4);
            let (_, enumerate_s) = tr.time("search.enumerate", || {
                rago3.schedule_iter(&self.grid3).count()
            });
            let (warm3, warm3_s) = tr.time("search.optimize_warm", || rago3.optimize(&self.grid3));
            let (warm4, warm4_s) = tr.time("search.optimize_warm", || rago4.optimize(&self.grid4));
            out.check(
                warm3.ok().as_ref() == Some(&f3) && warm4.ok().as_ref() == Some(&f4),
                || "a warm search returned a different frontier".into(),
            );
            let searched = f3.evaluated_schedules + f4.evaluated_schedules + st.evaluations;
            layers.insert(
                "profiler.distinct_profiles",
                (rago3.profiler().cached_profiles() + rago4.profiler().cached_profiles()) as f64,
            );
            layers.insert(
                "profiler.memo_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
            layers.insert(
                "profiler.cold_minus_warm_s",
                cold3_s + cold4_s - warm3_s - warm4_s,
            );
            layers.insert("search.enumerate_s", enumerate_s);
            layers.insert(
                "search.case3_warm_us_per_schedule",
                warm3_s * 1e6 / f3.evaluated_schedules as f64,
            );
            layers.insert(
                "search.case4_warm_us_per_schedule",
                warm4_s * 1e6 / f4.evaluated_schedules as f64,
            );
            layers.insert(
                "search.schedules_per_s",
                searched as f64 / (cold3_s + cold4_s + stochastic_s),
            );
            layers.insert("search.case3_frontier_len", f3.len() as f64);
            layers.insert("search.case4_frontier_len", f4.len() as f64);
            layers.insert("search.stochastic_s", stochastic_s);
            layers.insert("search.stochastic_evaluations", st.evaluations as f64);
            layers.insert("rank.s", rank_s);
            layers.insert("rank.points", rank_points as f64);
        }
        Ok(out)
    }

    fn sizes(&self) -> String {
        format!(
            "{{\"case3_candidates\":{},\"case4_candidates\":{},\"rank_requests\":{}}}",
            self.case3_candidates, self.case4_candidates, self.rank_requests
        )
    }
}

// --------------------------------------------------------------- stream_long

/// One replica in streaming-metrics mode over a freshly generated Poisson
/// trace at 0.8× the schedule's static QPS.
pub struct StreamLong {
    rago: Rago,
    schedule: Schedule,
    slo: SloTarget,
    requests: usize,
    rate_rps: f64,
    seed: u64,
    /// Requests of the exact-versus-streaming sink comparison (traced run
    /// only; an exact run retains every timeline).
    sink_requests: usize,
}

impl StreamLong {
    fn build(seed: u64, scale: Scale) -> Result<Self, String> {
        let (rago, schedule, static_qps) = case1_best()?;
        Ok(Self {
            rago,
            schedule,
            slo: SloTarget::paper_default(),
            requests: scale.pick(600_000, 100_000),
            rate_rps: 0.8 * static_qps,
            seed: derive(seed, 5),
            sink_requests: 100_000,
        })
    }

    fn trace(&self, requests: usize) -> Trace {
        TraceSpec {
            num_requests: requests,
            profile: SequenceProfile::paper_default().with_decode_tokens(64),
            arrival: ArrivalProcess::Poisson {
                rate_rps: self.rate_rps,
            },
            length_jitter: 0.2,
            seed: self.seed,
        }
        .generate()
    }

    fn streaming(&self) -> MetricsMode {
        MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()).with_slo(self.slo))
    }
}

impl Workload for StreamLong {
    fn run(&self, tr: &mut Tracer, layers: Option<&mut Layers>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        tr.enter("bench.stream_long");
        let (trace, gen_s) = tr.time("workloads.generate", || self.trace(self.requests));
        let (eval, run_s) = tr.time("engine.run", || {
            evaluate_schedule_dynamic_with(
                self.rago.profiler(),
                &self.schedule,
                &trace,
                &self.slo,
                &self.streaming(),
            )
        });
        let eval = eval.map_err(|e| err("streaming evaluation", e))?;
        drop(trace);
        let m = &eval.report.metrics;
        out.sim.add(m.requests, m.events_processed, run_s);
        out.check(
            m.requests == self.requests && m.completed == self.requests,
            || {
                format!(
                    "{} of {} injected requests completed",
                    m.completed, self.requests
                )
            },
        );
        let mut d = Digest::new();
        d.u(m.completed as u64)
            .u(m.events_processed)
            .f(m.makespan_s)
            .f(m.ttft.p50_s)
            .f(m.ttft.p99_s)
            .f(m.tpot.p99_s)
            .f(eval.attainment);
        out.digest = d.0;
        tr.exit();

        if let Some(layers) = layers {
            let sub = self.trace(self.sink_requests);
            let (exact, exact_s) = tr.time("sink.exact", || {
                evaluate_schedule_dynamic_with(
                    self.rago.profiler(),
                    &self.schedule,
                    &sub,
                    &self.slo,
                    &MetricsMode::Exact,
                )
            });
            let (streamed, streamed_s) = tr.time("sink.streaming", || {
                evaluate_schedule_dynamic_with(
                    self.rago.profiler(),
                    &self.schedule,
                    &sub,
                    &self.slo,
                    &self.streaming(),
                )
            });
            let exact = exact.map_err(|e| err("exact sink run", e))?;
            let streamed = streamed.map_err(|e| err("streaming sink run", e))?;
            out.check(
                exact.attainment == streamed.attainment
                    && exact.report.metrics.events_processed
                        == streamed.report.metrics.events_processed,
                || "the exact and streaming sinks disagree on attainment or events".into(),
            );
            layers.insert("workloads.generate_s", gen_s);
            layers.insert("workloads.requests_per_s", self.requests as f64 / gen_s);
            layers.insert("engine.run_s", run_s);
            layers.insert("engine.events", m.events_processed as f64);
            layers.insert("engine.events_per_s", m.events_processed as f64 / run_s);
            layers.insert("sink.exact_run_s", exact_s);
            layers.insert("sink.streaming_run_s", streamed_s);
            layers.insert(
                "sink.exact_retained_bytes",
                exact.report.retained_bytes() as f64,
            );
            layers.insert(
                "sink.streaming_retained_bytes",
                streamed.report.retained_bytes() as f64,
            );
        }
        Ok(out)
    }

    fn sizes(&self) -> String {
        format!(
            "{{\"requests\":{},\"rate_rps\":{:.3},\"sink_requests\":{}}}",
            self.requests, self.rate_rps, self.sink_requests
        )
    }
}

// --------------------------------------------------------------- chaos_trace

/// A three-tenant diurnal mix on a predictively scaled fleet that loses a
/// replica at the traffic peak, with admission shedding on; then the same
/// run traced live and exported as Chrome and JSONL traces.
pub struct ChaosTrace {
    engine: ChaosEngine,
    mix: WorkloadMix,
    requests: usize,
    period_s: f64,
    base_rps: f64,
    peak_rps: f64,
    seed: u64,
    window_s: f64,
}

/// Replica pipeline of the chaos workload: retrieval and prefix stages on
/// their own resources, then continuous-batching decode. The prefix stage
/// bounds a replica at about 100 requests per second.
fn chaos_pipeline() -> PipelineSpec {
    PipelineSpec::new(
        vec![
            StageSpec::new(
                "retrieval",
                0,
                16,
                LatencyTable::from_fn(16, |b| 0.02 + 1e-4 * f64::from(b)),
            ),
            StageSpec::new(
                "prefix",
                1,
                8,
                LatencyTable::from_fn(8, |b| 0.01 * f64::from(b)),
            ),
        ],
        DecodeSpec::new(
            32,
            LatencyTable::from_fn(32, |b| 2e-3 + 1e-5 * f64::from(b)),
        ),
    )
}

const CHAOS_TELEMETRY_CADENCE_S: f64 = 0.25;

impl ChaosTrace {
    fn build(seed: u64, scale: Scale) -> Self {
        let period_s: f64 = scale.pick(40.0, 8.0);
        let (base_rps, peak_rps) = (150.0, 500.0);
        let class = |name: &str, weight: f64, decode: u32, slo: SloTarget| {
            RequestClass::new(
                name,
                weight,
                SequenceProfile::paper_default().with_decode_tokens(decode),
                0.1,
                slo,
            )
        };
        let mix = WorkloadMix::new(vec![
            class("batch", 1.0, 128, SloTarget::new(2.0, 0.01)),
            class("search", 2.0, 48, SloTarget::new(1.0, 0.005)).with_priority(1),
            class("chat", 3.0, 32, SloTarget::new(0.5, 0.005)).with_priority(2),
        ]);
        // Provision ahead of the diurnal ramp and release after it; the
        // crash at the peak leaves the fleet short until the restart.
        let plan = ScalingPlan::new(
            3,
            vec![
                PlanStep {
                    at_s: 0.2 * period_s,
                    replicas: 5,
                },
                PlanStep {
                    at_s: 0.8 * period_s,
                    replicas: 3,
                },
            ],
        );
        let engine = ChaosEngine::new(
            chaos_pipeline(),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Predictive(PredictivePolicy::new(plan, 0.5)),
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: period_s / 2.0,
            restart_delay_s: period_s / 5.0,
        }]))
        .with_admission(AdmissionConfig::new(30.0, 30.0));
        Self {
            engine,
            mix,
            requests: (0.5 * (base_rps + peak_rps) * period_s) as usize,
            period_s,
            base_rps,
            peak_rps,
            seed: derive(seed, 6),
            window_s: period_s / 40.0,
        }
    }

    fn trace(&self) -> Trace {
        MixTraceSpec {
            num_requests: self.requests,
            mix: self.mix.clone(),
            arrival: ArrivalProcess::Diurnal {
                base_rps: self.base_rps,
                peak_rps: self.peak_rps,
                period_s: self.period_s,
            },
            seed: self.seed,
        }
        .generate()
    }
}

impl Workload for ChaosTrace {
    fn run(&self, tr: &mut Tracer, layers: Option<&mut Layers>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut d = Digest::new();
        tr.enter("bench.chaos_trace");
        let (trace, _) = tr.time("workloads.generate", || self.trace());
        let requests: Vec<EngineRequest> = trace.requests.iter().map(EngineRequest::from).collect();
        let input = requests.clone();
        let (report, run_s) = tr.time("chaos.run", || self.engine.run(input));
        let m = &report.fleet.merged.metrics;
        out.sim.add(m.requests, m.events_processed, run_s);
        let f = &report.fault;
        out.check(
            f.injected == self.requests && f.completed + f.shed + f.failed == f.injected,
            || {
                format!(
                    "completed {} + shed {} + failed {} != injected {} ({} offered)",
                    f.completed, f.shed, f.failed, f.injected, self.requests
                )
            },
        );
        // The recovery target is the top-priority tenant's SLO. `recovery`
        // buckets completions only, so it is blind to shed traffic; the
        // offered attainment counts shed and failed requests as misses.
        let slo = self.mix.classes[2].slo;
        let offered = report.offered_attainment(&slo);
        let recovery = report.recovery(&slo, self.window_s);
        let (reattainment_s, dip_area) = recovery.first().map_or((0.0, 0.0), |r| {
            (r.reattainment_s.unwrap_or(-1.0), r.dip_area)
        });
        d.u(f.completed as u64)
            .u(f.shed as u64)
            .u(f.failed as u64)
            .u(f.retried as u64)
            .u(m.events_processed)
            .f(offered)
            .f(reattainment_s)
            .f(dip_area);

        let traced_engine = self
            .engine
            .clone()
            .with_telemetry(TelemetryConfig::full(CHAOS_TELEMETRY_CADENCE_S));
        let ((traced, rec), traced_s) = tr.time("telemetry.traced_run", || {
            traced_engine.run_telemetry(requests)
        });
        let m = &traced.fleet.merged.metrics;
        out.sim.add(m.requests, m.events_processed, traced_s);
        out.check(traced == report, || {
            "the traced chaos run differs from the untraced one".into()
        });
        let (chrome, chrome_s) = tr.time("telemetry.export_chrome", || {
            export_chrome_trace(rec.events())
        });
        let (jsonl, jsonl_s) = tr.time("telemetry.export_jsonl", || export_jsonl(rec.events()));
        let (valid, validate_s) = tr.time("telemetry.validate", || {
            (validate_json(&chrome), validate_jsonl(&jsonl))
        });
        out.check(valid.0.is_ok(), || format!("Chrome trace: {:?}", valid.0));
        out.check(valid.1.is_ok(), || format!("JSONL trace: {:?}", valid.1));
        d.u(rec.len() as u64)
            .bytes(chrome.as_bytes())
            .bytes(jsonl.as_bytes());
        tr.exit();
        out.digest = d.0;

        if let Some(layers) = layers {
            layers.insert("chaos.run_s", run_s);
            layers.insert("chaos.shed", f.shed as f64);
            layers.insert("chaos.failed", f.failed as f64);
            layers.insert("chaos.retried", f.retried as f64);
            layers.insert("chaos.offered_attainment", offered);
            layers.insert(
                "chaos.completion_attainment",
                report.fleet.merged.attainment(&slo),
            );
            layers.insert("chaos.reattainment_s", reattainment_s);
            layers.insert("chaos.dip_area", dip_area);
            layers.insert("telemetry.traced_run_s", traced_s);
            layers.insert("telemetry.overhead_frac", traced_s / run_s - 1.0);
            layers.insert("telemetry.events", rec.len() as f64);
            layers.insert(
                "telemetry.events_per_request",
                rec.len() as f64 / self.requests as f64,
            );
            layers.insert("telemetry.chrome_export_s", chrome_s);
            layers.insert("telemetry.jsonl_export_s", jsonl_s);
            layers.insert("telemetry.chrome_bytes", chrome.len() as f64);
            layers.insert("telemetry.jsonl_bytes", jsonl.len() as f64);
            layers.insert("telemetry.validate_s", validate_s);
        }
        Ok(out)
    }

    fn sizes(&self) -> String {
        format!(
            "{{\"requests\":{},\"period_s\":{}}}",
            self.requests, self.period_s
        )
    }
}
