//! The repository benchmark: times the planners, the schedule search, the
//! streaming DES and the chaos/telemetry path through the public API.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_fleet --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A closed loop with one caller: each operation starts when the previous
//! one returns. With `--trace 0` the run builds the workload's inputs
//! (several times; set-up is reported as the median), then repeats the
//! operation sequence for `--seconds` and prints the end-to-end metrics as
//! medians over the repeats. With `--trace 1` it runs the layer pass
//! instead: every workload once untraced and once with spans around each
//! call into a layer, plus per-layer probes, and prints the per-layer
//! metrics. The last line of standard output is the result object; the
//! line before it carries the run metadata and the digest of the simulated
//! outputs. See `METRICS.md` for every metric's definition and the layer
//! each one belongs to.

mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use spans::Tracer;
use workloads::{Layers, Outcome, Scale, Workload, NAMES};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed repeats of the operation sequence, however long each takes.
const MIN_REPEATS: usize = 3;
/// Stop repeating after this many host seconds whatever `--seconds` says,
/// so a run always ends well inside its time limit.
const MAX_LOOP_S: f64 = 120.0;

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Every per-layer metric: name, unit, and which direction is better.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("bench.traced_overhead_frac", "frac", "lower"),
    ("self.bench_s", "s", "lower"),
    ("self.capacity_s", "s", "lower"),
    ("self.disagg_s", "s", "lower"),
    ("self.fleet_s", "s", "lower"),
    ("self.workloads_s", "s", "lower"),
    ("self.search_s", "s", "lower"),
    ("self.rank_s", "s", "lower"),
    ("self.engine_s", "s", "lower"),
    ("self.sink_s", "s", "lower"),
    ("self.chaos_s", "s", "lower"),
    ("self.telemetry_s", "s", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("workloads.requests_per_s", "1/s", "higher"),
    ("profiler.distinct_profiles", "count", "lower"),
    ("profiler.memo_hit_ratio", "frac", "higher"),
    ("profiler.cold_minus_warm_s", "s", "lower"),
    ("search.enumerate_s", "s", "lower"),
    ("search.case3_warm_us_per_schedule", "us", "lower"),
    ("search.case4_warm_us_per_schedule", "us", "lower"),
    ("search.schedules_per_s", "1/s", "higher"),
    ("search.case3_frontier_len", "count", "higher"),
    ("search.case4_frontier_len", "count", "higher"),
    ("search.stochastic_s", "s", "lower"),
    ("search.stochastic_evaluations", "count", "lower"),
    ("rank.s", "s", "lower"),
    ("rank.points", "count", "higher"),
    ("engine.run_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("sink.exact_run_s", "s", "lower"),
    ("sink.streaming_run_s", "s", "lower"),
    ("sink.exact_retained_bytes", "B", "lower"),
    ("sink.streaming_retained_bytes", "B", "lower"),
    ("fleet.run_s", "s", "lower"),
    ("fleet.replay_sum_s", "s", "lower"),
    ("fleet.self_s", "s", "lower"),
    ("fleet.self_share", "frac", "lower"),
    ("fleet.replicas", "count", "lower"),
    ("fleet.imbalance_cv", "frac", "lower"),
    ("capacity.plan_s", "s", "lower"),
    ("capacity.replicas", "count", "lower"),
    ("disagg.plan_s", "s", "lower"),
    ("disagg.prefill_replicas", "count", "lower"),
    ("disagg.decode_replicas", "count", "lower"),
    ("chaos.run_s", "s", "lower"),
    ("chaos.shed", "count", "lower"),
    ("chaos.failed", "count", "lower"),
    ("chaos.retried", "count", "lower"),
    ("chaos.offered_attainment", "frac", "higher"),
    ("chaos.completion_attainment", "frac", "higher"),
    ("chaos.reattainment_s", "s", "lower"),
    ("chaos.dip_area", "s", "lower"),
    ("telemetry.traced_run_s", "s", "lower"),
    ("telemetry.overhead_frac", "frac", "lower"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.events_per_request", "count", "lower"),
    ("telemetry.chrome_export_s", "s", "lower"),
    ("telemetry.jsonl_export_s", "s", "lower"),
    ("telemetry.validate_s", "s", "lower"),
    ("telemetry.chrome_bytes", "B", "lower"),
    ("telemetry.jsonl_bytes", "B", "lower"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut threads) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--threads" => threads = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {NAMES:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        threads,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set of this process (`VmHWM`), in megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// The commit of the checkout when it is a git work tree, else `unknown`.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&format!(".git/{reference}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Runs one operation, turning a returned error or a panic into a failure.
fn attempt(workload: &dyn Workload, tr: &mut Tracer, layers: Option<&mut Layers>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| workload.run(tr, layers))) {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => Outcome {
            failures: vec![e],
            ..Outcome::default()
        },
        Err(_) => Outcome {
            failures: vec!["the operation panicked".into()],
            ..Outcome::default()
        },
    }
}

/// Counts attempts, failures and digests across a run's operations.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digests: BTreeMap<&'static str, u64>,
}

impl Ledger {
    fn record(&mut self, workload: &'static str, outcome: &Outcome) {
        self.attempted += 1;
        let mut failures = outcome.failures.clone();
        if failures.is_empty() {
            let first = *self.digests.entry(workload).or_insert(outcome.digest);
            if first != outcome.digest {
                failures.push(format!(
                    "{workload}: simulated outputs changed between repeats"
                ));
            }
        }
        if !failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{workload}: {f}")));
        }
    }

    fn digests_json(&self) -> String {
        let rows: Vec<String> = self
            .digests
            .iter()
            .map(|(w, d)| format!("\"{w}\":\"{d:016x}\""))
            .collect();
        format!("{{{}}}", rows.join(","))
    }
}

/// The metrics object; a non-finite value (already reported as a failure)
/// prints as -1 so the line stays valid JSON.
fn metric_json(metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { -1.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn json_strings(items: &[String]) -> String {
    let rows: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", rago_telemetry::escape_json(s)))
        .collect();
    format!("[{}]", rows.join(","))
}

/// `--trace 0`: set up, then time the operation sequence in a closed loop.
fn end_to_end(args: &Args, threads: usize, ledger: &mut Ledger) -> (Vec<Metric>, String) {
    let name = NAMES
        .iter()
        .copied()
        .find(|n| *n == args.workload)
        .expect("validated by parse_args");
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = Err(String::new());
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        built = workloads::build(name, args.seed, Scale::Full, threads).and_then(|workload| {
            let warmup = workloads::build(name, args.seed, Scale::Warmup, threads)?;
            let outcome = attempt(warmup.as_ref(), &mut Tracer::new(false), None);
            if outcome.failures.is_empty() {
                Ok(workload)
            } else {
                Err(format!("warm-up failed: {}", outcome.failures.join("; ")))
            }
        });
        setups.push(start.elapsed().as_secs_f64());
    }
    let workload = match built {
        Ok(w) => w,
        Err(e) => {
            ledger.attempted += 1;
            ledger.failed += 1;
            ledger.failures.push(format!("{name}: set-up failed: {e}"));
            return (Vec::new(), "{}".into());
        }
    };

    let mut walls = Vec::new();
    let (mut req_rates, mut ev_rates) = (Vec::new(), Vec::new());
    let loop_start = Instant::now();
    loop {
        let start = Instant::now();
        let outcome = attempt(workload.as_ref(), &mut Tracer::new(false), None);
        walls.push(start.elapsed().as_secs_f64());
        if outcome.sim.host_s > 0.0 {
            req_rates.push(outcome.sim.requests as f64 / outcome.sim.host_s);
            ev_rates.push(outcome.sim.events as f64 / outcome.sim.host_s);
        }
        ledger.record(name, &outcome);
        let elapsed = loop_start.elapsed().as_secs_f64();
        if (elapsed >= args.seconds && walls.len() >= MIN_REPEATS) || elapsed >= MAX_LOOP_S {
            break;
        }
    }
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("wall_s", median(&walls), "s"),
        ("sim_requests_per_s", median(&req_rates), "1/s"),
        ("sim_events_per_s", median(&ev_rates), "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let info = format!(
        "{{\"repeats\":{},\"setup_reps\":{SETUP_REPS},\"sizes\":{}}}",
        walls.len(),
        workload.sizes()
    );
    (metrics, info)
}

/// `--trace 1`: the layer pass over every workload, repeated for
/// `--seconds`; per-layer metrics are medians over the passes.
fn layer_pass(args: &Args, threads: usize, ledger: &mut Ledger) -> (Vec<Metric>, String) {
    let mut built = Vec::new();
    for name in NAMES {
        match workloads::build(name, args.seed, Scale::Full, threads) {
            Ok(w) => built.push((name, w)),
            Err(e) => {
                ledger.attempted += 1;
                ledger.failed += 1;
                ledger.failures.push(format!("{name}: set-up failed: {e}"));
            }
        }
    }
    let mut tracer = Tracer::new(true);
    let mut passes: Vec<Layers> = Vec::new();
    let loop_start = Instant::now();
    loop {
        let pass_from = tracer.spans().len();
        let mut layers = Layers::new();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        for (name, workload) in &built {
            let start = Instant::now();
            let outcome = attempt(workload.as_ref(), &mut Tracer::new(false), None);
            untraced_s += start.elapsed().as_secs_f64();
            ledger.record(name, &outcome);

            let from = tracer.spans().len();
            let outcome = attempt(workload.as_ref(), &mut tracer, Some(&mut layers));
            ledger.record(name, &outcome);
            traced_s += tracer.spans()[from..]
                .iter()
                .find(|s| s.parent.is_none() && s.name.starts_with("bench."))
                .map_or(0.0, |s| s.end_s - s.start_s);
        }
        layers.insert("bench.traced_overhead_frac", traced_s / untraced_s - 1.0);
        for (layer, self_s) in tracer.self_time_by_layer(pass_from) {
            if let Some((name, ..)) = PER_LAYER.iter().find(|(n, ..)| {
                n.strip_prefix("self.").and_then(|n| n.strip_suffix("_s")) == Some(layer)
            }) {
                layers.insert(name, self_s);
            }
        }
        passes.push(layers);
        // Start another pass only if it should end within `--seconds`.
        let elapsed = loop_start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if elapsed + per_pass > args.seconds.min(MAX_LOOP_S) {
            break;
        }
    }

    let mut metrics = Vec::new();
    for &(name, unit, _) in PER_LAYER {
        let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
        if values.len() < passes.len() {
            ledger
                .failures
                .push(format!("per-layer metric {name} was not measured"));
        }
        metrics.push((name, median(&values), unit));
    }
    let out_dir = std::path::Path::new(".bench_out");
    let spans_path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&spans_path, tracer.to_json()))
    {
        eprintln!("could not write {}: {e}", spans_path.display());
    }
    let sizes: Vec<String> = built
        .iter()
        .map(|(name, w)| format!("\"{name}\":{}", w.sizes()))
        .collect();
    let info = format!(
        "{{\"passes\":{},\"spans\":{},\"spans_file\":\"{}\",\"sizes\":{{{}}}}}",
        passes.len(),
        tracer.spans().len(),
        spans_path.display(),
        sizes.join(",")
    );
    (metrics, info)
}

extern "C" {
    /// glibc's allocator tuning entry point.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `mallopt` parameter: maximum number of mmap'd allocations.
const M_MMAP_MAX: i32 = -4;
/// glibc `mallopt` parameter: heap trim threshold.
const M_TRIM_THRESHOLD: i32 = -1;

fn main() {
    // Keep freed memory inside the process: no mmap for large blocks and
    // no heap trimming, so repeats reuse pages the set-up already touched
    // instead of faulting fresh ones in. On virtual machines the cost of a
    // page fault swings with the host's load, and it would otherwise
    // dominate the run-to-run spread of the allocation-heavy workloads.
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called
    // before any other thread exists, with valid glibc parameter numbers.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the library's worker threads to at most the host's core count.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.threads.unwrap_or(nproc).clamp(1, nproc);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let mut ledger = Ledger::default();
    let (metrics, info) = if args.trace {
        layer_pass(&args, threads, &mut ledger)
    } else {
        end_to_end(&args, threads, &mut ledger)
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        ledger
            .failures
            .push("a metric is not a finite number".into());
    }
    let correct = ledger.failures.is_empty() && !metrics.is_empty();
    for failure in &ledger.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    println!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"threads\":{threads},\"commit\":\"{}\",\"profile\":\"{}\",\
         \"parallel_advance\":\"off\",\"digests\":{},\"run\":{info},\"failures\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        ledger.digests_json(),
        json_strings(&ledger.failures),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        ledger.attempted.max(1),
        ledger.failed,
        metric_json(&metrics)
    );
}
