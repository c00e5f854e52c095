//! The repository benchmark: four seeded workloads driven through the
//! public entry points of `ssn-core`, `ssn-spice` and `ssn-server`.
//!
//! ```text
//! ssn-benchmark --workload <mc_yield|mc_checkpointed|design_explore|serve_mix>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` measures the per-layer metrics: an untraced window, a
//! one-thread window and a traced window (an `ssn_telemetry::Session`
//! around the same passes, plus spans this benchmark opens around its own
//! calls into each layer), followed by the layer probes. Every run checks
//! the program's outputs. The last line of standard output is the result
//! object; a provenance object and a human summary precede it. See
//! `README.md` for the workloads, the metrics and their seed-state values.

mod design;
mod mc;
mod measure;
mod probes;
mod serve;

use measure::{median, ratio, Distribution, Metrics, Tally};
use ssn_telemetry::{json, Report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("lc_max_rel_err", "ratio"),
];

/// Per-layer metrics, reported by every `--trace 1` run. Counts and times
/// are per pass of the traced window; a layer a workload does not use
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("montecarlo.perturb_ns_per_sample", "ns"),
    ("montecarlo.eval_ns_per_sample", "ns"),
    ("montecarlo.collect_s", "s"),
    ("parallel.chunks", "count"),
    ("parallel.busy_s", "s"),
    ("parallel.sched_wait_s", "s"),
    ("parallel.utilization", "ratio"),
    ("parallel.speedup", "ratio"),
    ("durable.commits", "count"),
    ("durable.bytes_written", "B"),
    ("durable.commit_s", "s"),
    ("durable.load_s", "s"),
    ("optimize.search_s", "s"),
    ("optimize.eval_s", "s"),
    ("optimize.bookkeeping_s", "s"),
    ("optimize.evaluated", "count"),
    ("optimize.pruned_dominated", "count"),
    ("optimize.front_members", "count"),
    ("optimize.evaluated_share", "ratio"),
    ("spice.measure_s", "s"),
    ("spice.tran.steps", "count"),
    ("spice.tran.newton_iters", "count"),
    ("spice.tran.rejected_steps", "count"),
    ("spice.linsolve.dense_solves", "count"),
    ("spice.factor_hit_ratio", "ratio"),
    ("spice.ns_per_newton_iter", "ns"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("api.parse_us", "us"),
    ("api.run_sync_ms.estimate", "ms"),
    ("api.run_sync_ms.budget", "ms"),
    ("api.run_sync_ms.montecarlo", "ms"),
    ("api.run_sync_ms.sweep", "ms"),
    ("api.run_sync_ms.optimize", "ms"),
    ("cache.get_us", "us"),
    ("cache.put_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("jobs.complete_s", "s"),
    ("jobs.shed", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.passes", "count"),
];

/// Set-ups before the first pass; the untraced window adds one after
/// every pass, and `setup_s` is the median of them all.
const SETUPS: usize = 9;

/// `peak_rss_mb` is read after this many measured passes (or at the end
/// of a shorter window), so it does not grow with throughput on a
/// workload whose caches grow with the requests served.
const RSS_AT_PASS: usize = 16;

/// What every workload gets from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: the only source of generated inputs.
    pub seed: u64,
    /// Worker threads and client connections (`available_parallelism`).
    pub threads: usize,
    /// Scratch directory inside the working directory (see `main`).
    pub scratch: PathBuf,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Work items completed (samples, design points or requests).
    pub items: u64,
    /// Per-request latencies in ms; empty for batch workloads, whose
    /// operation latency is the pass time.
    pub latencies_ms: Vec<f64>,
}

/// One workload: a set-up, a repeatable pass, and its output checks.
pub trait Workload {
    /// What `PassOut::items` counts.
    fn items(&self) -> &'static str;
    /// Runs one pass at `threads` workers (client connections for the
    /// service), checking its outputs into `tally`.
    fn pass(&mut self, threads: usize, tally: &mut Tally) -> PassOut;
    /// Checks made once after the measured passes.
    fn final_checks(&mut self, _tally: &mut Tally) {}
    /// Max `|LC - MNA| / MNA` over this workload's reference scenarios.
    fn lc_max_rel_err(&mut self, tally: &mut Tally) -> f64;
    /// Releases servers, files and threads.
    fn teardown(self: Box<Self>) {}
}

/// Builds a workload instance that keeps its files in `dir`, an empty
/// directory made before the clock starts: creating a directory on a busy
/// disk takes several times longer after recent file churn, which would
/// swamp the set-up it precedes.
type Setup = fn(&Ctx, &Path) -> Result<Box<dyn Workload>, String>;

const WORKLOADS: [(&str, Setup); 4] = [
    ("mc_yield", mc::setup_yield),
    ("mc_checkpointed", mc::setup_checkpointed),
    ("design_explore", design::setup),
    ("serve_mix", serve::setup),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record_reference: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record-reference" => args.record_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ssn-benchmark: {e}");
            std::process::exit(2);
        }
    };
    if args.record_reference {
        design::record_reference();
        mc::record_reference();
        return;
    }
    let Some(&(name, setup)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!(
            "ssn-benchmark: unknown workload {:?} (expected one of {})",
            args.workload,
            WORKLOADS.map(|(n, _)| n).join(", ")
        );
        std::process::exit(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    // Unique per run: scratch directories are never reused.
    let started = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let scratch = PathBuf::from(".bench_tmp").join(format!("{name}-{started}"));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("ssn-benchmark: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        threads,
        scratch,
    };
    let outcome = run(name, setup, &ctx, &args);
    // Scratch files stay behind (`.bench_tmp/` is ignored by git): on a
    // filesystem mounted with online discard, deleting thousands of fsynced
    // files slows every fsync on the disk for minutes, which would leak
    // into the next run's figures.
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ssn-benchmark: {name}: {e}");
            std::process::exit(1);
        }
    }
}

/// Passes run until `seconds` have elapsed, at least `min_passes` of them.
struct Window {
    pass_s: Vec<f64>,
    /// Items per second of each pass.
    rates: Vec<f64>,
    latencies_ms: Vec<f64>,
    items: u64,
    elapsed: f64,
}

fn window(
    w: &mut dyn Workload,
    threads: usize,
    seconds: f64,
    min_passes: usize,
    tally: &mut Tally,
    between: &mut dyn FnMut(&mut Tally),
) -> Window {
    let started = Instant::now();
    let mut out = Window {
        pass_s: Vec::new(),
        rates: Vec::new(),
        latencies_ms: Vec::new(),
        items: 0,
        elapsed: 0.0,
    };
    while out.pass_s.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let pass = w.pass(threads, tally);
        let dt = t.elapsed().as_secs_f64();
        out.pass_s.push(dt);
        out.rates.push(pass.items as f64 / dt);
        out.items += pass.items;
        out.latencies_ms.extend(pass.latencies_ms);
        between(tally);
    }
    // Time spent between passes is not part of the measurement.
    out.elapsed = out.pass_s.iter().sum();
    out
}

fn timed_setup(
    setup: Setup,
    ctx: &Ctx,
    dir: &Path,
    samples: &mut Vec<f64>,
) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t = Instant::now();
    let w = setup(ctx, dir)?;
    samples.push(t.elapsed().as_secs_f64());
    Ok(w)
}

type Values = BTreeMap<&'static str, f64>;
type Info = BTreeMap<&'static str, String>;

fn run(name: &str, setup: Setup, ctx: &Ctx, args: &Args) -> Result<String, String> {
    // Set-ups other than the kept one leave nothing behind, so they share
    // one spare directory.
    let spare = ctx.scratch.join("spare");
    let mut setup_s = Vec::new();
    for _ in 1..SETUPS {
        timed_setup(setup, ctx, &spare, &mut setup_s)?.teardown();
    }
    let mut w = timed_setup(setup, ctx, &ctx.scratch.join("workload"), &mut setup_s)?;
    let mut tally = Tally::default();
    let mut info = Info::new();

    // Warm-up pass: caches fill and lazy set-up finishes before timing.
    w.pass(ctx.threads, &mut tally);

    let started = Instant::now();
    let (names, values): (&[(&str, &str)], Values) = if args.trace {
        let v = per_layer(w.as_mut(), ctx, args.seconds, &mut tally, &mut info);
        (&PER_LAYER, v)
    } else {
        let v = end_to_end(
            w.as_mut(),
            setup,
            ctx,
            args.seconds,
            setup_s,
            &mut tally,
            &mut info,
        );
        (&END_TO_END, v)
    };
    let measured = started.elapsed();
    w.teardown();

    let mut metrics = Metrics::default();
    for &(metric, unit) in names {
        metrics.put(metric, values.get(metric).copied().unwrap_or(0.0), unit);
    }
    print_provenance(name, ctx, args, &tally, &info, measured);
    for m in &metrics.0 {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &tally.notes {
        eprintln!("ssn-benchmark: {note}");
    }
    Ok(measure::result_line(&tally, &metrics))
}

/// The untraced window: end-to-end metrics. One more set-up follows every
/// pass, so the set-up samples span the whole run like the passes do.
fn end_to_end(
    w: &mut dyn Workload,
    setup: Setup,
    ctx: &Ctx,
    seconds: f64,
    mut setup_s: Vec<f64>,
    tally: &mut Tally,
    info: &mut Info,
) -> Values {
    let mut passes = 0;
    let mut rss = None;
    let mut between = |tally: &mut Tally| {
        passes += 1;
        if passes == RSS_AT_PASS {
            rss = Some(measure::peak_rss_mb());
        }
        let extra = timed_setup(setup, ctx, &ctx.scratch.join("spare"), &mut setup_s);
        if let Some(extra) = tally.result("set-up", extra) {
            extra.teardown();
        }
    };
    let win = window(w, ctx.threads, seconds, 3, tally, &mut between);
    let rss = rss.unwrap_or_else(measure::peak_rss_mb);
    // A batch workload's operation is its pass.
    let ops_ms: Vec<f64> = if win.latencies_ms.is_empty() {
        win.pass_s.iter().map(|s| s * 1e3).collect()
    } else {
        win.latencies_ms
    };
    let lat = Distribution::of(&ops_ms, 99.0);
    let pass = Distribution::of(&win.pass_s, 99.0);
    let fastest = win.pass_s.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = win.pass_s.iter().copied().fold(0.0, f64::max);
    info.insert("setups", setup_s.len().to_string());
    info.insert("passes", pass.n.to_string());
    info.insert(
        "pass_s_min_p50_max",
        format!("{fastest:.4} {:.4} {slowest:.4}", pass.p50),
    );
    info.insert("latency_samples", lat.n.to_string());
    info.insert("latency_tail_percentile", format!("p{}", lat.tail_pct));
    info.insert("items", format!("{} {}", win.items, w.items()));
    info.insert("window_s", format!("{:.3}", win.elapsed));
    w.final_checks(tally);
    Values::from([
        ("setup_s", median(&setup_s)),
        ("wall_s", pass.p50),
        ("throughput_per_s", median(&win.rates)),
        ("latency_p50_ms", lat.p50),
        ("latency_p99_ms", lat.tail),
        ("peak_rss_mb", rss),
        ("lc_max_rel_err", w.lc_max_rel_err(tally)),
    ])
}

/// The traced run: an untraced window, a one-thread window and a traced
/// window of the same passes, then the layer probes.
fn per_layer(
    w: &mut dyn Workload,
    ctx: &Ctx,
    seconds: f64,
    tally: &mut Tally,
    info: &mut Info,
) -> Values {
    let untraced = window(w, ctx.threads, 0.3 * seconds, 2, tally, &mut |_| {});
    let one = window(w, 1, 0.2 * seconds, 1, tally, &mut |_| {});
    let session = ssn_telemetry::Session::start();
    let traced = window(w, ctx.threads, 0.3 * seconds, 2, tally, &mut |_| {});
    let report = session.finish();
    eprintln!("{}", report.table());

    let passes = traced.pass_s.len();
    let traced_wall = median(&traced.pass_s);
    let untraced_wall = median(&untraced.pass_s);
    let mut values = Values::from([
        (
            "parallel.speedup",
            ratio(median(&one.pass_s), untraced_wall),
        ),
        ("trace.overhead_ratio", ratio(traced_wall, untraced_wall)),
        ("trace.passes", passes as f64),
    ]);
    values.extend(report_layers(&report, passes, ctx.threads, traced_wall));
    values.extend(probes::run(ctx, tally));
    w.final_checks(tally);
    info.insert("passes_untraced", untraced.pass_s.len().to_string());
    info.insert("passes_one_thread", one.pass_s.len().to_string());
    info.insert("passes_traced", passes.to_string());
    values
}

/// Per-layer values read from the traced window's spans and counters,
/// per pass (the durable, cache and job layers come from the probes). Spans named `bench.*` are the benchmark's own, opened around
/// its calls into each layer.
fn report_layers(
    report: &Report,
    passes: usize,
    threads: usize,
    pass_wall: f64,
) -> Vec<(&'static str, f64)> {
    let per = |x: f64| x / passes as f64;
    let busy = per(measure::counter(report, "parallel.compute_ns") as f64 * 1e-9);
    let secs = |path: &str| measure::span_total(report, path).as_secs_f64();
    let count = |name: &str| measure::counter(report, name) as f64;
    let search = secs("bench.search");
    let eval = secs("bench.search.opt.refine.durable.run");
    let evaluated = count("opt.evaluated");
    let considered = evaluated + count("opt.pruned.infeasible") + count("opt.pruned.dominated");
    let factor_hits = count("spice.linsolve.factor_hits");
    let factor_all = factor_hits + count("spice.linsolve.factor_misses");
    vec![
        ("parallel.chunks", per(count("parallel.chunks"))),
        ("parallel.busy_s", busy),
        (
            "parallel.sched_wait_s",
            per(count("parallel.sched_wait_ns") * 1e-9),
        ),
        (
            "parallel.utilization",
            ratio(busy, pass_wall * threads as f64),
        ),
        ("montecarlo.collect_s", per(secs("mc.collect"))),
        ("optimize.search_s", per(search)),
        ("optimize.eval_s", per(eval)),
        ("optimize.bookkeeping_s", per(search - eval)),
        ("optimize.evaluated", per(evaluated)),
        (
            "optimize.pruned_dominated",
            per(count("opt.pruned.dominated")),
        ),
        ("optimize.front_members", per(count("opt.front.members"))),
        ("optimize.evaluated_share", ratio(evaluated, considered)),
        ("spice.measure_s", per(secs("bench.measure"))),
        ("spice.tran.steps", per(count("spice.tran.steps"))),
        (
            "spice.tran.newton_iters",
            per(count("spice.tran.newton_iters")),
        ),
        (
            "spice.tran.rejected_steps",
            per(count("spice.tran.rejected_steps")),
        ),
        (
            "spice.linsolve.dense_solves",
            per(count("spice.linsolve.dense_solves")),
        ),
        ("spice.factor_hit_ratio", ratio(factor_hits, factor_all)),
        (
            "spice.ns_per_newton_iter",
            ratio(secs("spice.tran") * 1e9, count("spice.tran.newton_iters")),
        ),
    ]
}

/// The git revision of the checkout, read from `.git` without leaving it.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn print_provenance(
    name: &str,
    ctx: &Ctx,
    args: &Args,
    tally: &Tally,
    info: &BTreeMap<&str, String>,
    measured: Duration,
) {
    let mut fields = vec![
        ("workload", json::escape(name)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", ctx.threads.to_string()),
        ("threads", ctx.threads.to_string()),
        ("rustc", json::escape(env!("SSN_BENCH_RUSTC_VERSION"))),
        ("git_revision", json::escape(&git_revision())),
        ("seconds", json::number(args.seconds)),
        ("measured_s", json::number(measured.as_secs_f64())),
        ("error_rate", json::number(tally.error_rate())),
    ];
    fields.extend(info.iter().map(|(k, v)| (*k, json::escape(v))));
    let body = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::escape(k)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{\"provenance\": {{{body}}}}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(json::Json::Arr(entries)) = doc.get(key) else {
                panic!("{key} missing")
            };
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(json::Json::as_str).unwrap(),
                        e.get("unit").and_then(json::Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
        let Some(json::Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads missing")
        };
        let declared: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(json::Json::as_str).unwrap())
            .collect();
        assert_eq!(declared, ["mc_yield", "design_explore"]);
        assert!(declared
            .iter()
            .all(|d| WORKLOADS.iter().any(|(n, _)| n == d)));
    }
}
