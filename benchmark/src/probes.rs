//! Layer probes: outside timing of single public calls on recorded,
//! seed-generated inputs. Every traced run makes them, whatever its
//! workload, so each probe metric has one definition everywhere.

use crate::mc::McCheckpointed;
use crate::measure::{counter, median, ratio, span_sum, span_total, Tally};
use crate::serve::{self, CLASSES};
use crate::{Ctx, Workload};
use ssn_core::lcmodel;
use ssn_core::montecarlo::{perturb_batch, VariationSpec};
use ssn_core::scenario::SsnScenario;
use ssn_devices::process::Process;
use ssn_numeric::rng::Rng;
use ssn_server::api::Endpoint;
use ssn_server::cache::ResultCache;
use ssn_server::http;
use ssn_telemetry::{names, Session};
use ssn_units::Seconds;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each probe; the median repetition is reported.
const REPS: usize = 5;
/// Samples per Monte Carlo probe repetition, in engine-sized chunks.
const MC_SAMPLES: usize = 131_072;
const MC_CHUNK: usize = 256;
/// Requests per class for the `run_sync` probe.
const SYNC_PER_CLASS: usize = 5;
/// Cache entries for the get/put probes.
const CACHE_ENTRIES: usize = 16;
/// Samples of the durable probe's checkpointed run (196 journal records).
const DURABLE_SAMPLES: usize = 50_000;
/// Checkpointed runs, each with its resume, the durable probe averages.
const DURABLE_PASSES: usize = 3;
/// `serve_mix` blocks the service probe runs after its warm-up block; the
/// last of them submits a durable job.
const SERVICE_BLOCKS: usize = 16;

/// Median over [`REPS`] of the mean seconds per call of `f` over `n` calls.
fn per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                f(i);
            }
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    median(&reps)
}

fn class_metric(class: Endpoint) -> &'static str {
    match class {
        Endpoint::Estimate => "api.run_sync_ms.estimate",
        Endpoint::Budget => "api.run_sync_ms.budget",
        Endpoint::MonteCarlo => "api.run_sync_ms.montecarlo",
        Endpoint::Sweep => "api.run_sync_ms.sweep",
        _ => "api.run_sync_ms.optimize",
    }
}

/// Runs every probe, returning `(metric, value)` pairs.
pub fn run(ctx: &Ctx, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let mut out = calls(ctx, tally);
    out.extend(durable(ctx, tally));
    out.extend(service(ctx, tally));
    out
}

/// A workload instance for a probe, in its own fresh directory under the
/// scratch directory.
fn instance<W>(
    ctx: &Ctx,
    name: &str,
    tally: &mut Tally,
    make: impl FnOnce(&std::path::Path) -> Result<W, String>,
) -> Option<W> {
    let dir = ctx.scratch.join(name);
    let made = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| make(&dir));
    tally.result(name, made)
}

/// The durable layer: a small checkpointed run and its full resume, after
/// one warm-up, traced. The journal rewrite on every commit shows in
/// `durable.bytes_written` and `durable.commit_s`.
fn durable(ctx: &Ctx, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let Some(mut w) = instance(ctx, "probe-journal", tally, |dir| {
        McCheckpointed::new(ctx, dir, DURABLE_SAMPLES)
    }) else {
        return Vec::new();
    };
    w.pass(ctx.threads, tally);
    let session = Session::start();
    for _ in 0..DURABLE_PASSES {
        w.pass(ctx.threads, tally);
    }
    let report = session.finish();
    w.final_checks(tally);
    let per = |x: f64| x / DURABLE_PASSES as f64;
    let secs = |path: &str| span_total(&report, path).as_secs_f64();
    // Chunk compute: worker CPU time, spread over the threads that ran it.
    let compute = (secs("mc.perturb") + secs("mc.eval")) / ctx.threads as f64;
    vec![
        (
            "durable.commits",
            per(counter(&report, names::DURABLE_COMMITS) as f64),
        ),
        ("durable.bytes_written", w.bytes_written() as f64),
        (
            "durable.commit_s",
            per((secs("bench.ckpt.run.mc.run.durable.run") - compute).max(0.0)),
        ),
        (
            "durable.load_s",
            per(secs("bench.ckpt.resume.mc.run.durable.run")),
        ),
    ]
}

/// The cache and job layers in situ: `serve_mix` blocks against a server on
/// a fresh spool, traced, then the service's output checks.
fn service(ctx: &Ctx, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let Some(mut w) = instance(ctx, "probe-spool", tally, |dir| serve::setup(ctx, dir)) else {
        return Vec::new();
    };
    // The first block fills the hit pool.
    w.pass(ctx.threads, tally);
    let session = Session::start();
    for _ in 0..SERVICE_BLOCKS {
        w.pass(ctx.threads, tally);
    }
    let report = session.finish();
    w.final_checks(tally);
    w.teardown();
    let hits = counter(&report, names::SERVE_CACHE_HITS) as f64;
    let misses = counter(&report, names::SERVE_CACHE_MISSES) as f64;
    let (job_time, jobs) = span_sum(&report, "bench.job");
    vec![
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        (
            "jobs.complete_s",
            ratio(job_time.as_secs_f64(), jobs as f64),
        ),
        ("jobs.shed", counter(&report, names::SERVE_SHED) as f64),
    ]
}

/// Outside timing of single calls into the Monte Carlo, HTTP, API and
/// cache layers.
fn calls(ctx: &Ctx, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // Monte Carlo: parameter draws, then the LC slab kernel on the draws.
    let nominal = SsnScenario::builder(&Process::p018())
        .drivers(8)
        .rise_time(Seconds::from_nanos(0.5))
        .build();
    if let Some(s) = tally.result("probe scenario", nominal) {
        let spec = VariationSpec::typical();
        let chunks = MC_SAMPLES / MC_CHUNK;
        let batches: Vec<_> = (0..chunks)
            .map(|c| {
                let mut rng = Rng::from_seed_and_stream(ctx.seed, c as u64);
                perturb_batch(&s, &spec, &mut rng, MC_CHUNK)
            })
            .collect();
        let perturb = per_call(chunks, |c| {
            let mut rng = Rng::from_seed_and_stream(ctx.seed, c as u64);
            black_box(perturb_batch(&s, &spec, &mut rng, MC_CHUNK));
        });
        let mut slab = vec![0.0; MC_CHUNK];
        let eval = per_call(chunks, |c| {
            let b = &batches[c];
            lcmodel::vn_max_slab(&s, b.k(), b.sigma(), b.v0(), b.l(), b.c(), &mut slab);
            black_box(&slab);
        });
        tally.check(
            "slab kernel output is finite",
            slab.iter().all(|v| v.is_finite()),
        );
        out.push((
            "montecarlo.perturb_ns_per_sample",
            perturb * 1e9 / MC_CHUNK as f64,
        ));
        out.push((
            "montecarlo.eval_ns_per_sample",
            eval * 1e9 / MC_CHUNK as f64,
        ));
    }

    // HTTP and API parsing on the recorded request bytes.
    let reqs = serve::recorded_requests(ctx.seed);
    let wire: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| r.wire_bytes("127.0.0.1:8080"))
        .collect();
    let parsed_ok = wire
        .iter()
        .all(|w| http::parse_request(&mut w.as_slice()).is_ok());
    tally.check("recorded requests parse", parsed_ok);
    out.push((
        "http.parse_us",
        1e6 * per_call(wire.len(), |i| {
            let _ = black_box(http::parse_request(&mut wire[i].as_slice()));
        }),
    ));
    let api: Vec<_> = reqs.iter().filter(|r| r.path.starts_with("/v1/")).collect();
    out.push((
        "api.parse_us",
        1e6 * per_call(api.len(), |i| {
            if let Ok(r) = api[i].api_request() {
                black_box(r.digest());
            }
        }),
    ));

    // Request execution per endpoint class, on fresh unique requests.
    let mut rng = Rng::from_seed_and_stream(ctx.seed, u64::MAX);
    let mut bodies = Vec::new();
    for class in CLASSES {
        let mut times = Vec::with_capacity(SYNC_PER_CLASS);
        for _ in 0..SYNC_PER_CLASS {
            let Some(req) = tally.result(
                "probe request",
                serve::unique(class, &mut rng).api_request(),
            ) else {
                continue;
            };
            let t = Instant::now();
            let run = req.run_sync().map_err(|e| e.detail);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(body) = tally.result("probe run_sync", run) {
                bodies.push((req.digest(), body));
            }
        }
        out.push((class_metric(class), median(&times)));
    }

    // Response rendering of the computed bodies.
    let mut sink = Vec::with_capacity(64 * 1024);
    out.push((
        "http.write_us",
        1e6 * per_call(bodies.len(), |i| {
            sink.clear();
            let headers = [("x-ssn-cache", "miss".to_owned())];
            let _ = http::write_response(&mut sink, 200, &headers, &bodies[i].1);
            black_box(&sink);
        }),
    ));

    // Result cache: spooled puts (write, rename, fsync) and memory gets.
    let dir = ctx.scratch.join("probe-cache");
    if let Some(cache) = tally.result("probe cache", ResultCache::new(Some(dir))) {
        let entries: Vec<_> = bodies.iter().cycle().take(CACHE_ENTRIES).collect();
        let puts: Vec<f64> = entries
            .iter()
            .enumerate()
            .map(|(i, (digest, body))| {
                let t = Instant::now();
                cache.put(digest ^ i as u64, body.clone());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.push(("cache.put_ms", median(&puts)));
        let mut hits = 0usize;
        let get = per_call(entries.len() * 64, |i| {
            let k = i % entries.len();
            hits += usize::from(black_box(cache.get(entries[k].0 ^ k as u64)).is_some());
        });
        tally.check(
            "cache returns every stored entry",
            hits == entries.len() * 64 * REPS,
        );
        out.push(("cache.get_us", get * 1e6));
    }
    out
}
