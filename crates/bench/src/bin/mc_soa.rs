//! PERF2 — batched SoA Monte Carlo hot path vs the scalar reference.
//!
//! Runs the same Monte Carlo job on both evaluation paths ([`McPath`]),
//! asserts the sample streams are **bit-identical** (the SoA refactor's
//! core contract), and reports samples/s three ways:
//!
//! 1. **end-to-end, raw** — telemetry off, serial and 2/4/8 threads;
//! 2. **end-to-end, instrumented** — under a recording telemetry session,
//!    the configuration whose profile motivated the refactor (the scalar
//!    path paid two spans per sample; the batched path pays two per chunk);
//! 3. **eval stage only** — the per-sample scenario rebuild + `vn_max`
//!    against the slab kernels on the same pre-drawn parameter batch. This
//!    isolates the stage the refactor replaced from the pinned RNG stream
//!    (the v2 ziggurat draws, whose values checkpoints and seeds freeze
//!    within the stream version; DESIGN.md §11), which both paths must pay
//!    identically.
//!
//! The Amdahl floor is printed explicitly: with the perturbation stage
//! shared, end-to-end speedup is bounded by
//! `(perturb + scalar eval) / (perturb + slab eval)` no matter how fast
//! the kernels get. Stream v2 lowered that floor: the ziggurat draws cost
//! about a fifth of the Box–Muller draws of v1, so the slab kernels' gain
//! shows more of itself end to end. Covers the LC closed form (nominal
//! `C > 0`) and the L-only limit (`C = 0`).
//!
//! Run with `cargo run -p ssn-bench --bin mc_soa --release`; pass a sample
//! count to override the default (the CI smoke uses a small one).

use ssn_bench::Table;
use ssn_core::durable::DurableOptions;
use ssn_core::montecarlo::{
    perturb_batch, run_monte_carlo_durable_with_path, McBatch, McPath, VariationSpec,
};
use ssn_core::parallel::ExecPolicy;
use ssn_core::scenario::SsnScenario;
use ssn_core::{lcmodel, lmodel};
use ssn_devices::process::Process;
use ssn_devices::Asdm;
use ssn_numeric::rng::Rng;
use ssn_units::{Farads, Henrys, Seconds, Siemens, Volts};
use std::time::{Duration, Instant};

const DEFAULT_SAMPLES: usize = 40_000;
const SEED: u64 = 1;
/// Best-of-N wall clock to damp scheduler noise.
const REPEATS: usize = 3;

fn scenario(c: Farads) -> Result<SsnScenario, ssn_core::SsnError> {
    SsnScenario::builder(&Process::p018())
        .drivers(8)
        .capacitance(c)
        .rise_time(Seconds::from_nanos(0.5))
        .build()
}

/// Best-of-`REPEATS` run, returning (sorted samples, best wall).
fn best_run(
    s: &SsnScenario,
    spec: &VariationSpec,
    samples: usize,
    policy: &ExecPolicy,
    path: McPath,
) -> Result<(Vec<f64>, Duration), Box<dyn std::error::Error>> {
    let mut best: Option<(Vec<f64>, Duration)> = None;
    for _ in 0..REPEATS {
        let (mc, stats, _) = run_monte_carlo_durable_with_path(
            s,
            spec,
            samples,
            SEED,
            policy,
            &DurableOptions::none(),
            path,
        )?;
        let wall = stats.wall;
        match &best {
            Some((_, w)) if *w <= wall => {}
            _ => best = Some((mc.samples().to_vec(), wall)),
        }
    }
    Ok(best.expect("REPEATS >= 1"))
}

/// Best-of-`REPEATS` wall clock of the scalar eval stage (scenario rebuild
/// + `vn_max` per sample) over a pre-drawn batch — no RNG in the loop.
fn scalar_eval_wall(s: &SsnScenario, batch: &McBatch) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let mut acc = 0.0;
        for i in 0..batch.len() {
            let asdm = Asdm::new(
                Siemens::new(batch.k()[i]),
                batch.sigma()[i],
                Volts::new(batch.v0()[i]),
            );
            let varied = SsnScenario::from_asdm(asdm, s.vdd())
                .drivers(s.n_drivers())
                .inductance(Henrys::new(batch.l()[i]))
                .capacitance(Farads::new(batch.c()[i]))
                .rise_time(s.rise_time())
                .rail(s.rail())
                .build()
                .expect("perturbed scenario stays valid");
            acc += lcmodel::vn_max(&varied).0.value();
        }
        best = best.min(t.elapsed());
        std::hint::black_box(acc);
    }
    best
}

/// Best-of-`REPEATS` wall clock of the slab eval stage on the same batch.
fn slab_eval_wall(s: &SsnScenario, batch: &McBatch, out: &mut [f64]) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPEATS {
        let t = Instant::now();
        if s.capacitance().value() == 0.0 {
            lmodel::vn_max_slab(s, batch.k(), batch.sigma(), batch.v0(), batch.l(), out);
        } else {
            lcmodel::vn_max_slab(
                s,
                batch.k(),
                batch.sigma(),
                batch.v0(),
                batch.l(),
                batch.c(),
                out,
            );
        }
        best = best.min(t.elapsed());
        std::hint::black_box(&*out);
    }
    best
}

/// Best-of-`REPEATS` wall clock of the perturbation stage alone — the
/// pinned v2 stream both paths must consume draw for draw.
fn perturb_wall(s: &SsnScenario, spec: &VariationSpec, samples: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPEATS {
        let mut rng = Rng::from_seed_and_stream(SEED, 0);
        let t = Instant::now();
        let batch = perturb_batch(s, spec, &mut rng, samples);
        best = best.min(t.elapsed());
        std::hint::black_box(&batch);
    }
    best
}

fn rate(samples: usize, wall: Duration) -> f64 {
    samples as f64 / wall.as_secs_f64().max(1e-9)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let samples: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(DEFAULT_SAMPLES);
    let spec = VariationSpec::typical();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("== PERF2: batched SoA vs scalar Monte Carlo ({samples} samples, {cores} hardware thread(s)) ==");

    let mut table = Table::new(&[
        "model",
        "path",
        "telemetry",
        "threads",
        "wall (s)",
        "samples/s",
        "speedup",
        "bit-identical",
    ]);
    let mut stages = Table::new(&[
        "model",
        "stage",
        "ns/sample",
        "samples/s",
        "speedup",
        "pinned",
    ]);
    let mut worst_serial_speedup = f64::INFINITY;

    for (model, c) in [("LC", Farads::from_picos(1.0)), ("L-only", Farads::ZERO)] {
        let s = scenario(c)?;

        // -- end-to-end, telemetry off ----------------------------------
        let (reference, scalar_wall) =
            best_run(&s, &spec, samples, &ExecPolicy::serial(), McPath::Scalar)?;
        let scalar_rate = rate(samples, scalar_wall);
        table.row(&[
            model.to_owned(),
            "scalar".to_owned(),
            "off".to_owned(),
            "1".to_owned(),
            format!("{:.4}", scalar_wall.as_secs_f64()),
            format!("{scalar_rate:.0}"),
            "1.00x".to_owned(),
            "reference".to_owned(),
        ]);

        let (batched, batched_wall) =
            best_run(&s, &spec, samples, &ExecPolicy::serial(), McPath::Batched)?;
        assert!(
            batched == reference,
            "{model}: batched serial samples diverge from the scalar reference"
        );
        let batched_rate = rate(samples, batched_wall);
        let serial_speedup = batched_rate / scalar_rate;
        worst_serial_speedup = worst_serial_speedup.min(serial_speedup);
        table.row(&[
            model.to_owned(),
            "batched".to_owned(),
            "off".to_owned(),
            "1".to_owned(),
            format!("{:.4}", batched_wall.as_secs_f64()),
            format!("{batched_rate:.0}"),
            format!("{serial_speedup:.2}x"),
            "yes".to_owned(),
        ]);

        for threads in [2usize, 4, 8] {
            let (mc, wall) = best_run(
                &s,
                &spec,
                samples,
                &ExecPolicy::with_threads(threads),
                McPath::Batched,
            )?;
            assert!(
                mc == reference,
                "{model}: batched samples diverge at {threads} threads"
            );
            table.row(&[
                model.to_owned(),
                "batched".to_owned(),
                "off".to_owned(),
                threads.to_string(),
                format!("{:.4}", wall.as_secs_f64()),
                format!("{:.0}", rate(samples, wall)),
                format!("{:.2}x", rate(samples, wall) / scalar_rate),
                "yes".to_owned(),
            ]);
        }

        // -- end-to-end, instrumented -----------------------------------
        // The configuration the refactor was motivated by: a recording
        // session makes every span real. The scalar path opens two spans
        // per *sample*; the batched path opens two per *chunk*.
        let session = ssn_telemetry::Session::start();
        let (instr_scalar, instr_scalar_wall) =
            best_run(&s, &spec, samples, &ExecPolicy::serial(), McPath::Scalar)?;
        let (instr_batched, instr_batched_wall) =
            best_run(&s, &spec, samples, &ExecPolicy::serial(), McPath::Batched)?;
        drop(session.finish());
        assert!(
            instr_scalar == reference && instr_batched == reference,
            "{model}: instrumentation must never change results"
        );
        for (path, wall) in [
            ("scalar", instr_scalar_wall),
            ("batched", instr_batched_wall),
        ] {
            table.row(&[
                model.to_owned(),
                path.to_owned(),
                "on".to_owned(),
                "1".to_owned(),
                format!("{:.4}", wall.as_secs_f64()),
                format!("{:.0}", rate(samples, wall)),
                format!(
                    "{:.2}x",
                    rate(samples, wall) / rate(samples, instr_scalar_wall)
                ),
                "yes".to_owned(),
            ]);
        }

        // -- stage isolation --------------------------------------------
        let mut rng = Rng::from_seed_and_stream(SEED, 0);
        let batch = perturb_batch(&s, &spec, &mut rng, samples);
        let mut out = vec![0.0; samples];
        let perturb = perturb_wall(&s, &spec, samples);
        let eval_scalar = scalar_eval_wall(&s, &batch);
        let eval_slab = slab_eval_wall(&s, &batch, &mut out);
        let ns = |d: Duration| d.as_secs_f64() / samples as f64 * 1e9;
        stages.row(&[
            model.to_owned(),
            "perturb (v2 ziggurat stream)".to_owned(),
            format!("{:.1}", ns(perturb)),
            format!("{:.0}", rate(samples, perturb)),
            "shared".to_owned(),
            "yes (stream v2)".to_owned(),
        ]);
        stages.row(&[
            model.to_owned(),
            "eval: scalar rebuild+vn_max".to_owned(),
            format!("{:.1}", ns(eval_scalar)),
            format!("{:.0}", rate(samples, eval_scalar)),
            "1.00x".to_owned(),
            "no".to_owned(),
        ]);
        stages.row(&[
            model.to_owned(),
            "eval: slab kernel".to_owned(),
            format!("{:.1}", ns(eval_slab)),
            format!("{:.0}", rate(samples, eval_slab)),
            format!(
                "{:.2}x",
                eval_scalar.as_secs_f64() / eval_slab.as_secs_f64().max(1e-12)
            ),
            "no".to_owned(),
        ]);
        let amdahl =
            (perturb + eval_scalar).as_secs_f64() / (perturb + eval_slab).as_secs_f64().max(1e-12);
        println!(
            "{model}: pinned perturb floor {:.1} ns/sample -> Amdahl-bounded end-to-end speedup {:.2}x",
            ns(perturb),
            amdahl
        );
    }

    println!("{table}");
    println!("{stages}");
    println!("worst raw serial batched/scalar speedup: {worst_serial_speedup:.2}x");
    println!("every batched run bit-identical to the scalar serial reference.");
    table.write_csv("perf2_mc_soa")?;
    stages.write_csv("perf2_mc_soa_stages")?;
    Ok(())
}
