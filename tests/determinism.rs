//! Determinism contract of the parallel scenario engine: for a fixed seed,
//! the thread count must never change any result — not the samples, not the
//! derived statistics, not the histogram, not a design-grid sweep.
//!
//! The engine guarantees this by construction (fixed-size chunks with
//! per-chunk RNG streams, assembled in chunk order); these tests pin the
//! contract end to end through the public APIs.

use ssn_lab::core::design::sweep_design_grid;
use ssn_lab::core::montecarlo::{run_monte_carlo_with, VariationSpec, MC_CHUNK};
use ssn_lab::core::optimize::{search, DesignSpace, OptimizeOptions};
use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::core::telemetry;
use ssn_lab::devices::Asdm;
use ssn_lab::units::{Farads, Henrys, Seconds, Siemens, Volts};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Telemetry recording is process-global: while one test holds a
/// [`telemetry::Session`], spans from a concurrently running test would
/// leak into its report. Every test in this file takes this lock so the
/// session-holding tests observe only their own work.
static TELEMETRY_TESTS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TELEMETRY_TESTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn scenario(n: usize) -> SsnScenario {
    let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
    SsnScenario::from_asdm(asdm, Volts::new(1.8))
        .drivers(n)
        .inductance(Henrys::from_nanos(5.0))
        .capacitance(Farads::from_picos(1.0))
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .expect("valid scenario")
}

#[test]
fn monte_carlo_is_bit_identical_across_thread_counts() {
    let _guard = lock();
    let s = scenario(8);
    let spec = VariationSpec::typical();
    // A sample count that is not a chunk multiple, spanning several chunks.
    let n_samples = 2 * MC_CHUNK + 137;
    let seed = 0xD1CE;

    let (reference, serial_stats) =
        run_monte_carlo_with(&s, &spec, n_samples, seed, &ExecPolicy::serial())
            .expect("serial run");
    assert_eq!(serial_stats.threads, 1);
    assert_eq!(serial_stats.items, n_samples);

    for threads in [1usize, 2, 8] {
        let (mc, stats) = run_monte_carlo_with(
            &s,
            &spec,
            n_samples,
            seed,
            &ExecPolicy::with_threads(threads),
        )
        .expect("parallel run");
        assert_eq!(stats.items, n_samples);

        // Bit-identical: raw sample streams first, then every statistic a
        // consumer can observe.
        assert_eq!(
            mc.samples(),
            reference.samples(),
            "samples differ at {threads} threads"
        );
        assert_eq!(
            mc.mean(),
            reference.mean(),
            "mean differs at {threads} threads"
        );
        assert_eq!(
            mc.std_dev(),
            reference.std_dev(),
            "std dev differs at {threads} threads"
        );
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99] {
            assert_eq!(
                mc.quantile(q),
                reference.quantile(q),
                "q{q} differs at {threads} threads"
            );
        }
        let (h, href) = (mc.histogram(32), reference.histogram(32));
        assert_eq!(h.lo, href.lo, "histogram lo differs at {threads} threads");
        assert_eq!(h.hi, href.hi, "histogram hi differs at {threads} threads");
        assert_eq!(
            h.counts, href.counts,
            "histogram counts differ at {threads} threads"
        );
    }
}

#[test]
fn monte_carlo_auto_policy_matches_serial() {
    let _guard = lock();
    let s = scenario(4);
    let spec = VariationSpec::typical();
    let (serial, _) =
        run_monte_carlo_with(&s, &spec, 500, 7, &ExecPolicy::serial()).expect("serial");
    let (auto, _) = run_monte_carlo_with(&s, &spec, 500, 7, &ExecPolicy::auto()).expect("auto");
    assert_eq!(serial.samples(), auto.samples());
}

#[test]
fn different_seeds_differ() {
    let _guard = lock();
    // Guards against a degenerate "deterministic because constant" engine.
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let (a, _) = run_monte_carlo_with(&s, &spec, 300, 1, &ExecPolicy::auto()).expect("run");
    let (b, _) = run_monte_carlo_with(&s, &spec, 300, 2, &ExecPolicy::auto()).expect("run");
    assert_ne!(a.samples(), b.samples());
}

#[test]
fn design_grid_is_identical_across_thread_counts() {
    let _guard = lock();
    let template = scenario(8);
    let drivers: Vec<usize> = (1..=24).collect();
    let inductances: Vec<Henrys> = (1..=8).map(|l| Henrys::from_nanos(l as f64)).collect();

    let (reference, stats) =
        sweep_design_grid(&template, &drivers, &inductances, &ExecPolicy::serial())
            .expect("serial sweep");
    assert_eq!(stats.items, drivers.len() * inductances.len());

    for threads in [2usize, 8] {
        let (points, _) = sweep_design_grid(
            &template,
            &drivers,
            &inductances,
            &ExecPolicy::with_threads(threads),
        )
        .expect("parallel sweep");
        assert_eq!(points, reference, "grid differs at {threads} threads");
    }
}

#[test]
fn telemetry_is_present_and_sane() {
    let _guard = lock();
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let (_, stats) =
        run_monte_carlo_with(&s, &spec, 1000, 1, &ExecPolicy::with_threads(2)).expect("run");
    assert_eq!(stats.items, 1000);
    assert!(stats.threads >= 1);
    assert!(stats.items_per_sec() > 0.0);
    assert!(stats.utilization() >= 0.0);
    let line = stats.to_string();
    assert!(line.contains("1000 evaluations"), "telemetry line: {line}");
    assert!(line.contains("eval/s"), "telemetry line: {line}");
}

#[test]
fn telemetry_on_and_off_are_bit_identical_at_every_thread_count() {
    let _guard = lock();
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let n_samples = MC_CHUNK + 61;
    let seed = 0xBEEF;
    let drivers: Vec<usize> = (1..=12).collect();
    let inductances: Vec<Henrys> = (1..=6).map(|l| Henrys::from_nanos(l as f64)).collect();

    for threads in [1usize, 2, 4, 8] {
        let policy = ExecPolicy::with_threads(threads);
        // Telemetry off (no session): the baseline.
        let (mc_off, _) =
            run_monte_carlo_with(&s, &spec, n_samples, seed, &policy).expect("mc off");
        let (grid_off, _) =
            sweep_design_grid(&s, &drivers, &inductances, &policy).expect("grid off");

        // Telemetry on: identical numbers, plus a non-empty report.
        let session = telemetry::Session::start();
        let (mc_on, grid_on) = {
            let _root = telemetry::span("test.determinism");
            let (mc_on, _) =
                run_monte_carlo_with(&s, &spec, n_samples, seed, &policy).expect("mc on");
            let (grid_on, _) =
                sweep_design_grid(&s, &drivers, &inductances, &policy).expect("grid on");
            (mc_on, grid_on)
        };
        let report = session.finish();

        assert_eq!(
            mc_on.samples(),
            mc_off.samples(),
            "telemetry changed Monte Carlo samples at {threads} threads"
        );
        assert_eq!(
            grid_on, grid_off,
            "telemetry changed the design grid at {threads} threads"
        );
        assert!(
            !report.is_empty(),
            "no telemetry recorded at {threads} threads"
        );
        assert!(
            report.spans.iter().any(|sp| sp.path.ends_with("mc.run")),
            "missing mc.run span at {threads} threads: {report:?}"
        );
        assert!(
            report
                .spans
                .iter()
                .any(|sp| sp.path.ends_with("mc.run.mc.collect")),
            "missing mc.collect span under mc.run at {threads} threads: {report:?}"
        );
        assert!(
            report.spans.iter().any(|sp| sp.path.ends_with("grid.run")),
            "missing grid.run span at {threads} threads: {report:?}"
        );
        assert_eq!(
            report.counter("mc.samples"),
            Some(n_samples as u64),
            "mc.samples counter wrong at {threads} threads"
        );
        assert_eq!(
            report.counter("grid.points"),
            Some((drivers.len() * inductances.len()) as u64),
            "grid.points counter wrong at {threads} threads"
        );
    }
}

/// The optimizer's front bookkeeping has its own stages under
/// `opt.refine` — `opt.select` (skip decisions) and `opt.merge` (front
/// merge), beside the evaluation's `durable.run` — and recording them
/// changes nothing: the outcome is bit-identical with telemetry on and off.
#[test]
fn optimizer_bookkeeping_spans_appear_and_leave_the_front_unchanged() {
    let _guard = lock();
    let template = scenario(8);
    let space = DesignSpace {
        drivers: (1..=12).collect(),
        inductances: (1..=6)
            .map(|i| Henrys::from_nanos(i as f64 * 1.5))
            .collect(),
        capacitances: vec![Farads::from_picos(0.5), Farads::from_picos(2.0)],
        rise_times: vec![Seconds::from_nanos(0.3), Seconds::from_nanos(0.8)],
    };
    let opts = OptimizeOptions::default();
    let policy = ExecPolicy::with_threads(2);
    let (off, _) = search(&template, &space, &opts, &policy).expect("search off");

    let session = telemetry::Session::start();
    let on = {
        let _root = telemetry::span("test.optimize");
        search(&template, &space, &opts, &policy)
            .expect("search on")
            .0
    };
    let report = session.finish();

    // `==` compares every count and member field; `same_front` the bits.
    assert_eq!(on, off, "telemetry changed the search outcome");
    assert!(on.front.same_front(&off.front));
    for stage in ["opt.select", "opt.merge", "durable.run"] {
        let path = format!("test.optimize.opt.refine.{stage}");
        let span = report
            .span(&path)
            .unwrap_or_else(|| panic!("missing {path} span: {report:?}"));
        assert!(span.count > 0, "{path} never ran");
    }
}

/// Zeroes every timing value so two JSON streams of the same run can be
/// compared exactly: the digit runs after `"total_ns":` / `"self_ns":`,
/// and the `"value":` of counters whose name carries the `_ns` suffix
/// (the convention for nanosecond-valued counters).
fn strip_timings(stream: &str) -> String {
    let mut out = String::with_capacity(stream.len());
    for line in stream.lines() {
        let mut rest = line;
        while let Some(pos) = rest.find("_ns\":") {
            let (head, tail) = rest.split_at(pos + "_ns\":".len());
            out.push_str(head);
            out.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        if line.contains("\"type\":\"counter\"") && line.contains("_ns\",") {
            if let Some(pos) = rest.find("\"value\":") {
                let (head, tail) = rest.split_at(pos + "\"value\":".len());
                out.push_str(head);
                out.push('0');
                rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
            }
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

#[test]
fn telemetry_json_stream_is_stable_modulo_timing() {
    let _guard = lock();
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let policy = ExecPolicy::with_threads(2);

    let streams: Vec<String> = (0..2)
        .map(|_| {
            let session = telemetry::Session::start();
            {
                let _root = telemetry::span("test.json_stability");
                let _ = run_monte_carlo_with(&s, &spec, 400, 3, &policy).expect("run");
            }
            session.finish().to_json_lines()
        })
        .collect();

    assert_eq!(
        strip_timings(&streams[0]),
        strip_timings(&streams[1]),
        "same run, different structure:\n--- a ---\n{}\n--- b ---\n{}",
        streams[0],
        streams[1]
    );
    // And the sanitised stream still validates against the schema.
    telemetry::json::validate_lines(&strip_timings(&streams[0])).expect("valid after stripping");
}
