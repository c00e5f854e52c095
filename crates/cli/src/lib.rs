#![warn(missing_docs)]

//! The `ssn` command-line tool.
//!
//! A thin, scriptable front end over the SSN suite:
//!
//! ```text
//! ssn estimate --process p018 --drivers 8 [--rise-time 0.5n] [--simulate]
//! ssn sweep    --process p018 --max-drivers 16 [--csv out.csv]
//! ssn budget   --process p018 --drivers 32 --budget 450m
//! ssn simulate deck.sp [--probe node]...
//! ```
//!
//! All machinery lives in [`run`] so the whole tool is testable without
//! spawning processes; `main.rs` only forwards `std::env::args`.

mod args;
mod commands;
mod error;

pub use args::ParsedArgs;
pub use error::CliError;

use ssn_core::faults::{FaultPlan, Faults};
use std::io::Write;

/// Top-level usage text.
pub const USAGE: &str = "\
ssn — simultaneous switching noise estimation (Ding & Mazumder, DATE 2002)

USAGE:
    ssn <command> [options]

COMMANDS:
    estimate    closed-form SSN estimate for a driver bank
    fit         fit the ASDM to a process's golden device
    sweep       max SSN vs driver count, with prior-model comparison
    budget      design advisor: fit a bank under a noise budget
    montecarlo  variation/yield analysis of the estimate
    impedance   AC impedance of the ground network
    simulate    run a SPICE deck and report probed waveforms
    validate    differential oracle: closed forms vs MNA over a corpus
    optimize    inverse design: Pareto front over the (N, L, C, tr) space
    serve       HTTP service: sync answers, durable jobs, graceful drain
    help        show this text

Run `ssn <command> --help` for command options. Quantities accept SI/SPICE
suffixes: 0.5n, 450m, 2.2p, 1MEG.

EXIT CODES:
    0  success               6  model fit / numeric failure
    2  usage error           7  simulator failure
    3  i/o failure           8  waveform failure
    4  invalid input         9  every parallel chunk failed
    5  invalid scenario     10  differential validation violations
   11  unusable checkpoint journal (corrupt / wrong version / wrong spec)
   12  run interrupted with a checkpoint (rerun with --resume to continue)
   13  deadline expired before any work item completed
   14  serve: drain exceeded its deadline (interrupted jobs stay resumable)
   15  serve: could not bind the listen address
   16  optimize: no feasible design point under --max-noise-frac
Errors print one structured stderr line: `ssn: error kind=... exit=...: ...`.

ENVIRONMENT:
    SSN_FAULTS  deterministic fault plan for drills, e.g.
                seed=2,eio=0.1,crash_after_commits=2 (keys in README);
                a malformed plan is a usage error (exit 2)
";

/// Executes the CLI with explicit arguments and output sink, fault-free.
///
/// `argv` excludes the program name (pass `std::env::args().skip(1)`).
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, malformed options, or any
/// analysis failure; the caller maps it to an exit code.
pub fn run<W: Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    run_with_faults(argv, None, out)
}

/// [`run`] under a fault plan: `faults` is the `SSN_FAULTS` text (the
/// binary passes the environment variable), armed once for the whole
/// invocation — fault drills for CI and operator rehearsal.
///
/// # Errors
///
/// As [`run`]; a malformed plan is a usage error, so a drill never runs
/// silently fault-free.
pub fn run_with_faults<W: Write>(
    argv: &[String],
    faults: Option<&str>,
    out: &mut W,
) -> Result<(), CliError> {
    let faults = match faults {
        Some(spec) => {
            Faults::arm(FaultPlan::parse(spec).map_err(|e| CliError::usage(e.to_string()))?)
        }
        None => Faults::none(),
    };
    let Some(command) = argv.first() else {
        writeln!(out, "{USAGE}")?;
        return Err(CliError::usage("missing command"));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "estimate" => commands::estimate::run(rest, out),
        "fit" => commands::fit::run(rest, out),
        "sweep" => commands::sweep::run(rest, &faults, out),
        "budget" => commands::budget::run(rest, &faults, out),
        "montecarlo" => commands::montecarlo::run(rest, &faults, out),
        "impedance" => commands::impedance::run(rest, out),
        "simulate" => commands::simulate::run(rest, out),
        "validate" => commands::validate::run(rest, &faults, out),
        "optimize" => commands::optimize::run(rest, &faults, out),
        "serve" => commands::serve::run(rest, &faults, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => {
            writeln!(out, "{USAGE}")?;
            Err(CliError::usage(format!("unknown command {other:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> (Result<(), CliError>, String) {
        run_under(argv, None)
    }

    fn run_under(argv: &[&str], faults: Option<&str>) -> (Result<(), CliError>, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let res = run_with_faults(&argv, faults, &mut buf);
        (res, String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn malformed_fault_plan_is_a_usage_error() {
        // `torn` is ambiguous between the storage and network sites.
        let (res, _) = run_under(
            &[
                "montecarlo",
                "--process",
                "p018",
                "--drivers",
                "4",
                "--samples",
                "64",
            ],
            Some("seed=1,torn=0.1"),
        );
        let err = res.expect_err("a malformed plan must not run");
        assert!(matches!(err, CliError::Usage { .. }), "{err}");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn malformed_fault_plan_stops_serve_before_it_listens() {
        let (res, text) = run_under(&["serve", "--addr", "127.0.0.1:0"], Some("panic=1"));
        let err = res.expect_err("serve must refuse to start");
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(!text.contains("listening"), "{text}");
    }

    #[test]
    fn a_well_formed_plan_reaches_the_run() {
        let journal =
            std::env::temp_dir().join(format!("ssn-cli-faults-{}.ckpt", std::process::id()));
        let (res, _) = run_under(
            &[
                "montecarlo",
                "--process",
                "p018",
                "--drivers",
                "4",
                "--samples",
                "1024",
                "--threads",
                "1",
                "--checkpoint",
                journal.to_str().expect("utf8 temp path"),
            ],
            Some("crash_after_commits=1"),
        );
        let _ = std::fs::remove_file(&journal);
        let err = res.expect_err("the planned crash must interrupt the run");
        assert_eq!(err.exit_code(), 12, "{err}");
    }

    #[test]
    fn help_prints_usage() {
        let (res, text) = run_to_string(&["help"]);
        assert!(res.is_ok());
        assert!(text.contains("USAGE"));
        assert!(text.contains("estimate"));
    }

    #[test]
    fn missing_command_is_an_error_with_usage() {
        let (res, text) = run_to_string(&[]);
        assert!(res.is_err());
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let (res, _) = run_to_string(&["frobnicate"]);
        assert!(matches!(res, Err(CliError::Usage { .. })));
    }

    #[test]
    fn estimate_end_to_end() {
        let (res, text) = run_to_string(&[
            "estimate",
            "--process",
            "p018",
            "--drivers",
            "8",
            "--rise-time",
            "0.5n",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("Vn_max"), "{text}");
        assert!(text.contains("case"), "{text}");
    }

    #[test]
    fn estimate_with_simulation() {
        let (res, text) = run_to_string(&[
            "estimate",
            "--process",
            "p018",
            "--drivers",
            "4",
            "--simulate",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("simulated"), "{text}");
        assert!(text.contains('%'), "{text}");
    }

    #[test]
    fn estimate_full_report() {
        let (res, text) =
            run_to_string(&["estimate", "--process", "p018", "--drivers", "8", "--full"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("SSN assessment"), "{text}");
        assert!(text.contains("budget check"), "{text}");
    }

    #[test]
    fn sweep_produces_table() {
        let (res, text) = run_to_string(&[
            "sweep",
            "--process",
            "p018",
            "--max-drivers",
            "4",
            "--no-simulation",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.lines().count() >= 5, "{text}");
        assert!(text.contains("Vemuru"), "{text}");
    }

    #[test]
    fn budget_advises() {
        let (res, text) = run_to_string(&[
            "budget",
            "--process",
            "p018",
            "--drivers",
            "32",
            "--budget",
            "450m",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("simultaneous"), "{text}");
        assert!(text.contains("rise time"), "{text}");
        assert!(text.contains("groups"), "{text}");
    }

    #[test]
    fn simulate_runs_a_deck_file() {
        let dir = std::env::temp_dir().join("ssn_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("rc.sp");
        std::fs::write(
            &path,
            "rc step\nVin in 0 DC 1\nR1 in out 1k\nC1 out 0 1n IC=0\n.tran 1n 5u UIC\n.end\n",
        )
        .expect("write deck");
        let (res, text) = run_to_string(&[
            "simulate",
            path.to_str().expect("utf8 path"),
            "--probe",
            "out",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("out"), "{text}");
        assert!(text.contains("peak"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn montecarlo_reports_quantiles() {
        let (res, text) = run_to_string(&[
            "montecarlo",
            "--process",
            "p018",
            "--drivers",
            "8",
            "--samples",
            "200",
            "--budget",
            "750m",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("q95"), "{text}");
        assert!(text.contains("yield"), "{text}");
    }

    #[test]
    fn montecarlo_telemetry_prints_stage_breakdown() {
        let (res, text) = run_to_string(&[
            "montecarlo",
            "--process",
            "p018",
            "--drivers",
            "8",
            "--samples",
            "300",
            "--threads",
            "1",
            "--telemetry",
        ]);
        assert!(res.is_ok(), "{text}");
        // The normal report is still there ...
        assert!(text.contains("q95"), "{text}");
        // ... followed by the per-stage breakdown.
        assert!(text.contains("per-stage breakdown"), "{text}");
        assert!(text.contains("cli.montecarlo"), "{text}");
        assert!(text.contains("mc.run"), "{text}");
        // The batched default reports per-chunk stages, not per-sample ones.
        assert!(text.contains("mc.perturb"), "{text}");
        assert!(text.contains("mc.eval"), "{text}");
        assert!(text.contains("model.lc.vn_max_slab"), "{text}");
        assert!(text.contains("parallel.sched_wait"), "{text}");
        assert!(text.contains("mc.samples"), "{text}");
        assert!(text.contains("% wall"), "{text}");
    }

    #[test]
    fn montecarlo_scalar_path_keeps_per_sample_spans_and_identical_results() {
        let run = |path_args: &[&str]| {
            let mut argv = vec![
                "montecarlo",
                "--process",
                "p018",
                "--drivers",
                "8",
                "--samples",
                "300",
                "--threads",
                "1",
            ];
            argv.extend_from_slice(path_args);
            run_to_string(&argv)
        };
        let (res, batched) = run(&[]);
        assert!(res.is_ok(), "{batched}");
        let (res, scalar) = run(&["--path", "scalar"]);
        assert!(res.is_ok(), "{scalar}");
        // The path flag never changes the report: same samples, same
        // stats. The `run:` footer line is excluded — it reports measured
        // wall-clock throughput, which is nondeterministic by nature.
        let strip_timing = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("run: "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip_timing(&batched), strip_timing(&scalar));
        // On the scalar reference the old per-sample spans are still live.
        let (res, text) = run(&["--path", "scalar", "--telemetry"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("mc.sample"), "{text}");
        assert!(!text.contains("mc.perturb"), "{text}");

        let (res, _) = run(&["--path", "sideways"]);
        let err = res
            .expect_err("bogus path must be a usage error")
            .to_string();
        assert!(err.contains("batched or scalar"), "{err}");
    }

    #[test]
    fn budget_telemetry_shows_the_solver_ladder() {
        let (res, text) = run_to_string(&[
            "budget",
            "--process",
            "p018",
            "--drivers",
            "32",
            "--budget",
            "450m",
            "--telemetry",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("per-stage breakdown"), "{text}");
        assert!(text.contains("design.rise_time"), "{text}");
        assert!(text.contains("design.peak_search"), "{text}");
        assert!(text.contains("solve.ladder"), "{text}");
        assert!(text.contains("solve.rung.brent"), "{text}");
    }

    #[test]
    fn montecarlo_telemetry_json_stream_validates() {
        let dir = std::env::temp_dir().join("ssn_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("mc_telemetry.jsonl");
        let path_str = path.to_str().expect("utf8 path");
        let (res, text) = run_to_string(&[
            "montecarlo",
            "--process",
            "p018",
            "--drivers",
            "4",
            "--samples",
            "200",
            "--threads",
            "2",
            &format!("--telemetry=json:{path_str}"),
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("telemetry: wrote"), "{text}");
        // No table in JSON mode; the stream validates against the schema.
        assert!(!text.contains("per-stage breakdown"), "{text}");
        let stream = std::fs::read_to_string(&path).expect("read stream");
        let stats = ssn_telemetry::json::validate_lines(&stream).expect("valid stream");
        assert!(
            stats.meta >= 1 && stats.spans >= 1 && stats.counters >= 1,
            "{stats}"
        );
        assert!(stream.contains("mc.run"), "{stream}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_rejects_malformed_values() {
        for bad in ["--telemetry=csv", "--telemetry=json:"] {
            let (res, _) = run_to_string(&[
                "montecarlo",
                "--process",
                "p018",
                "--drivers",
                "4",
                "--samples",
                "50",
                bad,
            ]);
            assert!(matches!(res, Err(CliError::Usage { .. })), "{bad}");
        }
    }

    #[test]
    fn impedance_finds_resonance() {
        let (res, text) = run_to_string(&[
            "impedance",
            "--process",
            "p018",
            "--drivers",
            "8",
            "--points",
            "10",
        ]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("resonance peak"), "{text}");
        // Bare tank resonates near 2.25 GHz.
        assert!(text.contains("e9"), "{text}");
    }

    #[test]
    fn fit_reports_parameters() {
        let (res, text) = run_to_string(&["fit", "--process", "p018"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("sigma"), "{text}");
        assert!(text.contains("fit report"), "{text}");
        // Cold corner shifts the fit.
        let (res2, cold) = run_to_string(&["fit", "--process", "p018", "--temperature", "233"]);
        assert!(res2.is_ok(), "{cold}");
        assert_ne!(text, cold);
        // Bad temperature is a usage error.
        let (res3, _) = run_to_string(&["fit", "--process", "p018", "--temperature", "-1"]);
        assert!(matches!(res3, Err(CliError::Usage { .. })));
    }

    #[test]
    fn validate_small_corpus_passes() {
        let (res, text) = run_to_string(&["validate", "--corpus", "9", "--threads", "1"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("all scenarios within budget"), "{text}");
        assert!(text.contains("case,count,violations"), "{text}");
    }

    /// Masks the measured numbers of a `run:` footer line — wall time,
    /// eval/s and utilization — keeping the item and thread counts and
    /// any trailing clauses.
    fn mask_run_timing(text: &str) -> String {
        text.lines()
            .map(|line| match line.strip_prefix("run: ") {
                Some(rest) => {
                    let (items, rest) = rest.split_once(" in ").expect("wall time");
                    let (_, rest) = rest.split_once(" s on ").expect("thread count");
                    let (threads, rest) = rest.split_once(" (").expect("rates");
                    let (_, tail) = rest.split_once(" utilization)").expect("utilization");
                    format!("run: {items} in # s on {threads} (#){tail}")
                }
                None => line.to_owned(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn a_fresh_checkpoint_changes_no_output() {
        let dir = std::env::temp_dir().join(format!("ssn-cli-fresh-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let journal = dir.join("run.ckpt");
        let journal = journal.to_str().expect("utf8 temp path");
        let commands: [&[&str]; 4] = [
            &[
                "montecarlo",
                "--process",
                "p018",
                "--drivers",
                "8",
                "--samples",
                "600",
                "--budget",
                "0.5",
            ],
            &["sweep", "--process", "p018", "--no-simulation"],
            &["validate", "--corpus", "8"],
            &[
                "optimize",
                "--process",
                "p018",
                "--max-drivers",
                "8",
                "--l-points",
                "4",
                "--c-points",
                "2",
                "--tr-points",
                "2",
            ],
        ];
        for argv in commands {
            let (res, plain) = run_to_string(argv);
            assert!(res.is_ok(), "{plain}");
            let mut with_journal = argv.to_vec();
            with_journal.extend(["--checkpoint", journal]);
            let (res, journaled) = run_to_string(&with_journal);
            assert!(res.is_ok(), "{journaled}");
            for text in [&plain, &journaled] {
                let run_line = text.lines().find(|l| l.starts_with("run: "));
                let run_line = run_line.unwrap_or_else(|| panic!("no run line: {text}"));
                assert!(!run_line.contains("elapsed across sessions"), "{run_line}");
            }
            assert_eq!(
                mask_run_timing(&plain),
                mask_run_timing(&journaled),
                "{argv:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_rejects_bad_options() {
        let (res, _) = run_to_string(&["validate", "--corpus", "4", "--threads", "0"]);
        assert!(matches!(res, Err(CliError::Usage { .. })));
        let (res, _) = run_to_string(&["validate", "--budget-scale", "-2"]);
        assert!(matches!(res, Err(CliError::Usage { .. })));
        let (res, _) = run_to_string(&["validate", "--corpus", "0"]);
        assert!(matches!(res, Err(CliError::Analysis { .. })));
    }

    #[test]
    fn bad_process_name_reports_cleanly() {
        let (res, _) = run_to_string(&["estimate", "--process", "p999", "--drivers", "8"]);
        match res {
            Err(CliError::Usage { message }) => assert!(message.contains("p999")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn command_help_flags() {
        for cmd in [
            "estimate",
            "sweep",
            "budget",
            "simulate",
            "montecarlo",
            "impedance",
            "fit",
            "validate",
            "serve",
        ] {
            let (res, text) = run_to_string(&[cmd, "--help"]);
            assert!(res.is_ok(), "{cmd}");
            assert!(
                text.contains("USAGE") || text.contains("usage"),
                "{cmd}: {text}"
            );
        }
    }
}
