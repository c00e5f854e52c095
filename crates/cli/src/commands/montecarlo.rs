//! `ssn montecarlo` — variation/yield analysis.

use super::{
    durable_options, exec_policy, resolve_process, with_telemetry, TelemetryMode, DURABLE_HELP,
};
use crate::args::ParsedArgs;
use crate::error::CliError;
use ssn_core::faults::Faults;
use ssn_core::lcmodel;
use ssn_core::montecarlo::{run_monte_carlo_durable_with_path, McPath, VariationSpec};
use ssn_core::report::run_footer;
use ssn_core::scenario::SsnScenario;
use ssn_units::{Seconds, Volts};
use std::io::Write;

const HELP: &str = "\
usage: ssn montecarlo --process <p018|p025|p035> --drivers <N> [options]

options:
    --rise-time <t>     input rise time (default 0.5n)
    --samples <n>       Monte Carlo samples (default 2000)
    --seed <u64>        RNG seed (default 1)
    --threads <n>       worker threads (default: all hardware threads;
                        results are identical for every thread count)
    --budget <V>        also report the yield against this budget
    --k-frac <x>        fractional sigma of K (default 0.08)
    --l-frac <x>        fractional sigma of L (default 0.10)
    --c-frac <x>        fractional sigma of C (default 0.15)
    --path <p>          evaluation path: batched (default) or scalar (the
                        pre-SoA reference); bit-identical results either way
    --telemetry[=json:<path>]
                        profile the run: print a per-stage breakdown table,
                        or write the span/counter stream as JSON lines to
                        <path>; never changes the results
";

/// Runs the command.
///
/// # Errors
///
/// Usage errors for bad options; analysis errors from the suite.
pub fn run<W: Write>(argv: &[String], faults: &Faults, out: &mut W) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "process",
            "drivers",
            "rise-time",
            "samples",
            "seed",
            "threads",
            "budget",
            "k-frac",
            "l-frac",
            "c-frac",
            "path",
            "checkpoint",
            "deadline",
        ],
        &["help", "telemetry", "resume"],
    )?;
    if args.wants_help() {
        writeln!(out, "{HELP}{DURABLE_HELP}")?;
        return Ok(());
    }
    let process = resolve_process(
        args.value("process")
            .ok_or_else(|| CliError::usage("--process is required"))?,
    )?;
    let drivers: usize = args.required("drivers")?;
    let samples: usize = args.parsed_or("samples", 2000)?;
    let seed: u64 = args.parsed_or("seed", 1)?;
    let policy = exec_policy(&args, faults)?;

    let scenario = SsnScenario::builder(&process)
        .drivers(drivers)
        .rise_time(args.parsed_or("rise-time", Seconds::from_nanos(0.5))?)
        .build()?;
    let spec = VariationSpec {
        k_frac: args.parsed_or("k-frac", 0.08)?,
        l_frac: args.parsed_or("l-frac", 0.10)?,
        c_frac: args.parsed_or("c-frac", 0.15)?,
        ..VariationSpec::typical()
    };
    let path = match args.value("path") {
        None => McPath::default(),
        Some("batched") => McPath::Batched,
        Some("scalar") => McPath::Scalar,
        Some(other) => {
            return Err(CliError::usage(&format!(
                "--path must be batched or scalar, got {other}"
            )))
        }
    };
    let telemetry = TelemetryMode::from_args(&args)?;
    let budget = args.parsed::<Volts>("budget")?;
    let durable = durable_options(&args)?;
    with_telemetry(&telemetry, "cli.montecarlo", out, |out| {
        let (mc, stats, durability) = run_monte_carlo_durable_with_path(
            &scenario, &spec, samples, seed, &policy, &durable, path,
        )?;

        writeln!(out, "nominal Vn_max: {}", lcmodel::vn_max(&scenario).0)?;
        if stats.failed_chunks > 0 {
            writeln!(
                out,
                "warning: {} chunk(s) failed; statistics cover the {} surviving samples",
                stats.failed_chunks,
                mc.len()
            )?;
        }
        writeln!(
            out,
            "{} samples: mean {} sd {}",
            mc.len(),
            mc.mean(),
            mc.std_dev()
        )?;
        for q in [0.5, 0.9, 0.95, 0.99] {
            writeln!(out, "  q{:<4} {}", (q * 100.0) as u32, mc.quantile(q))?;
        }
        if let Some(budget) = budget {
            writeln!(
                out,
                "yield within {budget}: {:.1}%",
                mc.yield_within(budget) * 100.0
            )?;
        }
        write!(out, "{}", run_footer(&stats, &durability))?;
        Ok(())
    })
}
