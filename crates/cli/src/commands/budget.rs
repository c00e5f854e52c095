//! `ssn budget` — design advisor for a noise budget.

use super::{resolve_process, with_telemetry, TelemetryMode};
use crate::args::ParsedArgs;
use crate::error::CliError;
use ssn_core::design;
use ssn_core::faults::Faults;
use ssn_core::lcmodel;
use ssn_core::scenario::SsnScenario;
use ssn_units::{Seconds, Volts};
use std::io::Write;

const HELP: &str = "\
usage: ssn budget --process <p018|p025|p035> --drivers <N> --budget <V> [options]

options:
    --rise-time <t>     input rise time (default 0.5n)
    --telemetry[=json:<path>]
                        profile the run: print a per-stage breakdown table,
                        or write the span/counter stream as JSON lines to
                        <path>; never changes the results

prints the three mitigations of paper Section 3: the simultaneous-switching
limit, the slew-control target, and a stagger schedule.
";

/// Runs the command.
///
/// # Errors
///
/// Usage errors for bad options; analysis errors from the suite.
pub fn run<W: Write>(argv: &[String], faults: &Faults, out: &mut W) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        argv,
        &["process", "drivers", "budget", "rise-time"],
        &["help", "telemetry"],
    )?;
    if args.wants_help() {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let process = resolve_process(
        args.value("process")
            .ok_or_else(|| CliError::usage("--process is required"))?,
    )?;
    let drivers: usize = args.required("drivers")?;
    let budget: Volts = args.required("budget")?;
    let tr = args.parsed_or("rise-time", Seconds::from_nanos(0.5))?;

    let telemetry = TelemetryMode::from_args(&args)?;

    let scenario = SsnScenario::builder(&process)
        .drivers(drivers)
        .rise_time(tr)
        .build()?;
    with_telemetry(&telemetry, "cli.budget", out, |out| {
        let (unmitigated, case) = lcmodel::vn_max(&scenario);
        writeln!(
            out,
            "{drivers} drivers switching together: Vn_max = {unmitigated} [{case}]"
        )?;
        writeln!(out, "budget: {budget}")?;
        if unmitigated <= budget {
            writeln!(out, "already within budget; no mitigation needed")?;
            return Ok(());
        }
        let n_ok = design::max_simultaneous_drivers(&scenario, budget)?;
        writeln!(out, "A. simultaneous switching limit: {n_ok} drivers")?;
        match design::required_rise_time_with_report(&scenario, budget, faults) {
            Ok((tr_needed, report)) => {
                writeln!(out, "B. slew control: rise time >= {tr_needed}")?;
                writeln!(out, "   solver: {report}")?;
            }
            Err(e) => writeln!(out, "B. slew control: not achievable ({e})")?,
        }
        match design::stagger_plan(&scenario, budget) {
            Ok(plan) => writeln!(out, "C. skew schedule: {plan}")?,
            Err(e) => writeln!(out, "C. skew schedule: not achievable ({e})")?,
        }
        Ok(())
    })
}
