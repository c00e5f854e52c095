//! `ssn validate` — the corpus-scale differential oracle gate.

use super::{durable_options, exec_policy, with_telemetry, TelemetryMode, DURABLE_HELP};
use crate::args::ParsedArgs;
use crate::error::CliError;
use ssn_core::faults::Faults;
use ssn_core::grids::GridSweepOptions;
use ssn_core::oracle::{self, case_slug, OracleOptions, ReproCase, TolerancePolicy};
use ssn_core::report::run_footer;
use std::io::Write;
use std::path::{Path, PathBuf};

const HELP: &str = "\
usage: ssn validate [options]

Cross-validates the closed-form SSN models (L-only and LC) against an MNA
transient of the same linearized circuit over a seeded, stratified scenario
corpus. Fails (exit 10) when any scenario disagrees beyond its per-case
tolerance budget, after writing a minimized reproducer per violation.

options:
    --corpus <n>        corpus size (default 500)
    --seed <u64>        corpus seed (default 1)
    --threads <n>       worker threads (default: all hardware threads;
                        the summary is bit-identical for every thread count)
    --budget-scale <x>  scale every tolerance budget by x (default 1;
                        smaller is stricter)
    --max-repros <n>    cap on minimized repro files (default 8)
    --repro-dir <dir>   where repro files go (default results/repro)
    --csv <path>        also write the per-case summary CSV to <path>
    --replay <file>     re-run one repro file instead of the corpus and
                        report whether the recorded violation reproduces
    --grids <n>         run the large-circuit gate instead of the corpus:
                        n synthesized power-grid meshes (the last one
                        1024 nodes) on the sparse/GMRES solver tier, with
                        a sparse-vs-dense differential on small meshes
    --telemetry[=json:<path>]
                        profile the run: print a per-stage breakdown table,
                        or write the span/counter stream as JSON lines to
                        <path>; never changes the results
";

/// Runs the command.
///
/// # Errors
///
/// Usage errors for bad options; analysis errors from the suite;
/// [`CliError::Validation`] (exit 10) when the corpus has budget
/// violations or a replayed repro still fails.
pub fn run<W: Write>(argv: &[String], faults: &Faults, out: &mut W) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "corpus",
            "seed",
            "threads",
            "budget-scale",
            "max-repros",
            "repro-dir",
            "csv",
            "replay",
            "grids",
            "checkpoint",
            "deadline",
        ],
        &["help", "telemetry", "resume"],
    )?;
    if args.wants_help() {
        writeln!(out, "{HELP}{DURABLE_HELP}")?;
        return Ok(());
    }
    let scale: f64 = args.parsed_or("budget-scale", 1.0)?;
    if !(scale > 0.0) || !scale.is_finite() {
        return Err(CliError::usage("--budget-scale must be positive"));
    }
    let policy = TolerancePolicy::paper().scaled(scale);
    let telemetry = TelemetryMode::from_args(&args)?;

    if let Some(path) = args.value("replay") {
        return with_telemetry(&telemetry, "cli.validate", out, |out| {
            replay(Path::new(path), &policy, out)
        });
    }

    let seed: u64 = args.parsed_or("seed", 1)?;
    if let Some(cases) = args.parsed::<usize>("grids")? {
        if cases == 0 {
            return Err(CliError::usage("--grids must be at least 1"));
        }
        return with_telemetry(&telemetry, "cli.validate", out, |out| {
            grid_sweep(cases, seed, out)
        });
    }

    let corpus: usize = args.parsed_or("corpus", 500)?;
    let exec = exec_policy(&args, faults)?;
    let opts = OracleOptions {
        corpus,
        seed,
        policy,
        exec,
        max_repros: args.parsed_or("max-repros", 8)?,
    };
    let repro_dir = PathBuf::from(args.value("repro-dir").unwrap_or("results/repro"));
    let csv_path = args.value("csv").map(PathBuf::from);
    let durable = durable_options(&args)?;

    with_telemetry(&telemetry, "cli.validate", out, |out| {
        let (report, durability) = oracle::run_differential_durable(&opts, &durable)?;

        writeln!(
            out,
            "differential oracle: {} scenario(s), seed {seed}",
            report.scenarios
        )?;
        if report.failed_chunks > 0 {
            writeln!(
                out,
                "warning: {} chunk(s) failed; summary covers the survivors",
                report.failed_chunks
            )?;
        }
        write!(out, "{}", report.summary_csv())?;
        if let Some(path) = &csv_path {
            write_file(path, &report.summary_csv())?;
            writeln!(out, "summary: wrote {}", path.display())?;
        }
        if !report.fallbacks.is_empty() {
            writeln!(
                out,
                "fallback: {} scenario(s) estimated closed-form only (deadline); \
                 they are excluded from the summary above",
                report.fallbacks.len()
            )?;
        }

        if report.violations == 0 {
            writeln!(out, "all scenarios within budget")?;
            write!(out, "{}", run_footer(&report.stats, &durability))?;
            return Ok(());
        }
        writeln!(
            out,
            "{} scenario(s) beyond budget; writing {} minimized repro(s)",
            report.violations,
            report.repros.len()
        )?;
        std::fs::create_dir_all(&repro_dir)?;
        for r in &report.repros {
            let path = repro_dir.join(repro_file_name(seed, r));
            write_file(&path, &r.file_text)?;
            writeln!(
                out,
                "  {}: scenario {} [{}] {}",
                path.display(),
                r.index,
                case_slug(r.metrics.case),
                r.violation
            )?;
        }
        write!(out, "{}", run_footer(&report.stats, &durability))?;
        Err(CliError::Validation {
            violations: report.violations,
        })
    })
}

/// The `--grids` gate: synthesized power-grid meshes through the sparse
/// solver tier, exit 10 on any invariant or differential violation.
fn grid_sweep<W: Write>(cases: usize, seed: u64, out: &mut W) -> Result<(), CliError> {
    let report = ssn_core::grids::run_grid_sweep(&GridSweepOptions { cases, seed })?;
    writeln!(out, "grid gate: {cases} mesh(es), seed {seed}")?;
    write!(out, "{}", report.summary())?;
    if report.violations == 0 {
        writeln!(out, "all grids within invariants")?;
        return Ok(());
    }
    Err(CliError::Validation {
        violations: report.violations,
    })
}

fn repro_file_name(seed: u64, r: &ReproCase) -> String {
    format!(
        "repro_seed{seed}_idx{:06}_{}.txt",
        r.index, r.violation.metric
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), CliError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)?;
    Ok(())
}

fn replay<W: Write>(path: &Path, policy: &TolerancePolicy, out: &mut W) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)?;
    let (file, metrics, violation) = oracle::replay_repro(&text, policy)?;
    writeln!(out, "replaying {}", path.display())?;
    writeln!(
        out,
        "case {}: closed-form Vn_max {:e} V, simulated {:e} V",
        case_slug(metrics.case),
        metrics.model_vn_max,
        metrics.mna_vn_max
    )?;
    if let Some(rec) = file.recorded {
        writeln!(
            out,
            "recorded: {} = {:e} (budget {:e})",
            rec.metric, rec.observed, rec.budget
        )?;
    }
    match violation {
        Some(v) => {
            writeln!(out, "reproduced: {v}")?;
            Err(CliError::Validation { violations: 1 })
        }
        None => {
            writeln!(out, "did not reproduce: all metrics within budget")?;
            Ok(())
        }
    }
}
