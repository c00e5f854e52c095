//! Command implementations.

pub mod budget;
pub mod estimate;
pub mod fit;
pub mod impedance;
pub mod montecarlo;
pub mod optimize;
pub mod serve;
pub mod simulate;
pub mod sweep;
pub mod validate;

use crate::args::ParsedArgs;
use crate::error::CliError;
use ssn_core::durable::{DurableOptions, RunBudget};
use ssn_core::faults::Faults;
use ssn_core::parallel::ExecPolicy;
use ssn_devices::process::Process;
use ssn_units::Seconds;
use std::io::Write;
use std::path::PathBuf;

/// The help block shared by every durable command (`montecarlo`, `sweep`,
/// `validate`, `optimize`).
pub(crate) const DURABLE_HELP: &str = "\
    --checkpoint <path> journal chunk results to <path>, committed
                        atomically after every chunk (crash-safe)
    --resume            restore committed chunks from the --checkpoint
                        journal instead of recomputing them; the final
                        result is bit-identical to an uninterrupted run
    --deadline <t>      cooperative wall-clock budget (e.g. 30s, 500m);
                        on overrun the run keeps the completed work and
                        records every fidelity downgrade in the run footer";

/// Reads the three durable flags; [`DurableOptions::none`] when none of
/// them was given.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for `--resume` without `--checkpoint` or a
/// non-positive `--deadline`.
pub(crate) fn durable_options(args: &ParsedArgs) -> Result<DurableOptions, CliError> {
    let checkpoint = args.value("checkpoint").map(PathBuf::from);
    let resume = args.flag("resume");
    if resume && checkpoint.is_none() {
        return Err(CliError::usage("--resume needs --checkpoint <path>"));
    }
    let budget = match args.parsed::<Seconds>("deadline")? {
        None => RunBudget::unlimited(),
        Some(t) => {
            if !(t.value() > 0.0) || !t.value().is_finite() {
                return Err(CliError::usage(format!(
                    "--deadline must be a positive duration, got {t}"
                )));
            }
            RunBudget::with_deadline(std::time::Duration::from_secs_f64(t.value()))
        }
    };
    Ok(DurableOptions {
        checkpoint,
        resume,
        budget,
    })
}

/// What `--telemetry[=json:<path>]` asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TelemetryMode {
    /// No `--telemetry` flag: recording stays off.
    Off,
    /// Bare `--telemetry`: print the per-stage breakdown table.
    Table,
    /// `--telemetry=json:<path>`: write the JSON-lines stream to `path`.
    Json(String),
}

impl TelemetryMode {
    /// Reads the `--telemetry` flag (register `"telemetry"` in the command's
    /// bool flags).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for an inline value that is not
    /// `json:<path>`.
    pub(crate) fn from_args(args: &ParsedArgs) -> Result<Self, CliError> {
        if !args.flag("telemetry") {
            return Ok(Self::Off);
        }
        match args.value("telemetry") {
            None => Ok(Self::Table),
            Some(v) => match v.strip_prefix("json:") {
                Some(path) if !path.is_empty() => Ok(Self::Json(path.to_owned())),
                _ => Err(CliError::usage(format!(
                    "--telemetry={v}: expected --telemetry or --telemetry=json:<path>"
                ))),
            },
        }
    }
}

/// Runs `f` under a telemetry session rooted at span `root`, then emits the
/// report per `mode`. With [`TelemetryMode::Off`] this is exactly `f(out)` —
/// recording stays disabled and results are bit-identical either way (pinned
/// by `tests/determinism.rs`).
pub(crate) fn with_telemetry<W, F>(
    mode: &TelemetryMode,
    root: &'static str,
    out: &mut W,
    f: F,
) -> Result<(), CliError>
where
    W: Write,
    F: FnOnce(&mut W) -> Result<(), CliError>,
{
    if *mode == TelemetryMode::Off {
        return f(out);
    }
    let session = ssn_telemetry::Session::start();
    let result = {
        let _root = ssn_telemetry::span(root);
        f(out)
    };
    let report = session.finish();
    result?;
    match mode {
        // Off returned early; nothing to emit.
        TelemetryMode::Off => {}
        TelemetryMode::Table => write!(out, "\n{}", report.table())?,
        TelemetryMode::Json(path) => {
            std::fs::write(path, report.to_json_lines())?;
            writeln!(
                out,
                "telemetry: wrote {} span(s), {} counter(s) to {path}",
                report.spans.len(),
                report.counters.len()
            )?;
        }
    }
    Ok(())
}

/// The run's execution policy: `--threads` (default: every hardware
/// thread) under the invocation's fault plane.
pub(crate) fn exec_policy(args: &ParsedArgs, faults: &Faults) -> Result<ExecPolicy, CliError> {
    let policy = match args.parsed::<usize>("threads")? {
        Some(0) => return Err(CliError::usage("--threads must be at least 1")),
        Some(t) => ExecPolicy::with_threads(t),
        None => ExecPolicy::auto(),
    };
    Ok(policy.with_faults(faults.clone()))
}

/// Writes `header` and `rows` as right-aligned columns two spaces apart,
/// each column as wide as its widest cell.
pub(crate) fn write_aligned<W: Write, S: AsRef<str>, R: AsRef<[String]>>(
    out: &mut W,
    header: &[S],
    rows: &[R],
) -> std::io::Result<()> {
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.as_ref()[i].len())
                .fold(h.as_ref().len(), usize::max)
        })
        .collect();
    let mut line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        writeln!(out, "{}", padded.join("  "))
    };
    line(header.iter().map(AsRef::as_ref).collect())?;
    for r in rows {
        line(r.as_ref().iter().map(String::as_str).collect())?;
    }
    Ok(())
}

/// Resolves a `--process` name to a library process.
pub(crate) fn resolve_process(name: &str) -> Result<Process, CliError> {
    Process::from_name(name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown process {name:?} (expected p018, p025 or p035)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn durable_flags_parse_and_validate() {
        let parse = |items: &[&str]| {
            ParsedArgs::parse(&argv(items), &["checkpoint", "deadline"], &["resume"]).unwrap()
        };
        // No flags: no journal, no deadline.
        let d = durable_options(&parse(&[])).unwrap();
        assert!(d.checkpoint.is_none() && !d.resume);
        assert_eq!(d.budget.remaining(), None);
        // Checkpoint alone.
        let d = durable_options(&parse(&["--checkpoint", "run.ckpt"])).unwrap();
        assert_eq!(
            d.checkpoint.as_deref(),
            Some(std::path::Path::new("run.ckpt"))
        );
        assert!(!d.resume);
        // Resume requires a journal path.
        assert!(matches!(
            durable_options(&parse(&["--resume"])),
            Err(CliError::Usage { .. })
        ));
        // Deadline parses as an SI-suffixed quantity of seconds.
        for t in ["30s", "500m"] {
            let d = durable_options(&parse(&["--deadline", t])).unwrap();
            assert!(d.budget.remaining().is_some(), "{t}");
        }
        assert!(durable_options(&parse(&["--deadline", "0"])).is_err());
        assert!(durable_options(&parse(&["--deadline", "-5s"])).is_err());
    }

    #[test]
    fn process_aliases() {
        for (canonical, aliases) in [
            ("p018", ["p018", "0.18", "018"]),
            ("p025", ["p025", "0.25", "025"]),
            ("p035", ["p035", "0.35", "035"]),
        ] {
            for alias in aliases {
                assert_eq!(resolve_process(alias).unwrap().name(), canonical);
            }
        }
        let e = resolve_process("p090").unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown process \"p090\" (expected p018, p025 or p035)"),
            "{e}"
        );
    }
}
