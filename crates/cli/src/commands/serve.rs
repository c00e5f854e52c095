//! `ssn serve` — SSN-as-a-service: the hardened HTTP front end.

use crate::args::ParsedArgs;
use crate::error::CliError;
use ssn_core::faults::Faults;
use ssn_server::{ServeError, Server, ServerConfig};
use ssn_units::Seconds;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

const HELP: &str = "\
usage: ssn serve [options]

Serves the estimation suite over HTTP/1.1 (no external dependencies):
GET/POST /v1/{estimate,budget,montecarlo,sweep,validate,optimize} with urlencoded
parameters, plus /healthz, /metrics, /v1/jobs/<id>, and
POST /v1/admin/drain. Small requests answer synchronously; large ones
become crash-safe durable jobs (202 + poll URL) journaled in the spool —
after kill -9, restarting with the same spool and resubmitting the same
request resumes the journal and returns byte-identical results.

The process runs until a drain is requested (POST /v1/admin/drain or
--drain-after), then stops accepting, finishes or checkpoints in-flight
work, and exits 0 on a clean drain or 14 past the drain deadline.
Exit 15 means the listen address could not be bound.

options:
    --addr <host:port>  listen address (default 127.0.0.1:0 = ephemeral;
                        the bound address is printed on stdout)
    --spool <dir>       spool for journals + cached results (default: a
                        per-process temp dir; pass a fixed dir to make
                        jobs survive restarts)
    --queue-capacity <n>  pending-job bound before 503 shedding (default 32)
    --workers <n>       durable-job worker threads (default 1)
    --max-connections <n> concurrent-connection cap (default 64)
    --request-deadline <t> wall-clock budget per request (default 30s)
    --drain-deadline <t>  how long a drain may take (default 30s)
    --sync-max-items <n>  work-item threshold above which a request
                        becomes a durable job (default 2048)
    --drain-after <t>   request a drain automatically after <t>
                        (smoke tests and bounded benchmark runs)
";

/// Runs the command.
///
/// # Errors
///
/// [`CliError::BindFailure`] (exit 15) when the address cannot be bound,
/// [`CliError::DrainDeadline`] (exit 14) when the drain overran its
/// deadline, usage errors for bad flags.
pub fn run<W: Write>(argv: &[String], faults: &Faults, out: &mut W) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        argv,
        &[
            "addr",
            "spool",
            "queue-capacity",
            "workers",
            "max-connections",
            "request-deadline",
            "drain-deadline",
            "sync-max-items",
            "drain-after",
        ],
        &["help"],
    )?;
    if args.wants_help() {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }

    let mut cfg = ServerConfig {
        faults: faults.clone(),
        ..ServerConfig::default()
    };
    if let Some(addr) = args.value("addr") {
        cfg.addr = addr.to_owned();
    }
    cfg.spool = args.value("spool").map(PathBuf::from);
    cfg.queue_capacity = positive_count(&args, "queue-capacity", cfg.queue_capacity)?;
    cfg.job_workers = positive_count(&args, "workers", cfg.job_workers)?;
    cfg.max_connections = positive_count(&args, "max-connections", cfg.max_connections)?;
    cfg.sync_max_items = args.parsed_or("sync-max-items", cfg.sync_max_items)?;
    if let Some(t) = duration_arg(&args, "request-deadline")? {
        cfg.request_deadline = t;
    }
    if let Some(t) = duration_arg(&args, "drain-deadline")? {
        cfg.drain_deadline = t;
    }
    let drain_after = duration_arg(&args, "drain-after")?;
    let spool_display = cfg.spool.clone();

    let server = Server::start(cfg).map_err(|e| match e {
        ServeError::Bind { addr, source } => CliError::BindFailure { addr, source },
        ServeError::Spool(e) => CliError::Io(e),
    })?;
    // The CI gate and scripts parse this line for the bound port.
    writeln!(out, "ssn serve: listening on http://{}", server.addr())?;
    if let Some(spool) = &spool_display {
        writeln!(out, "ssn serve: spool {}", spool.display())?;
    }
    out.flush()?;

    if let Some(after) = drain_after {
        // Drive the drain through the same public endpoint an operator
        // would use, so --drain-after exercises the real path.
        let addr = server.addr();
        std::thread::spawn(move || {
            std::thread::sleep(after);
            let _ = ssn_server::client::post(addr, "/v1/admin/drain", "", Duration::from_secs(5));
        });
    }

    let report = server.wait_until_drained();
    writeln!(
        out,
        "ssn serve: drained; {} job(s) completed, {} interrupted (resumable from the spool)",
        report.completed_jobs, report.interrupted_jobs
    )?;
    if !report.clean {
        return Err(CliError::DrainDeadline {
            interrupted_jobs: report.interrupted_jobs,
        });
    }
    Ok(())
}

fn positive_count(args: &ParsedArgs, name: &str, default: usize) -> Result<usize, CliError> {
    let v: usize = args.parsed_or(name, default)?;
    if v == 0 {
        return Err(CliError::usage(format!("--{name} must be at least 1")));
    }
    Ok(v)
}

fn duration_arg(args: &ParsedArgs, name: &str) -> Result<Option<Duration>, CliError> {
    match args.parsed::<Seconds>(name)? {
        None => Ok(None),
        Some(t) if t.value().is_finite() && t.value() > 0.0 => {
            Ok(Some(Duration::from_secs_f64(t.value())))
        }
        Some(t) => Err(CliError::usage(format!(
            "--{name} must be a positive duration, got {t}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> (Result<(), CliError>, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let res = run(&argv, &Faults::none(), &mut buf);
        (res, String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_documents_the_exit_codes() {
        let (res, text) = run_to_string(&["--help"]);
        assert!(res.is_ok());
        assert!(text.contains("Exit 15"), "{text}");
        assert!(text.contains("--drain-after"), "{text}");
    }

    #[test]
    fn unbindable_address_is_exit_15() {
        let (res, _) = run_to_string(&["--addr", "256.0.0.1:1"]);
        match res {
            Err(CliError::BindFailure { addr, .. }) => assert_eq!(addr, "256.0.0.1:1"),
            other => panic!("expected BindFailure, got {other:?}"),
        }
    }

    #[test]
    fn bad_counts_and_durations_are_usage_errors() {
        for argv in [
            &["--queue-capacity", "0"][..],
            &["--workers", "0"],
            &["--drain-deadline", "-1s"],
            &["--drain-after", "0"],
        ] {
            let (res, _) = run_to_string(argv);
            assert!(matches!(res, Err(CliError::Usage { .. })), "{argv:?}");
        }
    }

    #[test]
    fn serves_until_the_timed_drain_then_exits_cleanly() {
        let (res, text) = run_to_string(&["--addr", "127.0.0.1:0", "--drain-after", "100m"]);
        assert!(res.is_ok(), "{text}");
        assert!(text.contains("listening on http://127.0.0.1:"), "{text}");
        assert!(text.contains("drained"), "{text}");
    }
}
