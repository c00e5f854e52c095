//! The `ssn` binary: forwards to [`ssn_cli::run_with_faults`], with the
//! fault plan from the `SSN_FAULTS` environment variable.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    // Lossy, so a non-UTF-8 plan is rejected as malformed, never ignored.
    let faults = std::env::var_os("SSN_FAULTS").map(|v| v.to_string_lossy().into_owned());
    match ssn_cli::run_with_faults(&argv, faults.as_deref(), &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One structured, greppable line: `ssn: error kind=... exit=...: ...`.
            eprintln!("{}", e.structured_line());
            ExitCode::from(e.exit_code() as u8)
        }
    }
}
