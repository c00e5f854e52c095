//! Error type for the SSN core.

use ssn_numeric::NumericError;
use ssn_spice::SpiceError;
use ssn_waveform::WaveformError;
use std::error::Error;
use std::fmt;

/// Error produced by SSN scenario construction or evaluation.
#[derive(Debug)]
#[non_exhaustive]
pub enum SsnError {
    /// A scenario parameter was out of its physical domain.
    InvalidScenario {
        /// Human-readable description.
        context: String,
    },
    /// A single named input failed validation at a public entry point.
    ///
    /// Unlike [`SsnError::InvalidScenario`] (free-form context), this
    /// variant is structured so callers — and the CLI's exit-code mapping —
    /// can report exactly which field was rejected and why.
    InvalidInput {
        /// Human-readable field name (e.g. `"inductance"`, `"rise time"`).
        field: &'static str,
        /// The offending value.
        value: f64,
        /// The constraint it violated (e.g. `"must be positive and finite"`).
        constraint: &'static str,
    },
    /// A parallel run lost every chunk to injected or real faults: there is
    /// no partial result to return.
    AllChunksFailed {
        /// Chunks that failed.
        failed: usize,
        /// Total chunks attempted.
        total: usize,
        /// The first chunk's failure description.
        first_cause: String,
    },
    /// Device-model fitting failed.
    Fit(NumericError),
    /// The validation simulator failed.
    Simulation(SpiceError),
    /// A waveform operation failed.
    Waveform(WaveformError),
    /// A checkpoint journal could not be used: unreadable, corrupt,
    /// written by an incompatible format version, or recorded for a
    /// different run. The run must start fresh rather than risk resuming
    /// from wrong-but-plausible state.
    Checkpoint {
        /// The journal path.
        path: String,
        /// What class of problem was detected.
        kind: CheckpointErrorKind,
        /// Human-readable detail (which check failed, expected vs found).
        detail: String,
    },
    /// A simulated crash (the fault plane's `crash_after_commits`)
    /// killed the run after some chunks were committed to the checkpoint.
    /// Resume with `--resume` to continue from the journal.
    Interrupted {
        /// Chunks durably committed before the crash.
        committed_chunks: usize,
        /// Total chunks the run planned.
        total_chunks: usize,
    },
    /// The run deadline expired before *any* result was produced, so there
    /// is no partial result to degrade to.
    DeadlineExhausted {
        /// Work items completed (always 0 at raise time today, kept for
        /// forward compatibility).
        completed_items: usize,
        /// Work items the run planned.
        planned_items: usize,
    },
}

/// Classification of an unusable checkpoint journal (see
/// [`SsnError::Checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointErrorKind {
    /// Truncated file, bad magic, or a checksum mismatch.
    Corrupt,
    /// The journal was written by a different (newer or retired) format
    /// version.
    VersionMismatch,
    /// The journal header does not match this run's parameters (different
    /// seed, corpus size, chunk size, or workload kind).
    SpecMismatch,
    /// The journal could not be read or written at the filesystem level.
    Io,
    /// Another live process holds the journal's exclusive lock file —
    /// two runs must never resume (and concurrently commit to) the same
    /// journal.
    Locked,
}

impl CheckpointErrorKind {
    /// Short lowercase tag used in error text and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Corrupt => "corrupt",
            Self::VersionMismatch => "version-mismatch",
            Self::SpecMismatch => "spec-mismatch",
            Self::Io => "io",
            Self::Locked => "locked",
        }
    }
}

impl SsnError {
    pub(crate) fn scenario(context: impl Into<String>) -> Self {
        Self::InvalidScenario {
            context: context.into(),
        }
    }

    pub(crate) fn invalid(field: &'static str, value: f64, constraint: &'static str) -> Self {
        Self::InvalidInput {
            field,
            value,
            constraint,
        }
    }

    pub(crate) fn checkpoint(
        path: impl Into<String>,
        kind: CheckpointErrorKind,
        detail: impl Into<String>,
    ) -> Self {
        Self::Checkpoint {
            path: path.into(),
            kind,
            detail: detail.into(),
        }
    }

    /// `true` when this error means "the run deadline expired inside a
    /// kernel", i.e. the chunk was *skipped* cooperatively rather than
    /// failed. The durable runner uses this to classify chunk outcomes.
    pub fn is_cancelled(&self) -> bool {
        match self {
            Self::Simulation(SpiceError::Cancelled { .. }) => true,
            Self::Simulation(SpiceError::Numeric(NumericError::Cancelled { .. })) => true,
            Self::Fit(NumericError::Cancelled { .. }) => true,
            _ => false,
        }
    }
}

impl fmt::Display for SsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidScenario { context } => write!(f, "invalid SSN scenario: {context}"),
            Self::InvalidInput {
                field,
                value,
                constraint,
            } => {
                // Long decimal expansions (e.g. a parsed `-3n` rise time)
                // are unreadable; fall back to scientific notation.
                let plain = format!("{value}");
                let shown = if plain.len() <= 8 {
                    plain
                } else {
                    format!("{value:.4e}")
                };
                write!(f, "invalid input: {field} = {shown} ({constraint})")
            }
            Self::AllChunksFailed {
                failed,
                total,
                first_cause,
            } => write!(
                f,
                "all {failed} of {total} parallel chunks failed; first cause: {first_cause}"
            ),
            Self::Fit(e) => write!(f, "model fit failed: {e}"),
            Self::Simulation(e) => write!(f, "validation simulation failed: {e}"),
            Self::Waveform(e) => write!(f, "waveform operation failed: {e}"),
            Self::Checkpoint { path, kind, detail } => match kind {
                CheckpointErrorKind::Locked => write!(
                    f,
                    "checkpoint {path:?} is locked: {detail}; wait for the holding run to \
                     finish (a stale lock left by a dead process is recovered automatically)"
                ),
                _ => write!(
                    f,
                    "checkpoint {path:?} unusable ({}): {detail}; delete the file or rerun \
                     without --resume to start fresh",
                    kind.tag()
                ),
            },
            Self::Interrupted {
                committed_chunks,
                total_chunks,
            } => write!(
                f,
                "run interrupted by injected crash after {committed_chunks} of {total_chunks} \
                 chunk(s) were committed; rerun with --resume to continue"
            ),
            Self::DeadlineExhausted {
                completed_items,
                planned_items,
            } => write!(
                f,
                "run deadline expired with {completed_items} of {planned_items} item(s) \
                 completed: no partial result to return"
            ),
        }
    }
}

impl Error for SsnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::InvalidScenario { .. } => None,
            Self::InvalidInput { .. } => None,
            Self::AllChunksFailed { .. } => None,
            Self::Fit(e) => Some(e),
            Self::Simulation(e) => Some(e),
            Self::Waveform(e) => Some(e),
            Self::Checkpoint { .. } => None,
            Self::Interrupted { .. } => None,
            Self::DeadlineExhausted { .. } => None,
        }
    }
}

impl From<NumericError> for SsnError {
    fn from(e: NumericError) -> Self {
        Self::Fit(e)
    }
}

impl From<SpiceError> for SsnError {
    fn from(e: SpiceError) -> Self {
        Self::Simulation(e)
    }
}

impl From<WaveformError> for SsnError {
    fn from(e: WaveformError) -> Self {
        Self::Waveform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SsnError::scenario("n must be positive");
        assert!(e.to_string().contains("n must be positive"));
        assert!(e.source().is_none());
        let e: SsnError = NumericError::argument("bad").into();
        assert!(e.to_string().contains("fit failed"));
        assert!(e.source().is_some());
        let e: SsnError = WaveformError::InvalidTimeGrid.into();
        assert!(e.to_string().contains("waveform"));
        let e = SsnError::invalid("rise time", -1.0, "must be positive and finite");
        assert!(e.to_string().contains("rise time"));
        assert!(e.to_string().contains("-1"));
        assert!(e.to_string().contains("positive"));
        assert!(e.source().is_none());
        let e = SsnError::AllChunksFailed {
            failed: 4,
            total: 4,
            first_cause: "worker panicked".into(),
        };
        assert!(e.to_string().contains("4 of 4"));
        assert!(e.to_string().contains("worker panicked"));
    }

    #[test]
    fn durable_variants_display() {
        let e = SsnError::checkpoint(
            "/tmp/run.ckpt",
            CheckpointErrorKind::Corrupt,
            "record 3 checksum mismatch",
        );
        assert!(e.to_string().contains("corrupt"));
        assert!(e.to_string().contains("start fresh"));
        assert!(e.source().is_none());
        let e = SsnError::Interrupted {
            committed_chunks: 2,
            total_chunks: 8,
        };
        assert!(e.to_string().contains("2 of 8"));
        assert!(e.to_string().contains("--resume"));
        let e = SsnError::DeadlineExhausted {
            completed_items: 0,
            planned_items: 100,
        };
        assert!(e.to_string().contains("deadline"));
        assert_eq!(
            CheckpointErrorKind::VersionMismatch.tag(),
            "version-mismatch"
        );
        assert_eq!(CheckpointErrorKind::SpecMismatch.tag(), "spec-mismatch");
        assert_eq!(CheckpointErrorKind::Io.tag(), "io");
    }

    #[test]
    fn cancelled_classification() {
        let e: SsnError = SpiceError::Cancelled { time: 1e-9 }.into();
        assert!(e.is_cancelled());
        let e: SsnError = NumericError::Cancelled {
            method: "rkf45",
            at: 0.5,
        }
        .into();
        assert!(e.is_cancelled());
        let e: SsnError = SpiceError::Numeric(NumericError::Cancelled {
            method: "rkf45",
            at: 0.5,
        })
        .into();
        assert!(e.is_cancelled());
        assert!(!SsnError::scenario("x").is_cancelled());
    }
}
