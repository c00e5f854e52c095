//! Robust root solving: a fallback ladder over the primitive finders.
//!
//! The primitive finders in [`crate::roots`] each fail in their own way —
//! Newton on flat derivatives, Brent on pathological interpolants, any
//! bracketing method on a bracket that does not actually straddle a sign
//! change. This module composes them into a ladder
//! (`newton_bracketed` → `brent` → `bisect`) with automatic bracket
//! expansion, and reports *how* the solve succeeded via [`SolveReport`] so
//! callers (and CLI telemetry) can see when the primary method needed help.
//!
//! When the first rung succeeds on the original bracket the result is
//! bit-identical to calling that finder directly — the ladder only changes
//! behavior on the failure paths.

use crate::roots::{bisect, brent, newton_bracketed, RootOptions};
use crate::NumericError;
use std::fmt;

/// Bitmask names for the ladder rungs, used by [`SolveOptions::disabled_rungs`].
///
/// Disabling rungs exists so tests (and the fault plane in `ssn-core`)
/// can force the ladder onto its fallback paths without
/// monkey-patching the finders themselves.
pub mod rung {
    /// The `newton_bracketed` rung (only present in
    /// [`super::solve_with_derivative`]).
    pub const NEWTON: u8 = 1 << 0;
    /// The `brent` rung.
    pub const BRENT: u8 = 1 << 1;
    /// The `bisect` rung (last resort).
    pub const BISECT: u8 = 1 << 2;
}

/// Options for the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Tolerances shared by every rung.
    pub root: RootOptions,
    /// How many times the bracket may be grown geometrically when the
    /// initial interval does not straddle a sign change.
    pub max_expansions: usize,
    /// Width multiplier per expansion (must be > 1).
    pub expansion_factor: f64,
    /// Hard domain the expanded bracket is clamped to, e.g. `(0.0, ∞)` for
    /// a rise time. Defaults to the whole real line.
    pub domain: (f64, f64),
    /// Bitmask of [`rung`] constants to skip. Zero (the default) runs the
    /// full ladder.
    pub disabled_rungs: u8,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            root: RootOptions::default(),
            max_expansions: 8,
            expansion_factor: 2.0,
            domain: (f64::NEG_INFINITY, f64::INFINITY),
            disabled_rungs: 0,
        }
    }
}

impl SolveOptions {
    /// Ladder options with the given per-rung tolerances.
    pub fn with_root(root: RootOptions) -> Self {
        Self {
            root,
            ..Self::default()
        }
    }
}

/// How a ladder solve succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveReport {
    /// The rung that produced the root (`"newton"`, `"brent"`, `"bisect"`).
    pub method: &'static str,
    /// How many rungs were attempted, including the successful one.
    pub rungs_tried: usize,
    /// How many bracket expansions were spent before a sign change was found.
    pub expansions: usize,
}

impl SolveReport {
    /// True when the primary rung succeeded on the original bracket — the
    /// solve was indistinguishable from calling the finder directly.
    pub fn is_clean(&self) -> bool {
        self.rungs_tried == 1 && self.expansions == 0
    }
}

impl fmt::Display for SolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} rung(s), {} bracket expansion(s)",
            self.method, self.rungs_tried, self.expansions
        )
    }
}

/// Grows `[lo, hi]` geometrically (clamped to `opts.domain`) until it
/// brackets a sign change.
fn expand_bracket<F>(
    f: &mut F,
    lo: f64,
    hi: f64,
    opts: &SolveOptions,
) -> Result<(f64, f64, usize), NumericError>
where
    F: FnMut(f64) -> f64,
{
    if !(opts.expansion_factor > 1.0) {
        return Err(NumericError::argument(format!(
            "solve: expansion_factor ({}) must exceed 1",
            opts.expansion_factor
        )));
    }
    let (mut a, mut b) = (lo.min(hi), lo.max(hi));
    let (lo_dom, hi_dom) = opts.domain;
    a = a.clamp(lo_dom, hi_dom);
    b = b.clamp(lo_dom, hi_dom);
    let mut expansions = 0usize;
    loop {
        let (fa, fb) = (f(a), f(b));
        if !fa.is_finite() || !fb.is_finite() {
            return Err(NumericError::NonFiniteEvaluation {
                method: "bracket expansion",
                at: if fa.is_finite() { b } else { a },
            });
        }
        if fa == 0.0 || fb == 0.0 || fa.signum() != fb.signum() {
            return Ok((a, b, expansions));
        }
        if expansions >= opts.max_expansions {
            return Err(NumericError::InvalidBracket { f_lo: fa, f_hi: fb });
        }
        let width = b - a;
        let half = if width > 0.0 {
            0.5 * width * (opts.expansion_factor - 1.0)
        } else {
            0.5 * a.abs().max(1.0) * (opts.expansion_factor - 1.0)
        };
        let (a_new, b_new) = ((a - half).max(lo_dom), (b + half).min(hi_dom));
        if a_new == a && b_new == b {
            // Pinned against the domain on both sides: no progress possible.
            return Err(NumericError::InvalidBracket { f_lo: fa, f_hi: fb });
        }
        a = a_new;
        b = b_new;
        expansions += 1;
    }
}

/// Solves `f(x) = 0` on `[lo, hi]` via the `brent` → `bisect` ladder,
/// expanding the bracket first if it does not straddle a sign change.
///
/// # Errors
///
/// Returns the *last* rung's error when every enabled rung fails, or
/// [`NumericError::InvalidBracket`] / [`NumericError::NonFiniteEvaluation`]
/// when no sign change can be bracketed at all.
pub fn solve_bracketed<F>(
    mut f: F,
    lo: f64,
    hi: f64,
    opts: SolveOptions,
) -> Result<(f64, SolveReport), NumericError>
where
    F: FnMut(f64) -> f64,
{
    let _ladder_span = ssn_telemetry::span("solve.ladder");
    let (a, b, expansions) = expand_bracket(&mut f, lo, hi, &opts)?;
    ssn_telemetry::add("solve.expansions", expansions as u64);
    let mut rungs_tried = 0usize;
    let mut last_err: Option<NumericError> = None;
    if opts.disabled_rungs & rung::BRENT == 0 {
        rungs_tried += 1;
        ssn_telemetry::add("solve.rung.brent.attempts", 1);
        let attempt = {
            let _rung_span = ssn_telemetry::span("solve.rung.brent");
            brent(&mut f, a, b, opts.root)
        };
        match attempt {
            Ok(x) => {
                ssn_telemetry::add("solve.success.brent", 1);
                return Ok((
                    x,
                    SolveReport {
                        method: "brent",
                        rungs_tried,
                        expansions,
                    },
                ));
            }
            Err(e) => last_err = Some(e),
        }
    }
    if opts.disabled_rungs & rung::BISECT == 0 {
        rungs_tried += 1;
        ssn_telemetry::add("solve.rung.bisect.attempts", 1);
        let attempt = {
            let _rung_span = ssn_telemetry::span("solve.rung.bisect");
            bisect(&mut f, a, b, opts.root)
        };
        match attempt {
            Ok(x) => {
                ssn_telemetry::add("solve.success.bisect", 1);
                return Ok((
                    x,
                    SolveReport {
                        method: "bisect",
                        rungs_tried,
                        expansions,
                    },
                ));
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| NumericError::argument("solve_bracketed: every solver rung disabled")))
}

/// Solves `f(x) = 0` via the full `newton` → `brent` → `bisect` ladder.
///
/// `fdf` evaluates `(f(x), f'(x))`; the bracketing rungs use only the
/// function value. `x0` seeds Newton and must lie inside `[lo, hi]`.
///
/// # Errors
///
/// Same contract as [`solve_bracketed`].
pub fn solve_with_derivative<F>(
    mut fdf: F,
    x0: f64,
    lo: f64,
    hi: f64,
    opts: SolveOptions,
) -> Result<(f64, SolveReport), NumericError>
where
    F: FnMut(f64) -> (f64, f64),
{
    let mut newton_err: Option<NumericError> = None;
    let mut newton_tried = 0usize;
    if opts.disabled_rungs & rung::NEWTON == 0 {
        newton_tried = 1;
        ssn_telemetry::add("solve.rung.newton.attempts", 1);
        let attempt = {
            let _rung_span = ssn_telemetry::span("solve.rung.newton");
            newton_bracketed(&mut fdf, x0, lo, hi, opts.root)
        };
        match attempt {
            Ok(x) => {
                ssn_telemetry::add("solve.success.newton", 1);
                return Ok((
                    x,
                    SolveReport {
                        method: "newton",
                        rungs_tried: 1,
                        expansions: 0,
                    },
                ));
            }
            Err(e) => newton_err = Some(e),
        }
    }
    match solve_bracketed(|x| fdf(x).0, lo, hi, opts) {
        Ok((x, report)) => Ok((
            x,
            SolveReport {
                rungs_tried: report.rungs_tried + newton_tried,
                ..report
            },
        )),
        Err(e) => {
            // Prefer the bracketing error unless Newton never ran and the
            // ladder was empty.
            if matches!(e, NumericError::InvalidArgument { .. }) {
                if let Some(ne) = newton_err {
                    return Err(ne);
                }
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_solve_matches_brent_exactly() {
        let f = |x: f64| x * x - 2.0;
        let direct = brent(f, 0.0, 2.0, RootOptions::default()).unwrap();
        let (x, report) = solve_bracketed(f, 0.0, 2.0, SolveOptions::default()).unwrap();
        assert_eq!(x.to_bits(), direct.to_bits());
        assert_eq!(report.method, "brent");
        assert!(report.is_clean());
    }

    #[test]
    fn ladder_falls_back_to_bisect_when_brent_is_disabled() {
        let opts = SolveOptions {
            disabled_rungs: rung::BRENT,
            ..SolveOptions::default()
        };
        let (x, report) = solve_bracketed(|x| x * x - 2.0, 0.0, 2.0, opts).unwrap();
        assert!((x - 2f64.sqrt()).abs() < 1e-9);
        assert_eq!(report.method, "bisect");
        assert_eq!(report.rungs_tried, 1);
    }

    #[test]
    fn bracket_expansion_finds_roots_outside_the_interval() {
        let opts = SolveOptions {
            domain: (0.0, 100.0),
            ..SolveOptions::default()
        };
        let (x, report) = solve_bracketed(|x| x - 7.0, 1.0, 2.0, opts).unwrap();
        assert!((x - 7.0).abs() < 1e-9);
        assert!(report.expansions > 0);
    }

    #[test]
    fn expansion_respects_the_domain() {
        // No root anywhere in the clamped domain.
        let opts = SolveOptions {
            domain: (0.0, 5.0),
            ..SolveOptions::default()
        };
        let err = solve_bracketed(|x| x + 1.0, 1.0, 2.0, opts).unwrap_err();
        assert!(matches!(err, NumericError::InvalidBracket { .. }));
    }

    #[test]
    fn all_rungs_disabled_is_a_typed_error() {
        let opts = SolveOptions {
            disabled_rungs: rung::BRENT | rung::BISECT,
            ..SolveOptions::default()
        };
        assert!(solve_bracketed(|x| x, -1.0, 1.0, opts).is_err());
    }

    #[test]
    fn derivative_ladder_survives_a_poisoned_newton_start() {
        // f is NaN exactly at the Newton seed, so the Newton rung dies with
        // a typed error and the bracketing rungs finish the job.
        let fdf = |x: f64| {
            if x == 0.25 {
                (f64::NAN, 1.0)
            } else {
                (x - 0.7, 1.0)
            }
        };
        let (x, report) =
            solve_with_derivative(fdf, 0.25, 0.0, 1.0, SolveOptions::default()).unwrap();
        assert!((x - 0.7).abs() < 1e-9);
        assert_eq!(report.method, "brent");
        assert_eq!(report.rungs_tried, 2);
    }

    #[test]
    fn derivative_ladder_uses_newton_when_it_works() {
        let (x, report) = solve_with_derivative(
            |x| (x * x - 2.0, 2.0 * x),
            1.0,
            0.0,
            2.0,
            SolveOptions::default(),
        )
        .unwrap();
        assert!((x - 2f64.sqrt()).abs() < 1e-10);
        assert_eq!(report.method, "newton");
        assert!(report.is_clean());
    }

    #[test]
    fn report_display_is_informative() {
        let r = SolveReport {
            method: "bisect",
            rungs_tried: 2,
            expansions: 1,
        };
        let s = r.to_string();
        assert!(s.contains("bisect"));
        assert!(s.contains("2 rung(s)"));
        assert!(s.contains("1 bracket expansion(s)"));
    }
}
