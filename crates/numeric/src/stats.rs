//! Error metrics and grid helpers.

use crate::NumericError;

/// Relative error `|measured - reference| / |reference|`.
///
/// # Errors
///
/// * [`NumericError::InvalidArgument`] when either input is non-finite.
/// * [`NumericError::InvalidArgument`] when `reference` is numerically zero
///   (`|reference| < 1e-300`) — a relative error against zero is undefined;
///   use [`relative_or_absolute_error`] when a near-zero reference should
///   fall back to the absolute error instead.
pub fn relative_error(measured: f64, reference: f64) -> Result<f64, NumericError> {
    if !measured.is_finite() || !reference.is_finite() {
        return Err(NumericError::argument(format!(
            "relative_error: non-finite input (measured {measured}, reference {reference})"
        )));
    }
    let denom = reference.abs();
    if denom < 1e-300 {
        return Err(NumericError::argument(format!(
            "relative_error: reference {reference} is numerically zero"
        )));
    }
    Ok((measured - reference).abs() / denom)
}

/// Relative error with an absolute-error fallback for (numerically) zero
/// references, which keeps sweep tables finite near zero crossings.
///
/// This is the old, infallible behavior of [`relative_error`]; non-finite
/// inputs propagate as NaN/infinity rather than erroring.
pub fn relative_or_absolute_error(measured: f64, reference: f64) -> f64 {
    let denom = reference.abs();
    if denom < 1e-300 {
        (measured - reference).abs()
    } else {
        (measured - reference).abs() / denom
    }
}

/// Maximum absolute pairwise difference between two equal-length slices.
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] for unequal lengths or empty
/// inputs.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> Result<f64, NumericError> {
    if a.len() != b.len() || a.is_empty() {
        return Err(NumericError::shape(format!(
            "max_abs_diff: lengths {} vs {}",
            a.len(),
            b.len()
        )));
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max))
}

/// Root-mean-square difference between two equal-length slices.
///
/// # Errors
///
/// Returns [`NumericError::ShapeMismatch`] for unequal lengths or empty
/// inputs.
pub fn rmse(a: &[f64], b: &[f64]) -> Result<f64, NumericError> {
    if a.len() != b.len() || a.is_empty() {
        return Err(NumericError::shape(format!(
            "rmse: lengths {} vs {}",
            a.len(),
            b.len()
        )));
    }
    let ss: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    Ok((ss / a.len() as f64).sqrt())
}

/// `n` evenly spaced points covering `[lo, hi]` inclusive.
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] when `n < 2` (a grid needs
/// both endpoints) or either bound is non-finite.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Result<Vec<f64>, NumericError> {
    if n < 2 {
        return Err(NumericError::argument(format!(
            "linspace: needs at least two points, got {n}"
        )));
    }
    if !lo.is_finite() || !hi.is_finite() {
        return Err(NumericError::argument(format!(
            "linspace: bounds must be finite, got [{lo}, {hi}]"
        )));
    }
    let step = (hi - lo) / (n - 1) as f64;
    Ok((0..n)
        .map(|i| if i == n - 1 { hi } else { lo + step * i as f64 })
        .collect())
}

/// `n` logarithmically spaced points covering `[lo, hi]` inclusive.
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] when `n < 2`, either bound is
/// non-finite, or either bound is non-positive (its logarithm would be
/// undefined).
pub fn logspace(lo: f64, hi: f64, n: usize) -> Result<Vec<f64>, NumericError> {
    if !(lo > 0.0) || !(hi > 0.0) {
        return Err(NumericError::argument(format!(
            "logspace: bounds must be positive, got [{lo}, {hi}]"
        )));
    }
    Ok(linspace(lo.ln(), hi.ln(), n)?
        .into_iter()
        .map(f64::exp)
        .collect())
}

/// Sum of a slice in **pinned left-to-right order**: `((x0 + x1) + x2) + …`.
///
/// Floating-point addition is not associative, so the accumulation order is
/// part of any bit-reproducibility contract. This function is the single
/// reduction primitive behind the Monte Carlo statistics (`McResult::mean`
/// / `std_dev` in `ssn-core`): whatever layout the samples were *produced*
/// in (scalar or SoA slabs), they are always reduced strictly
/// left-to-right, so a faster accumulation scheme (pairwise, lane-wise
/// partial sums, …) can never slip in and silently change the mean or σ
/// bits. The order is pinned by `ordered_sum_is_left_to_right` below.
pub fn sum_ordered(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Sample mean and standard deviation (`n - 1` normalization, `σ = 0` for a
/// single sample) with both passes accumulated in the pinned left-to-right
/// order of [`sum_ordered`].
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] for an empty slice.
pub fn moments_ordered(xs: &[f64]) -> Result<(f64, f64), NumericError> {
    if xs.is_empty() {
        return Err(NumericError::argument("moments of empty slice"));
    }
    let mean = sum_ordered(xs) / xs.len() as f64;
    let mut ss = 0.0;
    for &x in xs {
        ss += (x - mean) * (x - mean);
    }
    let var = ss / (xs.len() as f64 - 1.0).max(1.0);
    Ok((mean, var.sqrt()))
}

/// Arithmetic mean of a non-empty slice (left-to-right accumulation, see
/// [`sum_ordered`]).
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] for an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64, NumericError> {
    if xs.is_empty() {
        return Err(NumericError::argument("mean of empty slice"));
    }
    Ok(sum_ordered(xs) / xs.len() as f64)
}

/// Sorts `xs` ascending in IEEE 754 total order, bit-identical to
/// `xs.sort_by(f64::total_cmp)` but by an unstable integer sort.
///
/// Each value is first rewritten in place to its total-order key — the bit
/// pattern with every bit flipped for a negative sign, or only the sign
/// bit flipped otherwise — so unsigned key order is exactly
/// [`f64::total_cmp`] order. The keys are sorted as `u64` and mapped back.
/// Two values with equal keys are bit-identical, so the unstable sort
/// cannot reorder anything a stable one would keep apart. No second buffer
/// is allocated.
pub fn sort_total(xs: &mut [f64]) {
    const SIGN: u64 = 1 << 63;
    // An arithmetic shift smears the sign bit: all ones for a negative
    // sign, zero otherwise.
    let smear = |b: u64| ((b as i64) >> 63) as u64;
    for x in xs.iter_mut() {
        let b = x.to_bits();
        *x = f64::from_bits(b ^ (smear(b) | SIGN));
    }
    xs.sort_unstable_by_key(|k| k.to_bits());
    for x in xs.iter_mut() {
        // A key's top bit is set exactly when the value was non-negative.
        let k = x.to_bits();
        *x = f64::from_bits(k ^ (!smear(k) | SIGN));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;

    #[test]
    fn relative_error_basic() {
        assert!((relative_error(1.03, 1.0).unwrap() - 0.03).abs() < 1e-12);
        assert!((relative_error(0.97, 1.0).unwrap() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn relative_error_rejects_zero_reference_and_non_finite() {
        for reference in [0.0, -0.0, 1e-301] {
            assert!(relative_error(0.02, reference).is_err(), "{reference}");
        }
        assert!(relative_error(f64::NAN, 1.0).is_err());
        assert!(relative_error(1.0, f64::INFINITY).is_err());
        // The infallible variant keeps the absolute-error fallback.
        assert!((relative_or_absolute_error(0.02, 0.0) - 0.02).abs() < 1e-15);
    }

    #[test]
    fn relative_error_variants_agree_away_from_zero() {
        forall("rel-err agreement", 300, |g| {
            let reference = g.f64_in(1e-6, 1e6) * if g.f64_in(0.0, 1.0) < 0.5 { -1.0 } else { 1.0 };
            let measured = g.f64_in(-1e6, 1e6);
            let typed = relative_error(measured, reference)
                .map_err(|e| format!("unexpected error: {e}"))?;
            let legacy = relative_or_absolute_error(measured, reference);
            if typed != legacy {
                return Err(format!("{typed} != {legacy}"));
            }
            if !(typed >= 0.0) {
                return Err(format!("negative or NaN error {typed}"));
            }
            Ok(())
        });
    }

    #[test]
    fn diff_metrics() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 2.0];
        assert!((max_abs_diff(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let expect = ((0.25 + 1.0) / 3.0f64).sqrt();
        assert!((rmse(&a, &b).unwrap() - expect).abs() < 1e-12);
        assert!(max_abs_diff(&a, &b[..2]).is_err());
        assert!(rmse(&[], &[]).is_err());
    }

    #[test]
    fn linspace_endpoints_exact() {
        let g = linspace(0.0, 1.8, 10).unwrap();
        assert_eq!(g.len(), 10);
        assert_eq!(g[0], 0.0);
        assert_eq!(g[9], 1.8);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn linspace_rejects_degenerate_and_non_finite() {
        assert!(linspace(0.0, 1.0, 0).is_err());
        assert!(linspace(0.0, 1.0, 1).is_err());
        assert!(linspace(f64::NAN, 1.0, 5).is_err());
        assert!(linspace(0.0, f64::INFINITY, 5).is_err());
    }

    #[test]
    fn linspace_properties() {
        forall("linspace shape", 300, |g| {
            let lo = g.f64_in(-1e9, 1e9);
            let hi = g.f64_in(-1e9, 1e9);
            let n = g.usize_in(2, 64);
            let pts = linspace(lo, hi, n).map_err(|e| format!("unexpected error: {e}"))?;
            if pts.len() != n {
                return Err(format!("len {} != n {n}", pts.len()));
            }
            if pts[0] != lo || pts[n - 1] != hi {
                return Err(format!(
                    "endpoints [{}, {}] != [{lo}, {hi}]",
                    pts[0],
                    pts[n - 1]
                ));
            }
            if pts.iter().any(|x| !x.is_finite()) {
                return Err("non-finite grid point".into());
            }
            Ok(())
        });
    }

    #[test]
    fn logspace_spans_decades() {
        let g = logspace(1e-15, 1e-9, 7).unwrap();
        assert_eq!(g.len(), 7);
        assert!((g[0] - 1e-15).abs() < 1e-27);
        assert!((g[6] - 1e-9).abs() < 1e-21);
        let ratio = g[1] / g[0];
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn logspace_rejects_bad_endpoints() {
        assert!(logspace(0.0, 1.0, 5).is_err());
        assert!(logspace(-1.0, 1.0, 5).is_err());
        assert!(logspace(1.0, f64::NAN, 5).is_err());
        assert!(logspace(1.0, 10.0, 1).is_err());
        assert!(logspace(1.0, 10.0, 0).is_err());
    }

    #[test]
    fn logspace_properties() {
        forall("logspace positivity", 300, |g| {
            let lo = 10f64.powf(g.f64_in(-18.0, 3.0));
            let hi = 10f64.powf(g.f64_in(-18.0, 3.0));
            let n = g.usize_in(2, 48);
            let pts = logspace(lo, hi, n).map_err(|e| format!("unexpected error: {e}"))?;
            if pts.len() != n {
                return Err(format!("len {} != n {n}", pts.len()));
            }
            if pts.iter().any(|x| !(x.is_finite() && *x > 0.0)) {
                return Err("non-positive or non-finite grid point".into());
            }
            // Endpoints are exp(ln(..)) round trips: allow 1 ulp-ish slack.
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
            if rel(pts[0], lo) > 1e-12 || rel(pts[n - 1], hi) > 1e-12 {
                return Err(format!(
                    "endpoints [{}, {}] vs [{lo}, {hi}]",
                    pts[0],
                    pts[n - 1]
                ));
            }
            Ok(())
        });
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert!(mean(&[]).is_err());
    }

    /// Pins the reduction order bit-for-bit. The vector is built so that
    /// left-to-right, right-to-left, and pairwise accumulation all give
    /// *different* bits — if this test passes, no reassociating "fast sum"
    /// has replaced the pinned order.
    #[test]
    fn ordered_sum_is_left_to_right() {
        let xs = [1.0, 1e16, 1.0, -1e16, 1e-3, 0.1, 7.0, -3.5, 1e8, -0.25];
        let left_to_right = xs.iter().fold(0.0f64, |acc, &x| acc + x);
        assert_eq!(sum_ordered(&xs).to_bits(), left_to_right.to_bits());

        // Prove the pin has teeth: other orders really differ in bits.
        let right_to_left = xs.iter().rev().fold(0.0f64, |acc, &x| acc + x);
        assert_ne!(left_to_right.to_bits(), right_to_left.to_bits());
        fn pairwise(xs: &[f64]) -> f64 {
            match xs.len() {
                0 => 0.0,
                1 => xs[0],
                n => pairwise(&xs[..n / 2]) + pairwise(&xs[n / 2..]),
            }
        }
        assert_ne!(left_to_right.to_bits(), pairwise(&xs).to_bits());
    }

    /// `sort_total` is bit-identical to the stable `total_cmp` sort on
    /// every length from 0 up through ragged sizes, over a pool mixing
    /// duplicates, both zeros, both infinities, subnormals and NaNs of
    /// both signs with distinct payloads.
    #[test]
    fn sort_total_matches_the_stable_total_cmp_sort() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::from_bits(0xfff8_0000_0000_0000),
            f64::from_bits(0xfff0_0000_0000_0002),
            f64::from_bits(0xffff_ffff_ffff_ffff),
        ];
        forall("sort_total == sort_by(total_cmp)", 400, |g| {
            let n = match g.usize_in(0, 3) {
                0 => g.usize_in(0, 2),
                1 => g.usize_in(3, 17),
                _ => g.usize_in(18, 300),
            };
            let mut xs = Vec::with_capacity(n);
            for _ in 0..n {
                let x = match g.usize_in(0, 3) {
                    0 => specials[g.usize_in(0, specials.len() - 1)],
                    // A repeat of an earlier value makes runs of ties.
                    1 if !xs.is_empty() => xs[g.usize_in(0, xs.len() - 1)],
                    _ => g.f64_in(-4.0, 4.0),
                };
                xs.push(x);
            }
            let mut want = xs.clone();
            want.sort_by(f64::total_cmp);
            let mut got = xs.clone();
            sort_total(&mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(&got) != bits(&want) {
                return Err(format!("input {xs:?}: got {got:?}, want {want:?}"));
            }
            Ok(())
        });
    }

    #[test]
    fn moments_ordered_matches_the_two_pass_definition() {
        let xs = [0.61, 0.6699, 0.58, 0.7013, 0.64, 0.625];
        let (m, sd) = moments_ordered(&xs).unwrap();
        let mean_ref = xs.iter().fold(0.0f64, |a, &x| a + x) / xs.len() as f64;
        let ss = xs
            .iter()
            .fold(0.0f64, |a, &x| a + (x - mean_ref) * (x - mean_ref));
        let sd_ref = (ss / (xs.len() - 1) as f64).sqrt();
        assert_eq!(m.to_bits(), mean_ref.to_bits());
        assert_eq!(sd.to_bits(), sd_ref.to_bits());
        // Degenerate cases: one sample has zero deviation, empty errors.
        assert_eq!(moments_ordered(&[2.5]).unwrap(), (2.5, 0.0));
        assert!(moments_ordered(&[]).is_err());
    }
}
