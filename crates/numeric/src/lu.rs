//! LU factorization with partial pivoting.
//!
//! This is the linear solver behind every Newton iteration of the circuit
//! simulator, so it favours an allocation-light API: factor once with
//! [`LuFactor::new`], then solve repeatedly with [`LuFactor::solve_in_place`].

use crate::matrix::DenseMatrix;
use crate::NumericError;

/// Relative pivot threshold: a column is declared singular when its best
/// pivot is smaller than `PIVOT_REL` times the original magnitude of the
/// pivot row (implicit row equilibration). An absolute threshold would
/// flag badly *scaled* but perfectly well-conditioned systems — e.g. a
/// diagonal of subnormals — as singular, which matters for MNA matrices
/// whose entries span conductances from gmin (1e-12 S) to companion terms
/// (1e3 S and beyond).
const PIVOT_REL: f64 = 1e-14;

/// An LU factorization `P A = L U` of a square matrix.
///
/// # Examples
///
/// ```
/// use ssn_numeric::{matrix::DenseMatrix, lu::LuFactor};
///
/// # fn main() -> Result<(), ssn_numeric::NumericError> {
/// let a = DenseMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    lu: DenseMatrix,
    perm: Vec<usize>,
    /// Sign of the permutation; used by [`LuFactor::determinant`].
    sign: f64,
}

impl LuFactor {
    /// Factors `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] when `a` is not square.
    /// * [`NumericError::SingularMatrix`] when a pivot collapses relative
    ///   to its row's original magnitude (row-scaled test, so badly scaled
    ///   but well-conditioned systems still factor).
    pub fn new(a: &DenseMatrix) -> Result<Self, NumericError> {
        if !a.is_square() {
            return Err(NumericError::shape(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        // Row scales of the *original* matrix, permuted alongside the rows:
        // the singularity test below is relative to these, so row scaling
        // never changes the verdict (only genuine rank deficiency does).
        let mut scale = vec![0.0f64; n];
        for i in 0..n {
            for j in 0..n {
                scale[i] = scale[i].max(lu[(i, j)].abs());
            }
        }

        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            // Row-scaled singularity test: an exactly zero column remainder
            // (or an all-zero row, scale 0) is singular, as is a pivot that
            // has collapsed far below its row's original magnitude.
            if pmax <= 0.0 || pmax < PIVOT_REL * scale[p] {
                return Err(NumericError::SingularMatrix { column: k });
            }
            if p != k {
                perm.swap(p, k);
                scale.swap(p, k);
                sign = -sign;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            // Eliminate below the pivot.
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let delta = m * lu[(k, j)];
                        lu[(i, j)] -= delta;
                    }
                }
            }
        }
        Ok(Self { lu, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`, returning a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: on entry `x` holds `b`, on exit the
    /// solution.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when `x.len() != self.dim()`.
    // Triangular substitution is clearest with explicit index loops.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), NumericError> {
        let n = self.dim();
        if x.len() != n {
            return Err(NumericError::shape(format!(
                "solve: rhs has length {}, expected {n}",
                x.len()
            )));
        }
        // Apply permutation: y = P b.
        let permuted: Vec<f64> = self.perm.iter().map(|&p| x[p]).collect();
        x.copy_from_slice(&permuted);
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(())
    }

    /// The determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }
}

/// One-shot convenience: factor `a` and solve `A x = b`.
///
/// # Errors
///
/// Propagates the errors of [`LuFactor::new`] and [`LuFactor::solve`].
pub fn solve(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, NumericError> {
    LuFactor::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_inf(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .unwrap()
            .iter()
            .zip(b)
            .map(|(ax, b)| (ax - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_3x3_exactly() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]])
            .unwrap();
        let b = [8.0, -11.0, -3.0];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match LuFactor::new(&a) {
            Err(NumericError::SingularMatrix { column }) => assert_eq!(column, 1),
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(LuFactor::new(&a).is_err());
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let a = DenseMatrix::identity(3);
        let lu = LuFactor::new(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn determinant_matches_known_values() {
        let a = DenseMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.determinant() + 6.0).abs() < 1e-12);
        let eye = LuFactor::new(&DenseMatrix::identity(4)).unwrap();
        assert!((eye.determinant() - 1.0).abs() < 1e-12);
        // Permutation flips the sign.
        let p = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuFactor::new(&p).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn reusable_factorization() {
        let a = DenseMatrix::from_rows(&[&[5.0, 2.0], &[1.0, 3.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [3.5, -2.0]] {
            let x = lu.solve(&b).unwrap();
            assert!(residual_inf(&a, &x, &b) < 1e-12);
        }
    }

    #[test]
    fn subnormal_scale_is_not_spuriously_singular() {
        // Regression for the absolute pivot threshold (was 1e-300): a
        // diagonal of subnormals is perfectly conditioned (cond = 1) but
        // every pivot sits below any absolute cutoff. The row-scaled test
        // must factor it and recover the exact solution.
        let tiny = 1e-310;
        let a = DenseMatrix::from_rows(&[&[tiny, 0.0], &[0.0, tiny]]).unwrap();
        let lu = LuFactor::new(&a).expect("well-conditioned subnormal diagonal must factor");
        let x = lu.solve(&[2.0 * tiny, 3.0 * tiny]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_row_scales_are_not_spuriously_singular() {
        // One row lives at 1e-310, the other at O(1); the system is
        // well-conditioned after row scaling ([[1, 2], [3, 4]]).
        let s = 1e-310;
        let a = DenseMatrix::from_rows(&[&[s, 2.0 * s], &[3.0, 4.0]]).unwrap();
        let lu = LuFactor::new(&a).expect("row-scalable system must factor");
        // b chosen so x = [1, 1].
        let x = lu.solve(&[3.0 * s, 7.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10, "x0 = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-10, "x1 = {}", x[1]);
    }

    #[test]
    fn all_zero_row_is_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.0, 0.0]]).unwrap();
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rank_deficiency_is_still_singular_at_tiny_scale() {
        // Genuinely rank-1 at subnormal scale: the relative test must keep
        // flagging it even though an absolute test would too.
        let s = 1e-310;
        let a = DenseMatrix::from_rows(&[&[s, 2.0 * s], &[2.0 * s, 4.0 * s]]).unwrap();
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericError::SingularMatrix { column: 1 })
        ));
    }

    #[test]
    fn random_diagonally_dominant_systems() {
        // Deterministic pseudo-random fill; diagonally dominant so the
        // system is guaranteed well-conditioned.
        let n = 12;
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            a[(i, i)] = row_sum + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve(&a, &b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }
}
