//! Compressed sparse row (CSR) matrices for large MNA systems.
//!
//! The dense [`crate::matrix::DenseMatrix`] self-describes as "tens to a
//! few hundred unknowns"; distributed power-grid circuits need thousands.
//! This module provides the storage half of the large-circuit solver tier
//! (the iterative half lives in [`crate::gmres`]):
//!
//! * [`CsrMatrix`] — a CSR matrix over a **fixed sparsity pattern**, built
//!   once from the circuit topology and restamped in place every Newton
//!   iteration (the pattern never changes, only the values),
//! * [`Ilu0`] — an incomplete LU factorization with zero fill (ILU(0)),
//!   the workhorse preconditioner for the GMRES rung of the linear-solve
//!   ladder.
//!
//! Everything here is deterministic: the pattern is sorted
//! lexicographically at construction, and no operation depends on
//! iteration order of a hash map or on thread count.

use crate::matrix::DenseMatrix;
use crate::NumericError;

/// A square sparse matrix in compressed sparse row form with a fixed
/// sparsity pattern.
///
/// The pattern (which `(row, col)` slots exist) is decided at construction
/// and never changes; [`CsrMatrix::fill_zero`] + [`CsrMatrix::add`] restamp
/// the values in place, mirroring the dense stamping API so the MNA
/// assembler can target either representation.
///
/// # Examples
///
/// ```
/// use ssn_numeric::sparse::CsrMatrix;
///
/// # fn main() -> Result<(), ssn_numeric::NumericError> {
/// let mut a = CsrMatrix::from_pattern(2, &[(0, 0), (0, 1), (1, 1)])?;
/// a.add(0, 0, 2.0);
/// a.add(0, 1, 1.0);
/// a.add(1, 1, 3.0);
/// let mut y = vec![0.0; 2];
/// a.matvec(&[1.0, 1.0], &mut y)?;
/// assert_eq!(y, vec![3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a zero-valued CSR matrix of dimension `n` whose pattern is
    /// the union of `entries` (duplicates are merged) plus the full
    /// diagonal.
    ///
    /// The diagonal is always present — even when structurally zero — so
    /// downstream factorizations ([`Ilu0`]) have a slot to accumulate
    /// elimination updates into, which is what keeps voltage-source branch
    /// rows (structural zero diagonal) factorable.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when `n == 0` or any entry
    /// lies outside `n x n`.
    pub fn from_pattern(n: usize, entries: &[(usize, usize)]) -> Result<Self, NumericError> {
        if n == 0 {
            return Err(NumericError::shape("CSR matrix must have dimension >= 1"));
        }
        for &(i, j) in entries {
            if i >= n || j >= n {
                return Err(NumericError::shape(format!(
                    "pattern entry ({i}, {j}) outside {n}x{n}"
                )));
            }
        }
        let mut pat: Vec<(usize, usize)> = Vec::with_capacity(entries.len() + n);
        pat.extend_from_slice(entries);
        pat.extend((0..n).map(|i| (i, i)));
        pat.sort_unstable();
        pat.dedup();
        let mut row_ptr = vec![0usize; n + 1];
        for &(i, _) in &pat {
            row_ptr[i + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<usize> = pat.iter().map(|&(_, j)| j).collect();
        let values = vec![0.0; col_idx.len()];
        Ok(Self {
            n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries (structural nonzeros).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Zeroes every stored value (the pattern is untouched).
    pub fn fill_zero(&mut self) {
        self.values.fill(0.0);
    }

    /// Position of `(i, j)` in the value array, if it is in the pattern.
    fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .binary_search(&j)
            .ok()
            .map(|off| lo + off)
    }

    /// Adds `v` to the `(i, j)` entry (the stamping primitive).
    ///
    /// # Panics
    ///
    /// Panics when `(i, j)` is not in the pattern — the pattern is built
    /// from the same stamping pass that later writes the values, so a miss
    /// is a stamping-path bug, not a data error.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let slot = self.slot(i, j);
        assert!(
            slot.is_some(),
            "stamp outside the CSR pattern at ({i}, {j})"
        );
        if let Some(s) = slot {
            self.values[s] += v;
        }
    }

    /// The value at `(i, j)` (zero when outside the pattern).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.slot(i, j).map_or(0.0, |s| self.values[s])
    }

    /// `y = A x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] on length mismatches.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumericError> {
        if x.len() != self.n || y.len() != self.n {
            return Err(NumericError::shape(format!(
                "matvec: x has length {}, y has length {}, expected {}",
                x.len(),
                y.len(),
                self.n
            )));
        }
        for i in 0..self.n {
            let mut sum = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                sum += self.values[k] * x[self.col_idx[k]];
            }
            y[i] = sum;
        }
        Ok(())
    }

    /// Densifies the matrix (tests and the dense rung of the solver
    /// ladder).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                d[(i, self.col_idx[k])] = self.values[k];
            }
        }
        d
    }

    /// Infinity norm of the residual `b - A x` (convergence reporting).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] on length mismatches.
    pub fn residual_inf(&self, x: &[f64], b: &[f64]) -> Result<f64, NumericError> {
        let mut ax = vec![0.0; self.n];
        self.matvec(x, &mut ax)?;
        if b.len() != self.n {
            return Err(NumericError::shape(format!(
                "residual: b has length {}, expected {}",
                b.len(),
                self.n
            )));
        }
        Ok(ax
            .iter()
            .zip(b)
            .map(|(a, b)| (b - a).abs())
            .fold(0.0, f64::max))
    }

    /// Componentwise (Oettli–Prager) backward error of `x`:
    /// `max_i |b - A x|_i / (|A| |x| + |b|)_i`, the smallest relative
    /// perturbation of each entry of `A` and `b` that makes `x` exact.
    /// Unlike a norm of the residual it weighs every row on its own scale,
    /// so a row whose natural magnitude is tiny (an MNA node held only by
    /// `gmin`) cannot hide its error behind a large row. A zero residual
    /// over a zero row counts as exact.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] on length mismatches.
    pub fn backward_error(&self, x: &[f64], b: &[f64]) -> Result<f64, NumericError> {
        if x.len() != self.n || b.len() != self.n {
            return Err(NumericError::shape(format!(
                "backward error: x has length {}, b has length {}, expected {}",
                x.len(),
                b.len(),
                self.n
            )));
        }
        let mut worst = 0.0f64;
        for (i, bi) in b.iter().enumerate() {
            let (mut ax, mut scale) = (0.0, bi.abs());
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let term = self.values[k] * x[self.col_idx[k]];
                ax += term;
                scale += term.abs();
            }
            let r = (bi - ax).abs();
            if r > 0.0 {
                worst = worst.max(r / scale);
            }
        }
        Ok(worst)
    }
}

/// An incomplete LU factorization with zero fill — ILU(0).
///
/// The factors share the sparsity pattern of the source matrix: `L` is
/// unit lower triangular (entries strictly below the diagonal), `U` is
/// upper triangular including the diagonal, and any fill-in the exact
/// factorization would create outside the pattern is simply dropped. The
/// result is not a solver but a preconditioner: `M = L U ≈ A`, applied as
/// two triangular solves per GMRES iteration.
#[derive(Debug, Clone)]
pub struct Ilu0 {
    lu: CsrMatrix,
    /// Value-array position of each row's diagonal entry.
    diag: Vec<usize>,
}

impl Ilu0 {
    /// Factors `a` in ILU(0) form.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] when a diagonal pivot
    /// collapses (relative to the row's magnitude) during the incomplete
    /// elimination — the caller's ladder then falls back to a cheaper
    /// preconditioner.
    pub fn new(a: &CsrMatrix) -> Result<Self, NumericError> {
        let n = a.n;
        let mut lu = a.clone();
        let mut diag = vec![0usize; n];
        for i in 0..n {
            // from_pattern guarantees the diagonal slot exists.
            diag[i] = lu.slot(i, i).ok_or_else(|| {
                NumericError::shape(format!("ILU(0): missing diagonal slot at row {i}"))
            })?;
        }
        // Row scales for the relative pivot test (same philosophy as the
        // dense LU: scaling must not change the singularity verdict).
        let scale: Vec<f64> = (0..n)
            .map(|i| {
                lu.values[lu.row_ptr[i]..lu.row_ptr[i + 1]]
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.abs()))
            })
            .collect();

        // IKJ-ordered incomplete elimination restricted to the pattern.
        for i in 1..n {
            let row_start = lu.row_ptr[i];
            let row_end = lu.row_ptr[i + 1];
            for kk in row_start..row_end {
                let k = lu.col_idx[kk];
                if k >= i {
                    break;
                }
                let pivot = lu.values[diag[k]];
                if pivot == 0.0 {
                    return Err(NumericError::SingularMatrix { column: k });
                }
                let m = lu.values[kk] / pivot;
                lu.values[kk] = m;
                if m == 0.0 {
                    continue;
                }
                // Subtract m * (row k, columns > k), keeping only slots
                // already in row i's pattern.
                for pp in (diag[k] + 1)..lu.row_ptr[k + 1] {
                    let j = lu.col_idx[pp];
                    if let Some(s) = lu.slot(i, j) {
                        lu.values[s] -= m * lu.values[pp];
                    }
                }
            }
            let p = lu.values[diag[i]].abs();
            if p <= 0.0 || p < 1e-14 * scale[i] {
                return Err(NumericError::SingularMatrix { column: i });
            }
        }
        // Row 0 only needs its pivot checked.
        if n > 0 {
            let p = lu.values[diag[0]].abs();
            if p <= 0.0 || p < 1e-14 * scale[0] {
                return Err(NumericError::SingularMatrix { column: 0 });
            }
        }
        Ok(Self { lu, diag })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.n
    }

    /// Applies the preconditioner: `out = (L U)^-1 r`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] on length mismatches.
    pub fn apply(&self, r: &[f64], out: &mut [f64]) -> Result<(), NumericError> {
        let n = self.lu.n;
        if r.len() != n || out.len() != n {
            return Err(NumericError::shape(format!(
                "ILU apply: r has length {}, out has length {}, expected {n}",
                r.len(),
                out.len()
            )));
        }
        // Forward solve L y = r (unit diagonal).
        for i in 0..n {
            let mut sum = r[i];
            for k in self.lu.row_ptr[i]..self.diag[i] {
                sum -= self.lu.values[k] * out[self.lu.col_idx[k]];
            }
            out[i] = sum;
        }
        // Back solve U x = y.
        for i in (0..n).rev() {
            let mut sum = out[i];
            for k in (self.diag[i] + 1)..self.lu.row_ptr[i + 1] {
                sum -= self.lu.values[k] * out[self.lu.col_idx[k]];
            }
            out[i] = sum / self.lu.values[self.diag[i]];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> CsrMatrix {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i > 0 {
                entries.push((i, i - 1));
            }
            if i + 1 < n {
                entries.push((i, i + 1));
            }
        }
        let mut a = CsrMatrix::from_pattern(n, &entries).unwrap();
        for i in 0..n {
            a.add(i, i, 2.0);
            if i > 0 {
                a.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                a.add(i, i + 1, -1.0);
            }
        }
        a
    }

    #[test]
    fn pattern_is_sorted_and_deduped() {
        let a = CsrMatrix::from_pattern(3, &[(2, 0), (0, 2), (0, 2), (1, 1)]).unwrap();
        // 4 off/explicit entries dedup to 3 distinct + 3 diagonal, with
        // (1, 1) overlapping the diagonal: 5 total.
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.dim(), 3);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn rejects_out_of_range_pattern() {
        assert!(CsrMatrix::from_pattern(0, &[]).is_err());
        assert!(CsrMatrix::from_pattern(2, &[(2, 0)]).is_err());
        assert!(CsrMatrix::from_pattern(2, &[(0, 5)]).is_err());
    }

    #[test]
    fn stamping_accumulates() {
        let mut a = CsrMatrix::from_pattern(2, &[(0, 1)]).unwrap();
        a.add(0, 1, 1.5);
        a.add(0, 1, 0.5);
        assert_eq!(a.get(0, 1), 2.0);
        a.fill_zero();
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the CSR pattern")]
    fn stamp_outside_pattern_panics() {
        let mut a = CsrMatrix::from_pattern(2, &[]).unwrap();
        a.add(0, 1, 1.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = tridiag(8);
        let d = a.to_dense();
        let x: Vec<f64> = (0..8).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let mut y = vec![0.0; 8];
        a.matvec(&x, &mut y).unwrap();
        let yd = d.matvec(&x).unwrap();
        for (a, b) in y.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-15);
        }
        assert!(a.matvec(&x[..3], &mut y).is_err());
    }

    #[test]
    fn ilu0_is_exact_on_tridiagonal() {
        // A tridiagonal matrix has no fill-in, so ILU(0) equals full LU
        // and the preconditioner solves exactly.
        let a = tridiag(16);
        let ilu = Ilu0::new(&a).unwrap();
        let b: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let mut x = vec![0.0; 16];
        ilu.apply(&b, &mut x).unwrap();
        assert!(a.residual_inf(&x, &b).unwrap() < 1e-12);
    }

    #[test]
    fn ilu0_detects_singular() {
        let mut a = CsrMatrix::from_pattern(2, &[(0, 1), (1, 0)]).unwrap();
        // [[0, 1], [0, 0]] — row 1 is all zero.
        a.add(0, 1, 1.0);
        assert!(matches!(
            Ilu0::new(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn ilu0_fills_structural_zero_diagonal() {
        // A voltage-source-like 2x2 block: [[1, 1], [1, 0]] has a
        // structural zero at (1, 1); elimination must fill it.
        let mut a = CsrMatrix::from_pattern(2, &[(0, 1), (1, 0)]).unwrap();
        a.add(0, 0, 1.0);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        let ilu = Ilu0::new(&a).unwrap();
        // Dense pattern: ILU(0) is the exact LU, so apply() solves A x = b.
        let mut x = vec![0.0; 2];
        ilu.apply(&[3.0, 1.0], &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }
}
