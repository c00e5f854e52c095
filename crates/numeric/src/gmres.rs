//! Restarted GMRES with preconditioning, and the linear-solve ladder.
//!
//! This extends the repo's ladder philosophy (`newton → brent → bisect` in
//! [`crate::solve`]) from root finding to linear solves: the primary rung
//! is GMRES preconditioned with ILU(0), the fallback is GMRES with the
//! cheaper Jacobi preconditioner (ILU(0) can break down on a zero pivot),
//! and the last resort densifies the system and calls the direct LU
//! solver, which cannot fail on a non-singular matrix. Like
//! [`crate::solve::SolveReport`], a [`LinearSolveReport`] records *how*
//! the solve succeeded so callers and telemetry can see when the primary
//! method needed help.
//!
//! The implementation is textbook restarted GMRES(m): Arnoldi with
//! modified Gram–Schmidt, Givens rotations to maintain the QR of the
//! Hessenberg matrix, left preconditioning. Everything is deterministic —
//! no randomness, no thread-order dependence — so results are bit-identical
//! across runs and thread counts.

use crate::lu;
use crate::sparse::{CsrMatrix, Ilu0};
use crate::NumericError;
use std::fmt;

/// Options for [`gmres`] and [`solve_sparse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresOptions {
    /// Krylov subspace dimension per restart cycle (GMRES(m)).
    pub restart: usize,
    /// Total iteration budget across all restart cycles.
    pub max_iters: usize,
    /// Relative tolerance on the preconditioned residual norm.
    pub rel_tol: f64,
    /// Absolute floor on the residual norm (guards `b = 0`).
    pub abs_tol: f64,
}

impl Default for GmresOptions {
    fn default() -> Self {
        Self {
            restart: 50,
            max_iters: 1000,
            rel_tol: 1e-12,
            abs_tol: 1e-300,
        }
    }
}

/// How far the componentwise backward error of an accepted solution may
/// exceed [`GmresOptions::rel_tol`]. Healthy ILU(0) and Jacobi solves land
/// within 10² of it; a preconditioner that hides rows of the residual
/// misses by 10⁶ and more.
const TRUE_RESIDUAL_SLACK: f64 = 1e3;

/// A preconditioner `M ≈ A` applied as `out = M⁻¹ r`.
#[derive(Debug, Clone)]
pub enum Preconditioner {
    /// No preconditioning (`M = I`).
    Identity,
    /// Diagonal (Jacobi) preconditioning. Construct with
    /// [`Preconditioner::jacobi`].
    Jacobi {
        /// Reciprocal diagonal of the source matrix.
        inv_diag: Vec<f64>,
    },
    /// Incomplete LU with zero fill (see [`Ilu0`]).
    Ilu(Ilu0),
}

impl Preconditioner {
    /// Builds the Jacobi preconditioner from `a`'s diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] when a diagonal entry is
    /// zero (relative to its row) — the ladder then degrades to identity.
    pub fn jacobi(a: &CsrMatrix) -> Result<Self, NumericError> {
        let n = a.dim();
        let mut inv_diag = vec![0.0; n];
        for (i, slot) in inv_diag.iter_mut().enumerate() {
            let d = a.get(i, i);
            if d == 0.0 {
                return Err(NumericError::SingularMatrix { column: i });
            }
            *slot = 1.0 / d;
        }
        Ok(Self::Jacobi { inv_diag })
    }

    /// Short name used in reports and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Identity => "none",
            Self::Jacobi { .. } => "jacobi",
            Self::Ilu(_) => "ilu0",
        }
    }

    /// `out = M⁻¹ r`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] on length mismatches.
    pub fn apply(&self, r: &[f64], out: &mut [f64]) -> Result<(), NumericError> {
        match self {
            Self::Identity => {
                if r.len() != out.len() {
                    return Err(NumericError::shape(format!(
                        "precondition: r has length {}, out has length {}",
                        r.len(),
                        out.len()
                    )));
                }
                out.copy_from_slice(r);
                Ok(())
            }
            Self::Jacobi { inv_diag } => {
                if r.len() != inv_diag.len() || out.len() != inv_diag.len() {
                    return Err(NumericError::shape(format!(
                        "precondition: r has length {}, expected {}",
                        r.len(),
                        inv_diag.len()
                    )));
                }
                for i in 0..r.len() {
                    out[i] = r[i] * inv_diag[i];
                }
                Ok(())
            }
            Self::Ilu(ilu) => ilu.apply(r, out),
        }
    }
}

/// How an iterative (or ladder) linear solve succeeded — the linear-solve
/// sibling of [`crate::solve::SolveReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSolveReport {
    /// The rung that produced the solution: `"gmres+ilu0"`,
    /// `"gmres+jacobi"`, `"gmres"`, or `"dense-lu"`.
    pub method: &'static str,
    /// How many ladder rungs were attempted, including the successful one
    /// (`1` for a direct [`gmres`] call).
    pub rungs_tried: usize,
    /// Inner iterations spent by the successful rung (0 for `dense-lu`).
    pub iterations: usize,
    /// Restart cycles used by the successful rung.
    pub restarts: usize,
    /// Final *true* (unpreconditioned) residual infinity norm
    /// `‖b − A x‖_∞`.
    pub residual: f64,
    /// Whether the tolerance was met (always `true` for `dense-lu`): the
    /// preconditioned residual reached its target *and* the componentwise
    /// backward error of the returned `x` is within a small multiple of
    /// [`GmresOptions::rel_tol`].
    pub converged: bool,
}

impl LinearSolveReport {
    /// True when the primary rung converged on the first try.
    pub fn is_clean(&self) -> bool {
        self.rungs_tried == 1 && self.converged
    }
}

impl fmt::Display for LinearSolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} rung(s): {} iteration(s), {} restart(s), residual {:.3e}",
            self.method, self.rungs_tried, self.iterations, self.restarts, self.residual
        )
    }
}

/// Solves `A x = b` with restarted, left-preconditioned GMRES(m).
///
/// Returns the solution and a single-rung [`LinearSolveReport`]; check
/// [`LinearSolveReport::converged`] — a non-converged return carries the
/// best iterate so the caller's ladder can decide what to do next.
///
/// # Errors
///
/// * [`NumericError::ShapeMismatch`] when `b.len() != a.dim()`,
/// * [`NumericError::InvalidArgument`] for a zero restart length,
/// * [`NumericError::NonFiniteEvaluation`] when the iteration produces a
///   non-finite value (a singular or absurdly scaled preconditioner).
pub fn gmres(
    a: &CsrMatrix,
    b: &[f64],
    precond: &Preconditioner,
    opts: &GmresOptions,
) -> Result<(Vec<f64>, LinearSolveReport), NumericError> {
    let n = a.dim();
    if b.len() != n {
        return Err(NumericError::shape(format!(
            "gmres: b has length {}, expected {n}",
            b.len()
        )));
    }
    if opts.restart == 0 {
        return Err(NumericError::argument("gmres: restart length must be >= 1"));
    }
    let method: &'static str = match precond {
        Preconditioner::Identity => "gmres",
        Preconditioner::Jacobi { .. } => "gmres+jacobi",
        Preconditioner::Ilu(_) => "gmres+ilu0",
    };
    let m = opts.restart.min(n).min(opts.max_iters.max(1));

    let mut x = vec![0.0; n];
    // Preconditioned rhs norm for the relative test.
    let mut pb = vec![0.0; n];
    precond.apply(b, &mut pb)?;
    let b_norm = norm2(&pb);
    let target = (opts.rel_tol * b_norm).max(opts.abs_tol);

    let mut total_iters = 0usize;
    let mut restarts = 0usize;
    let mut scratch = vec![0.0; n];
    let mut converged = b_norm <= opts.abs_tol; // b = 0 => x = 0 converged.

    'outer: while !converged && total_iters < opts.max_iters {
        // r0 = M⁻¹ (b - A x).
        a.matvec(&x, &mut scratch)?;
        for i in 0..n {
            scratch[i] = b[i] - scratch[i];
        }
        let mut r0 = vec![0.0; n];
        precond.apply(&scratch, &mut r0)?;
        let beta = norm2(&r0);
        if !beta.is_finite() {
            return Err(NumericError::NonFiniteEvaluation {
                method: "gmres",
                at: total_iters as f64,
            });
        }
        if beta <= target {
            converged = true;
            break;
        }

        // Arnoldi basis (m+1 vectors) and Hessenberg kept QR-factored via
        // Givens rotations; g is the rotated residual vector.
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        basis.push(r0.iter().map(|v| v / beta).collect());
        let mut h = vec![vec![0.0f64; m]; m + 1];
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;
        let mut k_used = 0usize;

        for k in 0..m {
            if total_iters >= opts.max_iters {
                break;
            }
            total_iters += 1;
            // w = M⁻¹ A v_k.
            a.matvec(&basis[k], &mut scratch)?;
            let mut w = vec![0.0; n];
            precond.apply(&scratch, &mut w)?;
            // Modified Gram–Schmidt.
            for (j, v) in basis.iter().enumerate().take(k + 1) {
                let hjk = dot(&w, v);
                h[j][k] = hjk;
                for i in 0..n {
                    w[i] -= hjk * v[i];
                }
            }
            let hnext = norm2(&w);
            h[k + 1][k] = hnext;
            if !hnext.is_finite() {
                return Err(NumericError::NonFiniteEvaluation {
                    method: "gmres",
                    at: total_iters as f64,
                });
            }
            // Apply the accumulated rotations to the new column.
            for j in 0..k {
                let t = cs[j] * h[j][k] + sn[j] * h[j + 1][k];
                h[j + 1][k] = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
                h[j][k] = t;
            }
            // New rotation annihilating h[k+1][k].
            let denom = (h[k][k] * h[k][k] + hnext * hnext).sqrt();
            if denom == 0.0 {
                // Exact breakdown: this column adds nothing to the Krylov
                // space. Apply the progress made so far and restart; the
                // iteration budget bounds repeated stalls.
                break;
            }
            cs[k] = h[k][k] / denom;
            sn[k] = hnext / denom;
            h[k][k] = denom;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];
            k_used = k + 1;

            if g[k + 1].abs() <= target {
                update_solution(&mut x, &basis, &h, &g, k_used);
                converged = true;
                break 'outer;
            }
            if hnext == 0.0 {
                // Lucky breakdown: the projected solve is exact.
                update_solution(&mut x, &basis, &h, &g, k_used);
                converged = true;
                break 'outer;
            }
            basis.push(w.iter().map(|v| v / hnext).collect());
        }
        if k_used > 0 {
            update_solution(&mut x, &basis, &h, &g, k_used);
        }
        restarts += 1;
    }

    // Left preconditioning minimizes `‖M⁻¹ r‖`, not `‖r‖`: an ILU(0)
    // with a near-zero pivot (an MNA node held only by gmin) shrinks whole
    // rows of the residual by that pivot, so the estimate can meet the
    // target while `x` is wrong in those rows. The true residual decides.
    let converged = converged && a.backward_error(&x, b)? <= TRUE_RESIDUAL_SLACK * opts.rel_tol;
    let residual = a.residual_inf(&x, b)?;
    Ok((
        x,
        LinearSolveReport {
            method,
            rungs_tried: 1,
            iterations: total_iters,
            restarts,
            residual,
            converged,
        },
    ))
}

/// The large-system linear-solve ladder:
/// `gmres+ilu0 → gmres+jacobi → dense-lu`.
///
/// The first rung is GMRES preconditioned with ILU(0); if the incomplete
/// factorization breaks down or GMRES stalls, the second rung retries with
/// Jacobi; the last resort densifies and solves directly (exact, but
/// O(n³) — the ladder only lands there on pathological systems).
///
/// # Errors
///
/// * [`NumericError::ShapeMismatch`] on dimension mismatches,
/// * [`NumericError::SingularMatrix`] when even the dense rung finds the
///   system singular.
pub fn solve_sparse(
    a: &CsrMatrix,
    b: &[f64],
    opts: &GmresOptions,
) -> Result<(Vec<f64>, LinearSolveReport), NumericError> {
    let mut rungs = 0usize;
    // Rung 1: ILU(0).
    if let Ok(ilu) = Ilu0::new(a) {
        rungs += 1;
        let (x, mut report) = gmres(a, b, &Preconditioner::Ilu(ilu), opts)?;
        if report.converged {
            report.rungs_tried = rungs;
            return Ok((x, report));
        }
    } else {
        rungs += 1;
    }
    // Rung 2: Jacobi.
    if let Ok(jac) = Preconditioner::jacobi(a) {
        rungs += 1;
        let (x, mut report) = gmres(a, b, &jac, opts)?;
        if report.converged {
            report.rungs_tried = rungs;
            return Ok((x, report));
        }
    } else {
        rungs += 1;
    }
    // Rung 3: dense LU (exact).
    rungs += 1;
    let x = lu::solve(&a.to_dense(), b)?;
    let residual = a.residual_inf(&x, b)?;
    Ok((
        x,
        LinearSolveReport {
            method: "dense-lu",
            rungs_tried: rungs,
            iterations: 0,
            restarts: 0,
            residual,
            converged: true,
        },
    ))
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Back-solves the k×k triangular system and applies the Krylov update
/// `x += V y`.
fn update_solution(x: &mut [f64], basis: &[Vec<f64>], h: &[Vec<f64>], g: &[f64], k: usize) {
    let mut y = vec![0.0f64; k];
    for i in (0..k).rev() {
        let mut sum = g[i];
        for (j, yj) in y.iter().enumerate().take(k).skip(i + 1) {
            sum -= h[i][j] * yj;
        }
        y[i] = sum / h[i][i];
    }
    for (j, yj) in y.iter().enumerate() {
        for (xi, vi) in x.iter_mut().zip(&basis[j]) {
            *xi += yj * vi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D Poisson (tridiagonal) system: SPD, well conditioned, and the
    /// ILU(0) of a tridiagonal matrix is exact.
    fn poisson(n: usize) -> CsrMatrix {
        let mut pattern = Vec::new();
        for i in 0..n {
            if i + 1 < n {
                pattern.push((i, i + 1));
                pattern.push((i + 1, i));
            }
        }
        let mut a = CsrMatrix::from_pattern(n, &pattern).unwrap();
        for i in 0..n {
            a.add(i, i, 2.0);
            if i + 1 < n {
                a.add(i, i + 1, -1.0);
                a.add(i + 1, i, -1.0);
            }
        }
        a
    }

    fn rhs_for_ones(a: &CsrMatrix) -> Vec<f64> {
        let ones = vec![1.0; a.dim()];
        let mut b = vec![0.0; a.dim()];
        a.matvec(&ones, &mut b).unwrap();
        b
    }

    /// One Newton system of a PMOS driver bank on the power rail, in MNA
    /// order: gate node `g` (0) and true supply `s` (1), each held only by
    /// gmin and pinned by a voltage-source branch; the bouncing rail `p`
    /// (2) behind the package inductor; `k` identical loads (3..3+k); then
    /// the branches of the gate source, the supply source and the
    /// inductor. ILU(0) pivots on the 1e-12 gmin diagonals and drops the
    /// fill they create, which hides the branch rows of the residual.
    fn gmin_pinned_bank(k: usize) -> (CsrMatrix, Vec<f64>) {
        let n = k + 6;
        let (bg, bs, bl) = (k + 3, k + 4, k + 5);
        let loads = 3..3 + k;
        let mut a_ij = vec![
            (0, 0, 1e-12),
            (0, bg, 1.0),
            (bg, 0, 1.0),
            (1, 1, 1e-12),
            (1, bs, 1.0),
            (1, bl, 1.0),
            (bs, 1, 1.0),
            (bl, 1, 1.0),
            (bl, 2, -1.0),
            (bl, bl, -1e3),
            (2, 0, -0.1887),
            (2, 1, -0.0317),
            (2, 2, 0.4205),
            (2, bl, -1.0),
        ];
        for i in loads.clone() {
            a_ij.extend([
                (2, i, -2.557e-6),
                (i, 0, 3.254e-3),
                (i, 1, 5.458e-4),
                (i, 2, -3.803e-3),
                (i, i, 1.0000026),
            ]);
        }
        let pattern: Vec<(usize, usize)> = a_ij.iter().map(|&(i, j, _)| (i, j)).collect();
        let mut a = CsrMatrix::from_pattern(n, &pattern).unwrap();
        for (i, j, v) in a_ij {
            a.add(i, j, v);
        }
        let mut b = vec![0.0; n];
        b[2] = 0.4422;
        for i in loads {
            b[i] = -1.417e-3;
        }
        b[bg] = 1.3488;
        b[bs] = 1.8;
        (a, b)
    }

    #[test]
    fn a_preconditioner_that_hides_rows_does_not_report_convergence() {
        let (a, b) = gmin_pinned_bank(4);
        let ilu = Preconditioner::Ilu(Ilu0::new(&a).unwrap());
        let (x, report) = gmres(&a, &b, &ilu, &GmresOptions::default()).unwrap();
        let exact = lu::solve(&a.to_dense(), &b).unwrap();
        let err = x
            .iter()
            .zip(&exact)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(
            !report.converged || err < 1e-9,
            "reported convergence at error {err:.3e}: {report}"
        );
        // The ladder still lands on the exact answer.
        let (x, report) = solve_sparse(&a, &b, &GmresOptions::default()).unwrap();
        assert!(report.converged, "{report}");
        for (u, v) in x.iter().zip(&exact) {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn unpreconditioned_gmres_solves_poisson() {
        let a = poisson(40);
        let b = rhs_for_ones(&a);
        let (x, report) =
            gmres(&a, &b, &Preconditioner::Identity, &GmresOptions::default()).unwrap();
        assert!(report.converged, "report: {report}");
        assert_eq!(report.method, "gmres");
        assert!(report.residual < 1e-9, "residual {:.3e}", report.residual);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn ilu0_preconditioning_converges_in_one_iteration_on_tridiagonal() {
        // ILU(0) is exact on a tridiagonal pattern, so preconditioned
        // GMRES must converge in a single iteration.
        let a = poisson(60);
        let b = rhs_for_ones(&a);
        let ilu = Ilu0::new(&a).unwrap();
        let (x, report) =
            gmres(&a, &b, &Preconditioner::Ilu(ilu), &GmresOptions::default()).unwrap();
        assert!(report.converged);
        assert!(
            report.iterations <= 2,
            "expected near-direct convergence, got {} iterations",
            report.iterations
        );
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn restart_bound_is_honoured_and_still_converges() {
        let a = poisson(50);
        let b = rhs_for_ones(&a);
        // A short restart length stagnates near machine precision on
        // Poisson, so ask for a realistic (still tight) tolerance.
        let opts = GmresOptions {
            restart: 5,
            max_iters: 2000,
            rel_tol: 1e-9,
            ..GmresOptions::default()
        };
        let (x, report) = gmres(&a, &b, &Preconditioner::Identity, &opts).unwrap();
        assert!(report.converged, "report: {report}");
        assert!(report.restarts > 0, "restart length 5 on n=50 must cycle");
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rhs_returns_zero_without_iterating() {
        let a = poisson(8);
        let b = vec![0.0; 8];
        let (x, report) =
            gmres(&a, &b, &Preconditioner::Identity, &GmresOptions::default()).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ladder_reports_clean_ilu0_solve() {
        let a = poisson(30);
        let b = rhs_for_ones(&a);
        let (x, report) = solve_sparse(&a, &b, &GmresOptions::default()).unwrap();
        assert!(report.converged);
        assert_eq!(report.method, "gmres+ilu0");
        assert!(report.is_clean(), "report: {report}");
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn ladder_falls_back_to_dense_when_iterations_exhausted() {
        let a = poisson(40);
        let b = rhs_for_ones(&a);
        // An absurd budget forces every GMRES rung to fail, and the dense
        // rung must still deliver the exact answer.
        let opts = GmresOptions {
            restart: 1,
            max_iters: 1,
            rel_tol: 1e-300,
            abs_tol: 1e-300,
        };
        let (x, report) = solve_sparse(&a, &b, &opts).unwrap();
        assert!(report.converged);
        assert_eq!(report.method, "dense-lu");
        assert_eq!(report.rungs_tried, 3);
        assert!(!report.is_clean());
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        // Pattern includes the diagonal implicitly, but the value stays 0.
        let mut a = CsrMatrix::from_pattern(2, &[(0, 1), (1, 0)]).unwrap();
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        let err = Preconditioner::jacobi(&a).unwrap_err();
        assert!(matches!(err, NumericError::SingularMatrix { .. }));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = poisson(4);
        let b = vec![1.0; 5];
        let err = gmres(&a, &b, &Preconditioner::Identity, &GmresOptions::default()).unwrap_err();
        assert!(matches!(err, NumericError::ShapeMismatch { .. }));
    }
}
