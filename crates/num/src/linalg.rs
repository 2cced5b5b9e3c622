//! Dense row-major matrices with the operations needed for Gaussian-process
//! regression: products, transpose, Cholesky factorization and triangular
//! solves.
//!
//! The Cholesky factor is built one row at a time
//! ([`Cholesky::push_row`]): row `i` of `L` reads only rows `< i`, so a
//! factor of the leading `n × n` block grows to `n + 1` in `O(n²)` instead
//! of being refactored in `O(n³)`. [`Matrix::cholesky`] is exactly "push
//! every row from empty", so a grown factor and a from-scratch factor are
//! bit-identical. The LENS search appends one row per observation between
//! hyperparameter refits, and scores its candidate pool with one
//! multi-right-hand-side forward solve
//! ([`Cholesky::solve_lower_in_place`]) rather than one solve per candidate.

use crate::NumError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major, `f64` matrix.
///
/// # Examples
///
/// ```
/// use lens_num::linalg::Matrix;
///
/// # fn main() -> Result<(), lens_num::NumError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::RaggedRows`] if the rows have differing lengths.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, NumError> {
        let ncols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            let r = r.as_ref();
            if r.len() != ncols {
                return Err(NumError::RaggedRows {
                    expected: ncols,
                    found: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a closure over `(row, col)` indices.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the underlying data in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when the inner dimensions
    /// differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, NumError> {
        if self.cols != rhs.rows {
            return Err(NumError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, NumError> {
        if v.len() != self.cols {
            return Err(NumError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows).map(|i| dot(self.row(i), v)).collect())
    }

    /// Adds `value` to every diagonal element (in place), returning `self`.
    ///
    /// Used to apply jitter / noise variance to kernel Gram matrices.
    pub fn add_diagonal(mut self, value: f64) -> Matrix {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
        self
    }

    /// Computes the Cholesky factorization `A = L Lᵀ` of a symmetric
    /// positive-definite matrix by pushing its rows, in order, onto an empty
    /// factor (see [`Cholesky::push_row`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::NotPositiveDefinite`] if a pivot is not strictly
    /// positive, and [`NumError::DimensionMismatch`] if the matrix is not
    /// square. Only the lower triangle of `self` is read.
    pub fn cholesky(&self) -> Result<Cholesky, NumError> {
        if self.rows != self.cols {
            return Err(NumError::DimensionMismatch {
                op: "cholesky",
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        let n = self.rows;
        let mut chol = Cholesky {
            packed: Vec::with_capacity(n * (n + 1) / 2),
            dim: 0,
        };
        for i in 0..n {
            chol.push_row(&self.row(i)[..=i])?;
        }
        Ok(chol)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] + rhs[(i, j)])
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] - rhs[(i, j)])
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] * s)
    }
}

/// The lower-triangular Cholesky factor of a symmetric positive-definite
/// matrix, together with the solve routines GP regression needs.
///
/// The factor grows one row at a time ([`push_row`](Self::push_row)), which
/// is how [`Matrix::cholesky`] builds it too.
///
/// # Examples
///
/// ```
/// use lens_num::linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), lens_num::NumError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let chol = a.cholesky()?;
/// // log|A| = 2 * sum(log diag(L)); |A| = 3 here.
/// assert!((chol.log_det() - 3f64.ln()).abs() < 1e-12);
///
/// // Growing the factor of the leading block gives the same factor.
/// let mut grown = Matrix::from_rows(&[&[2.0]])?.cholesky()?;
/// grown.push_row(&[1.0, 2.0])?;
/// assert_eq!(grown, chol);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cholesky {
    /// Rows of `L`, packed: row `i` holds its `i + 1` entries on and below
    /// the diagonal, starting at offset `i (i + 1) / 2`.
    packed: Vec<f64>,
    dim: usize,
}

impl Cholesky {
    /// The empty factor, of dimension 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lower-triangular factor `L` as a dense matrix.
    pub fn factor(&self) -> Matrix {
        let n = self.dim;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(self.row(i));
        }
        l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` of `L`, from column 0 to the diagonal.
    fn row(&self, i: usize) -> &[f64] {
        let start = i * (i + 1) / 2;
        &self.packed[start..=start + i]
    }

    /// Extends the factor of an `n × n` matrix `A` to the factor of the
    /// `(n + 1) × (n + 1)` matrix that adds `row` as its last row (and
    /// column): `row` holds `A[n][0..=n]`, the new diagonal last.
    ///
    /// The entries are computed exactly as a full factorization computes
    /// row `n` (Cholesky–Banachiewicz, subtracting in order `k = 0, 1, …`),
    /// so pushing rows one by one is bit-identical to
    /// [`Matrix::cholesky`]. Cost `O(n²)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `row.len() != dim() + 1`,
    /// and [`NumError::NotPositiveDefinite`] with `pivot = dim()` if the new
    /// pivot is not strictly positive. On error the factor is unchanged.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), NumError> {
        let n = self.dim;
        if row.len() != n + 1 {
            return Err(NumError::DimensionMismatch {
                op: "cholesky push_row",
                lhs: (n + 1, n + 1),
                rhs: (1, row.len()),
            });
        }
        let start = self.packed.len();
        self.packed.extend_from_slice(row);
        let (done, new) = self.packed.split_at_mut(start);
        for j in 0..n {
            let lj = &done[j * (j + 1) / 2..];
            let mut sum = new[j];
            for (a, b) in new[..j].iter().zip(lj) {
                sum -= a * b;
            }
            new[j] = sum / lj[j];
        }
        let mut sum = new[n];
        for a in &new[..n] {
            sum -= a * a;
        }
        if sum <= 0.0 {
            self.packed.truncate(start);
            return Err(NumError::NotPositiveDefinite { pivot: n });
        }
        new[n] = sum.sqrt();
        self.dim += 1;
        Ok(())
    }

    /// Solves `L Y = B` in place for every column of `b` at once: on return
    /// `b` holds `Y`.
    ///
    /// Row `i` of `Y` is `(B[i] - Σ_k L[i][k] Y[k]) / L[i][i]`, with each
    /// column subtracting its terms in order `k = 0..i`, so every column
    /// comes out exactly as if it were solved alone. The rows of `Y` are
    /// read four at a time, which keeps the running row in registers.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows()` differs from the factor dimension.
    pub fn solve_lower_in_place(&self, b: &mut Matrix) {
        let n = self.dim;
        assert_eq!(b.rows, n, "rhs rows mismatch in solve_lower_in_place");
        let m = b.cols;
        if m == 0 {
            return;
        }
        if m == 1 {
            // One column keeps its running sum in a register, where the
            // blocked loop below would store and reload it every four
            // terms: single-point `GpRegressor::predict` at n = 200 runs
            // about 1.7× faster on this path. Same subtraction order.
            for i in 0..n {
                let l = self.row(i);
                let mut sum = b.data[i];
                for (lk, y) in l[..i].iter().zip(&b.data[..i]) {
                    sum -= lk * y;
                }
                b.data[i] = sum / l[i];
            }
            return;
        }
        for i in 0..n {
            let (solved, rest) = b.data.split_at_mut(i * m);
            let acc = &mut rest[..m];
            let l = self.row(i);
            let mut blocks = solved.chunks_exact(4 * m);
            let mut k = 0;
            for block in &mut blocks {
                let (y0, y) = block.split_at(m);
                let (y1, y) = y.split_at(m);
                let (y2, y3) = y.split_at(m);
                let (l0, l1, l2, l3) = (l[k], l[k + 1], l[k + 2], l[k + 3]);
                for ((((a, v0), v1), v2), v3) in acc.iter_mut().zip(y0).zip(y1).zip(y2).zip(y3) {
                    *a = *a - l0 * v0 - l1 * v1 - l2 * v2 - l3 * v3;
                }
                k += 4;
            }
            for y in blocks.remainder().chunks_exact(m) {
                let lk = l[k];
                for (a, v) in acc.iter_mut().zip(y) {
                    *a -= lk * v;
                }
                k += 1;
            }
            let diag = l[i];
            for a in acc.iter_mut() {
                *a /= diag;
            }
        }
    }

    /// Solves `L y = b` by forward substitution: the one-column case of
    /// [`solve_lower_in_place`](Self::solve_lower_in_place).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factor dimension.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.dim, "rhs length mismatch in solve_lower");
        let mut y = Matrix {
            rows: b.len(),
            cols: 1,
            data: b.to_vec(),
        };
        self.solve_lower_in_place(&mut y);
        y.data
    }

    /// Solves `Lᵀ x = y` by backward substitution.
    ///
    /// (Indexed loops are intentional: the backward solve walks `L` down a
    /// column, and the textbook form is clearer than iterator chains.)
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the factor dimension.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_upper_transpose(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim;
        assert_eq!(y.len(), n, "rhs length mismatch in solve_upper_transpose");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.packed[k * (k + 1) / 2 + i] * x[k];
            }
            x[i] = sum / self.row(i)[i];
        }
        x
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factor dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper_transpose(&self.solve_lower(b))
    }

    /// Log-determinant of the factored matrix, `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim).map(|i| self.row(i)[i].ln()).sum::<f64>() * 2.0
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_matmul_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ragged_rows_error() {
        let r = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(
            r.unwrap_err(),
            NumError::RaggedRows {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let l = a.cholesky().unwrap();
        let reconstructed = l.factor().matmul(&l.factor().transpose()).unwrap();
        assert!((&reconstructed - &a).frobenius_norm() < 1e-9);
        // Known factor from the classic example.
        assert_eq!(l.factor()[(0, 0)], 2.0);
        assert_eq!(l.factor()[(1, 0)], 6.0);
        assert_eq!(l.factor()[(2, 2)], 3.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(NumError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.cholesky(),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn push_row_checks_length_and_keeps_factor_on_error() {
        let mut chol = Cholesky::new();
        assert!(matches!(
            chol.push_row(&[1.0, 2.0]),
            Err(NumError::DimensionMismatch { .. })
        ));
        chol.push_row(&[4.0]).unwrap();
        assert_eq!(
            chol.push_row(&[2.0, 1.0]),
            Err(NumError::NotPositiveDefinite { pivot: 1 })
        );
        assert_eq!(chol.dim(), 1);
        chol.push_row(&[2.0, 5.0]).unwrap();
        assert_eq!(chol.factor()[(1, 1)], 2.0);
    }

    #[test]
    fn multi_column_solve_accepts_an_empty_block() {
        let chol = Matrix::identity(3).cholesky().unwrap();
        let mut empty = Matrix::zeros(3, 0);
        chol.solve_lower_in_place(&mut empty);
        assert_eq!(empty.shape(), (3, 0));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let chol = a.cholesky().unwrap();
        let x = chol.solve(&[10.0, 8.0]);
        let back = a.matvec(&x).unwrap();
        assert!((back[0] - 10.0).abs() < 1e-12);
        assert!((back[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn log_det_matches_direct_computation() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]).unwrap();
        let chol = a.cholesky().unwrap();
        assert!((chol.log_det() - 16f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn add_diagonal_adds_jitter() {
        let a = Matrix::zeros(3, 3).add_diagonal(0.5);
        for i in 0..3 {
            assert_eq!(a[(i, i)], 0.5);
        }
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }

    proptest! {
        /// For random SPD matrices A = BᵀB + εI, Cholesky must succeed and
        /// solving must invert the product.
        #[test]
        fn prop_cholesky_solves_spd(seed_rows in proptest::collection::vec(
            proptest::collection::vec(-3.0f64..3.0, 4), 4..=8)) {
            let b = Matrix::from_rows(&seed_rows).unwrap();
            let a = b.transpose().matmul(&b).unwrap().add_diagonal(1e-3);
            // a is 4x4 SPD.
            let chol = a.cholesky().unwrap();
            let rhs: Vec<f64> = (0..4).map(|i| i as f64 - 1.5).collect();
            let x = chol.solve(&rhs);
            let back = a.matvec(&x).unwrap();
            for (bi, ri) in back.iter().zip(&rhs) {
                prop_assert!((bi - ri).abs() < 1e-6, "residual too large: {} vs {}", bi, ri);
            }
        }

        /// A factor grown by pushing rows onto the factor of a leading
        /// block equals the factor of the whole SPD matrix bit for bit; a
        /// row that breaks positive-definiteness is rejected with the
        /// same pivot and leaves the grown factor unchanged.
        #[test]
        fn prop_pushed_rows_match_full_factorization(
            seed_rows in proptest::collection::vec(
                proptest::collection::vec(-3.0f64..3.0, 13), 13..=16),
            n in 1usize..=13,
            prefix_frac in 0.0f64..1.0,
            bad_frac in 0.0f64..1.0,
        ) {
            let b = Matrix::from_rows(&seed_rows).unwrap();
            let full = b.transpose().matmul(&b).unwrap().add_diagonal(1e-3);
            let a = Matrix::from_fn(n, n, |i, j| full[(i, j)]);
            let prefix = (n as f64 * prefix_frac) as usize;
            let bits = |c: &Cholesky| -> Vec<u64> {
                c.factor().as_slice().iter().map(|v| v.to_bits()).collect()
            };

            let whole = a.cholesky().unwrap();
            let mut grown = Matrix::from_fn(prefix, prefix, |i, j| a[(i, j)]).cholesky().unwrap();
            for i in prefix..n {
                grown.push_row(&a.row(i)[..=i]).unwrap();
            }
            prop_assert_eq!(bits(&grown), bits(&whole));

            // A negative diagonal entry forces the pivot at that row to fail.
            let bad = ((n as f64 * bad_frac) as usize).min(n - 1);
            let broken = Matrix::from_fn(n, n, |i, j| if i == bad && j == bad { -1.0 } else { a[(i, j)] });
            let expected = broken.cholesky().unwrap_err();
            prop_assert_eq!(&expected, &NumError::NotPositiveDefinite { pivot: bad });
            let start = prefix.min(bad);
            let mut grown = Matrix::from_fn(start, start, |i, j| broken[(i, j)]).cholesky().unwrap();
            let mut err = None;
            for i in start..n {
                if let Err(e) = grown.push_row(&broken.row(i)[..=i]) {
                    err = Some(e);
                    break;
                }
            }
            prop_assert_eq!(err, Some(expected));
            prop_assert_eq!(grown.dim(), bad);
            prop_assert_eq!(bits(&grown), bits(&Matrix::from_fn(bad, bad, |i, j| a[(i, j)]).cholesky().unwrap()));
        }

        /// The multi-column forward solve equals one `solve_lower` per
        /// column bit for bit, across the four-row blocks and their
        /// remainder.
        #[test]
        fn prop_multi_column_solve_matches_single(
            seed_rows in proptest::collection::vec(
                proptest::collection::vec(-3.0f64..3.0, 11), 11..=14),
            n in 1usize..=11,
            rhs in proptest::collection::vec(-5.0f64..5.0, 11 * 5),
            m in 1usize..=5,
        ) {
            let b = Matrix::from_rows(&seed_rows).unwrap();
            let full = b.transpose().matmul(&b).unwrap().add_diagonal(1e-3);
            let chol = Matrix::from_fn(n, n, |i, j| full[(i, j)]).cholesky().unwrap();
            let mut block = Matrix::from_fn(n, m, |i, c| rhs[i * 5 + c]);
            let columns: Vec<Vec<f64>> = (0..m).map(|c| (0..n).map(|i| block[(i, c)]).collect()).collect();
            chol.solve_lower_in_place(&mut block);
            for (c, column) in columns.iter().enumerate() {
                let single = chol.solve_lower(column);
                for (i, y) in single.iter().enumerate() {
                    prop_assert_eq!(block[(i, c)].to_bits(), y.to_bits());
                }
            }
        }

        /// (AB)ᵀ = BᵀAᵀ for conforming random matrices.
        #[test]
        fn prop_transpose_of_product(
            a_rows in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 3), 2..=5),
            b_cols in 1usize..4,
        ) {
            let a = Matrix::from_rows(&a_rows).unwrap();
            let b = Matrix::from_fn(3, b_cols, |i, j| (i * 7 + j * 3) as f64 * 0.25 - 1.0);
            let left = a.matmul(&b).unwrap().transpose();
            let right = b.transpose().matmul(&a.transpose()).unwrap();
            prop_assert!((&left - &right).frobenius_norm() < 1e-9);
        }

        /// matvec agrees with matmul against a column matrix.
        #[test]
        fn prop_matvec_matches_matmul(
            rows in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 3), 1..=5),
            v in proptest::collection::vec(-5.0f64..5.0, 3),
        ) {
            let a = Matrix::from_rows(&rows).unwrap();
            let col = Matrix::from_fn(3, 1, |i, _| v[i]);
            let by_matmul = a.matmul(&col).unwrap();
            let by_matvec = a.matvec(&v).unwrap();
            for i in 0..a.rows() {
                prop_assert!((by_matmul[(i, 0)] - by_matvec[i]).abs() < 1e-9);
            }
        }
    }
}
