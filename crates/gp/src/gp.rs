//! Exact Gaussian-process regression.
//!
//! §III.B: each objective `f_k` is approximated by a surrogate GP; former
//! evaluations are jointly Gaussian with mean `m_k` and covariance `K_k`.
//! The implementation is the textbook Cholesky formulation (Rasmussen &
//! Williams, Algorithm 2.1): factor `K + σ²I = LLᵀ`, then `α = K⁻¹y` gives
//! posterior means and `v = L⁻¹k*` variances. Targets are standardized
//! internally.
//!
//! The pieces are kept apart so the multi-objective driver can share them:
//!
//! * a `GramFactor` is the Cholesky factor for one kernel and noise. It
//!   does not depend on the targets, so every objective that selected the
//!   same hyperparameters shares one. It grows one row per new observation
//!   in `O(n²)`, bit-identical to refactoring from scratch;
//! * a `TargetFit` standardizes one target vector and solves `α` against a
//!   factor, also `O(n²)`;
//! * `posterior` scores a whole block of query points at once: one forward
//!   solve with a column per query, shared by every fit on the factor.
//!   [`GpRegressor::predict`] is its one-column case;
//! * `select_hyperparameters` is the ML-II grid search. It factors each
//!   grid point once for all the targets it is selecting for.

use crate::kernel::Kernel;
use crate::GpError;
use lens_num::linalg::{dot, squared_distance, Cholesky, Matrix};
use lens_num::stats::Standardizer;

/// Added to the noise variance on the Gram diagonal for numerical safety.
const JITTER: f64 = 1e-8;

/// Squared distances between training inputs, packed as a lower triangle:
/// row `i` holds the distances from input `i` to inputs `0..=i`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Distances {
    packed: Vec<f64>,
    rows: usize,
}

impl Distances {
    /// Appends the rows of inputs `rows()..xs.len()`.
    pub(crate) fn extend(&mut self, xs: &[Vec<f64>]) {
        for i in self.rows..xs.len() {
            self.packed
                .extend(xs[..=i].iter().map(|xj| squared_distance(&xs[i], xj)));
        }
        self.rows = self.rows.max(xs.len());
    }

    /// Number of inputs covered.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    fn row(&self, i: usize) -> &[f64] {
        let start = i * (i + 1) / 2;
        &self.packed[start..=start + i]
    }
}

/// Squared distances from every training input (rows) to every query
/// (columns).
///
/// The queries are read dimension-major so each input's distances to the
/// whole block accumulate as one row. Every pair still sums its terms in
/// dimension order from `-0.0`, exactly as [`squared_distance`] does.
pub(crate) fn cross_distances<Q: AsRef<[f64]>>(xs: &[Vec<f64>], queries: &[Q]) -> Matrix {
    let dim = xs.first().map_or(0, Vec::len);
    let by_dim = Matrix::from_fn(dim, queries.len(), |j, c| queries[c].as_ref()[j]);
    let mut d2 = Matrix::from_fn(xs.len(), queries.len(), |_, _| -0.0);
    for (i, x) in xs.iter().enumerate() {
        let row = d2.row_mut(i);
        for (j, &a) in x.iter().enumerate() {
            for (sum, b) in row.iter_mut().zip(by_dim.row(j)) {
                let t = a - b;
                *sum += t * t;
            }
        }
    }
    d2
}

/// The Cholesky factor of `K + (noise + jitter)·I` over the training inputs
/// for one kernel and noise variance.
#[derive(Debug)]
pub(crate) struct GramFactor {
    kernel: Box<dyn Kernel>,
    noise: f64,
    chol: Cholesky,
}

impl GramFactor {
    /// The factor of `distances`' inputs.
    ///
    /// # Errors
    ///
    /// [`GpError::InvalidTrainingData`] for a negative or non-finite noise,
    /// [`GpError::Numeric`] if the Gram matrix is not positive definite.
    pub(crate) fn new(
        kernel: Box<dyn Kernel>,
        noise: f64,
        distances: &Distances,
    ) -> Result<Self, GpError> {
        if !noise.is_finite() || noise < 0.0 {
            return Err(GpError::InvalidTrainingData(format!(
                "noise must be finite and non-negative, got {noise}"
            )));
        }
        let mut factor = GramFactor {
            kernel,
            noise,
            chol: Cholesky::new(),
        };
        factor.extend(distances)?;
        Ok(factor)
    }

    /// Appends one factor row per input in `distances` not yet covered, in
    /// `O(n²)` each.
    ///
    /// # Errors
    ///
    /// [`GpError::Numeric`] if a new pivot is not positive; the rows before
    /// it are kept.
    pub(crate) fn extend(&mut self, distances: &Distances) -> Result<(), GpError> {
        let mut row = Vec::with_capacity(distances.rows());
        for i in self.chol.dim()..distances.rows() {
            row.clear();
            row.extend(
                distances
                    .row(i)
                    .iter()
                    .map(|&d2| self.kernel.at_squared_distance(d2)),
            );
            row[i] += self.noise + JITTER;
            self.chol.push_row(&row)?;
        }
        Ok(())
    }

    /// The kernel's lengthscale.
    pub(crate) fn lengthscale(&self) -> f64 {
        self.kernel.lengthscale()
    }

    /// The kernel evaluated elementwise over a block of squared distances.
    pub(crate) fn covariance(&self, squared_distances: &Matrix) -> Matrix {
        let (rows, cols) = squared_distances.shape();
        let d2 = squared_distances.as_slice();
        Matrix::from_fn(rows, cols, |i, j| {
            self.kernel.at_squared_distance(d2[i * cols + j])
        })
    }
}

/// One target vector standardized and solved against a [`GramFactor`].
#[derive(Debug, Clone)]
pub(crate) struct TargetFit {
    standardizer: Standardizer,
    alpha: Vec<f64>,
    log_marginal_likelihood: f64,
}

impl TargetFit {
    /// Standardizes `ys` and solves `α = (K + σ²I)⁻¹ z`.
    ///
    /// # Errors
    ///
    /// [`GpError::Numeric`] if `ys` is empty.
    pub(crate) fn new(factor: &GramFactor, ys: &[f64]) -> Result<Self, GpError> {
        let standardizer = Standardizer::fit(ys)?;
        let z: Vec<f64> = ys.iter().map(|&y| standardizer.transform(y)).collect();
        let alpha = factor.chol.solve(&z);
        // log p(y|X) = -0.5 zᵀα - 0.5 log|K| - n/2 log 2π  (standardized z).
        let lml = -0.5 * dot(&z, &alpha)
            - 0.5 * factor.chol.log_det()
            - 0.5 * ys.len() as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(TargetFit {
            standardizer,
            alpha,
            log_marginal_likelihood: lml,
        })
    }
}

/// Posterior mean and variance, in target units, for each of `fits` (all
/// solved against `factor`) at the query points whose covariances with the
/// training inputs are the columns of `k_cross` (`n × queries`).
///
/// The means are `k*ᵀα` per fit. The variance `k(x,x) − ‖L⁻¹k*‖²` comes
/// from one multi-column forward solve, done in place on `k_cross` and
/// shared by every fit. Each column is summed in training order from
/// `-0.0`, exactly as a single-query [`dot`] would be.
pub(crate) fn posterior(
    factor: &GramFactor,
    mut k_cross: Matrix,
    fits: &[&TargetFit],
) -> Vec<Vec<(f64, f64)>> {
    let (n, queries) = k_cross.shape();
    let means: Vec<Vec<f64>> = fits
        .iter()
        .map(|fit| {
            let mut mean = vec![-0.0; queries];
            for (i, &a) in fit.alpha.iter().enumerate() {
                for (m, k) in mean.iter_mut().zip(k_cross.row(i)) {
                    *m += k * a;
                }
            }
            mean
        })
        .collect();
    factor.chol.solve_lower_in_place(&mut k_cross);
    let mut explained = vec![-0.0; queries];
    for i in 0..n {
        for (s, v) in explained.iter_mut().zip(k_cross.row(i)) {
            *s += v * v;
        }
    }
    let prior = factor.kernel.diagonal();
    fits.iter()
        .zip(means)
        .map(|(fit, mean)| {
            let scale = fit.standardizer.scale();
            mean.iter()
                .zip(&explained)
                .map(|(&m, &e)| {
                    let var_z = (prior - e).max(0.0);
                    (fit.standardizer.inverse(m), var_z * scale * scale)
                })
                .collect()
        })
        .collect()
}

/// The outcome of [`select_hyperparameters`].
#[derive(Debug)]
pub(crate) struct Selection {
    /// The distinct factors some target selected, in grid order.
    pub(crate) factors: Vec<GramFactor>,
    /// Per target, the index of its factor in `factors`.
    pub(crate) factor_of: Vec<usize>,
    /// Per target, its fit against that factor.
    pub(crate) fits: Vec<TargetFit>,
}

/// ML-II model selection for several target vectors over the same inputs:
/// for each target, the `(lengthscale, noise)` grid point with the highest
/// log marginal likelihood (the first one on ties).
///
/// Grid points are visited lengthscale-major. Each is factored once and the
/// factor is shared by every target; only the factors some target currently
/// selects are kept.
///
/// # Errors
///
/// [`GpError::InvalidTrainingData`] for empty grids, otherwise the error of
/// the last grid point if no grid point could be factored.
pub(crate) fn select_hyperparameters(
    distances: &Distances,
    targets: &[Vec<f64>],
    base_kernel: &dyn Kernel,
    lengthscales: &[f64],
    noises: &[f64],
) -> Result<Selection, GpError> {
    if lengthscales.is_empty() || noises.is_empty() {
        return Err(GpError::InvalidTrainingData(
            "hyperparameter grids must be non-empty".into(),
        ));
    }
    // (grid point, factor) for every factor some target currently selects.
    let mut kept: Vec<(usize, GramFactor)> = Vec::new();
    let mut best: Vec<Option<(usize, TargetFit)>> = vec![None; targets.len()];
    let mut last_err = None;
    let grid = lengthscales
        .iter()
        .flat_map(|&ls| noises.iter().map(move |&noise| (ls, noise)));
    for (g, (ls, noise)) in grid.enumerate() {
        let factor = match GramFactor::new(base_kernel.with_lengthscale(ls), noise, distances) {
            Ok(factor) => factor,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        for (ys, slot) in targets.iter().zip(&mut best) {
            let fit = TargetFit::new(&factor, ys)?;
            let better = slot
                .as_ref()
                .is_none_or(|(_, b)| fit.log_marginal_likelihood > b.log_marginal_likelihood);
            if better {
                *slot = Some((g, fit));
            }
        }
        kept.push((g, factor));
        kept.retain(|(k, _)| best.iter().flatten().any(|(b, _)| b == k));
    }
    let Some(best) = best.into_iter().collect::<Option<Vec<_>>>() else {
        return Err(last_err.expect("a target without a fit means a grid point failed"));
    };
    let (factor_of, fits) = best
        .into_iter()
        .map(|(g, fit)| {
            let f = kept.iter().position(|(k, _)| *k == g);
            (f.expect("selected factors are kept"), fit)
        })
        .unzip();
    Ok(Selection {
        factors: kept.into_iter().map(|(_, factor)| factor).collect(),
        factor_of,
        fits,
    })
}

/// A fitted Gaussian process regressor.
#[derive(Debug)]
pub struct GpRegressor {
    xs: Vec<Vec<f64>>,
    factor: GramFactor,
    fit: TargetFit,
}

impl GpRegressor {
    /// Fits a GP to inputs `xs` and targets `ys` under the given kernel and
    /// observation-noise variance (in standardized-target units).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingData`] for empty/ragged inputs and
    /// [`GpError::Numeric`] if the kernel matrix cannot be factorized.
    pub fn fit<K: Kernel + 'static>(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        kernel: K,
        noise: f64,
    ) -> Result<Self, GpError> {
        Self::fit_boxed(xs, ys, Box::new(kernel), noise)
    }

    /// [`fit`](Self::fit) with an already boxed kernel.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](Self::fit).
    pub fn fit_boxed(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        kernel: Box<dyn Kernel>,
        noise: f64,
    ) -> Result<Self, GpError> {
        validate(&xs, &ys)?;
        let mut distances = Distances::default();
        distances.extend(&xs);
        let factor = GramFactor::new(kernel, noise, &distances)?;
        let fit = TargetFit::new(&factor, &ys)?;
        Ok(GpRegressor { xs, factor, fit })
    }

    /// Fits with ML-II model selection: tries every lengthscale in
    /// `lengthscales` and every noise in `noises`, keeping the fit with the
    /// highest log marginal likelihood.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingData`] for empty grids or invalid
    /// inputs, or the last grid point's error if *all* candidate fits fail.
    pub fn fit_auto<K: Kernel + 'static>(
        xs: Vec<Vec<f64>>,
        ys: Vec<f64>,
        base_kernel: K,
        lengthscales: &[f64],
        noises: &[f64],
    ) -> Result<Self, GpError> {
        validate(&xs, &ys)?;
        let mut distances = Distances::default();
        distances.extend(&xs);
        let mut selection = select_hyperparameters(
            &distances,
            std::slice::from_ref(&ys),
            &base_kernel,
            lengthscales,
            noises,
        )?;
        let fit = selection.fits.pop().expect("one fit per target");
        let factor = selection
            .factors
            .pop()
            .expect("the selected factor is kept");
        Ok(GpRegressor { xs, factor, fit })
    }

    /// Posterior mean and variance at a query point, in the original target
    /// units: the one-column case of the block posterior the optimizer
    /// scores its candidate pool with.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(
            x.len(),
            self.xs[0].len(),
            "query dimension mismatch in GP predict"
        );
        let d2 = cross_distances(&self.xs, &[x]);
        posterior(&self.factor, self.factor.covariance(&d2), &[&self.fit])[0][0]
    }

    /// Posterior standard deviation at a query point.
    pub fn predict_std(&self, x: &[f64]) -> f64 {
        self.predict(x).1.sqrt()
    }

    /// The log marginal likelihood of the (standardized) training data.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.fit.log_marginal_likelihood
    }

    /// Number of training points.
    pub fn num_points(&self) -> usize {
        self.xs.len()
    }

    /// The fitted kernel's lengthscale (after any ML-II selection).
    pub fn lengthscale(&self) -> f64 {
        self.factor.lengthscale()
    }

    /// The fitted observation-noise variance.
    pub fn noise(&self) -> f64 {
        self.factor.noise
    }
}

/// Checks training inputs: non-empty, one target per input, and a
/// consistent, non-zero dimension.
pub(crate) fn validate(xs: &[Vec<f64>], ys: &[f64]) -> Result<(), GpError> {
    if xs.is_empty() {
        return Err(GpError::InvalidTrainingData("no training points".into()));
    }
    if xs.len() != ys.len() {
        return Err(GpError::InvalidTrainingData(format!(
            "{} inputs vs {} targets",
            xs.len(),
            ys.len()
        )));
    }
    let d = xs[0].len();
    if d == 0 || xs.iter().any(|x| x.len() != d) {
        return Err(GpError::InvalidTrainingData(
            "inputs must be non-empty and consistent in dimension".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52, SquaredExponential};
    use proptest::prelude::*;

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] * std::f64::consts::PI * 2.0).sin() * 3.0 + 10.0)
            .collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points_with_low_noise() {
        let (xs, ys) = toy_data();
        let gp = GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(0.3, 1.0), 1e-8).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (mean, var) = gp.predict(x);
            assert!((mean - y).abs() < 1e-3, "mean {mean} vs {y}");
            assert!(var < 1e-3, "variance {var} at training point");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (xs, ys) = toy_data();
        let gp = GpRegressor::fit(xs, ys, SquaredExponential::new(0.1, 1.0), 1e-6).unwrap();
        let at_data = gp.predict(&[0.5]).1;
        let far = gp.predict(&[3.0]).1;
        assert!(far > at_data * 10.0, "far {far} vs at-data {at_data}");
    }

    #[test]
    fn reverts_to_prior_mean_far_away() {
        let (xs, ys) = toy_data();
        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let gp = GpRegressor::fit(xs, ys, SquaredExponential::new(0.1, 1.0), 1e-6).unwrap();
        let (mean, _) = gp.predict(&[10.0]);
        assert!((mean - y_mean).abs() < 1e-6);
    }

    #[test]
    fn fit_auto_picks_reasonable_lengthscale() {
        let (xs, ys) = toy_data();
        let gp = GpRegressor::fit_auto(
            xs,
            ys,
            Matern52::new(1.0, 1.0),
            &[0.05, 0.1, 0.2, 0.4, 0.8, 1.6],
            &[1e-6, 1e-4, 1e-2],
        )
        .unwrap();
        // The sine has structure at scale ~0.25; huge lengthscales fit badly.
        assert!(gp.lengthscale() <= 0.8, "picked {}", gp.lengthscale());
        // And the auto fit predicts well between points.
        let (mean, _) = gp.predict(&[0.4375]);
        let truth = (0.4375f64 * std::f64::consts::TAU).sin() * 3.0 + 10.0;
        assert!((mean - truth).abs() < 0.5, "mean {mean} vs {truth}");
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            GpRegressor::fit(vec![], vec![], Matern52::new(1.0, 1.0), 1e-6),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit(
                vec![vec![1.0]],
                vec![1.0, 2.0],
                Matern52::new(1.0, 1.0),
                1e-6
            ),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit(
                vec![vec![1.0], vec![1.0, 2.0]],
                vec![1.0, 2.0],
                Matern52::new(1.0, 1.0),
                1e-6
            ),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert!(matches!(
            GpRegressor::fit(
                vec![vec![1.0]],
                vec![1.0],
                Matern52::new(1.0, 1.0),
                f64::NAN
            ),
            Err(GpError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn constant_targets_are_handled() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys = vec![7.0; 5];
        let gp = GpRegressor::fit(xs, ys, Matern52::new(1.0, 1.0), 1e-6).unwrap();
        let (mean, _) = gp.predict(&[2.5]);
        assert!((mean - 7.0).abs() < 1e-6);
    }

    #[test]
    fn higher_lml_for_better_lengthscale() {
        let (xs, ys) = toy_data();
        let good = GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(0.3, 1.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        let bad = GpRegressor::fit(xs, ys, Matern52::new(50.0, 1.0), 1e-4)
            .unwrap()
            .log_marginal_likelihood();
        assert!(good > bad, "good {good} vs bad {bad}");
    }

    #[test]
    fn shared_selection_matches_per_target_fit_auto() {
        let (xs, ys) = toy_data();
        let targets = vec![
            ys.clone(),
            ys.iter().map(|y| -y).collect(),
            xs.iter().map(|x| x[0] * x[0]).collect(),
        ];
        let lengthscales = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6];
        let noises = [-1.0, 1e-6, 1e-4, 1e-2];
        let mut distances = Distances::default();
        distances.extend(&xs);
        let base = Matern52::new(1.0, 1.0);
        let selection =
            select_hyperparameters(&distances, &targets, &base, &lengthscales, &noises).unwrap();
        let factors = &selection.factors;
        assert!(factors.len() <= targets.len());
        for ((ys, f), fit) in targets
            .iter()
            .zip(&selection.factor_of)
            .zip(&selection.fits)
        {
            let alone = GpRegressor::fit_auto(xs.clone(), ys.clone(), base, &lengthscales, &noises)
                .unwrap();
            assert_eq!(factors[*f].lengthscale(), alone.lengthscale());
            assert_eq!(factors[*f].noise, alone.noise());
            assert_eq!(
                fit.log_marginal_likelihood.to_bits(),
                alone.log_marginal_likelihood().to_bits()
            );
        }
        // A grid with no usable point reports the last point's error.
        assert!(matches!(
            select_hyperparameters(&distances, &targets, &base, &[0.1], &[-1.0, f64::NAN]),
            Err(GpError::InvalidTrainingData(why)) if why.contains("NaN")
        ));
    }

    fn factor_bits(factor: &GramFactor) -> Vec<u64> {
        let l = factor.chol.factor();
        l.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// The block posterior over many queries equals one-point
        /// `predict` at each query bit for bit, and two fits sharing a
        /// factor get the same moments as each alone.
        #[test]
        fn prop_block_posterior_matches_predict(
            xs in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 2..=12),
            ys in proptest::collection::vec(-5.0f64..5.0, 24),
            queries in proptest::collection::vec(proptest::collection::vec(-0.5f64..1.5, 3), 1..=9),
            lengthscale in 0.05f64..2.0,
            noise_exp in 2i32..7,
        ) {
            let n = xs.len();
            let noise = 10f64.powi(-noise_exp);
            let gp = GpRegressor::fit(xs, ys[..n].to_vec(), Matern52::new(lengthscale, 1.0), noise)
                .unwrap();
            let other = TargetFit::new(&gp.factor, &ys[n..2 * n]).unwrap();
            let k_cross = gp.factor.covariance(&cross_distances(&gp.xs, &queries));
            let block = posterior(&gp.factor, k_cross.clone(), &[&gp.fit, &other]);
            let alone = posterior(&gp.factor, k_cross, &[&other]);
            for (c, query) in queries.iter().enumerate() {
                let (mean, var) = gp.predict(query);
                prop_assert_eq!(block[0][c].0.to_bits(), mean.to_bits());
                prop_assert_eq!(block[0][c].1.to_bits(), var.to_bits());
                prop_assert_eq!(block[1][c].0.to_bits(), alone[0][c].0.to_bits());
                prop_assert_eq!(block[1][c].1.to_bits(), alone[0][c].1.to_bits());
            }
        }

        /// A factor grown one observation at a time equals the factor of
        /// all observations at once, bit for bit.
        #[test]
        fn prop_grown_factor_matches_full(
            xs in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 4), 2..=16),
            split in 0.0f64..1.0,
            lengthscale in 0.05f64..2.0,
        ) {
            let start = 1 + ((xs.len() - 1) as f64 * split) as usize;
            let mut distances = Distances::default();
            distances.extend(&xs[..start]);
            let mut grown =
                GramFactor::new(Box::new(Matern52::new(lengthscale, 1.0)), 1e-4, &distances).unwrap();
            for i in start..xs.len() {
                distances.extend(&xs[..=i]);
                grown.extend(&distances).unwrap();
            }
            let full =
                GramFactor::new(Box::new(Matern52::new(lengthscale, 1.0)), 1e-4, &distances).unwrap();
            prop_assert_eq!(factor_bits(&grown), factor_bits(&full));
        }
    }
}
