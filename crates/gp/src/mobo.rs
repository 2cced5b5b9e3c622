//! The multi-objective Bayesian optimization driver.
//!
//! One GP surrogate per objective; each `suggest` draws a random weight
//! vector on the simplex and scalarizes the per-objective acquisition
//! scores (Dragonfly's MOBO strategy — random scalarizations provably cover
//! the Pareto front as iterations accumulate). The optimizer is *ask/tell*:
//! the caller supplies the candidate pool (Algorithm 2 proposes random
//! samples plus mutations of the incumbent Pareto set), receives the index
//! of the most promising candidate, evaluates the true objectives, and
//! tells the result back.
//!
//! The hyperparameters change only at ML-II refits, every
//! [`MoboConfig::refit_every`] tells. In between, the optimizer keeps one
//! Cholesky factor per distinct `(lengthscale, noise)` its objectives
//! selected, grows it by one row per tell, and re-solves only `α` per
//! objective, so an iteration costs `O(n²)` rather than `O(n³)`.

use crate::acquisition::{Acquisition, AcquisitionKind};
use crate::gp::{self, posterior, Distances, GramFactor, TargetFit};
use crate::kernel::Matern52;
use crate::GpError;
use lens_num::dist::simplex_weights;
use lens_pareto::ParetoFront;
use rand::RngCore;

/// Configuration of the MOBO driver.
#[derive(Debug, Clone, PartialEq)]
pub struct MoboConfig {
    /// Acquisition rule (default: LCB, as in Dragonfly).
    pub acquisition: AcquisitionKind,
    /// LCB exploration weight.
    pub beta: f64,
    /// ML-II lengthscale grid (unit-cube inputs).
    pub lengthscales: Vec<f64>,
    /// ML-II observation-noise grid (standardized-target units).
    pub noises: Vec<f64>,
    /// Re-run the ML-II grid search every this many new observations.
    /// Between refits the hyperparameters are fixed: each new observation
    /// appends one row to the shared Cholesky factors (`O(n²)`) and only
    /// `α = K⁻¹y` is re-solved per objective.
    pub refit_every: usize,
}

impl Default for MoboConfig {
    fn default() -> Self {
        MoboConfig {
            acquisition: AcquisitionKind::default(),
            beta: 2.0,
            lengthscales: vec![0.1, 0.2, 0.4, 0.8, 1.6, 3.2],
            noises: vec![1e-4, 1e-2, 1e-1],
            refit_every: 25,
        }
    }
}

/// Ask/tell multi-objective Bayesian optimizer (minimization).
///
/// # Examples
///
/// ```
/// use lens_gp::{MoboConfig, MultiObjectiveOptimizer};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lens_gp::GpError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
/// // Two cheap toy objectives over [0,1]: f1 = x, f2 = 1-x.
/// for i in 0..5 {
///     let x = i as f64 / 4.0;
///     opt.tell(vec![x], vec![x, 1.0 - x])?;
/// }
/// let candidates: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
/// let pick = opt.suggest(&candidates, &mut rng)?;
/// assert!(pick < candidates.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiObjectiveOptimizer {
    config: MoboConfig,
    num_objectives: usize,
    xs: Vec<Vec<f64>>,
    ys: Vec<Vec<f64>>,
    /// Squared distances between the told inputs.
    distances: Distances,
    /// One Gram factor per distinct `(lengthscale, noise)` the last ML-II
    /// refit selected, shared by every objective that selected it.
    factors: Vec<GramFactor>,
    /// Per objective, the index of its factor in `factors`.
    factor_of: Vec<usize>,
    tells_since_refit: usize,
}

impl MultiObjectiveOptimizer {
    /// Creates an optimizer for `num_objectives` minimized objectives.
    ///
    /// # Panics
    ///
    /// Panics if `num_objectives` is zero or the config grids are empty.
    pub fn new(num_objectives: usize, config: MoboConfig) -> Self {
        assert!(num_objectives > 0, "need at least one objective");
        assert!(
            !config.lengthscales.is_empty() && !config.noises.is_empty(),
            "hyperparameter grids must be non-empty"
        );
        MultiObjectiveOptimizer {
            config,
            num_objectives,
            xs: Vec::new(),
            ys: Vec::new(),
            distances: Distances::default(),
            factors: Vec::new(),
            factor_of: Vec::new(),
            tells_since_refit: usize::MAX / 2, // force ML-II on first suggest
        }
    }

    /// Number of observations told so far.
    pub fn num_observations(&self) -> usize {
        self.xs.len()
    }

    /// Number of objectives.
    pub fn num_objectives(&self) -> usize {
        self.num_objectives
    }

    /// The observations as `(inputs, objective_vectors)`.
    pub fn observations(&self) -> (&[Vec<f64>], &[Vec<f64>]) {
        (&self.xs, &self.ys)
    }

    /// Records an evaluated point.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingData`] for dimension mismatches or
    /// non-finite values.
    pub fn tell(&mut self, x: Vec<f64>, y: Vec<f64>) -> Result<(), GpError> {
        if y.len() != self.num_objectives {
            return Err(GpError::InvalidTrainingData(format!(
                "expected {} objectives, got {}",
                self.num_objectives,
                y.len()
            )));
        }
        if let Some(first) = self.xs.first() {
            if first.len() != x.len() {
                return Err(GpError::InvalidTrainingData(format!(
                    "input dimension {} != {}",
                    x.len(),
                    first.len()
                )));
            }
        }
        if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
            return Err(GpError::InvalidTrainingData(
                "non-finite value in observation".into(),
            ));
        }
        self.xs.push(x);
        self.ys.push(y);
        self.tells_since_refit += 1;
        Ok(())
    }

    /// The Pareto front of the observations, as indices into the telling
    /// order plus their objective vectors.
    pub fn pareto_front(&self) -> ParetoFront<usize> {
        self.ys.iter().cloned().enumerate().collect()
    }

    /// Brings the surrogates up to date with every observation and returns
    /// one fit per objective. When an ML-II refit is due, the grid is
    /// searched afresh; otherwise each shared factor grows by one row per
    /// new observation and only `α` is re-solved, since the standardized
    /// targets move with every tell.
    fn fit_objectives(&mut self) -> Result<Vec<TargetFit>, GpError> {
        let targets: Vec<Vec<f64>> = (0..self.num_objectives)
            .map(|k| self.ys.iter().map(|y| y[k]).collect())
            .collect();
        gp::validate(&self.xs, &targets[0])?;
        self.distances.extend(&self.xs);
        if self.tells_since_refit >= self.config.refit_every {
            self.factors.clear(); // the refit replaces them; free them first
            let selection = gp::select_hyperparameters(
                &self.distances,
                &targets,
                &Matern52::new(1.0, 1.0),
                &self.config.lengthscales,
                &self.config.noises,
            )?;
            self.factors = selection.factors;
            self.factor_of = selection.factor_of;
            self.tells_since_refit = 0;
            return Ok(selection.fits);
        }
        // In objective order, so a failure reports the first objective's.
        for &f in &self.factor_of {
            self.factors[f].extend(&self.distances)?;
        }
        targets
            .iter()
            .zip(&self.factor_of)
            .map(|(ys, &f)| TargetFit::new(&self.factors[f], ys))
            .collect()
    }

    /// Chooses the most promising candidate: builds the randomly scalarized
    /// acquisition `ϑ = Σ w_k · α_k` and returns the index of its argmax
    /// over the pool (Algorithm 2, lines 8–11).
    ///
    /// Per-objective acquisition scores are z-normalized across the pool
    /// before weighting so objectives with different units mix sanely.
    ///
    /// The pool is scored in blocks: one `n × |pool|` squared-distance
    /// matrix, then per shared factor one covariance matrix and one
    /// multi-column forward solve for the posteriors of every objective on
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingData`] if nothing has been told,
    /// `candidates` is empty, or a candidate's dimension differs from the
    /// observations'; propagates GP fit failures.
    pub fn suggest(
        &mut self,
        candidates: &[Vec<f64>],
        rng: &mut dyn RngCore,
    ) -> Result<usize, GpError> {
        if self.xs.is_empty() {
            return Err(GpError::InvalidTrainingData(
                "tell at least one observation before suggest".into(),
            ));
        }
        if candidates.is_empty() {
            return Err(GpError::InvalidTrainingData(
                "candidate pool is empty".into(),
            ));
        }
        let dim = self.xs[0].len();
        if let Some(bad) = candidates.iter().position(|c| c.len() != dim) {
            return Err(GpError::InvalidTrainingData(format!(
                "candidate {bad} has dimension {}, observations have {dim}",
                candidates[bad].len()
            )));
        }
        let fits = self.fit_objectives()?;
        let weights = simplex_weights(rng, self.num_objectives);

        let d2 = gp::cross_distances(&self.xs, candidates);
        let mut posteriors = vec![Vec::new(); self.num_objectives];
        // Factors are kept in grid order, so factors that differ only in
        // noise are adjacent and each run of one lengthscale shares one
        // Matérn block (at seeds 2021, 2022 and 11 of the paper-default
        // search, 83–92% of suggests have such a run).
        let mut f = 0;
        for run in self
            .factors
            .chunk_by(|a, b| a.lengthscale() == b.lengthscale())
        {
            let blocks = std::iter::repeat_n(run[0].covariance(&d2), run.len());
            for (factor, k_cross) in run.iter().zip(blocks) {
                let users: Vec<usize> = (0..self.num_objectives)
                    .filter(|&k| self.factor_of[k] == f)
                    .collect();
                let shared: Vec<&TargetFit> = users.iter().map(|&k| &fits[k]).collect();
                let moments = posterior(factor, k_cross, &shared);
                for (k, moments) in users.into_iter().zip(moments) {
                    posteriors[k] = moments;
                }
                f += 1;
            }
        }

        let mut combined = vec![0.0; candidates.len()];
        for (k, moments) in posteriors.into_iter().enumerate() {
            let incumbent = self.ys.iter().map(|y| y[k]).fold(f64::INFINITY, f64::min);
            let acq = Acquisition::new(self.config.acquisition, self.config.beta, incumbent);
            let scores: Vec<f64> = moments.into_iter().map(|p| acq.score(p, rng)).collect();
            let normalized = z_normalize(&scores);
            for (ci, s) in normalized.iter().enumerate() {
                combined[ci] += weights[k] * s;
            }
        }
        Ok(argmax(&combined))
    }
}

/// Z-normalizes scores; degenerate (constant) score vectors become zeros.
fn z_normalize(scores: &[f64]) -> Vec<f64> {
    let n = scores.len() as f64;
    let mean = scores.iter().sum::<f64>() / n;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    if std < 1e-12 {
        return vec![0.0; scores.len()];
    }
    scores.iter().map(|s| (s - mean) / std).collect()
}

/// Index of the maximum (first wins ties).
fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use lens_pareto::hypervolume;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// ZDT1-style bi-objective problem on [0,1]^3 (minimize both).
    fn zdt1(x: &[f64]) -> Vec<f64> {
        let f1 = x[0];
        let g = 1.0 + 9.0 * (x[1] + x[2]) / 2.0;
        let f2 = g * (1.0 - (f1 / g).sqrt());
        vec![f1, f2]
    }

    fn random_point(rng: &mut StdRng, d: usize) -> Vec<f64> {
        (0..d).map(|_| rng.gen::<f64>()).collect()
    }

    fn run_mobo(iters: usize, seed: u64) -> ParetoFront<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
        for _ in 0..8 {
            let x = random_point(&mut rng, 3);
            let y = zdt1(&x);
            opt.tell(x, y).unwrap();
        }
        for _ in 0..iters {
            let candidates: Vec<Vec<f64>> = (0..64).map(|_| random_point(&mut rng, 3)).collect();
            let pick = opt.suggest(&candidates, &mut rng).unwrap();
            let x = candidates[pick].clone();
            let y = zdt1(&x);
            opt.tell(x, y).unwrap();
        }
        opt.pareto_front()
    }

    fn run_random(iters: usize, seed: u64) -> ParetoFront<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut front = ParetoFront::new();
        for i in 0..iters + 8 {
            let x = random_point(&mut rng, 3);
            front.insert(i, zdt1(&x));
        }
        front
    }

    #[test]
    fn mobo_beats_random_search_on_zdt1() {
        let reference = [1.5, 11.0];
        let mut mobo_wins = 0;
        for seed in [1u64, 2, 3] {
            let mobo_front = run_mobo(40, seed);
            let random_front = run_random(40, seed);
            let hv_mobo = hypervolume(&mobo_front.objectives(), &reference);
            let hv_rand = hypervolume(&random_front.objectives(), &reference);
            if hv_mobo > hv_rand {
                mobo_wins += 1;
            }
        }
        assert!(mobo_wins >= 2, "MOBO won only {mobo_wins}/3 seeds");
    }

    #[test]
    fn suggest_is_deterministic_per_seed() {
        let build = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
            for _ in 0..6 {
                let x = random_point(&mut rng, 3);
                let y = zdt1(&x);
                opt.tell(x, y).unwrap();
            }
            let candidates: Vec<Vec<f64>> = (0..32).map(|_| random_point(&mut rng, 3)).collect();
            opt.suggest(&candidates, &mut rng).unwrap()
        };
        assert_eq!(build(7), build(7));
    }

    #[test]
    fn tell_validates() {
        let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
        assert!(opt.tell(vec![0.5], vec![1.0]).is_err()); // wrong #objectives
        assert!(opt.tell(vec![0.5], vec![1.0, f64::NAN]).is_err());
        opt.tell(vec![0.5], vec![1.0, 2.0]).unwrap();
        assert!(opt.tell(vec![0.5, 0.1], vec![1.0, 2.0]).is_err()); // dim change
        assert_eq!(opt.num_observations(), 1);
    }

    #[test]
    fn suggest_requires_data_and_candidates() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = MultiObjectiveOptimizer::new(1, MoboConfig::default());
        assert!(opt.suggest(&[vec![0.0]], &mut rng).is_err());
        opt.tell(vec![0.1], vec![1.0]).unwrap();
        assert!(opt.suggest(&[], &mut rng).is_err());
        // A candidate of the wrong dimension is an error, not a panic.
        assert!(matches!(
            opt.suggest(&[vec![0.2], vec![0.2, 0.3]], &mut rng),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert_eq!(opt.suggest(&[vec![0.2]], &mut rng).unwrap(), 0);
    }

    #[test]
    fn pareto_front_tracks_observations() {
        let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
        opt.tell(vec![0.0], vec![1.0, 4.0]).unwrap();
        opt.tell(vec![0.5], vec![2.0, 2.0]).unwrap();
        opt.tell(vec![1.0], vec![4.0, 1.0]).unwrap();
        opt.tell(vec![0.7], vec![5.0, 5.0]).unwrap(); // dominated
        let front = opt.pareto_front();
        assert_eq!(front.len(), 3);
        assert!(front.is_antichain());
    }

    #[test]
    fn z_normalize_handles_constant() {
        assert_eq!(z_normalize(&[3.0, 3.0, 3.0]), vec![0.0, 0.0, 0.0]);
        let z = z_normalize(&[1.0, 2.0, 3.0]);
        assert!((z.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
