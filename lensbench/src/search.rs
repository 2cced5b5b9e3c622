//! `search_paper`: the paper's LENS search (Alg. 2 over Alg. 1's
//! objectives) at `Lens::builder()` defaults, plus the traced replica that
//! times each layer's public calls from outside the library.

use crate::{median, quantile, EndToEnd, LayerValues, Tally};
use lens::core::{ExploredCandidate, Lens, Objectives, SearchOutcome};
use lens::gp::MultiObjectiveOptimizer;
use lens::pareto::{hypervolume, ParetoFront};
use lens::space::{Encoding, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Set-ups per batch: `Lens::build` trains the per-layer predictors.
const SETUP_REPS: usize = 21;

/// Fixed `(error %, latency ms, energy mJ)` reference point of `front_hv`:
/// the front's hypervolume is reported as a share of the box between the
/// origin and this corner. It lies beyond the worst candidate the space
/// holds (about 411 ms and 394 mJ), so every front member counts.
const HV_REFERENCE: [f64; 3] = [100.0, 1_000.0, 1_000.0];

fn build(seed: u64) -> Result<Lens, String> {
    Lens::builder()
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())
}

/// Share of the [`HV_REFERENCE`] box that the outcome's front dominates.
fn front_hv(outcome: &SearchOutcome) -> f64 {
    let volume: f64 = HV_REFERENCE.iter().product();
    hypervolume(&outcome.pareto_front().objectives(), &HV_REFERENCE) / volume
}

/// The output checks of one search: the budget was explored, every
/// encoding once, every objective finite, the front an antichain, and the
/// explored sequence equal to `first`'s (an earlier repetition, same seed).
fn check(
    lens: &Lens,
    outcome: &SearchOutcome,
    first: Option<&SearchOutcome>,
) -> Result<(), String> {
    let config = lens.config();
    let explored = outcome.explored();
    let budget = config.initial_samples + config.iterations;
    if explored.len() != budget {
        return Err(format!(
            "explored {} candidates, budget {budget}",
            explored.len()
        ));
    }
    let mut seen = BTreeSet::new();
    for candidate in explored {
        if !seen.insert(&candidate.encoding) {
            return Err(format!("{} explored twice", candidate.encoding));
        }
        if !candidate.objectives.to_vec().iter().all(|v| v.is_finite()) {
            return Err(format!("non-finite objectives at {}", candidate.index));
        }
    }
    if !outcome.pareto_front().is_antichain() {
        return Err("the final front is not an antichain".into());
    }
    if first.is_some_and(|first| first != outcome) {
        return Err("repetitions at one seed explored different sequences".into());
    }
    Ok(())
}

/// Times `Lens::build` and `Lens::search()` with tracing off.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally) -> EndToEnd {
    let mut first: Option<SearchOutcome> = None;
    let mut e2e = crate::measure(
        seconds,
        SETUP_REPS,
        tally,
        || build(seed),
        |lens| {
            let start = Instant::now();
            let outcome = lens.search().map_err(|e| e.to_string())?;
            let wall = start.elapsed();
            check(lens, &outcome, first.as_ref())?;
            first.get_or_insert(outcome);
            Ok(wall)
        },
    );
    e2e.front_hv = first.as_ref().map(front_hv);
    e2e
}

/// Wall time spent in each layer's public calls during one replica run.
#[derive(Debug, Default)]
struct SearchLayers {
    pool: Duration,
    pool_draws: u64,
    pool_kept: u64,
    suggest: Vec<Duration>,
    tell: Duration,
    evaluate: Vec<Duration>,
    insert: Duration,
}

/// Runs `Lens::search()` and then the replica, checks that both explored
/// the same sequence, and reports the replica's per-layer times.
pub fn trace(seed: u64, tally: &mut Tally) -> LayerValues {
    let mut values = LayerValues::new();
    let Some(lens) = tally.attempt(|| build(seed)) else {
        return values;
    };
    let Some(reference) = tally.attempt(|| {
        let outcome = lens.search().map_err(|e| e.to_string())?;
        check(&lens, &outcome, None)?;
        Ok(outcome)
    }) else {
        return values;
    };
    let Some(layers) = tally.attempt(|| {
        let (explored, layers) = replica(&lens)?;
        if explored != reference.explored() {
            return Err("the traced replica drifted from Lens::search()".into());
        }
        Ok(layers)
    }) else {
        return values;
    };

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let suggest: Vec<f64> = layers.suggest.iter().map(|&d| ms(d)).collect();
    let window = suggest.len().min(100);
    let evaluate_us: Vec<f64> = layers
        .evaluate
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    values.insert("gp.suggest_ms", suggest.iter().sum());
    values.insert("gp.suggest_p50_ms", median(&suggest));
    values.insert("gp.suggest_p95_ms", quantile(&suggest, 0.95));
    values.insert("gp.suggest_first100_ms", suggest[..window].iter().sum());
    values.insert(
        "gp.suggest_last100_ms",
        suggest[suggest.len() - window..].iter().sum(),
    );
    values.insert("gp.tell_ms", ms(layers.tell));
    values.insert("space.pool_ms", ms(layers.pool));
    values.insert("space.pool_draws", layers.pool_draws as f64);
    values.insert(
        "space.pool_accept_ratio",
        layers.pool_kept as f64 / layers.pool_draws.max(1) as f64,
    );
    values.insert("core.evaluate_ms", evaluate_us.iter().sum::<f64>() / 1e3);
    values.insert("core.evaluate_p50_us", median(&evaluate_us));
    values.insert("core.evaluations", evaluate_us.len() as f64);
    values.insert("pareto.insert_ms", ms(layers.insert));
    values.insert("pareto.front_size", reference.pareto_front().len() as f64);
    values
}

/// Alg. 2 driven from outside the library, call for call as
/// `Lens::search()` makes it, with a timer around each layer's calls:
/// pool sampling and encoding (`lens-space`), `suggest`/`tell`
/// (`lens-gp`), `evaluate` (`lens-core`) and the front update
/// (`lens-pareto`). Any divergence from `Lens::search()` fails the run.
fn replica(lens: &Lens) -> Result<(Vec<ExploredCandidate>, SearchLayers), String> {
    let config = lens.config();
    let evaluator = lens.evaluator();
    let space = evaluator.space().as_ref();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut optimizer = MultiObjectiveOptimizer::new(Objectives::COUNT, config.mobo.clone());
    let mut explored: Vec<ExploredCandidate> = Vec::new();
    let mut seen: BTreeSet<Encoding> = BTreeSet::new();
    let mut front: ParetoFront<usize> = ParetoFront::new();
    let mut layers = SearchLayers::default();

    let evaluate_and_record = |enc: Encoding,
                               explored: &mut Vec<ExploredCandidate>,
                               front: &mut ParetoFront<usize>,
                               optimizer: &mut MultiObjectiveOptimizer,
                               layers: &mut SearchLayers|
     -> Result<(), String> {
        let start = Instant::now();
        let evaluation = evaluator.evaluate(&enc).map_err(|e| e.to_string())?;
        layers.evaluate.push(start.elapsed());

        let index = explored.len();
        let start = Instant::now();
        let x = space.to_unit_vec(&enc);
        layers.pool += start.elapsed();
        let start = Instant::now();
        optimizer
            .tell(x, evaluation.objectives.to_vec())
            .map_err(|e| e.to_string())?;
        layers.tell += start.elapsed();
        let start = Instant::now();
        front.insert(index, evaluation.objectives.to_vec());
        layers.insert += start.elapsed();
        explored.push(ExploredCandidate {
            index,
            encoding: enc,
            objectives: evaluation.objectives,
            best_latency_option: evaluation.perf.best_latency_option,
            best_energy_option: evaluation.perf.best_energy_option,
        });
        Ok(())
    };

    // Lines 2-6: random initialization.
    for _ in 0..config.initial_samples {
        let start = Instant::now();
        let enc = sample_unseen(space, &mut seen, &mut rng, &mut layers);
        layers.pool += start.elapsed();
        evaluate_and_record(enc, &mut explored, &mut front, &mut optimizer, &mut layers)?;
    }

    // Lines 7-14: the MOBO loop.
    for _ in 0..config.iterations {
        let start = Instant::now();
        let mut pool: Vec<Encoding> =
            Vec::with_capacity(config.pool_random + config.pool_mutations);
        let mut pool_seen: BTreeSet<Encoding> = BTreeSet::new();
        for _ in 0..config.pool_random {
            let enc = space.sample(&mut rng);
            layers.pool_draws += 1;
            if !seen.contains(&enc) && pool_seen.insert(enc.clone()) {
                pool.push(enc);
                layers.pool_kept += 1;
            }
        }
        let front_items: Vec<usize> = front.items().iter().map(|&&i| i).collect();
        if !front_items.is_empty() {
            let mut m = 0;
            let mut attempts = 0;
            while m < config.pool_mutations && attempts < config.pool_mutations * 4 {
                attempts += 1;
                let pick = front_items[attempts % front_items.len()];
                let enc = space.mutate(&explored[pick].encoding, &mut rng);
                layers.pool_draws += 1;
                if !seen.contains(&enc) && pool_seen.insert(enc.clone()) {
                    pool.push(enc);
                    layers.pool_kept += 1;
                    m += 1;
                }
            }
        }
        if pool.is_empty() {
            pool.push(sample_unseen(space, &mut seen, &mut rng, &mut layers));
        }
        let embedded: Vec<Vec<f64>> = pool.iter().map(|e| space.to_unit_vec(e)).collect();
        layers.pool += start.elapsed();

        let start = Instant::now();
        let pick = optimizer
            .suggest(&embedded, &mut rng)
            .map_err(|e| e.to_string())?;
        layers.suggest.push(start.elapsed());
        let enc = pool.swap_remove(pick);
        seen.insert(enc.clone());
        evaluate_and_record(enc, &mut explored, &mut front, &mut optimizer, &mut layers)?;
    }
    Ok((explored, layers))
}

/// `Lens::search()`'s draw of a not-yet-evaluated encoding, counting draws.
fn sample_unseen(
    space: &(dyn SearchSpace + Send + Sync),
    seen: &mut BTreeSet<Encoding>,
    rng: &mut StdRng,
    layers: &mut SearchLayers,
) -> Encoding {
    for _ in 0..64 {
        let enc = space.sample(rng);
        layers.pool_draws += 1;
        if seen.insert(enc.clone()) {
            layers.pool_kept += 1;
            return enc;
        }
    }
    layers.pool_draws += 1;
    layers.pool_kept += 1;
    space.sample(rng)
}
