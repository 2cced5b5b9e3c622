//! Robustness and failure-injection tests: the pipeline must degrade
//! gracefully — not panic, not produce NaNs, not invert physical
//! monotonicities — when its inputs get ugly.

use lens::core::{PartitionPolicy, PerfEvaluator};
use lens::prelude::*;
use std::sync::Arc;

/// Even with brutal (±50 %-scale) measurement noise, the fitted predictors
/// must preserve the physical monotonicity the search depends on: strictly
/// more MACs at the same shape class never predicts meaningfully *less*
/// latency.
#[test]
fn noisy_predictors_keep_macs_monotonicity() {
    let gpu = DeviceProfile::jetson_tx2_gpu();
    let predictor = PerformancePredictor::train(&gpu, 0.5, 123).expect("training survives noise");
    let widths = [24u32, 64, 128, 256];
    let mut last = 0.0;
    for &w in &widths {
        let net = NetworkBuilder::new("probe", TensorShape::new(3, 56, 56))
            .layer(lens::nn::Layer::conv("c", w, 3, 1))
            .build()
            .expect("probe builds");
        let a = net.analyze().expect("probe analyzes");
        let t = predictor.layer_latency(&a.layers()[0]).get();
        assert!(t.is_finite() && t >= 0.0);
        assert!(
            t >= last * 0.8,
            "latency dropped hard with more filters: {last} -> {t} at width {w}"
        );
        last = t;
    }
}

/// A search at pathological throughputs (dial-up and fiber-grade uplinks)
/// completes and produces finite objectives.
#[test]
fn search_survives_extreme_throughputs() {
    for tu in [0.06, 500.0] {
        let lens = Lens::builder()
            .technology(WirelessTechnology::ThreeG)
            .expected_throughput(Mbps::new(tu))
            .use_predictor(false)
            .iterations(2)
            .initial_samples(3)
            .seed(8)
            .build()
            .expect("builds");
        let outcome = lens.search().expect("search runs");
        for c in outcome.explored() {
            let v = c.objectives.to_vec();
            assert!(v.iter().all(|x| x.is_finite()), "{v:?} at tu={tu}");
        }
    }
}

/// Algorithm 1 on a degenerate single-layer network still produces a valid
/// comparison set (All-Cloud + All-Edge at minimum).
#[test]
fn alg1_handles_single_layer_networks() {
    let net = NetworkBuilder::new("one-layer", TensorShape::new(3, 32, 32))
        .layer(lens::nn::Layer::conv("only", 8, 3, 1))
        .build()
        .expect("builds");
    let evaluator = PerfEvaluator::new(
        WirelessLink::new(WirelessTechnology::Wifi, Mbps::new(3.0)),
        Arc::new(DeviceProfile::jetson_tx2_gpu()),
        PartitionPolicy::WithinOptimization,
    );
    let eval = evaluator
        .evaluate(&net.analyze().expect("analyzes"))
        .expect("evaluates");
    assert!(eval.options.len() >= 2);
    assert!(eval.latency.get().is_finite());
}

/// The GAP-headed NiN model (tiny feature-map tail, zero FC layers) flows
/// through the full Algorithm 1 analysis, and its late layers — not its
/// bulky early convolutions — are the viable partition points.
#[test]
fn nin_partition_analysis_end_to_end() {
    let analysis = zoo::nin().analyze().expect("nin analyzes");
    let evaluator = PerfEvaluator::new(
        WirelessLink::new(WirelessTechnology::Wifi, Mbps::new(7.5)),
        Arc::new(DeviceProfile::jetson_tx2_gpu()),
        PartitionPolicy::WithinOptimization,
    );
    let eval = evaluator.evaluate(&analysis).expect("evaluates");
    // The GAP output (≈3.9 kB) must be among the candidate split points.
    assert!(
        eval.options.iter().any(|o| o.to_string() == "Split@gap"),
        "options: {:?}",
        eval.options
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
    );
    // And the best options never pick an early, bigger-than-input layer.
    for kind in [&eval.best_latency_option, &eval.best_energy_option] {
        if let DeploymentKind::Split { layer_name, .. } = kind {
            assert!(
                !layer_name.starts_with("conv1") && !layer_name.starts_with("cccp1"),
                "split at early layer {layer_name}"
            );
        }
    }
}

/// Simulating over a single-sample trace works, and the dynamic policy
/// equals the best fixed option there.
#[test]
fn simulator_handles_single_sample_trace() {
    let analysis = zoo::alexnet().analyze().expect("analyzes");
    let perf = profile_network(&analysis, &DeviceProfile::jetson_tx2_cpu());
    let planner =
        DeploymentPlanner::new(WirelessLink::new(WirelessTechnology::Lte, Mbps::new(8.0)));
    let options = planner.enumerate(&analysis, &perf).expect("enumerates");
    let sim = RuntimeSimulator::new(options).expect("simulator builds");
    let trace = ThroughputTrace::new(vec![Mbps::new(9.0)], lens::nn::Millis::new(1000.0))
        .expect("trace builds");
    let report = sim
        .run(&trace, Metric::Energy, ThroughputTracker::last_sample())
        .expect("runs");
    assert_eq!(report.dynamic().cumulative.len(), 1);
    assert_eq!(report.switches(), 0);
    let best = report.best_fixed();
    assert!((report.dynamic().total() - report.fixed()[best].total()).abs() < 1e-9);
}

/// The CNN trainer stays numerically sane under an absurd learning rate:
/// gradient clipping must prevent NaN weights (accuracy may be garbage).
#[test]
fn cnn_trainer_survives_huge_learning_rate() {
    use lens::accuracy::cnn::{synthetic_images, Cnn};
    let net = NetworkBuilder::new("t", TensorShape::new(3, 8, 8))
        .layer(lens::nn::Layer::conv("c", 4, 3, 1))
        .layer(lens::nn::Layer::max_pool2("p"))
        .flatten()
        .layer(lens::nn::Layer::dense("fc", 8))
        .layer(lens::nn::Layer::new(
            "cls",
            lens::nn::LayerKind::Dense {
                out_features: 2,
                activation: lens::nn::Activation::Softmax,
            },
        ))
        .build()
        .expect("builds");
    let mut cnn = Cnn::from_network(&net, 8, 0).expect("cnn builds");
    let (train, test) = synthetic_images(1, TensorShape::new(3, 8, 8), 2, 4, 2);
    for (x, y) in &train {
        let loss = cnn.train_step(x, *y, 10.0, 0.99);
        assert!(loss.is_finite(), "loss diverged to {loss}");
    }
    // Predictions still produce a valid class index.
    for (x, _) in &test {
        assert!(cnn.predict(x) < 2);
    }
}

/// Every estimator backend gives the same architecture a deterministic,
/// in-range error — interchangeability of the AccuracyEstimator trait.
#[test]
fn all_three_estimator_backends_agree_on_contract() {
    use lens::accuracy::{AccuracyEstimator, CnnTrainedAccuracy};
    let space = VggSpace::for_cifar10();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(6);
    let net = space.decode(&space.sample(&mut rng)).expect("decodes");
    let backends: Vec<Box<dyn AccuracyEstimator>> = vec![
        Box::new(SurrogateAccuracy::cifar10()),
        Box::new(TrainedAccuracy::new(3, 2)),
        Box::new(
            CnnTrainedAccuracy::new(3, 1)
                .with_channel_cap(3)
                .with_dataset_size(2, 2),
        ),
    ];
    for (i, backend) in backends.iter().enumerate() {
        let a = backend.test_error(&net).expect("estimates");
        let b = backend.test_error(&net).expect("estimates again");
        assert_eq!(a, b, "backend {i} is not deterministic");
        assert!((0.0..=100.0).contains(&a), "backend {i} out of range: {a}");
    }
}

/// Fleet scenarios too large for the engine's shard layout are rejected
/// with `Err` at build time: a shard beyond the `u32` local-index range,
/// and an `epochs × shard size` sample arena beyond the largest
/// allocation. The oversized population split over more shards is
/// accepted, and an accepted edge case runs.
#[test]
fn oversized_fleet_layouts_are_rejected_not_truncated() {
    let rejected = |builder: lens::fleet::FleetScenarioBuilder, needle: &str| match builder.build()
    {
        Err(lens::fleet::FleetError::InvalidScenario(why)) => {
            assert!(why.contains(needle), "{why}")
        }
        other => panic!("expected InvalidScenario({needle}), got {other:?}"),
    };
    // One shard of 2³² + 1 devices overflows the u32 local index…
    let huge = u32::MAX as usize + 2;
    rejected(
        FleetScenario::builder().population(huge).shards(1),
        "u32::MAX devices",
    );
    // …two shards of 2³¹ + 1 fit (building allocates nothing).
    assert!(FleetScenario::builder()
        .population(huge)
        .shards(2)
        .build()
        .is_ok());
    // 10 devices × one epoch per µs of an astronomically long horizon
    // overflows the sample arena's size…
    let endless = || {
        FleetScenario::builder()
            .population(10)
            .horizon(Millis::new(1e300))
            .trace_interval(Millis::new(0.001))
    };
    rejected(endless(), "arena");
    // …and so does one whose byte size fits in a u64 but exceeds the
    // largest allocation (2·10¹⁷ epochs × 10 devices × 8 B > isize::MAX).
    rejected(endless().horizon(Millis::new(2e14)), "arena");
    // An accepted edge case — one device per shard, a single short
    // epoch — runs to completion.
    let scenario = FleetScenario::builder()
        .population(3)
        .shards(3)
        .horizon(Millis::new(1.0))
        .trace_interval(Millis::new(1.0))
        .arrival(ArrivalModel::Periodic {
            period: Millis::new(0.5),
        })
        .build()
        .expect("edge case is valid");
    let report = FleetEngine::new(scenario)
        .expect("engine builds")
        .run()
        .expect("run succeeds");
    assert_eq!(report.inferences(), 6);
}

/// Serving tiers whose backends or discipline were set through public
/// fields to values the constructors reject are themselves rejected with
/// `Err` at build time, in both fidelities — instead of panicking inside
/// the per-request replay (zero slots) or silently running on a NaN
/// service time or an impossible priority fraction.
#[test]
fn broken_serving_tiers_are_rejected_in_both_fidelities() {
    let zero_slots = {
        let mut tier = CloudServing::single(4, 10.0);
        tier.backends[0].slots = 0;
        tier
    };
    let nan_service = {
        let mut tier = CloudServing::single(4, 10.0);
        tier.backends[0].base_service_ms = f64::NAN;
        tier
    };
    let bad_priority = {
        let mut tier = CloudServing::single(4, 10.0);
        tier.discipline = QueueDiscipline::Priority { high_fraction: 7.0 };
        tier
    };
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        for (tier, needle) in [
            (&zero_slots, "slot"),
            (&nan_service, "base_service_ms"),
            (&bad_priority, "high_fraction"),
        ] {
            let built = FleetScenario::builder()
                .population(50)
                .horizon(Millis::new(120_000.0))
                .serving(tier.clone())
                .fidelity(fidelity)
                .build();
            match built {
                Err(lens::fleet::FleetError::InvalidScenario(why)) => {
                    assert!(why.contains(needle), "{fidelity:?}: {why}")
                }
                other => panic!("{fidelity:?}: expected InvalidScenario({needle}), got {other:?}"),
            }
        }
    }
}
