//! The fleet workloads: `million_fleet`'s day at 50 000 devices in each
//! cloud fidelity, and a flash crowd on an autoscaled tier serving 3-stage
//! split-inference pipelines. All run `FleetScenario::builder()…build()`,
//! `FleetEngine::new` and `FleetEngine::run` (or `run_traced`).

use crate::{peak_rss_kb, EndToEnd, LayerValues, Tally};
use lens::fleet::{
    AdmissionPolicy, ArrivalModel, Autoscaler, BackendConfig, CloudServing, CloudSimFidelity,
    FailoverPolicy, FleetEngine, FleetPolicy, FleetReport, FleetScenario, PipelineSpec, ReplayMode,
    ScalingSignal, WorkloadCurve,
};
use lens::nn::units::Millis;
use lens::pareto::hypervolume;
use lens::runtime::Metric;
use lens::telemetry::BarrierPhase;
use std::time::Instant;

/// Shards per run: one per core of the 2-core box the benchmark targets.
const SHARDS: usize = 2;
/// Set-ups per batch. Scenario build and `FleetEngine::new` take tens of
/// microseconds (shard construction is deferred into `run`), so each
/// batch repeats them many times.
const SETUP_REPS: usize = 201;

/// Fixed `(mean latency ms, mean device energy mJ)` reference point of a
/// fleet's `front_hv`: the share of the box between the origin and this
/// corner that the fleet's served operating point dominates. 2 s is the
/// tier's admission deadline.
const HV_REFERENCE: [f64; 2] = [2_000.0, 2_000.0];

/// The three fleet workloads.
#[derive(Debug, Clone, Copy)]
pub enum FleetWorkload {
    /// `million_fleet`'s day at 50 000 devices, fluid serving tier.
    DayFluid,
    /// The same day with the per-request microsim.
    DayRequest,
    /// 3 h flash crowd on an autoscaled tier with 3-stage pipelines.
    CrowdPipeline,
}

/// `million_fleet`'s two-backend batched tier, slots scaled with the
/// population (`scale` = devices / 10 000).
fn day_serving(scale: usize) -> CloudServing {
    CloudServing::new(vec![
        BackendConfig::new("gpu", 2 * scale, 50.0, 0.25).with_batching(64, 100.0),
        BackendConfig::new("cpu", 8 * scale, 40.0, 40.0).with_batching(8, 100.0),
    ])
    .with_admission(AdmissionPolicy::Deadline {
        max_wait_ms: 2_000.0,
    })
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 })
}

fn scenario(workload: FleetWorkload, seed: u64) -> Result<FleetScenario, String> {
    let builder = FleetScenario::builder()
        .policy(FleetPolicy::Dynamic)
        .seed(seed)
        .shards(SHARDS)
        .replay(ReplayMode::Auto);
    let builder = match workload {
        // 50 000 devices: about 125 MB resident in fluid, above a 105 MB
        // L3, so device-state layout changes show in the time.
        FleetWorkload::DayFluid | FleetWorkload::DayRequest => builder
            .population(50_000)
            .horizon(Millis::new(86_400_000.0))
            .trace_interval(Millis::new(600_000.0))
            .arrival(ArrivalModel::Periodic {
                period: Millis::new(60_000.0),
            })
            .serving(day_serving(5))
            .metric(Metric::Energy)
            .fidelity(match workload {
                FleetWorkload::DayFluid => CloudSimFidelity::Fluid,
                _ => CloudSimFidelity::PerRequest,
            }),
        FleetWorkload::CrowdPipeline => {
            let horizon_ms = 3.0 * 3_600_000.0;
            let mut serving = day_serving(2);
            serving.backends[0] = serving.backends[0].clone().with_autoscaler(
                Autoscaler::new(
                    ScalingSignal::TailLatency { target_us: 500_000 },
                    1.0,
                    0.25,
                    1,
                    16,
                )
                .with_alpha(0.6),
            );
            serving.backends[1] = serving.backends[1].clone().with_autoscaler(Autoscaler::new(
                ScalingSignal::QueueDepth,
                8.0,
                0.5,
                4,
                64,
            ));
            builder
                .population(20_000)
                .horizon(Millis::new(horizon_ms))
                .trace_interval(Millis::new(60_000.0))
                .arrival(ArrivalModel::Periodic {
                    period: Millis::new(10_000.0),
                })
                .serving(serving)
                .metric(Metric::Latency)
                .fidelity(CloudSimFidelity::PerRequest)
                .workload(WorkloadCurve::flash_crowd(
                    Millis::new(0.3 * horizon_ms),
                    Millis::new(0.2 * horizon_ms),
                ))
                .tail_deadline(Millis::new(2_000.0))
                .pipeline(PipelineSpec::new(vec![186_624, 43_264]))
        }
    };
    builder.build().map_err(|e| e.to_string())
}

fn setup(workload: FleetWorkload, seed: u64) -> Result<FleetEngine, String> {
    FleetEngine::new(scenario(workload, seed)?).map_err(|e| e.to_string())
}

/// Share of the [`HV_REFERENCE`] box dominated by the fleet's mean
/// (latency, energy) operating point.
fn front_hv(report: &FleetReport) -> f64 {
    let point = [report.latency().mean(), report.energy().mean()];
    let volume: f64 = HV_REFERENCE.iter().product();
    hypervolume(&[&point], &HV_REFERENCE) / volume
}

/// The output checks of one run: every expected inference served and
/// recorded in both histograms, no pipeline stage completing more requests
/// than the stage before it, and the digest equal to `first` (an earlier
/// run of the same seed).
fn check(engine: &FleetEngine, report: &FleetReport, first: Option<u64>) -> Result<(), String> {
    let expected = engine.scenario().expected_events();
    let inferences = report.inferences();
    if inferences != expected {
        return Err(format!("{inferences} inferences, {expected} expected"));
    }
    if report.energy().count() != inferences {
        return Err(format!(
            "energy histogram holds {} of {inferences} inferences",
            report.energy().count()
        ));
    }
    let stages = report.stage_completions();
    if stages.windows(2).any(|w| w[1] > w[0]) {
        return Err(format!(
            "stage completions grow along the chain: {stages:?}"
        ));
    }
    if first.is_some_and(|digest| digest != report.digest()) {
        return Err("repetitions at one seed produced different digests".into());
    }
    Ok(())
}

/// Times scenario build + `FleetEngine::new`, then `FleetEngine::run` with
/// tracing off.
pub fn measure(workload: FleetWorkload, seed: u64, seconds: f64, tally: &mut Tally) -> EndToEnd {
    let mut first: Option<(u64, f64)> = None;
    let mut e2e = crate::measure(
        seconds,
        SETUP_REPS,
        tally,
        || setup(workload, seed),
        |engine| {
            let start = Instant::now();
            let report = engine.run().map_err(|e| e.to_string())?;
            let wall = start.elapsed();
            check(engine, &report, first.map(|(digest, _)| digest))?;
            first.get_or_insert((report.digest(), front_hv(&report)));
            Ok(wall)
        },
    );
    e2e.front_hv = first.map(|(_, hv)| hv);
    e2e
}

/// Runs the workload untraced and then with `FleetEngine::run_traced`,
/// checks that both reports carry one digest, and reports the engine's
/// per-phase work counts, the report's ratios and the tracing overhead.
pub fn trace(workload: FleetWorkload, seed: u64, tally: &mut Tally) -> LayerValues {
    let mut values = LayerValues::new();
    let Some(engine) = tally.attempt(|| setup(workload, seed)) else {
        return values;
    };
    let Some((plain, plain_s, rss_kb)) = tally.attempt(|| {
        let start = Instant::now();
        let report = engine.run().map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        check(&engine, &report, None)?;
        Ok((report, wall, peak_rss_kb().unwrap_or(0)))
    }) else {
        return values;
    };
    let Some((telemetry, traced_s)) = tally.attempt(|| {
        let start = Instant::now();
        let (report, telemetry) = engine.run_traced().map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        check(&engine, &report, Some(plain.digest()))?;
        Ok((telemetry, wall))
    }) else {
        return values;
    };

    let profile = &telemetry.profile;
    let shard_step = profile.phase(BarrierPhase::ShardStep);
    let drain = profile.phase(BarrierPhase::Drain);
    let inferences = plain.inferences() as f64;
    let events = engine.scenario().expected_events() as f64;
    values.insert(
        "fleet.shard_step.events_popped",
        shard_step.events_popped as f64,
    );
    values.insert("fleet.shard_step.heap_ops", shard_step.heap_ops as f64);
    values.insert("fleet.drain.events_popped", drain.events_popped as f64);
    values.insert("fleet.drain.heap_ops", drain.heap_ops as f64);
    values.insert("fleet.drain.records_merged", drain.records_merged as f64);
    values.insert("fleet.drain.batches_closed", drain.batches_closed as f64);
    values.insert(
        "fleet.batch_fill",
        drain.records_merged as f64 / drain.batches_closed.max(1) as f64,
    );
    values.insert(
        "fleet.scale.heap_ops",
        profile.phase(BarrierPhase::Scale).heap_ops as f64,
    );
    values.insert(
        "fleet.publish.heap_ops",
        profile.phase(BarrierPhase::Publish).heap_ops as f64,
    );
    values.insert("fleet.scaling_events", plain.scaling_events() as f64);
    values.insert(
        "fleet.stage_completions",
        plain.stage_completions().iter().sum::<u64>() as f64,
    );
    values.insert("fleet.retreat_ratio", plain.retreated() as f64 / inferences);
    values.insert(
        "fleet.failover_ratio",
        plain.failed_over() as f64 / plain.offloaded().max(1) as f64,
    );
    values.insert(
        "fleet.shed_ratio",
        plain.shed_to_local() as f64 / inferences,
    );
    values.insert("fleet.epochs", profile.epochs() as f64);
    values.insert(
        "fleet.heap_ops_per_event",
        profile.total().heap_ops as f64 / events,
    );
    values.insert("fleet.offload_ratio", plain.offloaded() as f64 / inferences);
    values.insert("fleet.ns_per_event", plain_s * 1e9 / events);
    values.insert(
        "fleet.rss_per_device_kb",
        rss_kb as f64 / engine.scenario().population() as f64,
    );
    values.insert("telemetry.overhead_ratio", traced_s / plain_s);
    println!(
        "simulated: digest {:#018x}, p99 latency {:.1} ms, {} offloaded, {} shed, {} retreated, {} failed over",
        plain.digest(),
        plain.latency().percentile(99.0),
        plain.offloaded(),
        plain.shed_to_local(),
        plain.retreated(),
        plain.failed_over()
    );
    values
}
