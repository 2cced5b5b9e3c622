//! Absolute behaviour pins for the fleet engine.
//!
//! The fleet tests elsewhere compare runs with each other — across shard
//! counts, replay modes, and traced vs untraced paths — which proves the
//! engine self-consistent but would pass a change that moves every run the
//! same way (a shard-layout bug present at every shard count, say). These
//! pins record the `FleetReport::digest`, the flight-recorder
//! `trace_digest` and the per-epoch `metrics_digest` of five small
//! scenarios, each run at one and at three shards:
//!
//! * periodic arrivals, fluid serving tier;
//! * periodic arrivals, per-request microsim;
//! * Poisson arrivals, per-request microsim, with about one device per µs
//!   of mean inter-arrival so same-µs arrivals are common;
//! * an autoscaled, flash-crowd-driven tier serving 3-stage pipelines, in
//!   both fidelities — the fluid run is the only absolute pin on fluid
//!   scale/publish, curve telemetry and fluid pipeline pricing.
//!
//! A moved digest is a behaviour change to explain, not a pin to
//! re-record.

use lens::prelude::*;
use lens::telemetry::{TelemetryConfig, TraceEvent};
use std::collections::BTreeMap;

/// `(report digest, trace digest, metrics digest)`.
type Pin = (u64, u64, u64);

/// The batched two-backend tier behind the periodic scenarios: congested
/// enough that batching, deadline shedding and sibling failover are live.
fn batched_tier() -> CloudServing {
    CloudServing::new(vec![
        BackendConfig::new("gpu", 1, 2000.0, 10.0).with_batching(32, 500.0),
        BackendConfig::new("cpu", 1, 500.0, 250.0).with_batching(4, 250.0),
    ])
    .with_priority(0.2)
    .with_admission(AdmissionPolicy::Deadline {
        max_wait_ms: 10_000.0,
    })
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 80.0 })
}

/// 1 200 devices firing every 30 s through 20 one-minute epochs, so each
/// epoch holds two full arrival periods.
fn periodic(shards: usize, fidelity: CloudSimFidelity) -> FleetScenario {
    FleetScenario::builder()
        .population(1200)
        .horizon(Millis::new(1_200_000.0))
        .trace_interval(Millis::new(60_000.0))
        .arrival(ArrivalModel::Periodic {
            period: Millis::new(30_000.0),
        })
        .serving(batched_tier())
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(31)
        .shards(shards)
        .fidelity(fidelity)
        .build()
        .expect("valid scenario")
}

/// 2 000 devices with a 2 ms mean inter-arrival: about one arrival per
/// µs, so many microseconds carry several arrivals and the
/// `(arrival_us, device_id, stage)` tie order is exercised.
fn poisson(shards: usize) -> FleetScenario {
    FleetScenario::builder()
        .population(2000)
        .horizon(Millis::new(40.0))
        .trace_interval(Millis::new(10.0))
        .arrival(ArrivalModel::Poisson {
            mean_interarrival: Millis::new(2.0),
        })
        .serving(
            CloudServing::new(vec![
                BackendConfig::new("gpu", 8, 2.0, 0.05).with_batching(32, 1.0)
            ])
            .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 5.0 }),
        )
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(37)
        .shards(shards)
        .fidelity(CloudSimFidelity::PerRequest)
        .telemetry(TelemetryConfig::default().with_event_capacity(1 << 20))
        .build()
        .expect("valid scenario")
}

/// A 30-minute flash crowd on an autoscaled tier (tail-latency and
/// queue-depth signals) serving 3-stage pipelines under a tail deadline.
fn crowd_pipeline(shards: usize, fidelity: CloudSimFidelity) -> FleetScenario {
    let horizon_ms = 1_800_000.0;
    let serving = CloudServing::new(vec![
        BackendConfig::new("gpu", 1, 50.0, 0.25)
            .with_batching(64, 100.0)
            .with_autoscaler(
                Autoscaler::new(
                    ScalingSignal::TailLatency { target_us: 500_000 },
                    1.0,
                    0.25,
                    1,
                    8,
                )
                .with_alpha(0.6),
            ),
        BackendConfig::new("cpu", 2, 40.0, 40.0)
            .with_batching(8, 100.0)
            .with_autoscaler(Autoscaler::new(ScalingSignal::QueueDepth, 8.0, 0.5, 1, 16)),
    ])
    .with_admission(AdmissionPolicy::Deadline {
        max_wait_ms: 2_000.0,
    })
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 });
    FleetScenario::builder()
        .population(800)
        .horizon(Millis::new(horizon_ms))
        .trace_interval(Millis::new(60_000.0))
        .arrival(ArrivalModel::Periodic {
            period: Millis::new(15_000.0),
        })
        .serving(serving)
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Latency)
        .seed(41)
        .shards(shards)
        .fidelity(fidelity)
        .workload(WorkloadCurve::flash_crowd(
            Millis::new(0.3 * horizon_ms),
            Millis::new(0.2 * horizon_ms),
        ))
        .tail_deadline(Millis::new(2_000.0))
        .pipeline(PipelineSpec::new(vec![186_624, 43_264]))
        .build()
        .expect("valid scenario")
}

/// Runs `scenario` traced and untraced at one and three shards and checks
/// all three digests against `pin` (reported in hex on a mismatch).
fn check(name: &str, scenario: impl Fn(usize) -> FleetScenario, pin: Pin) -> RunTelemetry {
    let mut first = None;
    for shards in [1, 3] {
        let engine = FleetEngine::new(scenario(shards)).expect("engine builds");
        let (report, telemetry) = engine.run_traced().expect("traced run succeeds");
        let untraced = engine.run().expect("run succeeds");
        let got = (
            report.digest(),
            telemetry.trace_digest(),
            telemetry.metrics_digest(),
        );
        assert_eq!(
            got, pin,
            "{name} at {shards} shards moved: ({:#018x}, {:#018x}, {:#018x})",
            got.0, got.1, got.2
        );
        assert_eq!(untraced.digest(), pin.0, "{name}: untraced report moved");
        first.get_or_insert(telemetry);
    }
    first.expect("ran at least once")
}

#[test]
fn periodic_fluid_run_is_pinned() {
    check(
        "periodic fluid",
        |shards| periodic(shards, CloudSimFidelity::Fluid),
        (
            0xcdb5_ce63_3c9e_4fef,
            0x36b0_9c26_7cf1_dc36,
            0x61d5_38e6_5d01_fe03,
        ),
    );
}

#[test]
fn periodic_per_request_run_is_pinned() {
    check(
        "periodic per-request",
        |shards| periodic(shards, CloudSimFidelity::PerRequest),
        (
            0x7f15_e33a_4328_7fef,
            0xd39e_173f_91a7_9215,
            0x792a_ec7e_866c_fe06,
        ),
    );
}

#[test]
fn poisson_per_request_run_with_same_microsecond_arrivals_is_pinned() {
    let telemetry = check(
        "poisson per-request",
        poisson,
        (
            0x265b_905a_7062_adf5,
            0x808e_4352_7f63_a50a,
            0x97ac_f558_7a5e_721a,
        ),
    );
    // The pin is only meaningful if ties really occur: some microsecond
    // must carry dispatches from at least two distinct devices.
    assert_eq!(telemetry.recorder.dropped(), 0, "recorder kept every event");
    let mut devices_at: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for event in telemetry.recorder.events() {
        if let TraceEvent::Dispatch {
            time_us, device_id, ..
        } = *event
        {
            devices_at.entry(time_us).or_default().push(device_id);
        }
    }
    let shared = devices_at
        .values()
        .filter(|ids| ids.len() > 1 && ids.windows(2).any(|w| w[0] != w[1]))
        .count();
    assert!(shared > 100, "only {shared} microseconds carry ties");
}

#[test]
fn autoscaled_flash_crowd_pipeline_run_is_pinned() {
    check(
        "crowd pipeline",
        |shards| crowd_pipeline(shards, CloudSimFidelity::PerRequest),
        (
            0xd6bf_89c9_40b6_2908,
            0x24ba_993a_4870_87ec,
            0x8cac_dcfb_c3d4_8220,
        ),
    );
}

#[test]
fn autoscaled_flash_crowd_pipeline_fluid_run_is_pinned() {
    check(
        "crowd pipeline fluid",
        |shards| crowd_pipeline(shards, CloudSimFidelity::Fluid),
        (
            0x58f0_763c_33bc_b24c,
            0xdea0_db94_cf35_d8b2,
            0x0fb7_91e1_a943_405a,
        ),
    );
    // The pin covers fluid scale/publish only if the tier really scales.
    let report = FleetEngine::new(crowd_pipeline(1, CloudSimFidelity::Fluid))
        .expect("engine builds")
        .run()
        .expect("run succeeds");
    assert!(report.scaling_events() > 0, "the fluid crowd never scaled");
}
