//! Population-scale fleet simulation for edge–cloud serving.
//!
//! The single-device simulator in `lens-runtime` replays **one** throughput
//! trace against **one** dominance map (Fig 8). This crate scales that story
//! to the ROADMAP's north star: **thousands to millions of concurrent device
//! sessions**, spread over the paper's Table I regions and wireless
//! technologies, all sharing a **finite-capacity cloud**. That opens the one
//! scenario axis the single-device view cannot express: *contention*. When
//! everyone offloads, All-Cloud and the split options stop being free of
//! each other — their latency now depends on how many other devices chose
//! them.
//!
//! # Architecture
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the full
//! walkthrough (crate DAG, event loop, determinism), and
//! `docs/PAPER_MAP.md` for the paper-section → module map.
//!
//! * [`FleetScenario`] — declarative description of a fleet: population
//!   size, regional mix, technology mix, arrival model, cloud serving
//!   tier, switching policy, seed ([`scenario`]).
//! * [`Device`] sessions — a `ThroughputTracker` and a deployment policy
//!   over the cohort's shared `DominanceMap`, fed one sample per event
//!   from a per-device throughput process (`GaussMarkov` around the
//!   region's expected rate) that the engine streams one sample per epoch
//!   ([`device`]).
//! * [`CloudServing`] / [`RegionServing`] — the per-region serving tier:
//!   heterogeneous [`BackendConfig`] pools (e.g. GPU vs. CPU) with dynamic
//!   batchers ([`BatchPolicy`]: batches close at `max_batch` items or when
//!   `linger_ms` expires, and an affine batch cost amortizes the fixed
//!   part), behind a FIFO/priority queue, an [`AdmissionPolicy`]
//!   (queue-depth or deadline shedding) and a [`FailoverPolicy`] (shed
//!   requests fail over to the least-loaded — or, under cost-aware
//!   dispatch, the cheapest viable — sibling region or fall back to the
//!   device's local-only option) ([`cloud`]).
//! * [`Autoscaler`] / [`DispatchPolicy`] — workload autoscaling and
//!   cost-aware serving: each backend may scale its live slot count at
//!   epoch barriers from an EWMA-damped utilization or queue-depth signal
//!   (cooldown, min/max bounds), slots are priced per epoch, and
//!   [`DispatchPolicy::CostAware`] water-fills by
//!   price × energy × work-left; the barrier order is strictly
//!   drain → scale → publish, so published signals always price
//!   post-scale capacity ([`cloud`]).
//! * [`WorkloadCurve`] / [`ScalingSignal::TailLatency`] — the closed
//!   tail-latency loop: scenarios may carry a piecewise fixed-point
//!   workload curve that modulates per-device offload intent over sim
//!   time, the per-request microsim publishes each region's
//!   epoch-windowed p99 through [`RegionSignal`], tail-targeting
//!   autoscalers step on it (degrading to queue depth under the fluid
//!   tier), and devices retreat to their local-only option while the
//!   published tail exceeds the scenario's deadline budget, re-probing on
//!   a deterministic hash-spread fraction ([`scenario`], [`cloud`],
//!   [`device`]).
//! * [`CloudSimFidelity`] — how the cloud is simulated:
//!   [`CloudSimFidelity::Fluid`] (epoch aggregates, the default) or
//!   [`CloudSimFidelity::PerRequest`], where every offloaded request is a
//!   discrete event in a [`RegionMicrosim`] — its own arrival, queueing,
//!   batch-admission, service, and completion times — giving the report
//!   exact per-request latency histograms with p50/p90/p95/p99 tails per
//!   region and per backend ([`cloud`]).
//! * [`FleetEngine`] — the sharded discrete-event engine ([`engine`]).
//! * [`FleetReport`] — mergeable aggregates: fixed-bin latency/energy
//!   histograms with percentiles, switch/shed/failover counts, per-region
//!   and per-backend breakdowns (utilization, batch-size histograms,
//!   per-request sojourn tails under [`CloudSimFidelity::PerRequest`]),
//!   and cloud-queue depth over time ([`report`]).
//! * Telemetry — [`FleetEngine::run_traced`] records the run through
//!   `lens-telemetry`'s deterministic observability layer: a sim-time
//!   [`FlightRecorder`] of typed [`TraceEvent`]s, fixed-point per-epoch
//!   [`MetricsRegistry`] timelines, and a per-phase [`EngineProfile`] of
//!   work counters, bundled as [`RunTelemetry`] with JSON and Chrome
//!   `trace_event` exports. The untraced [`FleetEngine::run`] uses the
//!   [`NullSink`], whose disabled recording const-folds to nothing
//!   (see `docs/ARCHITECTURE.md`, "Observability").
//!
//! # Sharding and the epoch barrier
//!
//! Devices are partitioned into contiguous shards, one `std::thread` worker
//! per shard, each advancing its own event heap. Shards only interact
//! through the cloud, and the cloud is synchronized at **epoch** boundaries
//! (one epoch = one trace-sample interval by default): within an epoch every
//! shard runs independently, counting how many of its inferences offloaded
//! to each region; at the barrier the engine merges those counts, runs each
//! region's batch-close events (dispatch across backends by least-work-left
//! water-filling, then drain each backend at its batch-amortized rate), and
//! publishes the [`RegionSignal`]s — queue waits and shed fractions — that
//! offloaded inferences experience **in the next epoch**. Contention and
//! admission control therefore feed back with a one-epoch lag — the price
//! of keeping the epoch itself embarrassingly parallel.
//!
//! # Determinism contract
//!
//! **Same seed + same shard count ⇒ bit-identical [`FleetReport`].**
//!
//! Every source of per-device randomness (trace synthesis, arrival phases,
//! priority class, Poisson inter-arrival draws, shed/failover decisions)
//! is seeded by mixing the scenario seed with the stable device id, never
//! from shard-local state, so device behavior does not depend on which
//! shard runs it. Event time is integer microseconds (no float comparison
//! in the heap), histogram bins are integer counts, and value sums are
//! accumulated in fixed-point (micro-unit) integers, so merging shard
//! partials is **exact and order-independent**. In practice the report is
//! therefore bit-identical across shard counts too (`tests/fleet_sim.rs`
//! pins 1 vs. 2 vs. 4 shards on a batched multi-backend scenario); the
//! contract names a fixed shard count as the conservative guarantee.
//!
//! The per-request microsimulation keeps the contract: at each barrier the
//! engine k-way merges every region's offloaded requests from the shards'
//! already-sorted runs into the `(arrival_us, device_id, stage)` total
//! order — a unique, shard-count-invariant key — before replaying them
//! through the region's event heap, so the cloud schedule is a pure
//! function of the scenario and seed. The barrier itself fans out one
//! replay worker per region ([`ReplayMode`], `src/replay.rs`): workers
//! read only immutable shard outputs and mutate only region-local state,
//! and their outputs merge in fixed region order, so parallel and
//! sequential replay are bit-identical too.
//!
//! # Staged pipelines
//!
//! A scenario may carry a [`PipelineSpec`] (see `src/pipeline.rs` and
//! docs/PIPELINES.md): every offloaded inference then becomes a chain of
//! pipeline stages — each a schedulable request on the serving tier —
//! with the activation transfer between consecutive stages priced in
//! integer microseconds through `lens_wireless::TransferModel` on the
//! origin region's uplink. The fluid tier charges per-stage queue waits
//! and the summed transfers analytically; the per-request tier chains a
//! stage-`k` completion at `t` into a stage-`k + 1` arrival at
//! `t + transfer`, replayed **one epoch later at the same epoch
//! offset** — the same one-epoch lag every contention signal carries —
//! while the device is charged the stage's actual sojourn plus the
//! transfer, never the replay shift. The chained requests extend (not
//! replace) the merge key above with the stage number. A depth-1 spec
//! is structurally the monolithic path, so pipelining costs nothing
//! when unused.
//!
//! # Examples
//!
//! A small dynamic fleet against the default single-backend cloud:
//!
//! ```
//! use lens_fleet::{CloudServing, FleetPolicy, FleetScenario};
//! use lens_nn::units::Millis;
//! use lens_runtime::Metric;
//!
//! # fn main() -> Result<(), lens_fleet::FleetError> {
//! let scenario = FleetScenario::builder()
//!     .population(200)
//!     .horizon(Millis::new(600_000.0)) // 10 minutes
//!     .serving(CloudServing::single(8, 8.0))
//!     .policy(FleetPolicy::Dynamic)
//!     .metric(Metric::Energy)
//!     .seed(7)
//!     .shards(2)
//!     .build()?;
//! let report = lens_fleet::FleetEngine::new(scenario)?.run()?;
//! assert!(report.inferences() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! A batched, multi-backend serving tier with deadline admission and
//! sibling-region failover:
//!
//! ```
//! use lens_fleet::{
//!     AdmissionPolicy, BackendConfig, CloudServing, FailoverPolicy, FleetEngine, FleetPolicy,
//!     FleetScenario,
//! };
//! use lens_nn::units::Millis;
//!
//! # fn main() -> Result<(), lens_fleet::FleetError> {
//! let serving = CloudServing::new(vec![
//!     BackendConfig::new("gpu", 2, 40.0, 1.0).with_batching(32, 50.0),
//!     BackendConfig::new("cpu", 8, 10.0, 6.0).with_batching(4, 20.0),
//! ])
//! .with_admission(AdmissionPolicy::Deadline { max_wait_ms: 2_000.0 })
//! .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 });
//! let scenario = FleetScenario::builder()
//!     .population(300)
//!     .horizon(Millis::new(300_000.0)) // 5 minutes
//!     .serving(serving)
//!     .policy(FleetPolicy::Dynamic)
//!     .seed(11)
//!     .build()?;
//! let report = FleetEngine::new(scenario)?.run()?;
//! // Per-backend utilization and batch sizes are in the report.
//! assert_eq!(report.backends().len(), 3 * 2); // 3 regions × 2 backends
//! # Ok(())
//! # }
//! ```
//!
//! A staged device → edge → cloud pipeline: one boundary (the activation
//! bytes crossing between the two remote stages) turns every offload into
//! a two-stage chain, and the report grows a stage ledger:
//!
//! ```
//! use lens_fleet::{FleetEngine, FleetPolicy, FleetScenario, PipelineSpec};
//! use lens_nn::units::Millis;
//!
//! # fn main() -> Result<(), lens_fleet::FleetError> {
//! let scenario = FleetScenario::builder()
//!     .population(200)
//!     .horizon(Millis::new(300_000.0)) // 5 minutes
//!     .policy(FleetPolicy::Dynamic)
//!     .pipeline(PipelineSpec::new(vec![150_528])) // one inter-stage hop
//!     .seed(17)
//!     .build()?;
//! let report = FleetEngine::new(scenario)?.run()?;
//! assert!(report.offloaded() > 0);
//! // Conservation: every admitted offload completes once per stage.
//! assert_eq!(report.stage_completions().len(), 2);
//! assert!(report.transfer_ms() > 0.0); // inter-stage hops were priced
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cloud;
pub mod device;
pub mod engine;
pub mod pipeline;
pub(crate) mod replay;
pub mod report;
pub mod scenario;

pub use cloud::{
    AdmissionPolicy, Autoscaler, BackendConfig, BackendStats, BatchPolicy, CloudServing,
    CloudSimFidelity, CompletedRequest, DispatchPolicy, FailoverPolicy, OffloadRequest,
    QueueDiscipline, RegionMicrosim, RegionServing, RegionSignal, ScalerState, ScalingSignal,
};
pub use device::{Cohort, Device};
pub use engine::FleetEngine;
pub use pipeline::{PipelineSpec, MAX_PIPELINE_DEPTH};
pub use report::{BackendReport, FleetReport, Histogram, RegionReport, TailSummary};
pub use scenario::{
    ArrivalModel, FleetPolicy, FleetScenario, FleetScenarioBuilder, RegionShare, ReplayMode,
    WorkloadCurve, CURVE_FP_SCALE,
};

// The observability surface, re-exported so fleet users need no direct
// `lens-telemetry` dependency to consume a traced run.
pub use lens_telemetry::{
    BarrierPhase, EngineProfile, FlightRecorder, MetricsRegistry, NullSink, PhaseCounters,
    PhaseProbe, RunTelemetry, Sink, TelemetryConfig, TraceEvent,
};

use std::error::Error;
use std::fmt;

/// Errors produced by the fleet substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// The scenario description is contradictory or incomplete.
    InvalidScenario(String),
    /// A lower layer (options, dominance maps) failed.
    Runtime(lens_runtime::RuntimeError),
    /// The network definition failed to analyze.
    Network(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidScenario(why) => write!(f, "invalid fleet scenario: {why}"),
            FleetError::Runtime(e) => write!(f, "runtime substrate error: {e}"),
            FleetError::Network(why) => write!(f, "network analysis error: {why}"),
        }
    }
}

impl Error for FleetError {}

impl From<lens_runtime::RuntimeError> for FleetError {
    fn from(e: lens_runtime::RuntimeError) -> Self {
        FleetError::Runtime(e)
    }
}

/// SplitMix64 finalizer — the stable per-device seed mixer behind the
/// determinism contract. Mixing the scenario seed with a device id here
/// (rather than drawing from any shared RNG) is what makes device behavior
/// independent of shard assignment.
pub(crate) fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_separates_streams() {
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        let c = mix_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix_seed(42, 0));
    }

    #[test]
    fn error_display_is_informative() {
        let e = FleetError::InvalidScenario("population is zero".into());
        assert!(format!("{e}").contains("population is zero"));
        let e: FleetError = lens_runtime::RuntimeError::NoOptions.into();
        assert!(format!("{e}").contains("no deployment options"));
    }
}
