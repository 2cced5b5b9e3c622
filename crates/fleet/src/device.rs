//! Per-device sessions and the cohorts that share design-time artifacts.
//!
//! Every device composes an online [`ThroughputTracker`] and a deployment
//! policy over its cohort's shared [`DominanceMap`]; its throughput
//! trajectory (a `GaussMarkovStream` drawn from the device's seed) is
//! stepped by the engine once per epoch and fed to `Device::serve` one
//! sample per event. A [`Cohort`] is one (region, technology) cell of the
//! scenario mix: all its devices see the same deployment options and
//! dominance structure (those depend only on the network, hardware, and
//! radio technology), while each device wanders through its own
//! throughput trajectory.
//!
//! Devices also implement the *execution side* of admission control: when
//! their region's published [`RegionSignal`] carries a non-zero shed
//! fraction, each offloading device decides deterministically (from a
//! stateless per-device hash stream, so shard assignment cannot perturb
//! it) whether its request is shed — and a shed request either fails over
//! to the least-loaded sibling region or falls back to the device's
//! local-only deployment option.

use crate::cloud::{CloudSimFidelity, DispatchPolicy, FailoverPolicy, RegionSignal};
use crate::scenario::{FleetPolicy, WorkloadCurve, CURVE_FP_SCALE};
use crate::{mix_seed, FleetError};
use lens_nn::units::Mbps;
use lens_runtime::{DeploymentOption, DeploymentPlanner, DominanceMap, Metric, ThroughputTracker};
use lens_telemetry::TraceEvent;
use lens_wireless::{Region, WirelessTechnology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// One (region, technology) cell of the fleet mix, holding the design-time
/// artifacts every member device shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Cohort {
    /// Index into the scenario's region list.
    pub region_index: usize,
    /// The region profile devices synthesize traces around.
    pub region: Region,
    /// The radio technology (fixes the power model and RTT).
    pub technology: WirelessTechnology,
    /// The enumerated deployment options.
    pub options: Vec<DeploymentOption>,
    /// Dominance map over `options` for the scenario metric.
    pub map: DominanceMap,
    /// Resolved option index for [`FleetPolicy::Fixed`], if that policy is
    /// active.
    pub fixed_index: Option<usize>,
    /// The cheapest cloud-free option (All-Edge for every paper network) —
    /// what a shed request falls back to.
    pub local_index: Option<usize>,
}

impl Cohort {
    /// Resolves a fixed deployment kind to its option index.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] when no option of this kind
    /// exists in the cohort.
    pub fn resolve_fixed(&self, kind: &lens_runtime::DeploymentKind) -> Result<usize, FleetError> {
        self.options
            .iter()
            .position(|o| o.kind() == kind)
            .ok_or_else(|| {
                FleetError::InvalidScenario(format!(
                    "cohort {}/{} has no {kind} option",
                    self.region.name(),
                    self.technology
                ))
            })
    }
}

/// The scenario-wide knobs every [`Device::serve`] call needs: the
/// switching policy, the metric it optimizes, where shed requests go, and
/// which cloud model prices the queueing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServeContext<'a> {
    pub policy: &'a FleetPolicy,
    pub metric: Metric,
    pub failover: FailoverPolicy,
    /// Under [`CloudSimFidelity::Fluid`] the device charges the published
    /// epoch wait to its offloaded latency; under
    /// [`CloudSimFidelity::PerRequest`] it leaves the cloud part out — the
    /// microsimulation supplies the exact per-request sojourn at the
    /// barrier, and the engine completes the record then.
    pub fidelity: CloudSimFidelity,
    /// The serving tier's dispatch policy. Under
    /// [`DispatchPolicy::CostAware`], sibling failover targets the region
    /// with the smallest published marginal cost (wait breaks ties)
    /// instead of the smallest wait.
    pub dispatch: DispatchPolicy,
    /// The scenario's time-varying workload curve, if any: devices
    /// evaluate it at each request's arrival time and suppress offload
    /// intent deterministically (a suppressed request runs the local-only
    /// option).
    pub curve: Option<&'a WorkloadCurve>,
    /// The tail deadline budget (ms), if set: while the region's published
    /// epoch p99 exceeds it, offload-bound requests retreat to the
    /// local-only option (a hash-spread fraction still probes the tier).
    pub tail_deadline_ms: Option<f64>,
    /// Staged-pipeline pricing for the **fluid** tier, when the scenario
    /// stages offloads: `(depth, per-origin-region total transfer ms)`.
    /// A fluid offload then charges the published wait once per stage
    /// plus its origin region's summed hop transfers. `None` under the
    /// per-request fidelity even when the scenario is staged — there the
    /// barrier chains real stage requests and prices each hop exactly.
    pub pipeline: Option<(u32, &'a [f64])>,
}

/// What one served inference cost, for aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Served {
    pub latency_ms: f64,
    pub energy_mj: f64,
    /// Whether the inference occupied cloud capacity (its own region's or,
    /// after failover, a sibling's).
    pub offloaded: bool,
    pub switched: bool,
    /// Admission control shed the offload and the device ran its
    /// local-only option instead.
    pub shed_to_local: bool,
    /// Admission control shed the offload here and a sibling region's
    /// cloud absorbed it.
    pub failover_region: Option<u32>,
    /// The device retreated an offload-bound request to its local-only
    /// option because the region's published epoch p99 exceeded the tail
    /// deadline budget.
    pub retreated: bool,
}

/// Emits the flight-recorder events for one serve outcome. Local serves
/// that were never shed emit nothing — tracing every periodic local
/// inference would flood the ring with events that carry no scheduling
/// information. A failed-over offload emits two events at the same
/// `(time_us, device_id)` key (failover, then dispatch at the sibling);
/// the barrier's *stable* merge sort preserves that emission order.
pub(crate) fn trace_serve_events(
    served: &Served,
    device_id: u64,
    origin_region: u64,
    high_priority: bool,
    time_us: u64,
    out: &mut Vec<TraceEvent>,
) {
    if served.shed_to_local {
        out.push(TraceEvent::Shed {
            time_us,
            device_id,
            region: origin_region,
        });
        return;
    }
    if served.retreated {
        out.push(TraceEvent::Retreat {
            time_us,
            device_id,
            region: origin_region,
        });
        return;
    }
    if let Some(dest) = served.failover_region {
        out.push(TraceEvent::Failover {
            time_us,
            device_id,
            from_region: origin_region,
            to_region: u64::from(dest),
        });
    }
    if served.offloaded {
        out.push(TraceEvent::Dispatch {
            time_us,
            device_id,
            region: served.failover_region.map_or(origin_region, u64::from),
            high_priority,
            failed_over: served.failover_region.is_some(),
        });
    }
}

/// Maps a SplitMix64 output to `[0, 1)` with 53 bits of precision.
fn unit_from(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Salt separating the failover draw from the shed draw at the same event
/// time.
const FAILOVER_SALT: u64 = 0x51B1_1E57;

/// Salt separating the workload-curve suppression draw from the shed and
/// failover draws at the same event time.
const CURVE_SALT: u64 = 0xC0A5_7C04;

/// Salt separating the tail-retreat re-probe draw from every other stream.
const RETREAT_SALT: u64 = 0x7A11_BAC0;

/// One in this many retreat-bound offloads still probes the tier while the
/// published p99 exceeds the deadline budget, so the fleet observes the
/// tail recovering instead of abandoning the region forever.
const RETREAT_REPROBE_DIV: u64 = 16;

/// One device session: tracker + policy state. Its uplink process lives
/// in the engine's shard, not in the device.
#[derive(Debug, Clone)]
pub struct Device {
    /// The stable, shard-count-invariant device id.
    pub(crate) id: u64,
    pub(crate) cohort: u32,
    pub(crate) high_priority: bool,
    pub(crate) tracker: ThroughputTracker,
    pub(crate) current_option: Option<u32>,
    pub(crate) rng: StdRng,
    /// Seed of the stateless shed/failover decision stream — hashed with
    /// the event time rather than drawn from `rng`, so admission decisions
    /// cannot perturb the arrival stream.
    pub(crate) shed_seed: u64,
}

impl Device {
    pub(crate) fn new(
        id: u64,
        cohort: u32,
        high_priority: bool,
        tracker_alpha: f64,
        seed: u64,
    ) -> Self {
        Device {
            id,
            cohort,
            high_priority,
            tracker: ThroughputTracker::new(tracker_alpha),
            current_option: None,
            rng: StdRng::seed_from_u64(seed),
            shed_seed: mix_seed(seed, 0x5EED),
        }
    }

    /// The cohort this device belongs to.
    pub fn cohort_index(&self) -> usize {
        self.cohort as usize
    }

    /// Whether this device is in the cloud queue's high-priority class.
    pub fn high_priority(&self) -> bool {
        self.high_priority
    }

    /// Draws the next exponential inter-arrival time (µs) for Poisson
    /// arrivals from the device's own seeded stream.
    pub(crate) fn draw_interarrival_us(&mut self, mean_us: f64) -> u64 {
        // Inverse-CDF sampling; u is in [0, 1), so 1-u is in (0, 1].
        let u: f64 = self.rng.gen();
        let dt = -mean_us * (1.0 - u).ln();
        // Never schedule two events at the same microsecond.
        (dt as u64).max(1)
    }

    /// Serves one inference at `time_us` with the device's throughput
    /// sample `tu` for the current epoch: observe the sample, select an
    /// option per `policy`, apply the region's published admission signal
    /// (shedding to a sibling region or the local-only option), and price
    /// the inference at the *actual* throughput (the tracker only steers
    /// the choice, as in the Fig 5 loop).
    ///
    /// `signals` is the barrier-published per-region state for this epoch:
    /// queue waits are charged to the realized latency of offloaded
    /// options, congestion-aware policies also weigh them during selection
    /// on the latency metric, and the shed fraction gates admission.
    pub(crate) fn serve(
        &mut self,
        cohort: &Cohort,
        ctx: ServeContext<'_>,
        signals: &[RegionSignal],
        time_us: u64,
        tu: Mbps,
    ) -> Served {
        self.tracker.observe(tu);
        let estimate = self.tracker.estimate().expect("just observed");
        let own = &signals[cohort.region_index];
        let queue_wait_ms = own.wait_ms(self.high_priority);
        // Fluid staged pipelines experience the published wait once per
        // stage; `1.0` (monolithic, or per-request fidelity) multiplies
        // exactly, so the historical arithmetic is bit-identical.
        let fluid_stages = match ctx.pipeline {
            Some((depth, _)) if ctx.fidelity == CloudSimFidelity::Fluid => f64::from(depth),
            _ => 1.0,
        };

        let choice = match ctx.policy {
            FleetPolicy::Fixed(_) => cohort.fixed_index.expect("resolved at engine build"),
            FleetPolicy::Dynamic => cohort.map.best_at(estimate),
            FleetPolicy::DynamicCongestionAware => {
                if ctx.metric == Metric::Latency && queue_wait_ms > 0.0 {
                    DeploymentPlanner::best_at_with_cloud_penalty(
                        &cohort.options,
                        ctx.metric,
                        estimate,
                        queue_wait_ms,
                    )
                    .expect("cohort has options")
                    .0
                } else {
                    // Queue waits cost the edge no energy, so the penalty
                    // only shifts latency-mode selection.
                    cohort.map.best_at(estimate)
                }
            }
        };
        let switched = self
            .current_option
            .is_some_and(|prev| prev != choice as u32);
        self.current_option = Some(choice as u32);

        let option = &cohort.options[choice];
        let mut offloaded = option.uses_cloud();
        let mut latency_ms = option.latency_at(tu).get();
        let mut energy_mj = option.energy_at(tu).get();
        let mut shed_to_local = false;
        let mut failover_region = None;
        let mut retreated = false;

        // Time-varying workload: the curve scales this device's offload
        // intent at the request's arrival time. A suppressed request runs
        // the local-only option silently — it never wanted the cloud this
        // phase, so it is neither a shed nor a retreat. The draw is an
        // integer comparison in the curve's own micro-unit scale: no float
        // enters the decision.
        if offloaded {
            if let Some(curve) = ctx.curve {
                let multiplier_fp = curve.multiplier_fp(time_us, cohort.region_index);
                let suppressed = multiplier_fp < CURVE_FP_SCALE
                    && mix_seed(mix_seed(self.shed_seed, CURVE_SALT), time_us)
                        % (CURVE_FP_SCALE as u64)
                        >= multiplier_fp as u64;
                if suppressed {
                    let local = cohort
                        .local_index
                        .expect("validated at engine build: local fallback exists");
                    let fallback = &cohort.options[local];
                    latency_ms = fallback.latency_at(tu).get();
                    energy_mj = fallback.energy_at(tu).get();
                    offloaded = false;
                }
            }
        }

        // Tail retreat: while the region's published epoch p99 exceeds the
        // deadline budget, offload-bound requests retreat to the local-only
        // option before admission. A hash-spread 1-in-N still probes the
        // tier so devices notice when the tail recovers. A `None` p99 (the
        // fluid tier, or an idle microsim epoch) is *no signal* — never a
        // stale zero — and must not trigger a retreat.
        if offloaded {
            if let (Some(budget_ms), Some(p99_ms)) = (ctx.tail_deadline_ms, own.p99_ms) {
                if p99_ms > budget_ms {
                    let probes = mix_seed(self.shed_seed ^ RETREAT_SALT, time_us)
                        .is_multiple_of(RETREAT_REPROBE_DIV);
                    if !probes {
                        let local = cohort
                            .local_index
                            .expect("validated at engine build: local fallback exists");
                        let fallback = &cohort.options[local];
                        latency_ms = fallback.latency_at(tu).get();
                        energy_mj = fallback.energy_at(tu).get();
                        offloaded = false;
                        retreated = true;
                    }
                }
            }
        }

        if offloaded {
            let shed = own.shed_fraction > 0.0
                && unit_from(mix_seed(self.shed_seed, time_us)) < own.shed_fraction;
            if !shed {
                // Per-request fidelity: the microsim computes the exact
                // sojourn at the barrier instead of the fluid estimate.
                if ctx.fidelity == CloudSimFidelity::Fluid {
                    latency_ms += queue_wait_ms * fluid_stages;
                }
            } else {
                // Shed: try a sibling region if configured, else run local.
                let sibling = match ctx.failover {
                    FailoverPolicy::ToDevice => None,
                    FailoverPolicy::SiblingRegion { penalty_ms } => signals
                        .iter()
                        .enumerate()
                        .filter(|&(r, _)| r != cohort.region_index)
                        .filter(|(r, s)| {
                            // Each sibling applies its own admission gate
                            // *before* selection (per-device, per-region
                            // stateless draw): a cheapest-but-shedding
                            // sibling must fall through to the next viable
                            // one, not block failover entirely.
                            s.shed_fraction <= 0.0
                                || unit_from(mix_seed(
                                    self.shed_seed ^ *r as u64,
                                    time_us ^ FAILOVER_SALT,
                                )) >= s.shed_fraction
                        })
                        .min_by(|(ra, a), (rb, b)| {
                            // Cost-aware tiers shed toward the *cheapest*
                            // viable sibling (published marginal cost);
                            // otherwise — and on cost ties — the least
                            // wait wins. Ties (several idle siblings at
                            // wait 0) are spread by a per-device,
                            // per-event hash so the overflow does not
                            // pile onto the lowest index.
                            let by_cost = if ctx.dispatch == DispatchPolicy::CostAware {
                                a.marginal_cost
                                    .partial_cmp(&b.marginal_cost)
                                    .expect("finite marginal costs")
                            } else {
                                Ordering::Equal
                            };
                            by_cost
                                .then_with(|| {
                                    a.wait_ms(self.high_priority)
                                        .partial_cmp(&b.wait_ms(self.high_priority))
                                        .expect("finite waits")
                                })
                                .then_with(|| {
                                    mix_seed(self.shed_seed ^ *ra as u64, time_us)
                                        .cmp(&mix_seed(self.shed_seed ^ *rb as u64, time_us))
                                })
                        })
                        .map(|(r, s)| {
                            // Fluid mode prices the sibling's published
                            // wait here; per-request mode only charges the
                            // inter-region penalty — the request joins the
                            // sibling's microsim queue for the rest.
                            let wait = match ctx.fidelity {
                                CloudSimFidelity::Fluid => s.wait_ms(self.high_priority),
                                CloudSimFidelity::PerRequest => 0.0,
                            };
                            // Staged fluid offloads wait at every stage;
                            // the inter-region penalty is paid once (the
                            // whole chain serves in the sibling).
                            (r, wait * fluid_stages + penalty_ms)
                        }),
                };
                match sibling {
                    Some((dest, extra_ms)) => {
                        latency_ms += extra_ms;
                        failover_region = Some(dest as u32);
                    }
                    None => {
                        let local = cohort
                            .local_index
                            .expect("validated at engine build: local fallback exists");
                        let fallback = &cohort.options[local];
                        latency_ms = fallback.latency_at(tu).get();
                        energy_mj = fallback.energy_at(tu).get();
                        offloaded = false;
                        shed_to_local = true;
                    }
                }
            }
        }
        // A staged fluid offload also pays its origin region's summed
        // inter-stage transfers (priced on the origin uplink even after
        // failover — the activations leave the device's network).
        if offloaded {
            if let Some((_, transfer_total_ms)) = ctx.pipeline {
                if ctx.fidelity == CloudSimFidelity::Fluid {
                    latency_ms += transfer_total_ms[cohort.region_index];
                }
            }
        }
        Served {
            latency_ms,
            energy_mj,
            offloaded,
            switched,
            shed_to_local,
            failover_region,
            retreated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lens_device::{profile_network, DeviceProfile};
    use lens_nn::units::Mbps;
    use lens_nn::zoo;
    use lens_runtime::DeploymentKind;
    use lens_wireless::WirelessLink;

    fn cohort(metric: Metric) -> Cohort {
        let analysis = zoo::alexnet().analyze().unwrap();
        let perf = profile_network(&analysis, &DeviceProfile::jetson_tx2_cpu());
        let planner =
            DeploymentPlanner::new(WirelessLink::new(WirelessTechnology::Lte, Mbps::new(8.0)));
        let options = planner.enumerate(&analysis, &perf).unwrap();
        let map = DominanceMap::build(&options, metric).unwrap();
        let local_index = DeploymentPlanner::local_fallback(&options, metric, Mbps::new(8.0)).ok();
        Cohort {
            region_index: 0,
            region: Region::new("USA", Mbps::new(7.5)),
            technology: WirelessTechnology::Lte,
            options,
            map,
            fixed_index: None,
            local_index,
        }
    }

    fn calm(regions: usize) -> Vec<RegionSignal> {
        vec![RegionSignal::default(); regions]
    }

    fn waiting(wait_ms: f64) -> Vec<RegionSignal> {
        vec![RegionSignal {
            wait_high_ms: wait_ms,
            wait_low_ms: wait_ms,
            ..RegionSignal::default()
        }]
    }

    fn shedding(fraction: f64) -> RegionSignal {
        RegionSignal {
            shed_fraction: fraction,
            ..RegionSignal::default()
        }
    }

    #[test]
    fn resolve_fixed_finds_kinds() {
        let c = cohort(Metric::Energy);
        assert!(c.resolve_fixed(&DeploymentKind::AllEdge).is_ok());
        assert!(c.resolve_fixed(&DeploymentKind::AllCloud).is_ok());
        let missing = DeploymentKind::Split {
            layer_index: 999,
            layer_name: "nope".into(),
        };
        assert!(matches!(
            c.resolve_fixed(&missing),
            Err(FleetError::InvalidScenario(_))
        ));
    }

    #[test]
    fn dynamic_serve_matches_dominance_map() {
        let c = cohort(Metric::Energy);
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let served = d.serve(
            &c,
            ServeContext {
                policy: &FleetPolicy::Dynamic,
                metric: Metric::Energy,
                failover: FailoverPolicy::ToDevice,
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &calm(1),
            0,
            Mbps::new(8.0),
        );
        let expected = c.map.best_at(Mbps::new(8.0));
        assert_eq!(d.current_option, Some(expected as u32));
        let opt = &c.options[expected];
        assert!((served.energy_mj - opt.energy_at(Mbps::new(8.0)).get()).abs() < 1e-12);
        assert_eq!(served.offloaded, opt.uses_cloud());
        assert!(!served.switched, "first inference cannot switch");
    }

    #[test]
    fn queue_wait_charged_to_offloaded_latency_only() {
        let c = cohort(Metric::Latency);
        let mut fixed_cloud = c.clone();
        fixed_cloud.fixed_index = Some(
            fixed_cloud
                .resolve_fixed(&DeploymentKind::AllCloud)
                .unwrap(),
        );
        let mut fixed_edge = c.clone();
        fixed_edge.fixed_index = Some(fixed_edge.resolve_fixed(&DeploymentKind::AllEdge).unwrap());

        let policy = FleetPolicy::Fixed(DeploymentKind::AllCloud); // kind irrelevant post-resolve
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let base = d.serve(
            &fixed_cloud,
            ServeContext {
                policy: &policy,
                metric: Metric::Latency,
                failover: FailoverPolicy::ToDevice,
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &calm(1),
            0,
            Mbps::new(8.0),
        );
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let queued = d.serve(
            &fixed_cloud,
            ServeContext {
                policy: &policy,
                metric: Metric::Latency,
                failover: FailoverPolicy::ToDevice,
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &waiting(500.0),
            0,
            Mbps::new(8.0),
        );
        assert!((queued.latency_ms - base.latency_ms - 500.0).abs() < 1e-9);
        assert!((queued.energy_mj - base.energy_mj).abs() < 1e-12);

        let mut d = Device::new(0, 0, false, 1.0, 1);
        let edge = d.serve(
            &fixed_edge,
            ServeContext {
                policy: &policy,
                metric: Metric::Latency,
                failover: FailoverPolicy::ToDevice,
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &waiting(500.0),
            0,
            Mbps::new(8.0),
        );
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let edge_q = d.serve(
            &fixed_edge,
            ServeContext {
                policy: &policy,
                metric: Metric::Latency,
                failover: FailoverPolicy::ToDevice,
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &calm(1),
            0,
            Mbps::new(8.0),
        );
        assert!((edge.latency_ms - edge_q.latency_ms).abs() < 1e-12);
    }

    #[test]
    fn congestion_aware_routes_around_saturated_cloud() {
        let c = cohort(Metric::Latency);
        // At a high rate the base latency argmin offloads…
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let served = d.serve(
            &c,
            ServeContext {
                policy: &FleetPolicy::DynamicCongestionAware,
                metric: Metric::Latency,
                failover: FailoverPolicy::ToDevice,
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &calm(1),
            0,
            Mbps::new(50.0),
        );
        assert!(served.offloaded, "uncongested fast link should offload");
        // …but an hour-long queue forces All-Edge.
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let served = d.serve(
            &c,
            ServeContext {
                policy: &FleetPolicy::DynamicCongestionAware,
                metric: Metric::Latency,
                failover: FailoverPolicy::ToDevice,
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &waiting(3.6e6),
            0,
            Mbps::new(50.0),
        );
        assert!(
            !served.offloaded,
            "congestion-aware policy must dodge the queue"
        );
    }

    #[test]
    fn full_shedding_to_device_runs_the_local_option() {
        let mut c = cohort(Metric::Latency);
        c.fixed_index = Some(c.resolve_fixed(&DeploymentKind::AllCloud).unwrap());
        let local = c.local_index.unwrap();
        let policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
        let signals = vec![shedding(1.0)];
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let served = d.serve(
            &c,
            ServeContext {
                policy: &policy,
                metric: Metric::Latency,
                failover: FailoverPolicy::ToDevice,
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &signals,
            0,
            Mbps::new(8.0),
        );
        assert!(served.shed_to_local);
        assert!(!served.offloaded);
        assert_eq!(served.failover_region, None);
        let fallback = &c.options[local];
        assert!((served.latency_ms - fallback.latency_at(Mbps::new(8.0)).get()).abs() < 1e-12);
        assert!((served.energy_mj - fallback.energy_at(Mbps::new(8.0)).get()).abs() < 1e-12);
    }

    #[test]
    fn full_shedding_fails_over_to_least_loaded_sibling() {
        let mut c = cohort(Metric::Latency);
        c.fixed_index = Some(c.resolve_fixed(&DeploymentKind::AllCloud).unwrap());
        let policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
        // Own region (index 0) sheds everything; region 2 is least loaded.
        let signals = vec![shedding(1.0), waiting(900.0)[0], waiting(200.0)[0]];
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let base = {
            let mut d2 = Device::new(0, 0, false, 1.0, 1);
            d2.serve(
                &c,
                ServeContext {
                    policy: &policy,
                    metric: Metric::Latency,
                    failover: FailoverPolicy::ToDevice,
                    fidelity: CloudSimFidelity::Fluid,
                    dispatch: DispatchPolicy::LeastWorkLeft,
                    curve: None,
                    tail_deadline_ms: None,
                    pipeline: None,
                },
                &calm(3),
                0,
                Mbps::new(8.0),
            )
        };
        let served = d.serve(
            &c,
            ServeContext {
                policy: &policy,
                metric: Metric::Latency,
                failover: FailoverPolicy::SiblingRegion { penalty_ms: 40.0 },
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &signals,
            0,
            Mbps::new(8.0),
        );
        assert_eq!(served.failover_region, Some(2));
        assert!(served.offloaded, "failover still occupies cloud capacity");
        assert!(!served.shed_to_local);
        // Charged the sibling's wait plus the inter-region penalty.
        assert!((served.latency_ms - base.latency_ms - 240.0).abs() < 1e-9);
        assert!((served.energy_mj - base.energy_mj).abs() < 1e-12);
    }

    #[test]
    fn cost_aware_failover_sheds_to_the_cheapest_viable_sibling() {
        let mut c = cohort(Metric::Latency);
        c.fixed_index = Some(c.resolve_fixed(&DeploymentKind::AllCloud).unwrap());
        let policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
        // Own region (0) sheds everything. Sibling 1 is idle but pricey;
        // sibling 2 carries a 400 ms wait but costs 6× less per job.
        let pricey = RegionSignal {
            marginal_cost: 6.0,
            ..RegionSignal::default()
        };
        let cheap_but_busy = RegionSignal {
            wait_high_ms: 400.0,
            wait_low_ms: 400.0,
            marginal_cost: 1.0,
            ..RegionSignal::default()
        };
        let signals = vec![shedding(1.0), pricey, cheap_but_busy];
        let serve = |dispatch| {
            let mut d = Device::new(0, 0, false, 1.0, 1);
            d.serve(
                &c,
                ServeContext {
                    policy: &policy,
                    metric: Metric::Latency,
                    failover: FailoverPolicy::SiblingRegion { penalty_ms: 40.0 },
                    fidelity: CloudSimFidelity::Fluid,
                    dispatch,
                    curve: None,
                    tail_deadline_ms: None,
                    pipeline: None,
                },
                &signals,
                0,
                Mbps::new(8.0),
            )
        };
        // Least-work dispatch keeps the least-wait choice…
        let least_work = serve(DispatchPolicy::LeastWorkLeft);
        assert_eq!(least_work.failover_region, Some(1));
        // …cost-aware failover pays the wait to shed to the cheap region.
        let cost_aware = serve(DispatchPolicy::CostAware);
        assert_eq!(cost_aware.failover_region, Some(2));
        assert!(cost_aware.offloaded);
        assert!(
            cost_aware.latency_ms > least_work.latency_ms,
            "the cheap sibling charges its 400 ms wait"
        );
    }

    #[test]
    fn fully_shedding_cheapest_sibling_falls_through_to_next_viable() {
        // Viability gates run *before* selection: when the cheapest
        // sibling sheds everything, failover must land on the
        // next-cheapest viable sibling — not collapse to local fallback
        // because the blocked region kept winning the cost comparison.
        let mut c = cohort(Metric::Latency);
        c.fixed_index = Some(c.resolve_fixed(&DeploymentKind::AllCloud).unwrap());
        let policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
        let cheap_but_shedding = RegionSignal {
            marginal_cost: 1.0,
            shed_fraction: 1.0,
            ..RegionSignal::default()
        };
        let pricey_but_open = RegionSignal {
            marginal_cost: 6.0,
            ..RegionSignal::default()
        };
        let signals = vec![shedding(1.0), cheap_but_shedding, pricey_but_open];
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let served = d.serve(
            &c,
            ServeContext {
                policy: &policy,
                metric: Metric::Latency,
                failover: FailoverPolicy::SiblingRegion { penalty_ms: 40.0 },
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::CostAware,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &signals,
            0,
            Mbps::new(8.0),
        );
        assert_eq!(served.failover_region, Some(2), "{served:?}");
        assert!(served.offloaded);
        assert!(!served.shed_to_local);
    }

    #[test]
    fn shedding_sibling_pushes_failover_back_to_device() {
        let mut c = cohort(Metric::Latency);
        c.fixed_index = Some(c.resolve_fixed(&DeploymentKind::AllCloud).unwrap());
        let policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
        let signals = vec![shedding(1.0), shedding(1.0)];
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let served = d.serve(
            &c,
            ServeContext {
                policy: &policy,
                metric: Metric::Latency,
                failover: FailoverPolicy::SiblingRegion { penalty_ms: 40.0 },
                fidelity: CloudSimFidelity::Fluid,
                dispatch: DispatchPolicy::LeastWorkLeft,
                curve: None,
                tail_deadline_ms: None,
                pipeline: None,
            },
            &signals,
            0,
            Mbps::new(8.0),
        );
        assert!(served.shed_to_local, "both regions shedding → local");
        assert!(!served.offloaded);
    }

    #[test]
    fn partial_shedding_is_deterministic_and_proportional() {
        let mut c = cohort(Metric::Latency);
        c.fixed_index = Some(c.resolve_fixed(&DeploymentKind::AllCloud).unwrap());
        let policy = FleetPolicy::Fixed(DeploymentKind::AllCloud);
        let signals = vec![shedding(0.3)];
        let run = || {
            let mut shed = 0u32;
            for dev in 0..400u64 {
                let mut d = Device::new(0, 0, false, 1.0, dev);
                let s = d.serve(
                    &c,
                    ServeContext {
                        policy: &policy,
                        metric: Metric::Latency,
                        failover: FailoverPolicy::ToDevice,
                        fidelity: CloudSimFidelity::Fluid,
                        dispatch: DispatchPolicy::LeastWorkLeft,
                        curve: None,
                        tail_deadline_ms: None,
                        pipeline: None,
                    },
                    &signals,
                    0,
                    Mbps::new(8.0),
                );
                shed += s.shed_to_local as u32;
            }
            shed
        };
        let a = run();
        assert_eq!(a, run(), "shed decisions must be deterministic");
        assert!(
            (60..=180).contains(&a),
            "≈30% of 400 offloads should shed, got {a}"
        );
    }

    #[test]
    fn switching_is_counted_on_change() {
        let c = cohort(Metric::Energy);
        // A trace that jumps between a rate favouring All-Edge and one
        // favouring offload must produce a switch.
        let samples = [Mbps::new(0.2), Mbps::new(40.0), Mbps::new(0.2)];
        let mut d = Device::new(0, 0, false, 1.0, 1);
        let mut switches = 0;
        for i in 0..3u64 {
            let s = d.serve(
                &c,
                ServeContext {
                    policy: &FleetPolicy::Dynamic,
                    metric: Metric::Energy,
                    failover: FailoverPolicy::ToDevice,
                    fidelity: CloudSimFidelity::Fluid,
                    dispatch: DispatchPolicy::LeastWorkLeft,
                    curve: None,
                    tail_deadline_ms: None,
                    pipeline: None,
                },
                &calm(1),
                i * 60_000_000,
                samples[i as usize],
            );
            switches += s.switched as u32;
        }
        assert_eq!(switches, 2);
    }

    #[test]
    fn poisson_draws_are_positive_and_deterministic() {
        let mut a = Device::new(0, 0, false, 1.0, 9);
        let mut b = Device::new(0, 0, false, 1.0, 9);
        for _ in 0..100 {
            let da = a.draw_interarrival_us(1000.0);
            assert_eq!(da, b.draw_interarrival_us(1000.0));
            assert!(da >= 1);
        }
    }

    #[test]
    fn serve_outcomes_map_to_the_expected_trace_events() {
        let base = Served {
            latency_ms: 10.0,
            energy_mj: 5.0,
            offloaded: false,
            switched: false,
            shed_to_local: false,
            failover_region: None,
            retreated: false,
        };
        let events_for = |served: &Served| {
            let mut out = Vec::new();
            trace_serve_events(served, 7, 0, true, 1_000, &mut out);
            out
        };
        // Plain local serve: silent.
        assert!(events_for(&base).is_empty());
        // Shed to local: one shed event at the origin region.
        let shed = Served {
            shed_to_local: true,
            ..base
        };
        assert_eq!(
            events_for(&shed),
            [TraceEvent::Shed {
                time_us: 1_000,
                device_id: 7,
                region: 0,
            }]
        );
        // Plain offload: one dispatch at the origin.
        let offloaded = Served {
            offloaded: true,
            ..base
        };
        assert_eq!(
            events_for(&offloaded),
            [TraceEvent::Dispatch {
                time_us: 1_000,
                device_id: 7,
                region: 0,
                high_priority: true,
                failed_over: false,
            }]
        );
        // Failover: failover then dispatch at the sibling, same key.
        let failed_over = Served {
            offloaded: true,
            failover_region: Some(2),
            ..base
        };
        assert_eq!(
            events_for(&failed_over),
            [
                TraceEvent::Failover {
                    time_us: 1_000,
                    device_id: 7,
                    from_region: 0,
                    to_region: 2,
                },
                TraceEvent::Dispatch {
                    time_us: 1_000,
                    device_id: 7,
                    region: 2,
                    high_priority: true,
                    failed_over: true,
                }
            ]
        );
        // Tail retreat: one retreat event at the origin, nothing else.
        let retreated = Served {
            retreated: true,
            ..base
        };
        assert_eq!(
            events_for(&retreated),
            [TraceEvent::Retreat {
                time_us: 1_000,
                device_id: 7,
                region: 0,
            }]
        );
    }

    fn all_cloud(metric: Metric) -> (Cohort, FleetPolicy) {
        let mut c = cohort(metric);
        c.fixed_index = Some(c.resolve_fixed(&DeploymentKind::AllCloud).unwrap());
        (c, FleetPolicy::Fixed(DeploymentKind::AllCloud))
    }

    fn ctx_with<'a>(
        policy: &'a FleetPolicy,
        curve: Option<&'a WorkloadCurve>,
        tail_deadline_ms: Option<f64>,
    ) -> ServeContext<'a> {
        ServeContext {
            policy,
            metric: Metric::Latency,
            failover: FailoverPolicy::ToDevice,
            fidelity: CloudSimFidelity::Fluid,
            dispatch: DispatchPolicy::LeastWorkLeft,
            curve,
            tail_deadline_ms,
            pipeline: None,
        }
    }

    #[test]
    fn tail_retreat_pins_each_p99_branch() {
        let (c, policy) = all_cloud(Metric::Latency);
        let serve_one = |p99_ms: Option<f64>, deadline: Option<f64>, seed: u64| {
            let signals = vec![RegionSignal {
                p99_ms,
                ..RegionSignal::default()
            }];
            let mut d = Device::new(0, 0, false, 1.0, seed);
            d.serve(
                &c,
                ctx_with(&policy, None, deadline),
                &signals,
                0,
                Mbps::new(8.0),
            )
        };
        // No published tail (fluid mode, or an idle microsim epoch): the
        // deadline policy must treat `None` as no signal, never as zero.
        let s = serve_one(None, Some(50.0), 1);
        assert!(s.offloaded && !s.retreated, "None p99 must not retreat");
        // A published tail under budget: no retreat either.
        let s = serve_one(Some(40.0), Some(50.0), 1);
        assert!(
            s.offloaded && !s.retreated,
            "under-budget p99 must not retreat"
        );
        // No deadline configured: even a blown tail changes nothing.
        let s = serve_one(Some(5_000.0), None, 1);
        assert!(s.offloaded && !s.retreated, "no deadline means no retreat");
        // Over budget: most devices retreat, a deterministic hash-spread
        // fraction still probes the tier so recovery is observable.
        let run = || {
            let (mut retreats, mut probes) = (0u32, 0u32);
            for dev in 0..400u64 {
                let s = serve_one(Some(5_000.0), Some(50.0), dev);
                retreats += s.retreated as u32;
                probes += s.offloaded as u32;
                assert!(!s.shed_to_local, "retreat is not a shed");
            }
            (retreats, probes)
        };
        let (retreats, probes) = run();
        assert_eq!(
            (retreats, probes),
            run(),
            "retreat draws must be deterministic"
        );
        assert_eq!(retreats + probes, 400, "every offload retreats or probes");
        assert!(
            (1..=80).contains(&probes),
            "≈1/16 of 400 should re-probe, got {probes}"
        );
    }

    #[test]
    fn fluid_pipeline_charges_per_stage_waits_and_origin_transfers() {
        let (c, policy) = all_cloud(Metric::Latency);
        let transfer_total_ms = [12.5f64];
        let serve_one = |pipeline: Option<(u32, &[f64])>, signals: &[RegionSignal]| {
            let mut d = Device::new(0, 0, false, 1.0, 1);
            d.serve(
                &c,
                ServeContext {
                    policy: &policy,
                    metric: Metric::Latency,
                    failover: FailoverPolicy::ToDevice,
                    fidelity: CloudSimFidelity::Fluid,
                    dispatch: DispatchPolicy::LeastWorkLeft,
                    curve: None,
                    tail_deadline_ms: None,
                    pipeline,
                },
                signals,
                0,
                Mbps::new(8.0),
            )
        };
        // Idle tier: the staged offload only pays its transfers.
        let mono = serve_one(None, &calm(1));
        let staged = serve_one(Some((3, &transfer_total_ms)), &calm(1));
        assert!(staged.offloaded && mono.offloaded);
        assert!((staged.latency_ms - mono.latency_ms - 12.5).abs() < 1e-9);
        // A 100 ms published wait is charged once per stage (3×), plus
        // the transfers; the monolithic path pays it once.
        let mono_q = serve_one(None, &waiting(100.0));
        let staged_q = serve_one(Some((3, &transfer_total_ms)), &waiting(100.0));
        assert!((mono_q.latency_ms - mono.latency_ms - 100.0).abs() < 1e-9);
        assert!((staged_q.latency_ms - staged.latency_ms - 300.0).abs() < 1e-9);
        // Depth 1 with zero transfers is bit-identical to monolithic.
        let degenerate = serve_one(Some((1, &[0.0])), &waiting(100.0));
        assert_eq!(degenerate, mono_q);
    }

    #[test]
    fn workload_curve_suppression_is_deterministic_and_proportional() {
        let (c, policy) = all_cloud(Metric::Latency);
        // A single-phase curve at 30% intent: ≈30% of devices offload, the
        // rest run local — silently (neither shed nor retreated).
        let curve = WorkloadCurve::from_phases_fp(vec![(0, 300_000)]);
        let run = |curve: &WorkloadCurve| {
            let mut offloads = 0u32;
            for dev in 0..400u64 {
                let mut d = Device::new(0, 0, false, 1.0, dev);
                let s = d.serve(
                    &c,
                    ctx_with(&policy, Some(curve), None),
                    &calm(1),
                    0,
                    Mbps::new(8.0),
                );
                assert!(!s.shed_to_local && !s.retreated);
                offloads += s.offloaded as u32;
            }
            offloads
        };
        let a = run(&curve);
        assert_eq!(a, run(&curve), "curve draws must be deterministic");
        assert!(
            (60..=180).contains(&a),
            "≈30% of 400 should keep offloading, got {a}"
        );
        // Full intent never suppresses: the draw is skipped entirely.
        let full = WorkloadCurve::from_phases_fp(vec![(0, CURVE_FP_SCALE)]);
        assert_eq!(run(&full), 400);
        // Zero intent suppresses everything.
        let none = WorkloadCurve::from_phases_fp(vec![(0, 0)]);
        assert_eq!(run(&none), 0);
    }
}
