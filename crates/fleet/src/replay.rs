//! Parallel barrier replay.
//!
//! Between the shard-step drain and the signal publish, every region's
//! serving tier is **independent**: a [`RegionServing`]/[`RegionMicrosim`]
//! touches only its own queues, its own backends, and the requests
//! addressed to it. The engine therefore owns one *replay worker* per
//! region — a [`RegionReplay`], fluid or per-request — and, at each epoch
//! barrier, runs all workers — drain → scale → publish, region-major —
//! either sequentially or fanned out over a scoped thread pool
//! ([`run_barrier`]).
//!
//! Determinism holds by construction, not by luck:
//!
//! * Each worker reads only shared **immutable** shard outputs (offload
//!   counts / request runs) and mutates only region-local state, so the
//!   interleaving of workers cannot influence any result.
//! * Each region's requests are assembled by a k-way merge of per-shard
//!   runs that are already sorted by the shard-count-invariant
//!   `(arrival_us, device_id, stage)` key ([`merge_requests`]),
//!   reproducing the exact total order a global sort would produce.
//!   Staged pipelines keep the discipline: chained stage arrivals are
//!   spawned at the barrier from completions whose order is itself
//!   shard-invariant, and joined to the next epoch's merge with a
//!   stable sort on the same key.
//! * Telemetry is buffered per region inside [`RegionBarrierOutput`] and
//!   flushed by the engine in fixed region order, phase-major, so the
//!   event stream and phase counters are bit-identical to a sequential
//!   sweep — and independent of both the shard count and the replay mode
//!   (`tests/cross_crate_props.rs` pins Sequential vs. Parallel).

use crate::cloud::{
    BackendStats, CloudServing, CompletedRequest, OffloadRequest, RegionMicrosim, RegionServing,
    RegionSignal,
};
use crate::engine::ShardEpochOutput;
use crate::pipeline::PipelinePricing;
use crate::report::{FleetReport, Histogram};
use crate::scenario::ReplayMode;
use lens_telemetry::{PhaseCounters, PhaseProbe, TraceEvent};

/// Resolves a scenario's [`ReplayMode`] against the machine: `Auto`
/// parallelizes only when there is more than one region to replay *and*
/// more than one hardware thread to replay it on. The result never
/// affects simulation output — only which threads compute it.
pub(crate) fn replay_in_parallel(mode: ReplayMode, num_regions: usize) -> bool {
    match mode {
        ReplayMode::Sequential => false,
        ReplayMode::Parallel => num_regions > 1,
        ReplayMode::Auto => {
            num_regions > 1 && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
        }
    }
}

/// What one region's replay worker hands back from an epoch barrier: the
/// signal to publish and the region's buffered telemetry, split by phase
/// so the engine can flush all regions' drains before any scale.
pub(crate) struct RegionBarrierOutput {
    pub(crate) signal: RegionSignal,
    pub(crate) drain: (Vec<TraceEvent>, PhaseCounters),
    pub(crate) scale: (Vec<TraceEvent>, PhaseCounters),
}

/// Runs one barrier across all region workers in fixed region order —
/// on the caller's thread, or one scoped thread per region when
/// `parallel`. Outputs come back indexed by region either way; the two
/// paths are bit-identical because workers share nothing mutable.
pub(crate) fn run_barrier<W, F>(workers: &mut [W], parallel: bool, f: F) -> Vec<RegionBarrierOutput>
where
    W: Send,
    F: Fn(usize, &mut W) -> RegionBarrierOutput + Sync,
{
    if parallel && workers.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(region, worker)| {
                    let f = &f;
                    scope.spawn(move || f(region, worker))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("region replay worker panicked"))
                .collect()
        })
    } else {
        workers
            .iter_mut()
            .enumerate()
            .map(|(region, worker)| f(region, worker))
            .collect()
    }
}

/// One region's serving tier as the engine's barrier loop drives it. The
/// two fidelities differ only in how a barrier replays the epoch; the
/// loop around them is shared.
pub(crate) trait RegionReplay: Send + Sized {
    /// Whether the tier resolves individual requests. Such a tier books
    /// each offload's latency at completion (the shard books the rest at
    /// serve time), so the loop also samples its running p99, drains it
    /// past the horizon ([`flush`]), and merges its report partial and
    /// sojourn histogram ([`finish`]).
    ///
    /// [`flush`]: RegionReplay::flush
    /// [`finish`]: RegionReplay::finish
    const RESOLVES_REQUESTS: bool;

    /// A fresh worker. `empty_report` seeds the report partial and
    /// `pricing` the stage chaining of tiers that resolve requests.
    fn new(
        serving: &CloudServing,
        empty_report: &FleetReport,
        num_epochs: usize,
        pricing: Option<&PipelinePricing>,
    ) -> Self;

    /// One epoch barrier for this region: drain, scale, publish —
    /// buffering per-phase telemetry instead of writing to a shared sink.
    /// `last` marks the horizon's final barrier.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
        last: bool,
        traced: bool,
    ) -> RegionBarrierOutput;

    /// Current backlog (jobs).
    fn depth(&self) -> f64;

    /// Live slot count per backend.
    fn live_slots(&self) -> Vec<u64>;

    /// Cumulative per-backend serving stats.
    fn backend_stats(&self) -> Vec<BackendStats>;

    /// The backlog sampled at each barrier, handed over at the end.
    fn take_depth_series(&mut self) -> Vec<f64>;

    /// The running p99 cloud sojourn (ms); tiers that resolve requests
    /// only.
    fn p99_ms(&self) -> f64 {
        unreachable!("only tiers that resolve requests track sojourns")
    }

    /// Post-horizon drain; tiers that resolve requests only.
    fn flush(&mut self, _region: usize, _probe: &mut PhaseProbe) {
        unreachable!("only tiers that resolve requests defer work past the horizon")
    }

    /// The report partial and region sojourn histogram; tiers that resolve
    /// requests only.
    fn finish(self) -> (FleetReport, Histogram) {
        unreachable!("only tiers that resolve requests keep a report partial")
    }
}

/// The fluid tier's per-region replay worker.
pub(crate) struct FluidRegionReplay {
    serving: RegionServing,
    depth_series: Vec<f64>,
}

impl RegionReplay for FluidRegionReplay {
    const RESOLVES_REQUESTS: bool = false;

    fn new(
        serving: &CloudServing,
        _empty_report: &FleetReport,
        num_epochs: usize,
        _pricing: Option<&PipelinePricing>,
    ) -> Self {
        FluidRegionReplay {
            serving: RegionServing::new(serving),
            depth_series: Vec::with_capacity(num_epochs),
        }
    }

    /// Admits the merged offload counts (integer sums, so the result is
    /// independent of the shard count), runs the batch-close drain over
    /// the epoch's length, scales, publishes.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
        _last: bool,
        traced: bool,
    ) -> RegionBarrierOutput {
        let (high, low) = shards
            .iter()
            .map(|shard| shard.arrivals[region])
            .fold((0, 0), |(h, l), (sh, sl)| (h + sh, l + sl));
        self.serving.admit(high, low);
        self.depth_series.push(self.serving.depth());
        let epoch_ms = (epoch_end - epoch_start) as f64 / 1000.0;
        let mut probe = region_probe(traced);
        self.serving
            .drain(epoch_ms, epoch_end, region as u64, &mut probe);
        let drain = probe.take();
        self.serving
            .scale(epoch_ms, epoch_end, region as u64, &mut probe);
        let scale = probe.take();
        RegionBarrierOutput {
            signal: self.serving.publish(),
            drain,
            scale,
        }
    }

    fn depth(&self) -> f64 {
        self.serving.depth()
    }

    fn live_slots(&self) -> Vec<u64> {
        self.serving.live_slots()
    }

    fn backend_stats(&self) -> Vec<BackendStats> {
        self.serving.backend_stats()
    }

    fn take_depth_series(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.depth_series)
    }
}

/// The per-request tier's replay worker: the region's microsim plus the
/// region-local accumulators the barrier feeds — the report partial of
/// completed latencies and stage ledgers (fixed-point sums, so merging
/// the partials at the end is exact and order-independent) and pooled
/// merge/chaining buffers reused across epochs. The region-level sojourn
/// histogram lives inside the microsim, folded incrementally from the
/// per-backend epoch windows at each barrier.
pub(crate) struct PerRequestRegionReplay {
    sim: RegionMicrosim,
    report: FleetReport,
    depth_series: Vec<f64>,
    merged: Vec<OffloadRequest>,
    /// Non-final stage completions of the last replay, in completion
    /// order, waiting to spawn their next stage.
    chained: Vec<CompletedRequest>,
    /// Staged-pipeline transfer prices; `None` for monolithic scenarios,
    /// which keeps every pipeline branch below off the hot path.
    pricing: Option<PipelinePricing>,
    /// Chained stage arrivals spawned at a barrier but not yet served:
    /// a stage-`k` completion at `t` chains into a stage-`k+1` arrival
    /// at `t + transfer`, **replayed one epoch later at the same epoch
    /// offset** — the same one-epoch lag every contention signal
    /// already carries. Shifting (instead of clamping to the barrier)
    /// keeps the admitted stamps monotone with the previous epoch's
    /// queue leftovers and preserves the arrival spread the batchers
    /// see. Latency accounting is lag-free either way: the device is
    /// charged the stage's actual sojourn plus the transfer, never the
    /// replay shift.
    pending: Vec<OffloadRequest>,
}

impl RegionReplay for PerRequestRegionReplay {
    const RESOLVES_REQUESTS: bool = true;

    fn new(
        serving: &CloudServing,
        empty_report: &FleetReport,
        num_epochs: usize,
        pricing: Option<&PipelinePricing>,
    ) -> Self {
        PerRequestRegionReplay {
            sim: RegionMicrosim::new(serving),
            report: empty_report.clone(),
            depth_series: Vec::with_capacity(num_epochs),
            merged: Vec::new(),
            chained: Vec::new(),
            pricing: pricing.cloned(),
            pending: Vec::new(),
        }
    }

    /// K-way merges the shards' request runs (joining any chained stage
    /// arrivals that came due), replays them through the microsim,
    /// books the completions — spawning next-stage arrivals for staged
    /// pipelines — scales, publishes the (hysteresis-held) tail signal.
    ///
    /// Chains spawned at the `last` barrier have no later barrier to
    /// shift into, so their stamps clamp to the horizon end instead —
    /// right where the post-horizon flush picks them up, keeping the
    /// flush waves' timeline monotone.
    fn barrier(
        &mut self,
        region: usize,
        shards: &[&ShardEpochOutput],
        epoch_start: u64,
        epoch_end: u64,
        last: bool,
        traced: bool,
    ) -> RegionBarrierOutput {
        merge_requests(shards, region, &mut self.merged);
        let mut probe = region_probe(traced);
        // Pull due chained stages into this epoch's batch. The stable
        // sort keeps completion order for the (rare) ties where two
        // same-device requests finish in the same batch and chain to
        // identical next-stage arrivals — completion order is
        // shard-invariant, so the batch order stays shard-invariant too.
        let shard_requests = self.merged.len();
        self.pending.retain(|&request| {
            let due = request.arrival_us < epoch_end;
            if due {
                self.merged.push(request);
            }
            !due
        });
        if self.merged.len() > shard_requests {
            self.merged
                .sort_by_key(|r| (r.arrival_us, r.device_id, r.stage));
        }
        probe.on_merged(self.merged.len() as u64);
        self.replay(Some(epoch_end), region, &mut probe);
        let (shift_us, floor_us) = if last {
            (0, epoch_end)
        } else {
            (epoch_end - epoch_start, 0)
        };
        self.spawn_chained(region, shift_us, floor_us, &mut probe);
        self.depth_series.push(self.sim.depth());
        let drain = probe.take();
        self.sim.scale(
            epoch_end,
            epoch_end - epoch_start,
            region as u64,
            &mut probe,
        );
        let scale = probe.take();
        RegionBarrierOutput {
            signal: self.sim.barrier_signal(epoch_end),
            drain,
            scale,
        }
    }

    fn depth(&self) -> f64 {
        self.sim.depth()
    }

    fn live_slots(&self) -> Vec<u64> {
        self.sim.live_slots()
    }

    fn backend_stats(&self) -> Vec<BackendStats> {
        self.sim.backend_stats()
    }

    fn take_depth_series(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.depth_series)
    }

    fn p99_ms(&self) -> f64 {
        self.sim.region_sojourn().percentile(99.0)
    }

    /// Post-horizon drain: the cloud keeps serving until every admitted
    /// request completes. Runs sequentially on the engine thread (it is
    /// one final sweep, not per-epoch work). Staged pipelines drain in
    /// **waves**: each flush can spawn next-stage arrivals, which are
    /// replayed as a fresh batch and flushed again until no stage is
    /// left in flight — at most `depth - 1` extra waves, since stage
    /// numbers only climb.
    fn flush(&mut self, region: usize, probe: &mut PhaseProbe) {
        loop {
            self.replay(None, region, probe);
            self.spawn_chained(region, 0, 0, probe);
            if self.pending.is_empty() {
                return;
            }
            self.merged.clear();
            self.merged.append(&mut self.pending);
            self.merged
                .sort_by_key(|r| (r.arrival_us, r.device_id, r.stage));
            let wave_end = self.merged.last().map_or(0, |r| r.arrival_us) + 1;
            // The flush above popped every pending event, but executors
            // may still be occupied into the future — re-arm their
            // slot-free wakeups or wave arrivals queued behind them
            // would never re-dispatch.
            self.sim.rearm_slot_events(probe);
            self.replay(Some(wave_end), region, probe);
            self.spawn_chained(region, 0, 0, probe);
        }
    }

    fn finish(mut self) -> (FleetReport, Histogram) {
        let sojourn = self.sim.take_region_sojourn();
        (self.report, sojourn)
    }
}

impl PerRequestRegionReplay {
    /// Replays `merged` through the microsim up to `end_us` — or, given
    /// `None`, drains it past the horizon — booking every completion as
    /// it lands.
    fn replay(&mut self, end_us: Option<u64>, region: usize, probe: &mut PhaseProbe) {
        let depth = self.pricing.as_ref().map_or(1, |p| p.depth);
        let book = &mut |c| book_completion(&mut self.report, depth, &mut self.chained, c);
        match end_us {
            Some(end_us) => self
                .sim
                .run_epoch(&self.merged, end_us, book, region as u64, probe),
            None => self.sim.flush(book, region as u64, probe),
        }
    }

    /// Spawns each chained completion's next stage at
    /// `max(completion + transfer + shift_us, floor_us)`, the hop priced
    /// on the **origin** region's uplink. The shift is one epoch length
    /// at a barrier, the floor is the horizon end at the final barrier,
    /// and both are zero in the flush. Runs after the replay, so stage
    /// transitions trace after the epoch's batch closes, in completion
    /// order.
    fn spawn_chained(
        &mut self,
        region: usize,
        shift_us: u64,
        floor_us: u64,
        probe: &mut PhaseProbe,
    ) {
        let Some(pricing) = &self.pricing else {
            return;
        };
        for c in self.chained.drain(..) {
            let boundary = (c.request.stage - 1) as usize;
            let transfer_us = pricing.hop_us(c.request.origin_region as usize, boundary);
            let mut next = c.request;
            next.stage += 1;
            // Charge the device what the hop actually cost — this
            // stage's sojourn plus the transfer, never the replay
            // shift. The increments accumulate, so the terminal
            // record's `base_latency_ms + sojourn_ms` is the exact
            // end-to-end latency.
            next.base_latency_ms += c.sojourn_ms + transfer_us as f64 / 1000.0;
            next.arrival_us = c
                .completion_us
                .saturating_add(transfer_us)
                .saturating_add(shift_us)
                .max(floor_us);
            self.report.record_transfer_ms(transfer_us as f64 / 1000.0);
            probe.emit(TraceEvent::StageTransition {
                time_us: c.completion_us,
                device_id: c.request.device_id,
                region: region as u64,
                from_stage: u64::from(c.request.stage),
                to_stage: u64::from(next.stage),
                transfer_us,
            });
            self.pending.push(next);
        }
    }
}

/// Books one completion of a `depth`-stage pipeline (1 when monolithic).
/// A staged completion feeds the per-stage ledger, and a non-final stage
/// is kept in `chained` to spawn its next stage. A terminal completion
/// books its end-to-end latency against its origin region: for staged
/// pipelines `base_latency_ms` has already absorbed every earlier
/// stage's sojourn and transfer, so one formula is exact in both cases.
fn book_completion(
    report: &mut FleetReport,
    depth: u32,
    chained: &mut Vec<CompletedRequest>,
    c: CompletedRequest,
) {
    let request = &c.request;
    if depth > 1 {
        report.record_stage_completion(request.stage, Some(c.sojourn_ms));
        if request.stage < depth {
            chained.push(c);
            return;
        }
    }
    report.record_latency(
        request.origin_region as usize,
        request.base_latency_ms + c.sojourn_ms,
    );
}

/// A barrier-thread probe: recording iff tracing.
pub(crate) fn region_probe(traced: bool) -> PhaseProbe {
    if traced {
        PhaseProbe::enabled()
    } else {
        PhaseProbe::disabled()
    }
}

/// Assembles one region's epoch requests by k-way merging the per-shard
/// runs. Each run is already sorted by `(arrival_us, device_id, stage)`
/// — shard events pop in `(time, local)` order, a shard's device ids
/// are a contiguous ascending range, and shards only ever emit stage 1
/// — and the key is unique fleet-wide, so the merge reproduces exactly
/// the total order the old global `sort_unstable_by_key` produced, in
/// O(total · shards) with no comparison sort. `out` keeps its capacity
/// across epochs; only the small list of non-empty runs is allocated per
/// call.
pub(crate) fn merge_requests(
    shards: &[&ShardEpochOutput],
    region: usize,
    out: &mut Vec<OffloadRequest>,
) {
    out.clear();
    let mut runs: Vec<&[OffloadRequest]> = shards
        .iter()
        .map(|shard| shard.requests[region].as_slice())
        .filter(|run| !run.is_empty())
        .collect();
    debug_assert!(runs.iter().all(|run| run.windows(2).all(|w| {
        (w[0].arrival_us, w[0].device_id, w[0].stage)
            < (w[1].arrival_us, w[1].device_id, w[1].stage)
    })));
    if runs.len() == 1 {
        out.extend_from_slice(runs[0]);
        return;
    }
    out.reserve(runs.iter().map(|run| run.len()).sum());
    while let Some(first) = runs.first() {
        let mut best = 0;
        let mut best_key = (first[0].arrival_us, first[0].device_id, first[0].stage);
        for (i, run) in runs.iter().enumerate().skip(1) {
            let key = (run[0].arrival_us, run[0].device_id, run[0].stage);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        out.push(runs[best][0]);
        runs[best] = &runs[best][1..];
        if runs[best].is_empty() {
            runs.swap_remove(best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::BackendConfig;

    /// Epoch length (µs): one minute.
    const EPOCH_US: u64 = 60_000_000;
    /// The one stage-1 → stage-2 hop (µs).
    const HOP_US: u64 = 5_000;

    /// A 2-stage worker for one region with a single 10 ms slot.
    fn staged_worker(backend: BackendConfig) -> PerRequestRegionReplay {
        let regions = vec!["A".to_string()];
        let empty = FleetReport::empty(10.0, 5.0, 100, &regions);
        let pricing = PipelinePricing {
            depth: 2,
            transfer_us: vec![vec![HOP_US]],
            total_ms: vec![HOP_US as f64 / 1000.0],
        };
        PerRequestRegionReplay::new(&CloudServing::new(vec![backend]), &empty, 4, Some(&pricing))
    }

    /// Unbatched: an idle slot serves each request alone, on arrival.
    fn unbatched() -> BackendConfig {
        BackendConfig::new("gpu", 1, 10.0, 0.0)
    }

    fn request(arrival_us: u64, device_id: u64) -> OffloadRequest {
        OffloadRequest {
            arrival_us,
            device_id,
            stage: 1,
            high_priority: false,
            origin_region: 0,
            base_latency_ms: 3.0,
        }
    }

    fn shard(requests: Vec<OffloadRequest>) -> ShardEpochOutput {
        ShardEpochOutput {
            arrivals: vec![(0, 0)],
            requests: vec![requests],
            events: Vec::new(),
            counters: PhaseCounters::default(),
        }
    }

    /// Runs the barrier of epoch `[start, end)` over one shard's requests.
    fn barrier(
        worker: &mut PerRequestRegionReplay,
        requests: Vec<OffloadRequest>,
        start: u64,
        end: u64,
        last: bool,
    ) {
        worker.barrier(0, &[&shard(requests)], start, end, last, false);
    }

    fn pending_stamps(worker: &PerRequestRegionReplay) -> Vec<(u64, u32)> {
        worker
            .pending
            .iter()
            .map(|r| (r.arrival_us, r.stage))
            .collect()
    }

    #[test]
    fn terminal_latency_is_base_plus_both_sojourns_plus_the_hop() {
        let mut worker = staged_worker(unbatched());
        barrier(&mut worker, vec![request(1_000_000, 7)], 0, EPOCH_US, false);
        worker.flush(0, &mut PhaseProbe::disabled());
        let (report, sojourn) = worker.finish();
        // base 3 + sojourn₁ 10 + transfer 5 + sojourn₂ 10, booked once.
        assert_eq!(report.latency().count(), 1);
        assert_eq!(report.latency().sum(), 28.0);
        assert_eq!(report.regions()[0].latency_sum_ms(), 28.0);
        assert_eq!(report.stage_completions(), &[1, 1]);
        assert_eq!(report.transfer_ms(), 5.0);
        assert_eq!(sojourn.count(), 2);
        // The shard books the rest of the inference at serve time.
        assert_eq!(report.regions()[0].inferences, 0);
        assert_eq!(report.energy().count(), 0);
    }

    #[test]
    fn mid_run_barrier_shifts_the_next_stage_by_one_epoch() {
        let mut worker = staged_worker(unbatched());
        let arrival = EPOCH_US + 1_000_000;
        barrier(
            &mut worker,
            vec![request(arrival, 7)],
            EPOCH_US,
            2 * EPOCH_US,
            false,
        );
        let completion = arrival + 10_000;
        assert_eq!(
            pending_stamps(&worker),
            [(completion + HOP_US + EPOCH_US, 2)]
        );
        assert_eq!(worker.pending[0].base_latency_ms, 3.0 + 10.0 + 5.0);
    }

    #[test]
    fn last_barrier_floors_the_next_stage_at_the_horizon_end() {
        let mut worker = staged_worker(unbatched());
        let (start, end) = (EPOCH_US, 2 * EPOCH_US);
        let early = request(start + 1_000_000, 7);
        // Completes past the horizon end, so the floor does not bind.
        let late = request(end - 1_000, 8);
        barrier(&mut worker, vec![early, late], start, end, true);
        let late_completion = end - 1_000 + 10_000;
        assert_eq!(
            pending_stamps(&worker),
            [(end, 2), (late_completion + HOP_US, 2)]
        );
    }

    #[test]
    fn flush_chains_without_shift_or_floor() {
        // A lingering batcher holds a lone request past the horizon end,
        // so its stage 1 completes inside the flush.
        let mut worker = staged_worker(unbatched().with_batching(2, 20.0));
        let arrival = EPOCH_US - 1_000;
        barrier(&mut worker, vec![request(arrival, 7)], 0, EPOCH_US, true);
        assert!(worker.pending.is_empty());
        worker.flush(0, &mut PhaseProbe::disabled());
        // Linger 20 ms + service 10 ms, then the hop; the last wave's
        // batch still holds the stage-2 arrival.
        let completion = arrival + 20_000 + 10_000;
        let wave: Vec<_> = worker
            .merged
            .iter()
            .map(|r| (r.arrival_us, r.stage))
            .collect();
        assert_eq!(wave, [(completion + HOP_US, 2)]);
        assert!(worker.pending.is_empty() && worker.chained.is_empty());
    }
}
