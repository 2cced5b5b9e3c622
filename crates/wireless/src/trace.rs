//! Throughput traces and their synthetic generator.
//!
//! §V.C of the paper collects LTE uplink throughput with TestMyNet, "every
//! 5 minutes for 40 samples", and replays it through the runtime switcher.
//! We cannot rerun those phone measurements, so [`TraceGenerator`] produces
//! a statistically similar stand-in: a stationary log-AR(1) process (bursty,
//! positive, heavy-tailed — the standard shape of measured cellular uplink
//! rates), fully determined by a seed. Real measurements can be loaded with
//! [`ThroughputTrace::from_csv`].

use crate::region::Region;
use crate::technology::WirelessTechnology;
use crate::WirelessError;
use lens_nn::units::{Mbps, Millis};
use lens_num::dist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A sequence of uplink-throughput samples at a fixed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputTrace {
    samples: Vec<Mbps>,
    interval: Millis,
}

impl ThroughputTrace {
    /// Creates a trace from samples and the sampling interval.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidTrace`] if `samples` is empty.
    pub fn new(samples: Vec<Mbps>, interval: Millis) -> Result<Self, WirelessError> {
        if samples.is_empty() {
            return Err(WirelessError::InvalidTrace("no samples".into()));
        }
        Ok(ThroughputTrace { samples, interval })
    }

    /// The samples in time order.
    pub fn samples(&self) -> &[Mbps] {
        &self.samples
    }

    /// The interval between consecutive samples.
    pub fn interval(&self) -> Millis {
        self.interval
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `false` by construction (empty traces cannot be built).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean throughput over the trace.
    pub fn mean(&self) -> Mbps {
        let raw: Vec<f64> = self.samples.iter().map(|m| m.get()).collect();
        Mbps::new(lens_num::stats::mean(&raw).expect("trace is non-empty"))
    }

    /// Minimum and maximum sample.
    pub fn min_max(&self) -> (Mbps, Mbps) {
        let raw: Vec<f64> = self.samples.iter().map(|m| m.get()).collect();
        let (lo, hi) = lens_num::stats::min_max(&raw).expect("trace is non-empty");
        (Mbps::new(lo), Mbps::new(hi))
    }

    /// Fraction of samples strictly above `threshold` — used to sanity-check
    /// that a trace actually crosses a switching threshold.
    pub fn fraction_above(&self, threshold: Mbps) -> f64 {
        let above = self.samples.iter().filter(|&&s| s > threshold).count();
        above as f64 / self.samples.len() as f64
    }

    /// Synthesizes a per-device trace around a region's expected uplink
    /// rate with a technology-dependent volatility — the fleet-scale
    /// counterpart of replaying the single measured LTE trace. The process
    /// is the Gauss–Markov model of [`GaussMarkov`]; every sample is
    /// strictly positive by construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use lens_nn::units::{Mbps, Millis};
    /// use lens_wireless::{Region, ThroughputTrace, WirelessTechnology};
    ///
    /// let usa = Region::new("USA", Mbps::new(7.5));
    /// let t = ThroughputTrace::synthesize(
    ///     &usa, WirelessTechnology::Lte, 12, Millis::new(300_000.0), 7);
    /// assert_eq!(t.len(), 12);
    /// assert!(t.samples().iter().all(|s| s.get() > 0.0));
    /// ```
    pub fn synthesize(
        region: &Region,
        technology: WirelessTechnology,
        num_samples: usize,
        interval: Millis,
        seed: u64,
    ) -> ThroughputTrace {
        GaussMarkov::for_technology(region.uplink(), technology)
            .with_samples(num_samples)
            .with_interval(interval)
            .generate(seed)
    }

    /// Serializes to a two-column CSV (`minutes,mbps`) with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("minutes,mbps\n");
        for (i, s) in self.samples.iter().enumerate() {
            let minutes = self.interval.get() * i as f64 / 60_000.0;
            out.push_str(&format!("{:.2},{:.4}\n", minutes, s.get()));
        }
        out
    }

    /// Parses the [`to_csv`](Self::to_csv) format (header optional). The
    /// interval is inferred from the first two timestamps, defaulting to
    /// 5 minutes for single-sample traces.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::ParseTrace`] for malformed rows and
    /// [`WirelessError::InvalidTrace`] when no samples are present.
    pub fn from_csv(text: &str) -> Result<Self, WirelessError> {
        let mut times = Vec::new();
        let mut samples = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (idx == 0 && line.starts_with("minutes")) {
                continue;
            }
            let mut parts = line.split(',');
            let parse = |s: Option<&str>, what: &str| -> Result<f64, WirelessError> {
                s.ok_or_else(|| WirelessError::ParseTrace {
                    line: idx + 1,
                    reason: format!("missing {what}"),
                })?
                .trim()
                .parse::<f64>()
                .map_err(|e| WirelessError::ParseTrace {
                    line: idx + 1,
                    reason: format!("bad {what}: {e}"),
                })
            };
            let minutes = parse(parts.next(), "timestamp")?;
            let mbps = parse(parts.next(), "throughput")?;
            if !mbps.is_finite() || mbps <= 0.0 {
                return Err(WirelessError::ParseTrace {
                    line: idx + 1,
                    reason: format!("throughput must be positive, got {mbps}"),
                });
            }
            times.push(minutes);
            samples.push(Mbps::new(mbps));
        }
        if samples.is_empty() {
            return Err(WirelessError::InvalidTrace("no samples in CSV".into()));
        }
        let interval = if times.len() >= 2 {
            Millis::new(((times[1] - times[0]) * 60_000.0).max(1.0))
        } else {
            Millis::new(5.0 * 60_000.0)
        };
        ThroughputTrace::new(samples, interval)
    }
}

impl fmt::Display for ThroughputTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.min_max();
        write!(
            f,
            "{} samples @ {:.1} min, mean {}, range [{}, {}]",
            self.len(),
            self.interval.get() / 60_000.0,
            self.mean(),
            lo,
            hi
        )
    }
}

/// Seeded generator of synthetic uplink-throughput traces (log-AR(1)).
///
/// # Examples
///
/// ```
/// use lens_nn::units::Mbps;
/// use lens_wireless::TraceGenerator;
///
/// // A TestMyNet-like LTE trace: 40 samples, 5-minute interval.
/// let trace = TraceGenerator::lte_like(Mbps::new(10.0)).generate(42);
/// assert_eq!(trace.len(), 40);
/// assert!(trace.mean().get() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenerator {
    median: Mbps,
    log_sigma: f64,
    ar_coefficient: f64,
    num_samples: usize,
    interval: Millis,
}

impl TraceGenerator {
    /// Creates a generator with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `log_sigma` is negative, `ar_coefficient` is outside
    /// `[0, 1)`, or `num_samples` is zero.
    pub fn new(
        median: Mbps,
        log_sigma: f64,
        ar_coefficient: f64,
        num_samples: usize,
        interval: Millis,
    ) -> Self {
        assert!(log_sigma >= 0.0, "log_sigma must be non-negative");
        assert!(
            (0.0..1.0).contains(&ar_coefficient),
            "ar_coefficient must be in [0,1)"
        );
        assert!(num_samples > 0, "num_samples must be positive");
        TraceGenerator {
            median,
            log_sigma,
            ar_coefficient,
            num_samples,
            interval,
        }
    }

    /// The paper's measurement protocol: 40 LTE samples at 5-minute
    /// intervals, moderately bursty around the given median.
    pub fn lte_like(median: Mbps) -> Self {
        TraceGenerator::new(median, 0.55, 0.45, 40, Millis::new(5.0 * 60_000.0))
    }

    /// Overrides the number of samples.
    pub fn with_samples(mut self, num_samples: usize) -> Self {
        assert!(num_samples > 0, "num_samples must be positive");
        self.num_samples = num_samples;
        self
    }

    /// Generates a trace deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> ThroughputTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mu = self.median.get().ln();
        // Stationary AR(1) in log space.
        let mut y = mu + self.log_sigma * dist::standard_normal(&mut rng);
        let innovation_scale = self.log_sigma * (1.0 - self.ar_coefficient.powi(2)).sqrt();
        let samples = (0..self.num_samples)
            .map(|_| {
                let sample = y.exp().clamp(0.05, 200.0);
                y = mu
                    + self.ar_coefficient * (y - mu)
                    + innovation_scale * dist::standard_normal(&mut rng);
                Mbps::new(sample)
            })
            .collect();
        ThroughputTrace::new(samples, self.interval).expect("generator produces >=1 sample")
    }
}

/// Seeded Gauss–Markov (linear AR(1)) throughput generator.
///
/// Where [`TraceGenerator`] reproduces the *measured* LTE trace's bursty
/// log-normal shape, `GaussMarkov` is the fleet synthesizer: it wanders
/// around a target mean rate (a [`Region`]'s expected uplink) with
/// exponentially decaying autocorrelation,
///
/// ```text
/// x_{t+1} = mean + ar·(x_t − mean) + sigma·sqrt(1 − ar²)·N(0,1)
/// ```
///
/// clamped from below at a small positive floor so rates stay valid
/// (non-negative, and safe to divide by in the `1/t_u` cost forms).
///
/// # Examples
///
/// ```
/// use lens_nn::units::Mbps;
/// use lens_wireless::{GaussMarkov, WirelessTechnology};
///
/// let g = GaussMarkov::for_technology(Mbps::new(7.5), WirelessTechnology::Lte);
/// let trace = g.generate(3);
/// assert_eq!(trace, g.generate(3)); // deterministic per seed
/// assert!(trace.samples().iter().all(|s| s.get() > 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussMarkov {
    mean: Mbps,
    sigma: f64,
    ar_coefficient: f64,
    num_samples: usize,
    interval: Millis,
}

impl GaussMarkov {
    /// Creates a generator with explicit parameters. `sigma` is the
    /// stationary standard deviation in Mbps.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative, `ar_coefficient` is outside `[0, 1)`,
    /// or `num_samples` is zero.
    pub fn new(
        mean: Mbps,
        sigma: f64,
        ar_coefficient: f64,
        num_samples: usize,
        interval: Millis,
    ) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        assert!(
            (0.0..1.0).contains(&ar_coefficient),
            "ar_coefficient must be in [0,1)"
        );
        assert!(num_samples > 0, "num_samples must be positive");
        GaussMarkov {
            mean,
            sigma,
            ar_coefficient,
            num_samples,
            interval,
        }
    }

    /// A generator tuned to a technology's typical volatility around the
    /// given mean rate: WiFi is steady, LTE moderately bursty, 3G wild.
    /// Defaults to the paper's measurement cadence (40 samples at 5-minute
    /// intervals); override with [`with_samples`](Self::with_samples) /
    /// [`with_interval`](Self::with_interval).
    pub fn for_technology(mean: Mbps, technology: WirelessTechnology) -> Self {
        let (rel_sigma, ar) = match technology {
            WirelessTechnology::Wifi => (0.15, 0.6),
            WirelessTechnology::Lte => (0.35, 0.45),
            WirelessTechnology::ThreeG => (0.55, 0.3),
        };
        GaussMarkov::new(
            mean,
            rel_sigma * mean.get(),
            ar,
            40,
            Millis::new(5.0 * 60_000.0),
        )
    }

    /// Overrides the number of samples.
    ///
    /// # Panics
    ///
    /// Panics if `num_samples` is zero.
    pub fn with_samples(mut self, num_samples: usize) -> Self {
        assert!(num_samples > 0, "num_samples must be positive");
        self.num_samples = num_samples;
        self
    }

    /// Overrides the sampling interval.
    pub fn with_interval(mut self, interval: Millis) -> Self {
        self.interval = interval;
        self
    }

    /// The positive floor rates are clamped to: 1% of the mean, but at
    /// least 0.05 Mbps (the same floor the LTE generator uses).
    pub fn floor(&self) -> Mbps {
        Mbps::new((0.01 * self.mean.get()).max(0.05))
    }

    /// Generates a trace deterministically from `seed`: the first
    /// `num_samples` samples of [`stream`](Self::stream)`(seed)`.
    pub fn generate(&self, seed: u64) -> ThroughputTrace {
        let mut stream = self.stream(seed);
        let samples = (0..self.num_samples).map(|_| stream.next_sample());
        ThroughputTrace::new(samples.collect(), self.interval).expect("num_samples is positive")
    }

    /// Streams [`generate`](Self::generate)`(seed)`'s samples one at a
    /// time, bit for bit and without end, in O(1) memory.
    pub fn stream(&self, seed: u64) -> GaussMarkovStream {
        let mut rng = StdRng::seed_from_u64(seed);
        // Start from the stationary distribution so short traces are not
        // biased toward the mean.
        let x = self.mean.get() + self.sigma * dist::standard_normal(&mut rng);
        GaussMarkovStream {
            rng,
            x,
            mean: self.mean.get(),
            floor: self.floor().get(),
            ar_coefficient: self.ar_coefficient,
            innovation_scale: self.sigma * (1.0 - self.ar_coefficient.powi(2)).sqrt(),
        }
    }
}

/// A seeded [`GaussMarkov`] process, drawn one sample at a time.
#[derive(Debug, Clone)]
pub struct GaussMarkovStream {
    rng: StdRng,
    x: f64,
    mean: f64,
    floor: f64,
    ar_coefficient: f64,
    innovation_scale: f64,
}

impl GaussMarkovStream {
    /// The next sample, clamped to the generator's floor.
    pub fn next_sample(&mut self) -> Mbps {
        let sample = self.x.max(self.floor);
        self.x = self.mean
            + self.ar_coefficient * (self.x - self.mean)
            + self.innovation_scale * dist::standard_normal(&mut self.rng);
        Mbps::new(sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lte_like_matches_paper_protocol() {
        let t = TraceGenerator::lte_like(Mbps::new(8.0)).generate(1);
        assert_eq!(t.len(), 40);
        assert_eq!(t.interval(), Millis::new(300_000.0));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = TraceGenerator::lte_like(Mbps::new(8.0));
        assert_eq!(g.generate(5), g.generate(5));
        assert_ne!(g.generate(5), g.generate(6));
    }

    #[test]
    fn median_roughly_controls_level() {
        let slow = TraceGenerator::lte_like(Mbps::new(2.0))
            .with_samples(400)
            .generate(9);
        let fast = TraceGenerator::lte_like(Mbps::new(20.0))
            .with_samples(400)
            .generate(9);
        assert!(fast.mean() > slow.mean());
    }

    #[test]
    fn csv_round_trip() {
        let t = TraceGenerator::lte_like(Mbps::new(8.0)).generate(3);
        let csv = t.to_csv();
        let parsed = ThroughputTrace::from_csv(&csv).unwrap();
        assert_eq!(parsed.len(), t.len());
        assert_eq!(parsed.interval(), t.interval());
        for (a, b) in parsed.samples().iter().zip(t.samples()) {
            assert!((a.get() - b.get()).abs() < 1e-3);
        }
    }

    #[test]
    fn csv_parse_errors_carry_line_numbers() {
        let err = ThroughputTrace::from_csv("minutes,mbps\n0.0,not-a-number\n").unwrap_err();
        assert!(matches!(err, WirelessError::ParseTrace { line: 2, .. }));
        let err = ThroughputTrace::from_csv("minutes,mbps\n0.0,-3.0\n").unwrap_err();
        assert!(matches!(err, WirelessError::ParseTrace { line: 2, .. }));
        let err = ThroughputTrace::from_csv("minutes,mbps\n").unwrap_err();
        assert!(matches!(err, WirelessError::InvalidTrace(_)));
    }

    #[test]
    fn fraction_above_is_consistent() {
        let t = ThroughputTrace::new(
            vec![
                Mbps::new(1.0),
                Mbps::new(5.0),
                Mbps::new(10.0),
                Mbps::new(20.0),
            ],
            Millis::new(1000.0),
        )
        .unwrap();
        assert_eq!(t.fraction_above(Mbps::new(7.0)), 0.5);
        assert_eq!(t.fraction_above(Mbps::new(0.5)), 1.0);
        assert_eq!(t.fraction_above(Mbps::new(50.0)), 0.0);
    }

    #[test]
    fn empty_trace_rejected() {
        assert!(matches!(
            ThroughputTrace::new(vec![], Millis::new(1.0)),
            Err(WirelessError::InvalidTrace(_))
        ));
    }

    #[test]
    fn display_summarizes() {
        let t = TraceGenerator::lte_like(Mbps::new(8.0)).generate(3);
        let s = format!("{t}");
        assert!(s.contains("40 samples"));
    }

    #[test]
    fn gauss_markov_is_deterministic_per_seed() {
        let g = GaussMarkov::for_technology(Mbps::new(7.5), WirelessTechnology::Lte);
        assert_eq!(g.generate(11), g.generate(11));
        assert_ne!(g.generate(11), g.generate(12));
    }

    #[test]
    fn gauss_markov_tracks_mean() {
        let g = GaussMarkov::for_technology(Mbps::new(16.1), WirelessTechnology::Wifi)
            .with_samples(2000);
        let t = g.generate(1);
        let m = t.mean().get();
        assert!((m - 16.1).abs() < 1.5, "mean {m} drifted from 16.1");
    }

    #[test]
    fn technology_controls_volatility() {
        let mean = Mbps::new(10.0);
        let std_of = |tech| {
            let t = GaussMarkov::for_technology(mean, tech)
                .with_samples(2000)
                .generate(4);
            let raw: Vec<f64> = t.samples().iter().map(|s| s.get()).collect();
            lens_num::stats::std_dev(&raw).unwrap()
        };
        assert!(std_of(WirelessTechnology::Wifi) < std_of(WirelessTechnology::Lte));
        assert!(std_of(WirelessTechnology::Lte) < std_of(WirelessTechnology::ThreeG));
    }

    #[test]
    fn synthesize_honours_shape_and_floor() {
        let afghanistan = Region::new("Afghanistan", Mbps::new(0.7));
        let t = ThroughputTrace::synthesize(
            &afghanistan,
            WirelessTechnology::ThreeG,
            24,
            Millis::new(60_000.0),
            5,
        );
        assert_eq!(t.len(), 24);
        assert_eq!(t.interval(), Millis::new(60_000.0));
        // 3G at 0.7 Mbps mean is wildly volatile; the floor must hold.
        for s in t.samples() {
            assert!(s.get() >= 0.05, "sample {s} below floor");
        }
    }

    #[test]
    fn synthesize_matches_recorded_samples() {
        use WirelessTechnology::{Lte, ThreeG, Wifi};
        // `f64::to_bits` of the first and last of 144 samples, recorded
        // before `generate` was rewritten over `stream`: the rewrite must
        // not move a single bit of the fleet's throughput inputs.
        let usa = Region::new("USA", Mbps::new(7.5));
        let golden = [
            (Wifi, 1, 0x401df275d4ba4886, 0x401f5022a9de48c9),
            (Wifi, 42, 0x401cca9076a52176, 0x401f1c76a542ce46),
            (Wifi, 0xDEAD_BEEF, 0x4021ad809ed9201b, 0x401bafc37bc67152),
            (Lte, 1, 0x401de06845b2a93a, 0x4020b4f9e26d1fd6),
            (Lte, 42, 0x401b2dfbbf814e13, 0x4020b2c5edb5e759),
            (Lte, 0xDEAD_BEEF, 0x40253f8172a54ae9, 0x401debfa17a4d034),
            (ThreeG, 1, 0x401dce5ab6ab09ed, 0x4020b1b07f4567ea),
            (ThreeG, 42, 0x40199167085d7ab0, 0x4022f981fda06372),
            (ThreeG, 0xDEAD_BEEF, 0x4028d182467175b8, 0x40221f9679db321a),
        ];
        for (tech, seed, first, last) in golden {
            let t = ThroughputTrace::synthesize(&usa, tech, 144, Millis::new(600_000.0), seed);
            let bits = |i: usize| t.samples()[i].get().to_bits();
            assert_eq!((bits(0), bits(143)), (first, last), "{tech:?} seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn gauss_markov_rejects_negative_sigma() {
        GaussMarkov::new(Mbps::new(5.0), -1.0, 0.5, 10, Millis::new(1000.0));
    }

    proptest! {
        /// Every generated sample is positive and bounded; traces of any
        /// seed/median combination stay valid.
        #[test]
        fn prop_generated_traces_valid(seed in 0u64..1000, median in 0.5f64..50.0) {
            let t = TraceGenerator::lte_like(Mbps::new(median)).generate(seed);
            for s in t.samples() {
                prop_assert!(s.get() >= 0.05 && s.get() <= 200.0);
            }
        }

        /// Gauss–Markov rates are always at or above the positive floor,
        /// whatever the mean, technology, or seed.
        #[test]
        fn prop_gauss_markov_non_negative(
            seed in 0u64..500,
            mean in 0.1f64..60.0,
            tech_idx in 0usize..3,
        ) {
            let tech = WirelessTechnology::all()[tech_idx];
            let g = GaussMarkov::for_technology(Mbps::new(mean), tech).with_samples(60);
            let floor = g.floor();
            let t = g.generate(seed);
            for s in t.samples() {
                prop_assert!(*s >= floor, "sample {s} below floor {floor}");
            }
        }

        /// A stream yields its seed's generated trace bit for bit.
        #[test]
        fn prop_stream_matches_generate(
            seed in 0u64..u64::MAX,
            mean in 0.1f64..60.0,
            tech_idx in 0usize..3,
            len in 1usize..200,
        ) {
            let tech = WirelessTechnology::all()[tech_idx];
            let g = GaussMarkov::for_technology(Mbps::new(mean), tech).with_samples(len);
            let mut stream = g.stream(seed);
            for s in g.generate(seed).samples() {
                prop_assert_eq!(stream.next_sample().get().to_bits(), s.get().to_bits());
            }
        }
    }
}
