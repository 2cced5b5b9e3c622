//! Wireless communication substrate for the LENS reproduction.
//!
//! Implements the paper's §III.A cost model:
//!
//! * `L_comm = L_Tx + L_RT` (Eq. 3) — transmission plus round-trip latency,
//! * `E_comm = E_Tx` (Eq. 4) — only transmission energy is charged to the
//!   edge device,
//! * `L_Tx = Size(data)/t_u` (Eq. 5),
//! * `E_Tx = P_Tx · L_Tx` (Eq. 6),
//!
//! with the uplink power model `P_Tx = α_u·t_u + β` taken from Huang et al.,
//! ["A close examination of performance and power characteristics of 4G LTE
//! networks"](https://doi.org/10.1145/2307636.2307658) (MobiSys 2012), the
//! reference the paper cites for `P_Tx`.
//!
//! It also provides the design-time context LENS needs: per-region expected
//! uplink throughputs (Opensignal 2020, the paper's Table I source) and a
//! seeded throughput-trace generator standing in for the paper's TestMyNet
//! LTE measurements (§V.C) — see DESIGN.md substitution #3.
//!
//! For staged split-inference pipelines the crate adds a second pricing
//! surface: [`TransferModel`], a **fixed-point** (integer-microsecond)
//! transfer-cost model used by the fleet simulator to shift event arrival
//! times between pipeline stages without breaking its bit-identity
//! contract. The float link model answers "what does this uplink cost in
//! expectation?"; the transfer model answers "exactly how many microseconds
//! does this activation tensor take?" — see docs/PIPELINES.md.
//!
//! # Examples
//!
//! Price a feature-map transmission on an LTE link (Eq. 3–6), then
//! synthesize a deterministic per-device throughput trace around a
//! region's expected uplink:
//!
//! ```
//! use lens_nn::units::{Mbps, Millis};
//! use lens_nn::Bytes;
//! use lens_wireless::{Region, ThroughputTrace, WirelessLink, WirelessTechnology};
//!
//! let link = WirelessLink::new(WirelessTechnology::Lte, Mbps::new(7.5));
//! let latency = link.comm_latency(Bytes::new(150_528)); // AlexNet input
//! let energy = link.comm_energy(Bytes::new(150_528));
//! assert!(latency.get() > 0.0 && energy.get() > 0.0);
//!
//! // Gauss–Markov trace, 60 samples at 60 s — same seed, same trace.
//! let usa = Region::new("USA", Mbps::new(7.5));
//! let trace =
//!     ThroughputTrace::synthesize(&usa, WirelessTechnology::Lte, 60, Millis::new(60_000.0), 42);
//! let again =
//!     ThroughputTrace::synthesize(&usa, WirelessTechnology::Lte, 60, Millis::new(60_000.0), 42);
//! assert_eq!(trace.samples(), again.samples());
//! ```
//!
//! Price an inter-stage activation transfer in exact integer microseconds —
//! link quality moves the cost, and therefore the optimal split point:
//!
//! ```
//! use lens_nn::units::Mbps;
//! use lens_wireless::TransferModel;
//!
//! let poor = TransferModel::new(Mbps::new(0.7)); // Afghanistan, Table I
//! let good = TransferModel::new(Mbps::new(16.1)); // S. Korea, Table I
//! let activation = 86_528; // bytes at a mid-network cut
//! assert!(poor.cost_us(activation) > good.cost_us(activation));
//! assert_eq!(poor.cost_us(activation), poor.cost_us(activation)); // fixed-point
//! ```

#![forbid(unsafe_code)]

pub mod link;
pub mod region;
pub mod technology;
pub mod trace;
pub mod transfer;

pub use link::WirelessLink;
pub use region::Region;
pub use technology::{UplinkPowerModel, WirelessTechnology};
pub use trace::{GaussMarkov, GaussMarkovStream, ThroughputTrace, TraceGenerator};
pub use transfer::TransferModel;

use std::error::Error;
use std::fmt;

/// Errors produced by the wireless substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WirelessError {
    /// A throughput trace was empty or otherwise malformed.
    InvalidTrace(String),
    /// Failed to parse a trace from CSV text.
    ParseTrace {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for WirelessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WirelessError::InvalidTrace(why) => write!(f, "invalid trace: {why}"),
            WirelessError::ParseTrace { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl Error for WirelessError {}
