//! Metrics collection and analysis for the PARD reproduction.
//!
//! The evaluation in the paper is expressed in three headline metrics
//! (§5.1):
//!
//! * **Goodput** — requests completed *within* their latency SLO per unit
//!   time.
//! * **Drop rate** — dropped requests (plus requests that completed but
//!   violated the SLO) over all requests.
//! * **Invalid rate** — GPU time consumed by dropped/late requests over
//!   total GPU time.
//!
//! This crate owns the request lifecycle record ([`RequestRecord`]) that
//! the cluster simulator emits, the aggregations
//! over a whole run ([`RequestLog`]), windowed time-series analysis
//! ([`series`]), basic statistics ([`stats`]), empirical distributions
//! ([`dist`]), plain-text table rendering for the benchmark harness
//! ([`table`]), and the lock-free live serving counters with snapshot /
//! Prometheus-text export that the gateway's `/metrics` endpoint reads
//! ([`counters`]).

pub mod counters;
pub mod dist;
pub mod record;
pub mod series;
pub mod stats;
pub mod table;

pub use counters::{
    Counter, CountersSnapshot, ModuleDropCounters, ModuleDropsSnapshot, ServingCounters,
};
pub use dist::{Cdf, Histogram, Reservoir};
pub use record::{DropReason, Outcome, RequestLog, RequestRecord, ServedTotals, StageRecord};
pub use series::{EventKind, WindowSeries};
pub use stats::Summary;
pub use table::Table;
