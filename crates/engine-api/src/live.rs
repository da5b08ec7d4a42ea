//! [`EngineHandle`] over the live threaded runtime.

use std::sync::mpsc::Sender;
use std::sync::Arc;

use pard_metrics::ServedTotals;
use pard_obs::FlightRecorder;
use pard_pipeline::PipelineSpec;
use pard_runtime::{Completion, EdgeState, LiveCluster, SubmitOptions};
use pard_sim::{SimDuration, SimTime};

use crate::handle::{EngineHandle, RequestId, SubmitSpec};

/// The live threaded engine behind the unified API. A thin adapter:
/// [`LiveCluster`] already runs on real threads and wall-clock virtual
/// time, so every method delegates.
pub struct LiveEngine {
    cluster: LiveCluster,
}

impl LiveEngine {
    /// Wraps a running cluster.
    pub fn new(cluster: LiveCluster) -> LiveEngine {
        LiveEngine { cluster }
    }

    /// The wrapped cluster, for callers needing runtime-specific
    /// surface (e.g. [`LiveCluster::run_open_loop`]).
    pub fn cluster(&self) -> &LiveCluster {
        &self.cluster
    }
}

impl EngineHandle for LiveEngine {
    fn spec(&self) -> &PipelineSpec {
        self.cluster.spec()
    }

    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn submit(&self, spec: SubmitSpec) -> RequestId {
        let mut options = SubmitOptions::default().with_tag(spec.tag);
        options.slo = spec.slo;
        self.cluster.submit_with(options)
    }

    fn edge_state(&self) -> EdgeState {
        self.cluster.edge_state()
    }

    fn set_completion_sink(&self, sink: Sender<Completion>) {
        self.cluster.set_completion_sink(sink);
    }

    fn drain(&self, limit: SimDuration) -> ServedTotals {
        ServedTotals::from(&self.cluster.drain(limit))
    }

    fn telemetry(&self) -> Option<Arc<FlightRecorder>> {
        Some(self.cluster.recorder())
    }
}
