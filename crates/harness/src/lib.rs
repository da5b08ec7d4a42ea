//! Deterministic scenario harness for the PARD serving stack.
//!
//! PARD's core claim is goodput protection under adverse dynamics —
//! bursts, stragglers, worker failures, scaling lag (PAPER §5,
//! Figs. 10–14) — and this crate makes those regimes regression-testable
//! **through the real serving path**: every scenario boots a
//! [`pard_gateway::Gateway`] on a real loopback socket and replays a
//! trace-driven schedule through the typed
//! [`pard_gateway::client::Client`], so wire decoding, edge admission,
//! the pending table, and completion dispatch are all on the hook.
//!
//! Determinism comes from **scheduled replay**: each request carries its
//! virtual arrival time (`at_us`), the stepped simulator advances its
//! clock to exactly that instant before admission, and a clock gate
//! stops background pumping from racing ahead (see
//! [`pard_cluster::SimServer::advance_to`]). The per-request outcome
//! vector is therefore a pure function of the [`Scenario`] and its seed
//! — bit-reproducible across runs, machines, and thread schedules.
//!
//! The pieces:
//!
//! * [`Scenario`] — a declarative description: named trace
//!   (wiki/tweet/azure/ramp/burst), SLO mix, fault schedule,
//!   autoscaling and cold-start knobs, seed, phases.
//! * [`run_scenario`] — boots the gateway, replays the schedule,
//!   classifies every request.
//! * [`run_scenario_engine`] — the same schedule and classification
//!   **without a socket**: the replay calls the gateway's own
//!   [`pard_gateway::EdgeAdmitter`] (the one admission path both
//!   runners share) on a [`pard_engine_api::EngineHandle`] directly,
//!   producing the identical outcome vector. This is the path
//!   `pard-sweep` fans across cores.
//! * [`OutcomeTaxonomy`] — per-phase counts of
//!   `ok / violated / dropped_edge / dropped_pipeline / rejected /
//!   unanswered`, serialised as JSON for golden snapshots.
//! * [`check_against_golden`] — compares a run against its checked-in
//!   golden file (`tests/golden/<name>.json`); set
//!   `PARD_UPDATE_GOLDEN=1` to regenerate. Every run also writes its
//!   actual taxonomy to `target/scenario-snapshots/` so CI can upload
//!   the diff as an artifact.
//! * [`run_scenario_live`] + [`Envelope`] — the same scenario on the
//!   **live backend**, paced on the compressed wall clock.
//!   Wall-clock runs cannot be golden-equal, so live coverage asserts
//!   statistical bounds (goodput floor, unanswered cap, canary
//!   bracket) instead of exact taxonomies.
//!
//! The shipped suite lives in `crates/harness/tests/scenarios.rs`
//! (golden, simulated) and `crates/harness/tests/live_envelope.rs`
//! (envelope, live); the README's "Scenario suite" section catalogues
//! both.

pub mod engine_runner;
pub mod envelope;
pub mod golden;
pub mod outcome;
pub mod robustness;
pub mod runner;
pub mod scenario;

pub use engine_runner::{run_scenario_engine, run_schedule_engine};
pub use envelope::Envelope;
pub use golden::{check_against_golden, explain_divergence, golden_path, snapshot_path};
pub use outcome::{OutcomeTaxonomy, PhaseCounts, RequestOutcome};
pub use runner::{
    build_schedule, build_sim_engine, run_scenario, run_scenario_live, run_scenario_multi,
    ScenarioRun,
};
pub use scenario::{Burst, Phase, Scenario, ScenarioApp, SloMix, TraceSpec};
