//! Flight-recorder events and their fixed-width wire form.
//!
//! Every event packs into [`WORDS`] `u64` words so the ring can store
//! it as plain atomics — no allocation, no `enum` layout in shared
//! memory, no serialization until a dump asks for JSON. The pack /
//! unpack pair is the only place that knows the layout; a corrupted
//! slot (torn by the overwrite frontier) unpacks to `None` and
//! terminates the dump's suffix instead of producing garbage.

use pard_metrics::DropReason;

/// Payload words per ring slot.
pub(crate) const WORDS: usize = 8;

const TAG_EDGE: u64 = 0;
const TAG_STAGE: u64 = 1;
const TAG_DROP: u64 = 2;
const TAG_MERGE: u64 = 3;
const TAG_DONE: u64 = 4;
const TAG_FLOOR: u64 = 5;

/// `reason` byte meaning "no drop reason" (an admitted edge decision).
const NO_REASON: u64 = 0xFF;

/// Why the adaptive admission layer moved the floor (see
/// [`ObsKind::FloorAdjust`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloorCause {
    /// The online re-planner: observed stage latency drifted outside
    /// the hysteresis band around the static profile.
    Replan,
    /// The brownout controller tightened the floor after the windowed
    /// violation rate breached its envelope.
    Brownout,
    /// The brownout controller relaxed the floor on recovery.
    Recover,
}

impl FloorCause {
    /// All causes, in index order.
    pub const ALL: [FloorCause; 3] = [
        FloorCause::Replan,
        FloorCause::Brownout,
        FloorCause::Recover,
    ];

    /// Stable wire index.
    pub fn index(self) -> usize {
        match self {
            FloorCause::Replan => 0,
            FloorCause::Brownout => 1,
            FloorCause::Recover => 2,
        }
    }

    /// Inverse of [`FloorCause::index`].
    pub fn from_index(ix: usize) -> Option<FloorCause> {
        FloorCause::ALL.get(ix).copied()
    }

    /// Short lowercase label for JSON and log lines.
    pub fn label(self) -> &'static str {
        match self {
            FloorCause::Replan => "replan",
            FloorCause::Brownout => "brownout",
            FloorCause::Recover => "recover",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// When the event happened, microseconds on the engine clock
    /// (virtual time, which the live backend paces to the scaled wall
    /// clock — the same clock the admission decision used).
    pub t_us: u64,
    /// The request the event belongs to.
    pub req: u64,
    /// What happened.
    pub kind: ObsKind,
}

/// The event taxonomy: one variant per lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsKind {
    /// The gateway's proactive admission decision (Eq. 3), with the
    /// inputs that produced it: the queued-batch lead, the downstream
    /// estimate `L_sub`, and the slack left for it
    /// (`deadline − now − lead − exec`). The request was rejected iff
    /// `reason` is set — exactly when `sub_us > slack_us`.
    EdgeDecision {
        /// Queued-batch delay ahead of the request, microseconds.
        lead_us: u64,
        /// Downstream critical-path estimate `L_sub`, microseconds.
        sub_us: u64,
        /// Budget remaining for `L_sub`; negative means the entry
        /// module alone already blows the deadline.
        slack_us: i64,
        /// Why the edge rejected it, or `None` if admitted.
        reason: Option<DropReason>,
    },
    /// One module traversal: the Fig. 5 timestamps.
    Stage {
        /// Module index within the pipeline.
        module: u16,
        /// Worker that executed the batch.
        worker: u16,
        /// Size of the batch this request rode in.
        batch: u16,
        /// Arrival at the module (`t_r`), microseconds.
        arrived_us: u64,
        /// Admission into the batch (`t_b`), microseconds.
        batched_us: u64,
        /// Batch execution start (`t_e`), microseconds.
        exec_start_us: u64,
        /// Batch execution end, microseconds.
        exec_end_us: u64,
    },
    /// The request was dropped at `module`.
    Dropped {
        /// Module index where the drop was executed.
        module: u16,
        /// Why.
        reason: DropReason,
    },
    /// All predecessor branches reached the merge module and the
    /// request was released into its queue.
    MergeRelease {
        /// The merge module's index.
        module: u16,
    },
    /// The request finished the whole pipeline.
    Completed {
        /// When the last module's execution ended, microseconds.
        finished_us: u64,
        /// The request's deadline, microseconds.
        deadline_us: u64,
    },
    /// The adaptive admission layer changed the floor it holds
    /// requests to — the audit trail of every online re-plan and
    /// brownout step. Not tied to a request (`req` is 0).
    FloorAdjust {
        /// Module whose execution estimate moved (the entry module for
        /// brownout steps, which scale the whole floor).
        module: u16,
        /// What triggered the adjustment.
        cause: FloorCause,
        /// Observed latency estimate for the module, microseconds.
        observed_us: u64,
        /// The static profile's value for the same term, microseconds.
        profiled_us: u64,
        /// The downstream estimate `L_sub` after the adjustment.
        sub_us: u64,
    },
}

impl ObsEvent {
    /// Packs the event into its fixed-width slot form.
    pub(crate) fn pack(&self) -> [u64; WORDS] {
        let mut w = [0u64; WORDS];
        w[0] = self.t_us;
        w[1] = self.req;
        match self.kind {
            ObsKind::EdgeDecision {
                lead_us,
                sub_us,
                slack_us,
                reason,
            } => {
                let r = reason.map_or(NO_REASON, |r| r.index() as u64);
                w[2] = TAG_EDGE | (r << 56);
                w[3] = lead_us;
                w[4] = sub_us;
                w[5] = slack_us as u64;
            }
            ObsKind::Stage {
                module,
                worker,
                batch,
                arrived_us,
                batched_us,
                exec_start_us,
                exec_end_us,
            } => {
                w[2] = TAG_STAGE
                    | ((module as u64) << 8)
                    | ((worker as u64) << 24)
                    | ((batch as u64) << 40);
                w[3] = arrived_us;
                w[4] = batched_us;
                w[5] = exec_start_us;
                w[6] = exec_end_us;
            }
            ObsKind::Dropped { module, reason } => {
                w[2] = TAG_DROP | ((module as u64) << 8) | ((reason.index() as u64) << 56);
            }
            ObsKind::MergeRelease { module } => {
                w[2] = TAG_MERGE | ((module as u64) << 8);
            }
            ObsKind::Completed {
                finished_us,
                deadline_us,
            } => {
                w[2] = TAG_DONE;
                w[3] = finished_us;
                w[4] = deadline_us;
            }
            ObsKind::FloorAdjust {
                module,
                cause,
                observed_us,
                profiled_us,
                sub_us,
            } => {
                w[2] = TAG_FLOOR | ((module as u64) << 8) | ((cause.index() as u64) << 56);
                w[3] = observed_us;
                w[4] = profiled_us;
                w[5] = sub_us;
            }
        }
        w
    }

    /// Unpacks a slot; `None` means the words do not form a valid
    /// event (a torn slot at the overwrite frontier).
    pub(crate) fn unpack(w: &[u64; WORDS]) -> Option<ObsEvent> {
        let meta = w[2];
        let module = ((meta >> 8) & 0xFFFF) as u16;
        let worker = ((meta >> 24) & 0xFFFF) as u16;
        let batch = ((meta >> 40) & 0xFFFF) as u16;
        let reason_ix = meta >> 56;
        let kind = match meta & 0xFF {
            TAG_EDGE => ObsKind::EdgeDecision {
                lead_us: w[3],
                sub_us: w[4],
                slack_us: w[5] as i64,
                reason: if reason_ix == NO_REASON {
                    None
                } else {
                    Some(DropReason::from_index(reason_ix as usize)?)
                },
            },
            TAG_STAGE => ObsKind::Stage {
                module,
                worker,
                batch,
                arrived_us: w[3],
                batched_us: w[4],
                exec_start_us: w[5],
                exec_end_us: w[6],
            },
            TAG_DROP => ObsKind::Dropped {
                module,
                reason: DropReason::from_index(reason_ix as usize)?,
            },
            TAG_MERGE => ObsKind::MergeRelease { module },
            TAG_DONE => ObsKind::Completed {
                finished_us: w[3],
                deadline_us: w[4],
            },
            TAG_FLOOR => ObsKind::FloorAdjust {
                module,
                cause: FloorCause::from_index(reason_ix as usize)?,
                observed_us: w[3],
                profiled_us: w[4],
                sub_us: w[5],
            },
            _ => return None,
        };
        Some(ObsEvent {
            t_us: w[0],
            req: w[1],
            kind,
        })
    }

    /// Renders the event as one JSON object on one line — the JSONL
    /// unit of `GET /flightrecord` and of harness dumps.
    pub fn to_json_line(&self) -> String {
        let head = format!("{{\"t_us\":{},\"req\":{}", self.t_us, self.req);
        match self.kind {
            ObsKind::EdgeDecision {
                lead_us,
                sub_us,
                slack_us,
                reason,
            } => {
                let verdict = match reason {
                    None => "\"admit\"".to_string(),
                    Some(r) => format!("\"drop\",\"reason\":\"{}\"", r.label()),
                };
                format!(
                    "{head},\"kind\":\"edge\",\"lead_us\":{lead_us},\"sub_us\":{sub_us},\
                     \"slack_us\":{slack_us},\"decision\":{verdict}}}"
                )
            }
            ObsKind::Stage {
                module,
                worker,
                batch,
                arrived_us,
                batched_us,
                exec_start_us,
                exec_end_us,
            } => format!(
                "{head},\"kind\":\"stage\",\"module\":{module},\"worker\":{worker},\
                 \"batch\":{batch},\"arrived_us\":{arrived_us},\"batched_us\":{batched_us},\
                 \"exec_start_us\":{exec_start_us},\"exec_end_us\":{exec_end_us}}}"
            ),
            ObsKind::Dropped { module, reason } => format!(
                "{head},\"kind\":\"drop\",\"module\":{module},\"reason\":\"{}\"}}",
                reason.label()
            ),
            ObsKind::MergeRelease { module } => {
                format!("{head},\"kind\":\"merge\",\"module\":{module}}}")
            }
            ObsKind::Completed {
                finished_us,
                deadline_us,
            } => format!(
                "{head},\"kind\":\"done\",\"finished_us\":{finished_us},\
                 \"deadline_us\":{deadline_us}}}"
            ),
            ObsKind::FloorAdjust {
                module,
                cause,
                observed_us,
                profiled_us,
                sub_us,
            } => format!(
                "{head},\"kind\":\"floor\",\"module\":{module},\"cause\":\"{}\",\
                 \"observed_us\":{observed_us},\"profiled_us\":{profiled_us},\
                 \"sub_us\":{sub_us}}}",
                cause.label()
            ),
        }
    }

    /// One-line human rendering for harness divergence reports:
    /// `t=2.114s req=4217 edge-rejected: L_sub=48.0ms > slack=31.0ms (lead=0.0ms)`.
    pub fn describe(&self) -> String {
        let t = self.t_us as f64 / 1e6;
        let head = format!("t={t:.3}s req={}", self.req);
        match self.kind {
            ObsKind::EdgeDecision {
                lead_us,
                sub_us,
                slack_us,
                reason,
            } => {
                let (lead, sub) = (lead_us as f64 / 1e3, sub_us as f64 / 1e3);
                let slack = slack_us as f64 / 1e3;
                match reason {
                    None => format!(
                        "{head} edge-admitted: L_sub={sub:.1}ms <= slack={slack:.1}ms (lead={lead:.1}ms)"
                    ),
                    Some(r) => format!(
                        "{head} edge-rejected ({}): L_sub={sub:.1}ms > slack={slack:.1}ms (lead={lead:.1}ms)",
                        r.label()
                    ),
                }
            }
            ObsKind::Stage {
                module,
                worker,
                batch,
                exec_end_us,
                ..
            } => format!(
                "{head} stage module={module} worker={worker} batch={batch} done_at={:.3}s",
                exec_end_us as f64 / 1e6
            ),
            ObsKind::Dropped { module, reason } => {
                format!("{head} dropped at module {module} ({})", reason.label())
            }
            ObsKind::MergeRelease { module } => {
                format!("{head} merge barrier released at module {module}")
            }
            ObsKind::Completed {
                finished_us,
                deadline_us,
            } => {
                let verdict = if finished_us <= deadline_us {
                    "ok"
                } else {
                    "late"
                };
                format!(
                    "{head} completed {verdict} at {:.3}s (deadline {:.3}s)",
                    finished_us as f64 / 1e6,
                    deadline_us as f64 / 1e6
                )
            }
            ObsKind::FloorAdjust {
                module,
                cause,
                observed_us,
                profiled_us,
                sub_us,
            } => format!(
                "{head} floor {} module={module}: observed={:.1}ms vs profiled={:.1}ms -> L_sub={:.1}ms",
                cause.label(),
                observed_us as f64 / 1e3,
                profiled_us as f64 / 1e3,
                sub_us as f64 / 1e3
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ev: ObsEvent) {
        let packed = ev.pack();
        assert_eq!(ObsEvent::unpack(&packed), Some(ev), "{ev:?}");
    }

    #[test]
    fn all_kinds_round_trip_through_slot_words() {
        round_trip(ObsEvent {
            t_us: 2_114_000,
            req: 4217,
            kind: ObsKind::EdgeDecision {
                lead_us: 12_000,
                sub_us: 48_000,
                slack_us: 31_000,
                reason: Some(DropReason::PredictedViolation),
            },
        });
        round_trip(ObsEvent {
            t_us: 5,
            req: 1,
            kind: ObsKind::EdgeDecision {
                lead_us: 0,
                sub_us: 10,
                slack_us: -4_500,
                reason: None,
            },
        });
        round_trip(ObsEvent {
            t_us: 99,
            req: u64::MAX >> 1,
            kind: ObsKind::Stage {
                module: 3,
                worker: 7,
                batch: 32,
                arrived_us: 1,
                batched_us: 2,
                exec_start_us: 3,
                exec_end_us: 4,
            },
        });
        for reason in DropReason::ALL {
            round_trip(ObsEvent {
                t_us: 7,
                req: 2,
                kind: ObsKind::Dropped { module: 2, reason },
            });
        }
        round_trip(ObsEvent {
            t_us: 8,
            req: 3,
            kind: ObsKind::MergeRelease { module: 3 },
        });
        round_trip(ObsEvent {
            t_us: 9,
            req: 4,
            kind: ObsKind::Completed {
                finished_us: 400_000,
                deadline_us: 420_000,
            },
        });
        for cause in FloorCause::ALL {
            round_trip(ObsEvent {
                t_us: 10,
                req: 0,
                kind: ObsKind::FloorAdjust {
                    module: 2,
                    cause,
                    observed_us: 80_000,
                    profiled_us: 50_000,
                    sub_us: 130_000,
                },
            });
        }
    }

    #[test]
    fn floor_adjust_renders_cause_and_latencies() {
        let ev = ObsEvent {
            t_us: 3_000_000,
            req: 0,
            kind: ObsKind::FloorAdjust {
                module: 1,
                cause: FloorCause::Replan,
                observed_us: 80_000,
                profiled_us: 50_000,
                sub_us: 130_000,
            },
        };
        let line = ev.to_json_line();
        assert!(line.contains("\"kind\":\"floor\""), "{line}");
        assert!(line.contains("\"cause\":\"replan\""), "{line}");
        assert!(line.contains("\"observed_us\":80000"), "{line}");
        let text = ev.describe();
        assert!(text.contains("floor replan"), "{text}");
        assert!(text.contains("observed=80.0ms"), "{text}");
        // Out-of-range cause byte is a torn slot, not garbage.
        let mut w = ev.pack();
        w[2] = TAG_FLOOR | (7 << 56);
        assert_eq!(ObsEvent::unpack(&w), None);
    }

    #[test]
    fn corrupted_tag_unpacks_to_none() {
        let mut w = [0u64; WORDS];
        w[2] = 0x37; // no such tag
        assert_eq!(ObsEvent::unpack(&w), None);
        // A drop event with an out-of-range reason byte is also torn.
        w[2] = TAG_DROP | (9 << 56);
        assert_eq!(ObsEvent::unpack(&w), None);
    }

    #[test]
    fn json_lines_are_single_line_objects() {
        let evs = [
            ObsEvent {
                t_us: 1,
                req: 2,
                kind: ObsKind::EdgeDecision {
                    lead_us: 3,
                    sub_us: 4,
                    slack_us: -5,
                    reason: Some(DropReason::AlreadyExpired),
                },
            },
            ObsEvent {
                t_us: 1,
                req: 2,
                kind: ObsKind::Stage {
                    module: 0,
                    worker: 1,
                    batch: 4,
                    arrived_us: 5,
                    batched_us: 6,
                    exec_start_us: 7,
                    exec_end_us: 8,
                },
            },
        ];
        for ev in evs {
            let line = ev.to_json_line();
            assert!(!line.contains('\n'), "{line}");
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"req\":2"), "{line}");
        }
        assert!(evs[0].to_json_line().contains("\"slack_us\":-5"));
    }

    #[test]
    fn describe_names_the_admission_inputs() {
        let ev = ObsEvent {
            t_us: 2_114_000,
            req: 4217,
            kind: ObsKind::EdgeDecision {
                lead_us: 0,
                sub_us: 48_000,
                slack_us: 31_000,
                reason: Some(DropReason::PredictedViolation),
            },
        };
        let line = ev.describe();
        assert!(line.contains("req=4217"), "{line}");
        assert!(line.contains("edge-rejected"), "{line}");
        assert!(line.contains("L_sub=48.0ms"), "{line}");
        assert!(line.contains("slack=31.0ms"), "{line}");
        assert!(line.contains("t=2.114s"), "{line}");
    }
}
