//! Multi-connection deterministic replay: the coordinator that orders
//! scheduled requests from cooperating connections into one global
//! arrival order before they reach admission.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{advance_all, serve_scheduled, Core, ReplySink};
use crate::wire::Request;

/// Orders scheduled requests from `K` cooperating replay connections.
///
/// Each participant's *watermark* is the `at_us` of the last control
/// or scheduled line it sent — its promise that nothing earlier is
/// still coming (arrival schedules are non-decreasing per connection).
/// Scheduled requests park in a heap keyed `(at, party, intra)` and
/// drain strictly below the minimum watermark across all parties, so
/// the admission order — and therefore every admission decision — is a
/// pure function of the schedule, not of socket interleaving. Parked
/// `advance_us` actions drain at-or-below the gate (advancing a clock
/// to a time every future entry is at or past is order-neutral), which
/// is what lets the trailing advances release the tail. A participant
/// that disconnects releases its watermark so the others finish.
pub(super) struct ReplayCoordinator {
    /// Declared group size; 0 until the first `replay_join`.
    parties: u64,
    /// Per-participant watermarks (`u64::MAX` = departed).
    watermarks: Vec<u64>,
    /// Per-participant arrival counters breaking `at` ties stably.
    intra: Vec<u64>,
    heap: BinaryHeap<Reverse<Parked>>,
}

pub(super) struct Parked {
    at: u64,
    /// Client-assigned sequence number (`u64::MAX` when absent, and for
    /// clock advances). Party indices are assigned by racy join-arrival
    /// order, so same-`at` entries from different connections would
    /// otherwise order differently run to run; a replaying client that
    /// stamps globally-unique `seq`s gets a schedule-determined order.
    seq: u64,
    party: usize,
    intra: u64,
    pub(super) action: ParkedAction,
}

pub(super) enum ParkedAction {
    Advance {
        to_us: u64,
    },
    Request {
        app: usize,
        sink: ReplySink,
        request: Request,
    },
}

impl PartialEq for Parked {
    fn eq(&self, other: &Parked) -> bool {
        (self.at, self.seq, self.party, self.intra)
            == (other.at, other.seq, other.party, other.intra)
    }
}
impl Eq for Parked {}
impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Parked) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Parked {
    fn cmp(&self, other: &Parked) -> std::cmp::Ordering {
        (self.at, self.seq, self.party, self.intra).cmp(&(
            other.at,
            other.seq,
            other.party,
            other.intra,
        ))
    }
}

impl ReplayCoordinator {
    pub(super) fn new() -> ReplayCoordinator {
        ReplayCoordinator {
            parties: 0,
            watermarks: Vec::new(),
            intra: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Registers one participant; returns its party index.
    pub(super) fn join(&mut self, parties: u64) -> Result<usize, String> {
        if self.parties == 0 {
            self.parties = parties;
        } else if self.parties != parties {
            return Err(format!(
                "a replay group of {} parties is already declared",
                self.parties
            ));
        }
        if self.watermarks.len() as u64 == self.parties {
            return Err(format!(
                "the replay group of {} parties is already full",
                self.parties
            ));
        }
        self.watermarks.push(0);
        self.intra.push(0);
        Ok(self.watermarks.len() - 1)
    }

    /// All declared parties have joined; nothing drains before this.
    fn complete(&self) -> bool {
        self.parties > 0 && self.watermarks.len() as u64 == self.parties
    }

    /// Raises a participant's watermark (non-decreasing).
    pub(super) fn raise(&mut self, party: usize, at: u64) {
        if at > self.watermarks[party] {
            self.watermarks[party] = at;
        }
    }

    /// Parks one action under `(at, seq, party, next intra)`.
    pub(super) fn park(&mut self, party: usize, at: u64, seq: u64, action: ParkedAction) {
        let intra = self.intra[party];
        self.intra[party] += 1;
        self.heap.push(Reverse(Parked {
            at,
            seq,
            party,
            intra,
            action,
        }));
    }

    /// A participant disconnected: release its gate so the rest of the
    /// group can finish (in the success path its trailing advance
    /// already raised the watermark past everything, so this is a
    /// no-op there).
    pub(super) fn leave(&mut self, party: usize) {
        self.watermarks[party] = u64::MAX;
    }

    /// Removes every parked action (the shutdown flush).
    pub(super) fn flush(&mut self) -> Vec<Parked> {
        self.heap.drain().map(|r| r.0).collect()
    }
}

/// Drains every parked action that is safely ordered: requests
/// strictly below the minimum watermark, clock advances at or below
/// it. Each action routes the completions it resolved before the next
/// one runs ([`serve_scheduled`], [`advance_all`]), so nothing is left
/// in a channel when the drain returns. Call with the coordinator lock
/// held.
pub(super) fn replay_drain_ready(coordinator: &mut ReplayCoordinator, core: &Core) {
    if !coordinator.complete() {
        return;
    }
    let gate = coordinator.watermarks.iter().copied().min().unwrap_or(0);
    loop {
        let pop = match coordinator.heap.peek() {
            Some(Reverse(top)) => match top.action {
                ParkedAction::Advance { .. } => top.at <= gate,
                ParkedAction::Request { .. } => top.at < gate,
            },
            None => false,
        };
        if !pop {
            return;
        }
        let parked = coordinator.heap.pop().expect("peeked").0;
        match parked.action {
            ParkedAction::Advance { to_us } => advance_all(core, to_us),
            ParkedAction::Request { app, sink, request } => {
                let at = request.at_us.expect("parked requests are scheduled");
                serve_scheduled(core, &core.apps[app], &sink, &request, at, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_coordinator_orders_across_parties() {
        let mut c = ReplayCoordinator::new();
        let a = c.join(2).expect("first join");
        assert!(!c.complete(), "one of two parties");
        let b = c.join(2).expect("second join");
        assert!(c.complete());
        assert!(c.join(2).is_err(), "third join into a full group");

        // Park out-of-order across parties; the heap orders by (at,
        // seq, party, intra).
        c.park(b, 30, u64::MAX, ParkedAction::Advance { to_us: 30 });
        c.park(a, 10, u64::MAX, ParkedAction::Advance { to_us: 10 });
        c.park(a, 10, u64::MAX, ParkedAction::Advance { to_us: 11 });
        c.raise(a, 10);
        c.raise(b, 30);
        // Gate = min(10, 30) = 10: the two at=10 advances drain (at <=
        // gate), the at=30 one stays.
        let order: Vec<u64> = std::iter::from_fn(|| {
            let ready = matches!(
                c.heap.peek(),
                Some(Reverse(top)) if top.at <= c.watermarks.iter().copied().min().unwrap()
            );
            ready.then(|| {
                let Reverse(p) = c.heap.pop().unwrap();
                match p.action {
                    ParkedAction::Advance { to_us } => to_us,
                    ParkedAction::Request { .. } => unreachable!(),
                }
            })
        })
        .collect();
        assert_eq!(order, vec![10, 11]);

        // A departed party releases the gate entirely.
        c.leave(a);
        assert_eq!(c.watermarks[a], u64::MAX);
        assert_eq!(
            c.watermarks.iter().copied().min().unwrap(),
            30,
            "the remaining party's watermark gates alone"
        );
        assert_eq!(c.flush().len(), 1, "the at=30 advance was still parked");
    }

    #[test]
    fn replay_order_prefers_seq_over_join_order() {
        // Party indices reflect racy join-arrival order; a client that
        // stamps globally-unique seqs gets the same drain order no
        // matter which connection joined first. Here the *higher*
        // party's entry carries the lower seq and must drain first.
        let mut c = ReplayCoordinator::new();
        let a = c.join(2).expect("first join");
        let b = c.join(2).expect("second join");
        c.park(b, 50, 7, ParkedAction::Advance { to_us: 77 });
        c.park(a, 50, 9, ParkedAction::Advance { to_us: 99 });
        let pop = |c: &mut ReplayCoordinator| match c.heap.pop().unwrap().0.action {
            ParkedAction::Advance { to_us } => to_us,
            ParkedAction::Request { .. } => unreachable!(),
        };
        assert_eq!(pop(&mut c), 77, "seq 7 beats the lower party index");
        assert_eq!(pop(&mut c), 99);
    }

    #[test]
    fn replay_group_size_must_match() {
        let mut c = ReplayCoordinator::new();
        c.join(3).expect("declares the group");
        let err = c.join(2).expect_err("mismatched size");
        assert!(err.contains("3 parties"), "{err}");
    }
}
