//! Discrete-event simulation substrate for the PARD reproduction.
//!
//! This crate provides the building blocks every simulated subsystem in the
//! workspace is driven by:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`DetRng`] — a deterministic, seedable, forkable random number
//!   generator (xoshiro256++ seeded via SplitMix64) so that every
//!   experiment is exactly reproducible from a single `u64` seed.
//! * [`EventQueue`] — a time-ordered event heap with deterministic
//!   FIFO tie-breaking for simultaneous events.
//! * [`Simulation`] / [`World`] — a minimal driver loop.
//! * [`TokenBucket`] — rate limiting, used by admission-control policies.
//!
//! **Merged sources.** A trace-driven run knows every arrival up front,
//! but putting them all on the heap makes each of the run's events sift
//! through a trace-deep heap. [`Simulation::run_merged`] instead takes the
//! arrivals as a time-ordered stream and merges it with the queue, which
//! then holds only the events in flight. The tie rule keeps the result
//! identical to pre-scheduling the stream ahead of every queued event: a
//! stream item goes before a queued event due at the same instant, just
//! as the lower insertion sequence of a pre-scheduled arrival would have
//! put it first. [`Simulation::run_to_completion`] is the same loop over
//! an empty stream.
//!
//! The engine is intentionally free of external dependencies: determinism
//! across platforms and toolchain updates matters more than raw speed for
//! reproducing the paper's figures, and the hot paths are simple enough to
//! be fast anyway (see `pard-bench`'s `des` microbenchmark).

pub mod event;
pub mod interference;
pub mod rng;
pub mod time;
pub mod token_bucket;

pub use event::EventQueue;
pub use interference::{markov_trace, walk_trace, MarkovParams, SlowdownTrace, WalkParams};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use token_bucket::TokenBucket;

use event::QueueEntry;

/// A simulated world: owns all mutable state and reacts to events.
///
/// The [`Simulation`] driver pops events in time order and hands them to
/// [`World::handle`], which may schedule further events on the queue.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Reacts to `event` occurring at virtual time `now`.
    ///
    /// New events may be scheduled on `queue`; their timestamps must not
    /// precede `now` (enforced by the driver in debug builds).
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Driver that advances a [`World`] through its event queue.
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current virtual time (time of the most recently processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Timestamp of the next queued event, if any — for drivers that
    /// step the simulation manually and need to bound how far virtual
    /// time may advance before processing.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the current time.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.queue.push(at, event);
    }

    /// Processes a single event; returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(QueueEntry { time, event, .. }) => {
                self.fire(time, event);
                true
            }
            None => false,
        }
    }

    /// Advances the clock to `time` and hands `event` to the world.
    fn fire(&mut self, time: SimTime, event: W::Event) {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.processed += 1;
        self.world.handle(time, event, &mut self.queue);
    }

    /// Advances the clock to `t` without processing anything — for
    /// drivers that step the simulation manually and must move virtual
    /// time through *idle* stretches (no queued event at or before `t`).
    /// A no-op when `t` is not in the future.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an event at or before `t` is still
    /// queued: skipping it would reorder the timeline. Process due
    /// events first (see [`Simulation::step`] / [`Simulation::peek_time`]).
    pub fn advance_now_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        debug_assert!(
            self.queue.peek_time().is_none_or(|p| p > t),
            "advance_now_to would skip a queued event"
        );
        self.now = t;
    }

    /// Runs until the queue is exhausted or `deadline` is passed.
    ///
    /// Events with timestamps strictly greater than `deadline` remain
    /// queued; the clock is left at the last processed event (or at
    /// `deadline` if at least one later event remains pending).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                self.now = deadline;
                return;
            }
            self.step();
        }
    }

    /// Runs until the queue is exhausted.
    pub fn run_to_completion(&mut self) {
        self.run_merged(std::iter::empty());
    }

    /// Runs `source` — events in non-decreasing time order — merged
    /// with the queue, until both are exhausted.
    ///
    /// The outcome is that of scheduling every source item ahead of
    /// everything already queued and then running to completion: among
    /// items due at the same instant the source keeps its own order, and
    /// a source item goes before any queued event due at its time. The
    /// heap meanwhile holds only what the world scheduled, so a long
    /// trace of arrivals costs its items one at a time instead of a
    /// trace-deep heap under every event of the run.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the source goes backwards in time, or
    /// starts before the current time.
    pub fn run_merged(&mut self, source: impl IntoIterator<Item = (SimTime, W::Event)>) {
        for (time, event) in source {
            // Strictly earlier only: at equal times the source goes first.
            while self.queue.peek_time().is_some_and(|queued| queued < time) {
                self.step();
            }
            debug_assert!(time >= self.now, "merged source is not time-ordered");
            self.fire(time, event);
        }
        while self.step() {}
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that appends `(time, tag)` pairs and chains follow-ups.
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        chain: u32,
    }

    impl World for Recorder {
        type Event = u32;

        fn handle(&mut self, now: SimTime, event: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now, event));
            if event < self.chain {
                queue.push(now + SimDuration::from_millis(10), event + 1);
            }
        }
    }

    #[test]
    fn processes_events_in_time_order() {
        let mut sim = Simulation::new(Recorder {
            seen: Vec::new(),
            chain: 0,
        });
        sim.schedule(SimTime::from_millis(30), 3);
        sim.schedule(SimTime::from_millis(10), 1);
        sim.schedule(SimTime::from_millis(20), 2);
        sim.run_to_completion();
        let tags: Vec<u32> = sim.world().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn simultaneous_events_pop_in_push_order() {
        let mut sim = Simulation::new(Recorder {
            seen: Vec::new(),
            chain: 0,
        });
        let t = SimTime::from_millis(5);
        for tag in 0..16 {
            sim.schedule(t, tag);
        }
        sim.run_to_completion();
        let tags: Vec<u32> = sim.world().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(tags, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(Recorder {
            seen: Vec::new(),
            chain: 4,
        });
        sim.schedule(SimTime::ZERO, 0);
        sim.run_to_completion();
        assert_eq!(sim.world().seen.len(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(40));
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sim = Simulation::new(Recorder {
            seen: Vec::new(),
            chain: 0,
        });
        sim.schedule(SimTime::from_millis(10), 1);
        sim.schedule(SimTime::from_millis(100), 2);
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.world().seen.len(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(50));
        sim.run_to_completion();
        assert_eq!(sim.world().seen.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "merged source is not time-ordered")]
    fn merged_source_must_not_go_backwards() {
        let mut sim = Simulation::new(Recorder {
            seen: Vec::new(),
            chain: 0,
        });
        sim.run_merged([(SimTime::from_millis(5), 1), (SimTime::from_millis(4), 2)]);
    }

    /// A world whose events fan out into zero to two children, some due
    /// at the very instant of their parent, until `budget` runs out.
    struct Fanout {
        seen: Vec<(SimTime, u64)>,
        budget: u32,
    }

    impl World for Fanout {
        type Event = u64;

        fn handle(&mut self, now: SimTime, event: u64, queue: &mut EventQueue<u64>) {
            self.seen.push((now, event));
            for c in 0..event % 3 {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                let child = event
                    .wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(c + 1);
                queue.push(now + SimDuration::from_micros((child >> 40) % 3), child);
            }
        }
    }

    proptest::proptest! {
        /// Streaming a source is indistinguishable from scheduling all of
        /// it ahead of the events already queued, ties included.
        #[test]
        fn merged_source_matches_prescheduling(
            gaps in proptest::collection::vec(0u64..3, 0..120),
            queued in proptest::collection::vec(0u64..200, 0..8),
            budget in 0u32..400,
        ) {
            // Gaps of 0 and 1 µs put many items on one instant, and
            // children due 0–2 µs after their parent land on them too.
            let mut t = 0;
            let source: Vec<(SimTime, u64)> = gaps
                .iter()
                .enumerate()
                .map(|(i, &gap)| {
                    t += gap;
                    (SimTime::from_micros(t), 1_000_000 + i as u64)
                })
                .collect();
            let world = || Fanout { seen: Vec::new(), budget };

            let mut reference = Simulation::new(world());
            for &(at, event) in &source {
                reference.schedule(at, event);
            }
            for &q in &queued {
                reference.schedule(SimTime::from_micros(q % (t + 1)), q);
            }
            reference.run_to_completion();

            let mut merged = Simulation::new(world());
            for &q in &queued {
                merged.schedule(SimTime::from_micros(q % (t + 1)), q);
            }
            merged.run_merged(source);

            proptest::prop_assert_eq!(&merged.world().seen, &reference.world().seen);
            proptest::prop_assert_eq!(merged.processed(), reference.processed());
            proptest::prop_assert_eq!(merged.now(), reference.now());
        }
    }
}
