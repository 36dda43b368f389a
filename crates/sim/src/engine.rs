//! The discrete-event run loop.
//!
//! The engine is generic over the event type so that substrate crates (MAC,
//! routing, …) stay independent: the integration crate defines one unified
//! event enum and a `World` that dispatches on it. The engine owns the clock
//! and the future-event list; the world owns all model state.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Scheduling interface handed to the world while it processes an event.
///
/// Splitting this off from the full engine keeps the borrow simple: the world
/// gets `&mut Scheduler<E>` while the engine retains the dispatch loop.
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
    horizon: SimTime,
    stopped: bool,
}

impl<E> Scheduler<E> {
    fn new(horizon: SimTime) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(1024),
            horizon,
            stopped: false,
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire after `delay`.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Schedule `event` at an absolute time (which must not be in the past).
    #[inline]
    pub fn at(&mut self, time: SimTime, event: E) {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.queue.schedule(time, event);
    }

    /// Schedule `event` to fire immediately (after all other events already
    /// scheduled for the current instant).
    #[inline]
    pub fn now_event(&mut self, event: E) {
        self.queue.schedule(self.now, event);
    }

    /// Request the run loop to stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// The configured end-of-simulation time.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// A model that consumes events.
pub trait World {
    /// The unified event type.
    type Event;

    /// Process one event. `sched.now()` is the event's activation time.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Why the run loop returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The future-event list drained completely.
    QueueEmpty,
    /// The next event lay beyond the configured horizon.
    HorizonReached,
    /// The world called [`Scheduler::stop`].
    Stopped,
    /// The event budget was exhausted (runaway protection).
    EventBudget,
    /// An external interrupt flag ([`Engine::with_interrupt`]) was raised.
    Interrupted,
}

/// Summary of a completed run.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Why the loop ended.
    pub reason: StopReason,
    /// Number of events dispatched.
    pub events_processed: u64,
    /// Final simulation time.
    pub end_time: SimTime,
}

/// The discrete-event engine.
pub struct Engine<E> {
    sched: Scheduler<E>,
    events_processed: u64,
    event_budget: u64,
    /// Cooperative cancellation flag, polled every `INTERRUPT_MASK + 1`
    /// events so the hot loop stays branch-cheap. A flag that is never set
    /// leaves the run byte-identical to one without the flag installed.
    interrupt: Option<Arc<AtomicBool>>,
}

/// The interrupt flag is polled when `events_processed & INTERRUPT_MASK == 0`
/// (one relaxed atomic load every 1024 events).
const INTERRUPT_MASK: u64 = 1023;

impl<E> Engine<E> {
    /// Create an engine that will run until `horizon` (exclusive of events
    /// scheduled strictly after it).
    pub fn new(horizon: SimTime) -> Self {
        Engine {
            sched: Scheduler::new(horizon),
            events_processed: 0,
            event_budget: u64::MAX,
            interrupt: None,
        }
    }

    /// Cap the total number of dispatched events (runaway protection for
    /// tests and fuzzing).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Install a cooperative cancellation flag: once another thread (or a
    /// signal handler) sets it, the run loop stops with
    /// [`StopReason::Interrupted`] within 1024 events. The flag is only
    /// polled, never cleared, so one flag can fan out to many engines.
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Schedule an initial event before the run starts.
    pub fn prime(&mut self, time: SimTime, event: E) {
        self.sched.at(time, event);
    }

    /// Access the scheduler (e.g. for priming many events).
    pub fn scheduler(&mut self) -> &mut Scheduler<E> {
        &mut self.sched
    }

    /// Run the event loop to completion against `world`.
    pub fn run<W: World<Event = E>>(mut self, world: &mut W) -> RunReport {
        let reason = loop {
            if self.sched.stopped {
                break StopReason::Stopped;
            }
            if self.events_processed >= self.event_budget {
                break StopReason::EventBudget;
            }
            if self.events_processed & INTERRUPT_MASK == 0 {
                if let Some(flag) = &self.interrupt {
                    if flag.load(Ordering::Relaxed) {
                        break StopReason::Interrupted;
                    }
                }
            }
            let Some(next_time) = self.sched.queue.peek_time() else {
                break StopReason::QueueEmpty;
            };
            if next_time > self.sched.horizon {
                // Do not advance the clock past the horizon.
                self.sched.now = self.sched.horizon;
                break StopReason::HorizonReached;
            }
            let (time, event) = self.sched.queue.pop().expect("peeked event vanished");
            debug_assert!(time >= self.sched.now, "time went backwards");
            self.sched.now = time;
            self.events_processed += 1;
            world.handle(event, &mut self.sched);
        };
        RunReport {
            reason,
            events_processed: self.events_processed,
            end_time: self.sched.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: each event schedules the next one until zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl World for Countdown {
        type Event = ();
        fn handle(&mut self, _e: (), sched: &mut Scheduler<()>) {
            self.fired_at.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.after(SimDuration::from_secs(1), ());
            }
        }
    }

    #[test]
    fn countdown_runs_to_queue_empty() {
        let mut w = Countdown {
            remaining: 5,
            fired_at: vec![],
        };
        let mut engine = Engine::new(SimTime::from_secs(100));
        engine.prime(SimTime::ZERO, ());
        let report = engine.run(&mut w);
        assert_eq!(report.reason, StopReason::QueueEmpty);
        assert_eq!(report.events_processed, 6);
        assert_eq!(w.fired_at.len(), 6);
        assert_eq!(*w.fired_at.last().unwrap(), SimTime::from_secs(5));
    }

    #[test]
    fn horizon_cuts_off() {
        let mut w = Countdown {
            remaining: u32::MAX,
            fired_at: vec![],
        };
        let mut engine = Engine::new(SimTime::from_secs(3));
        engine.prime(SimTime::ZERO, ());
        let report = engine.run(&mut w);
        assert_eq!(report.reason, StopReason::HorizonReached);
        // Events at t = 0, 1, 2, 3 fire; t = 4 is beyond the horizon.
        assert_eq!(report.events_processed, 4);
        assert_eq!(report.end_time, SimTime::from_secs(3));
    }

    #[test]
    fn event_budget_stops_runaway() {
        let mut w = Countdown {
            remaining: u32::MAX,
            fired_at: vec![],
        };
        let mut engine = Engine::new(SimTime::MAX).with_event_budget(10);
        engine.prime(SimTime::ZERO, ());
        let report = engine.run(&mut w);
        assert_eq!(report.reason, StopReason::EventBudget);
        assert_eq!(report.events_processed, 10);
    }

    #[test]
    fn interrupt_flag_stops_the_run() {
        let mut w = Countdown {
            remaining: u32::MAX,
            fired_at: vec![],
        };
        let flag = Arc::new(AtomicBool::new(false));
        // Pre-set flag: the loop notices at the first poll point.
        flag.store(true, Ordering::SeqCst);
        let mut engine = Engine::new(SimTime::MAX).with_interrupt(flag);
        engine.prime(SimTime::ZERO, ());
        let report = engine.run(&mut w);
        assert_eq!(report.reason, StopReason::Interrupted);
        assert_eq!(report.events_processed, 0);
    }

    #[test]
    fn unset_interrupt_flag_changes_nothing() {
        let run = |with_flag: bool| {
            let mut w = Countdown {
                remaining: 5,
                fired_at: vec![],
            };
            let mut engine = Engine::new(SimTime::from_secs(100));
            if with_flag {
                engine = engine.with_interrupt(Arc::new(AtomicBool::new(false)));
            }
            engine.prime(SimTime::ZERO, ());
            let r = engine.run(&mut w);
            (r.reason, r.events_processed, w.fired_at)
        };
        assert_eq!(run(false), run(true));
    }

    struct Stopper;
    impl World for Stopper {
        type Event = u32;
        fn handle(&mut self, e: u32, sched: &mut Scheduler<u32>) {
            if e == 3 {
                sched.stop();
            }
        }
    }

    #[test]
    fn world_can_stop_the_run() {
        let mut engine = Engine::new(SimTime::MAX);
        for i in 0..10 {
            engine.prime(SimTime::from_secs(i), i as u32);
        }
        let report = engine.run(&mut Stopper);
        assert_eq!(report.reason, StopReason::Stopped);
        assert_eq!(report.events_processed, 4);
    }

    struct SameInstant {
        order: Vec<u32>,
    }
    impl World for SameInstant {
        type Event = u32;
        fn handle(&mut self, e: u32, sched: &mut Scheduler<u32>) {
            self.order.push(e);
            if e == 0 {
                // Scheduled "now" events run after already-queued same-time
                // events, in insertion order.
                sched.now_event(100);
                sched.now_event(101);
            }
        }
    }

    #[test]
    fn same_instant_fifo() {
        let mut w = SameInstant { order: vec![] };
        let mut engine = Engine::new(SimTime::MAX);
        engine.prime(SimTime::ZERO, 0);
        engine.prime(SimTime::ZERO, 1);
        let report = engine.run(&mut w);
        assert_eq!(w.order, vec![0, 1, 100, 101]);
        assert_eq!(report.reason, StopReason::QueueEmpty);
    }
}
