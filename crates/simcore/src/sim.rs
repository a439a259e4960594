//! The discrete-event engine.
//!
//! [`Sim<W>`] owns a time-ordered heap of boxed `FnOnce` actions over a world
//! `W`. Domain crates (network, SAN, filesystem) define world types that
//! compose their state and drive them through this one engine, so every
//! queue, link and disk in a scenario shares a single causal timeline.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// A scheduled action: the only kind of event the engine knows about.
pub type Action<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W)>;

/// Handle to a cancellable timer scheduled with [`Sim::timer_at`] /
/// [`Sim::timer_after`]. Generation-checked: a handle kept past its timer's
/// firing (or cancellation) safely fails to cancel instead of touching a
/// recycled slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerId {
    slot: u32,
    gen: u32,
}

/// One slab slot backing a cancellable timer. `pending` is `Some` only while
/// the timer is queued; `gen` increments every time the slot is consumed
/// (fired or cancelled), invalidating outstanding [`TimerId`]s. `key` is the
/// timer's (time, seq) entry in the queue, kept so cancellation stays
/// O(log n).
struct TimerSlot<W> {
    gen: u32,
    pending: Option<Action<W>>,
    key: (SimTime, u64),
}

struct Entry<W> {
    at: SimTime,
    seq: u64,
    act: Action<W>,
}

impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Entry<W> {}
impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event scheduler over a world type `W`.
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    executed: u64,
    heap: BinaryHeap<Entry<W>>,
    /// Cancellable timers, keyed by firing order. Shares the `seq` counter
    /// with the heap so [`Sim::step`] can merge both sources into one global
    /// FIFO-per-instant order.
    timers: BTreeMap<(SimTime, u64), u32>,
    timer_slots: Vec<TimerSlot<W>>,
    free_timer_slots: Vec<u32>,
    /// Optional hard stop; events scheduled later than this are kept but not
    /// executed by [`Sim::run`].
    horizon: Option<SimTime>,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// A fresh simulation at t = 0 with an empty event queue.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            heap: BinaryHeap::new(),
            timers: BTreeMap::new(),
            timer_slots: Vec::new(),
            free_timer_slots: Vec::new(),
            horizon: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (for engine benchmarks and tests).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still queued (one-shot actions plus live timers).
    pub fn pending(&self) -> usize {
        self.heap.len() + self.timers.len()
    }

    /// Number of live (uncancelled, unfired) timers. After a full drain the
    /// only way this is nonzero is a leaked watchdog — a retry/grant timer
    /// armed by an exchange that completed without cancelling it — which is
    /// exactly what the chaos harness probes for.
    pub fn timers_pending(&self) -> usize {
        self.timers.len()
    }

    /// Set a hard horizon: [`Sim::run`] stops before executing any event
    /// scheduled strictly after `t`.
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = Some(t);
    }

    /// Schedule `act` at absolute time `at`. Scheduling in the past panics —
    /// that is always a logic error in a causal simulation.
    pub fn at(&mut self, at: SimTime, act: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?}, requested={at:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            act: Box::new(act),
        });
    }

    /// Schedule `act` after a relative delay.
    pub fn after(&mut self, delay: SimDuration, act: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        self.at(self.now + delay, act);
    }

    /// Schedule `act` "immediately" (at the current instant, after all
    /// already-queued same-instant events).
    pub fn immediately(&mut self, act: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        self.at(self.now, act);
    }

    /// Schedule a cancellable timer at absolute time `at`. Fires exactly like
    /// an [`Sim::at`] event (same global time/FIFO order) unless cancelled
    /// first with [`Sim::cancel_timer`].
    pub fn timer_at(
        &mut self,
        at: SimTime,
        act: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> TimerId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={:?}, requested={at:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free_timer_slots.pop() {
            Some(s) => s,
            None => {
                self.timer_slots.push(TimerSlot {
                    gen: 0,
                    pending: None,
                    key: (SimTime::ZERO, 0),
                });
                (self.timer_slots.len() - 1) as u32
            }
        };
        let s = &mut self.timer_slots[slot as usize];
        let gen = s.gen;
        s.pending = Some(Box::new(act));
        s.key = (at, seq);
        self.timers.insert((at, seq), slot);
        TimerId { slot, gen }
    }

    /// Schedule a cancellable timer after a relative delay.
    pub fn timer_after(
        &mut self,
        delay: SimDuration,
        act: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> TimerId {
        self.timer_at(self.now + delay, act)
    }

    /// Cancel a live timer. Returns `true` if the timer was still queued (it
    /// will now never fire, and its action is dropped); `false` if it already
    /// fired or was cancelled — the handle is stale and nothing happens.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        let Some(s) = self.timer_slots.get_mut(id.slot as usize) else {
            return false;
        };
        if s.gen != id.gen || s.pending.is_none() {
            return false;
        }
        s.pending = None;
        s.gen = s.gen.wrapping_add(1);
        let key = s.key;
        let removed = self.timers.remove(&key);
        debug_assert!(removed == Some(id.slot));
        self.free_timer_slots.push(id.slot);
        true
    }

    /// Is the timer still queued (neither fired nor cancelled)?
    pub fn timer_live(&self, id: TimerId) -> bool {
        self.timer_slots
            .get(id.slot as usize)
            .is_some_and(|s| s.gen == id.gen && s.pending.is_some())
    }

    /// Execute exactly one event if any is due (and within the horizon).
    /// Merges the one-shot heap and the timer queue into a single global
    /// (time, seq) order. Returns `false` when both queues are exhausted or
    /// the horizon is reached.
    pub fn step(&mut self, world: &mut W) -> bool {
        let heap_key = self.heap.peek().map(|e| (e.at, e.seq));
        let timer_key = self.timers.first_key_value().map(|(k, _)| *k);
        let (at, take_timer) = match (heap_key, timer_key) {
            (Some(h), Some(t)) => {
                if t < h {
                    (t.0, true)
                } else {
                    (h.0, false)
                }
            }
            (Some(h), None) => (h.0, false),
            (None, Some(t)) => (t.0, true),
            (None, None) => return false,
        };
        if let Some(h) = self.horizon {
            if at > h {
                return false;
            }
        }
        let act = if take_timer {
            let (_, slot) = self.timers.pop_first().expect("peeked above");
            let s = &mut self.timer_slots[slot as usize];
            s.gen = s.gen.wrapping_add(1);
            self.free_timer_slots.push(slot);
            s.pending.take().expect("queued timer has an action")
        } else {
            let e = self.heap.pop().expect("peeked above");
            e.act
        };
        debug_assert!(at >= self.now, "event queue violated time order");
        self.now = at;
        self.executed += 1;
        act(self, world);
        true
    }

    /// Run until the event queue drains or the horizon is reached.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run until predicate `done` returns true (checked after each event),
    /// the queue drains, or the horizon is reached. Returns true iff the
    /// predicate fired.
    pub fn run_until(&mut self, world: &mut W, mut done: impl FnMut(&W) -> bool) -> bool {
        loop {
            if done(world) {
                return true;
            }
            if !self.step(world) {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Log {
        entries: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_execute_in_time_order() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        sim.at(SimTime::from_millis(30), |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "c"))
        });
        sim.at(SimTime::from_millis(10), |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "a"))
        });
        sim.at(SimTime::from_millis(20), |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "b"))
        });
        sim.run(&mut log);
        let names: Vec<_> = log.entries.iter().map(|e| e.1).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn same_instant_events_are_fifo() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        let t = SimTime::from_secs(1);
        for name in ["first", "second", "third"] {
            sim.at(t, move |s, w: &mut Log| {
                w.entries.push((s.now().as_nanos(), name))
            });
        }
        sim.run(&mut log);
        let names: Vec<_> = log.entries.iter().map(|e| e.1).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        sim.after(SimDuration::from_secs(1), |s, _w: &mut Log| {
            s.after(SimDuration::from_secs(2), |s2, w2: &mut Log| {
                w2.entries.push((s2.now().as_nanos(), "chained"));
            });
        });
        sim.run(&mut log);
        assert_eq!(log.entries, vec![(3_000_000_000, "chained")]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        sim.after(SimDuration::from_secs(5), |s, _w: &mut Log| {
            s.at(SimTime::from_secs(1), |_, _| {});
        });
        sim.run(&mut log);
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        sim.at(SimTime::from_secs(1), |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "in"))
        });
        sim.at(SimTime::from_secs(10), |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "out"))
        });
        sim.set_horizon(SimTime::from_secs(5));
        sim.run(&mut log);
        assert_eq!(log.entries.len(), 1);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        for i in 0..100u64 {
            sim.at(SimTime::from_secs(i), |s, w: &mut Log| {
                w.entries.push((s.now().as_nanos(), "tick"))
            });
        }
        let hit = sim.run_until(&mut log, |w| w.entries.len() >= 10);
        assert!(hit);
        assert_eq!(log.entries.len(), 10);
        // The rest stay queued.
        assert_eq!(sim.pending(), 90);
    }

    #[test]
    fn timers_fire_in_global_order_with_heap_events() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        let t = SimTime::from_secs(1);
        sim.at(t, |s, w: &mut Log| w.entries.push((s.now().as_nanos(), "a")));
        sim.timer_at(t, |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "b"))
        });
        sim.at(t, |s, w: &mut Log| w.entries.push((s.now().as_nanos(), "c")));
        sim.timer_at(SimTime::from_millis(500), |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "early"))
        });
        sim.run(&mut log);
        let names: Vec<_> = log.entries.iter().map(|e| e.1).collect();
        // Timers interleave with heap events FIFO at the same instant.
        assert_eq!(names, vec!["early", "a", "b", "c"]);
        assert_eq!(sim.executed(), 4);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cancelled_timer_never_fires_and_pending_shrinks() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        let id = sim.timer_at(SimTime::from_secs(5), |_s, _w: &mut Log| {
            panic!("cancelled timer fired")
        });
        sim.at(SimTime::from_secs(1), move |s, _w: &mut Log| {
            assert!(s.cancel_timer(id), "first cancel wins");
            assert!(!s.cancel_timer(id), "second cancel is a stale no-op");
        });
        assert_eq!(sim.pending(), 2);
        sim.run(&mut log);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.executed(), 1, "only the cancelling event ran");
    }

    #[test]
    fn cancel_after_fire_is_stale() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        let id = sim.timer_at(SimTime::from_secs(1), |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "fired"))
        });
        sim.run(&mut log);
        assert_eq!(log.entries.len(), 1);
        assert!(!sim.cancel_timer(id), "fired timer cannot be cancelled");
    }

    #[test]
    fn timer_slots_are_recycled_with_fresh_generations() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        let a = sim.timer_at(SimTime::from_secs(1), |_s, _w: &mut Log| {});
        assert!(sim.cancel_timer(a));
        // The recycled slot must not be cancellable through the old handle.
        let b = sim.timer_at(SimTime::from_secs(2), |s, w: &mut Log| {
            w.entries.push((s.now().as_nanos(), "b"))
        });
        assert!(!sim.cancel_timer(a), "stale handle must not hit slot reuse");
        sim.run(&mut log);
        assert_eq!(log.entries.len(), 1);
        assert!(!sim.cancel_timer(b));
    }

    #[test]
    fn timer_respects_horizon() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        sim.timer_at(SimTime::from_secs(10), |_s, _w: &mut Log| {
            panic!("beyond horizon")
        });
        sim.set_horizon(SimTime::from_secs(5));
        sim.run(&mut log);
        assert_eq!(sim.pending(), 1, "timer stays queued past the horizon");
    }

    #[test]
    fn immediately_runs_at_current_instant() {
        let mut sim: Sim<Log> = Sim::new();
        let mut log = Log::default();
        sim.after(SimDuration::from_secs(2), |s, _w: &mut Log| {
            let t = s.now();
            s.immediately(move |s2, w2: &mut Log| {
                assert_eq!(s2.now(), t);
                w2.entries.push((s2.now().as_nanos(), "imm"));
            });
        });
        sim.run(&mut log);
        assert_eq!(log.entries.len(), 1);
    }
}
