//! The one N-way join: a fan-out of `n` parts completes when the last part
//! is back.
//!
//! A striped read, a parallel-stream transfer and a barrier over ranks all
//! follow one rule: run the continuation once, when the last of `n` parts
//! arrives, with the first error any part brought. [`Join`] is that rule.
//! It never schedules an event: the continuation runs inside the event of
//! the last arrival, so a join changes no event count and no event order.

use crate::sim::Sim;
use std::cell::Cell;
use std::convert::Infallible;
use std::rc::Rc;

type Done<W, E> = Box<dyn FnOnce(&mut Sim<W>, &mut W, Result<(), E>)>;

/// A join over `n` parts. Each part [`arrive`](Join::arrive)s once with its
/// result; the continuation runs exactly once, inside the last arrival,
/// with `Ok(())` or the first `Err` that arrived. [`Join::seal`] says every
/// part has been issued, so a fan-out of zero parts completes there.
/// Clones share one join.
pub struct Join<W, E = Infallible> {
    inner: Rc<Inner<W, E>>,
}

struct Inner<W, E> {
    left: Cell<usize>,
    err: Cell<Option<E>>,
    done: Cell<Option<Done<W, E>>>,
}

impl<W, E> Clone for Join<W, E> {
    fn clone(&self) -> Self {
        Join {
            inner: self.inner.clone(),
        }
    }
}

impl<W, E> Join<W, E> {
    /// A join that runs `done` once `n` parts have arrived.
    pub fn new(n: usize, done: impl FnOnce(&mut Sim<W>, &mut W, Result<(), E>) + 'static) -> Self {
        Join {
            inner: Rc::new(Inner {
                left: Cell::new(n),
                err: Cell::new(None),
                done: Cell::new(Some(Box::new(done))),
            }),
        }
    }

    /// One part is back with `r`; the last one runs the continuation.
    pub fn arrive(&self, sim: &mut Sim<W>, w: &mut W, r: Result<(), E>) {
        if let Err(e) = r {
            let first = self.inner.err.take().unwrap_or(e);
            self.inner.err.set(Some(first));
        }
        let left = self.inner.left.get();
        assert!(left > 0, "join: more arrivals than parts");
        self.inner.left.set(left - 1);
        if left == 1 {
            self.fire(sim, w);
        }
    }

    /// No more parts will be issued: with none pending, run the
    /// continuation now (a join over zero parts). Otherwise the last
    /// arrival runs it, or already has.
    pub fn seal(&self, sim: &mut Sim<W>, w: &mut W) {
        if self.inner.left.get() == 0 {
            self.fire(sim, w);
        }
    }

    fn fire(&self, sim: &mut Sim<W>, w: &mut W) {
        if let Some(done) = self.inner.done.take() {
            let r = self.inner.err.take().map_or(Ok(()), Err);
            done(sim, w, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    /// What a join's continuation saw: the instant, the events executed
    /// and queued at that moment, and the result.
    type Fired = Vec<(SimTime, u64, usize, Result<(), &'static str>)>;

    #[derive(Default)]
    struct World {
        fired: Fired,
    }

    fn join(n: usize) -> Join<World, &'static str> {
        Join::new(n, |sim: &mut Sim<World>, w: &mut World, r| {
            w.fired.push((sim.now(), sim.executed(), sim.pending(), r))
        })
    }

    #[test]
    fn fires_once_inside_the_event_of_the_last_arrival() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let j = join(3);
        for ms in [30, 10, 20] {
            let j = j.clone();
            sim.at(SimTime::from_millis(ms), move |sim, w| {
                j.arrive(sim, w, Ok(()))
            });
        }
        sim.at(SimTime::from_millis(40), |_, _| {});
        sim.run(&mut w);
        // The third arrival is the third event, at 30 ms; the join ran its
        // continuation inside it and queued nothing: the 40 ms event is
        // the only one left, and the run executed exactly the four events.
        assert_eq!(w.fired, vec![(SimTime::from_millis(30), 3, 1, Ok(()))]);
        assert_eq!(sim.executed(), 4);
        j.seal(&mut sim, &mut w);
        assert_eq!(
            w.fired.len(),
            1,
            "a sealed join that fired does not fire again"
        );
    }

    #[test]
    fn keeps_the_first_error() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let j = join(3);
        j.arrive(&mut sim, &mut w, Ok(()));
        j.arrive(&mut sim, &mut w, Err("first"));
        assert!(w.fired.is_empty(), "two of three parts are back");
        j.arrive(&mut sim, &mut w, Err("second"));
        assert_eq!(w.fired, vec![(SimTime::ZERO, 0, 0, Err("first"))]);
    }

    #[test]
    fn with_nothing_pending_it_fires_at_the_seal() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let j = join(0);
        assert!(w.fired.is_empty(), "a join never fires on its own");
        j.seal(&mut sim, &mut w);
        j.seal(&mut sim, &mut w);
        assert_eq!(w.fired, vec![(SimTime::ZERO, 0, 0, Ok(()))]);

        // Parts still pending: the seal waits for the last of them.
        let j = join(1);
        j.seal(&mut sim, &mut w);
        assert_eq!(w.fired.len(), 1);
        j.arrive(&mut sim, &mut w, Ok(()));
        assert_eq!(w.fired.len(), 2);
    }

    #[test]
    #[should_panic(expected = "more arrivals than parts")]
    fn an_extra_arrival_is_a_bug() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let j = join(1);
        j.arrive(&mut sim, &mut w, Ok(()));
        j.arrive(&mut sim, &mut w, Ok(()));
    }
}
