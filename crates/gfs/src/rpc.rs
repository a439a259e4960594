//! One attempt loop for every client exchange.
//!
//! An *exchange* is a request a client sends and some server must answer:
//! a token acquire, an NSD fetch or flush, a mount, or a manager envelope
//! (which carries every other manager request: metadata ops, write
//! allocation, truncate, lease acquire and surrender). Any
//! message can be lost — to a partition, a crashed NSD server, a manager
//! that is recovering or was superseded — so every exchange runs as a
//! sequence of attempts under [`exchange`], and the survival rules live
//! here alone:
//!
//! * Each attempt re-resolves its target (the acting manager, the next
//!   healthy NSD server, ...), so a retry follows a failover. An attempt
//!   that lands on a different node than the one before logs `FailedOver`.
//! * Each attempt runs under a watchdog, a cancellable timer
//!   ([`Sim::timer_after`]) of `costs.request_timeout`. The answer cancels
//!   it on arrival, so a completed exchange leaves nothing queued. An
//!   answer that arrives after its watchdog fired finds the cancel refused
//!   and is dropped: the retry owns the exchange.
//! * An attempt whose request never left — a link on its path was down
//!   when it was sent — sends it again every `costs.retry_base` until it
//!   leaves or the watchdog fires, the rule a recall follows too. A
//!   request that left and is lost further on is the watchdog's to find.
//! * A fired watchdog logs `TimeoutDetected` and retries after a bounded
//!   exponential backoff with seeded jitter. Once `costs.max_retries`
//!   retries are spent it ends the exchange with [`FsError::Timeout`].
//! * The completion callback sits in a one-shot slot that every attempt
//!   shares, so it runs exactly once: with the answer, with the outcome
//!   target resolution ended the exchange on (no healthy server left is
//!   `ServerDown`), or with `Timeout`.
//!
//! The server side stays with each caller. A server that cannot answer
//! drops the request, and the watchdog is how the client learns.

use crate::client::Cb;
use crate::faults::RecoveryWhat;
use crate::types::{ClientId, FsError};
use crate::world::GfsWorld;
use rand::Rng;
use simcore::{Sim, SimDuration, TimerId};
use simnet::NodeId;
use std::cell::{Cell, RefCell};
use std::ops::ControlFlow;
use std::rc::Rc;

/// Where one attempt goes: `Continue` with the node to ask, or `Break`
/// with an outcome that ends the exchange without asking anyone.
pub(crate) type Target<T> = ControlFlow<Result<T, FsError>, NodeId>;

/// State shared by every attempt of one exchange.
struct Exchange<T> {
    client: ClientId,
    /// The one-shot completion slot.
    done: RefCell<Option<Cb<Result<T, FsError>>>>,
    target: RefCell<Box<dyn FnMut(&mut GfsWorld, u32) -> Target<T>>>,
    send: RefCell<Box<dyn FnMut(&mut Sim<GfsWorld>, &mut GfsWorld, Attempt<T>) -> bool>>,
}

impl<T> Exchange<T> {
    fn finish(&self, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, r: Result<T, FsError>) {
        let cb = self.done.borrow_mut().take();
        if let Some(cb) = cb {
            cb(sim, w, r);
        }
    }
}

/// Start an exchange on behalf of `client`. Every attempt calls `target`
/// with its number (0 for the first) to resolve where it goes, arms its
/// watchdog, then calls `send` to put its request on the wire; `send`
/// returns whether the request left. The answer reaches `done` through
/// [`Attempt::reply`] or [`Attempt::claim`].
pub(crate) fn exchange<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    target: impl FnMut(&mut GfsWorld, u32) -> Target<T> + 'static,
    send: impl FnMut(&mut Sim<GfsWorld>, &mut GfsWorld, Attempt<T>) -> bool + 'static,
    done: Cb<Result<T, FsError>>,
) {
    let ex = Rc::new(Exchange {
        client,
        done: RefCell::new(Some(done)),
        target: RefCell::new(Box::new(target)),
        send: RefCell::new(Box::new(send)),
    });
    attempt(sim, w, ex, 0, None);
}

fn attempt<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ex: Rc<Exchange<T>>,
    n: u32,
    prev: Option<NodeId>,
) {
    let target = (ex.target.borrow_mut())(w, n);
    let to = match target {
        ControlFlow::Continue(to) => to,
        ControlFlow::Break(outcome) => {
            ex.finish(sim, w, outcome);
            return;
        }
    };
    if let Some(from) = prev.filter(|&p| p != to) {
        w.recovery.log(
            sim.now(),
            RecoveryWhat::FailedOver {
                client: ex.client,
                from,
                to,
            },
        );
    }
    let watchdog = arm(sim, &ex, to, n, w.costs.request_timeout);
    send(sim, w, ex, to, n, watchdog);
}

/// Put attempt `n`'s request on the wire; while it does not leave, again
/// every `retry_base` until it does or the attempt's watchdog fires.
fn send<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ex: Rc<Exchange<T>>,
    to: NodeId,
    n: u32,
    watchdog: TimerId,
) {
    let a = Attempt {
        ex: ex.clone(),
        watchdog: Cell::new(watchdog),
        to,
        n,
    };
    if (ex.send.borrow_mut())(sim, w, a) {
        return;
    }
    sim.after(w.costs.retry_base, move |sim, w| {
        if sim.timer_live(watchdog) {
            send(sim, w, ex, to, n, watchdog);
        }
    });
}

/// Arm attempt `n`'s watchdog: on firing, retry after a backoff or, with
/// the budget spent, end the exchange with `Timeout`.
fn arm<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    ex: &Rc<Exchange<T>>,
    to: NodeId,
    n: u32,
    after: SimDuration,
) -> TimerId {
    let ex = ex.clone();
    sim.timer_after(after, move |sim, w| {
        w.recovery.log(
            sim.now(),
            RecoveryWhat::TimeoutDetected {
                client: ex.client,
                server: to,
            },
        );
        if n >= w.costs.max_retries {
            ex.finish(sim, w, Err(FsError::Timeout));
            return;
        }
        let delay = backoff_delay(w, n);
        sim.after(delay, move |sim, w| attempt(sim, w, ex, n + 1, Some(to)));
    })
}

/// Backoff delay before retry `n + 1`: `retry_base * 2^n`, scaled by a
/// deterministic jitter in `[0.5, 1.5)` drawn from the world's seeded RNG
/// (so colliding clients decorrelate but reruns reproduce).
fn backoff_delay(w: &mut GfsWorld, n: u32) -> SimDuration {
    let jitter = 0.5 + w.rng.gen::<f64>();
    let scale = (1u64 << n.min(16)) as f64;
    SimDuration::from_secs_f64(w.costs.retry_base.as_secs_f64() * scale * jitter)
}

/// One attempt of an exchange, handed to the exchange's `send` and carried
/// along its messages to wherever the answer arrives.
pub(crate) struct Attempt<T> {
    ex: Rc<Exchange<T>>,
    watchdog: Cell<TimerId>,
    /// The node this attempt asks.
    pub(crate) to: NodeId,
    /// 0 for the first attempt, `k` for the `k`-th retry.
    pub(crate) n: u32,
}

impl<T: 'static> Attempt<T> {
    /// Take the exchange for this attempt's answer: cancel the watchdog
    /// and hand over the completion callback. `None` when the watchdog
    /// already fired — a retry owns the exchange and this late answer must
    /// change nothing.
    pub(crate) fn claim(&self, sim: &mut Sim<GfsWorld>) -> Option<Cb<Result<T, FsError>>> {
        if !sim.cancel_timer(self.watchdog.get()) {
            return None;
        }
        self.ex.done.borrow_mut().take()
    }

    /// Answer the exchange with `r`, unless a retry owns it.
    pub(crate) fn reply(&self, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, r: Result<T, FsError>) {
        if let Some(cb) = self.claim(sim) {
            cb(sim, w, r);
        }
    }

    /// Swap the watchdog for a fuse of length `after` that retries the
    /// same way. Does nothing when the watchdog already fired.
    pub(crate) fn rearm(&self, sim: &mut Sim<GfsWorld>, after: SimDuration) {
        if sim.cancel_timer(self.watchdog.get()) {
            self.watchdog
                .set(arm(sim, &self.ex, self.to, self.n, after));
        }
    }
}
