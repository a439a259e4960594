//! # simcore — deterministic discrete-event simulation engine
//!
//! The substrate under every other crate in this workspace. The paper's
//! systems (WAN links, Fibre Channel fabrics, RAID controllers, the parallel
//! filesystem itself) all run on top of this engine: a priority queue of
//! timestamped actions over a user-supplied world type `W`.
//!
//! Design points:
//!
//! * **Determinism.** Simulated time is [`SimTime`], a `u64` nanosecond
//!   counter. All randomness flows through seeded [`rand::rngs::StdRng`]
//!   instances created by [`rng::det_rng`]. Two runs with the same seed and
//!   configuration produce bit-identical results.
//! * **Closure events.** An event is `FnOnce(&mut Sim<W>, &mut W)`. The
//!   engine removes the event from the heap before invoking it, so handlers
//!   may freely schedule follow-up events. Ties in time break by insertion
//!   order (a monotone sequence number), which keeps FIFO semantics for
//!   same-instant events.
//! * **No wall clock.** Nothing in this crate (or its dependents) reads the
//!   host clock; all timestamps come from the engine.

pub mod fxhash;
pub mod join;
pub mod rng;
pub mod series;
pub mod sim;
pub mod stats;
pub mod time;
pub mod units;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use join::Join;
pub use rng::det_rng;
pub use series::{Dip, RateSeries, SeriesPoint, TimeSeries};
pub use sim::{Action, Sim, TimerId};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteSize, GBIT, GBYTE, KBYTE, MBIT, MBYTE, TBYTE};
