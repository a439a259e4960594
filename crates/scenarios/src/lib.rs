//! # scenarios — the paper's testbeds, assembled and calibrated
//!
//! One module per deployment the paper describes, each exposing a typed
//! `Config`/`run()` pair that builds the topology, drives the workload and
//! returns the measured series/summaries the corresponding figure shows:
//!
//! | Module | Paper section | Reproduces |
//! |---|---|---|
//! | [`sc02`] | §2, Figs. 1–2 | FCIP-extended SAN, ~720 MB/s at 80 ms RTT |
//! | [`sc03`] | §3, Figs. 3–5 | native WAN-GPFS, 8.96 Gb/s peak, restart dip |
//! | [`sc04`] | §4, Figs. 6–8 | 3×10 GbE StorCloud prototype, ~24 Gb/s aggregate |
//! | [`production`] | §5, Figs. 9–11 | 0.5 PB SATA build, MPI-IO scaling, ANL |
//! | [`deisa`] | §7, Fig. 12 | 4-site multi-cluster mesh at 1 Gb/s |
//! | [`ablations`] | DESIGN.md A2/A3 + §6 | GridFTP staging comparison, block/pipeline sweep, auth handshake cost |
//!
//! Nothing in these scenarios hard-codes a paper number as an output —
//! results emerge from link rates, protocol efficiencies, credit/TCP
//! windows, RAID service models and the workload structure. Calibration
//! constants (efficiencies, jitter) are declared in each `Config` and
//! documented in `EXPERIMENTS.md`.

#![allow(clippy::type_complexity)] // Sim callback signatures are inherent to the event-driven style
#![allow(clippy::too_many_arguments)]
pub mod ablations;
pub mod builder;
mod chain;
pub mod chaos;
pub mod common;
pub mod driver;
pub mod metadata_storm;
pub mod deisa;
pub mod parallel;
pub mod production;
pub mod recovery;
pub mod replication;
pub mod sc02;
pub mod sc03;
pub mod sc04;
pub mod teragrid;
pub mod trace;

pub use builder::{NsdFarm, ScenarioBuilder, ScenarioRun, Workload};
