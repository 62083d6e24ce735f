//! # ats-runtime
//!
//! The execution substrate shared by all ATS-RS simulators.
//!
//! The APART Test Suite (ATS) paper constructs synthetic parallel programs
//! whose *timing structure* is the payload: a `late_sender` program is only a
//! valid test case if the even ranks really do post their sends late by the
//! programmed amount. The original C prototype obtained this behaviour with a
//! calibrated busy loop on a real machine; the calibration is explicitly
//! described as approximate ("up to a certain degree ... not guaranteed to be
//! stable especially under heavy work load", paper §3.1.1).
//!
//! This crate provides the two ingredients that let ATS-RS strengthen that
//! guarantee while keeping the paper's approach available:
//!
//! * **Virtual time** ([`VTime`], [`VDur`]): every simulated participant
//!   (MPI rank, OpenMP thread) carries a virtual clock measured in integer
//!   nanoseconds. Work advances the clock exactly; communication advances it
//!   according to a [`MachineModel`] (a LogGP-style cost model). All
//!   timestamps are pure functions of the program and its parameters, so
//!   every experiment is bit-reproducible.
//! * **Calibrated real work** ([`work::WorkEngine`] in `Real` mode): a
//!   faithful port of the paper's `do_work` busy loop — random reads and
//!   writes over two large arrays, driven by a lock-free splittable RNG
//!   ([`rng::SplitMix64`]), with an installation-time calibration phase.
//!
//! Higher layers (the MPI and OpenMP substrates) consume both: virtual mode
//! for correctness experiments and unit tests, real mode for wall-clock
//! benchmarking of the suite itself.

//! A third ingredient, the **discrete-event scheduler** ([`sched`]), turns
//! each simulated participant into a cheap coroutine driven from a
//! virtual-clock event queue, so one process can host 10k+ ranks; the
//! per-rank OS-thread backend remains available behind [`SimBackend`] as a
//! differential-testing oracle.

pub mod model;
pub mod rendezvous;
pub mod rng;
pub mod sched;
pub mod sync;
pub mod time;
pub mod work;

pub use model::MachineModel;
pub use rendezvous::Rendezvous;
pub use rng::SplitMix64;
pub use sched::{SchedStats, SimBackend};
pub use time::{VDur, VTime};
pub use work::{WorkEngine, WorkMode};
