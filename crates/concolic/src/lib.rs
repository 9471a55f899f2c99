//! # soccar-concolic
//!
//! The reset-aware concolic testing engine of the SoCCAR reproduction —
//! the paper's Algorithm 3:
//!
//! * [`coalg`] — the co-simulation algebra pairing concrete 4-state values
//!   with symbolic bit-vector terms and logging branch observations, and
//!   the concrete coverage algebra the reset sweep runs on;
//! * [`schedule`] — cycle-indexed test schedules (reset pulses + symbolic
//!   data inputs), randomized for round 1 and rebuilt from solver models;
//! * [`property`] — the security "Restricts" checked every cycle, emitting
//!   invalidation messages that name the violating module;
//! * [`engine`] — the round loop: co-simulate, check properties, measure
//!   AR_CFG event coverage, flip uncovered branches through the solver,
//!   and sweep asynchronous reset pulses across the cycle space in
//!   parallel.
//!
//! # Examples
//!
//! See [`engine::ConcolicEngine`] and the crate-level integration tests;
//! the typical entry point is the `soccar` crate's pipeline, which wires
//! extraction, binding and this engine together.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coalg;
pub mod engine;
pub mod property;
pub mod schedule;

pub use coalg::{
    BranchCoverage, BranchObservation, CoAlgebra, CoValue, CoverageAlgebra, RoundAlgebra,
};
pub use engine::{
    ConcolicConfig, ConcolicEngine, ConcolicReport, FlipWorkload, RoundRun, SweepPosition, Witness,
    MAX_CYCLES,
};
pub use property::{PropertyKind, PropertyMonitor, SecurityProperty, Violation};
pub use schedule::{InputTrack, ResetTrack, TestSchedule};
