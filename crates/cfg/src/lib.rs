//! # soccar-cfg
//!
//! Asynchronous-Reset CFG extraction for the SoCCAR reproduction — the
//! paper's Algorithms 1 and 2 plus reset-domain analysis and design
//! binding:
//!
//! * [`reset_id`] — reset-signal identification (naming convention per the
//!   paper's footnote 1, plus structural inference);
//! * [`extract`] — per-module CFG of hardware events and its projection to
//!   the AR_CFG (`AR[M_i]`), in both [`extract::GovernorAnalysis`] modes:
//!   `Explicit` (the published tool, which misses implicit governors — the
//!   Section V-C SHA256 case) and `Refined` (the proposed extension);
//! * [`connect`] — module connection profiles (`CN[M_i]`, Algorithm 2);
//! * [`compose`] — the SoC-level `AR(S) = AR[M_1] ‖ … ‖ AR[M_k]` with
//!   reset domains traced to their sources;
//! * [`bind`] — resolution of extracted events onto the elaborated design
//!   (processes, branch sites, nets) for the concolic engine.
//!
//! # Examples
//!
//! ```
//! use soccar_cfg::{compose::compose_soc, extract::GovernorAnalysis, reset_id::ResetNaming};
//! use soccar_rtl::{parser::parse, span::FileId};
//!
//! let unit = parse(FileId(0), "
//!   module ip(input clk, input rst_n, output reg q);
//!     always @(posedge clk or negedge rst_n)
//!       if (!rst_n) q <= 1'b0; else q <= 1'b1;
//!   endmodule
//!   module top(input clk, input sys_rst_n);
//!     ip u (.clk(clk), .rst_n(sys_rst_n));
//!   endmodule").expect("parse");
//! let soc = compose_soc(&unit, "top", &ResetNaming::new(), GovernorAnalysis::Explicit)
//!     .expect("compose");
//! assert_eq!(soc.reset_domains.len(), 1);
//! assert_eq!(soc.event_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bind;
pub mod compose;
pub mod connect;
pub mod extract;
pub mod reset_id;

pub use bind::{bind_events, bind_events_traced, BindError, BoundEvent};
pub use compose::{compose_soc, compose_soc_resilient, ResetDomain, SocArCfg};
pub use connect::{
    connection_profiles, connection_profiles_with, ChildConn, ConnectionProfile, ResetTable,
    SignalConn,
};
pub use extract::{
    assigned_signals, extract_all, extract_all_jobs, extract_all_resilient, extract_module_cfg,
    extract_module_cfg_with, project_ar_cfg, tests_clock_level, ArCfg, EventArm, Governor,
    GovernorAnalysis, HardwareEvent, ModuleCfg,
};
pub use reset_id::{
    identify_resets, leading_condition_tests, leading_if, looks_like_reset_name,
    name_suggests_active_low, ResetEvidence, ResetNaming, ResetSignal,
};
