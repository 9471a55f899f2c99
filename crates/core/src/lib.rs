//! # soccar
//!
//! A from-scratch Rust reproduction of **SoCCAR: Detecting System-on-Chip
//! Security Violations Under Asynchronous Resets** (DAC 2021).
//!
//! SoCCAR detects security violations caused by *partial asynchronous
//! resets* — a register that should have been scrubbed, an address-range
//! guard that should have been re-armed, a privilege FSM knocked into an
//! undefined state — by (1) extracting the Asynchronous-Reset CFG from the
//! RTL, (2) composing it across the SoC's module hierarchy and reset
//! domains, and (3) driving concolic testing over the extracted space
//! while checking security properties.
//!
//! This crate is the facade: [`Soccar`] runs the Figure 1 pipeline on any
//! Verilog source (with a `soccar-lint` static pre-pass ahead of the
//! concolic stage), and [`evaluation`] reruns the paper's
//! red-team/blue-team experiment on the bundled ClusterSoC/AutoSoC
//! benchmarks.
//!
//! ```text
//! Verilog ─▶ soccar-rtl ─▶ soccar-cfg (Alg. 1–2) ─▶ soccar-concolic (Alg. 3)
//!                 │    └──▶ soccar-lint (pre-pass)       │
//!                 └────────── soccar-sim ◀───────────────┘
//!                                 │
//!                            soccar-smt
//! ```
//!
//! # Examples
//!
//! Detect an unscrubbed key register:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soccar::{Soccar, SoccarConfig};
//! use soccar_concolic::{PropertyKind, SecurityProperty};
//! use soccar_rtl::LogicVec;
//!
//! let buggy = "
//!   module aes(input clk, input rst_n, output reg [7:0] key);
//!     always @(posedge clk or negedge rst_n)
//!       if (!rst_n) key <= key;     // BUG: reset fails to clear the key
//!       else key <= 8'hA5;
//!   endmodule
//!   module top(input clk, input crypto_rst_n);
//!     aes u (.clk(clk), .rst_n(crypto_rst_n));
//!   endmodule";
//! let property = SecurityProperty {
//!     name: "aes-key-cleared".into(),
//!     module: "aes".into(),
//!     kind: PropertyKind::ClearedAfterReset {
//!         domain: "top.crypto_rst_n".into(),
//!         signal: "top.u.key".into(),
//!         expected: LogicVec::zeros(8),
//!         window: 0,
//!     },
//! };
//! let report = Soccar::new(SoccarConfig::default())
//!     .analyze("t.v", buggy, "top", vec![property])?;
//! assert_eq!(report.violations().len(), 1);
//! assert_eq!(report.violations()[0].module, "aes");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod error;
pub mod evaluation;
pub mod incremental;
pub mod json;
pub mod pipeline;

pub use error::SoccarError;
pub use evaluation::{
    evaluate_clean, evaluate_generated, evaluate_generated_traced, evaluate_variant, manifest_json,
    property_of, score_generated, BugOutcome, Campaign, CampaignRow, GeneratedEvaluation,
    GeneratedRecall, VariantEvaluation,
};
pub use incremental::{AnalysisSession, RequestStats, SessionCounters, TierSizes};
pub use pipeline::{
    AnalysisReport, CanonicalReport, ExecSummary, ExtractionSummary, Health, Soccar, SoccarConfig,
    StageReport,
};
