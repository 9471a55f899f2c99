//! # soccar-sim
//!
//! Event-driven RTL simulator for the SoCCAR reproduction, with first-class
//! support for **asynchronous reset domains**: reset-sensitive processes
//! fire the instant a reset edge occurs, independent of any clock, which is
//! precisely the behaviour SoCCAR (DAC 2021) validates.
//!
//! The interpreter is generic over a value [`algebra::Algebra`], so the
//! identical execution path drives:
//!
//! * pure concrete simulation ([`Simulator::concrete`]), and
//! * the concolic co-simulation of `soccar-concolic`, whose algebra pairs
//!   every value with an optional symbolic term and records path
//!   constraints through the [`algebra::Algebra::on_branch`] hook.
//!
//! The concrete algebra records `(site, direction)` branch coverage in a
//! [`BranchCoverage`] set. Waveform output lives in [`vcd`]. The cycle
//! driver (clocks, input schedules, asynchronous reset pulses at
//! arbitrary cycles) is the concolic engine's: every concrete and
//! concolic round, and every witness replay, runs through it.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soccar_sim::{InitPolicy, Simulator};
//! use soccar_rtl::LogicVec;
//!
//! let (design, _) = soccar_rtl::compile("m.v", "
//!   module m(input clk, input rst_n, output reg [7:0] secret);
//!     always @(posedge clk or negedge rst_n)
//!       if (!rst_n) secret <= 8'd0;
//!       else        secret <= 8'hA5;
//!   endmodule", "m")?;
//!
//! // SoCCAR's all-ones register policy: uncleared state is visible.
//! let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
//! let rst = design.find_net("m.rst_n").expect("rst");
//! let secret = design.find_net("m.secret").expect("secret");
//! sim.write_input(rst, LogicVec::from_u64(1, 0))?;
//! sim.settle()?;
//! assert_eq!(sim.net_logic(secret).to_u64(), Some(0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algebra;
pub mod error;
pub mod sim;
pub mod vcd;

pub use algebra::{Algebra, BranchCoverage, ConcreteAlgebra};
pub use error::{SimError, SimResult};
pub use sim::{InitPolicy, Simulator, TraceEvent, WakeMap};
