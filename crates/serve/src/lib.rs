//! # soccar-serve
//!
//! The long-lived analysis daemon behind `soccar serve`, plus the
//! `soccar` command-line binary itself.
//!
//! A [`Server`] wraps one [`soccar::incremental::AnalysisSession`]:
//! in-memory, per-design caches keyed by content hash, so an RTL edit
//! re-parses only the modules that changed and re-runs only the pipeline
//! stages whose inputs changed. Editors and CI talk to it through a
//! [`Client`] over a small length-prefixed JSON protocol ([`proto`]) with
//! four commands — `analyze`, `lint`, `status`, `shutdown` — and every
//! `analyze` body is **byte-identical** to `soccar analyze --json` on the
//! same input, so warm-cache serving never changes results.
//!
//! ```text
//! soccar client ── frame ─▶ Server ── Mutex ─▶ AnalysisSession ─▶ pipeline
//!        ◀─ envelope+body ─┘            (content-hashed cache tiers)
//! ```
//!
//! Protocol and cache-invalidation reference: `docs/SERVER.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{read_frame, write_frame, Envelope, Request, MAX_FRAME};
pub use server::{resolve_request, Server, ServerOptions, StatusBody};
pub use soccar::TierSizes;
pub use soccar_obs::json::Json;
