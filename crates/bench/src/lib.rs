//! # mpps-bench — the harness that regenerates every table and figure
//!
//! [`experiments`] defines one function per artifact of the paper's §5
//! evaluation; the `repro` binary prints them and the criterion benches in
//! `benches/` time them (plus the design-choice ablations called out in
//! DESIGN.md). [`adapt`] is the live closed-skew-loop scenario shared by
//! the `matchkernel` manifest, the `repro adapt` figure, and the adapt
//! smoke test; [`sections`] holds the match-kernel bench sections.

pub mod adapt;
pub mod experiments;
pub mod sections;
pub mod telemetry;
