//! End-to-end and per-layer benchmark of the fdpcache stack.
//!
//! `main.rs` is the command line; README.md explains the workloads, the
//! metrics and how to read a traced run.

pub mod drive;
pub mod layers;
pub mod run;
pub mod shadow;
pub mod spec;
pub mod stack;
pub mod timing;
