//! The repo benchmark's parts; `main.rs` is the command line around them and
//! `tests/quick.rs` checks their output against `BENCHMARK.json`. See
//! `README.md` beside `Cargo.toml`.

pub mod catalog;
pub mod json;
pub mod measure;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
