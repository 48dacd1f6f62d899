//! # slb-net — the engine's networked transport and multi-process runner
//!
//! The paper's load-balancing schemes exist to balance *distributed* stream
//! processing workers; this crate takes the reproduction's topology across
//! process boundaries. It implements the [`Transport`](slb_engine::Transport)
//! contract of `slb-engine` over TCP sockets and builds a small
//! multi-process deployment on top:
//!
//! * [`wire`] — the hand-rolled length-prefixed binary frame format for
//!   tuple batches, window punctuation, aggregate partials, and the
//!   `slb-node` control plane. Total decoding: malformed bytes are errors,
//!   never panics.
//! * [`tcp`] — [`TcpTransport`] and the framed sender/receiver handles. A
//!   drop-in backend for `Topology::run_windowed_on`: the cross-backend
//!   differential suite (`tests/backend_differential.rs`) proves merged
//!   windowed counts over TCP are bit-identical to the in-process backend
//!   and to the single-threaded exact reference.
//! * [`cluster`] — the cluster spec (`key value` text format) describing a
//!   run: an [`EngineConfig`](slb_engine::EngineConfig) or
//!   [`ScenarioConfig`](slb_engine::ScenarioConfig) plus node counts.
//! * [`node`] — the `slb-node` roles (source / worker / aggregator) and the
//!   orchestrator that spawns them, wires the sockets, and merges the
//!   stages' reports back into an [`EngineResult`](slb_engine::EngineResult):
//!   one `poll(2)` loop per process on the control plane, with the
//!   orchestrator's policy a process-free state machine (`supervisor.rs`).
//!
//! See `docs/DISTRIBUTED.md` for the wire format, the cluster spec, and the
//! equivalence argument.

pub mod cluster;
pub mod node;
mod orchestrator;
mod poll;
mod supervisor;
pub mod tcp;
pub mod wire;

pub use cluster::{ClusterSpec, RunSpec};
pub use tcp::{
    TcpPartialReceiver, TcpPartialSender, TcpTransport, TcpTupleReceiver, TcpTupleSender,
};
pub use wire::{ControlFrame, PartialFrame, TupleFrame, WireError};
