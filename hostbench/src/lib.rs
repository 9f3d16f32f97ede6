//! Host-side benchmark of the Enzian simulator.
//!
//! Four workloads run through the public `enzian-platform` entry
//! points. An untraced run reports end-to-end host throughput and
//! set-up time, both scaled by a reference loop timed around every batch
//! ([`speed`]), and memory and allocations, after a correctness gate; a
//! traced run reports per-layer figures by timing calls into each
//! layer's public functions from this crate's own copies of the
//! platform's private board shards. `BASELINE.md` records why each
//! workload was chosen, which metric each layer should move, and the
//! first baseline.

pub mod alloc;
pub mod coherence;
pub mod measure;
pub mod speed;
pub mod trace;
pub mod traced;
pub mod traffic;
pub mod workload;
