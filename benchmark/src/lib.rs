//! End-to-end and per-layer benchmark of the eLSM stack.
//!
//! Each named workload ([`workloads::all`]) bulk-loads a store or cluster
//! and drives a YCSB mix from 8 virtual closed-loop clients on one real
//! thread. The untraced run reports end-to-end metrics in two clocks: the
//! *virtual* SGX cost model and the *wall* time the code takes, normalised
//! to a reference host's speed ([`yardstick`]). The traced run reports
//! per-layer metrics, measured from outside: spans around the benchmark's
//! own calls into each layer's public functions, and the public counters
//! of every node. Every verified answer is checked against an oracle. See
//! `README.md` for the workloads and metrics.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod counters;
pub mod layers;
pub mod oracle;
pub mod run;
pub mod stats;
pub mod system;
pub mod trace;
pub mod workloads;
pub mod yardstick;
