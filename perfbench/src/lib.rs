//! `perfbench` — the repository's wall-clock benchmark.
//!
//! Three workloads (`fig6`, `callheavy-farm`, `warpd-mix`) are built
//! from a seed, run as a closed loop for a fixed time, checked for
//! correct output, and reported as end-to-end metrics. A separate
//! traced run times every layer from outside, through the crates'
//! public functions, records the spans in a `warp_obs` trace, and
//! derives the per-layer metrics from that trace. See `README.md`.

pub mod calib;
pub mod check;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod report;
pub mod workloads;
