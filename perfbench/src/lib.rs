//! The zodiac benchmark: one command that runs the `pipeline-600`,
//! `daemon-read` and `daemon-churn` workloads against the library's public
//! entry points, checks their outputs, and reports end-to-end metrics, or,
//! in a traced run, per-layer metrics. See `README.md` in this directory.

pub mod daemon;
pub mod host;
pub mod pipeline;
pub mod report;
pub mod rng;
pub mod stats;
pub mod timed;
pub mod verify;
