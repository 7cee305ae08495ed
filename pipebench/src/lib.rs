//! Helpers of the MemGaze pipeline benchmark: order statistics, the span
//! tracer and the per-layer ledger built from it, the report renderer and
//! its digest, and the metric tables and JSON result line.
//!
//! The workloads themselves live in the `memgaze-pipebench` binary; see
//! `README.md` in this directory for what each one measures and why.

pub mod ledger;
pub mod metrics;
pub mod report;
pub mod stats;

pub use ledger::{self_times, Ledger, Row, Span, Tracer};
pub use metrics::{result_line, Host, Metric, END_TO_END, PER_LAYER};
pub use report::{digest, render_report};
pub use stats::{median, percentile, percentile_with_tail, samples_beyond};
