//! A software model of Intel Processor Tracing with `ptwrite`, the
//! measurement substrate of MemGaze (paper §III).
//!
//! The real system pins a circular buffer that `ptwrite` fills without OS
//! intervention, triggers a sample every `w+z` loads, and suffers
//! bandwidth-limited copies (perf drops 30–50% of a full trace). Every
//! one of those mechanisms is modeled here:
//!
//! * [`packet`] — PTW/TSC/PSB packet sizes and accounting (including the
//!   compact 32-bit payload ablation);
//! * [`buffer`] — the fixed-size circular buffer with the kernel's
//!   async-fill yield artifact (16 KiB ≈ 1150 addresses, 8 KiB ≈ 500),
//!   holding packets or whole accesses;
//! * [`guard`] — hardware IP-range filters (region of interest without
//!   re-instrumentation);
//! * [`collector`] — the sampling trigger with its continuous vs.
//!   sample-only enable window and the token-bucket drop model, shared by
//!   every sampler, plus the sampled and full perf-like packet collectors;
//! * [`decode`] — packet-group decoding back to effective addresses using
//!   the instrumentor's annotations (Analysis/1, "trace building");
//! * [`stream`] — front-ends over the same buffer, trigger and token
//!   bucket for pre-decoded load streams (the application-workload path);
//! * [`timetrigger`] — the cycle-triggered sampler (the accuracy foil for
//!   load-based triggering);
//! * [`overhead`] — the Fig. 7 time-overhead model;
//! * [`runner`] — end-to-end drivers over instrumented IR modules.

pub mod buffer;
pub mod collector;
pub mod decode;
pub mod guard;
pub mod overhead;
pub mod packet;
pub mod runner;
pub mod stream;
pub mod timetrigger;

pub use buffer::CircBuffer;
pub use collector::{
    BandwidthModel, FullCollector, PtMode, RawSample, RawSampledTrace, SampledCollector,
    SamplerConfig,
};
pub use decode::{decode_full, decode_sampled, DecodeOutcome};
pub use guard::IpGuards;
pub use overhead::{OverheadEstimate, OverheadModel, RunProfile};
pub use packet::{PacketStats, PtwPacket};
pub use runner::{collect_full, collect_sampled, ground_truth, RunStats};
pub use stream::{SamplerObservation, StreamFull, StreamSampler, StreamStats};
pub use timetrigger::TimeStreamSampler;
