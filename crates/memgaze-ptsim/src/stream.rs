//! Collection from pre-decoded load streams.
//!
//! The application workloads (miniVite, GAP, Darknet) run as native Rust
//! against a traced address space rather than through the IR interpreter;
//! they emit loads tagged with a static site ip and instrumentation
//! metadata. [`StreamSampler`] and [`StreamFull`] collect such streams on
//! the same circular buffer, trigger, enable window and token bucket as
//! the packet-level collectors, producing the same
//! [`SampledTrace`]/[`FullTrace`] the decoder yields on the packet path.
//! The buffer holds whole accesses, each costing one PTW packet per
//! source register; unlike the packet path, no TSC/PSB sideband bytes
//! are charged to the buffer and the snapshot yield applies per access
//! rather than per packet.

use crate::buffer::CircBuffer;
use crate::collector::{BandwidthModel, SamplerConfig, TokenBucket, Trigger};
use crate::guard::IpGuards;
use crate::packet::{PacketStats, PTW_BYTES};
use memgaze_model::{Access, Addr, FullTrace, Ip, Sample, SampledTrace, TraceMeta};

/// Sampled collection over a decoded load stream.
#[derive(Debug)]
pub struct StreamSampler {
    cfg: SamplerConfig,
    /// Buffered accesses (two-source loads carry two packets).
    buf: CircBuffer<Access>,
    trigger: Trigger,
    loads: u64,
    samples: Vec<Sample>,
    stats: PacketStats,
    ptwrites_enabled: u64,
    ptwrites_executed: u64,
    /// Interval accounting since the last [`take_observation`]
    /// (`StreamSampler::take_observation`): packets enabled, bytes
    /// overwritten by buffer wrap, and the peak buffer fill.
    interval_enabled: u64,
    interval_overwritten_bytes: u64,
    interval_peak_bytes: u64,
}

impl StreamSampler {
    /// A sampler with the given configuration.
    pub fn new(cfg: SamplerConfig) -> StreamSampler {
        StreamSampler {
            buf: CircBuffer::new(cfg.buffer_bytes, cfg.yield_factor, cfg.seed),
            trigger: Trigger::new(&cfg),
            cfg,
            loads: 0,
            samples: Vec::new(),
            stats: PacketStats::default(),
            ptwrites_enabled: 0,
            ptwrites_executed: 0,
            interval_enabled: 0,
            interval_overwritten_bytes: 0,
            interval_peak_bytes: 0,
        }
    }

    /// Feed one executed load. `instrumented` marks loads that carry
    /// `ptwrite`s; `packets` is the number of source registers (1 or 2).
    pub fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        let time = self.loads;
        if instrumented {
            let packets = u64::from(packets);
            self.ptwrites_executed += packets;
            if self.trigger.enabled(time) && self.cfg.guards.allows(ip) {
                self.ptwrites_enabled += packets;
                self.interval_enabled += packets;
                self.stats.add_ptw(packets);
                let access = Access {
                    ip,
                    addr: Addr(addr),
                    time,
                };
                let cost = packets * self.cfg.packet_bytes();
                self.interval_overwritten_bytes += self.buf.push(access, cost);
                self.interval_peak_bytes = self.interval_peak_bytes.max(self.buf.used_bytes());
            }
        }
        self.loads += 1;
        if self.trigger.fire(self.loads) {
            self.samples
                .push(Sample::new(self.buf.snapshot(), self.loads));
        }
    }

    /// Number of completed samples awaiting collection.
    pub fn completed_samples(&self) -> usize {
        self.samples.len()
    }

    /// Drain the samples completed so far without ending collection —
    /// the streaming ingest path encodes them shard-by-shard as they
    /// appear instead of letting the whole trace pile up here.
    pub fn take_completed(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }

    /// Drain the interval accounting since the previous call: how many
    /// packets were enabled, how many were overwritten by buffer wrap
    /// before a snapshot could save them, and the peak buffer fill.
    /// This is the feedback signal the watch controller observes.
    pub fn take_observation(&mut self) -> SamplerObservation {
        let obs = SamplerObservation {
            enabled_packets: self.interval_enabled,
            // Every access costs whole packets, so bytes divide exactly.
            overwritten_packets: self.interval_overwritten_bytes / self.cfg.packet_bytes(),
            peak_used_bytes: self.interval_peak_bytes,
            buffer_bytes: self.cfg.buffer_bytes,
        };
        self.interval_enabled = 0;
        self.interval_overwritten_bytes = 0;
        self.interval_peak_bytes = self.buf.used_bytes();
        obs
    }

    /// Retune the sampling knobs mid-run: period (`w + z`), buffer
    /// capacity, and the hardware address-range guards. The next
    /// trigger is re-derived from the new period so a shrunk period
    /// takes effect immediately instead of after the old interval.
    pub fn retune(&mut self, period: u64, buffer_bytes: u64, guards: IpGuards) {
        self.cfg.buffer_bytes = buffer_bytes.max(self.cfg.packet_bytes());
        self.cfg.guards = guards;
        self.trigger.retune(period, &self.cfg, self.loads);
        self.cfg.period = self.trigger.period();
        self.buf.set_capacity(self.cfg.buffer_bytes);
    }

    /// The sampling configuration currently in force (post-retune).
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// Finish, returning the trace parts instead of an assembled trace:
    /// final metadata, any samples not yet drained (including the
    /// flushed trailing partial sample), and collection stats.
    pub fn finish_parts(mut self, workload: &str) -> (TraceMeta, Vec<Sample>, StreamStats) {
        if !self.buf.is_empty() {
            self.samples
                .push(Sample::new(self.buf.snapshot(), self.loads));
        }
        let mut meta = TraceMeta::new(workload, self.cfg.period, self.cfg.buffer_bytes);
        meta.total_loads = self.loads;
        meta.total_instrumented_loads = self.ptwrites_executed;
        let stats = StreamStats {
            packets: self.stats,
            total_loads: self.loads,
            ptwrites_executed: self.ptwrites_executed,
            ptwrites_enabled: self.ptwrites_enabled,
        };
        (meta, self.samples, stats)
    }

    /// Finish: flush a trailing partial sample and build the trace.
    pub fn finish(self, workload: &str) -> (SampledTrace, StreamStats) {
        let (meta, samples, stats) = self.finish_parts(workload);
        let mut trace = SampledTrace::new(meta);
        for s in samples {
            trace.push_sample(s).expect("samples are produced in order");
        }
        (trace, stats)
    }
}

/// Accounting from a stream collection run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Packet/byte accounting.
    pub packets: PacketStats,
    /// Loads fed.
    pub total_loads: u64,
    /// `ptwrite`s the instrumented binary executed.
    pub ptwrites_executed: u64,
    /// `ptwrite`s executed while PT was enabled.
    pub ptwrites_enabled: u64,
}

/// One interval's feedback signal from the sampler: how hard the
/// circular buffer was pressed and how much was lost to overwrite.
/// Drained by [`StreamSampler::take_observation`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerObservation {
    /// Packets written while PT was enabled this interval.
    pub enabled_packets: u64,
    /// Packets evicted by buffer wrap before a snapshot saved them.
    pub overwritten_packets: u64,
    /// Peak circular-buffer fill (bytes) this interval.
    pub peak_used_bytes: u64,
    /// Buffer capacity in force at drain time.
    pub buffer_bytes: u64,
}

impl SamplerObservation {
    /// Fraction of enabled packets lost to overwrite (0 when idle).
    pub fn drop_rate(&self) -> f64 {
        if self.enabled_packets == 0 {
            0.0
        } else {
            self.overwritten_packets as f64 / self.enabled_packets as f64
        }
    }

    /// Peak buffer fill as a fraction of capacity.
    pub fn pressure(&self) -> f64 {
        if self.buffer_bytes == 0 {
            0.0
        } else {
            self.peak_used_bytes as f64 / self.buffer_bytes as f64
        }
    }
}

/// Full-trace collection over a decoded load stream, with the
/// token-bucket bandwidth model ('Rec' traces).
#[derive(Debug)]
pub struct StreamFull {
    bucket: TokenBucket,
    /// Kept accesses.
    pub accesses: Vec<Access>,
    /// Packet accounting.
    pub stats: PacketStats,
    loads: u64,
    dropped_accesses: u64,
}

impl StreamFull {
    /// Bandwidth-limited collection.
    pub fn new(bw: BandwidthModel) -> StreamFull {
        StreamFull {
            bucket: TokenBucket::new(bw),
            accesses: Vec::new(),
            stats: PacketStats::default(),
            loads: 0,
            dropped_accesses: 0,
        }
    }

    /// Ideal collection ('All' traces).
    pub fn unlimited() -> StreamFull {
        StreamFull::new(BandwidthModel::UNLIMITED)
    }

    /// Feed one executed load.
    pub fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        let time = self.loads;
        self.loads += 1;
        self.bucket.refill(1);
        if !instrumented {
            return;
        }
        let packets = u64::from(packets);
        self.stats.add_ptw(packets);
        let cost = packets as f64 * PTW_BYTES as f64;
        if self.bucket.take(cost, packets, &mut self.stats) {
            self.accesses.push(Access {
                ip,
                addr: Addr(addr),
                time,
            });
        } else {
            self.dropped_accesses += 1;
        }
    }

    /// Finish and build the full trace.
    pub fn finish(self, workload: &str) -> FullTrace {
        let mut meta = TraceMeta::new(workload, 0, 0);
        meta.total_loads = self.loads;
        meta.total_instrumented_loads = self.accesses.len() as u64 + self.dropped_accesses;
        let mut t = FullTrace::new(meta);
        t.accesses = self.accesses;
        t.dropped = self.dropped_accesses;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::PtMode;

    fn feed_n(s: &mut StreamSampler, n: u64) {
        for t in 0..n {
            s.on_load(Ip(0x400), 0x10_0000 + (t % 256) * 64, true, 1);
        }
    }

    #[test]
    fn drained_samples_match_monolithic_finish() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 1000;
        let mut whole = StreamSampler::new(cfg.clone());
        let mut drained = StreamSampler::new(cfg);
        let mut collected = Vec::new();
        for t in 0..10_000u64 {
            whole.on_load(Ip(0x400), 0x10_0000 + (t % 256) * 64, true, 1);
            drained.on_load(Ip(0x400), 0x10_0000 + (t % 256) * 64, true, 1);
            if drained.completed_samples() >= 3 {
                collected.extend(drained.take_completed());
            }
        }
        let (trace, whole_stats) = whole.finish("w");
        let (meta, tail, drained_stats) = drained.finish_parts("w");
        collected.extend(tail);
        assert_eq!(meta, trace.meta);
        assert_eq!(collected, trace.samples);
        assert_eq!(drained_stats.total_loads, whole_stats.total_loads);
    }

    #[test]
    fn stream_sampler_produces_periodic_samples() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 1000;
        let mut s = StreamSampler::new(cfg);
        feed_n(&mut s, 10_000);
        let (trace, stats) = s.finish("stream");
        assert!(trace.num_samples() >= 10);
        assert_eq!(stats.total_loads, 10_000);
        assert_eq!(trace.meta.total_loads, 10_000);
        // Sample windows reflect buffer capacity and yield factor, not
        // the whole period.
        assert!(trace.mean_window() < 1000.0);
        assert!(trace.mean_window() > 10.0);
    }

    #[test]
    fn uninstrumented_loads_count_but_do_not_record() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 100;
        let mut s = StreamSampler::new(cfg);
        for t in 0..1000u64 {
            s.on_load(Ip(0x400), t * 8, false, 1);
        }
        let (trace, stats) = s.finish("stream");
        assert_eq!(stats.total_loads, 1000);
        assert_eq!(trace.observed_accesses(), 0);
        assert!(trace.num_samples() >= 10); // triggers still fire
    }

    #[test]
    fn two_source_loads_cost_double() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 1 << 40; // never trigger: inspect buffer pressure only
        cfg.buffer_bytes = 200; // 20 single packets or 10 double
        let mut one = StreamSampler::new(cfg.clone());
        let mut two = StreamSampler::new(cfg);
        for t in 0..100u64 {
            one.on_load(Ip(0x1), t, true, 1);
            two.on_load(Ip(0x2), t, true, 2);
        }
        let (t1, _) = one.finish("a");
        let (t2, _) = two.finish("b");
        let w1 = t1.observed_accesses();
        let w2 = t2.observed_accesses();
        assert!(w2 < w1, "two-source loads must fill the buffer faster");
    }

    #[test]
    fn buffer_smaller_than_an_access_keeps_only_the_newest() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 100;
        cfg.buffer_bytes = 0;
        cfg.yield_factor = 1.0;
        let mut s = StreamSampler::new(cfg);
        for t in 0..1000u64 {
            s.on_load(Ip(0x400), t * 8, true, 2);
        }
        // Each of the 10 windows hands its last access (two packets) to
        // the snapshot; every other access was overwritten.
        let obs = s.take_observation();
        assert_eq!(obs.overwritten_packets, obs.enabled_packets - 10 * 2);
        let (trace, _) = s.finish("tiny");
        assert_eq!(trace.num_samples(), 10);
        for sample in &trace.samples {
            assert_eq!(sample.accesses.len(), 1);
            assert_eq!(sample.accesses[0].time, sample.trigger_time - 1);
        }
    }

    #[test]
    fn stream_full_drop_model() {
        let mut f = StreamFull::new(BandwidthModel::default());
        for t in 0..100_000u64 {
            f.on_load(Ip(0x1), t * 8, true, 2);
        }
        let trace = f.finish("w");
        assert!(trace.dropped > 0);
        let rate = trace.drop_rate();
        assert!((0.2..0.9).contains(&rate), "drop rate {rate}");

        let mut u = StreamFull::unlimited();
        for t in 0..10_000u64 {
            u.on_load(Ip(0x1), t * 8, true, 2);
        }
        assert_eq!(u.finish("w").dropped, 0);
    }

    #[test]
    fn sample_only_reduces_enabled_ptwrites() {
        let mut cfg = SamplerConfig::application(10_000);
        cfg.mode = PtMode::SampleOnly;
        let mut opt = StreamSampler::new(cfg.clone());
        let mut cont = StreamSampler::new(SamplerConfig {
            mode: PtMode::Continuous,
            ..cfg
        });
        for t in 0..100_000u64 {
            opt.on_load(Ip(0x1), t * 8, true, 1);
            cont.on_load(Ip(0x1), t * 8, true, 1);
        }
        let (_, so) = opt.finish("o");
        let (_, sc) = cont.finish("c");
        assert_eq!(so.ptwrites_executed, sc.ptwrites_executed);
        assert!(so.ptwrites_enabled * 3 < sc.ptwrites_enabled);
    }
}
