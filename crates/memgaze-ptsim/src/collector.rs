//! Perf-like collectors (paper Fig. 1, Step 2).
//!
//! [`SampledCollector`] implements the paper's sampled tracing: `ptwrite`
//! packets land in the circular buffer; a trigger every `w+z` executed
//! loads snapshots the buffer into a raw sample. In *continuous* mode
//! (current kernel support) PT generates packets all the time; in *opt*
//! mode (the paper's proof of concept) PT is enabled only during an
//! enable-window before each trigger, which the overhead model rewards.
//!
//! [`FullCollector`] models full-trace collection, where "the data copy
//! rate between PT's pinned kernel buffer and user memory is too high for
//! real-time, resulting in random drops of 30–50%" (§VI-A): a token-bucket
//! bandwidth model drops packets under pressure and emits DROP records.

use crate::buffer::{CircBuffer, DEFAULT_YIELD};
use crate::guard::IpGuards;
use crate::packet::{
    PacketStats, PtwPacket, PSB_BYTES, PSB_PERIOD, PTW_BYTES, TSC_BYTES, TSC_PERIOD,
};
use memgaze_isa::interp::EventSink;
use memgaze_model::Ip;
use serde::{Deserialize, Serialize};

/// Whether PT runs continuously or only during sample windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PtMode {
    /// PT enabled for the whole run ("suboptimal kernel support").
    Continuous,
    /// PT enabled only while the buffer should fill before each trigger
    /// (MemGaze-opt).
    SampleOnly,
}

/// Collection configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Sampling period `w+z` in executed loads.
    pub period: u64,
    /// Circular buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// Use 32-bit compact PTW payloads.
    pub compact_payloads: bool,
    /// Hardware IP filters.
    pub guards: IpGuards,
    /// Continuous vs. sample-only PT enable.
    pub mode: PtMode,
    /// RNG seed for the buffer's async-fill jitter.
    pub seed: u64,
    /// Mean snapshot yield factor (see [`CircBuffer`]).
    pub yield_factor: f64,
}

impl SamplerConfig {
    /// The paper's microbenchmark configuration: 10 K-load period,
    /// 16-KiB buffer (≈1150 addresses per sample).
    pub fn microbench() -> SamplerConfig {
        SamplerConfig {
            period: 10_000,
            buffer_bytes: 16 << 10,
            compact_payloads: false,
            guards: IpGuards::all(),
            mode: PtMode::Continuous,
            seed: 0x5eed,
            yield_factor: DEFAULT_YIELD,
        }
    }

    /// The paper's application configuration: large period (10 M for
    /// miniVite, 5 M for GAP), 8-KiB buffer (≈500 addresses per sample).
    pub fn application(period: u64) -> SamplerConfig {
        SamplerConfig {
            period,
            buffer_bytes: 8 << 10,
            compact_payloads: false,
            guards: IpGuards::all(),
            mode: PtMode::Continuous,
            seed: 0x5eed,
            yield_factor: DEFAULT_YIELD,
        }
    }

    pub(crate) fn packet_bytes(&self) -> u64 {
        PtwPacket::bytes(self.compact_payloads)
    }

    /// Loads before a trigger during which PT must be enabled in
    /// [`PtMode::SampleOnly`] so the buffer can fill. Sized to the
    /// buffer's nominal packet capacity with 50% slack. This is an upper
    /// bound on `w` in loads assuming ≥1 packet per load.
    pub fn enable_window_loads(&self) -> u64 {
        (self.buffer_bytes / self.packet_bytes()) * 3 / 2
    }
}

/// The sampling trigger every `period` counts (loads, or cycles for the
/// time trigger) and the PT enable window ahead of it.
#[derive(Debug)]
pub(crate) struct Trigger {
    period: u64,
    next: u64,
    mode: PtMode,
    /// [`SamplerConfig::enable_window_loads`] of the config in force.
    window: u64,
}

impl Trigger {
    pub(crate) fn new(cfg: &SamplerConfig) -> Trigger {
        let mut t = Trigger {
            period: cfg.period,
            next: cfg.period,
            mode: cfg.mode,
            window: 0,
        };
        t.retune(cfg.period, cfg, 0);
        t
    }

    /// Whether PT is generating packets `loads` loads into the run.
    #[inline]
    pub(crate) fn enabled(&self, loads: u64) -> bool {
        match self.mode {
            PtMode::Continuous => true,
            PtMode::SampleOnly => self.next.saturating_sub(loads) <= self.window,
        }
    }

    /// True (and arms the next trigger) when the counter has reached the
    /// trigger.
    #[inline]
    pub(crate) fn fire(&mut self, now: u64) -> bool {
        let fired = now >= self.next;
        if fired {
            self.next += self.period;
        }
        fired
    }

    /// Adopt a new period (the next trigger is re-derived from `now` so a
    /// shrunk period takes effect immediately) and `cfg`'s enable window.
    pub(crate) fn retune(&mut self, period: u64, cfg: &SamplerConfig, now: u64) {
        if period != self.period {
            self.period = period.max(1);
            self.next = now + self.period;
        }
        self.window = cfg.enable_window_loads();
    }

    pub(crate) fn period(&self) -> u64 {
        self.period
    }
}

/// One raw (undecoded) sample: buffer contents at a trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawSample {
    /// Load-counter time of the trigger.
    pub trigger_time: u64,
    /// Snapshot packets, oldest first.
    pub packets: Vec<PtwPacket>,
}

/// The raw sampled trace a collection run produces (perf.data analogue).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RawSampledTrace {
    /// Raw samples in trigger order.
    pub samples: Vec<RawSample>,
    /// Packet/byte accounting.
    pub stats: PacketStats,
    /// Total loads observed by the trigger counter.
    pub total_loads: u64,
    /// Total `ptwrite`s executed while PT was enabled.
    pub ptwrites_enabled: u64,
    /// Total `ptwrite`s executed in the run (enabled or not).
    pub ptwrites_executed: u64,
}

/// Sampled-trace collector; plugs into the interpreter as an
/// [`EventSink`].
#[derive(Debug)]
pub struct SampledCollector {
    cfg: SamplerConfig,
    buf: CircBuffer<PtwPacket>,
    trigger: Trigger,
    out: RawSampledTrace,
}

impl SampledCollector {
    /// A collector with the given configuration.
    pub fn new(cfg: SamplerConfig) -> SampledCollector {
        assert!(
            cfg.buffer_bytes >= cfg.packet_bytes(),
            "buffer smaller than one packet"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.yield_factor),
            "yield factor out of range"
        );
        SampledCollector {
            buf: CircBuffer::new(cfg.buffer_bytes, cfg.yield_factor, cfg.seed),
            trigger: Trigger::new(&cfg),
            cfg,
            out: RawSampledTrace::default(),
        }
    }

    fn flush(&mut self) {
        self.out.samples.push(RawSample {
            trigger_time: self.out.total_loads,
            packets: self.buf.snapshot(),
        });
    }

    /// Finish collection: flush a final partial sample if the buffer holds
    /// data, and return the raw trace.
    pub fn finish(mut self) -> RawSampledTrace {
        if !self.buf.is_empty() {
            self.flush();
        }
        self.out
    }
}

impl EventSink for SampledCollector {
    fn on_load(&mut self, _ip: Ip, _addr: u64, _load_time: u64) {
        self.out.total_loads += 1;
        if self.trigger.fire(self.out.total_loads) {
            self.flush();
        }
    }

    fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
        self.out.ptwrites_executed += 1;
        if !self.trigger.enabled(self.out.total_loads) || !self.cfg.guards.allows(ip) {
            return;
        }
        self.out.ptwrites_enabled += 1;
        self.out.stats.add_ptw(1);
        // Sideband TSC/PSB packets consume amortized buffer space.
        let n = self.out.stats.ptw_packets;
        let mut cost = self.cfg.packet_bytes();
        if n.is_multiple_of(TSC_PERIOD) {
            cost += TSC_BYTES;
        }
        if n.is_multiple_of(PSB_PERIOD) {
            cost += PSB_BYTES;
        }
        let packet = PtwPacket {
            ip,
            payload,
            load_time,
        };
        self.buf.push(packet, cost);
    }
}

/// Bandwidth model for full-trace collection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthModel {
    /// Sustainable copy bandwidth in trace bytes per executed load.
    pub bytes_per_load: f64,
    /// Token-bucket burst capacity in bytes (one pinned-buffer copy).
    pub burst_bytes: f64,
}

impl Default for BandwidthModel {
    fn default() -> Self {
        // Calibrated so load-intensive instrumented code (≈1 packet/load,
        // 10 B each) drops 30–50% of packets, as the paper observed.
        BandwidthModel {
            bytes_per_load: 6.0,
            burst_bytes: 64.0 * 1024.0,
        }
    }
}

impl BandwidthModel {
    /// Infinite bandwidth: nothing is ever dropped.
    pub(crate) const UNLIMITED: BandwidthModel = BandwidthModel {
        bytes_per_load: f64::INFINITY,
        burst_bytes: f64::INFINITY,
    };
}

/// The token bucket that decides which full-trace packets survive the
/// copy out of the pinned buffer.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    bw: BandwidthModel,
    tokens: f64,
    in_drop_burst: bool,
}

impl TokenBucket {
    pub(crate) fn new(bw: BandwidthModel) -> TokenBucket {
        TokenBucket {
            tokens: bw.burst_bytes,
            bw,
            in_drop_burst: false,
        }
    }

    /// Refill for `dt` executed loads.
    #[inline]
    pub(crate) fn refill(&mut self, dt: u64) {
        if self.tokens.is_finite() {
            self.tokens =
                (self.tokens + dt as f64 * self.bw.bytes_per_load).min(self.bw.burst_bytes);
        }
    }

    /// Take `cost` bytes for `packets` packets, or drop them: a dropped
    /// packet is counted, and the first drop of a burst emits a DROP
    /// record. Returns whether the packets were kept.
    #[inline]
    pub(crate) fn take(&mut self, cost: f64, packets: u64, stats: &mut PacketStats) -> bool {
        if self.tokens >= cost {
            self.tokens -= cost;
            self.in_drop_burst = false;
            return true;
        }
        stats.dropped_packets += packets;
        if !self.in_drop_burst {
            stats.drop_records += 1;
            self.in_drop_burst = true;
        }
        false
    }
}

/// Full-trace collector with bandwidth-limited copies.
#[derive(Debug)]
pub struct FullCollector {
    bucket: TokenBucket,
    guards: IpGuards,
    last_load_time: u64,
    /// Kept packets.
    pub packets: Vec<PtwPacket>,
    /// Accounting.
    pub stats: PacketStats,
    /// Total loads executed.
    pub total_loads: u64,
}

impl FullCollector {
    /// A full collector with the given bandwidth model.
    pub fn new(bw: BandwidthModel) -> FullCollector {
        FullCollector {
            bucket: TokenBucket::new(bw),
            guards: IpGuards::all(),
            last_load_time: 0,
            packets: Vec::new(),
            stats: PacketStats::default(),
            total_loads: 0,
        }
    }

    /// An ideal collector that never drops (used to produce 'All'
    /// baselines directly).
    pub fn unlimited() -> FullCollector {
        FullCollector::new(BandwidthModel::UNLIMITED)
    }

    /// Restrict collection to the guarded ranges.
    pub fn with_guards(mut self, guards: IpGuards) -> FullCollector {
        self.guards = guards;
        self
    }
}

impl EventSink for FullCollector {
    fn on_load(&mut self, _ip: Ip, _addr: u64, load_time: u64) {
        self.total_loads += 1;
        self.bucket
            .refill(load_time.saturating_sub(self.last_load_time));
        self.last_load_time = load_time;
    }

    fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
        if !self.guards.allows(ip) {
            return;
        }
        self.stats.add_ptw(1);
        if self.bucket.take(PTW_BYTES as f64, 1, &mut self.stats) {
            self.packets.push(PtwPacket {
                ip,
                payload,
                load_time,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(c: &mut impl EventSink, loads: u64, ptw_per_load: u64) {
        for t in 0..loads {
            for k in 0..ptw_per_load {
                c.on_ptwrite(Ip(0x400 + k), 0x10_0000 + t * 8, t);
            }
            c.on_load(Ip(0x404), 0x10_0000 + t * 8, t);
        }
    }

    #[test]
    fn sampler_triggers_every_period() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 1000;
        let mut c = SampledCollector::new(cfg);
        feed(&mut c, 10_000, 1);
        let raw = c.finish();
        // 10 triggers (no trailing partial: buffer emptied at the last
        // trigger exactly at load 10 000? The final flush may add one).
        assert!(raw.samples.len() >= 10);
        assert_eq!(raw.total_loads, 10_000);
        for s in &raw.samples {
            assert!(s.trigger_time % 1000 == 0 || s.trigger_time == 10_000);
            assert!(!s.packets.is_empty());
        }
    }

    #[test]
    fn sample_only_mode_executes_fewer_enabled_ptwrites() {
        let mut cont_cfg = SamplerConfig::microbench();
        cont_cfg.period = 10_000;
        let mut opt_cfg = cont_cfg.clone();
        opt_cfg.mode = PtMode::SampleOnly;

        let mut cont = SampledCollector::new(cont_cfg);
        let mut opt = SampledCollector::new(opt_cfg);
        feed(&mut cont, 50_000, 1);
        feed(&mut opt, 50_000, 1);
        let (c, o) = (cont.finish(), opt.finish());
        assert_eq!(c.ptwrites_executed, o.ptwrites_executed);
        assert!(
            o.ptwrites_enabled * 2 < c.ptwrites_enabled,
            "opt enabled {} vs continuous {}",
            o.ptwrites_enabled,
            c.ptwrites_enabled
        );
        // Both still produce samples of similar size.
        assert_eq!(c.samples.len(), o.samples.len());
        let mean = |r: &RawSampledTrace| {
            r.samples.iter().map(|s| s.packets.len()).sum::<usize>() as f64 / r.samples.len() as f64
        };
        let (mc, mo) = (mean(&c), mean(&o));
        assert!(
            (mo - mc).abs() / mc < 0.5,
            "opt sample size {mo} too far from continuous {mc}"
        );
    }

    #[test]
    fn guards_suppress_packets() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 100;
        cfg.guards = IpGuards::from_ranges(vec![(Ip(0x1000), Ip(0x2000))]);
        let mut c = SampledCollector::new(cfg);
        feed(&mut c, 1000, 1); // ptwrites at 0x400: outside guard
        let raw = c.finish();
        assert_eq!(raw.stats.ptw_packets, 0);
        assert!(raw.samples.iter().all(|s| s.packets.is_empty()));
        assert_eq!(raw.ptwrites_executed, 1000);
        assert_eq!(raw.ptwrites_enabled, 0);
    }

    #[test]
    #[should_panic(expected = "smaller than one packet")]
    fn tiny_buffer_rejected() {
        let mut cfg = SamplerConfig::microbench();
        cfg.buffer_bytes = 4;
        SampledCollector::new(cfg);
    }

    #[test]
    fn full_collector_drops_under_pressure() {
        // 2 packets per load at 10 B each = 20 B/load demand vs 6 B/load
        // sustainable → heavy drops.
        let mut c = FullCollector::new(BandwidthModel::default());
        feed(&mut c, 100_000, 2);
        let rate = c.stats.drop_rate();
        assert!(
            (0.3..=0.9).contains(&rate),
            "drop rate {rate} outside plausible range"
        );
        assert!(c.stats.drop_records > 0);
        // 1 packet per load = 10 B vs 6 B: still drops, but less.
        let mut c1 = FullCollector::new(BandwidthModel::default());
        feed(&mut c1, 100_000, 1);
        assert!(c1.stats.drop_rate() < rate);
    }

    #[test]
    fn unlimited_collector_never_drops() {
        let mut c = FullCollector::unlimited();
        feed(&mut c, 50_000, 2);
        assert_eq!(c.stats.dropped_packets, 0);
        assert_eq!(c.packets.len(), 100_000);
    }

    #[test]
    fn buffer_snapshot_sizes_match_paper() {
        // 8-KiB buffer with a 10 M period: ≈500 addresses per sample.
        let mut cfg = SamplerConfig::application(100_000);
        cfg.seed = 3;
        let mut c = SampledCollector::new(cfg);
        feed(&mut c, 1_000_000, 1);
        let raw = c.finish();
        let mean = raw.samples.iter().map(|s| s.packets.len()).sum::<usize>() as f64
            / raw.samples.len() as f64;
        assert!((350.0..650.0).contains(&mean), "mean window {mean}");
    }
}
