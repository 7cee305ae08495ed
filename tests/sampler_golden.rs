//! Golden outputs for every PT sampler front-end.
//!
//! Each case drives one sampler over a fixed synthetic load stream and
//! pins a count plus the FNV-1a-64 digest of the `{:?}` rendering of
//! every sample, statistic and observation it produced. The stream mixes
//! uninstrumented, single-source and two-source loads from several ips;
//! the buffers are small enough to wrap, and the runs are long enough to
//! cross the 32- and 1024-packet TSC/PSB sideband boundaries. The values
//! were captured before the samplers shared one buffer, trigger and token
//! bucket, and must not move while they are refactored.

use memgaze::isa::interp::EventSink;
use memgaze::model::{fnv1a64, Ip};
use memgaze::ptsim::{
    BandwidthModel, FullCollector, IpGuards, PtMode, SampledCollector, SamplerConfig, StreamFull,
    StreamSampler, TimeStreamSampler,
};
use std::fmt::Debug;

const LOADS: u64 = 24_000;

/// One executed load of the synthetic stream.
#[derive(Clone, Copy)]
struct Load {
    ip: Ip,
    addr: u64,
    /// `ptwrite`s the load carries: 0 (uninstrumented), 1 or 2.
    packets: u8,
    /// Cycles the load took (drives the time trigger).
    cycles: u64,
}

fn stream() -> impl Iterator<Item = Load> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..LOADS).map(move |t| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let site = x % 7;
        let packets = match site {
            0 => 0,
            1 | 2 => 2,
            _ => 1,
        };
        let addr = if site < 3 {
            0x10_0000 + (t % 512) * 64
        } else {
            0x80_0000 + (x >> 20) % (1 << 16) * 8
        };
        // A slow phase every 4000 loads makes cycles per load vary.
        let cycles = if (t / 4000) % 2 == 1 { 1 + x % 9 } else { 1 };
        Load {
            ip: Ip(0x400 + site * 0x10),
            addr,
            packets,
            cycles,
        }
    })
}

/// Feeds the stream to a packet-level sink: each load's `ptwrite`s
/// (base then index) precede the load itself, as the instrumentor
/// places them.
fn feed_packets(sink: &mut impl EventSink) {
    for (t, l) in stream().enumerate() {
        let t = t as u64;
        for k in 0..u64::from(l.packets) {
            sink.on_ptwrite(Ip(l.ip.0 + 1 + k), l.addr + k, t);
        }
        sink.on_load(l.ip, l.addr, t);
    }
}

#[derive(Default)]
struct Golden {
    count: usize,
    text: String,
}

impl Golden {
    fn add(&mut self, v: &impl Debug) {
        self.text.push_str(&format!("{v:?}\n"));
    }

    fn samples<T: Debug>(&mut self, samples: &[T]) {
        self.count += samples.len();
        for s in samples {
            self.add(s);
        }
    }

    fn check(&self, what: &str, count: usize, fnv: u64) {
        let got = (self.count, fnv1a64(self.text.as_bytes()));
        assert_eq!(
            got,
            (count, fnv),
            "{what} output drifted: (count, fnv1a64) = ({}, {:#018x})",
            got.0,
            got.1
        );
    }
}

fn small_cfg() -> SamplerConfig {
    let mut cfg = SamplerConfig::microbench();
    cfg.period = 1000;
    cfg.buffer_bytes = 600;
    cfg
}

fn sampled_collector(cfg: SamplerConfig) -> Golden {
    let mut c = SampledCollector::new(cfg);
    feed_packets(&mut c);
    let raw = c.finish();
    let mut g = Golden::default();
    g.samples(&raw.samples);
    g.add(&raw.stats);
    g.add(&(raw.total_loads, raw.ptwrites_enabled, raw.ptwrites_executed));
    g
}

#[test]
fn sampled_collector_continuous() {
    sampled_collector(small_cfg()).check("SampledCollector continuous", 24, 0xa9b9815308d7f2d0);
}

#[test]
fn sampled_collector_sample_only() {
    let mut cfg = small_cfg();
    cfg.mode = PtMode::SampleOnly;
    sampled_collector(cfg).check("SampledCollector sample-only", 24, 0x0406830bb356c416);
}

#[test]
fn sampled_collector_guarded_compact() {
    let mut cfg = small_cfg();
    cfg.compact_payloads = true;
    cfg.guards = IpGuards::from_ranges(vec![(Ip(0x410), Ip(0x430)), (Ip(0x450), Ip(0x470))]);
    sampled_collector(cfg).check("SampledCollector guarded", 24, 0x768d804a834564af);
}

#[test]
fn stream_sampler_drained_observed_retuned() {
    let mut s = StreamSampler::new(small_cfg());
    let mut g = Golden::default();
    for (t, l) in stream().enumerate() {
        s.on_load(l.ip, l.addr, l.packets > 0, l.packets.max(1));
        if t % 2500 == 2499 {
            g.add(&s.take_observation());
        }
        if s.completed_samples() >= 3 {
            g.samples(&s.take_completed());
        }
        if t == 11_000 {
            s.retune(
                700,
                400,
                IpGuards::from_ranges(vec![(Ip(0x400), Ip(0x440))]),
            );
            g.add(s.config());
        }
    }
    g.add(&s.take_observation());
    let (meta, tail, stats) = s.finish_parts("golden");
    g.samples(&tail);
    g.add(&meta);
    g.add(&stats);
    g.check("StreamSampler", 30, 0xb429d2d8134170a6);
}

#[test]
fn time_stream_sampler_varying_cycles() {
    let mut cfg = small_cfg();
    cfg.period = 2500;
    let mut s = TimeStreamSampler::new(cfg);
    for l in stream() {
        s.on_load(l.ip, l.addr, l.packets > 0, l.packets.max(1), l.cycles);
    }
    let (trace, stats) = s.finish("golden");
    let mut g = Golden::default();
    g.samples(&trace.samples);
    g.add(&trace.meta);
    g.add(&stats);
    g.check("TimeStreamSampler", 29, 0x39d59b4e9bf68a71);
}

fn full_collector(mut c: FullCollector) -> Golden {
    feed_packets(&mut c);
    let mut g = Golden::default();
    g.samples(&c.packets);
    g.add(&c.stats);
    g.add(&c.total_loads);
    g
}

#[test]
fn full_collector_default_bandwidth() {
    full_collector(FullCollector::new(BandwidthModel::default())).check(
        "FullCollector",
        20951,
        0x5b5d287a94b33955,
    );
}

#[test]
fn full_collector_unlimited() {
    full_collector(FullCollector::unlimited()).check(
        "FullCollector unlimited",
        27551,
        0x2d5893c56b8fa18e,
    );
}

fn stream_full(mut f: StreamFull) -> Golden {
    for l in stream() {
        f.on_load(l.ip, l.addr, l.packets > 0, l.packets.max(1));
    }
    let mut g = Golden::default();
    g.add(&f.stats);
    let trace = f.finish("golden");
    g.samples(&trace.accesses);
    g.add(&trace.meta);
    g.add(&trace.dropped);
    g
}

#[test]
fn stream_full_default_bandwidth() {
    stream_full(StreamFull::new(BandwidthModel::default())).check(
        "StreamFull",
        16626,
        0xfadebc192c77a9e8,
    );
}

#[test]
fn stream_full_unlimited() {
    stream_full(StreamFull::unlimited()).check("StreamFull unlimited", 20560, 0x953cfb6409a5d485);
}
