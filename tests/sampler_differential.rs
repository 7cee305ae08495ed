//! Differential test: the packet-level sampler against the access-level
//! sampler over one execution.
//!
//! An instrumented IR microbenchmark runs once under the interpreter. A
//! tee sink hands every event to [`SampledCollector`] (the packet path:
//! `ptwrite` packets into the circular buffer, decoded afterwards by
//! [`decode_sampled`]) and hands each load to [`StreamSampler`] (the
//! access path) with its original load ip and the number of `ptwrite`s
//! that preceded it. Both front-ends model the same buffer, trigger and
//! enable window, so on a buffer that never wraps and single-source
//! loads they must produce the same samples. With wrap and two-source
//! loads the buffers legitimately diverge — the packet path charges
//! TSC/PSB sideband bytes and counts packets rather than accesses — but
//! trigger times, sample counts and `ptwrite` counters still agree.

use memgaze::instrument::{Instrumented, Instrumenter};
use memgaze::isa::builder::{ModuleBuilder, ProcBuilder};
use memgaze::isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
use memgaze::isa::interp::{EventSink, Machine};
use memgaze::isa::{AddrMode, CmpOp, LoadModule, Operand, Reg};
use memgaze::model::{Ip, Sample, TraceMeta};
use memgaze::ptsim::{
    decode_sampled, PtMode, RawSampledTrace, SampledCollector, SamplerConfig, StreamSampler,
    StreamStats,
};

struct Tee<'a> {
    inst: &'a Instrumented,
    packets: SampledCollector,
    stream: StreamSampler,
    /// Original ip and `ptwrite` count of the load being instrumented.
    group: Option<(Ip, u8)>,
    max_group: u8,
}

impl EventSink for Tee<'_> {
    fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
        self.packets.on_ptwrite(ip, payload, load_time);
        let load_ip = self.inst.ptw_map[&ip].load_ip;
        let n = match self.group {
            Some((g, n)) => {
                assert_eq!(g, load_ip, "ptwrite groups interleave");
                n + 1
            }
            None => 1,
        };
        self.group = Some((load_ip, n));
    }

    fn on_load(&mut self, ip: Ip, addr: u64, load_time: u64) {
        self.packets.on_load(ip, addr, load_time);
        match self.group.take() {
            Some((load_ip, n)) => {
                self.max_group = self.max_group.max(n);
                self.stream.on_load(load_ip, addr, true, n);
            }
            None => self.stream.on_load(ip, addr, false, 1),
        }
    }
}

struct Run {
    packet_samples: Vec<Sample>,
    raw: RawSampledTrace,
    stream_samples: Vec<Sample>,
    stream_stats: StreamStats,
    max_group: u8,
    overwritten: u64,
}

/// A loop of single-source loads: a pointer-bump walk (strided), a
/// pointer chase through a global permutation (irregular) and a frame
/// reload (constant, so never instrumented).
fn single_source_module(iters: i64) -> LoadModule {
    let mut mb = ModuleBuilder::new("single");
    let words = 1024usize;
    let list = mb.alloc_global("list", words);
    let next: Vec<u64> = (0..words as u64)
        .map(|i| list + ((i * 389 + 7) % words as u64) * 8)
        .collect();
    mb.init_global(list, &next);
    let walk = mb.alloc_global("walk", 4096);
    let (i, a, p, x, t) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3), Reg::gp(4));
    let mut pb = ProcBuilder::new("main", "single.c");
    let body = pb.new_block();
    let exit = pb.new_block();
    pb.mov_imm(i, 0);
    pb.mov_imm(a, walk as i64);
    pb.mov_imm(p, list as i64);
    pb.store(i, AddrMode::base_disp(Reg::FP, -8));
    pb.jmp(body);
    pb.switch_to(body);
    pb.load(x, AddrMode::base_disp(a, 0));
    pb.add_imm(a, 8);
    pb.load(t, AddrMode::base_disp(Reg::FP, -8));
    pb.load(p, AddrMode::base_disp(p, 0));
    pb.load(t, AddrMode::base_disp(Reg::FP, -8));
    pb.add_imm(i, 1);
    pb.br(i, CmpOp::Lt, Operand::Imm(iters), body, exit);
    pb.switch_to(exit);
    pb.ret();
    mb.add(pb);
    mb.finish()
}

/// The paper's `str2|irr` microbenchmark: two-source loads throughout.
fn two_source_module() -> LoadModule {
    codegen::generate(&UKernelSpec {
        compose: Compose::Serial(vec![Pattern::strided(2), Pattern::Irregular]),
        elems: 2048,
        reps: 8,
        opt: OptLevel::O3,
    })
}

fn run(module: &LoadModule, cfg: SamplerConfig) -> Run {
    let main = module.find_proc("main").expect("main");
    let inst = Instrumenter::default().instrument(module);
    let tee = Tee {
        inst: &inst,
        packets: SampledCollector::new(cfg.clone()),
        stream: StreamSampler::new(cfg.clone()),
        group: None,
        max_group: 0,
    };
    let mut mach = Machine::new(&inst.module, tee);
    mach.run(main, 50_000_000).expect("microbench runs");
    let mut tee = mach.into_sink();
    let raw = tee.packets.finish();
    let meta = TraceMeta::new("diff", cfg.period, cfg.buffer_bytes);
    let decoded = decode_sampled(&raw, &inst, meta).expect("decodes");
    assert_eq!(decoded.unknown_packets, 0);
    let overwritten = tee.stream.take_observation().overwritten_packets;
    let (stream_trace, stream_stats) = tee.stream.finish("diff");
    Run {
        packet_samples: decoded.trace.samples,
        raw,
        stream_samples: stream_trace.samples,
        stream_stats,
        max_group: tee.max_group,
        overwritten,
    }
}

fn cfg(mode: PtMode, period: u64, buffer_bytes: u64) -> SamplerConfig {
    let mut cfg = SamplerConfig::microbench();
    cfg.mode = mode;
    cfg.period = period;
    cfg.buffer_bytes = buffer_bytes;
    cfg
}

/// Trigger times, sample counts and `ptwrite`/packet counters.
fn assert_counters_match(r: &Run) {
    assert_eq!(r.raw.total_loads, r.stream_stats.total_loads);
    assert_eq!(r.raw.ptwrites_executed, r.stream_stats.ptwrites_executed);
    assert_eq!(r.raw.ptwrites_enabled, r.stream_stats.ptwrites_enabled);
    assert_eq!(r.raw.stats, r.stream_stats.packets);
    let trigger_times = |s: &[Sample]| s.iter().map(|s| s.trigger_time).collect::<Vec<_>>();
    assert_eq!(
        trigger_times(&r.packet_samples),
        trigger_times(&r.stream_samples)
    );
}

#[test]
fn single_source_loads_without_wrap_sample_identically() {
    let module = single_source_module(6000);
    for (mode, buffer_bytes) in [
        (PtMode::Continuous, 16 << 10),
        (PtMode::SampleOnly, 16 << 10),
        (PtMode::SampleOnly, 2 << 10),
    ] {
        let r = run(&module, cfg(mode, 3000, buffer_bytes));
        assert_eq!(r.max_group, 1, "every instrumented load is single-source");
        assert_eq!(r.overwritten, 0, "{mode:?}/{buffer_bytes}: buffer wrapped");
        assert_counters_match(&r);
        assert!(r.packet_samples.iter().all(|s| !s.accesses.is_empty()));
        assert_eq!(
            r.packet_samples, r.stream_samples,
            "{mode:?}/{buffer_bytes}"
        );
        if mode == PtMode::SampleOnly {
            assert!(r.raw.ptwrites_enabled < r.raw.ptwrites_executed);
        }
    }
}

#[test]
fn wrapping_two_source_loads_agree_on_triggers_and_counters() {
    let module = two_source_module();
    for mode in [PtMode::Continuous, PtMode::SampleOnly] {
        let r = run(&module, cfg(mode, 3000, 2 << 10));
        assert_eq!(r.max_group, 2);
        assert!(r.overwritten > 0, "{mode:?}: buffer never wrapped");
        assert_counters_match(&r);
        assert!(r.packet_samples.len() > 10);
    }
}
