//! The three pass-based workloads: `resnet-resident`, `gapcc-streaming`
//! and `ubench-ir`. Each set-up computes the reference a pass is checked
//! against; each pass traces, analyses and checks one run end to end.

use memgaze_analysis::{
    fmt_pct, fmt_si, locality_vs_interval_with, AnalysisConfig, Analyzer, BlockReuse, FunctionRow,
    IntervalRow, LocalityPoint, StreamingAnalyzer, StreamingReport,
};
use memgaze_core::pipeline::dry_run_loads;
use memgaze_core::{
    trace_workload, trace_workload_streaming, MemGaze, MicroReport, PipelineConfig,
    StreamingRecorder,
};
use memgaze_instrument::{rewrite, InstrPlan, Instrumented, Instrumenter, ModuleClassification};
use memgaze_isa::interp::{Machine, NullSink};
use memgaze_isa::{LoadModule, ProcId};
use memgaze_model::{
    decode_sharded, encode_sharded, fnv1a64, DecompressionInfo, SampledTrace, ShardReader,
    TraceMeta,
};
use memgaze_pipebench::{digest, render_report, Ledger, Tracer};
use memgaze_ptsim::{
    decode_sampled, ground_truth, RunStats, SampledCollector, SamplerConfig, StreamSampler,
};
use memgaze_store::{StoreConfig, TraceStore};
use memgaze_workloads::darknet::{self, Network};
use memgaze_workloads::gap::{self, GapConfig, GapKernel};
use memgaze_workloads::ubench::{MicroBench, OptLevel};
use memgaze_workloads::TracedSpace;
use std::path::PathBuf;
use std::time::Instant;

/// Interpreter step budget, as the pipeline's collection runs use.
const MAX_INSTRS: u64 = 2_000_000_000;

/// Locality window sizes the streaming report accumulates (the CLI's).
pub const SIZES: [u64; 3] = [16, 64, 256];

/// What one checked pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// The pass's output matched its reference.
    pub ok: bool,
    /// Traced collection time: the workload running under the sampler.
    pub collect_s: f64,
    /// Executed loads traced.
    pub loads: u64,
    /// Sampled accesses analysed.
    pub accesses: u64,
    /// Samples taken.
    pub samples: u64,
    /// Drop rate the sampler observed over the run (native workloads).
    pub drop_rate: f64,
    /// Instructions interpreted (IR path).
    pub instrs: u64,
}

/// A workload the pass driver can run.
pub trait Workload: Sized {
    /// Build the inputs and the reference every pass is checked against.
    fn setup(seed: u64, threads: usize, out: &std::path::Path) -> Result<Self, String>;
    /// One untraced run of the same work — the denominator of
    /// `tracing_tax` — in seconds.
    fn baseline(&mut self) -> Result<f64, String>;
    /// One checked pass. With the tracer on, spans wrap each layer call.
    fn pass(&mut self, tr: &mut Tracer) -> Result<Pass, String>;
    /// Layers timed outside the pass in traced runs, each `(name,
    /// seconds)`; their medians split a pass span shared by two layers.
    fn probes(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
    /// Split pass spans shared by two layers, given the medians of the
    /// baseline and the probes; `ledger.roots` counts the traced passes.
    fn split(&self, ledger: &mut Ledger, baseline_s: f64, probe_s: &dyn Fn(&str) -> f64);
    /// Per-layer values the ledger does not hold (ratios, sizes).
    fn extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The pinned analysis configuration.
fn analysis(threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads,
        ..AnalysisConfig::default()
    }
}

// ---------------------------------------------------------------- resnet

/// Darknet ResNet-152 through `trace_workload`, then the full resident
/// report as `memgaze darknet resnet152` prints it.
pub struct Resnet {
    sampler: SamplerConfig,
    analysis: AnalysisConfig,
    digest: u64,
    loads: u64,
}

const RESNET_NAME: &str = "Darknet-ResNet152";

impl Resnet {
    fn run(&self, tr: &mut Tracer) -> (String, Pass) {
        let mut collect_s = 0.0;
        let mut drop_rate = 0.0;
        let (report, ()) = tr.span("core.collect", || {
            trace_workload(RESNET_NAME, &self.sampler, |space| {
                let t = Instant::now();
                darknet::run(space, Network::ResNet152);
                collect_s = secs(t);
                drop_rate = space.recorder_mut().sampler.take_observation().drop_rate();
            })
        });
        tr.units(report.stream.total_loads);
        let an = Analyzer::new(&report.trace, &report.annots, &report.symbols)
            .with_config(self.analysis);
        let mut text = render_report(tr, &an, RESNET_NAME);
        text += &tr.span("analysis.render", || {
            let phases: Vec<String> = report
                .phases
                .iter()
                .filter(|p| p.counters.loads > 0)
                .map(|p| format!("{} ({} loads)", p.name, fmt_si(p.counters.loads as f64)))
                .collect();
            format!("\nPhases: {}\n", phases.join(", "))
        });
        let pass = Pass {
            ok: true,
            collect_s,
            loads: report.stream.total_loads,
            accesses: report.trace.observed_accesses(),
            samples: report.trace.num_samples() as u64,
            drop_rate,
            instrs: 0,
        };
        (text, pass)
    }
}

impl Workload for Resnet {
    fn setup(seed: u64, threads: usize, _out: &std::path::Path) -> Result<Self, String> {
        let mut sampler = SamplerConfig::application(20_000);
        sampler.seed = seed;
        let mut w = Resnet {
            sampler,
            analysis: analysis(threads),
            digest: 0,
            loads: 0,
        };
        let (text, pass) = w.run(&mut Tracer::new(false));
        if pass.samples == 0 || !text.contains("gemm") {
            return Err("resnet reference report has no samples or no gemm row".into());
        }
        w.digest = digest(&text);
        w.loads = pass.loads;
        Ok(w)
    }

    fn baseline(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let (loads, _) = dry_run_loads(|s| darknet::run(s, Network::ResNet152));
        let s = secs(t);
        if loads != self.loads {
            return Err(format!(
                "dry run saw {loads} loads, traced run {}",
                self.loads
            ));
        }
        Ok(s)
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let (text, mut pass) = self.run(tr);
        pass.ok = tr.span("bench.check", || digest(&text) == self.digest);
        Ok(pass)
    }

    fn split(&self, ledger: &mut Ledger, baseline_s: f64, _probe: &dyn Fn(&str) -> f64) {
        let n = ledger.roots as f64;
        let loads = n * self.loads as f64;
        ledger.split(
            "core.collect",
            "workloads.native",
            n * baseline_s * 1e9,
            loads,
        );
        ledger.rename("core.collect", "ptsim.sampler");
    }
}

// ----------------------------------------------------------------- gapcc

/// The resident analysis a streamed or stored report must equal.
#[derive(Debug, Clone, PartialEq)]
struct Reference {
    decompression: DecompressionInfo,
    function_rows: Vec<FunctionRow>,
    block_reuse: BlockReuse,
    locality_series: Vec<LocalityPoint>,
    interval_rows: Vec<IntervalRow>,
}

impl Reference {
    fn resident(trace: &SampledTrace, an: &Analyzer<'_>) -> Reference {
        Reference {
            decompression: an.decompression(),
            function_rows: an.function_table().to_vec(),
            block_reuse: an.block_reuse().clone(),
            locality_series: locality_vs_interval_with(
                trace,
                an.annots(),
                an.config().reuse_block,
                &SIZES,
                an.config().threads,
            ),
            interval_rows: an.interval_rows(8),
        }
    }

    fn streamed(r: &StreamingReport) -> Reference {
        Reference {
            decompression: r.decompression,
            function_rows: r.function_rows.clone(),
            block_reuse: r.block_reuse.clone(),
            locality_series: r.locality_series.clone(),
            interval_rows: r.interval_rows(8),
        }
    }
}

/// GAP cc on RMAT scale 17 through `trace_workload_streaming`, then the
/// container put into a fresh store and analysed cold.
pub struct Gapcc {
    gap: GapConfig,
    sampler: SamplerConfig,
    analysis: AnalysisConfig,
    reference: Reference,
    trace: SampledTrace,
    container_hash: u64,
    out: PathBuf,
    passes: u64,
    compression_ratio: f64,
    container_bytes: u64,
}

impl Drop for Gapcc {
    /// Remove the scratch stores once the run is over: deleting them
    /// between passes would put file-system work into later passes.
    fn drop(&mut self) {
        for n in 1..=self.passes {
            let _ = std::fs::remove_dir_all(self.store_dir(n));
        }
    }
}

pub const GAPCC_NAME: &str = "GAP-cc";
pub const GAPCC_SHARD: usize = 8;

/// The gapcc workload, sampler and analysis configuration for `seed`.
pub fn gapcc_configs(seed: u64, threads: usize) -> (GapConfig, SamplerConfig, AnalysisConfig) {
    let gap = GapConfig {
        scale: 17,
        degree: 8,
        kernel: GapKernel::Cc,
        max_iters: 9,
        seed,
    };
    let mut sampler = SamplerConfig::application(5_000);
    sampler.seed = seed;
    (gap, sampler, analysis(threads))
}

/// What the streaming leg of a gapcc pass produced.
struct Streamed {
    report: StreamingReport,
    container: Vec<u8>,
    index: memgaze_model::FrameIndex,
    annots: memgaze_model::AuxAnnotations,
    symbols: memgaze_model::SymbolTable,
    loads: u64,
    collect_s: f64,
}

impl Gapcc {
    /// The scratch store of pass `n`.
    fn store_dir(&self, n: u64) -> PathBuf {
        self.out.join(format!("store-{}-{n}", std::process::id()))
    }

    /// Untraced: the pipeline's own streaming driver.
    fn stream(&self) -> Result<Streamed, String> {
        let mut collect_s = 0.0;
        let (r, ()) = trace_workload_streaming(
            GAPCC_NAME,
            &self.sampler,
            GAPCC_SHARD,
            self.analysis,
            &SIZES,
            |space| {
                let t = Instant::now();
                gap::run(space, &self.gap);
                collect_s = secs(t);
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(Streamed {
            loads: r.stream.total_loads,
            report: r.report,
            container: r.container,
            index: r.index,
            annots: r.annots,
            symbols: r.symbols,
            collect_s,
        })
    }

    /// Traced: the same driver's steps, called one by one so each layer
    /// gets its own span.
    fn stream_traced(&self, tr: &mut Tracer) -> Result<Streamed, String> {
        let provisional =
            TraceMeta::new(GAPCC_NAME, self.sampler.period, self.sampler.buffer_bytes);
        let recorder = StreamingRecorder::new(
            StreamSampler::new(self.sampler.clone()),
            &provisional,
            GAPCC_SHARD,
        );
        let mut space = TracedSpace::new(recorder);
        let t = Instant::now();
        tr.span("core.collect", || gap::run(&mut space, &self.gap));
        let collect_s = secs(t);
        let loads = space.counters().loads;
        tr.units(loads);
        let (annots, symbols, sealed) = tr.span("model.seal", || {
            let annots = space.annotations();
            let symbols = space.symbols();
            (annots, symbols, space.into_recorder().finish(GAPCC_NAME))
        });
        tr.units(1);
        let (container, index, _meta, _stats) = sealed.map_err(|e| e.to_string())?;
        let mut reader = ShardReader::new(&container[..]).map_err(|e| e.to_string())?;
        let mut analyzer =
            StreamingAnalyzer::new(&annots, &symbols, self.analysis).with_locality_sizes(&SIZES);
        while let Some(shard) = tr.span("model.decode", || reader.next()) {
            let shard = shard.map_err(|e| e.to_string())?;
            let n = shard.samples.iter().map(|s| s.accesses.len() as u64).sum();
            tr.units(n);
            tr.span("analysis.streaming", || {
                analyzer.ingest_shard(&shard.samples)
            });
            tr.units(n);
        }
        let meta = reader.meta().clone();
        let report = tr.span("analysis.streaming", || analyzer.finish(&meta));
        Ok(Streamed {
            report,
            container,
            index,
            annots,
            symbols,
            loads,
            collect_s,
        })
    }
}

impl Workload for Gapcc {
    fn setup(seed: u64, threads: usize, out: &std::path::Path) -> Result<Self, String> {
        let (gap, sampler, analysis) = gapcc_configs(seed, threads);
        let (resident, ()) = trace_workload(GAPCC_NAME, &sampler, |s| {
            gap::run(s, &gap);
        });
        let an = resident.analyzer(analysis);
        let reference = Reference::resident(&resident.trace, &an);
        let mut w = Gapcc {
            gap,
            sampler,
            analysis,
            reference,
            trace: resident.trace.clone(),
            container_hash: 0,
            out: out.to_path_buf(),
            passes: 0,
            compression_ratio: 0.0,
            container_bytes: 0,
        };
        let streamed = w.stream()?;
        let decoded = decode_sharded(&streamed.container).map_err(|e| e.to_string())?;
        if decoded != w.trace || Reference::streamed(&streamed.report) != w.reference {
            return Err("streamed gapcc trace or report differs from the resident pass".into());
        }
        w.container_hash = fnv1a64(&streamed.container);
        Ok(w)
    }

    fn baseline(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let (loads, ()) = dry_run_loads(|s| {
            gap::run(s, &self.gap);
        });
        let s = secs(t);
        if loads != self.trace.meta.total_loads {
            return Err(format!(
                "dry run saw {loads} loads, traced run {}",
                self.trace.meta.total_loads
            ));
        }
        Ok(s)
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let s = if tr.is_on() {
            self.stream_traced(tr)?
        } else {
            self.stream()?
        };
        self.passes += 1;
        let store = TraceStore::open(StoreConfig::new(self.store_dir(self.passes)))
            .map_err(|e| e.to_string())?;
        let frames = s.index.entries.len() as u64;
        let receipt = tr
            .span("store.put", || {
                store.put("gapcc", &s.container, &s.index, &s.symbols)
            })
            .map_err(|e| e.to_string())?;
        tr.units(frames);
        let accesses = self.trace.observed_accesses();
        let cold = tr
            .span("store.analyze_cold", || {
                store.analyze("gapcc", &s.annots, &s.symbols, self.analysis, &SIZES)
            })
            .map_err(|e| e.to_string())?;
        tr.units(accesses);
        let ok = tr.span("bench.check", || {
            fnv1a64(&s.container) == self.container_hash
                && Reference::streamed(&s.report) == self.reference
                && Reference::streamed(&cold.report) == self.reference
                && cold.result_misses as u64 == frames
        });
        self.compression_ratio = receipt.compression_ratio();
        Ok(Pass {
            ok,
            collect_s: s.collect_s,
            loads: s.loads,
            accesses,
            samples: self.trace.num_samples() as u64,
            drop_rate: 0.0,
            instrs: 0,
        })
    }

    fn probes(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let t = Instant::now();
        let container = encode_sharded(&self.trace, GAPCC_SHARD);
        let s = secs(t);
        self.container_bytes = container.len() as u64;
        Ok(vec![("model.encode", s)])
    }

    fn split(&self, ledger: &mut Ledger, baseline_s: f64, probe: &dyn Fn(&str) -> f64) {
        let n = ledger.roots as f64;
        let loads = n * self.trace.meta.total_loads as f64;
        let accesses = n * self.trace.observed_accesses() as f64;
        ledger.split(
            "core.collect",
            "workloads.native",
            n * baseline_s * 1e9,
            loads,
        );
        ledger.split(
            "core.collect",
            "model.encode",
            n * probe("model.encode") * 1e9,
            accesses,
        );
        ledger.rename("core.collect", "ptsim.sampler");
    }

    fn extras(&self) -> Vec<(&'static str, f64)> {
        let accesses = self.trace.observed_accesses().max(1) as f64;
        vec![
            ("store.compression_ratio", self.compression_ratio),
            (
                "model.bytes_per_access",
                self.container_bytes as f64 / accesses,
            ),
        ]
    }
}

// ---------------------------------------------------------------- ubench

/// Microbenchmark `str2|irr` at O3 on the IR path, then the resident
/// report as `memgaze ubench` prints it.
pub struct Ubench {
    bench: MicroBench,
    cfg: PipelineConfig,
    module: LoadModule,
    inst: Instrumented,
    main: ProcId,
    digest: u64,
    instrs: u64,
    loads: u64,
}

impl Ubench {
    /// Traced: `MemGaze::run_microbench`'s steps, one span per layer.
    fn run_traced(&self, tr: &mut Tracer) -> Result<MicroReport, String> {
        let module = tr.span("isa.codegen", || self.bench.module());
        tr.units(1);
        let cls = tr.span("instrument.classify", || {
            ModuleClassification::analyze(&module)
        });
        tr.units(1);
        let icfg = &self.cfg.instrument;
        let plan = tr.span("instrument.plan", || InstrPlan::build(&module, &cls, icfg));
        tr.units(1);
        let inst = tr.span("instrument.rewrite", || {
            rewrite::apply(&module, &cls, &plan, icfg)
        });
        tr.units(1);
        let main = inst
            .module
            .find_proc("main")
            .ok_or("generated module lacks a main procedure")?;
        let sampler = self.cfg.sampler.clone();
        let meta = TraceMeta::new(self.bench.name(), sampler.period, sampler.buffer_bytes);
        let (exec, raw) = tr.span("ptsim.collect", || {
            let mut mach = Machine::new(&inst.module, SampledCollector::new(sampler));
            let exec = mach.run(main, MAX_INSTRS);
            (exec, mach.into_sink().finish())
        });
        let exec = exec.map_err(|e| e.to_string())?;
        tr.units(exec.instrs);
        let outcome = tr
            .span("ptsim.decode", || decode_sampled(&raw, &inst, meta))
            .map_err(|e| e.to_string())?;
        tr.units(outcome.trace.observed_accesses());
        Ok(MicroReport {
            trace: outcome.trace,
            instrumented: inst,
            run: RunStats {
                exec,
                packets: raw.stats,
                samples: raw.samples.len() as u64,
                ptwrites_enabled: raw.ptwrites_enabled,
            },
        })
    }

    fn run(&self, tr: &mut Tracer) -> Result<(String, Pass), String> {
        let t = Instant::now();
        let report = if tr.is_on() {
            self.run_traced(tr)?
        } else {
            MemGaze::new(self.cfg.clone())
                .run_microbench(&self.bench)
                .map_err(|e| e.to_string())?
        };
        let collect_s = secs(t);
        let an = report.analyzer(self.cfg.analysis);
        let mut text = render_report(tr, &an, &self.bench.name());
        text += &tr.span("analysis.render", || {
            let info = an.decompression();
            format!(
                "\nCollected {} of {} loads ({}%)\n",
                fmt_si(info.observed as f64),
                fmt_si(report.run.exec.loads as f64),
                fmt_pct(100.0 / info.rho().max(1.0))
            )
        });
        let pass = Pass {
            ok: true,
            collect_s,
            loads: report.run.exec.loads,
            accesses: report.trace.observed_accesses(),
            samples: report.trace.num_samples() as u64,
            drop_rate: 0.0,
            instrs: report.run.exec.instrs,
        };
        Ok((text, pass))
    }
}

impl Workload for Ubench {
    fn setup(seed: u64, threads: usize, _out: &std::path::Path) -> Result<Self, String> {
        let bench = MicroBench::parse("str2|irr", 32_768, 50, OptLevel::O3)
            .ok_or("bad microbenchmark pattern")?;
        let mut cfg = PipelineConfig::microbench();
        cfg.sampler.period = 10_000;
        cfg.sampler.seed = seed;
        cfg.analysis = analysis(threads);
        let module = bench.module();
        let main = module
            .find_proc("main")
            .ok_or("generated module lacks a main procedure")?;
        let inst = Instrumenter::new(cfg.instrument.clone()).instrument(&module);
        let mut w = Ubench {
            bench,
            cfg,
            module,
            inst,
            main,
            digest: 0,
            instrs: 0,
            loads: 0,
        };
        // Traced passes run the driver's steps one by one; checking them
        // against this digest shows they reproduce `run_microbench`.
        let (text, pass) = w.run(&mut Tracer::new(false))?;
        if pass.samples == 0 || !text.contains("kernel") {
            return Err("ubench reference report has no samples or no kernel row".into());
        }
        w.instrs = pass.instrs;
        w.digest = digest(&text);
        w.loads = pass.loads;
        Ok(w)
    }

    fn baseline(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let (trace, stats) =
            ground_truth(&self.module, self.main, &self.bench.name()).map_err(|e| e.to_string())?;
        let s = secs(t);
        if stats.loads != self.loads || trace.accesses.len() as u64 != self.loads {
            return Err(format!(
                "ground truth saw {} loads, traced run {}",
                stats.loads, self.loads
            ));
        }
        Ok(s)
    }

    fn pass(&mut self, tr: &mut Tracer) -> Result<Pass, String> {
        let (text, mut pass) = self.run(tr)?;
        pass.ok = tr.span("bench.check", || digest(&text) == self.digest);
        Ok(pass)
    }

    fn probes(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let main = self.inst.module.find_proc("main").ok_or("no main")?;
        let t = Instant::now();
        let exec = Machine::new(&self.inst.module, NullSink)
            .run(main, MAX_INSTRS)
            .map_err(|e| e.to_string())?;
        let s = secs(t);
        if exec.instrs != self.instrs {
            return Err(format!(
                "interpreter alone ran {} instructions, collection {}",
                exec.instrs, self.instrs
            ));
        }
        Ok(vec![("isa.interp", s)])
    }

    fn split(&self, ledger: &mut Ledger, _baseline_s: f64, probe: &dyn Fn(&str) -> f64) {
        let n = ledger.roots as f64;
        let instrs = n * self.instrs as f64;
        ledger.split(
            "ptsim.collect",
            "isa.interp",
            n * probe("isa.interp") * 1e9,
            instrs,
        );
        ledger.rename("ptsim.collect", "ptsim.collector");
    }
}
