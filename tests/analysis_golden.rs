//! Golden outputs for every resident analysis artifact.
//!
//! Each case runs the resident `Analyzer` over one small fixed trace and
//! pins, per artifact, a count plus the FNV-1a-64 digest of the `{:?}`
//! rendering of everything the artifact produced: decompression facts,
//! per-sample reuse and footprint diagnostics, code windows, the function
//! table, the merged block reuse, the full zoom tree with its code
//! attribution, region rows, the working set, heatmaps of the hottest
//! region and interval rows. The traces come from Darknet AlexNet, GAP
//! cc, miniVite v1 and the `str2|irr` microbenchmark, plus one synthetic
//! trace with many functions and sites, ips that have no symbol or no
//! annotation, and two block-size configurations. The values must not
//! move while the analysis kernels are rewritten.

use memgaze::analysis::{AnalysisConfig, Analyzer, CodeWindows, ZoomConfig};
use memgaze::core::{trace_workload, MemGaze, PipelineConfig};
use memgaze::model::{
    fnv1a64, Access, AuxAnnotations, BlockSize, FunctionId, Ip, IpAnnot, LoadClass, Sample,
    SampledTrace, SymbolTable, TraceMeta,
};
use memgaze::ptsim::SamplerConfig;
use memgaze::workloads::darknet::{self, Network};
use memgaze::workloads::gap::{self, GapConfig, GapKernel};
use memgaze::workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze::workloads::ubench::{MicroBench, OptLevel};
use std::fmt::Debug;

/// One artifact's pinned `(count, fnv1a64)`.
type Pin = (&'static str, usize, u64);

#[derive(Default)]
struct Golden {
    count: usize,
    text: String,
}

impl Golden {
    fn add(&mut self, v: &impl Debug) {
        self.count += 1;
        self.text.push_str(&format!("{v:?}\n"));
    }

    fn all<T: Debug>(&mut self, items: impl IntoIterator<Item = T>) {
        for v in items {
            self.add(&v);
        }
    }

    fn pin(self, what: &'static str) -> Pin {
        (what, self.count, fnv1a64(self.text.as_bytes()))
    }
}

fn golden(what: &'static str, fill: impl FnOnce(&mut Golden)) -> Pin {
    let mut g = Golden::default();
    fill(&mut g);
    g.pin(what)
}

/// Every resident artifact of one analyzer, in report order.
fn artifacts(an: &Analyzer<'_>) -> Vec<Pin> {
    let hottest = an.region_rows().first().map(|r| r.range);
    vec![
        golden("decompression", |g| g.add(&an.decompression())),
        golden("sample_reuse", |g| g.all(an.sample_reuse())),
        golden("sample_diagnostics", |g| g.all(an.sample_diagnostics())),
        golden("code_windows", |g| {
            g.all(CodeWindows::build(an.trace(), an.symbols()).iter_with_samples())
        }),
        golden("function_table", |g| g.all(an.function_table())),
        golden("block_reuse", |g| g.all(an.block_reuse().raw_rows())),
        golden("zoom", |g| g.add(&an.zoom())),
        golden("region_rows", |g| g.all(an.region_rows())),
        golden("working_set", |g| g.add(&an.working_set())),
        golden("heatmaps", |g| {
            if let Some(range) = hottest {
                let (acc, d) = an.heatmaps(range, 8, 16);
                g.add(&acc);
                g.add(&d);
            }
        }),
        golden("interval_rows", |g| g.all(an.interval_rows(8))),
    ]
}

/// Compare every artifact and report all drifts at once, in a form that
/// can be pasted back into the table.
fn check(case: &str, got: &[Pin], want: &[Pin]) {
    if got == want {
        return;
    }
    let mut msg = format!("{case}: analysis output drifted; current values:\n");
    for (what, count, fnv) in got {
        let mark = if want.contains(&(what, *count, *fnv)) {
            ""
        } else {
            "  // changed"
        };
        msg += &format!("    (\"{what}\", {count}, {fnv:#018x}),{mark}\n");
    }
    panic!("{msg}");
}

fn threads() -> AnalysisConfig {
    AnalysisConfig {
        threads: 2,
        ..AnalysisConfig::default()
    }
}

#[test]
fn darknet_alexnet() {
    let sampler = SamplerConfig::application(20_000);
    let (report, _) = trace_workload("darknet", &sampler, |s| darknet::run(s, Network::AlexNet));
    let got = artifacts(&report.analyzer(threads()));
    check(
        "Darknet AlexNet",
        &got,
        &[
            ("decompression", 1, 0x5c80524bd3e8b730),
            ("sample_reuse", 101, 0x7ad5fd25142d698d),
            ("sample_diagnostics", 101, 0x737330492c9deac3),
            ("code_windows", 1, 0x566e440c6ca28a61),
            ("function_table", 1, 0x7440095f093e5954),
            ("block_reuse", 2166, 0x889da2d0886f6d16),
            ("zoom", 1, 0x5e53b653a93fe5ed),
            ("region_rows", 4, 0x4a4890d25b7fec7f),
            ("working_set", 1, 0x909ef1806debe149),
            ("heatmaps", 2, 0x6479e3ac8e7f3054),
            ("interval_rows", 8, 0x6bfced04b6f6b6a3),
        ],
    );
}

#[test]
fn gap_cc() {
    let sampler = SamplerConfig::application(2_000);
    let cfg = GapConfig {
        scale: 9,
        degree: 8,
        kernel: GapKernel::Cc,
        max_iters: 9,
        seed: 13,
    };
    let (report, _) = trace_workload("gap", &sampler, |s| gap::run(s, &cfg));
    let got = artifacts(&report.analyzer(threads()));
    check(
        "GAP cc",
        &got,
        &[
            ("decompression", 1, 0xf384282a7dd99e22),
            ("sample_reuse", 9, 0x9a0d25b7391b3ab6),
            ("sample_diagnostics", 9, 0xd36beffd6ae9e4ac),
            ("code_windows", 2, 0x47969d30e51719d3),
            ("function_table", 2, 0x4384d6a5054a0338),
            ("block_reuse", 115, 0x42cae7716b16254c),
            ("zoom", 1, 0x13209ddf2e7244e8),
            ("region_rows", 4, 0x090f04ec0bdf00e7),
            ("working_set", 1, 0xcd8061b638cfdb78),
            ("heatmaps", 2, 0xaa1c1884ad675db2),
            ("interval_rows", 5, 0xde06b7199847b381),
        ],
    );
}

#[test]
fn minivite_v1() {
    let sampler = SamplerConfig::application(4_000);
    let cfg = MiniViteConfig {
        scale: 8,
        degree: 8,
        iterations: 2,
        variant: MapVariant::V1,
        seed: 77,
        v2_default_capacity: 64,
    };
    let (report, _) = trace_workload("miniVite-v1", &sampler, |s| minivite::run(s, &cfg));
    let got = artifacts(&report.analyzer(threads()));
    check(
        "miniVite v1",
        &got,
        &[
            ("decompression", 1, 0x4d0cc10e2ec26ec5),
            ("sample_reuse", 32, 0x49c7c80d36efc988),
            ("sample_diagnostics", 32, 0x3733080d2fcac324),
            ("code_windows", 4, 0x824e8785c6b796d6),
            ("function_table", 4, 0xc3f2a422ea778230),
            ("block_reuse", 233, 0x7941b594fcde86da),
            ("zoom", 1, 0xa6eb073d9552599a),
            ("region_rows", 2, 0xc28132030960d927),
            ("working_set", 1, 0xbaaa654cb50e2f12),
            ("heatmaps", 2, 0xb22d1f349024d536),
            ("interval_rows", 8, 0xcd96062d94486235),
        ],
    );
}

#[test]
fn ubench_str2_irr() {
    let mut cfg = PipelineConfig::microbench();
    cfg.sampler.period = 10_000;
    let bench = MicroBench::parse("str2|irr", 4096, 20, OptLevel::O3).unwrap();
    let report = MemGaze::new(cfg).run_microbench(&bench).unwrap();
    let got = artifacts(&report.analyzer(threads()));
    check(
        "str2|irr",
        &got,
        &[
            ("decompression", 1, 0xd63152e89dde91a0),
            ("sample_reuse", 21, 0x035602634c911bce),
            ("sample_diagnostics", 21, 0xb4d91487b3c9eb7b),
            ("code_windows", 1, 0xdf63d8150bda3c46),
            ("function_table", 1, 0xfd2169dd034b70c1),
            ("block_reuse", 805, 0x2d2f0c26df1d361a),
            ("zoom", 1, 0x1c9e7e7d3c0a0799),
            ("region_rows", 2, 0x2ef0a1712a9c4834),
            ("working_set", 1, 0x852888a8ecd5cb04),
            ("heatmaps", 2, 0x6b28f51247a44f26),
            ("interval_rows", 7, 0x2d5a0f281a57cc1e),
        ],
    );
}

/// Twelve functions with three load sites each, a hole in the symbol
/// table, unannotated sites, shared source lines and equal-count sites,
/// spread over three objects (one streamed, one reused, one scattered).
fn synthetic() -> (SampledTrace, AuxAnnotations, SymbolTable) {
    let mut symbols = SymbolTable::new();
    let mut annots = AuxAnnotations::new();
    for f in 0..12u64 {
        let lo = 0x1000 + f * 0x100;
        // Function 7's range is missing: its ips have no symbol.
        if f != 7 {
            symbols.add_function(format!("fn{:02}", f % 10), Ip(lo), Ip(lo + 0x100), "s.c");
        }
        for site in 0..3u64 {
            // Every fifth site carries no annotation.
            if (f * 3 + site) % 5 == 4 {
                continue;
            }
            let class = match (f + site) % 3 {
                0 => LoadClass::Strided,
                1 => LoadClass::Irregular,
                _ => LoadClass::Constant,
            };
            let mut a = IpAnnot::of_class(class, FunctionId(f as u32));
            a.implied_const = (site % 2) as u32;
            a.src_line = (10 + f * 10 + site / 2) as u32;
            annots.insert(Ip(lo + site * 0x10), a);
        }
    }
    let mut t = SampledTrace::new(TraceMeta::new("synthetic", 4096, 8192));
    t.meta.total_loads = 48 * 4096;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for s in 0..48u64 {
        let base = s * 4096;
        let acc: Vec<Access> = (0..160u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let f = (x >> 8) % 12;
                let site = (x >> 16) % 3;
                let addr = match f % 3 {
                    0 => (1 << 24) + (s * 160 + i) * 8,
                    1 => (8 << 24) + (x >> 24) % 64 * 64,
                    _ => (32 << 24) + (x >> 24) % (1 << 22),
                };
                Access::new(Ip(0x1000 + f * 0x100 + site * 0x10), addr, base + i)
            })
            .collect();
        t.push_sample(Sample::new(acc, base + 160)).unwrap();
    }
    (t, annots, symbols)
}

#[test]
fn synthetic_default_blocks() {
    let (t, annots, symbols) = synthetic();
    let an = Analyzer::new(&t, &annots, &symbols).with_config(threads());
    check(
        "synthetic, default blocks",
        &artifacts(&an),
        &[
            ("decompression", 1, 0xbced8d0b0826b1c7),
            ("sample_reuse", 48, 0x170af32f5cd775d0),
            ("sample_diagnostics", 48, 0x966e6b68ba2898fa),
            ("code_windows", 12, 0x391f97a49eac5bbb),
            ("function_table", 12, 0xf1316c636335e502),
            ("block_reuse", 3532, 0x9bc2c126e698ced7),
            ("zoom", 1, 0x02e716c642743a87),
            ("region_rows", 3, 0xa046682fd86c5811),
            ("working_set", 1, 0x3ad8e38e71401055),
            ("heatmaps", 2, 0xb86a7b3c88760436),
            ("interval_rows", 8, 0x174354bdd7a3f5c8),
        ],
    );
}

#[test]
fn synthetic_other_blocks() {
    let (t, annots, symbols) = synthetic();
    let cfg = AnalysisConfig {
        footprint_block: BlockSize::CACHE_LINE,
        reuse_block: BlockSize::from_log2(7),
        zoom: ZoomConfig {
            access_block: BlockSize::WORD,
            initial_page_log2: 18,
            min_page_log2: 8,
            min_region_bytes: 1024,
            ..ZoomConfig::default()
        },
        threads: 2,
    };
    let an = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
    check(
        "synthetic, other blocks",
        &artifacts(&an),
        &[
            ("decompression", 1, 0xbced8d0b0826b1c7),
            ("sample_reuse", 48, 0x8d982558de67d9d0),
            ("sample_diagnostics", 48, 0xc3602a2a6ab32b8d),
            ("code_windows", 12, 0x391f97a49eac5bbb),
            ("function_table", 12, 0x7d118dc6fa1cf7e1),
            ("block_reuse", 2995, 0x72a70b4bc257e398),
            ("zoom", 1, 0x5e2d96a7621a2c3a),
            ("region_rows", 3, 0xe79c1d64c9b905f2),
            ("working_set", 1, 0x3ad8e38e71401055),
            ("heatmaps", 2, 0x83f47faa98968216),
            ("interval_rows", 8, 0x55916b5ce0641555),
        ],
    );
}
