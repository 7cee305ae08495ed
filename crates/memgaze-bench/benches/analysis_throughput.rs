//! Criterion benches of the analysis kernels: reuse distance, footprint
//! diagnostics, window series, the access-column build and the
//! column-backed function table and zoom — the costs behind Table II's
//! 'Analysis/2'.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memgaze_analysis::{
    address_bounds, analyze_window, sample_analyses, window_series, zoom_columns, AccessColumns,
    AnalysisConfig, Analyzer, BlockReuse, FootprintDiagnostics, ZoomConfig,
};
use memgaze_model::{
    Access, AuxAnnotations, BlockSize, Ip, Sample, SampledTrace, SymbolTable, TraceMeta,
};

/// A synthetic trace mixing a strided phase and a cyclic-reuse phase.
fn synthetic_trace(samples: usize, window: usize) -> SampledTrace {
    let mut t = SampledTrace::new(TraceMeta::new("bench", 10_000, 16 << 10));
    t.meta.total_loads = (samples * 10_000) as u64;
    for s in 0..samples {
        let base = (s * 10_000) as u64;
        let accesses: Vec<Access> = (0..window)
            .map(|i| {
                let addr = if i % 2 == 0 {
                    0x10_0000 + ((s * window + i) as u64) * 64
                } else {
                    0x80_0000 + ((i % 64) as u64) * 64
                };
                Access::new(0x400u64 + (i as u64 % 16) * 4, addr, base + i as u64)
            })
            .collect();
        t.push_sample(Sample::new(accesses, base + window as u64))
            .unwrap();
    }
    t
}

fn bench_reuse_distance(c: &mut Criterion) {
    let mut g = c.benchmark_group("reuse_distance");
    for window in [256usize, 1024, 4096] {
        let t = synthetic_trace(1, window);
        let accesses = t.samples[0].accesses.clone();
        g.throughput(Throughput::Elements(window as u64));
        g.bench_with_input(BenchmarkId::from_parameter(window), &accesses, |b, a| {
            b.iter(|| analyze_window(a, BlockSize::CACHE_LINE))
        });
    }
    g.finish();
}

fn bench_diagnostics(c: &mut Criterion) {
    let annots = AuxAnnotations::new();
    let t = synthetic_trace(1, 4096);
    let accesses = t.samples[0].accesses.clone();
    c.bench_function("footprint_diagnostics_4096", |b| {
        b.iter(|| FootprintDiagnostics::compute(&accesses, &annots, BlockSize::WORD))
    });
}

fn bench_window_series(c: &mut Criterion) {
    let annots = AuxAnnotations::new();
    let t = synthetic_trace(64, 512);
    let sizes = [16u64, 64, 256];
    c.bench_function("window_series_64x512", |b| {
        b.iter(|| window_series(&t, &annots, BlockSize::WORD, &sizes))
    });
}

fn bench_full_analyzer(c: &mut Criterion) {
    let annots = AuxAnnotations::new();
    let symbols = SymbolTable::new();
    let t = synthetic_trace(64, 512);
    c.bench_function("analyzer_tables_64x512", |b| {
        b.iter(|| {
            let a = Analyzer::new(&t, &annots, &symbols).with_config(AnalysisConfig::default());
            let rows = a.region_rows();
            let intervals = a.interval_rows(8);
            (rows.len(), intervals.len())
        })
    });
}

/// Every memoized artifact from one analyzer: the cold path constructs
/// the cache once per iteration; the warm path re-reads a prebuilt cache
/// (all hits) — the gap is the full cost of the artifact builds.
fn bench_memoized_report(c: &mut Criterion) {
    let annots = AuxAnnotations::new();
    let symbols = SymbolTable::new();
    let t = synthetic_trace(64, 512);
    let all_artifacts = |a: &Analyzer<'_>| {
        let mut n = a.function_table().len();
        n += a.sample_reuse().len();
        n += a.sample_diagnostics().len();
        n += a.block_reuse().len();
        n += a.zoom().map_or(0, |z| z.children.len());
        n += a.region_rows().len();
        n += a.interval_rows(8).len();
        n += a.window_series(&[16, 64, 256]).len();
        n += a.locality_series(&[16, 64, 256]).len();
        n += a.columns().len();
        n += a.decompression().observed as usize;
        n
    };
    let mut g = c.benchmark_group("memoized_report_64x512");
    g.bench_function("cold_cache", |b| {
        b.iter(|| {
            let a = Analyzer::new(&t, &annots, &symbols).with_config(AnalysisConfig::default());
            all_artifacts(&a)
        })
    });
    let warm = Analyzer::new(&t, &annots, &symbols).with_config(AnalysisConfig::default());
    all_artifacts(&warm);
    g.bench_function("warm_cache", |b| b.iter(|| all_artifacts(&warm)));
    g.finish();
}

/// Skewed sample sizes: one sample 32× larger than the rest. Static
/// chunking would serialize on the giant sample; the work-stealing
/// scheduler keeps the other workers busy on the small ones.
fn bench_skewed_samples(c: &mut Criterion) {
    let annots = AuxAnnotations::new();
    let symbols = SymbolTable::new();
    let mut t = synthetic_trace(63, 256);
    let giant: Vec<Access> = (0..256 * 32)
        .map(|i| {
            let addr = 0x40_0000 + ((i % 4096) as u64) * 64;
            Access::new(0x400u64, addr, 1_000_000 + i as u64)
        })
        .collect();
    t.push_sample(Sample::new(giant, 1_000_000 + 256 * 32))
        .unwrap();
    c.bench_function("analyzer_tables_skewed_1x32", |b| {
        b.iter(|| {
            let a = Analyzer::new(&t, &annots, &symbols).with_config(AnalysisConfig::default());
            let rows = a.region_rows();
            let intervals = a.interval_rows(8);
            (rows.len(), intervals.len())
        })
    });
}

/// The columnar access core: building the columns, then the function
/// table and zoom that read them, each from a cold analyzer, plus the
/// zoom kernel alone over prebuilt columns.
fn bench_columns(c: &mut Criterion) {
    let annots = AuxAnnotations::new();
    // Four functions over the trace's 16 load sites.
    let mut symbols = SymbolTable::new();
    for f in 0..4u64 {
        let lo = 0x400 + f * 16;
        symbols.add_function(format!("f{f}"), Ip(lo), Ip(lo + 16), "b.c");
    }
    let t = synthetic_trace(64, 512);
    let samples = || t.samples.iter().map(|s| s.accesses.as_slice());
    let cfg = AnalysisConfig::default();
    let sizes = [cfg.footprint_block, cfg.reuse_block, BlockSize::OS_PAGE];
    let mut g = c.benchmark_group("columns_64x512");
    g.throughput(Throughput::Elements(t.observed_accesses()));
    g.bench_function("build", |b| {
        b.iter(|| AccessColumns::build(samples(), &annots, &symbols, &sizes).len())
    });
    g.bench_function("function_table", |b| {
        b.iter(|| {
            let a = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
            a.function_table().len()
        })
    });
    g.bench_function("zoom", |b| {
        b.iter(|| {
            let a = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
            a.zoom().map_or(0, |z| z.children.len())
        })
    });
    let cols = AccessColumns::build(samples(), &annots, &symbols, &sizes);
    let col = cols.column(cfg.reuse_block).expect("reuse column");
    let summary = BlockReuse::from_columns(&cols, col, &sample_analyses(&cols, col, 1));
    let pages = cols.column(BlockSize::OS_PAGE).expect("page column");
    let bounds = address_bounds(t.accesses()).expect("accesses");
    g.bench_function("zoom_kernel", |b| {
        b.iter(|| {
            zoom_columns(
                &cols,
                pages,
                bounds,
                &summary,
                &symbols,
                ZoomConfig::default(),
            )
            .map(|z| z.blocks)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_columns,
    bench_reuse_distance,
    bench_diagnostics,
    bench_window_series,
    bench_full_analyzer,
    bench_memoized_report,
    bench_skewed_samples
);
criterion_main!(benches);
