//! BENCH_analysis: end-to-end analyzer throughput — memoized artifact
//! cache vs. per-table recomputation.
//!
//! The multi-table report path (function table, region tables, interval
//! table, window/locality series, heatmaps) shares every expensive
//! artifact through the `Analyzer`'s interior-mutability cache. The
//! "fresh" baseline reproduces the pre-cache behaviour by constructing a
//! new `Analyzer` for each table, so each entry point recomputes its
//! per-sample passes, merged block summary, and zoom tree.

use memgaze_analysis::{reuse_histogram_from, AnalysisConfig, Analyzer, CacheStats, Table};
use memgaze_bench::{emit, scales, timed};
use memgaze_model::{Access, AuxAnnotations, Sample, SampledTrace, SymbolTable, TraceMeta};
use serde::Serialize;

/// A synthetic trace mixing a strided phase and a cyclic-reuse phase.
/// `skew > 0` makes sample 0 `skew`× larger than the rest — the
/// work-stealing scheduler's worst case for static chunking.
fn synthetic_trace(samples: usize, window: usize, skew: usize) -> SampledTrace {
    let mut t = SampledTrace::new(TraceMeta::new("bench", 10_000, 16 << 10));
    t.meta.total_loads = (samples * 10_000) as u64;
    for s in 0..samples {
        let w = if s == 0 && skew > 0 {
            window * skew
        } else {
            window
        };
        let base = (s * 10_000 * skew.max(1)) as u64;
        let accesses: Vec<Access> = (0..w)
            .map(|i| {
                // Even accesses stream; odd accesses cycle within one of
                // four distinct hot regions (the paper's region tables
                // list several hot ranges, each drilled into separately).
                let addr = if i % 2 == 0 {
                    0x10_0000 + ((s * w + i) as u64) * 64
                } else {
                    let hot = ((i / 2) % 4) as u64;
                    0x80_0000 + hot * 0x100_0000 + ((i % 64) as u64) * 64
                };
                Access::new(0x400u64 + (i as u64 % 16) * 4, addr, base + i as u64)
            })
            .collect();
        t.push_sample(Sample::new(accesses, base + w as u64))
            .unwrap();
    }
    t
}

/// The multi-table report path over one (cached) analyzer: the hot
/// function table (IV/VI), the hot-region table (V/VII/IX) plus a
/// drill-down row per region, the interval table (VIII), the Fig. 8
/// heatmaps of the two hottest regions, and the reuse-distance
/// histogram. Every step shares the cached per-sample analyses, merged
/// block summary, and zoom tree.
fn report_path(a: &Analyzer<'_>) -> usize {
    let mut touched = 0usize;
    touched += a.function_table().len();
    let regions = a.region_rows();
    touched += regions.len();
    for r in &regions {
        touched += a.region_row_for(r.range.0, r.range.1).code.len();
    }
    touched += a.interval_rows(8).len();
    for r in regions.iter().take(2) {
        let (acc, _) = a.heatmaps(r.range, 16, 32);
        touched += acc.dark_cells(0.5);
    }
    touched += reuse_histogram_from(a.sample_reuse()).count() as usize;
    touched
}

/// The same path with a fresh analyzer per table — the pre-memoization
/// cost model, where every entry point recomputed its artifacts (and
/// each drill-down query rebuilt the zoom tree).
fn report_path_fresh(
    trace: &SampledTrace,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    cfg: AnalysisConfig,
) -> usize {
    let fresh = || Analyzer::new(trace, annots, symbols).with_config(cfg);
    let mut touched = 0usize;
    touched += fresh().function_table().len();
    let regions = fresh().region_rows();
    touched += regions.len();
    for r in &regions {
        touched += fresh().region_row_for(r.range.0, r.range.1).code.len();
    }
    touched += fresh().interval_rows(8).len();
    for r in regions.iter().take(2) {
        let a = fresh();
        let (acc, _) = a.heatmaps(r.range, 16, 32);
        touched += acc.dark_cells(0.5);
    }
    touched += reuse_histogram_from(fresh().sample_reuse()).count() as usize;
    touched
}

#[derive(Serialize)]
struct Scenario {
    scenario: String,
    samples: usize,
    window: usize,
    fresh_ms: f64,
    memoized_ms: f64,
    speedup: f64,
    cache_stats: CacheStats,
}

#[derive(Serialize)]
struct Payload {
    threads: usize,
    scenarios: Vec<Scenario>,
}

fn run_scenario(name: &str, samples: usize, window: usize, skew: usize) -> Scenario {
    let trace = synthetic_trace(samples, window, skew);
    let annots = AuxAnnotations::new();
    let symbols = SymbolTable::new();
    let cfg = AnalysisConfig::default();

    // Warm up (page in the trace, spin up the thread pool path).
    let _ = report_path(&Analyzer::new(&trace, &annots, &symbols).with_config(cfg));

    // Best of three runs per path; each memoized run starts from a cold
    // cache (analyzer construction included).
    let mut fresh_ms = f64::INFINITY;
    let mut memoized_ms = f64::INFINITY;
    let mut fresh_touched = 0;
    let mut memo_touched = 0;
    for _ in 0..3 {
        let (ms, n) = timed(|| report_path_fresh(&trace, &annots, &symbols, cfg));
        fresh_ms = fresh_ms.min(ms);
        fresh_touched = n;
        let (ms, n) = timed(|| {
            let a = Analyzer::new(&trace, &annots, &symbols).with_config(cfg);
            report_path(&a)
        });
        memoized_ms = memoized_ms.min(ms);
        memo_touched = n;
    }
    assert_eq!(fresh_touched, memo_touched, "paths must agree");

    let analyzer = Analyzer::new(&trace, &annots, &symbols).with_config(cfg);
    let _ = report_path(&analyzer);
    let stats = analyzer.cache_stats();
    assert_eq!(stats.block_reuse, 1, "block_reuse must compute once");
    assert_eq!(stats.zoom, 1, "zoom must compute once");
    assert_eq!(stats.sample_reuse, 1, "sample reuse must compute once");
    assert_eq!(stats.columns, 1, "access columns must build once");

    Scenario {
        scenario: name.to_string(),
        samples,
        window,
        fresh_ms,
        memoized_ms,
        speedup: fresh_ms / memoized_ms.max(1e-9),
        cache_stats: stats,
    }
}

fn main() {
    let sc = scales::from_env();
    let samples = (sc.micro_elems as usize / 64).clamp(32, 256);
    let scenarios = vec![
        run_scenario("uniform 64-sample report", samples, 512, 0),
        run_scenario("large-window report", samples / 2, 2048, 0),
        run_scenario("skewed sample sizes (1×32 larger)", samples, 256, 32),
    ];

    let mut table = Table::new(
        "BENCH_analysis: multi-table report, fresh vs memoized analyzer",
        &["scenario", "fresh (ms)", "memoized (ms)", "speedup"],
    );
    for s in &scenarios {
        table.push_row(vec![
            s.scenario.clone(),
            format!("{:.2}", s.fresh_ms),
            format!("{:.2}", s.memoized_ms),
            format!("{:.2}x", s.speedup),
        ]);
    }
    let payload = Payload {
        threads: AnalysisConfig::default().threads,
        scenarios,
    };
    emit("BENCH_analysis", &table, &payload);

    let min = payload
        .scenarios
        .iter()
        .map(|s| s.speedup)
        .fold(f64::INFINITY, f64::min);
    println!("minimum speedup across scenarios: {min:.2}x");
}
