//! Tests of the benchmark's helpers: the tail percentile, the self-time
//! subtraction behind the ledger, the report digest, and the metric
//! tables `BENCHMARK.json` must agree with.

use memgaze_analysis::Analyzer;
use memgaze_model::{Access, AuxAnnotations, Sample, SampledTrace, SymbolTable, TraceMeta};
use memgaze_pipebench::{
    digest, median, percentile, percentile_with_tail, render_report, result_line, samples_beyond,
    self_times, Ledger, Metric, Span, Tracer, END_TO_END, PER_LAYER,
};

#[test]
fn median_and_nearest_rank_percentile() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 5.0);
    assert_eq!(percentile(&xs, 90.0), 9.0);
    assert_eq!(percentile(&xs, 100.0), 10.0);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    // 100 samples: the 90th percentile is the 90th value and ten lie
    // beyond it.
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile_with_tail(&xs, 90.0, 10), Some(90.0));
    // 99 samples leave only nine beyond it.
    assert_eq!(percentile_with_tail(&xs[1..], 90.0, 10), None);
    assert_eq!(percentile_with_tail(&[], 90.0, 10), None);
    assert_eq!(samples_beyond(100, 90.0), 10);
    assert_eq!(samples_beyond(99, 90.0), 9);
    assert_eq!(samples_beyond(0, 90.0), 0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        units: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("pass", 0, 100, None),
        span("a", 10, 30, Some(0)),
        // Overlaps `a`: only 30..50 is new cover for the root.
        span("b", 25, 50, Some(0)),
        span("a.inner", 12, 20, Some(1)),
        // Sticks out of its parent: only the part inside counts.
        span("c", 90, 120, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![50, 12, 25, 8, 30]);
}

#[test]
fn ledger_rows_add_up_to_the_root_wall_time() {
    let mut spans = vec![
        span("pass", 0, 100, None),
        span("collect", 0, 60, Some(0)),
        span("analyze", 60, 95, Some(0)),
        span("outside", 100, 200, None),
    ];
    spans[1].units = 30;
    let mut ledger = Ledger::default();
    ledger.absorb(&spans, "pass");
    ledger.absorb(&spans, "pass");
    assert_eq!(ledger.roots, 2);
    assert_eq!(ledger.wall_ns, 200.0);
    assert!(ledger.row("outside").is_none());
    assert!((ledger.unattributed_pct() - 5.0).abs() < 1e-9);

    // Splitting a measured share out of a row keeps the total.
    ledger.split("collect", "native", 80.0, 60.0);
    ledger.rename("collect", "sampler");
    assert_eq!(
        ledger.row("native").map(|r| r.ns_per_unit()),
        Some(80.0 / 60.0)
    );
    assert_eq!(ledger.row("sampler").map(|r| r.self_ns), Some(40.0));
    assert!((ledger.unattributed_pct() - 5.0).abs() < 1e-9);
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut tr = Tracer::new(false);
    tr.open("pass");
    assert_eq!(tr.span("x", || 7), 7);
    tr.units(3);
    tr.close();
    assert!(tr.spans().is_empty());

    let mut tr = Tracer::new(true);
    tr.open("pass");
    tr.span("x", || ());
    tr.units(3);
    tr.close();
    let names: Vec<_> = tr
        .spans()
        .iter()
        .map(|s| (s.name, s.parent, s.units))
        .collect();
    assert_eq!(names, vec![("pass", None, 0), ("x", Some(0), 3)]);
}

fn trace(stride: u64) -> SampledTrace {
    let mut t = SampledTrace::new(TraceMeta::new("t", 100, 8192));
    for s in 0..6u64 {
        let acc = (0..40)
            .map(|i| Access::new(0x400u64 + (i % 3) * 4, (s * 64 + i) * stride, s * 100 + i))
            .collect();
        t.push_sample(Sample::new(acc, s * 100 + 40)).unwrap();
    }
    t.meta.total_loads = 600;
    t
}

fn rendered(t: &SampledTrace, traced: bool) -> String {
    let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
    let an = Analyzer::new(t, &annots, &symbols);
    render_report(&mut Tracer::new(traced), &an, "t")
}

#[test]
fn report_digest_is_stable_and_tells_traces_apart() {
    assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
    let a = rendered(&trace(64), false);
    assert!(a.starts_with("t: 6 samples"), "{a}");
    assert!(a.contains("Working set:"), "{a}");
    // Tracing changes no byte of the report.
    assert_eq!(digest(&a), digest(&rendered(&trace(64), true)));
    assert_ne!(digest(&a), digest(&rendered(&trace(4096), false)));
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    let metrics = [
        Metric {
            name: "pass_s",
            value: 0.125,
            unit: "s",
        },
        Metric {
            name: "ok_pct",
            value: 100.0,
            unit: "%",
        },
    ];
    assert_eq!(
        result_line(true, 4, 0, &metrics),
        "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"pass_s\": \
         {\"value\": 0.125, \"unit\": \"s\"}, \"ok_pct\": {\"value\": 100, \"unit\": \"%\"}}}"
    );
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
}
