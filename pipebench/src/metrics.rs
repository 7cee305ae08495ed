//! Metric names and units, the host record every result carries, and the
//! JSON result line.

/// End-to-end metrics `(name, unit)`, printed by every untraced run in
/// this order. `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("loads_per_s", "1/s"),
    ("accesses_per_s", "1/s"),
    ("tracing_tax", "x"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("sessions_per_s", "1/s"),
    ("session_p50_ms", "ms"),
    ("session_p90_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run in this
/// order. A layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.native_ns_per_load", "ns/load"),
    ("ptsim.sampler_ns_per_load", "ns/load"),
    ("ptsim.samples", "count"),
    ("ptsim.drop_rate", "ratio"),
    ("isa.codegen_us", "us"),
    ("isa.interp_ns_per_instr", "ns/instr"),
    ("ptsim.collector_ns_per_instr", "ns/instr"),
    ("ptsim.decode_ns_per_access", "ns/access"),
    ("instrument.classify_us", "us"),
    ("instrument.plan_us", "us"),
    ("instrument.rewrite_us", "us"),
    ("model.encode_ns_per_access", "ns/access"),
    ("model.seal_us", "us"),
    ("model.decode_ns_per_access", "ns/access"),
    ("model.bytes_per_access", "B/access"),
    ("analysis.decompression_ns_per_access", "ns/access"),
    ("analysis.sample_reuse_ns_per_access", "ns/access"),
    ("analysis.code_windows_ns_per_access", "ns/access"),
    ("analysis.function_table_ns_per_access", "ns/access"),
    ("analysis.block_reuse_ns_per_access", "ns/access"),
    ("analysis.zoom_ns_per_access", "ns/access"),
    ("analysis.region_rows_ns_per_access", "ns/access"),
    ("analysis.working_set_ns_per_access", "ns/access"),
    ("analysis.render_us", "us"),
    ("analysis.streaming_ns_per_access", "ns/access"),
    ("analysis.mgzp_bytes_per_session", "B"),
    ("analysis.mgzp_decode_us", "us"),
    ("analysis.mgzp_finish_us", "us"),
    ("store.put_us_per_frame", "us/frame"),
    ("store.analyze_cold_ns_per_access", "ns/access"),
    ("store.compression_ratio", "ratio"),
    ("serve.create_p50_us", "us"),
    ("serve.feed_p50_us", "us"),
    ("serve.seal_p50_us", "us"),
    ("serve.rejected", "count"),
    ("bench.check_us", "us"),
    ("ledger.unattributed_pct", "%"),
    ("ledger.trace_overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn num(v: f64) -> String {
    // Rust prints the shortest string that reads back as the same f64,
    // never in exponent form, so every digit measured is kept.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric as `{"value": .., "unit": ..}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// CPUs this process may run on (what `nproc` reports).
    pub host_cpus: usize,
    /// Analysis threads, pinned for every workload.
    pub analysis_threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Commit of the measured tree, or `unknown` where the working
    /// directory is not a git checkout.
    pub git_rev: String,
    /// Compiler version.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !s.is_empty()).then_some(s)
}

impl Host {
    /// Probe the host.
    pub fn probe(seed: u64, analysis_threads: usize) -> Host {
        Host {
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            analysis_threads,
            seed,
            // Only the working directory's own repository names the tree
            // measured; git would otherwise report an enclosing one.
            git_rev: std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The record as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"host_cpus\": {}, \"analysis_threads\": {}, \"seed\": {}, \"git_rev\": {}, \"rustc\": {}}}",
            self.host_cpus,
            self.analysis_threads,
            self.seed,
            json_str(&self.git_rev),
            json_str(&self.rustc)
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
