//! `memgaze-pipebench`: the MemGaze pipeline benchmark.
//!
//! ```text
//! memgaze-pipebench --workload <name|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) times each layer from outside, writes the per-layer
//! ledger to `.bench_out/`, and prints every per-layer metric. The last
//! line of standard output is the JSON result. See `README.md`.

mod native;
mod serve_replay;

use memgaze_pipebench::metrics::{json_str, peak_rss_mb};
use memgaze_pipebench::{
    median, percentile, percentile_with_tail, result_line, samples_beyond, Host, Ledger, Metric,
    Span, Tracer, END_TO_END, PER_LAYER,
};
use native::{Gapcc, Pass, Resnet, Ubench, Workload};
use serve_replay::{Replay, CLIENTS};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const WORKLOADS: &[&str] = &[
    "resnet-resident",
    "gapcc-streaming",
    "ubench-ir",
    "serve-replay",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Iterations per untraced baseline run.
const BASELINE_EVERY: usize = 4;
/// Untraced serve sessions per run at the least, so that at least ten
/// lie beyond the 90th percentile.
const MIN_SESSIONS: usize = 100;
/// Longest a serve run keeps going past `--seconds` to reach
/// [`MIN_SESSIONS`].
const MAX_EXTRA: Duration = Duration::from_secs(60);
/// Analysis threads, pinned for every workload.
const ANALYSIS_THREADS: usize = 1;
/// Where ledgers and scratch stores go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: memgaze-pipebench --workload <resnet-resident|gapcc-streaming|ubench-ir|serve-replay|all> \
     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Metric values by name; every name of the run's table is printed,
    /// with 0 for one the workload does not reach.
    values: BTreeMap<&'static str, f64>,
    ledger: Option<Ledger>,
    /// Extra context for the record: `(key, JSON value)`.
    context: Vec<(&'static str, String)>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `setup` [`SETUPS`] times, timing each; keep the last result and
/// hand earlier ones to `retire`.
fn setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let w = setup()?;
        times.push(secs(t));
        if let Some(old) = kept.replace(w) {
            retire(old)?;
        }
    }
    Ok((kept.expect("SETUPS > 0"), median(&times)))
}

/// Per-layer values from the ledger rows: `<row>_ns_per_<unit>` is the
/// row's ns per unit, `<row>_us_per_<unit>` the same in µs, and
/// `<row>_us` the row's µs per root span. `extras` take precedence.
fn per_layer(ledger: &Ledger, extras: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
    let per_root = ledger.roots.max(1) as f64;
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let row_value = || {
                if let Some((row, _)) = name.split_once("_ns_per_") {
                    ledger.row(row).map(|r| r.ns_per_unit())
                } else if let Some((row, _)) = name.split_once("_us_per_") {
                    ledger.row(row).map(|r| r.ns_per_unit() / 1e3)
                } else {
                    let row = name.strip_suffix("_us")?;
                    ledger.row(row).map(|r| r.self_ns / per_root / 1e3)
                }
            };
            let v = extras.get(name).copied().or_else(row_value).unwrap_or(0.0);
            (name, v)
        })
        .collect()
}

/// The two ledger metrics every traced run reports.
fn ledger_extras(
    ledger: &Ledger,
    traced_walls: &[f64],
    untraced_walls: &[f64],
    extras: &mut BTreeMap<&'static str, f64>,
) {
    extras.insert("ledger.unattributed_pct", ledger.unattributed_pct());
    extras.insert(
        "ledger.trace_overhead_pct",
        100.0 * (median(traced_walls) / median(untraced_walls) - 1.0),
    );
}

fn run_passes<W: Workload>(args: &Args, out: &Path) -> Result<Outcome, String> {
    let (mut w, setup_s) = setups(|| W::setup(args.seed, ANALYSIS_THREADS, out), |_| Ok(()))?;
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let mut baselines = Vec::new();
    let mut taxes = Vec::new();
    let mut untraced: Vec<(f64, Pass)> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut probes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = Pass::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i < MIN_PASSES || secs(start) < args.seconds {
        // The baseline only feeds `tracing_tax`, so it runs on every
        // fourth iteration and leaves the rest of the window to passes.
        let baseline = if i.is_multiple_of(BASELINE_EVERY) {
            let b = w.baseline()?;
            baselines.push(b);
            Some(b)
        } else {
            None
        };
        // Traced runs alternate which kind of pass goes first.
        let order: &[bool] = match (args.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            let tr = if traced { &mut on } else { &mut off };
            tr.open("pass");
            let t = Instant::now();
            let result = w.pass(tr);
            let wall = secs(t);
            tr.close();
            attempted += 1;
            match result {
                Ok(p) if p.ok => {
                    last = p;
                    if traced {
                        traced_walls.push(wall);
                    } else {
                        // Paired with the baseline just before it, so
                        // host speed drifting between iterations cancels.
                        if let Some(b) = baseline {
                            taxes.push(p.collect_s / b);
                        }
                        untraced.push((wall, p));
                    }
                }
                Ok(_) => {
                    failed += 1;
                    eprintln!("pipebench: pass {i}: output differs from the reference");
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("pipebench: pass {i}: {e}");
                }
            }
        }
        if args.trace {
            for (name, s) in w.probes()? {
                probes.entry(name).or_default().push(s);
            }
        }
        i += 1;
    }
    let measured_s = secs(start);

    let walls: Vec<f64> = untraced.iter().map(|(w, _)| *w).collect();
    let pass_s = median(&walls);
    let mut values = BTreeMap::new();
    let mut ledger = None;
    if args.trace {
        let mut l = Ledger::default();
        l.absorb(on.spans(), "pass");
        let probe = |name: &str| probes.get(name).map_or(0.0, |v| median(v));
        w.split(&mut l, median(&baselines), &probe);
        let mut extras: BTreeMap<&'static str, f64> = w.extras().into_iter().collect();
        extras.insert("ptsim.samples", last.samples as f64);
        extras.insert("ptsim.drop_rate", last.drop_rate);
        ledger_extras(&l, &traced_walls, &walls, &mut extras);
        values = per_layer(&l, &extras);
        ledger = Some(l);
    } else {
        values.insert("setup_s", setup_s);
        values.insert("pass_s", pass_s);
        values.insert("loads_per_s", last.loads as f64 / pass_s);
        values.insert("accesses_per_s", last.accesses as f64 / pass_s);
        values.insert("tracing_tax", median(&taxes));
        values.insert("peak_rss_mb", peak_rss_mb());
        values.insert("ok_pct", ok_pct(attempted, failed));
        // One checked pass is one session of this workload.
        values.insert(
            "sessions_per_s",
            walls.len() as f64 / walls.iter().sum::<f64>(),
        );
        values.insert("session_p50_ms", pass_s * 1e3);
        values.insert("session_p90_ms", percentile(&walls, 90.0) * 1e3);
    }
    Ok(Outcome {
        attempted,
        failed,
        values,
        ledger,
        context: vec![
            ("untraced_passes", walls.len().to_string()),
            (
                "p90_samples_beyond",
                samples_beyond(walls.len(), 90.0).to_string(),
            ),
            ("traced_passes", traced_walls.len().to_string()),
            ("baseline_runs", baselines.len().to_string()),
            ("measured_s", measured_s.to_string()),
        ],
    })
}

fn ok_pct(attempted: u64, failed: u64) -> f64 {
    100.0 * (attempted - failed) as f64 / attempted.max(1) as f64
}

/// One client's sessions: `(wall seconds, traced, outcome)`, and its
/// traced spans.
type ClientLog = (Vec<(f64, bool, serve_replay::Session)>, Vec<Span>);

fn run_serve(args: &Args) -> Result<Outcome, String> {
    let mut taxes = Vec::new();
    let (replay, setup_s) = setups(
        || {
            let r = Replay::setup(args.seed, ANALYSIS_THREADS)?;
            taxes.push(r.tracing_tax);
            Ok(r)
        },
        Replay::shutdown,
    )?;
    let seconds = Duration::from_secs_f64(args.seconds);
    let min_sessions = if args.trace { 0 } else { MIN_SESSIONS };
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (replay, done) = (&replay, &done);
                s.spawn(move || {
                    let client = replay.client();
                    let mut on = Tracer::new(true);
                    let mut off = Tracer::new(false);
                    let mut log = Vec::new();
                    let mut k = 0usize;
                    loop {
                        let elapsed = start.elapsed();
                        let short = done.load(Ordering::SeqCst) < min_sessions;
                        if elapsed >= seconds && !(short && elapsed < seconds + MAX_EXTRA) {
                            break;
                        }
                        let traced = args.trace && (k + c) % 2 == 1;
                        let tr = if traced { &mut on } else { &mut off };
                        tr.open("session");
                        let t = Instant::now();
                        let outcome = replay.session(&client, tr);
                        let wall = secs(t);
                        tr.close();
                        done.fetch_add(1, Ordering::SeqCst);
                        log.push((wall, traced, outcome));
                        k += 1;
                    }
                    (log, on.spans().to_vec())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let measured_s = secs(start);
    let (meta_loads, accesses, samples) =
        (replay.meta.total_loads, replay.accesses, replay.samples);
    replay.shutdown()?;

    let sessions: Vec<&(f64, bool, serve_replay::Session)> =
        logs.iter().flat_map(|(l, _)| l).collect();
    let attempted = sessions.len() as u64;
    let failed = sessions.iter().filter(|(_, _, s)| !s.ok).count() as u64;
    let rejected = sessions.iter().filter(|(_, _, s)| s.rejected).count();
    let ok_walls = |traced: bool| -> Vec<f64> {
        sessions
            .iter()
            .filter(|(_, t, s)| *t == traced && s.ok)
            .map(|(w, _, _)| *w)
            .collect()
    };
    let untraced = ok_walls(false);
    let mut values = BTreeMap::new();
    let mut ledger = None;
    if args.trace {
        let mut l = Ledger::default();
        let mut durs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (_, spans) in &logs {
            l.absorb(spans, "session");
            for s in spans {
                durs.entry(s.name).or_default().push(s.dur_ns() as f64);
            }
        }
        let p50_us = |name: &str| durs.get(name).map_or(0.0, |v| median(v) / 1e3);
        let mgzp = sessions
            .iter()
            .map(|(_, _, s)| s.mgzp_bytes)
            .max()
            .unwrap_or(0);
        let mut extras = BTreeMap::from([
            ("serve.create_p50_us", p50_us("serve.create")),
            ("serve.feed_p50_us", p50_us("serve.feed")),
            ("serve.seal_p50_us", p50_us("serve.seal")),
            ("serve.rejected", rejected as f64),
            ("analysis.mgzp_bytes_per_session", mgzp as f64),
            ("ptsim.samples", samples as f64),
        ]);
        ledger_extras(&l, &ok_walls(true), &untraced, &mut extras);
        values = per_layer(&l, &extras);
        ledger = Some(l);
    } else {
        let ok = (attempted - failed) as f64;
        let p50 = median(&untraced);
        values.insert("setup_s", setup_s);
        values.insert("pass_s", p50);
        values.insert("loads_per_s", ok * meta_loads as f64 / measured_s);
        values.insert("accesses_per_s", ok * accesses as f64 / measured_s);
        values.insert("tracing_tax", median(&taxes));
        values.insert("peak_rss_mb", peak_rss_mb());
        values.insert("ok_pct", ok_pct(attempted, failed));
        values.insert("sessions_per_s", ok / measured_s);
        values.insert("session_p50_ms", p50 * 1e3);
        let p90 = percentile_with_tail(&untraced, 90.0, 10).unwrap_or_else(|| {
            eprintln!("pipebench: fewer than 10 sessions lie beyond the 90th percentile");
            percentile(&untraced, 90.0)
        });
        values.insert("session_p90_ms", p90 * 1e3);
    }
    Ok(Outcome {
        attempted,
        failed,
        values,
        ledger,
        context: vec![
            ("sessions", attempted.to_string()),
            ("clients", CLIENTS.to_string()),
            ("pool_threads", serve_replay::POOL_THREADS.to_string()),
            ("uploads_per_session", serve_replay::UPLOADS.to_string()),
            ("rejected", rejected.to_string()),
            (
                "p90_samples_beyond",
                samples_beyond(untraced.len(), 90.0).to_string(),
            ),
            ("measured_s", measured_s.to_string()),
        ],
    })
}

/// Run every workload in its own child process, one after another, so
/// each gets its own peak-memory figure. Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("pipebench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("pipebench: {w} exited with {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("pipebench: {w}: {e}");
                code = 1;
            }
        }
    }
    code
}

fn ledger_json(args: &Args, host: &Host, ledger: &Ledger) -> String {
    let rows: Vec<String> = ledger
        .rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"layer\": {}, \"self_ns\": {}, \"units\": {}, \"ns_per_unit\": {}}}",
                json_str(&r.layer),
                r.self_ns,
                r.units,
                r.ns_per_unit()
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"host\": {},\n  \"roots\": {},\n  \"wall_ns\": {},\n  \
         \"unattributed_pct\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_str(&args.workload),
        host.json(),
        ledger.roots,
        ledger.wall_ns,
        ledger.unattributed_pct(),
        rows.join(",\n")
    )
}

fn print_ledger(ledger: &Ledger) {
    println!(
        "{:<40} {:>12} {:>14} {:>14} {:>7}",
        "layer", "self ms/pass", "units/pass", "ns/unit", "share%"
    );
    let roots = ledger.roots.max(1) as f64;
    for r in &ledger.rows {
        println!(
            "{:<40} {:>12.3} {:>14.0} {:>14.2} {:>7.2}",
            r.layer,
            r.self_ns / roots / 1e6,
            r.units / roots,
            r.ns_per_unit(),
            100.0 * r.self_ns / ledger.wall_ns.max(1.0)
        );
    }
    println!(
        "{:<40} {:>12.3} {:>14} {:>14} {:>7.2}",
        "(unattributed)",
        ledger.wall_ns / roots / 1e6 * ledger.unattributed_pct() / 100.0,
        "",
        "",
        ledger.unattributed_pct()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("pipebench: creating {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "resnet-resident" => run_passes::<Resnet>(&args, out),
        "gapcc-streaming" => run_passes::<Gapcc>(&args, out),
        "ubench-ir" => run_passes::<Ubench>(&args, out),
        _ => run_serve(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipebench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let host = Host::probe(args.seed, ANALYSIS_THREADS);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<Metric> = table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: outcome.values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    let context: Vec<String> = outcome
        .context
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!(
        "context: {{\"workload\": {}, \"trace\": {}, \"host\": {}, {}}}",
        json_str(&args.workload),
        args.trace,
        host.json(),
        context.join(", ")
    );
    for m in &metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(ledger) = &outcome.ledger {
        print_ledger(ledger);
        let path = Path::new(OUT_DIR).join(format!("ledger-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, ledger_json(&args, &host, ledger)) {
            eprintln!("pipebench: writing {}: {e}", path.display());
        }
    }
    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
    std::process::exit(if outcome.failed == 0 { 0 } else { 1 });
}
