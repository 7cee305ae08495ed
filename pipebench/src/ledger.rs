//! Spans recorded around the benchmark's calls into each layer, and the
//! per-layer ledger built from them.
//!
//! A [`Tracer`] keeps its spans in memory; nothing is written until the
//! run ends. A span's *self time* is its duration minus the part of its
//! interval that its child spans cover, so the rows of a [`Ledger`] add up
//! to the wall time of the root spans they sit under, and whatever no row
//! claims is the ledger's unattributed share.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, as in `analysis.zoom`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Units of work the span did (loads, accesses, frames, ...).
    pub units: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. A disabled tracer runs the wrapped calls and
/// records nothing, so traced and untraced passes share one code path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            units: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Set the unit count of the most recently opened span.
    pub fn units(&mut self, units: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.units = units;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// One ledger row: a layer's total self time and units of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer name.
    pub layer: String,
    /// Self time summed over every span of the layer, in ns.
    pub self_ns: f64,
    /// Units of work summed over the same spans.
    pub units: f64,
}

impl Row {
    /// Self time per unit of work, in ns (0 when the layer did none).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units > 0.0 {
            self.self_ns / self.units
        } else {
            0.0
        }
    }
}

/// Per-layer rows under a set of root spans, plus their wall time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Rows in first-seen order.
    pub rows: Vec<Row>,
    /// Summed duration of the root spans, in ns.
    pub wall_ns: f64,
    /// Root spans folded in.
    pub roots: u64,
}

impl Ledger {
    /// Fold in the spans of one tracer: every span named `root` adds its
    /// duration to the wall time, and every span below a root adds its
    /// self time and units to the row of its name. Spans outside any
    /// root are ignored.
    pub fn absorb(&mut self, spans: &[Span], root: &str) {
        let selfs = self_times(spans);
        let mut under_root = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if s.name == root {
                self.wall_ns += s.dur_ns() as f64;
                self.roots += 1;
                under_root[i] = true;
                continue;
            }
            let Some(p) = s.parent else { continue };
            if !under_root[p] {
                continue;
            }
            under_root[i] = true;
            let row = self.row_mut(s.name);
            row.self_ns += selfs[i] as f64;
            row.units += s.units as f64;
        }
    }

    fn row_mut(&mut self, layer: &str) -> &mut Row {
        if let Some(i) = self.rows.iter().position(|r| r.layer == layer) {
            return &mut self.rows[i];
        }
        self.rows.push(Row {
            layer: layer.to_string(),
            self_ns: 0.0,
            units: 0.0,
        });
        self.rows.last_mut().expect("row just pushed")
    }

    /// The row of `layer`, if any span produced it.
    pub fn row(&self, layer: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.layer == layer)
    }

    /// Move `ns` of `from`'s self time into a new row `into` with `units`
    /// — how a layer timed outside the pass (the native workload alone,
    /// the interpreter alone) is split out of the span that ran it
    /// together with another layer. `from` keeps the remainder.
    pub fn split(&mut self, from: &str, into: &str, ns: f64, units: f64) {
        let Some(i) = self.rows.iter().position(|r| r.layer == from) else {
            return;
        };
        self.rows[i].self_ns -= ns;
        self.rows.insert(
            i,
            Row {
                layer: into.to_string(),
                self_ns: ns,
                units,
            },
        );
    }

    /// Rename a row (a remainder row after [`Ledger::split`]).
    pub fn rename(&mut self, from: &str, to: &str) {
        if let Some(r) = self.rows.iter_mut().find(|r| r.layer == from) {
            r.layer = to.to_string();
        }
    }

    /// Share of the wall time no row claims, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        if self.wall_ns <= 0.0 {
            return 0.0;
        }
        let claimed: f64 = self.rows.iter().map(|r| r.self_ns).sum();
        100.0 * (self.wall_ns - claimed) / self.wall_ns
    }
}
