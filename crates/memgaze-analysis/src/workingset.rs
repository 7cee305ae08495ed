//! Working-set analysis and inter-sample reuse (paper §V-B).
//!
//! "To adapt D to sampled traces, we either focus solely on intra-sample
//! windows or calculate the average unique blocks accessed between
//! samples based on footprint growth. … For working-set analysis, we use
//! inter-sample reuse and blocks of OS page size."
//!
//! For each block, the gaps (in loads) between consecutive *samples*
//! that touch it are converted to an estimated reuse distance by
//! multiplying with the trace's footprint growth `ΔF̂` — the average
//! unique blocks accessed per load.

use crate::columns::{AccessColumns, BlockColumn, DistinctIds};
use crate::diagnostics::{DiagSets, FootprintDiagnostics};
use memgaze_model::{AuxAnnotations, BlockSize, DecompressionInfo, SampledTrace, SymbolTable};
use serde::{Deserialize, Serialize};

/// Working-set summary of a sampled trace at a given page size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkingSet {
    /// Page size used.
    pub page_size: BlockSize,
    /// Distinct pages observed in samples.
    pub pages_observed: u64,
    /// ρ-scaled estimate of the population's working set, in pages.
    pub pages_estimated: f64,
    /// Footprint growth ΔF̂ at page granularity (pages per decompressed
    /// access).
    pub delta_f_pages: f64,
    /// Mean gap, in loads, between consecutive samples touching the same
    /// page (0 when no page recurs).
    pub mean_intersample_gap: f64,
    /// Estimated inter-sample reuse distance: ΔF̂ × mean gap — the
    /// average unique pages touched between two uses of a page.
    pub est_intersample_distance: f64,
    /// Pages touched by two or more samples (inter-sample captures).
    pub recurring_pages: u64,
}

/// Compute the working set of a trace at `page` granularity.
pub fn working_set(trace: &SampledTrace, annots: &AuxAnnotations, page: BlockSize) -> WorkingSet {
    let info = DecompressionInfo::from_trace(trace, annots);
    let samples = trace.samples.iter().map(|s| s.accesses.as_slice());
    let cols = AccessColumns::build(samples, annots, &SymbolTable::new(), &[page]);
    let pages = cols.column(page).expect("column built");
    working_set_of(trace, &cols, pages, info.rho())
}

/// The working-set kernel over a trace's columns: `pages` holds the page
/// ids at the working set's granularity, and `rho` is the trace's sample
/// ratio. Per-page state (last trigger time, touching samples, summed
/// gaps) lives in arrays indexed by page id.
pub(crate) fn working_set_of(
    trace: &SampledTrace,
    cols: &AccessColumns,
    pages: &BlockColumn,
    rho: f64,
) -> WorkingSet {
    let n = pages.len();
    let mut last = vec![0u64; n];
    let mut touches = vec![0u64; n];
    let mut gap_sum = vec![0u64; n];
    let mut merged: Option<FootprintDiagnostics> = None;
    let mut sets = DiagSets::default();
    let mut in_sample = DistinctIds::default();
    for (s, sample) in trace.samples.iter().enumerate() {
        let range = cols.sites.sample(s);
        let items = cols.classified(pages, range.clone());
        let d = FootprintDiagnostics::of_blocks(items, n, &mut sets);
        match &mut merged {
            Some(m) => m.merge(&d),
            None => merged = Some(d),
        }
        in_sample.clear(n);
        for &p in &pages.id[range] {
            if in_sample.insert(p) {
                let p = p as usize;
                if touches[p] > 0 {
                    gap_sum[p] += sample.trigger_time.saturating_sub(last[p]);
                }
                last[p] = sample.trigger_time;
                touches[p] += 1;
            }
        }
    }

    let diag = merged.unwrap_or_default();
    let delta_f = diag.delta_f();
    let (mut gaps, mut gap_n, mut recurring) = (0u64, 0u64, 0u64);
    for (&t, &g) in touches.iter().zip(&gap_sum) {
        if t >= 2 {
            recurring += 1;
            gaps += g;
            gap_n += t - 1;
        }
    }
    let mean_gap = if gap_n == 0 {
        0.0
    } else {
        gaps as f64 / gap_n as f64
    };
    WorkingSet {
        page_size: pages.bs,
        pages_observed: n as u64,
        pages_estimated: rho * n as f64,
        delta_f_pages: delta_f,
        mean_intersample_gap: mean_gap,
        est_intersample_distance: delta_f * mean_gap,
        recurring_pages: recurring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{Access, Sample, TraceMeta};

    /// Samples that revisit the same two pages every period, plus one
    /// streaming page per sample.
    fn recurring_trace(nsamples: u64, period: u64) -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("ws", period, 8192));
        t.meta.total_loads = nsamples * period;
        for s in 0..nsamples {
            let base = s * period;
            let mut acc = Vec::new();
            for i in 0..32u64 {
                // Hot pages 0 and 1 (4-KiB pages at 0x10_0000).
                acc.push(Access::new(
                    0x400u64,
                    0x10_0000 + (i % 2) * 4096 + i * 8,
                    base + i,
                ));
            }
            for i in 32..64u64 {
                // A fresh page per sample.
                acc.push(Access::new(
                    0x404u64,
                    0x80_0000 + s * 4096 + i * 8,
                    base + i,
                ));
            }
            t.push_sample(Sample::new(acc, base + period)).unwrap();
        }
        t
    }

    #[test]
    fn recurring_pages_and_gaps() {
        let t = recurring_trace(8, 10_000);
        let ws = working_set(&t, &AuxAnnotations::new(), BlockSize::OS_PAGE);
        // 2 hot pages + 8 streaming pages.
        assert_eq!(ws.pages_observed, 10);
        assert_eq!(ws.recurring_pages, 2);
        // Gaps between consecutive samples are exactly one period.
        assert!((ws.mean_intersample_gap - 10_000.0).abs() < 1e-9);
        // Estimated inter-sample distance = ΔF(pages/access) × gap.
        assert!(ws.est_intersample_distance > 0.0);
        assert!((ws.est_intersample_distance - ws.delta_f_pages * 10_000.0).abs() < 1e-9);
        // ρ = 8·10000/512 = 156.25 → estimate scales.
        assert!((ws.pages_estimated - 156.25 * 10.0).abs() < 1e-6);
    }

    #[test]
    fn streaming_only_trace_has_no_recurrence() {
        let mut t = SampledTrace::new(TraceMeta::new("ws", 1000, 8192));
        t.meta.total_loads = 4000;
        for s in 0..4u64 {
            let acc = (0..16u64)
                .map(|i| Access::new(0x400u64, (s * 16 + i) * 4096, s * 1000 + i))
                .collect();
            t.push_sample(Sample::new(acc, (s + 1) * 1000)).unwrap();
        }
        let ws = working_set(&t, &AuxAnnotations::new(), BlockSize::OS_PAGE);
        assert_eq!(ws.recurring_pages, 0);
        assert_eq!(ws.mean_intersample_gap, 0.0);
        assert_eq!(ws.est_intersample_distance, 0.0);
        assert_eq!(ws.pages_observed, 64);
    }

    #[test]
    fn empty_trace() {
        let t = SampledTrace::new(TraceMeta::new("ws", 1000, 8192));
        let ws = working_set(&t, &AuxAnnotations::new(), BlockSize::OS_PAGE);
        assert_eq!(ws.pages_observed, 0);
        assert_eq!(ws.pages_estimated, 0.0);
    }

    #[test]
    fn page_size_controls_granularity() {
        let t = recurring_trace(4, 10_000);
        let pages = working_set(&t, &AuxAnnotations::new(), BlockSize::OS_PAGE);
        let lines = working_set(&t, &AuxAnnotations::new(), BlockSize::CACHE_LINE);
        assert!(lines.pages_observed > pages.pages_observed);
    }
}
