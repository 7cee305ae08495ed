//! The resident report as `memgaze` prints it (function table, region
//! rows, working set), computed artifact by artifact so a traced pass can
//! time each one, and its digest.

use crate::ledger::Tracer;
use memgaze_analysis::{fmt_f3, fmt_pct, fmt_si, Analyzer, Table};

/// Compute every artifact of the resident report in dependency order —
/// each inside its own span, so a span's time is that artifact's self
/// time — then render the report text.
pub fn render_report(tr: &mut Tracer, an: &Analyzer<'_>, name: &str) -> String {
    let accesses = an.trace().observed_accesses();
    let info = tr.span("analysis.decompression", || an.decompression());
    tr.units(accesses);
    tr.span("analysis.sample_reuse", || {
        an.sample_reuse();
    });
    tr.units(accesses);
    tr.span("analysis.code_windows", || {
        an.code_windows();
    });
    tr.units(accesses);
    tr.span("analysis.function_table", || {
        an.function_table();
    });
    tr.units(accesses);
    tr.span("analysis.block_reuse", || {
        an.block_reuse();
    });
    tr.units(accesses);
    tr.span("analysis.zoom", || {
        an.zoom();
    });
    tr.units(accesses);
    let regions = tr.span("analysis.region_rows", || an.region_rows());
    tr.units(accesses);
    let ws = tr.span("analysis.working_set", || an.working_set());
    tr.units(accesses);

    tr.open("analysis.render");
    tr.units(1);
    let mut out = format!(
        "{name}: {} samples, A(σ) = {}, κ = {:.2}, ρ = {:.1}\n\n",
        an.trace().num_samples(),
        fmt_si(info.observed as f64),
        info.kappa(),
        info.rho()
    );
    out += &an.function_table_rendered("Hot functions").render();
    let mut table = Table::new(
        "\nHot memory (location zoom)",
        &["Region", "%", "D", "MaxD", "blocks", "A/block", "code"],
    );
    for r in regions.into_iter().take(8) {
        table.push_row(vec![
            format!(
                "{:#x}+{}",
                r.range.0,
                fmt_si((r.range.1 - r.range.0) as f64)
            ),
            fmt_pct(r.pct_of_total),
            fmt_f3(r.reuse_d),
            r.max_d.to_string(),
            r.blocks.to_string(),
            fmt_f3(r.accesses_per_block()),
            r.code.first().cloned().unwrap_or_default(),
        ]);
    }
    out += &table.render();
    out += &format!(
        "\nWorking set: {} pages observed (est. {} pages ≈ {}), inter-sample D ≈ {:.0} pages\n",
        ws.pages_observed,
        fmt_si(ws.pages_estimated),
        fmt_si(ws.pages_estimated * 4096.0),
        ws.est_intersample_distance
    );
    tr.close();
    out
}

/// FNV-1a-64 digest of a rendered report.
pub fn digest(report: &str) -> u64 {
    memgaze_model::fnv1a64(report.as_bytes())
}
