//! `serve-replay`: closed-loop sessions against an in-process
//! `memgaze serve`. Each session uploads the gapcc trace recorded at
//! set-up as four MGZT containers, seals it, and decodes the MGZP report.

use crate::native::{gapcc_configs, GAPCC_NAME, GAPCC_SHARD, SIZES};
use memgaze_analysis::{Analyzer, PartialReport, StreamingAnalyzer, StreamingReport};
use memgaze_core::pipeline::dry_run_loads;
use memgaze_core::trace_workload_streaming;
use memgaze_model::{AuxAnnotations, Sample, ShardWriter, SymbolTable, TraceMeta};
use memgaze_pipebench::Tracer;
use memgaze_serve::client::{json_str_field, sealed_from_response};
use memgaze_serve::{Client, ServeConfig, Server};
use std::time::Instant;

/// Uploads per session.
pub const UPLOADS: usize = 4;
/// Server pool threads.
pub const POOL_THREADS: usize = 2;
/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;

/// The recorded trace, its uploads and reference, and the server.
pub struct Replay {
    /// Upload bodies, each a complete MGZT container.
    uploads: Vec<Vec<u8>>,
    /// The resident pass every sealed report must equal.
    reference: StreamingReport,
    /// Metadata every sealed report must carry.
    pub meta: TraceMeta,
    /// Sampled accesses per session.
    pub accesses: u64,
    /// Samples per session.
    pub samples: u64,
    /// Traced collection time ÷ untraced run of the recording.
    pub tracing_tax: f64,
    server: Server,
}

/// How one session ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct Session {
    /// Every step answered as expected and the report matched.
    pub ok: bool,
    /// A step was refused with 429 or 503.
    pub rejected: bool,
    /// Encoded MGZP report size.
    pub mgzp_bytes: u64,
}

impl Replay {
    /// Record the gapcc trace, split it into uploads, compute the
    /// reference, and start the server.
    pub fn setup(seed: u64, threads: usize) -> Result<Replay, String> {
        let (gap, sampler, analysis) = gapcc_configs(seed, threads);
        let mut collect_s = 0.0;
        let (streamed, ()) = trace_workload_streaming(
            GAPCC_NAME,
            &sampler,
            GAPCC_SHARD,
            analysis,
            &SIZES,
            |space| {
                let t = Instant::now();
                memgaze_workloads::gap::run(space, &gap);
                collect_s = t.elapsed().as_secs_f64();
            },
        )
        .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (loads, ()) = dry_run_loads(|s| {
            memgaze_workloads::gap::run(s, &gap);
        });
        let dry_s = t.elapsed().as_secs_f64();
        if loads != streamed.meta.total_loads {
            return Err("dry run and traced run disagree on loads".into());
        }

        let frames: Vec<Vec<Sample>> = (0..streamed.index.entries.len())
            .map(|i| streamed.index.read_frame(&streamed.container, i))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let meta = streamed.meta.clone();
        let header = TraceMeta::new(&meta.workload, meta.period, meta.buffer_bytes);
        let uploads = split_uploads(&frames, &header, &meta)?;

        let cfg = ServeConfig {
            analysis,
            locality_sizes: SIZES.to_vec(),
            ..ServeConfig::default()
        };
        // The server analyses uploads without annotation sidecars, so the
        // reference does too.
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let mut sa =
            StreamingAnalyzer::new(&annots, &symbols, analysis).with_locality_sizes(&SIZES);
        for f in &frames {
            sa.ingest_shard(f);
        }
        let reference = sa.finish(&meta);
        let trace =
            memgaze_model::decode_sharded(&streamed.container).map_err(|e| e.to_string())?;
        let an = Analyzer::new(&trace, &annots, &symbols).with_config(analysis);
        if reference.decompression != an.decompression()
            || reference.function_rows != an.function_table()
            || &reference.block_reuse != an.block_reuse()
        {
            return Err("serve-replay reference differs from the resident analyzer".into());
        }
        let server =
            Server::bind("127.0.0.1:0", cfg, POOL_THREADS).map_err(|e| format!("bind: {e}"))?;
        Ok(Replay {
            uploads,
            reference,
            accesses: trace.observed_accesses(),
            samples: trace.num_samples() as u64,
            meta,
            tracing_tax: collect_s / dry_s,
            server,
        })
    }

    /// A client of the running server.
    pub fn client(&self) -> Client {
        Client::new(self.server.addr())
    }

    /// Drain the server; an error if any session failed to seal.
    pub fn shutdown(self) -> Result<(), String> {
        let drained = self.server.drain();
        if drained.seal_failures != 0 {
            return Err(format!(
                "drain left {} seal failures",
                drained.seal_failures
            ));
        }
        Ok(())
    }

    /// One closed-loop session: create, feed every upload, seal, decode
    /// and check the report, delete.
    pub fn session(&self, client: &Client, tr: &mut Tracer) -> Session {
        let mut out = Session::default();
        let refused = |status: u16| status == 429 || status == 503;
        let Ok(resp) = tr.span("serve.create", || {
            client.request("POST", "/sessions", &[], None)
        }) else {
            return out;
        };
        if resp.status != 201 {
            out.rejected = refused(resp.status);
            return out;
        }
        let Some(id) = json_str_field(&resp.text(), "id") else {
            return out;
        };
        for body in &self.uploads {
            let Ok(resp) = tr.span("serve.feed", || client.feed(&id, body, None)) else {
                return out;
            };
            tr.units(1);
            if resp.status != 202 {
                out.rejected = refused(resp.status);
                return out;
            }
        }
        let seal_path = format!("/sessions/{id}/seal");
        let Ok(resp) = tr.span("serve.seal", || {
            client.request("POST", &seal_path, &[], None)
        }) else {
            return out;
        };
        if resp.status != 200 {
            out.rejected = refused(resp.status);
            return out;
        }
        let Ok(sealed) = sealed_from_response(&resp) else {
            return out;
        };
        out.mgzp_bytes = sealed.partial_bytes.len() as u64;
        let Ok(partial) = tr.span("analysis.mgzp_decode", || {
            PartialReport::decode(&sealed.partial_bytes)
        }) else {
            return out;
        };
        tr.units(1);
        let report = tr.span("analysis.mgzp_finish", || partial.finish(&sealed.meta));
        tr.units(1);
        let matches = tr.span("bench.check", || {
            report == self.reference && sealed.meta == self.meta
        });
        tr.units(1);
        let path = format!("/sessions/{id}");
        let deleted = tr.span("serve.delete", || {
            client.request("DELETE", &path, &[], None)
        });
        out.ok = matches && deleted.is_ok_and(|r| r.status == 200);
        out
    }
}

/// Split frames into [`UPLOADS`] contiguous containers whose trailer
/// totals add up to the recorded trace's.
fn split_uploads(
    frames: &[Vec<Sample>],
    header: &TraceMeta,
    meta: &TraceMeta,
) -> Result<Vec<Vec<u8>>, String> {
    let per = frames.len().div_ceil(UPLOADS).max(1);
    let total_samples: u64 = frames.iter().map(|f| f.len() as u64).sum();
    let parts: Vec<&[Vec<Sample>]> = frames.chunks(per).collect();
    let mut loads_left = meta.total_loads;
    let mut instr_left = meta.total_instrumented_loads;
    let mut out = Vec::with_capacity(parts.len());
    for (i, part) in parts.iter().enumerate() {
        let samples: u64 = part.iter().map(|f| f.len() as u64).sum();
        let (loads, instr) = if i + 1 == parts.len() {
            (loads_left, instr_left)
        } else {
            (
                meta.total_loads * samples / total_samples.max(1),
                meta.total_instrumented_loads * samples / total_samples.max(1),
            )
        };
        loads_left -= loads;
        instr_left -= instr;
        let mut w = ShardWriter::new(Vec::new(), header).map_err(|e| e.to_string())?;
        for f in part.iter() {
            w.write_shard(f).map_err(|e| e.to_string())?;
        }
        out.push(w.finish(loads, instr).map_err(|e| e.to_string())?);
    }
    Ok(out)
}
