//! Structure-aware mutation fuzzing of every binary decoder.
//!
//! For each format the fuzzer encodes a random valid value, mutates the
//! bytes (bit flips, truncation, splicing two encodings, inflating one
//! varint), re-seals the FNV-1a-64 trailer where the format has one so
//! the mutation reaches the body parser, and decodes. A decode must
//! either fail with a typed error or succeed with a value that
//! re-encodes:
//!
//! * to the identical bytes, for the formats with exactly one encoding
//!   per value (MGZT v1 sampled and full, the MGZT v2 container, MGZX,
//!   MGZC);
//! * to bytes that decode back to themselves, for the formats whose
//!   encoder chooses among several valid encodings (the run-length
//!   lists of MGZP and MGZS, the LZ token stream and the MGZB blobs
//!   built on it), where a mutation can spell the same value another
//!   way.
//!
//! It must never panic. The binary runs in the debug profile under
//! tier-1 `cargo test`, so integer overflow panics instead of wrapping.
//! The `MGZQ`/`MGZW` pipe framings have private readers in
//! `memgaze-core`, fuzzed by its `pipe_framings_survive_mutation` unit
//! test; the MGZW payload is an MGZP frame, which is fuzzed here.
//!
//! A counting global allocator checks that one decode never holds more
//! than `ALLOC_PER_BYTE × input length + ALLOC_SLACK` bytes at its
//! peak: a decoder may only commit memory in proportion to the input it
//! has actually read, never to a length field it has not yet checked.
//! (A run-length list crafted on purpose can still expand to its format
//! limit — that is what the runs are for; random corruption cannot.)
//! The tests below also pin the specific overflow and allocation bugs
//! this found.

use memgaze::analysis::{AnalysisConfig, PartialReport, StreamingAnalyzer, WorkerSpec};
use memgaze::model::io::{decode_full, decode_sampled, encode_full, encode_sampled};
use memgaze::model::{
    decode_sharded, encode_sharded_indexed, fnv1a64, Access, AuxAnnotations, BlockSize, FrameIndex,
    FullTrace, FunctionId, Ip, IpAnnot, LoadClass, Sample, SampledTrace, ShardReader, ShardWriter,
    SymbolTable, TraceMeta,
};
use memgaze::store::blob::{content_hash, decode_blob, encode_blob};
use memgaze::store::compress::{compress, decompress};
use memgaze::store::{Catalog, StoreConfig, StoreError, TraceStore};
use proptest::test_runner::{ProptestConfig, TestRng, TestRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---- allocation accounting ----

/// Bytes a decoder may hold per input byte. The largest legitimate
/// expansion is an MGZP block-reuse row: five 1-byte varints become a
/// 40-byte row plus about as much again in the range index
/// `BlockReuse` builds over it, i.e. ~16× per byte; a `Vec` that grows
/// by doubling can briefly hold twice its length. 64 leaves headroom
/// over 32 while still being orders of magnitude below what a decoder
/// reserving a hostile length field commits.
const ALLOC_PER_BYTE: usize = 64;
/// Fixed allowance for per-decode constants: observability spans, map
/// nodes, error strings.
const ALLOC_SLACK: usize = 1 << 20;

struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(delta);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Counts only allocations that succeed, so a failed attempt at a huge
/// size (which aborts the process anyway) cannot skew the books.
// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result; the bookkeeping touches only const-initialized
// thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track((new_size as isize).wrapping_sub(layout.size() as isize));
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the peak bytes it held on this
/// thread above what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base).max(0) as usize)
}

fn assert_bounded_peak(what: &str, input_len: usize, peak: usize) {
    let bound = ALLOC_PER_BYTE * input_len + ALLOC_SLACK;
    assert!(
        peak <= bound,
        "{what}: decoding {input_len} bytes held {peak} bytes at peak (bound {bound})"
    );
}

// ---- random valid values ----

fn pick(rng: &mut TestRng, n: u64) -> u64 {
    rng.below(n.max(1))
}

fn random_name(rng: &mut TestRng) -> String {
    const PARTS: [&str; 6] = ["gap", "cc", "kernel", "µ", "_", "3"];
    (0..pick(rng, 4))
        .map(|_| PARTS[pick(rng, PARTS.len() as u64) as usize])
        .collect()
}

fn random_trace(rng: &mut TestRng) -> SampledTrace {
    let mut meta = TraceMeta::new(random_name(rng), pick(rng, 20_000), pick(rng, 1 << 20));
    let samples = pick(rng, 7);
    meta.total_loads = samples + pick(rng, 1 << 40);
    meta.total_instrumented_loads = pick(rng, 1 << 20);
    let mut t = SampledTrace::new(meta);
    let mut time = pick(rng, 1 << 50);
    for _ in 0..samples {
        let base = 0x10_0000 + pick(rng, 1 << 44);
        let accesses: Vec<Access> = (0..pick(rng, 12))
            .map(|i| {
                time += pick(rng, 6);
                let addr = match pick(rng, 3) {
                    0 => base + i * 64,
                    1 => base.wrapping_sub(i * 8),
                    _ => rng.next_u64(),
                };
                Access::new(0x400 + pick(rng, 8) * 4, addr, time)
            })
            .collect();
        time += 1 + pick(rng, 1000);
        t.push_sample(Sample::new(accesses, time)).unwrap();
    }
    t
}

fn random_annots(rng: &mut TestRng) -> AuxAnnotations {
    let mut a = AuxAnnotations::new();
    for k in 0..pick(rng, 8) {
        let class = [
            LoadClass::Constant,
            LoadClass::Strided,
            LoadClass::Irregular,
        ][pick(rng, 3) as usize];
        let mut an = IpAnnot::of_class(class, FunctionId(pick(rng, 3) as u32));
        an.implied_const = pick(rng, 5) as u32;
        an.scale = pick(rng, 9) as u8;
        an.offset = pick(rng, 256) as i64 - 128;
        an.two_source = pick(rng, 2) == 1;
        an.src_line = pick(rng, 500) as u32;
        a.insert(Ip(0x400 + 4 * k), an);
    }
    a
}

fn random_symbols(rng: &mut TestRng) -> SymbolTable {
    let mut sy = SymbolTable::new();
    let mut lo = 0x400;
    for _ in 0..pick(rng, 3) {
        let hi = lo + 4 + 4 * pick(rng, 8);
        sy.add_function(random_name(rng), Ip(lo), Ip(hi), "f.c");
        lo = hi;
    }
    sy
}

fn random_payload(rng: &mut TestRng) -> Vec<u8> {
    let n = pick(rng, 300) as usize;
    match pick(rng, 3) {
        0 => (0..n).map(|_| rng.next_u64() as u8).collect(),
        1 => b"shard frame ".iter().copied().cycle().take(n).collect(),
        _ => encode_sharded_indexed(&random_trace(rng), 2).0,
    }
}

fn random_partial(rng: &mut TestRng) -> PartialReport {
    let (annots, symbols) = (random_annots(rng), random_symbols(rng));
    let cfg = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let sizes: Vec<u64> = (0..pick(rng, 3)).map(|k| 2 << k).collect();
    let mut sa = StreamingAnalyzer::new(&annots, &symbols, cfg).with_locality_sizes(&sizes);
    let t = random_trace(rng);
    for chunk in t.samples.chunks(1 + pick(rng, 3) as usize) {
        sa.ingest_shard(chunk);
    }
    sa.into_partial()
}

// ---- formats ----

/// One binary format under test.
struct Format {
    name: &'static str,
    /// Whether the last 8 bytes are an FNV-1a-64 trailer over the rest.
    sealed: bool,
    /// Whether each value has exactly one encoding.
    canonical: bool,
    /// A random valid encoding.
    generate: fn(&mut TestRng) -> Vec<u8>,
    /// Decode; on success, re-encode. `Err` carries the typed error.
    roundtrip: fn(&[u8]) -> Result<Vec<u8>, String>,
}

fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// Decode an MGZT v2 container and re-encode it frame by frame.
fn roundtrip_container(data: &[u8]) -> Result<Vec<u8>, String> {
    decode_sharded(data).map_err(err)?;
    let mut reader = ShardReader::new(data).map_err(err)?;
    let provisional = reader.meta().clone();
    let shards: Vec<Vec<Sample>> = reader
        .by_ref()
        .map(|s| s.map(|s| s.samples))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let mut w = ShardWriter::new(Vec::new(), &provisional).map_err(err)?;
    for s in &shards {
        w.write_shard(s).map_err(err)?;
    }
    let meta = reader.meta();
    w.finish(meta.total_loads, meta.total_instrumented_loads)
        .map_err(|e| format!("decoded container does not re-encode: {e:?}"))
}

fn formats() -> Vec<Format> {
    vec![
        Format {
            name: "MGZT v1 sampled",
            sealed: false,
            canonical: true,
            generate: |rng| encode_sampled(&random_trace(rng)).to_vec(),
            roundtrip: |data| {
                let t = decode_sampled(data.to_vec().into()).map_err(err)?;
                Ok(encode_sampled(&t).to_vec())
            },
        },
        Format {
            name: "MGZT v1 full",
            sealed: false,
            canonical: true,
            generate: |rng| {
                let t = random_trace(rng);
                let mut f = FullTrace::new(t.meta.clone());
                f.dropped = pick(rng, 1 << 20);
                f.accesses = t.samples.into_iter().flat_map(|s| s.accesses).collect();
                encode_full(&f).to_vec()
            },
            roundtrip: |data| {
                let f = decode_full(data.to_vec().into()).map_err(err)?;
                Ok(encode_full(&f).to_vec())
            },
        },
        Format {
            name: "MGZT v2 container",
            sealed: false,
            canonical: true,
            generate: |rng| {
                let shard = 1 + pick(rng, 3) as usize;
                encode_sharded_indexed(&random_trace(rng), shard).0
            },
            roundtrip: roundtrip_container,
        },
        Format {
            name: "MGZX",
            sealed: true,
            canonical: true,
            generate: |rng| {
                let shard = 1 + pick(rng, 3) as usize;
                encode_sharded_indexed(&random_trace(rng), shard).1.encode()
            },
            roundtrip: |data| Ok(FrameIndex::decode(data).map_err(err)?.encode()),
        },
        Format {
            name: "MGZP",
            sealed: true,
            canonical: false,
            generate: |rng| random_partial(rng).encode(),
            roundtrip: |data| Ok(PartialReport::decode(data).map_err(err)?.encode()),
        },
        Format {
            name: "MGZS",
            sealed: true,
            canonical: false,
            generate: |rng| {
                WorkerSpec {
                    footprint_block: BlockSize::from_log2(pick(rng, 8) as u8),
                    reuse_block: BlockSize::from_log2(pick(rng, 8) as u8),
                    threads: pick(rng, 9) as usize,
                    locality_sizes: (0..pick(rng, 6)).map(|k| 2 << k).collect(),
                    annots: random_annots(rng),
                    symbols: random_symbols(rng),
                }
                .encode()
            },
            roundtrip: |data| Ok(WorkerSpec::decode(data).map_err(err)?.encode()),
        },
        Format {
            name: "MGZB",
            sealed: true,
            canonical: false,
            generate: |rng| {
                let payload = random_payload(rng);
                // The content hash rides in front: decode_blob needs the
                // address the blob was fetched by. It is stripped again
                // before mutation (see `blob_split`).
                let mut out = content_hash(&payload).to_le_bytes().to_vec();
                out.extend_from_slice(&encode_blob(&payload));
                out
            },
            roundtrip: |data| {
                let (hash, blob) = blob_split(data);
                Ok(encode_blob(&decode_blob(hash, blob).map_err(err)?))
            },
        },
        Format {
            name: "LZ stream",
            sealed: false,
            canonical: false,
            generate: |rng| {
                let payload = random_payload(rng);
                let mut out = (payload.len() as u64).to_le_bytes().to_vec();
                out.extend_from_slice(&compress(&payload));
                out
            },
            roundtrip: |data| {
                let (len, stream) = blob_split(data);
                Ok(compress(&decompress(stream, len as usize)?))
            },
        },
        Format {
            name: "MGZC",
            sealed: true,
            canonical: true,
            generate: |rng| {
                let (container, index) =
                    encode_sharded_indexed(&random_trace(rng), 1 + pick(rng, 3) as usize);
                let block = BlockSize::from_log2(pick(rng, 8) as u8);
                Catalog::scan("fuzz", &container, &index, &random_symbols(rng), block)
                    .unwrap()
                    .encode()
            },
            roundtrip: |data| Ok(Catalog::decode("fuzz", data).map_err(err)?.encode()),
        },
    ]
}

/// The MGZB and LZ generators prefix the 8-byte decode context (content
/// hash or expected length) to the encoding; it is never mutated.
fn blob_split(data: &[u8]) -> (u64, &[u8]) {
    let (head, rest) = data.split_at(8);
    (u64::from_le_bytes(head.try_into().unwrap()), rest)
}

fn context_len(f: &Format) -> usize {
    if matches!(f.name, "MGZB" | "LZ stream") {
        8
    } else {
        0
    }
}

// ---- mutations ----

/// Replace the varint starting at `at` (or the byte there, if it does
/// not parse) with an inflated value.
fn inflate_varint(body: &mut Vec<u8>, at: usize, rng: &mut TestRng) {
    let mut end = at;
    while end < body.len() && end - at < 10 && body[end] & 0x80 != 0 {
        end += 1;
    }
    let end = (end + 1).min(body.len());
    let value = match pick(rng, 5) {
        0 => u64::MAX,
        1 => (1 << 63) - 1,
        2 => 1 << 26,
        3 => (body.len() as u64) << pick(rng, 8),
        _ => rng.next_u64() >> pick(rng, 64),
    };
    let mut enc = Vec::new();
    let mut v = value;
    while v >= 0x80 {
        enc.push(v as u8 | 0x80);
        v >>= 7;
    }
    enc.push(v as u8);
    body.splice(at..end, enc);
}

fn mutate(body: &mut Vec<u8>, other: &[u8], rng: &mut TestRng) {
    if body.is_empty() {
        return;
    }
    match pick(rng, 4) {
        0 => {
            for _ in 0..1 + pick(rng, 4) {
                let at = pick(rng, body.len() as u64) as usize;
                body[at] ^= 1 << pick(rng, 8);
            }
        }
        1 => body.truncate(pick(rng, body.len() as u64) as usize),
        2 => {
            let cut = pick(rng, body.len() as u64) as usize;
            let from = pick(rng, other.len() as u64 + 1) as usize;
            body.truncate(cut);
            body.extend_from_slice(&other[from.min(other.len())..]);
        }
        _ => {
            let at = pick(rng, body.len() as u64) as usize;
            inflate_varint(body, at, rng);
        }
    }
}

/// Build one mutated input of `f` from two valid encodings.
fn mutated(f: &Format, a: &[u8], b: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let ctx = context_len(f);
    let trailer = |x: &[u8]| {
        if f.sealed {
            x.len().saturating_sub(8)
        } else {
            x.len()
        }
    };
    let (head, body) = a[..trailer(a)].split_at(ctx);
    let other = &b[ctx..trailer(b)];
    let mut body = body.to_vec();
    mutate(&mut body, other, rng);
    let mut out = head.to_vec();
    out.extend_from_slice(&body);
    if f.sealed {
        let sum = fnv1a64(&body);
        out.extend_from_slice(&sum.to_le_bytes());
    }
    out
}

fn check(f: &Format, input: &[u8]) {
    let ctx = context_len(f);
    let (res, peak) = peak_during(|| (f.roundtrip)(input));
    assert_bounded_peak(f.name, input.len() - ctx, peak);
    let Ok(reencoded) = res else { return };
    if f.canonical {
        assert!(
            reencoded == input,
            "{}: accepted input does not re-encode identically\n  input: {input:?}\n  again: {reencoded:?}",
            f.name
        );
    } else {
        let mut full = input[..ctx].to_vec();
        full.extend_from_slice(&reencoded);
        let again = (f.roundtrip)(&full).unwrap_or_else(|e| {
            panic!(
                "{}: re-encoding of an accepted input fails to decode: {e}",
                f.name
            )
        });
        assert!(
            again == reencoded,
            "{}: re-encoding is not a fixed point\n  input: {input:?}",
            f.name
        );
    }
}

#[test]
fn mutated_inputs_decode_to_typed_errors_or_reencodable_values() {
    let formats = formats();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(128));
    runner.run(&(0u64..u64::MAX), |seed| {
        let mut rng = TestRng::new(seed);
        for f in &formats {
            let a = (f.generate)(&mut rng);
            let b = (f.generate)(&mut rng);
            // The unmutated value must round-trip exactly.
            let back = (f.roundtrip)(&a);
            assert_eq!(back.as_deref(), Ok(&a[context_len(f)..]), "{}", f.name);
            for _ in 0..24 {
                check(f, &mutated(f, &a, &b, &mut rng));
            }
        }
        Ok(())
    });
}

// ---- pinned regressions ----

fn leb128(v: u64, out: &mut Vec<u8>) {
    let mut v = v;
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `magic | u16 version | fields | FNV-1a-64`, with `fields` given as
/// raw byte chunks.
fn sealed(magic: &[u8; 4], version: u16, fields: &[&[u8]]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    for f in fields {
        out.extend_from_slice(f);
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn varints(vs: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in vs {
        leb128(v, &mut out);
    }
    out
}

/// An MGZP frame with no locality sizes, samples or functions whose
/// block-reuse section is `rows` (count first), verbatim.
fn partial_with_rows(rows: &[u64]) -> Vec<u8> {
    sealed(
        b"MGZP",
        2,
        &[
            &[3, 6],                       // footprint / reuse block log2
            &varints(&[0, 0, 0, 0, 0, 0]), // sizes, samples, observed, const, diags, reuse
            &varints(rows),
            &varints(&[0, 0, 0, 0]),    // bins, count, sum, funcs
            &varints(&[0, 0, 0, 0, 0]), // ingest stats
        ],
    )
}

#[test]
fn catalog_with_huge_trace_id_length_is_typed() {
    // `Dec::take`'s `pos + n` overflowed on a u64::MAX length.
    let data = sealed(b"MGZC", 1, &[&varints(&[u64::MAX]), b"rest of a catalog"]);
    assert!(matches!(
        Catalog::decode("c", &data),
        Err(StoreError::CorruptCatalog { .. })
    ));
}

#[test]
fn partial_block_deltas_that_overflow_are_typed() {
    // Two verbatim rows with block deltas u64::MAX then 5.
    let data = partial_with_rows(&[2, u64::MAX, 1, 0, 0, 0, 5, 1, 0, 0, 0]);
    assert!(PartialReport::decode(&data).is_err());
    // A repeat run stepping past u64::MAX by the previous delta.
    let data = partial_with_rows(&[2, u64::MAX, 1, 0, 0, 0, 0, 1]);
    assert!(PartialReport::decode(&data).is_err());
}

#[test]
fn frame_index_offsets_that_overflow_are_typed() {
    let mut entries = Vec::new();
    for delta in [u64::MAX, 5] {
        leb128(delta, &mut entries);
        entries.extend_from_slice(&varints(&[1, 1]));
        entries.extend_from_slice(&0u64.to_le_bytes());
    }
    let data = sealed(
        b"MGZX",
        1,
        &[
            &varints(&[7]),
            &0u64.to_le_bytes(),
            &varints(&[100, 0, 0, 2]),
            &entries,
        ],
    );
    assert!(FrameIndex::decode(&data).is_err());
}

#[test]
fn lz_blob_declaring_huge_raw_length_does_not_reserve_it() {
    // A 35-byte LZ blob whose header and stream both declare 2^63 - 1
    // raw bytes, then carry one literal.
    let huge = varints(&[(1 << 63) - 1]);
    let data = sealed(b"MGZB", 1, &[&[1], &huge, &huge, &[1, b'x']]);
    let (res, peak) = peak_during(|| decode_blob(0, &data));
    assert!(matches!(res, Err(StoreError::CorruptBlob { .. })));
    assert_bounded_peak("MGZB", data.len(), peak);
}

#[test]
fn partial_lists_declaring_huge_counts_do_not_reserve_them() {
    // A block-reuse count of 2^26 rows (40 B each) followed by nothing.
    let data = partial_with_rows(&[1 << 26]);
    let (res, peak) = peak_during(|| PartialReport::decode(&data));
    assert!(res.is_err());
    assert_bounded_peak("MGZP block rows", data.len(), peak);
    // A locality-size list of 2^26 entries (8 B each) with one entry.
    let data = sealed(b"MGZP", 2, &[&[3, 6], &varints(&[1 << 26, 5])]);
    let (res, peak) = peak_during(|| PartialReport::decode(&data));
    assert!(res.is_err());
    assert_bounded_peak("MGZP u64 list", data.len(), peak);
}

#[test]
fn reassembly_does_not_reserve_the_catalog_container_length() {
    let root = std::env::temp_dir().join(format!("memgaze-wire-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
    let mut rng = TestRng::new(7);
    let (container, index) = encode_sharded_indexed(&random_trace(&mut rng), 2);
    store
        .put("t", &container, &index, &SymbolTable::new())
        .unwrap();
    let mut cat = store.catalog("t").unwrap();
    cat.container_len = (1 << 63) - 1;
    let (res, peak) = peak_during(|| store.reassemble(&cat));
    assert!(matches!(res, Err(StoreError::StaleCatalog { .. })));
    assert_bounded_peak("reassembly", container.len(), peak);
    let _ = std::fs::remove_dir_all(&root);
}
