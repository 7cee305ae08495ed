//! Golden bytes for every binary format.
//!
//! Each test encodes one fixed, hand-built value and pins the byte
//! length and FNV-1a-64 digest of the output. The values were captured
//! before the codecs moved onto `memgaze_model::wire`; they must never
//! change without an explicit format version bump, because stores,
//! result caches and worker pipes written by older builds have to stay
//! readable. (The `MGZQ`/`MGZW` pipe framings are private to
//! `memgaze-core` and are pinned by unit tests there.)

use memgaze::analysis::{AnalysisConfig, StreamingAnalyzer, WorkerSpec};
use memgaze::model::io::{encode_full, encode_sampled};
use memgaze::model::{
    encode_sharded_indexed, fnv1a64, Access, AuxAnnotations, BlockSize, FullTrace, FunctionId, Ip,
    IpAnnot, LoadClass, Sample, SampledTrace, SymbolTable, TraceMeta,
};
use memgaze::store::blob::encode_blob;
use memgaze::store::compress::compress;
use memgaze::store::Catalog;

fn assert_golden(what: &str, bytes: &[u8], len: usize, fnv: u64) {
    assert_eq!(
        (bytes.len(), fnv1a64(bytes)),
        (len, fnv),
        "{what} encoding drifted: (len, fnv1a64) = ({}, {:#018x})",
        bytes.len(),
        fnv1a64(bytes)
    );
}

/// Five samples of growing width; addresses step both up and down so
/// the zigzag deltas see both signs.
fn trace() -> SampledTrace {
    let mut meta = TraceMeta::new("golden", 5000, 4096);
    meta.total_loads = 50_000;
    meta.total_instrumented_loads = 700;
    let mut t = SampledTrace::new(meta);
    for s in 0..5u64 {
        let base = 10_000 * (s + 1);
        let accesses = (0..3 + 2 * s)
            .map(|i| {
                let addr = if i % 2 == 0 {
                    0x10_0000 + i * 64 + s * 8
                } else {
                    0x10_0000 - i * 24
                };
                Access::new(0x400 + (i % 3) * 4, addr, base + 3 * i)
            })
            .collect();
        t.push_sample(Sample::new(accesses, base + 40)).unwrap();
    }
    t
}

fn annots() -> AuxAnnotations {
    let mut a = AuxAnnotations::new();
    for (k, class) in [
        LoadClass::Strided,
        LoadClass::Irregular,
        LoadClass::Constant,
    ]
    .into_iter()
    .enumerate()
    {
        let mut an = IpAnnot::of_class(class, FunctionId(k as u32 % 2));
        an.implied_const = k as u32;
        an.scale = 8;
        an.offset = -16 * k as i64;
        an.two_source = k == 1;
        an.src_line = 40 + k as u32;
        a.insert(Ip(0x400 + 4 * k as u64), an);
    }
    a
}

fn symbols() -> SymbolTable {
    let mut sy = SymbolTable::new();
    sy.add_function("kernel", Ip(0x400), Ip(0x408), "kernel.c");
    sy.add_function("helper", Ip(0x408), Ip(0x420), "helper.c");
    sy
}

fn repetitive_payload() -> Vec<u8> {
    b"frame payload "
        .iter()
        .copied()
        .cycle()
        .take(700)
        .collect()
}

#[test]
fn golden_mgzt_v1_sampled() {
    assert_golden(
        "MGZT v1 sampled",
        encode_sampled(&trace()).as_ref(),
        198,
        0x7b2d_54c9_0af3_c172,
    );
}

#[test]
fn golden_mgzt_v1_full() {
    let mut f = FullTrace::new(TraceMeta::new("golden-full", 0, 0));
    f.dropped = 3;
    f.accesses = (0..20u64)
        .map(|i| Access::new(0x400 + (i % 2) * 4, 0x2000 + i * 8 - (i % 3) * 40, i * 2))
        .collect();
    assert_golden(
        "MGZT v1 full",
        encode_full(&f).as_ref(),
        94,
        0xa78a_1c8c_2261_fc65,
    );
}

#[test]
fn golden_mgzt_v2_container() {
    let (container, _) = encode_sharded_indexed(&trace(), 2);
    assert_golden("MGZT v2 container", &container, 211, 0x2539_79d5_ca24_0404);
}

#[test]
fn golden_mgzx() {
    let (_, index) = encode_sharded_indexed(&trace(), 2);
    assert_golden("MGZX", &index.encode(), 64, 0x3291_eda3_cde6_b287);
}

#[test]
fn golden_mgzp() {
    let (annots, symbols) = (annots(), symbols());
    let mut sa = StreamingAnalyzer::new(&annots, &symbols, AnalysisConfig::default())
        .with_locality_sizes(&[2, 4]);
    let t = trace();
    sa.ingest_shard(&t.samples[..2]);
    sa.ingest_shard(&t.samples[2..]);
    assert_golden(
        "MGZP",
        &sa.into_partial().encode(),
        647,
        0xa0bf_da98_cab3_8390,
    );
}

#[test]
fn golden_mgzs() {
    let spec = WorkerSpec {
        footprint_block: BlockSize::WORD,
        reuse_block: BlockSize::CACHE_LINE,
        threads: 2,
        locality_sizes: vec![2, 4, 8],
        annots: annots(),
        symbols: symbols(),
    };
    assert_golden("MGZS", &spec.encode(), 90, 0x8c35_d988_c670_38d1);
}

#[test]
fn golden_mgzb_raw() {
    let payload: Vec<u8> = (0u32..64)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect();
    let blob = encode_blob(&payload);
    assert_eq!(blob[6], 0, "incompressible payload must be stored raw");
    assert_golden("MGZB raw", &blob, 80, 0x3c26_f1cd_c37d_70c9);
}

#[test]
fn golden_mgzb_lz() {
    let blob = encode_blob(&repetitive_payload());
    assert_eq!(blob[6], 1, "repetitive payload must be stored compressed");
    assert_golden("MGZB lz", &blob, 37, 0x4026_9cb5_f7d3_3901);
}

#[test]
fn golden_lz_stream() {
    assert_golden(
        "LZ stream",
        &compress(&repetitive_payload()),
        20,
        0xfbb8_d839_1b36_ea46,
    );
}

#[test]
fn golden_mgzc() {
    let (container, index) = encode_sharded_indexed(&trace(), 2);
    let cat = Catalog::scan(
        "golden",
        &container,
        &index,
        &symbols(),
        BlockSize::CACHE_LINE,
    )
    .unwrap();
    assert_golden("MGZC", &cat.encode(), 287, 0x67ef_bece_eda5_90c7);
}
