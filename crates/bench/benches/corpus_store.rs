//! `.pacst` corpus-store read paths versus the text pipeline they
//! replace. The store's pitch (FORMAT.md) is O(1) lookups over
//! `Read + Seek`: open cost is header + table + two small indexes,
//! independent of corpus size, and each point lookup is one seek plus
//! one CRC-framed read — where the Braun text format re-parses
//! `10 + M + T·M` ASCII floats per instance. BENCH_<n>.json records
//! the ratio under `corpus_store`.

use std::io::Cursor;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use etc_model::braun::{braun_instance, braun_instance_names};
use etc_model::io::{read_instance, write_instance};
use etc_model::{binary, EtcInstance};
use pa_cga_core::checkpoint::Crc32;
use pa_cga_service::cache::CachedRun;
use pa_cga_service::store::{StoreBuilder, StoreReader};

const DIGEST: u64 = 0xBE57_0001;

/// The full Braun 512×16 grid plus one best record — the same image
/// `pacga corpus build --braun` writes and CI stage 6d boots from.
fn braun_store() -> Vec<u8> {
    let mut b = StoreBuilder::new();
    for name in braun_instance_names() {
        b.add_instance(&braun_instance(name)).expect("braun instance encodes");
    }
    b.add_best(
        DIGEST,
        &CachedRun {
            instance: "u_c_hihi.0".into(),
            n_tasks: 512,
            n_machines: 16,
            makespan: 16_000_000.5,
            evaluations: 5_000,
            engine_ms: 12.25,
            assignment: (0..512u32).map(|t| t % 16).collect(),
        },
    )
    .expect("best encodes");
    b.encode()
}

fn bench_store_reads(c: &mut Criterion) {
    let bytes = braun_store();
    let mut group = c.benchmark_group("corpus_store");

    // Open: header + trailer + section table + both hash indexes.
    // Constant in record count and record size by construction.
    group.bench_function("open", |b| {
        b.iter(|| black_box(StoreReader::open(Cursor::new(bytes.as_slice())).unwrap()))
    });

    // The daemon's warm path: reader held open, point lookups on demand.
    let mut reader = StoreReader::open(Cursor::new(bytes.as_slice())).unwrap();
    group.bench_function("get_instance", |b| {
        b.iter(|| black_box(reader.get_instance(black_box("u_i_lolo.0")).unwrap().unwrap()))
    });
    group.bench_function("get_best", |b| {
        b.iter(|| black_box(reader.get_best(black_box(DIGEST)).unwrap().unwrap()))
    });

    // The cold-start path CI stage 6d exercises: open the file and
    // resolve one instance, end to end.
    group.bench_function("open_and_get", |b| {
        b.iter(|| {
            let mut r = StoreReader::open(Cursor::new(bytes.as_slice())).unwrap();
            black_box(r.get_instance("u_c_hihi.0").unwrap().unwrap())
        })
    });
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let inst = braun_instance("u_c_hihi.0");
    let mut group = c.benchmark_group("corpus_store");

    // What the store replaces: serialize + parse of the Braun-style
    // text format (ASCII floats, line-oriented).
    let mut text = Vec::new();
    write_instance(&mut text, &inst).unwrap();
    group.bench_function("text_parse_512x16", |b| {
        b.iter(|| {
            let parsed: EtcInstance = read_instance(Cursor::new(text.as_slice())).unwrap();
            black_box(parsed)
        })
    });

    // The §7.1 binary body alone, without the container around it.
    let body = binary::encode_instance(&inst).unwrap();
    group.bench_function("binary_decode_512x16", |b| {
        b.iter(|| black_box(binary::decode_instance(black_box(&body)).unwrap()))
    });

    // The record CRC `get_instance` verifies before decoding: one 512×16
    // body, 65 684 bytes (65 536 of them the ETC matrix).
    group.bench_function("crc32_record", |b| b.iter(|| black_box(Crc32::of(black_box(&body)))));
    group.finish();
}

criterion_group!(benches, bench_store_reads, bench_codecs);
criterion_main!(benches);
