//! Criterion microbenchmarks of the snapshot wire formats: sparse
//! columnar encode/decode against the dense JSON pair, plus the delta
//! algebra (`extract_delta`/`apply_delta`) that the serve layer runs
//! once per publication epoch. The database under test comes from a
//! real profiling run, so row occupancy and counter magnitudes match
//! what the service actually serializes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use profileme_core::{ProfileDatabase, ProfileMeConfig, Session, WireFormat};
use profileme_workloads as workloads;
use std::hint::black_box;

/// One profiling run's database plus an empty peer over the same
/// program — built once, measured in steady state; encoding cost is
/// the target, not construction.
fn profiled_db() -> (ProfileDatabase, ProfileDatabase) {
    let w = workloads::compress(20_000);
    let run = Session::builder(w.program.clone())
        .memory(w.memory.clone())
        .sampling(ProfileMeConfig {
            mean_interval: 32,
            buffer_depth: 8,
            ..ProfileMeConfig::default()
        })
        .build()
        .expect("config is valid")
        .profile_single()
        .expect("workload completes");
    let empty = ProfileDatabase::new(&w.program, run.db.interval());
    (run.db, empty)
}

fn encode(c: &mut Criterion) {
    let (db, _) = profiled_db();
    let sparse = db.encode(WireFormat::Sparse).expect("sparse encodes");
    let mut group = c.benchmark_group("snapshot/encode");
    group.throughput(Throughput::Bytes(sparse.len() as u64));
    group.bench_function("sparse", |b| {
        b.iter(|| black_box(db.encode(WireFormat::Sparse).expect("sparse encodes")))
    });
    group.bench_function("dense_json", |b| {
        b.iter(|| black_box(db.encode(WireFormat::Dense).expect("dense encodes")))
    });
    group.finish();
}

fn decode(c: &mut Criterion) {
    let (db, _) = profiled_db();
    let sparse = db.encode(WireFormat::Sparse).expect("sparse encodes");
    let dense = db.encode(WireFormat::Dense).expect("dense encodes");
    let mut group = c.benchmark_group("snapshot/decode");
    group.throughput(Throughput::Bytes(sparse.len() as u64));
    group.bench_function("sparse", |b| {
        b.iter(|| black_box(ProfileDatabase::decode(&sparse).expect("decodes")))
    });
    group.bench_function("dense_json", |b| {
        b.iter(|| black_box(ProfileDatabase::decode(&dense).expect("decodes")))
    });
    group.finish();
}

fn delta(c: &mut Criterion) {
    // The freshly-built database has its whole history dirty, so this
    // measures the worst-case (full-image) delta; steady-state epochs
    // touch far fewer rows and only get cheaper.
    let (template, empty) = profiled_db();
    let full_delta = {
        let mut d = template.clone();
        let mut base = empty.clone();
        d.extract_delta(&mut base).expect("delta extracts")
    };
    let mut group = c.benchmark_group("snapshot/delta");
    group.throughput(Throughput::Bytes(full_delta.len() as u64));
    // Per-iteration clones reset the dirty set; their cost is measured
    // separately below so the pair can be read net of it.
    group.bench_function("extract", |b| {
        b.iter(|| {
            let mut d = template.clone();
            let mut base = empty.clone();
            black_box(d.extract_delta(&mut base).expect("delta extracts"))
        })
    });
    group.bench_function("apply", |b| {
        b.iter(|| {
            let mut replica = empty.clone();
            replica.apply_delta(&full_delta).expect("delta applies");
            black_box(replica)
        })
    });
    group.bench_function("clone_baseline", |b| {
        b.iter(|| black_box((template.clone(), empty.clone())))
    });
    group.finish();
}

criterion_group!(benches, encode, decode, delta);
criterion_main!(benches);
