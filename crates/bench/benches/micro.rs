//! Criterion microbenchmarks for the hot paths of every layer:
//! FTL writes and GC, SOC insert/lookup, LOC append, synthetic payload
//! materialization, Zipf sampling, Lambert-W evaluation, and the
//! end-to-end cache get/put path.
//!
//! These are engineering benchmarks (simulator throughput), not paper
//! reproductions — the figure/table binaries in `src/bin/` are those.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use fdpcache_cache::builder::{build_stack, StoreKind};
use fdpcache_cache::value::Value;
use fdpcache_cache::{CacheConfig, NvmConfig};
use fdpcache_ftl::{Ftl, FtlConfig};
use fdpcache_model::lambert_w0;
use fdpcache_workloads::{SizeDist, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_ftl(c: &mut Criterion) {
    let mut g = c.benchmark_group("ftl");
    g.throughput(Throughput::Elements(1));

    g.bench_function("sequential_write", |b| {
        let mut ftl = Ftl::new(FtlConfig::tiny_test()).unwrap();
        let n = ftl.exported_lbas();
        let mut lba = 0u64;
        b.iter(|| {
            ftl.write(black_box(lba % n), 0).unwrap();
            lba += 1;
        });
    });

    g.bench_function("random_write_with_gc", |b| {
        let mut ftl = Ftl::new(FtlConfig::tiny_test()).unwrap();
        let n = ftl.exported_lbas();
        // Pre-fill so GC is active during measurement.
        let mut x = 1u64;
        for _ in 0..n * 2 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ftl.write(x % n, 0).unwrap();
        }
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ftl.write(black_box(x % n), 0).unwrap();
        });
    });

    g.bench_function("read", |b| {
        let mut ftl = Ftl::new(FtlConfig::tiny_test()).unwrap();
        ftl.write(7, 0).unwrap();
        b.iter(|| ftl.read(black_box(7)).unwrap());
    });
    g.finish();
}

fn cache_stack() -> fdpcache_cache::HybridCache {
    let cfg = CacheConfig {
        ram_bytes: 1 << 20,
        ram_item_overhead: 31,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    let (_ctrl, cache) =
        build_stack(FtlConfig::tiny_test(), StoreKind::Null, true, 0.9, &cfg).unwrap();
    cache
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));

    g.bench_function("put_small", |b| {
        let mut cache = cache_stack();
        let mut k = 0u64;
        b.iter(|| {
            cache.put(black_box(k), Value::synthetic(200)).unwrap();
            k += 1;
        });
    });

    g.bench_function("get_hit_ram", |b| {
        let mut cache = cache_stack();
        cache.put(1, Value::synthetic(200)).unwrap();
        b.iter(|| cache.get(black_box(1)).unwrap());
    });

    g.bench_function("get_mixed", |b| {
        let mut cache = cache_stack();
        for k in 0..10_000u64 {
            cache.put(k, Value::synthetic(200)).unwrap();
        }
        let mut k = 0u64;
        b.iter(|| {
            cache.get(black_box(k % 10_000)).unwrap();
            k += 1;
        });
    });
    g.finish();
}

fn bench_payload(c: &mut Criterion) {
    let mut g = c.benchmark_group("payload");
    // The bytes every synthetic flash insert writes (a LOC object here;
    // SOC bucket pages also pay the page checksum, which
    // `cache/put_small` covers).
    let mut buf = vec![0u8; 32 * 1024];
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("materialize_synthetic_32k", |b| {
        let v = Value::synthetic(buf.len() as u32);
        let mut key = 0u64;
        b.iter(|| {
            key += 1;
            v.materialize(black_box(key), &mut buf);
            black_box(&buf);
        });
    });
    g.finish();
}

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("workloads");
    g.throughput(Throughput::Elements(1));

    g.bench_function("zipf_sample", |b| {
        let z = Zipf::new(10_000_000, 0.9);
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(z.sample(&mut rng)));
    });

    g.bench_function("size_sample", |b| {
        let d = SizeDist::new(vec![
            fdpcache_workloads::sizes::SizeBand { lo: 50, hi: 300, weight: 0.7 },
            fdpcache_workloads::sizes::SizeBand { lo: 4001, hi: 400_000, weight: 0.3 },
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(d.sample(&mut rng)));
    });

    g.bench_function("tracegen_next", |b| {
        let profile = fdpcache_workloads::WorkloadProfile::meta_kv_cache();
        let mut gen = profile.generator(1_000_000, 3);
        b.iter(|| black_box(gen.next_request()));
    });
    g.finish();
}

fn bench_model(c: &mut Criterion) {
    c.bench_function("lambert_w0", |b| {
        b.iter(|| black_box(lambert_w0(black_box(-0.25)).unwrap()));
    });
}

criterion_group!(benches, bench_ftl, bench_cache, bench_payload, bench_workloads, bench_model);
criterion_main!(benches);
