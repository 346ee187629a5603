//! Criterion micro-benchmark: CoddDB query execution across operator
//! classes (the paper's observation that subquery-bearing queries cost
//! ~7x expression-only queries is the target shape).

use criterion::{criterion_group, criterion_main, Criterion};

use coddtest_bench::{engine_setup as setup, QUERY_SHAPES};

fn bench_engine(c: &mut Criterion) {
    let mut db = setup();
    let mut group = c.benchmark_group("engine_exec");
    for (name, sql) in QUERY_SHAPES {
        let q = coddb::parser::parse_select(sql).unwrap();
        group.bench_function(*name, |b| {
            b.iter(|| std::hint::black_box(db.query(&q).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
