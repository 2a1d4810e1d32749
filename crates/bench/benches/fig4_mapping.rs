//! Fig. 4 — mapping the Fig. 1 circuit to the IBM QX4 architecture.
//!
//! Regenerates the paper's Fig. 4 comparison: the naive Qiskit-`compile`
//! style flow (4a) against the improved search-based flow (4b). Prints the
//! gate-count table for every mapper × optimization level and benchmarks
//! the mapping passes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qukit::terra::circuit::fig1_circuit;
use qukit::terra::coupling::CouplingMap;
use qukit::terra::transpiler::{transpile, MapperKind, TranspileOptions};
use std::time::Duration;

fn report() {
    println!("=== Fig. 4 reproduction: Fig. 1 circuit on IBM QX4 ===\n");
    let circ = fig1_circuit();
    let qx4 = CouplingMap::ibm_qx4();
    println!("input: {} gates ({} CNOTs), depth {}", circ.num_gates(), 5, circ.depth());
    println!(
        "\n{:<12} {:<4} {:>6} {:>5} {:>5} {:>6} {:>6}",
        "mapper", "opt", "gates", "cx", "1q", "swaps", "depth"
    );
    let mut naive_size = 0;
    let mut best_size = usize::MAX;
    for (mapper, label) in
        [(MapperKind::Basic, "basic"), (MapperKind::Sabre, "sabre"), (MapperKind::AStar, "astar")]
    {
        for level in [0u8, 1, 2, 3] {
            let options = TranspileOptions {
                coupling_map: Some(qx4.clone()),
                mapper,
                optimization_level: level,
                ..TranspileOptions::default()
            };
            let result = transpile(&circ, &options).expect("transpiles");
            let total = result.circuit.num_gates();
            let cx = result.circuit.count_ops().get("cx").copied().unwrap_or(0);
            println!(
                "{:<12} {:<4} {:>6} {:>5} {:>5} {:>6} {:>6}",
                label,
                level,
                total,
                cx,
                total - cx,
                result.num_swaps,
                result.circuit.depth()
            );
            if mapper == MapperKind::Basic && level == 0 {
                naive_size = total;
            }
            best_size = best_size.min(total);
        }
    }
    println!(
        "\nFig. 4a (naive) size: {naive_size}; best optimized size: {best_size} \
         ({:.0}% reduction — the paper's 'more efficient overall map')",
        100.0 * (1.0 - best_size as f64 / naive_size as f64)
    );
    println!();
}

fn bench(c: &mut Criterion) {
    report();
    let circ = fig1_circuit();
    let qx4 = CouplingMap::ibm_qx4();
    let mut group = c.benchmark_group("fig4_mapping");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for (mapper, label) in
        [(MapperKind::Basic, "basic"), (MapperKind::Sabre, "sabre"), (MapperKind::AStar, "astar")]
    {
        let options = TranspileOptions {
            coupling_map: Some(qx4.clone()),
            mapper,
            optimization_level: 3,
            ..TranspileOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("transpile", label), &options, |b, options| {
            b.iter(|| transpile(std::hint::black_box(&circ), options).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
