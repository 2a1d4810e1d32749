//! Section V-B claim ([Zulehner-Paler-Wille TCAD'18]) — heuristic search
//! reduces added gates vs naive mapping.
//!
//! Sweeps a benchmark-circuit suite over IBM QX5 (16 qubits) and reports
//! the gate overhead of every mapper; the expected shape is
//! `sabre ≤ basic` and `astar ≤ basic` on added gates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qukit::terra::coupling::CouplingMap;
use qukit::terra::transpiler::{transpile, MapperKind, TranspileOptions};
use qukit_bench::mapping_suite;
use std::time::Duration;

fn report() {
    println!("=== §V-B reproduction: mapping overhead on IBM QX5 ===\n");
    let qx5 = CouplingMap::ibm_qx5();
    println!("{:<22} {:>6} | {:>13} {:>13} {:>13}", "circuit", "base", "basic", "sabre", "astar");
    println!(
        "{:<22} {:>6} | {:>7}{:>6} {:>7}{:>6} {:>7}{:>6}",
        "", "gates", "gates", "swaps", "gates", "swaps", "gates", "swaps"
    );
    let mut totals = [0usize; 3];
    for (name, circ) in mapping_suite(10) {
        let base = qukit::terra::transpiler::decompose::elementary_gate_count(&circ);
        let mut row = format!("{name:<22} {base:>6} |");
        for (i, mapper) in
            [MapperKind::Basic, MapperKind::Sabre, MapperKind::AStar].iter().enumerate()
        {
            let options = TranspileOptions {
                coupling_map: Some(qx5.clone()),
                mapper: *mapper,
                optimization_level: 1,
                ..TranspileOptions::default()
            };
            let result = transpile(&circ, &options).expect("transpiles");
            row.push_str(&format!(" {:>7}{:>6}", result.circuit.num_gates(), result.num_swaps));
            totals[i] += result.circuit.num_gates();
        }
        println!("{row}");
    }
    println!("\ntotals: basic {} / sabre {} / astar {} gates", totals[0], totals[1], totals[2]);
    println!(
        "shape check (search beats naive): sabre<=basic: {}, astar<=basic: {}",
        totals[1] <= totals[0],
        totals[2] <= totals[0]
    );
    println!();
}

fn bench(c: &mut Criterion) {
    report();
    let qx5 = CouplingMap::ibm_qx5();
    let mut group = c.benchmark_group("mapping_suite");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(2));
    let circ = qukit_bench::random_circuit(10, 40, 1234);
    for (mapper, label) in
        [(MapperKind::Basic, "basic"), (MapperKind::Sabre, "sabre"), (MapperKind::AStar, "astar")]
    {
        let options = TranspileOptions {
            coupling_map: Some(qx5.clone()),
            mapper,
            optimization_level: 1,
            ..TranspileOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("random_10x40", label), &options, |b, options| {
            b.iter(|| transpile(std::hint::black_box(&circ), options).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
