//! Ablation: transpiler optimization levels.
//!
//! DESIGN.md calls out the optimization pipeline as a design choice; this
//! ablation reports the gate-count reduction of each level (0-3) across
//! the benchmark suite, and benchmarks the passes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qukit::terra::coupling::CouplingMap;
use qukit::terra::transpiler::{transpile, MapperKind, TranspileOptions};
use qukit_bench::mapping_suite;
use std::time::Duration;

fn report() {
    println!("=== Ablation: optimization level vs mapped gate count (QX5) ===\n");
    let qx5 = CouplingMap::ibm_qx5();
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "circuit", "level 0", "level 1", "level 2", "level 3"
    );
    for (name, circ) in mapping_suite(10) {
        let mut row = format!("{name:<22}");
        for level in 0u8..=3 {
            let options = TranspileOptions {
                coupling_map: Some(qx5.clone()),
                mapper: MapperKind::Sabre,
                optimization_level: level,
                ..TranspileOptions::default()
            };
            let result = transpile(&circ, &options).expect("transpiles");
            row.push_str(&format!(" {:>8}", result.circuit.num_gates()));
        }
        println!("{row}");
    }
    println!();
}

fn bench(c: &mut Criterion) {
    report();
    let qx5 = CouplingMap::ibm_qx5();
    let circ = qukit_bench::entangler(10, 3);
    let mut group = c.benchmark_group("transpile_levels");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(400))
        .measurement_time(Duration::from_secs(1));
    for level in [0u8, 1, 2, 3] {
        let options = TranspileOptions {
            coupling_map: Some(qx5.clone()),
            mapper: MapperKind::Sabre,
            optimization_level: level,
            ..TranspileOptions::default()
        };
        group.bench_with_input(
            BenchmarkId::new("entangler_10x3", level),
            &options,
            |b, options| b.iter(|| transpile(std::hint::black_box(&circ), options).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
