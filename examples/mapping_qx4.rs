//! Reproduction of the paper's Fig. 4: mapping Fig. 1 to IBM QX4.
//!
//! Compares the naive mapping (Fig. 4a — route every CNOT independently,
//! no optimization) against the improved search-based flow (Fig. 4b) and
//! prints per-strategy gate counts and circuit depth.
//!
//! Run with: `cargo run --example mapping_qx4`

use qukit_terra::circuit::fig1_circuit;
use qukit_terra::coupling::CouplingMap;
use qukit_terra::draw::draw;
use qukit_terra::transpiler::{transpile, MapperKind, TranspileOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circ = fig1_circuit();
    let qx4 = CouplingMap::ibm_qx4();
    println!("Input: the paper's Fig. 1 circuit ({} gates)", circ.num_gates());
    println!("Target: {qx4}\n");

    println!(
        "{:<12} {:<6} {:>6} {:>6} {:>6} {:>7} {:>7}",
        "mapper", "opt", "gates", "cx", "1q", "swaps", "depth"
    );
    let mut fig4a = None;
    let mut fig4b = None;
    for (mapper, label) in
        [(MapperKind::Basic, "basic"), (MapperKind::Sabre, "sabre"), (MapperKind::AStar, "astar")]
    {
        for level in [0u8, 3] {
            let options = TranspileOptions {
                coupling_map: Some(qx4.clone()),
                mapper,
                optimization_level: level,
                ..TranspileOptions::default()
            };
            let result = transpile(&circ, &options)?;
            let ops = result.circuit.count_ops();
            let cx = ops.get("cx").copied().unwrap_or(0);
            let total = result.circuit.num_gates();
            println!(
                "{:<12} {:<6} {:>6} {:>6} {:>6} {:>7} {:>7}",
                label,
                level,
                total,
                cx,
                total - cx,
                result.num_swaps,
                result.circuit.depth()
            );
            if mapper == MapperKind::Basic && level == 0 {
                fig4a = Some(result.circuit.clone());
            } else if mapper == MapperKind::AStar && level == 3 {
                fig4b = Some(result.circuit.clone());
            }
        }
    }

    let fig4a = fig4a.expect("computed above");
    let fig4b = fig4b.expect("computed above");
    println!("\nFig. 4a (naive flow, {} gates):\n{}", fig4a.num_gates(), draw(&fig4a));
    println!("Fig. 4b (optimized flow, {} gates):\n{}", fig4b.num_gates(), draw(&fig4b));
    println!(
        "Improvement: {} -> {} gates ({:.0}% smaller)",
        fig4a.num_gates(),
        fig4b.num_gates(),
        100.0 * (1.0 - fig4b.num_gates() as f64 / fig4a.num_gates() as f64)
    );
    Ok(())
}
