//! Figure 11: active energy breakdown of the matrix units themselves.

use virgo_bench::{print_table, run_gemm_all_designs, sizes_from_env, uj};
use virgo_kernels::GemmShape;

fn main() {
    // The paper uses 1024³; the default 512³ keeps the run short.
    let sizes = std::env::var("VIRGO_GEMM_SIZES").ok();
    for shape in sizes_from_env(sizes.as_deref(), &[GemmShape::square(512)]) {
        let results = run_gemm_all_designs(shape);

        let mut rows = Vec::new();
        for (design, report) in &results {
            for (sub, energy) in report.power().matrix_energy_breakdown_uj() {
                if *energy > 0.0 {
                    rows.push(vec![
                        design.name().to_string(),
                        sub.name().to_string(),
                        uj(*energy),
                    ]);
                }
            }
            rows.push(vec![
                design.name().to_string(),
                "TOTAL".to_string(),
                uj(report.power().matrix_total_energy_uj()),
            ]);
        }
        print_table(
            &format!("Figure 11: matrix unit active energy breakdown, GEMM {shape}"),
            &["Design", "Subcomponent", "Active energy"],
            &rows,
        );
    }
    println!("\nPaper reference (Figure 11, 1024^3 GEMM): the processing-element energy is");
    println!("similar across all designs (slightly lower for Virgo's fused-multiply-add");
    println!("systolic PEs than for the tree-reduction dot-product units); the differences in");
    println!("system-level energy therefore come from outside the matrix unit.");
}
