//! Figure 10: active power breakdown within the SIMT cores for the GEMM
//! kernel (issue, ALU, FPU, LSU, writeback, other), with the matrix unit and
//! accumulator memory shown alongside for comparison.

use virgo_bench::{mw, print_table, run_gemm_all_designs, sizes_from_env};
use virgo_energy::{Component, CoreStage};
use virgo_kernels::GemmShape;

fn main() {
    // The paper uses 1024³; the default 512³ keeps the run short.
    let sizes = std::env::var("VIRGO_GEMM_SIZES").ok();
    for shape in sizes_from_env(sizes.as_deref(), &[GemmShape::square(512)]) {
        let results = run_gemm_all_designs(shape);

        let mut rows = Vec::new();
        for (design, report) in &results {
            for stage in CoreStage::all() {
                rows.push(vec![
                    design.name().to_string(),
                    stage.component().name().to_string(),
                    mw(report.power().component_power_mw(stage.component())),
                ]);
            }
            for extra in [Component::AccumMem, Component::MatrixUnit] {
                rows.push(vec![
                    design.name().to_string(),
                    extra.name().to_string(),
                    mw(report.power().component_power_mw(extra)),
                ]);
            }
            rows.push(vec![
                design.name().to_string(),
                "Core total".to_string(),
                mw(report.power().core_power_mw()),
            ]);
        }
        print_table(
            &format!("Figure 10: core active power breakdown, GEMM {shape}"),
            &["Design", "Stage", "Active power"],
            &rows,
        );
    }
    println!("\nPaper reference (Figure 10, 1024^3 GEMM): issue and ALU power dominate the");
    println!("Volta/Ampere-style cores (fine-grained HMMA sequencing, per-load address");
    println!("generation, register-file operand staging); the Hopper-style core keeps");
    println!("non-trivial issue power from register-file accumulation; Virgo's core power is");
    println!("minimal and the energy moves into the disaggregated matrix unit.");
}
