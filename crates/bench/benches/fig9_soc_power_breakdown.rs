//! Figure 9: active power breakdown by SoC component for the GEMM kernel.

use virgo_bench::{mw, print_table, run_gemm_all_designs, sizes_from_env};
use virgo_energy::Component;
use virgo_kernels::GemmShape;

fn main() {
    // Figure 9 grouping: core stages merged into "Vortex Core".
    let groups = [
        ("L2 Cache", vec![Component::L2Cache]),
        ("L1 Cache", vec![Component::L1Cache]),
        ("Shared Mem", vec![Component::SharedMem]),
        (
            "Vortex Core",
            vec![
                Component::CoreIssue,
                Component::CoreAlu,
                Component::CoreFpu,
                Component::CoreLsu,
                Component::CoreWriteback,
                Component::CoreOther,
            ],
        ),
        ("Accum Mem", vec![Component::AccumMem]),
        ("Matrix Unit", vec![Component::MatrixUnit]),
        ("DMA & Other", vec![Component::DmaOther]),
    ];

    // The paper uses 1024³; the default 512³ keeps the run short.
    let sizes = std::env::var("VIRGO_BREAKDOWN_SIZE").ok();
    for shape in sizes_from_env(sizes.as_deref(), &[GemmShape::square(512)]) {
        let results = run_gemm_all_designs(shape);
        let mut rows = Vec::new();
        for (design, report) in &results {
            for (label, components) in &groups {
                let power: f64 = components
                    .iter()
                    .map(|&c| report.power().component_power_mw(c))
                    .sum();
                rows.push(vec![
                    design.name().to_string(),
                    (*label).to_string(),
                    mw(power),
                ]);
            }
            rows.push(vec![
                design.name().to_string(),
                "TOTAL".to_string(),
                mw(report.active_power_mw()),
            ]);
        }
        print_table(
            &format!("Figure 9: SoC active power breakdown, GEMM {shape}"),
            &["Design", "Component", "Active power"],
            &rows,
        );
    }
    println!("\nPaper reference (Figure 9, 1024^3 GEMM): the Vortex core dominates the");
    println!("core-coupled designs' power; Virgo's core power collapses because instruction");
    println!("processing and register-file traffic are removed, leaving the matrix unit and");
    println!("memories as the main consumers.");
    println!("(Set VIRGO_BREAKDOWN_SIZE=1024 to reproduce the paper's exact problem size.)");
}
