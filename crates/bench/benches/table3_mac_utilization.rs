//! Table 3: MAC unit utilization of the GEMM kernel across the four designs
//! and the three problem sizes, plus the Section 6.1.1 retired-instruction
//! comparison.

use virgo_bench::{pct, print_table, run_gemm_all_designs, sizes_from_env};
use virgo_kernels::GemmShape;

fn main() {
    let sizes = std::env::var("VIRGO_GEMM_SIZES").ok();
    let sizes = sizes_from_env(sizes.as_deref(), &GemmShape::paper_sizes());
    let mut rows = Vec::new();
    let mut instr_rows = Vec::new();

    for shape in &sizes {
        let results = run_gemm_all_designs(*shape);
        for (design, report) in &results {
            rows.push(vec![
                design.name().to_string(),
                shape.label(),
                pct(report.mac_utilization().as_fraction()),
                report.cycles().get().to_string(),
            ]);
        }
        // Section 6.1.1: retired instructions relative to the Volta-style and
        // Hopper-style designs.
        let volta = results[0].1.instructions_retired() as f64;
        let hopper = results[2].1.instructions_retired() as f64;
        let virgo = results[3].1.instructions_retired() as f64;
        instr_rows.push(vec![
            shape.label(),
            format!("{:.0}", volta),
            format!("{:.0}", hopper),
            format!("{:.0}", virgo),
            format!("{:.2}%", virgo / volta * 100.0),
            format!("{:.1}%", virgo / hopper * 100.0),
        ]);
    }

    print_table(
        "Table 3: MAC unit % utilization of the GEMM kernel",
        &["Design", "GEMM", "MAC util", "Cycles"],
        &rows,
    );
    println!("\nPaper reference (Table 3): Volta 25.6/30.3/30.3, Ampere 37.5/45.6/52.3,");
    println!("Hopper 60.5/72.8/77.0, Virgo 66.1/77.9/86.5 (% for 256/512/1024).");

    print_table(
        "Section 6.1.1: retired instructions",
        &[
            "GEMM",
            "Volta instrs",
            "Hopper instrs",
            "Virgo instrs",
            "Virgo/Volta",
            "Virgo/Hopper",
        ],
        &instr_rows,
    );
    println!("\nPaper reference: Virgo retires 0.5% of Volta-style and 8.0% of Hopper-style instructions.");
}
