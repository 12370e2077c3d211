//! Table 4: on-chip shared-memory read footprint of the 256³ GEMM kernel
//! across the three matrix-unit integration styles.

use virgo::DesignKind;
use virgo_bench::{print_table, run};
use virgo_kernels::GemmShape;
use virgo_sweep::Query;

fn main() {
    let shape = GemmShape::square(256);
    let designs = [
        ("Tightly-coupled", DesignKind::AmpereStyle, "8x8 per-core"),
        (
            "Operand-decoupled",
            DesignKind::HopperStyle,
            "16x16 per-core",
        ),
        (
            "Disaggregated (Virgo)",
            DesignKind::Virgo,
            "16x16 per-cluster",
        ),
    ];
    let reports: Vec<_> = designs
        .iter()
        .map(|(label, design, frag)| (*label, *frag, run(&Query::new(*design, shape))))
        .collect();
    let virgo_bytes = reports
        .last()
        .expect("virgo entry")
        .2
        .smem_read_footprint_bytes() as f64;

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(label, frag, report)| {
            let bytes = report.smem_read_footprint_bytes() as f64;
            vec![
                label.to_string(),
                frag.to_string(),
                format!("{:.2}", bytes / (1024.0 * 1024.0)),
                format!("{:.2}", bytes / virgo_bytes),
            ]
        })
        .collect();
    print_table(
        "Table 4: shared-memory read footprint, 256x256x256 GEMM",
        &[
            "Matrix unit design",
            "Tile fragment",
            "MiB",
            "Norm. to Virgo",
        ],
        &rows,
    );
    println!("\nPaper reference (Table 4): tightly-coupled 6 MiB (2.67x), operand-decoupled");
    println!("4 MiB (1.78x), disaggregated 2.25 MiB (1.00x).");
    println!("\nSection 6.1.3: the Virgo shared memory should also use less energy than the");
    println!("operand-decoupled design (paper: 41% less active energy).");
}
