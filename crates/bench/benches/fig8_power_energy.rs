//! Figure 8: SoC active power and active energy of the GEMM kernel across
//! the four designs, at 512³ and 1024³.

use virgo::DesignKind;
use virgo_bench::{mw, print_table, run_gemm_all_designs, sizes_from_env};
use virgo_kernels::GemmShape;

fn main() {
    let sizes = std::env::var("VIRGO_GEMM_SIZES").ok();
    let defaults = [GemmShape::square(512), GemmShape::square(1024)];
    for shape in sizes_from_env(sizes.as_deref(), &defaults) {
        let results = run_gemm_all_designs(shape);
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(design, report)| {
                vec![
                    design.name().to_string(),
                    mw(report.active_power_mw()),
                    format!("{:.2} mJ", report.total_energy_mj()),
                    report.cycles().get().to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 8: SoC active power and energy, GEMM {shape}"),
            &["Design", "Active power", "Active energy", "Cycles"],
            &rows,
        );

        let get = |kind: DesignKind| {
            results
                .iter()
                .find(|(d, _)| *d == kind)
                .map(|(_, r)| r)
                .expect("design present")
        };
        let virgo = get(DesignKind::Virgo);
        // Signed reductions: positive when Virgo draws less, negative when it
        // draws more (Hopper-style power at 512³).
        let reduction = |ours: f64, theirs: f64| (1.0 - ours / theirs) * 100.0;
        println!();
        for (name, other) in [
            ("Ampere-style", get(DesignKind::AmpereStyle)),
            ("Hopper-style", get(DesignKind::HopperStyle)),
        ] {
            println!(
                "Virgo's reduction vs {name}: power {:+.1}%, energy {:+.1}%",
                reduction(virgo.active_power_mw(), other.active_power_mw()),
                reduction(virgo.total_energy_mj(), other.total_energy_mj()),
            );
        }
    }
    println!("\nPaper reference (Figure 8 / Section 6.1.2): Virgo reduces active power by 67.3%");
    println!("vs the Ampere-style design and 24.2% vs the Hopper-style design, and active");
    println!("energy by 80.3% and 32.5% respectively.");
}
