//! Active power and energy reports derived from an [`EnergyLedger`].

use virgo_sim::{Cycle, Frequency};

use crate::component::{Component, MatrixSubcomponent};
use crate::ledger::EnergyLedger;
use crate::table::EnergyTable;

/// An active power / active energy report for one simulated kernel run.
///
/// "Active" mirrors the paper's measurement methodology (Section 5.3): idle
/// (leakage and clock-tree) power is excluded; only event-proportional
/// switching energy is counted.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    cycles: Cycle,
    frequency: Frequency,
    /// Per-component energy in microjoules, in [`Component::all`] order.
    component_energy_uj: Vec<(Component, f64)>,
    /// Matrix-unit internal energy breakdown in microjoules.
    matrix_energy_uj: Vec<(MatrixSubcomponent, f64)>,
}

impl PowerReport {
    /// Builds a report from a ledger, the energy table, the kernel's cycle
    /// count and the SoC clock.
    pub fn from_ledger(
        ledger: &EnergyLedger,
        table: &EnergyTable,
        cycles: Cycle,
        frequency: Frequency,
    ) -> Self {
        let component_energy_uj = Component::all()
            .iter()
            .map(|&c| (c, ledger.component_energy_pj(table, c) * 1e-6))
            .collect();
        let matrix_energy_uj = MatrixSubcomponent::all()
            .iter()
            .map(|&s| (s, ledger.matrix_energy_pj(table, s) * 1e-6))
            .collect();
        PowerReport {
            cycles,
            frequency,
            component_energy_uj,
            matrix_energy_uj,
        }
    }

    /// Reassembles a report from its parts — the inverse of the accessors,
    /// used when rehydrating a cached `SimReport` snapshot. The entry
    /// vectors must be in the same order the accessors report
    /// ([`Component::all`] / [`MatrixSubcomponent::all`]).
    pub fn from_parts(
        cycles: Cycle,
        frequency: Frequency,
        component_energy_uj: Vec<(Component, f64)>,
        matrix_energy_uj: Vec<(MatrixSubcomponent, f64)>,
    ) -> Self {
        PowerReport {
            cycles,
            frequency,
            component_energy_uj,
            matrix_energy_uj,
        }
    }

    /// Simulated cycle count of the run.
    pub fn cycles(&self) -> Cycle {
        self.cycles
    }

    /// SoC clock frequency used for power conversion.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Simulated runtime in seconds.
    pub fn runtime_seconds(&self) -> f64 {
        self.frequency.cycles_to_seconds(self.cycles)
    }

    /// Total active energy in microjoules.
    pub fn total_energy_uj(&self) -> f64 {
        self.component_energy_uj.iter().map(|(_, e)| e).sum()
    }

    /// Total active energy in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        self.total_energy_uj() * 1e-3
    }

    /// Total SoC active power in milliwatts.
    pub fn active_power_mw(&self) -> f64 {
        let t = self.runtime_seconds();
        if t == 0.0 {
            0.0
        } else {
            // energy [µJ] / time [s] = power [µW]; convert to mW.
            self.total_energy_uj() / t * 1e-3
        }
    }

    /// Active energy of one component in microjoules.
    pub fn component_energy(&self, component: Component) -> f64 {
        self.component_energy_uj
            .iter()
            .find(|(c, _)| *c == component)
            .map(|(_, e)| *e)
            .unwrap_or(0.0)
    }

    /// Active power of one component in milliwatts.
    pub fn component_power_mw(&self, component: Component) -> f64 {
        let t = self.runtime_seconds();
        if t == 0.0 {
            0.0
        } else {
            self.component_energy(component) / t * 1e-3
        }
    }

    /// Per-component active energy breakdown (µJ), in report order.
    pub fn energy_breakdown_uj(&self) -> &[(Component, f64)] {
        &self.component_energy_uj
    }

    /// Active energy of the whole "Vortex Core" group (Figure 9 grouping).
    pub fn core_energy_uj(&self) -> f64 {
        self.component_energy_uj
            .iter()
            .filter(|(c, _)| c.is_core())
            .map(|(_, e)| e)
            .sum()
    }

    /// Active power of the whole "Vortex Core" group in milliwatts.
    pub fn core_power_mw(&self) -> f64 {
        let t = self.runtime_seconds();
        if t == 0.0 {
            0.0
        } else {
            self.core_energy_uj() / t * 1e-3
        }
    }

    /// The matrix unit's internal energy breakdown in microjoules
    /// (Figure 11 granularity).
    pub fn matrix_energy_breakdown_uj(&self) -> &[(MatrixSubcomponent, f64)] {
        &self.matrix_energy_uj
    }

    /// Total matrix-unit energy (including the accumulator memory) in
    /// microjoules.
    pub fn matrix_total_energy_uj(&self) -> f64 {
        self.matrix_energy_uj.iter().map(|(_, e)| e).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EnergyEvent;

    fn simple_report() -> PowerReport {
        let mut ledger = EnergyLedger::new();
        ledger.record(Component::CoreIssue, EnergyEvent::InstrIssued, 1000);
        ledger.record(Component::CoreAlu, EnergyEvent::AluOp, 2000);
        ledger.record(Component::L2Cache, EnergyEvent::L2Access, 10);
        ledger.record_matrix(MatrixSubcomponent::PeArray, EnergyEvent::MacSystolic, 500);
        PowerReport::from_ledger(
            &ledger,
            &EnergyTable::default_16nm(),
            Cycle::new(4000),
            Frequency::VIRGO_SOC,
        )
    }

    #[test]
    fn energy_sums_match_components() {
        let r = simple_report();
        let sum: f64 = r.energy_breakdown_uj().iter().map(|(_, e)| e).sum();
        assert!((sum - r.total_energy_uj()).abs() < 1e-12);
        assert!(r.total_energy_uj() > 0.0);
    }

    #[test]
    fn power_is_energy_over_time() {
        let r = simple_report();
        let expected_mw = r.total_energy_uj() / r.runtime_seconds() * 1e-3;
        assert!((r.active_power_mw() - expected_mw).abs() < 1e-9);
    }

    #[test]
    fn core_group_includes_only_core_stages() {
        let r = simple_report();
        let issue = r.component_energy(Component::CoreIssue);
        let alu = r.component_energy(Component::CoreAlu);
        assert!((r.core_energy_uj() - (issue + alu)).abs() < 1e-12);
        assert!(r.core_power_mw() > 0.0);
    }

    #[test]
    fn matrix_breakdown_reports_pe_energy() {
        let r = simple_report();
        let pe = r
            .matrix_energy_breakdown_uj()
            .iter()
            .find(|(s, _)| *s == MatrixSubcomponent::PeArray)
            .map(|(_, e)| *e)
            .unwrap();
        assert!(pe > 0.0);
        assert!((r.matrix_total_energy_uj() - pe).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_reports_zero_power() {
        let ledger = EnergyLedger::new();
        let r = PowerReport::from_ledger(
            &ledger,
            &EnergyTable::default_16nm(),
            Cycle::ZERO,
            Frequency::VIRGO_SOC,
        );
        assert_eq!(r.active_power_mw(), 0.0);
        assert_eq!(r.total_energy_uj(), 0.0);
    }

    #[test]
    fn runtime_uses_frequency() {
        let r = simple_report();
        assert!((r.runtime_seconds() - 4000.0 / 400e6).abs() < 1e-15);
    }
}
