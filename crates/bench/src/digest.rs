//! A comparable, serializable fingerprint of a [`SimReport`].
//!
//! The fast-forward engine promises **bit-identical** reports to the naive
//! one-cycle-at-a-time loop. [`ReportDigest`] captures every quantity that
//! promise covers — cycle count, instruction counts, the full per-core cycle
//! classification, per-component energy and MAC utilization — in a plain
//! `PartialEq` struct — including the DRAM interface and per-channel
//! contention counters — so the equivalence test and the `fastforward`
//! benchmark can compare whole runs with one assertion and emit them as JSON
//! without external dependencies.

use virgo::SimReport;
use virgo_mem::DramStats;
use virgo_sim::json::{fmt_f64, write_string};
use virgo_simt::CoreStats;

/// Everything the fast-forward equivalence guarantee covers, in one
/// exactly-comparable value.
///
/// Floating-point fields are compared *exactly*: identical event counts feed
/// the same deterministic arithmetic, so equivalent runs produce equal bits,
/// and any tolerance would only mask accounting bugs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportDigest {
    /// Design point name.
    pub design: String,
    /// Kernel name.
    pub kernel: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired by the SIMT cores.
    pub instructions_retired: u64,
    /// Busy-register polls issued in `virgo_fence` loops.
    pub fence_poll_instructions: u64,
    /// Cycles with at least one warp spinning in `virgo_fence`.
    pub fence_wait_cycles: u64,
    /// Multiply-accumulates performed by the matrix units.
    pub performed_macs: u64,
    /// MAC utilization in percent (Table 3 metric).
    pub mac_utilization_percent: f64,
    /// Shared-memory read footprint in bytes (Table 4 metric).
    pub smem_bytes_read: u64,
    /// Full per-core event counters, aggregated over the cluster.
    pub core_stats: CoreStats,
    /// DRAM interface counters, summed over channels.
    pub dram_stats: DramStats,
    /// Per-channel DRAM interface counters, in channel order.
    pub dram_channel_stats: Vec<DramStats>,
    /// Wall-clock cycles lost to DRAM-channel contention, summed over
    /// clusters.
    pub dram_contention_stall_cycles: u64,
    /// Per-cluster contention stalls, in cluster order.
    pub per_cluster_stall_cycles: Vec<u64>,
    /// Transfers carried by the inter-cluster DSM fabric.
    pub dsm_transfers: u64,
    /// Bytes moved cluster-to-cluster over the DSM fabric.
    pub dsm_bytes: u64,
    /// Exposed DSM link-queueing cycles, summed over requesters.
    pub dsm_stall_cycles: u64,
    /// Flit-hop traversals on the DSM fabric (the link energy event count).
    pub dsm_hop_flits: u64,
    /// Per-cluster DSM bytes pushed, in requester order.
    pub per_cluster_dsm_bytes: Vec<u64>,
    /// Per-cluster SIMT active cycles, in cluster order — the compute side
    /// of the load-imbalance view.
    pub per_cluster_active_cycles: Vec<u64>,
    /// Per-cluster DSM ingress bytes (traffic arriving at each cluster's
    /// port), in destination order — the reduction side of the
    /// load-imbalance view.
    pub per_cluster_dsm_ingress_bytes: Vec<u64>,
    /// `max / mean` of the per-cluster active cycles (0.0 when idle).
    pub active_spread: f64,
    /// `max / mean` of the per-cluster DSM ingress bytes (0.0 when the
    /// fabric is unused; N on an all-to-one reduction over N clusters).
    pub dsm_ingress_spread: f64,
    /// Total active energy in millijoules.
    pub total_energy_mj: f64,
    /// Total active power in milliwatts.
    pub active_power_mw: f64,
    /// Per-component active energy in microjoules, in report order.
    pub energy_breakdown_uj: Vec<(String, f64)>,
}

impl ReportDigest {
    /// Extracts the digest of a finished run.
    pub fn of(report: &SimReport) -> Self {
        let imbalance = report.load_imbalance();
        let dsm = report.dsm_stats();
        ReportDigest {
            design: report.design().to_string(),
            kernel: report.kernel_name().to_string(),
            cycles: report.cycles().get(),
            instructions_retired: report.instructions_retired(),
            fence_poll_instructions: report.fence_poll_instructions(),
            fence_wait_cycles: report.fence_wait_cycles(),
            performed_macs: report.performed_macs(),
            mac_utilization_percent: report.mac_utilization().as_percent(),
            smem_bytes_read: report.smem_read_footprint_bytes(),
            core_stats: report.core_stats(),
            dram_stats: report.dram_stats(),
            dram_channel_stats: report.dram_channel_stats(),
            dram_contention_stall_cycles: report.dram_contention_stall_cycles(),
            per_cluster_stall_cycles: report
                .per_cluster()
                .iter()
                .map(|c| c.dram_stall_cycles())
                .collect(),
            dsm_transfers: dsm.transfers,
            dsm_bytes: dsm.bytes,
            dsm_stall_cycles: dsm.stall_cycles,
            dsm_hop_flits: dsm.hop_flits,
            per_cluster_dsm_bytes: report
                .per_cluster()
                .iter()
                .map(|c| c.dsm.total().bytes)
                .collect(),
            active_spread: imbalance.active_spread,
            dsm_ingress_spread: imbalance.dsm_ingress_spread,
            per_cluster_active_cycles: imbalance.active_cycles,
            per_cluster_dsm_ingress_bytes: imbalance.dsm_ingress_bytes,
            total_energy_mj: report.total_energy_mj(),
            active_power_mw: report.active_power_mw(),
            energy_breakdown_uj: report
                .power()
                .energy_breakdown_uj()
                .iter()
                .map(|(component, energy)| (format!("{component:?}"), *energy))
                .collect(),
        }
    }

    /// Renders the digest as a JSON object. Non-finite floats render as
    /// `null`; the pinned digest hashes depend on these exact bytes.
    pub fn to_json(&self) -> String {
        let quote = |value: &str| {
            let mut out = String::new();
            write_string(value, &mut out);
            out
        };
        let breakdown: Vec<String> = self
            .energy_breakdown_uj
            .iter()
            .map(|(name, uj)| format!("{}: {}", quote(name), fmt_f64(*uj)))
            .collect();
        let stats = &self.core_stats;
        format!(
            concat!(
                "{{\"design\": {}, \"kernel\": {}, \"cycles\": {}, ",
                "\"instructions_retired\": {}, \"fence_poll_instructions\": {}, ",
                "\"fence_wait_cycles\": {}, \"performed_macs\": {}, ",
                "\"mac_utilization_percent\": {}, \"smem_bytes_read\": {}, ",
                "\"active_cycles\": {}, \"stall_cycles\": {}, \"idle_cycles\": {}, ",
                "\"dram_bytes\": {}, \"dram_bursts\": {}, ",
                "\"dram_contention_stall_cycles\": {}, ",
                "\"dsm_transfers\": {}, \"dsm_bytes\": {}, ",
                "\"dsm_stall_cycles\": {}, \"dsm_hop_flits\": {}, ",
                "\"total_energy_mj\": {}, \"active_power_mw\": {}, ",
                "\"energy_breakdown_uj\": {{{}}}}}"
            ),
            quote(&self.design),
            quote(&self.kernel),
            self.cycles,
            self.instructions_retired,
            self.fence_poll_instructions,
            self.fence_wait_cycles,
            self.performed_macs,
            fmt_f64(self.mac_utilization_percent),
            self.smem_bytes_read,
            stats.active_cycles,
            stats.stall_cycles,
            stats.idle_cycles,
            self.dram_stats.bytes,
            self.dram_stats.bursts,
            self.dram_contention_stall_cycles,
            self.dsm_transfers,
            self.dsm_bytes,
            self.dsm_stall_cycles,
            self.dsm_hop_flits,
            fmt_f64(self.total_energy_mj),
            fmt_f64(self.active_power_mw),
            breakdown.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use virgo::DesignKind;
    use virgo_kernels::GemmShape;
    use virgo_sweep::Query;

    #[test]
    fn digest_roundtrips_basic_quantities() {
        let report = run(&Query::new(
            DesignKind::Virgo,
            GemmShape {
                m: 128,
                n: 128,
                k: 128,
            },
        ));
        let digest = ReportDigest::of(&report);
        assert_eq!(digest.cycles, report.cycles().get());
        assert_eq!(digest.design, "Virgo");
        assert!(!digest.energy_breakdown_uj.is_empty());
        let json = digest.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cycles\""));
    }

    fn bare_digest(design: &str, total_energy_mj: f64) -> ReportDigest {
        ReportDigest {
            design: design.to_string(),
            kernel: "k".to_string(),
            mac_utilization_percent: 1.5,
            total_energy_mj,
            energy_breakdown_uj: vec![("Core".to_string(), 0.25)],
            ..ReportDigest::default()
        }
    }

    #[test]
    fn json_string_escapes_specials() {
        let json = bare_digest("a\"b\\c\nd", 1.0).to_json();
        assert!(
            json.starts_with(r#"{"design": "a\"b\\c\nd", "kernel": "k", "#),
            "{json}"
        );
    }

    #[test]
    fn json_f64_is_finite_only() {
        let json = bare_digest("Virgo", 2.0).to_json();
        assert!(
            json.contains(r#""mac_utilization_percent": 1.5, "#),
            "{json}"
        );
        assert!(json.contains(r#""total_energy_mj": 2.0, "#), "{json}");
        assert!(
            json.ends_with(r#""energy_breakdown_uj": {"Core": 0.25}}"#),
            "{json}"
        );
        let json = bare_digest("Virgo", f64::NAN).to_json();
        assert!(json.contains(r#""total_energy_mj": null, "#), "{json}");
    }
}
