//! Metric names, units and the result line.
//!
//! The two tables below must match `BENCHMARK.json` at the repository root:
//! a test checks that every entry appears there with the same unit. A traced
//! run prints every per-layer metric; one that does not apply to the
//! workload reads 0.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mcyc_per_s", "Mcyc/s"),
];

/// The crates the benchmark records spans on.
pub const TRACED_LAYERS: [&str; 5] = [
    "virgo-kernels",
    "virgo",
    "virgo-sweep",
    "virgo-store",
    "virgo-serve",
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 81] = [
    // Workload-level figures that belong to one workload each.
    ("mcyc_per_s.volta", "Mcyc/s"),
    ("mcyc_per_s.ampere", "Mcyc/s"),
    ("mcyc_per_s.hopper", "Mcyc/s"),
    ("mcyc_per_s.virgo", "Mcyc/s"),
    ("serve_p50_cycles", "cycles"),
    ("serve_p90_cycles", "cycles"),
    ("serve_goodput_rps", "req/s"),
    ("store_get_p50_ms", "ms"),
    ("store_get_p90_ms", "ms"),
    ("fig8_power_err_pp.ampere", "pp"),
    ("fig8_power_err_pp.hopper", "pp"),
    ("digest_drift", "count"),
    // virgo-simt
    ("simt.instructions_retired", "count"),
    ("simt.core_ticks_per_instr", "ratio"),
    ("simt.fence_poll_instructions", "count"),
    ("sched.events.simt", "count"),
    // virgo-tensor
    ("sched.events.tensor", "count"),
    ("tensor.macs", "count"),
    // virgo-gemmini / virgo-mem
    ("sched.events.gemmini", "count"),
    ("sched.events.dma", "count"),
    ("sched.events.dsm", "count"),
    ("gemmini.macs", "count"),
    ("mac_utilization", "%"),
    ("mem.dram_bytes", "B"),
    ("mem.dram_contention_stall_cycles", "cycles"),
    ("mem.dsm_bytes", "B"),
    ("mem.dsm_stall_cycles", "cycles"),
    // virgo-sim
    ("sched.processed_cycles", "cycles"),
    ("sched.skipped_cycles", "cycles"),
    ("sched.skip_ratio", "ratio"),
    ("sched.bailout_engagements", "count"),
    ("sim.ns_per_event.volta", "ns"),
    ("sim.ns_per_event.ampere", "ns"),
    ("sim.ns_per_event.hopper", "ns"),
    ("sim.ns_per_event.virgo", "ns"),
    // virgo driver
    ("sim.run_ms.volta", "ms"),
    ("sim.run_ms.ampere", "ms"),
    ("sim.run_ms.hopper", "ms"),
    ("sim.run_ms.virgo", "ms"),
    ("serve.overhead_ratio", "ratio"),
    // virgo key and snapshot codec
    ("key.digest_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "B"),
    // virgo-store / virgo-sweep
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.bytes_out", "B"),
    ("store.get_hits", "count"),
    ("store.protocol_errors", "count"),
    ("sweep.remote_hits", "count"),
    ("sweep.misses", "count"),
    ("sweep.store_unreachable", "count"),
    // virgo-serve
    ("serve.trace_gen_ms", "ms"),
    ("serve.completed", "count"),
    ("serve.timed_out", "count"),
    ("serve.makespan_cycles", "cycles"),
    ("serve.queue_delay_p50_cycles", "cycles"),
    ("serve.queue_delay_p90_cycles", "cycles"),
    ("serve.busy_cluster_share", "ratio"),
    // virgo-kernels
    ("kernels.build_ms", "ms"),
    // virgo-energy
    ("energy.active_power_mw.volta", "mW"),
    ("energy.active_power_mw.ampere", "mW"),
    ("energy.active_power_mw.hopper", "mW"),
    ("energy.active_power_mw.virgo", "mW"),
    ("energy.total_mj.volta", "mJ"),
    ("energy.total_mj.ampere", "mJ"),
    ("energy.total_mj.hopper", "mJ"),
    ("energy.total_mj.virgo", "mJ"),
    ("fig8_energy_err_pp.ampere", "pp"),
    ("fig8_energy_err_pp.hopper", "pp"),
    // Span self time and call count per pass, and the tracing overhead.
    ("layer.self_ms.virgo-kernels", "ms"),
    ("layer.self_ms.virgo", "ms"),
    ("layer.self_ms.virgo-sweep", "ms"),
    ("layer.self_ms.virgo-store", "ms"),
    ("layer.self_ms.virgo-serve", "ms"),
    ("layer.calls.virgo-kernels", "count"),
    ("layer.calls.virgo", "count"),
    ("layer.calls.virgo-sweep", "count"),
    ("layer.calls.virgo-store", "count"),
    ("layer.calls.virgo-serve", "count"),
    ("trace.overhead_s", "s"),
];

/// Metric values keyed by name, in table order.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// All metrics of `table`, each 0 until set.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the table or `value` is not finite:
    /// both are bugs in the benchmark, not in the measured program.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        let index = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[index] = value;
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.table
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| self.values[i])
    }

    /// `"name": {"value": v, "unit": "u"}` pairs as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, ((name, unit), value)) in self.table.iter().zip(&self.values).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// True when `name` is a valid metric name: it starts with a letter or a
    /// digit and is at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
    }

    #[test]
    fn name_validation_rejects_malformed_names() {
        assert!(valid_name("layer.self_ms.virgo-sweep"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ms/op"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn the_tables_match_benchmark_json() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(BENCHMARK_JSON.contains(&entry), "{entry} missing");
        }
        let listed = BENCHMARK_JSON.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn the_result_line_has_exactly_four_keys() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("run_s", 1.25);
        let line = result_line(true, 3, 0, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(m.get("run_s"), Some(1.25));
    }
}
