//! The bench-regression diff core behind the `bench_diff` CI gate.
//!
//! The `bench_diff` binary compares freshly produced `BENCH_*.json`
//! artifacts against a baseline snapshot of the committed copies and fails
//! CI when a gate metric regresses. The comparison itself lives here, as a
//! pure function over flattened JSON leaves, so its contract is pinned by
//! unit tests rather than only exercised end-to-end in CI. The load-bearing
//! clauses:
//!
//! * a baseline metric **missing** from the fresh artifact is a structural
//!   regression (a bench-shape change must regenerate the committed
//!   artifact in the same PR, or a silently dropped gate would pass forever),
//! * a **new gate** metric with no baseline is equally structural — it must
//!   not slip past the differ ungated,
//! * identity fields (strings, booleans, `clusters`, `dram_channels`) must
//!   not drift at all, and
//! * numeric gates regress directionally with per-metric tolerances
//!   ([`classify`]).
//!
//! Numeric leaves compare by value, so `100` and `100.0` are equal.

use std::path::Path;

use virgo_sim::json::{self, Value};

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Regression when `new > old * (1 + tol)`.
    HigherWorse(f64),
    /// Regression when `new < old * (1 - tol)`.
    LowerWorse(f64),
    /// Identity field: any change is a structural failure.
    Exact,
    /// Informational only.
    Info,
}

/// Classifies a metric by the last segment of its dotted path.
pub fn classify(path: &str, value: &Value) -> Rule {
    let key = path
        .rsplit('.')
        .next()
        .unwrap_or(path)
        .trim_end_matches(|c: char| c == ']' || c.is_ascii_digit() || c == '[');
    match value {
        Value::Str(_) | Value::Bool(_) | Value::Null => {
            // Identity/shape fields (design names, workload labels, the
            // dsm on/off flag, bit_identical) must not drift.
            Rule::Exact
        }
        Value::Num(_) => match key {
            "cycles"
            | "simulated_cycles"
            | "dram_contention_stall_cycles"
            | "dram_stall_cycles"
            | "dram_bytes"
            | "dram_bursts"
            | "dsm_bytes"
            | "dsm_stall_cycles"
            | "dsm_hop_flits"
            | "energy_mj"
            | "energy_per_mac_pj"
            | "total_energy_mj"
            | "fence_wait_cycles"
            | "cycle_overhead_ratio"
            | "degraded_cycles"
            | "dsm_blocked_cycles"
            | "recovery_cycles" => Rule::HigherWorse(0.001),
            // Load-imbalance spreads (max/mean over clusters, 1.0 = perfectly
            // balanced) and the per-link hotspot view: a growing spread or a
            // hotter single link means the partitioning regressed toward
            // all-to-one, even when total cycles still pass.
            "active_spread" | "dsm_ingress_spread" | "dsm_link_max_util_percent" => {
                Rule::HigherWorse(0.001)
            }
            // Mean link utilization dropping means the fabric's aggregate
            // ingress bandwidth is going idle while the same bytes move.
            "dsm_link_mean_util_percent" => Rule::LowerWorse(0.001),
            // Fast-forward horizon attribution: more scheduled events (or
            // fewer skipped cycles) means some component's horizon regressed
            // toward `now`-pinning. The counts are deterministic for a given
            // simulator version, so the tolerance only absorbs rounding.
            "processed_cycles"
            | "simt_events"
            | "gemmini_events"
            | "tensor_events"
            | "dma_events"
            | "dsm_events"
            | "bailout_engagements" => Rule::HigherWorse(0.001),
            // Serving-simulator gates (`BENCH_serve.json`): tail latency and
            // energy-per-request regress upward, goodput regresses downward.
            // The serving pipeline is deterministic end-to-end (seeded trace,
            // deterministic scheduler), so the tolerance only absorbs
            // float formatting.
            "p50_latency_cycles"
            | "p99_latency_cycles"
            | "p999_latency_cycles"
            | "energy_per_request_mj"
            | "makespan_cycles"
            | "timed_out" => Rule::HigherWorse(0.001),
            "goodput_rps" | "completed" => Rule::LowerWorse(0.001),
            // Shared report store gates (`BENCH_sweep.json`): the warmed
            // remote pass must keep answering everything (hit rate 1.0,
            // zero misses) and must never fail to reach its own in-process
            // server. The absolute hit *count* is grid-size-dependent
            // (CI shrinks the grid via VIRGO_GEMM_SIZES) and stays
            // informational; only the invariants are ratcheted.
            "remote_misses" | "warm_unreachable" => Rule::HigherWorse(0.001),
            "remote_hit_rate" => Rule::LowerWorse(0.001),
            "mac_utilization_percent"
            | "performed_macs"
            | "dram_bytes_saved"
            | "skipped_cycles" => Rule::LowerWorse(0.001),
            "speedup" => Rule::LowerWorse(0.40),
            "clusters" | "dram_channels" | "faults_injected" | "rerouted_transfers"
            | "restriped_accesses" => Rule::Exact,
            _ => Rule::Info,
        },
        _ => Rule::Info,
    }
}

/// Renders a JSON leaf for the diff table.
pub fn fmt_value(v: &Value) -> String {
    if let Ok(n) = v.as_f64() {
        return if n.fract() == 0.0 && n.abs() < 1e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        };
    }
    match v {
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".to_string(),
        other => format!("{other:?}"),
    }
}

/// Leaf equality for identity fields: numbers by value, the rest exactly.
fn same_leaf(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Ok(x), Ok(y)) => x == y,
        _ => a == b,
    }
}

/// Flattens a document into `(dotted.path, leaf)` pairs in document order:
/// object keys join with `.`, array elements with `[index]`.
pub fn flatten(value: &Value) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    walk(value, String::new(), &mut out);
    out
}

fn walk(value: &Value, path: String, out: &mut Vec<(String, Value)>) {
    match value {
        Value::Object(fields) => {
            for (key, v) in fields {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(v, child, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                walk(v, format!("{path}[{i}]"), out);
            }
        }
        leaf => out.push((path, leaf.clone())),
    }
}

/// One line of the diff report.
#[derive(Debug)]
pub struct Row {
    /// Verdict tag (`ok`, `info`, `REGRESSION`, `MISSING`, ...).
    pub status: &'static str,
    /// `artifact:dotted.metric.path`.
    pub path: String,
    /// Baseline value.
    pub old: String,
    /// Fresh value.
    pub new: String,
    /// Human-readable delta / explanation.
    pub delta: String,
}

/// Diffs two flattened artifacts; returns the number of regressions.
///
/// `name` labels the rows (normally the artifact file name). This is the
/// pure core of [`diff_file`], split out so the missing-metric and
/// new-gate contracts are unit-testable without touching the filesystem.
pub fn diff_leaves(
    name: &str,
    old_leaves: &[(String, Value)],
    new_leaves: &[(String, Value)],
    rows: &mut Vec<Row>,
) -> u32 {
    let lookup: std::collections::HashMap<&str, &Value> = new_leaves
        .iter()
        .map(|(path, v)| (path.as_str(), v))
        .collect();

    let mut regressions = 0;
    for (path, old) in old_leaves {
        let label = format!("{name}:{path}");
        let Some(new) = lookup.get(path.as_str()) else {
            rows.push(Row {
                status: "MISSING",
                path: label,
                old: fmt_value(old),
                new: "-".to_string(),
                delta: "metric vanished — regenerate the committed artifact".to_string(),
            });
            regressions += 1;
            continue;
        };
        let rule = classify(path, old);
        match (rule, old.as_f64(), new.as_f64()) {
            (Rule::Exact, _, _) if !same_leaf(old, new) => {
                rows.push(Row {
                    status: "CHANGED",
                    path: label,
                    old: fmt_value(old),
                    new: fmt_value(new),
                    delta: "identity field drifted".to_string(),
                });
                regressions += 1;
            }
            (Rule::Exact, _, _) => {}
            (rule, Ok(a), Ok(b)) => {
                let delta_pct = if a == 0.0 {
                    if b == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (b - a) / a.abs() * 100.0
                };
                let (worse, tol) = match rule {
                    Rule::HigherWorse(tol) => (b > a && (b - a) > a.abs() * tol, tol),
                    Rule::LowerWorse(tol) => (b < a && (a - b) > a.abs() * tol, tol),
                    _ => (false, 0.0),
                };
                let status = if matches!(rule, Rule::Info) {
                    if delta_pct == 0.0 {
                        continue; // unchanged informational metrics stay quiet
                    }
                    "info"
                } else if worse {
                    regressions += 1;
                    "REGRESSION"
                } else if delta_pct == 0.0 {
                    continue; // unchanged gate metrics stay quiet
                } else {
                    "ok"
                };
                rows.push(Row {
                    status,
                    path: label,
                    old: fmt_value(old),
                    new: fmt_value(new),
                    delta: if worse {
                        format!("{delta_pct:+.2}% (tolerance {:.1}%)", tol * 100.0)
                    } else {
                        format!("{delta_pct:+.2}%")
                    },
                });
            }
            _ => {
                // A gate metric that changed JSON *type* (number -> string,
                // null, ...) is a malformed artifact, not a pass.
                rows.push(Row {
                    status: "TYPE",
                    path: label,
                    old: fmt_value(old),
                    new: fmt_value(new),
                    delta: "metric changed JSON type — regenerate the committed artifact"
                        .to_string(),
                });
                regressions += 1;
            }
        }
    }

    // The reverse direction: a fresh leaf with no baseline counterpart. A
    // new *gate* metric must not slip past the differ ungated — the PR that
    // adds it has to regenerate the committed artifact; purely informational
    // additions are just reported.
    let known: std::collections::HashSet<&str> =
        old_leaves.iter().map(|(path, _)| path.as_str()).collect();
    for (path, new) in new_leaves {
        if known.contains(path.as_str()) {
            continue;
        }
        let gated = !matches!(classify(path, new), Rule::Info);
        rows.push(Row {
            status: if gated { "NEW" } else { "info" },
            path: format!("{name}:{path}"),
            old: "-".to_string(),
            new: fmt_value(new),
            delta: if gated {
                "new gate metric has no baseline — regenerate the committed artifact".to_string()
            } else {
                "new informational metric".to_string()
            },
        });
        if gated {
            regressions += 1;
        }
    }
    regressions
}

/// Diffs one bench artifact on disk; returns the number of regressions.
pub fn diff_file(name: &str, baseline: &Path, current: &Path, rows: &mut Vec<Row>) -> u32 {
    let read_doc = |path: &Path| -> Result<Vec<(String, Value)>, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        Ok(flatten(
            &json::parse(&text).map_err(|e| format!("cannot parse {path:?}: {e}"))?,
        ))
    };
    let (old_leaves, new_leaves) = match (read_doc(baseline), read_doc(current)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            rows.push(Row {
                status: "ERROR",
                path: name.to_string(),
                old: String::new(),
                new: String::new(),
                delta: e,
            });
            return 1;
        }
    };
    diff_leaves(name, &old_leaves, &new_leaves, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(text: &str) -> Vec<(String, Value)> {
        flatten(&json::parse(text).expect("test JSON parses"))
    }

    fn number(raw: &str) -> Value {
        Value::Num(raw.to_string())
    }

    fn diff(old: &str, new: &str) -> (u32, Vec<Row>) {
        let mut rows = Vec::new();
        let n = diff_leaves("t.json", &leaves(old), &leaves(new), &mut rows);
        (n, rows)
    }

    #[test]
    fn flatten_produces_dotted_paths() {
        let leaves = leaves(r#"{"a": {"b": [1, {"c": 2}]}, "d": "x"}"#);
        assert_eq!(
            leaves,
            vec![
                ("a.b[0]".to_string(), number("1")),
                ("a.b[1].c".to_string(), number("2")),
                ("d".to_string(), Value::Str("x".to_string())),
            ]
        );
    }

    #[test]
    fn identical_artifacts_produce_no_rows() {
        let doc = r#"{"cycles": 100, "design": "Virgo", "elapsed_ms": 5}"#;
        let (regressions, rows) = diff(doc, doc);
        assert_eq!(regressions, 0);
        assert!(rows.is_empty(), "unchanged metrics must stay quiet");
    }

    #[test]
    fn missing_baseline_metric_is_a_regression() {
        // The load-bearing clause: a gate metric present in the committed
        // baseline but absent from the fresh run must fail the diff, even
        // when every surviving metric is bit-identical.
        let (regressions, rows) = diff(
            r#"{"cycles": 100, "performed_macs": 4096}"#,
            r#"{"cycles": 100}"#,
        );
        assert_eq!(regressions, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].status, "MISSING");
        assert!(rows[0].path.contains("performed_macs"));
        assert!(rows[0].delta.contains("regenerate"));
    }

    #[test]
    fn missing_informational_metric_still_fails() {
        // Even an Info-classified leaf vanishing is structural: the shape
        // of the artifact changed without regenerating the baseline.
        let (regressions, rows) = diff(r#"{"cycles": 100, "elapsed_ms": 7}"#, r#"{"cycles": 100}"#);
        assert_eq!(regressions, 1);
        assert_eq!(rows[0].status, "MISSING");
    }

    #[test]
    fn new_gate_metric_without_baseline_is_a_regression() {
        let (regressions, rows) = diff(
            r#"{"cycles": 100}"#,
            r#"{"cycles": 100, "degraded_cycles": 50}"#,
        );
        assert_eq!(regressions, 1);
        assert_eq!(rows[0].status, "NEW");
    }

    #[test]
    fn new_informational_metric_is_reported_not_gated() {
        let (regressions, rows) =
            diff(r#"{"cycles": 100}"#, r#"{"cycles": 100, "elapsed_ms": 12}"#);
        assert_eq!(regressions, 0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].status, "info");
    }

    #[test]
    fn directional_tolerances_gate_numeric_drift() {
        // cycles: higher is worse, 0.1% tolerance.
        let (r, rows) = diff(r#"{"cycles": 1000}"#, r#"{"cycles": 1002}"#);
        assert_eq!(r, 1);
        assert_eq!(rows[0].status, "REGRESSION");
        // ...but an improvement passes.
        let (r, rows) = diff(r#"{"cycles": 1000}"#, r#"{"cycles": 900}"#);
        assert_eq!(r, 0);
        assert_eq!(rows[0].status, "ok");
        // performed_macs: lower is worse.
        let (r, _) = diff(r#"{"performed_macs": 1000}"#, r#"{"performed_macs": 900}"#);
        assert_eq!(r, 1);
    }

    #[test]
    fn identity_fields_must_not_drift() {
        let (r, rows) = diff(r#"{"design": "Virgo"}"#, r#"{"design": "Ampere"}"#);
        assert_eq!(r, 1);
        assert_eq!(rows[0].status, "CHANGED");
        let (r, rows) = diff(r#"{"clusters": 8}"#, r#"{"clusters": 4}"#);
        assert_eq!(r, 1);
        assert_eq!(rows[0].status, "CHANGED");
    }

    #[test]
    fn type_change_on_a_gate_metric_fails() {
        let (r, rows) = diff(r#"{"cycles": 100}"#, r#"{"cycles": "fast"}"#);
        assert_eq!(r, 1);
        assert_eq!(rows[0].status, "TYPE");
    }

    #[test]
    fn horizon_attribution_metrics_are_gated() {
        // The fastforward artifact's scheduler counters must be gated, not
        // ungated-new: an event-count increase or a skipped-cycle decrease is
        // a horizon regression even when wall-clock speedup still passes.
        let num = number("100.0");
        for key in [
            "processed_cycles",
            "simt_events",
            "gemmini_events",
            "tensor_events",
            "dma_events",
            "dsm_events",
            "bailout_engagements",
        ] {
            assert_eq!(
                classify(&format!("comparisons[1].{key}"), &num),
                Rule::HigherWorse(0.001),
                "{key}"
            );
        }
        assert_eq!(
            classify("comparisons[1].skipped_cycles", &num),
            Rule::LowerWorse(0.001)
        );
        // Host times, minima and medians alike, are informational: only the
        // min-based `speedup` is gated.
        for key in [
            "naive_ms",
            "fastforward_ms",
            "naive_median_ms",
            "fastforward_median_ms",
        ] {
            assert_eq!(
                classify(&format!("comparisons[2].{key}"), &num),
                Rule::Info,
                "{key}"
            );
        }
        // More events than baseline fails; fewer passes.
        let (r, rows) = diff(r#"{"simt_events": 500}"#, r#"{"simt_events": 600}"#);
        assert_eq!(r, 1);
        assert_eq!(rows[0].status, "REGRESSION");
        let (r, _) = diff(r#"{"simt_events": 500}"#, r#"{"simt_events": 400}"#);
        assert_eq!(r, 0);
        // A bailout appearing where the baseline had none is a regression
        // even from zero (the relative-tolerance guard must not mask it).
        let (r, _) = diff(
            r#"{"bailout_engagements": 0}"#,
            r#"{"bailout_engagements": 1}"#,
        );
        assert_eq!(r, 1);
        // Skipped cycles shrinking means the driver is jumping less.
        let (r, _) = diff(r#"{"skipped_cycles": 9000}"#, r#"{"skipped_cycles": 7000}"#);
        assert_eq!(r, 1);
    }

    #[test]
    fn serving_scheduler_counters_are_gated() {
        // BENCH_serve.json's per-arm scheduler sums: the session processing
        // more cycles, or jumping fewer, means the job table's time advance
        // regressed even when every simulated latency is unchanged.
        let num = number("1000.0");
        assert_eq!(
            classify("sweep[0].continuous_fifo.processed_cycles", &num),
            Rule::HigherWorse(0.001)
        );
        assert_eq!(
            classify("faulted.skipped_cycles", &num),
            Rule::LowerWorse(0.001)
        );
        let old =
            r#"{"sweep": [{"serial_fifo": {"processed_cycles": 800, "skipped_cycles": 9000}}]}"#;
        let (r, _) = diff(
            old,
            r#"{"sweep": [{"serial_fifo": {"processed_cycles": 900, "skipped_cycles": 9000}}]}"#,
        );
        assert_eq!(r, 1);
        let (r, _) = diff(
            old,
            r#"{"sweep": [{"serial_fifo": {"processed_cycles": 800, "skipped_cycles": 8000}}]}"#,
        );
        assert_eq!(r, 1);
        let (r, _) = diff(
            old,
            r#"{"sweep": [{"serial_fifo": {"processed_cycles": 700, "skipped_cycles": 9100}}]}"#,
        );
        assert_eq!(r, 0);
    }

    #[test]
    fn imbalance_and_link_utilization_metrics_are_gated() {
        // The dsm_scaling artifact's load-imbalance and per-link hotspot
        // metrics must be ratcheted, not informational: a spread creeping
        // back up (or a single link re-hotspotting) is the exact regression
        // the rotated reduction exists to prevent.
        let num = number("1.0");
        for key in [
            "active_spread",
            "dsm_ingress_spread",
            "dsm_link_max_util_percent",
        ] {
            assert_eq!(
                classify(&format!("points[3].{key}"), &num),
                Rule::HigherWorse(0.001),
                "{key}"
            );
        }
        assert_eq!(
            classify("points[3].dsm_link_mean_util_percent", &num),
            Rule::LowerWorse(0.001)
        );
        // A spread growing from the balanced baseline fails...
        let (r, rows) = diff(
            r#"{"dsm_ingress_spread": 1.05}"#,
            r#"{"dsm_ingress_spread": 2.4}"#,
        );
        assert_eq!(r, 1);
        assert_eq!(rows[0].status, "REGRESSION");
        // ...shrinking toward 1.0 passes.
        let (r, _) = diff(
            r#"{"dsm_ingress_spread": 2.4}"#,
            r#"{"dsm_ingress_spread": 1.05}"#,
        );
        assert_eq!(r, 0);
        // Mean link utilization is lower-worse; the max is higher-worse.
        let (r, _) = diff(
            r#"{"dsm_link_mean_util_percent": 40.0}"#,
            r#"{"dsm_link_mean_util_percent": 20.0}"#,
        );
        assert_eq!(r, 1);
        let (r, _) = diff(
            r#"{"dsm_link_max_util_percent": 45.0}"#,
            r#"{"dsm_link_max_util_percent": 90.0}"#,
        );
        assert_eq!(r, 1);
    }

    #[test]
    fn fault_gate_metrics_are_classified() {
        // The fault_resilience artifact's headline gate and its identity
        // counters must be gated, not informational.
        let num = number("1.5");
        assert_eq!(
            classify("link_kill.cycle_overhead_ratio", &num),
            Rule::HigherWorse(0.001)
        );
        assert_eq!(
            classify("link_kill.degraded_cycles", &num),
            Rule::HigherWorse(0.001)
        );
        assert_eq!(classify("link_kill.faults_injected", &num), Rule::Exact);
        assert_eq!(classify("link_kill.rerouted_transfers", &num), Rule::Exact);
        assert_eq!(classify("link_kill.elapsed_ms", &num), Rule::Info);
    }

    #[test]
    fn store_gate_metrics_are_classified() {
        // The shared-store section of BENCH_sweep.json: invariants are
        // gated, grid-size-dependent counts and latencies stay Info so a
        // smoke-sized CI grid can diff against the full committed artifact.
        let num = number("0.0");
        for key in ["remote_misses", "warm_unreachable"] {
            assert_eq!(
                classify(&format!("store.{key}"), &num),
                Rule::HigherWorse(0.001),
                "{key}"
            );
        }
        assert_eq!(
            classify("store.remote_hit_rate", &number("1.0")),
            Rule::LowerWorse(0.001)
        );
        assert_eq!(
            classify("store.degraded_completed", &Value::Bool(true)),
            Rule::Exact
        );
        for key in ["remote_hits", "warm_seconds", "degraded_unreachable"] {
            assert_eq!(classify(&format!("store.{key}"), &num), Rule::Info, "{key}");
        }
        // A store miss appearing where the baseline had none fails even
        // from zero; an unreachable warm-phase op likewise.
        let (r, _) = diff(r#"{"remote_misses": 0}"#, r#"{"remote_misses": 1}"#);
        assert_eq!(r, 1);
        let (r, _) = diff(r#"{"warm_unreachable": 0}"#, r#"{"warm_unreachable": 2}"#);
        assert_eq!(r, 1);
        // The hit rate dropping below 1.0 fails.
        let (r, rows) = diff(r#"{"remote_hit_rate": 1.0}"#, r#"{"remote_hit_rate": 0.9}"#);
        assert_eq!(r, 1);
        assert_eq!(rows[0].status, "REGRESSION");
        // The degraded pass flipping to incomplete is an identity failure.
        let (r, _) = diff(
            r#"{"degraded_completed": true}"#,
            r#"{"degraded_completed": false}"#,
        );
        assert_eq!(r, 1);
    }

    #[test]
    fn serving_gate_metrics_are_classified() {
        // The serving artifact's tail-latency/goodput/energy gates must be
        // ratcheted in the right direction, not informational.
        let num = number("10000.0");
        for key in [
            "p50_latency_cycles",
            "p99_latency_cycles",
            "p999_latency_cycles",
            "energy_per_request_mj",
            "makespan_cycles",
            "timed_out",
        ] {
            assert_eq!(
                classify(&format!("sweep[2].continuous_fifo.{key}"), &num),
                Rule::HigherWorse(0.001),
                "{key}"
            );
        }
        for key in ["goodput_rps", "completed"] {
            assert_eq!(
                classify(&format!("sweep[2].continuous_fifo.{key}"), &num),
                Rule::LowerWorse(0.001),
                "{key}"
            );
        }
        // Tail latency creeping up fails; dropping passes.
        let (r, rows) = diff(
            r#"{"p99_latency_cycles": 50000}"#,
            r#"{"p99_latency_cycles": 60000}"#,
        );
        assert_eq!(r, 1);
        assert_eq!(rows[0].status, "REGRESSION");
        let (r, _) = diff(
            r#"{"p99_latency_cycles": 50000}"#,
            r#"{"p99_latency_cycles": 40000}"#,
        );
        assert_eq!(r, 0);
        // Goodput shrinking fails; a request newly timing out fails even
        // from a zero baseline (relative tolerance must not mask it).
        let (r, _) = diff(r#"{"goodput_rps": 900.0}"#, r#"{"goodput_rps": 800.0}"#);
        assert_eq!(r, 1);
        let (r, _) = diff(r#"{"timed_out": 0}"#, r#"{"timed_out": 1}"#);
        assert_eq!(r, 1);
    }
}
