//! Serialization of finished [`SimReport`]s for the sweep engine's on-disk
//! report cache.
//!
//! A cache entry is a plain JSON document with a small envelope:
//!
//! ```json
//! {"format":"virgo-simreport","version":1,"key":"<32-hex SimKey>",
//!  "checksum":"<16-hex>","payload":{...}}
//! ```
//!
//! The payload captures **every** field of the report, so a rehydrated
//! report is *bit-identical* to the one that was simulated: integer counters
//! round-trip trivially and floating-point values are written with Rust's
//! shortest-round-trip `{:?}` formatting, which `str::parse::<f64>` decodes
//! back to the exact same bits. The checksum is the stable hash of the
//! canonical payload text; any corruption of the file fails parsing, the key
//! check or the checksum and surfaces as a [`SnapshotError`] — the cache
//! treats that as a miss and re-simulates, never as a panic.
//!
//! The JSON itself goes through [`virgo_sim::json`]: its compact
//! [`ObjWriter`] writes the payload, and its parser keeps every number's raw
//! text, so re-rendering the parsed payload reproduces the written bytes and
//! the checksum can be verified. This module holds only the envelope and the
//! per-struct codecs.

use std::fmt;

use virgo_energy::{AreaReport, Component, MatrixSubcomponent, PowerReport};
use virgo_mem::{
    ChannelContentionStats, ClusterContentionStats, ClusterDsmStats, DmaStats, DramStats,
    DsmFabricStats, DsmLinkStats, GlobalMemoryStats, SmemStats,
};
use virgo_sim::json::{self, ObjWriter, Value};
use virgo_sim::{ClusterFaultStats, Cycle, FaultStats, Frequency, StableHasher};
use virgo_simt::CoreStats;

use crate::cluster::ClusterStats;
use crate::config::DesignKind;
use crate::report::{ClusterReport, SchedStats, SimReport};

/// Why a cache entry could not be rehydrated. The sweep cache treats every
/// variant as a miss (the entry is re-simulated and rewritten).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(String);

impl SnapshotError {
    fn new(msg: impl Into<String>) -> Self {
        SnapshotError(msg.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid report snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

type Result<T> = std::result::Result<T, SnapshotError>;

const FORMAT: &str = "virgo-simreport";
// v2: multi-channel DRAM — the payload gained `dram_channel_stats` and the
// per-cluster contention objects gained a `per_channel` breakdown; v1
// entries (pre-channel timing model) must miss cleanly.
// v3: inter-cluster DSM — the payload gained `dsm_stats` / `dsm_link_stats`
// and the per-cluster slices a `dsm` breakdown; v2 entries (pre-DSM model)
// must miss cleanly.
// v4: fault injection — the payload gained `fault` and the per-cluster
// slices a `fault` breakdown; v3 entries (pre-fault model) must miss
// cleanly.
// v5: event-driven scheduler — the payload gained `sched` (driver event
// attribution); v4 entries (pre-scheduler) must miss cleanly.
// v6: multi-job residency — the per-cluster `contention` objects gained
// `l2_misses` and `dma_bytes`; v5 entries must miss cleanly.
const VERSION: u64 = 6;

impl From<json::Error> for SnapshotError {
    fn from(e: json::Error) -> Self {
        SnapshotError(e.to_string())
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64> {
    Ok(v.get(key)?.as_u64()?)
}

fn read_array<T>(v: &Value, key: &str, read: fn(&Value) -> Result<T>) -> Result<Vec<T>> {
    v.get(key)?.as_array()?.iter().map(read).collect()
}

fn write_array<T>(items: &[T], write: fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(write).collect();
    format!("[{}]", items.join(","))
}

/// Every float in a report is finite; a non-finite one is a simulator bug,
/// so refuse to write it rather than emit a payload that cannot round-trip.
fn finite(value: f64) -> f64 {
    assert!(value.is_finite(), "reports never contain non-finite floats");
    value
}

// ---------------------------------------------------------------------------
// Per-struct (de)serializers. The flat all-`u64` stats structs are handled
// by one macro; everything else is written out by hand.
// ---------------------------------------------------------------------------

macro_rules! u64_stats_codec {
    ($ty:ident, $write:ident, $read:ident, [$($field:ident),+ $(,)?]) => {
        fn $write(s: &$ty) -> String {
            let mut w = ObjWriter::new();
            $(w.u64(stringify!($field), s.$field);)+
            w.finish()
        }

        fn $read(v: &Value) -> Result<$ty> {
            Ok($ty {
                $($field: get_u64(v, stringify!($field))?,)+
            })
        }
    };
}

u64_stats_codec!(
    CoreStats,
    write_core_stats,
    read_core_stats,
    [
        instrs_issued,
        rf_reads,
        rf_writes,
        alu_lane_ops,
        fpu_lane_ops,
        lsu_lane_ops,
        writebacks,
        icache_accesses,
        hmma_steps,
        wgmma_ops,
        mmio_writes,
        fence_poll_instrs,
        fence_wait_cycles,
        barrier_arrivals,
        active_cycles,
        stall_cycles,
        idle_cycles,
        total_cycles,
    ]
);

u64_stats_codec!(
    SmemStats,
    write_smem_stats,
    read_smem_stats,
    [
        words_read,
        words_written,
        bytes_read,
        bytes_written,
        simt_accesses,
        wide_accesses,
        conflict_cycles,
        unaligned_serialized,
    ]
);

u64_stats_codec!(
    GlobalMemoryStats,
    write_gmem_stats,
    read_gmem_stats,
    [l1_accesses, l1_misses, l2_accesses, l2_misses, dma_bytes,]
);

u64_stats_codec!(
    DramStats,
    write_dram_stats,
    read_dram_stats,
    [reads, writes, bytes, bursts,]
);

u64_stats_codec!(
    DmaStats,
    write_dma_stats,
    read_dma_stats,
    [transfers, bytes_moved, beats, busy_cycles,]
);

u64_stats_codec!(
    ClusterStats,
    write_cluster_stats,
    read_cluster_stats,
    [
        mmio_writes,
        mmio_rejects,
        async_ops_launched,
        async_ops_completed,
    ]
);

u64_stats_codec!(
    ChannelContentionStats,
    write_channel_contention,
    read_channel_contention,
    [requests, stall_cycles,]
);

u64_stats_codec!(
    DsmLinkStats,
    write_dsm_link,
    read_dsm_link,
    [requests, bytes, stall_cycles,]
);

u64_stats_codec!(
    DsmFabricStats,
    write_dsm_fabric,
    read_dsm_fabric,
    [transfers, bytes, hop_flits, stall_cycles,]
);

u64_stats_codec!(
    FaultStats,
    write_fault_stats,
    read_fault_stats,
    [
        injected,
        detected,
        corrected,
        degraded_cycles,
        dsm_rerouted_transfers,
        dsm_blocked_cycles,
        dram_restriped_accesses,
        recovery_cycles,
    ]
);

u64_stats_codec!(
    ClusterFaultStats,
    write_cluster_fault,
    read_cluster_fault,
    [injected, detected, corrected, degraded_cycles,]
);

u64_stats_codec!(
    SchedStats,
    write_sched_stats,
    read_sched_stats,
    [
        processed_cycles,
        skipped_cycles,
        simt_events,
        gemmini_events,
        tensor_events,
        dma_events,
        dsm_events,
        bailout_engagements,
    ]
);

// `ClusterContentionStats` carries a per-channel array, so it cannot use the
// flat-`u64` macro.
fn write_contention(s: &ClusterContentionStats) -> String {
    let mut w = ObjWriter::new();
    w.u64("l2_accesses", s.l2_accesses)
        .u64("l2_misses", s.l2_misses)
        .u64("dma_bytes", s.dma_bytes)
        .u64("dram_requests", s.dram_requests)
        .u64("dram_bytes", s.dram_bytes)
        .u64("dram_stall_cycles", s.dram_stall_cycles)
        .raw(
            "per_channel",
            &write_array(&s.per_channel, write_channel_contention),
        );
    w.finish()
}

fn read_contention(v: &Value) -> Result<ClusterContentionStats> {
    Ok(ClusterContentionStats {
        l2_accesses: get_u64(v, "l2_accesses")?,
        l2_misses: get_u64(v, "l2_misses")?,
        dma_bytes: get_u64(v, "dma_bytes")?,
        dram_requests: get_u64(v, "dram_requests")?,
        dram_bytes: get_u64(v, "dram_bytes")?,
        dram_stall_cycles: get_u64(v, "dram_stall_cycles")?,
        per_channel: read_array(v, "per_channel", read_channel_contention)?,
    })
}

// `ClusterDsmStats` carries a per-link array, so it cannot use the
// flat-`u64` macro either.
fn write_cluster_dsm(s: &ClusterDsmStats) -> String {
    let mut w = ObjWriter::new();
    w.u64("requests", s.requests)
        .u64("bytes", s.bytes)
        .u64("stall_cycles", s.stall_cycles)
        .u64("hop_flits", s.hop_flits)
        .raw("per_link", &write_array(&s.per_link, write_dsm_link));
    w.finish()
}

fn read_cluster_dsm(v: &Value) -> Result<ClusterDsmStats> {
    Ok(ClusterDsmStats {
        requests: get_u64(v, "requests")?,
        bytes: get_u64(v, "bytes")?,
        stall_cycles: get_u64(v, "stall_cycles")?,
        hop_flits: get_u64(v, "hop_flits")?,
        per_link: read_array(v, "per_link", read_dsm_link)?,
    })
}

fn write_opt_dma(stats: &Option<DmaStats>) -> String {
    match stats {
        Some(s) => write_dma_stats(s),
        None => "null".to_string(),
    }
}

fn read_opt_dma(v: &Value) -> Result<Option<DmaStats>> {
    match v {
        Value::Null => Ok(None),
        other => Ok(Some(read_dma_stats(other)?)),
    }
}

/// Serializes an enum-keyed `(E, f64)` breakdown as an ordered object of
/// `{"VariantDebugName": value}` pairs.
fn write_breakdown<E: fmt::Debug + Copy>(entries: &[(E, f64)]) -> String {
    let mut w = ObjWriter::new();
    for (e, value) in entries {
        w.f64(&format!("{e:?}"), finite(*value));
    }
    w.finish()
}

fn read_breakdown<E: fmt::Debug + Copy>(v: &Value, variants: &[E]) -> Result<Vec<(E, f64)>> {
    v.as_object()?
        .iter()
        .map(|(name, value)| {
            let e = variants
                .iter()
                .find(|e| format!("{e:?}") == *name)
                .ok_or_else(|| SnapshotError::new(format!("unknown component {name:?}")))?;
            Ok((*e, value.as_f64()?))
        })
        .collect()
}

fn write_cluster_report(c: &ClusterReport) -> String {
    let mut w = ObjWriter::new();
    w.u64("cluster", u64::from(c.cluster))
        .raw("core_stats", &write_core_stats(&c.core_stats))
        .raw("smem_stats", &write_smem_stats(&c.smem_stats))
        .raw("gmem_stats", &write_gmem_stats(&c.gmem_stats))
        .raw("dma_stats", &write_opt_dma(&c.dma_stats))
        .raw("cluster_stats", &write_cluster_stats(&c.cluster_stats))
        .raw("contention", &write_contention(&c.contention))
        .raw("dsm", &write_cluster_dsm(&c.dsm))
        .u64("performed_macs", c.performed_macs)
        .f64("energy_mj", finite(c.energy_mj))
        .raw("fault", &write_cluster_fault(&c.fault));
    w.finish()
}

fn read_cluster_report(v: &Value) -> Result<ClusterReport> {
    Ok(ClusterReport {
        cluster: u32::try_from(get_u64(v, "cluster")?)
            .map_err(|_| SnapshotError::new("cluster index overflows u32"))?,
        core_stats: read_core_stats(v.get("core_stats")?)?,
        smem_stats: read_smem_stats(v.get("smem_stats")?)?,
        gmem_stats: read_gmem_stats(v.get("gmem_stats")?)?,
        dma_stats: read_opt_dma(v.get("dma_stats")?)?,
        cluster_stats: read_cluster_stats(v.get("cluster_stats")?)?,
        contention: read_contention(v.get("contention")?)?,
        dsm: read_cluster_dsm(v.get("dsm")?)?,
        performed_macs: get_u64(v, "performed_macs")?,
        energy_mj: v.get("energy_mj")?.as_f64()?,
        fault: read_cluster_fault(v.get("fault")?)?,
    })
}

fn write_power(p: &PowerReport) -> String {
    let mut w = ObjWriter::new();
    w.u64("cycles", p.cycles().get())
        .u64("frequency_hz", p.frequency().as_hz())
        .raw("components", &write_breakdown(p.energy_breakdown_uj()))
        .raw("matrix", &write_breakdown(p.matrix_energy_breakdown_uj()));
    w.finish()
}

fn read_power(v: &Value) -> Result<PowerReport> {
    Ok(PowerReport::from_parts(
        Cycle::new(get_u64(v, "cycles")?),
        read_frequency(v, "frequency_hz")?,
        read_breakdown(v.get("components")?, &Component::all())?,
        read_breakdown(v.get("matrix")?, &MatrixSubcomponent::all())?,
    ))
}

fn read_frequency(v: &Value, key: &str) -> Result<Frequency> {
    let hz = get_u64(v, key)?;
    if hz == 0 {
        return Err(SnapshotError::new("zero clock frequency"));
    }
    Ok(Frequency::from_hz(hz))
}

// ---------------------------------------------------------------------------
// The public entry points.
// ---------------------------------------------------------------------------

fn write_payload(report: &SimReport) -> String {
    let mut w = ObjWriter::new();
    w.str("design", report.design.name())
        .str("kernel_name", &report.kernel_name)
        .u64("cycles", report.cycles.get())
        .u64("frequency_hz", report.frequency.as_hz())
        .u64("kernel_macs", report.kernel_macs)
        .u64("performed_macs", report.performed_macs)
        .u64("peak_macs_per_cycle", report.peak_macs_per_cycle)
        .raw("core_stats", &write_core_stats(&report.core_stats))
        .raw("smem_stats", &write_smem_stats(&report.smem_stats))
        .raw("gmem_stats", &write_gmem_stats(&report.gmem_stats))
        .raw("dram_stats", &write_dram_stats(&report.dram_stats))
        .raw(
            "dram_channel_stats",
            &write_array(&report.dram_channel_stats, write_dram_stats),
        )
        .raw("dma_stats", &write_opt_dma(&report.dma_stats))
        .raw("cluster_stats", &write_cluster_stats(&report.cluster_stats))
        .raw(
            "per_cluster",
            &write_array(&report.per_cluster, write_cluster_report),
        )
        .u64(
            "dram_contention_stall_cycles",
            report.dram_contention_stall_cycles,
        )
        .raw("dsm_stats", &write_dsm_fabric(&report.dsm_stats))
        .raw(
            "dsm_link_stats",
            &write_array(&report.dsm_link_stats, write_dsm_link),
        )
        .raw("fault", &write_fault_stats(&report.fault))
        .raw("sched", &write_sched_stats(&report.sched))
        .raw("power", &write_power(&report.power))
        .raw("area", &write_breakdown(report.area.breakdown()));
    w.finish()
}

fn read_payload(v: &Value) -> Result<SimReport> {
    let design: DesignKind = v
        .get("design")?
        .as_str()?
        .parse()
        .map_err(SnapshotError::new)?;
    Ok(SimReport {
        design,
        kernel_name: v.get("kernel_name")?.as_str()?.to_string(),
        cycles: Cycle::new(get_u64(v, "cycles")?),
        frequency: read_frequency(v, "frequency_hz")?,
        kernel_macs: get_u64(v, "kernel_macs")?,
        performed_macs: get_u64(v, "performed_macs")?,
        peak_macs_per_cycle: get_u64(v, "peak_macs_per_cycle")?,
        core_stats: read_core_stats(v.get("core_stats")?)?,
        smem_stats: read_smem_stats(v.get("smem_stats")?)?,
        gmem_stats: read_gmem_stats(v.get("gmem_stats")?)?,
        dram_stats: read_dram_stats(v.get("dram_stats")?)?,
        dram_channel_stats: read_array(v, "dram_channel_stats", read_dram_stats)?,
        dma_stats: read_opt_dma(v.get("dma_stats")?)?,
        cluster_stats: read_cluster_stats(v.get("cluster_stats")?)?,
        per_cluster: read_array(v, "per_cluster", read_cluster_report)?,
        dram_contention_stall_cycles: get_u64(v, "dram_contention_stall_cycles")?,
        dsm_stats: read_dsm_fabric(v.get("dsm_stats")?)?,
        dsm_link_stats: read_array(v, "dsm_link_stats", read_dsm_link)?,
        fault: read_fault_stats(v.get("fault")?)?,
        sched: read_sched_stats(v.get("sched")?)?,
        power: read_power(v.get("power")?)?,
        area: AreaReport::from_entries(read_breakdown(v.get("area")?, &Component::all())?),
    })
}

/// Stable checksum of the canonical payload text, rendered as 16 hex chars.
fn checksum(payload: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str(payload);
    let (hi, _) = h.finish128();
    format!("{hi:016x}")
}

impl SimReport {
    /// Serializes the report as a self-verifying cache entry. `key` is the
    /// hex form of the [`SimKey`](crate::SimKey) the entry is stored under;
    /// it is embedded so a renamed or misfiled entry is rejected on load.
    pub fn to_cache_json(&self, key: &str) -> String {
        let payload = write_payload(self);
        let mut w = ObjWriter::new();
        w.str("format", FORMAT)
            .u64("version", VERSION)
            .str("key", key)
            .str("checksum", &checksum(&payload))
            .raw("payload", &payload);
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Rehydrates a report from [`SimReport::to_cache_json`] output,
    /// verifying the format tag, version, key and payload checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] describing the first problem found —
    /// malformed JSON, wrong format/version, a key mismatch, a checksum
    /// mismatch or a payload that does not describe a valid report.
    pub fn from_cache_json(text: &str, expected_key: &str) -> Result<SimReport> {
        let doc = json::parse(text.trim_end())?;
        let format = doc.get("format")?.as_str()?;
        if format != FORMAT {
            return Err(SnapshotError::new(format!("wrong format tag {format:?}")));
        }
        let version = get_u64(&doc, "version")?;
        if version != VERSION {
            return Err(SnapshotError::new(format!(
                "unsupported snapshot version {version} (expected {VERSION})"
            )));
        }
        let key = doc.get("key")?.as_str()?;
        if key != expected_key {
            return Err(SnapshotError::new(format!(
                "key mismatch: entry is {key}, expected {expected_key}"
            )));
        }
        let payload = doc.get("payload")?;
        let mut canonical = String::new();
        payload.render(&mut canonical);
        let stored = doc.get("checksum")?.as_str()?;
        let computed = checksum(&canonical);
        if stored != computed {
            return Err(SnapshotError::new(format!(
                "checksum mismatch: stored {stored}, computed {computed}"
            )));
        }
        read_payload(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::key::SimKey;
    use crate::run::{Gpu, SimMode};
    use std::sync::Arc;
    use virgo_isa::{DataType, Kernel, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};

    fn sample_report(clusters: u32) -> (SimReport, String) {
        sample_report_channels(clusters, 1)
    }

    fn sample_report_channels(clusters: u32, dram_channels: u32) -> (SimReport, String) {
        let program = {
            let mut b = ProgramBuilder::new();
            b.op_n(
                16,
                WarpOp::Alu {
                    rf_reads: 2,
                    rf_writes: 1,
                },
            );
            Arc::new(b.build())
        };
        let warps = (0..clusters)
            .map(|c| WarpAssignment::on_cluster(c, 0, 0, Arc::clone(&program)))
            .collect();
        let kernel = Kernel::new(KernelInfo::new("snapshot-test", 0, DataType::Fp16), warps);
        let config = GpuConfig::virgo()
            .with_clusters(clusters)
            .with_dram_channels(dram_channels);
        let key = SimKey::digest(&config, &kernel, 100_000, SimMode::FastForward).to_hex();
        let report = Gpu::new(config).run(&kernel, 100_000).unwrap();
        (report, key)
    }

    /// Field-exact equality via the full debug rendering: `SimReport`
    /// intentionally does not implement `PartialEq`, but its Debug output
    /// includes every field bit-exactly (floats use `{:?}`).
    fn assert_identical(a: &SimReport, b: &SimReport) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for clusters in [1, 2] {
            let (report, key) = sample_report(clusters);
            let text = report.to_cache_json(&key);
            let back = SimReport::from_cache_json(&text, &key).unwrap();
            assert_identical(&report, &back);
        }
    }

    #[test]
    fn multi_channel_report_roundtrips_per_channel_arrays() {
        let (report, key) = sample_report_channels(2, 4);
        assert_eq!(report.dram_channels(), 4);
        assert_eq!(report.per_cluster()[0].contention.per_channel.len(), 4);
        let text = report.to_cache_json(&key);
        let back = SimReport::from_cache_json(&text, &key).unwrap();
        assert_identical(&report, &back);
        assert_eq!(back.dram_channel_stats().len(), 4);
    }

    #[test]
    fn wrong_key_is_rejected() {
        let (report, key) = sample_report(1);
        let text = report.to_cache_json(&key);
        let err = SimReport::from_cache_json(&text, &"0".repeat(32)).unwrap_err();
        assert!(err.to_string().contains("key mismatch"), "{err}");
    }

    #[test]
    fn corrupted_payload_fails_checksum_not_panic() {
        let (report, key) = sample_report(1);
        let text = report.to_cache_json(&key);
        // Flip one digit inside the payload (the cycles count).
        let idx = text.find("\"payload\"").unwrap();
        let digit = text[idx..]
            .char_indices()
            .find(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| idx + i)
            .unwrap();
        let mut corrupted = text.clone();
        let old = corrupted.as_bytes()[digit];
        let new = if old == b'9' { b'0' } else { old + 1 };
        // SAFETY-free byte replace via String rebuild.
        corrupted.replace_range(digit..digit + 1, &(new as char).to_string());
        let err = SimReport::from_cache_json(&corrupted, &key).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch"),
            "expected checksum failure, got: {err}"
        );
    }

    #[test]
    fn truncated_and_garbage_inputs_are_errors() {
        let (report, key) = sample_report(1);
        let text = report.to_cache_json(&key);
        assert!(SimReport::from_cache_json(&text[..text.len() / 2], &key).is_err());
        assert!(SimReport::from_cache_json("", &key).is_err());
        assert!(SimReport::from_cache_json("not json at all", &key).is_err());
        assert!(SimReport::from_cache_json("{\"format\":\"other\"}", &key).is_err());
    }

    #[test]
    fn version_and_format_are_checked() {
        let (report, key) = sample_report(1);
        let text = report.to_cache_json(&key);
        let bumped = text.replace("\"version\":6", "\"version\":99");
        let err = SimReport::from_cache_json(&bumped, &key).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
