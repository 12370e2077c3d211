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
//! No external dependencies: the writer emits compact JSON directly and the
//! reader is a ~150-line recursive-descent parser over the same subset.

use std::fmt;

use virgo_energy::{AreaReport, Component, MatrixSubcomponent, PowerReport};
use virgo_mem::{
    ChannelContentionStats, ClusterContentionStats, ClusterDsmStats, DmaStats, DramStats,
    DsmFabricStats, DsmLinkStats, GlobalMemoryStats, SmemStats,
};
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
const VERSION: u64 = 6;

// ---------------------------------------------------------------------------
// A minimal JSON document model.
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw text so both `u64` and `f64`
/// parse losslessly, and so re-rendering a parsed document is byte-identical
/// (which is what makes the payload checksum verifiable after a round trip).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(String),
    Bool(bool),
    Null,
}

impl Json {
    /// Re-renders the value in the same compact form the writer emits.
    fn render(&self, out: &mut String) {
        match self {
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Num(raw) => out.push_str(raw),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
        }
    }

    fn as_object(&self) -> Result<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Ok(fields),
            other => Err(SnapshotError::new(format!(
                "expected object, got {other:?}"
            ))),
        }
    }

    fn as_array(&self) -> Result<&[Json]> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(SnapshotError::new(format!("expected array, got {other:?}"))),
        }
    }

    fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(SnapshotError::new(format!(
                "expected string, got {other:?}"
            ))),
        }
    }

    fn as_u64(&self) -> Result<u64> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|e| SnapshotError::new(format!("bad u64 {raw:?}: {e}"))),
            other => Err(SnapshotError::new(format!(
                "expected number, got {other:?}"
            ))),
        }
    }

    fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(raw) => raw
                .parse::<f64>()
                .map_err(|e| SnapshotError::new(format!("bad f64 {raw:?}: {e}"))),
            other => Err(SnapshotError::new(format!(
                "expected number, got {other:?}"
            ))),
        }
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| SnapshotError::new(format!("missing field {key:?}")))
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64> {
    get(obj, key)?.as_u64()
}

fn get_f64(obj: &[(String, Json)], key: &str) -> Result<f64> {
    get(obj, key)?.as_f64()
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> SnapshotError {
        SnapshotError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn parse_object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Continue a (possibly multi-byte) UTF-8 sequence; the
                    // input is a &str so the bytes are valid UTF-8.
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|&n| n & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("empty number"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        Ok(Json::Num(raw.to_string()))
    }
}

fn parse_document(text: &str) -> Result<Json> {
    let mut p = Parser::new(text);
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Writer helpers.
// ---------------------------------------------------------------------------

fn write_json_string(value: &str, out: &mut String) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` so it round-trips exactly (`{:?}` is Rust's
/// shortest-representation formatting). The simulator never produces
/// non-finite values, but reject them rather than emitting invalid JSON.
fn fmt_f64(value: f64) -> String {
    assert!(value.is_finite(), "reports never contain non-finite floats");
    format!("{value:?}")
}

struct ObjWriter {
    out: String,
    first: bool,
}

impl ObjWriter {
    fn new() -> Self {
        ObjWriter {
            out: String::from("{"),
            first: true,
        }
    }

    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_json_string(key, &mut self.out);
        self.out.push(':');
        self.out.push_str(value);
        self
    }

    fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, &fmt_f64(value))
    }

    fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let mut quoted = String::new();
        write_json_string(value, &mut quoted);
        self.raw(key, &quoted)
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
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

        fn $read(v: &Json) -> Result<$ty> {
            let o = v.as_object()?;
            Ok($ty {
                $($field: get_u64(o, stringify!($field))?,)+
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
    let per_channel: Vec<String> = s.per_channel.iter().map(write_channel_contention).collect();
    let mut w = ObjWriter::new();
    w.u64("l2_accesses", s.l2_accesses)
        .u64("l2_misses", s.l2_misses)
        .u64("dma_bytes", s.dma_bytes)
        .u64("dram_requests", s.dram_requests)
        .u64("dram_bytes", s.dram_bytes)
        .u64("dram_stall_cycles", s.dram_stall_cycles)
        .raw("per_channel", &format!("[{}]", per_channel.join(",")));
    w.finish()
}

fn read_contention(v: &Json) -> Result<ClusterContentionStats> {
    let o = v.as_object()?;
    Ok(ClusterContentionStats {
        l2_accesses: get_u64(o, "l2_accesses")?,
        l2_misses: get_u64(o, "l2_misses")?,
        dma_bytes: get_u64(o, "dma_bytes")?,
        dram_requests: get_u64(o, "dram_requests")?,
        dram_bytes: get_u64(o, "dram_bytes")?,
        dram_stall_cycles: get_u64(o, "dram_stall_cycles")?,
        per_channel: get(o, "per_channel")?
            .as_array()?
            .iter()
            .map(read_channel_contention)
            .collect::<Result<Vec<_>>>()?,
    })
}

// `ClusterDsmStats` carries a per-link array, so it cannot use the
// flat-`u64` macro either.
fn write_cluster_dsm(s: &ClusterDsmStats) -> String {
    let per_link: Vec<String> = s.per_link.iter().map(write_dsm_link).collect();
    let mut w = ObjWriter::new();
    w.u64("requests", s.requests)
        .u64("bytes", s.bytes)
        .u64("stall_cycles", s.stall_cycles)
        .u64("hop_flits", s.hop_flits)
        .raw("per_link", &format!("[{}]", per_link.join(",")));
    w.finish()
}

fn read_cluster_dsm(v: &Json) -> Result<ClusterDsmStats> {
    let o = v.as_object()?;
    Ok(ClusterDsmStats {
        requests: get_u64(o, "requests")?,
        bytes: get_u64(o, "bytes")?,
        stall_cycles: get_u64(o, "stall_cycles")?,
        hop_flits: get_u64(o, "hop_flits")?,
        per_link: get(o, "per_link")?
            .as_array()?
            .iter()
            .map(read_dsm_link)
            .collect::<Result<Vec<_>>>()?,
    })
}

fn write_opt_dma(stats: &Option<DmaStats>) -> String {
    match stats {
        Some(s) => write_dma_stats(s),
        None => "null".to_string(),
    }
}

fn read_opt_dma(v: &Json) -> Result<Option<DmaStats>> {
    match v {
        Json::Null => Ok(None),
        other => Ok(Some(read_dma_stats(other)?)),
    }
}

/// Serializes an enum-keyed `(E, f64)` breakdown as an ordered object of
/// `{"VariantDebugName": value}` pairs.
fn write_breakdown<E: fmt::Debug + Copy>(entries: &[(E, f64)]) -> String {
    let mut w = ObjWriter::new();
    for (e, value) in entries {
        w.f64(&format!("{e:?}"), *value);
    }
    w.finish()
}

fn read_breakdown<E: fmt::Debug + Copy>(v: &Json, variants: &[E]) -> Result<Vec<(E, f64)>> {
    let o = v.as_object()?;
    o.iter()
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
        .f64("energy_mj", c.energy_mj)
        .raw("fault", &write_cluster_fault(&c.fault));
    w.finish()
}

fn read_cluster_report(v: &Json) -> Result<ClusterReport> {
    let o = v.as_object()?;
    Ok(ClusterReport {
        cluster: u32::try_from(get_u64(o, "cluster")?)
            .map_err(|_| SnapshotError::new("cluster index overflows u32"))?,
        core_stats: read_core_stats(get(o, "core_stats")?)?,
        smem_stats: read_smem_stats(get(o, "smem_stats")?)?,
        gmem_stats: read_gmem_stats(get(o, "gmem_stats")?)?,
        dma_stats: read_opt_dma(get(o, "dma_stats")?)?,
        cluster_stats: read_cluster_stats(get(o, "cluster_stats")?)?,
        contention: read_contention(get(o, "contention")?)?,
        dsm: read_cluster_dsm(get(o, "dsm")?)?,
        performed_macs: get_u64(o, "performed_macs")?,
        energy_mj: get_f64(o, "energy_mj")?,
        fault: read_cluster_fault(get(o, "fault")?)?,
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

fn read_power(v: &Json) -> Result<PowerReport> {
    let o = v.as_object()?;
    Ok(PowerReport::from_parts(
        Cycle::new(get_u64(o, "cycles")?),
        read_frequency(o, "frequency_hz")?,
        read_breakdown(get(o, "components")?, &Component::all())?,
        read_breakdown(get(o, "matrix")?, &MatrixSubcomponent::all())?,
    ))
}

fn read_frequency(o: &[(String, Json)], key: &str) -> Result<Frequency> {
    let hz = get_u64(o, key)?;
    if hz == 0 {
        return Err(SnapshotError::new("zero clock frequency"));
    }
    Ok(Frequency::from_hz(hz))
}

// ---------------------------------------------------------------------------
// The public entry points.
// ---------------------------------------------------------------------------

fn write_payload(report: &SimReport) -> String {
    let per_cluster: Vec<String> = report
        .per_cluster
        .iter()
        .map(write_cluster_report)
        .collect();
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
        .raw("dram_channel_stats", &{
            let channels: Vec<String> = report
                .dram_channel_stats
                .iter()
                .map(write_dram_stats)
                .collect();
            format!("[{}]", channels.join(","))
        })
        .raw("dma_stats", &write_opt_dma(&report.dma_stats))
        .raw("cluster_stats", &write_cluster_stats(&report.cluster_stats))
        .raw("per_cluster", &format!("[{}]", per_cluster.join(",")))
        .u64(
            "dram_contention_stall_cycles",
            report.dram_contention_stall_cycles,
        )
        .raw("dsm_stats", &write_dsm_fabric(&report.dsm_stats))
        .raw("dsm_link_stats", &{
            let links: Vec<String> = report.dsm_link_stats.iter().map(write_dsm_link).collect();
            format!("[{}]", links.join(","))
        })
        .raw("fault", &write_fault_stats(&report.fault))
        .raw("sched", &write_sched_stats(&report.sched))
        .raw("power", &write_power(&report.power))
        .raw("area", &write_breakdown(report.area.breakdown()));
    w.finish()
}

fn read_payload(v: &Json) -> Result<SimReport> {
    let o = v.as_object()?;
    let design: DesignKind = get(o, "design")?
        .as_str()?
        .parse()
        .map_err(SnapshotError::new)?;
    Ok(SimReport {
        design,
        kernel_name: get(o, "kernel_name")?.as_str()?.to_string(),
        cycles: Cycle::new(get_u64(o, "cycles")?),
        frequency: read_frequency(o, "frequency_hz")?,
        kernel_macs: get_u64(o, "kernel_macs")?,
        performed_macs: get_u64(o, "performed_macs")?,
        peak_macs_per_cycle: get_u64(o, "peak_macs_per_cycle")?,
        core_stats: read_core_stats(get(o, "core_stats")?)?,
        smem_stats: read_smem_stats(get(o, "smem_stats")?)?,
        gmem_stats: read_gmem_stats(get(o, "gmem_stats")?)?,
        dram_stats: read_dram_stats(get(o, "dram_stats")?)?,
        dram_channel_stats: get(o, "dram_channel_stats")?
            .as_array()?
            .iter()
            .map(read_dram_stats)
            .collect::<Result<Vec<_>>>()?,
        dma_stats: read_opt_dma(get(o, "dma_stats")?)?,
        cluster_stats: read_cluster_stats(get(o, "cluster_stats")?)?,
        per_cluster: get(o, "per_cluster")?
            .as_array()?
            .iter()
            .map(read_cluster_report)
            .collect::<Result<Vec<_>>>()?,
        dram_contention_stall_cycles: get_u64(o, "dram_contention_stall_cycles")?,
        dsm_stats: read_dsm_fabric(get(o, "dsm_stats")?)?,
        dsm_link_stats: get(o, "dsm_link_stats")?
            .as_array()?
            .iter()
            .map(read_dsm_link)
            .collect::<Result<Vec<_>>>()?,
        fault: read_fault_stats(get(o, "fault")?)?,
        sched: read_sched_stats(get(o, "sched")?)?,
        power: read_power(get(o, "power")?)?,
        area: AreaReport::from_entries(read_breakdown(get(o, "area")?, &Component::all())?),
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
        let doc = parse_document(text.trim_end())?;
        let o = doc.as_object()?;
        let format = get(o, "format")?.as_str()?;
        if format != FORMAT {
            return Err(SnapshotError::new(format!("wrong format tag {format:?}")));
        }
        let version = get_u64(o, "version")?;
        if version != VERSION {
            return Err(SnapshotError::new(format!(
                "unsupported snapshot version {version} (expected {VERSION})"
            )));
        }
        let key = get(o, "key")?.as_str()?;
        if key != expected_key {
            return Err(SnapshotError::new(format!(
                "key mismatch: entry is {key}, expected {expected_key}"
            )));
        }
        let payload = get(o, "payload")?;
        let mut canonical = String::new();
        payload.render(&mut canonical);
        let stored = get(o, "checksum")?.as_str()?;
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

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse_document(r#"{"a":[1,2.5,-3],"b":"x\"y\\z\nw","c":null,"d":true}"#).unwrap();
        let o = doc.as_object().unwrap();
        assert_eq!(get(o, "b").unwrap().as_str().unwrap(), "x\"y\\z\nw");
        let arr = get(o, "a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64().unwrap(), 1);
        assert_eq!(arr[1].as_f64().unwrap(), 2.5);
        assert_eq!(arr[2].as_f64().unwrap(), -3.0);
        assert_eq!(get(o, "c").unwrap(), &Json::Null);
        assert_eq!(get(o, "d").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn f64_text_roundtrips_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02214076e23, 4.9e-324, -0.0] {
            let text = fmt_f64(v);
            let back: f64 = text.parse().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }
}
