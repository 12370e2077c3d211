//! Whole-report payload pins.
//!
//! `ReportDigest` and the fingerprint tests cover the headline counters, but
//! not every field a report carries: the machine-wide `gmem_stats().l2_*`
//! totals, `cluster_stats()` and the shared-window totals of a job that ran
//! beside another are only in the snapshot payload. This file pins the
//! payload checksum of `SimReport::to_cache_json` — every serialized field —
//! for a small set of runs under both driver modes, so a change to how any
//! counter is kept or summed cannot move a reported number unseen.
//!
//! The runs cover each design point, multi-cluster L2/DRAM sharing with two
//! DRAM channels, DSM reduction traffic, and a two-job `JobTable` session in
//! which one job's remote stores land in the other job's residency window.
//!
//! A second pin hashes what a reader sees through the public API: the value
//! of every `SimReport` accessor and every per-cluster slice field, for the
//! same runs. It is independent of the payload layout, so a change that
//! reshapes the payload but must not move a reported number keeps it green.

use std::sync::Arc;

use virgo::{ClusterReport, Gpu, GpuConfig, JobTable, SimMode, SimReport};
use virgo_isa::{
    remote_smem_addr, AddrExpr, DataType, Kernel, KernelInfo, LaneAccess, ProgramBuilder,
    WarpAssignment, WarpOp,
};
use virgo_kernels::{build_gemm, build_split_k_gemm, GemmShape};
use virgo_mem::{ChannelContentionStats, ClusterDsmStats, DsmLinkStats};
use virgo_sim::{Counters, StableHasher};
use virgo_simt::CoreStats;

const MAX_CYCLES: u64 = 50_000_000;

fn cube(n: u32) -> GemmShape {
    GemmShape { m: n, n, k: n }
}

/// The payload checksum of a report's cache entry (the key is not part of
/// the payload, so any key will do).
fn checksum(report: &SimReport) -> String {
    let entry = report.to_cache_json("pin");
    virgo_sim::json::parse(entry.trim_end())
        .and_then(|doc| doc.get("checksum")?.as_str().map(str::to_string))
        .expect("cache entry carries a checksum")
}

fn run(config: &GpuConfig, kernel: &Kernel, mode: SimMode) -> SimReport {
    Gpu::new(config.clone())
        .run_with_mode(kernel, MAX_CYCLES, mode)
        .unwrap_or_else(|e| panic!("{} must finish: {e}", kernel.info.name))
}

/// One warp on cluster 2 that issues ALU work and then pushes 64 warp-wide
/// stores into cluster 3's scratchpad over the DSM fabric.
fn remote_store_kernel() -> Kernel {
    let mut b = ProgramBuilder::new();
    b.op_n(
        8,
        WarpOp::Alu {
            rf_reads: 2,
            rf_writes: 1,
        },
    );
    let access = LaneAccess::contiguous_words(AddrExpr::fixed(remote_smem_addr(3, 0)), 32);
    b.op_n(64, WarpOp::StoreShared { access });
    Kernel::new(
        KernelInfo::new("remote-stores", 0, DataType::Fp16),
        vec![WarpAssignment::on_cluster(2, 0, 0, Arc::new(b.build()))],
    )
}

/// A two-job session on a 4-cluster Virgo with DSM on: a 256³ GEMM on
/// clusters {0, 1} and the remote-store warp on cluster 2, both admitted at
/// cycle 0. Returns `(job name, report)` in name order.
fn two_job_session(mode: SimMode) -> Vec<(String, SimReport)> {
    let config = GpuConfig::virgo().with_clusters(4).with_dsm_enabled();
    let gemm = build_gemm(&GpuConfig::virgo().with_clusters(2), cube(256));
    let mut table = JobTable::new(config, mode);
    table.admit("a", &gemm, &[0, 1], MAX_CYCLES).unwrap();
    table
        .admit("b", &remote_store_kernel(), &[2], MAX_CYCLES)
        .unwrap();
    let mut done = Vec::new();
    while !table.is_idle() {
        done.extend(table.advance_until(MAX_CYCLES));
    }
    let mut reports: Vec<(String, SimReport)> = done
        .into_iter()
        .map(|c| (c.name, c.result.expect("job finishes")))
        .collect();
    reports.sort_by(|x, y| x.0.cmp(&y.0));
    reports
}

/// Every pinned run under one mode, labelled, in a fixed order.
fn pinned_reports(mode: SimMode) -> Vec<(String, SimReport)> {
    let mut out = Vec::new();
    let mut single = |label: &str, config: GpuConfig, kernel: Kernel| {
        out.push((label.to_string(), run(&config, &kernel, mode)));
    };
    let volta = GpuConfig::volta_style();
    single("volta-128", volta.clone(), build_gemm(&volta, cube(128)));
    let ampere = GpuConfig::ampere_style();
    single("ampere-128", ampere.clone(), build_gemm(&ampere, cube(128)));
    let hopper = GpuConfig::hopper_style().with_clusters(2);
    single(
        "hopper-128-x2",
        hopper.clone(),
        build_gemm(&hopper, cube(128)),
    );
    let virgo = GpuConfig::virgo().with_clusters(4).with_dram_channels(2);
    single(
        "virgo-256-x4-ch2",
        virgo.clone(),
        build_gemm(&virgo, cube(256)),
    );
    let split = GpuConfig::virgo().with_clusters(4).with_dsm_enabled();
    let shape = GemmShape {
        m: 128,
        n: 128,
        k: 1024,
    };
    single(
        "splitk-128x128x1024-x4-dsm",
        split.clone(),
        build_split_k_gemm(&split, shape),
    );
    for (name, report) in two_job_session(mode) {
        out.push((format!("session-{name}"), report));
    }
    out
}

/// The label and `hash` of every pinned run under one mode.
fn hashes(mode: SimMode, hash: fn(&SimReport) -> String) -> Vec<(String, String)> {
    pinned_reports(mode)
        .iter()
        .map(|(label, report)| (label.clone(), hash(report)))
        .collect()
}

fn assert_pinned(mode: SimMode, pins: &[(&str, &str)]) {
    let got = hashes(mode, checksum);
    let got: Vec<(&str, &str)> = got.iter().map(|(l, c)| (l.as_str(), c.as_str())).collect();
    assert_eq!(got, pins, "{mode:?} report payloads moved");
}

/// The counters of one SIMT core set, in declaration order. The cycle total
/// is not listed: it is active + stall + idle.
fn core_fields(s: &CoreStats) -> [u64; 17] {
    [
        s.instrs_issued,
        s.rf_reads,
        s.rf_writes,
        s.alu_lane_ops,
        s.fpu_lane_ops,
        s.lsu_lane_ops,
        s.writebacks,
        s.icache_accesses,
        s.hmma_steps,
        s.wgmma_ops,
        s.mmio_writes,
        s.fence_poll_instrs,
        s.fence_wait_cycles,
        s.barrier_arrivals,
        s.active_cycles,
        s.stall_cycles,
        s.idle_cycles,
    ]
}

/// DRAM transfers one cluster issued to one channel.
fn channel_requests(c: &ChannelContentionStats) -> u64 {
    c.dram.reads + c.dram.writes
}

/// One requester's DSM traffic summed over its links.
fn dsm_total(d: &ClusterDsmStats) -> DsmLinkStats {
    let mut total = DsmLinkStats::default();
    d.per_link.iter().for_each(|l| total.merge(l));
    total
}

fn slice_fields(c: &ClusterReport) -> String {
    let per_channel: Vec<(u64, u64)> = c
        .contention
        .per_channel
        .iter()
        .map(|ch| (channel_requests(ch), ch.stall_cycles))
        .collect();
    let contention = &c.contention;
    format!(
        "cluster {} core {:?} smem {} gmem {} dma {:?} cluster_stats {} \
         contention l2 {} {} dma {} dram {} {} {} per_channel {per_channel:?} \
         dsm {} hop_flits {} per_link {} macs {} energy {:?} fault {} stall {}",
        c.cluster,
        core_fields(&c.core_stats),
        c.smem_stats.to_json(),
        c.gmem_stats.to_json(),
        c.dma_stats.as_ref().map(|d| d.to_json()),
        c.cluster_stats.to_json(),
        contention.l2_accesses,
        contention.l2_misses,
        contention.dma_bytes,
        per_channel.iter().map(|(r, _)| r).sum::<u64>(),
        contention.dram_bytes,
        contention.dram_stall_cycles,
        dsm_total(&c.dsm).to_json(),
        c.dsm.hop_flits,
        c.dsm.per_link.to_json(),
        c.performed_macs,
        c.energy_mj,
        c.fault.to_json(),
        c.dram_stall_cycles(),
    )
}

/// Everything a reader sees through the public API, one line per accessor:
/// floats in shortest round-trip form, counter structs as their JSON.
fn accessor_text(r: &SimReport) -> String {
    let mut lines = vec![
        format!("design {}", r.design()),
        format!("kernel {}", r.kernel_name()),
        format!("cycles {}", r.cycles().get()),
        format!("runtime {:?}", r.runtime_seconds()),
        format!("macs {} {}", r.performed_macs(), r.kernel_macs()),
        format!("mac_util {:?}", r.mac_utilization().as_fraction()),
        format!(
            "instrs {} {} {}",
            r.instructions_retired(),
            r.fence_poll_instructions(),
            r.fence_wait_cycles()
        ),
        format!("smem_footprint {}", r.smem_read_footprint_bytes()),
        format!("core {:?}", core_fields(&r.core_stats())),
        format!("smem {}", r.smem_stats().to_json()),
        format!("sched {}", r.sched_stats().to_json()),
        format!("gmem {}", r.gmem_stats().to_json()),
        format!("dram {}", r.dram_stats().to_json()),
        format!(
            "dram_channels {}",
            r.dram_channel_stats().to_vec().to_json()
        ),
        format!("dram_channel_count {}", r.dram_channels()),
        format!("dma {:?}", r.dma_stats().map(|d| d.to_json())),
        format!("cluster_stats {}", r.cluster_stats().to_json()),
        format!("clusters {}", r.clusters()),
        format!("dram_stall {}", r.dram_contention_stall_cycles()),
        format!("dsm {}", r.dsm_stats().to_json()),
        format!("dsm_links {}", r.dsm_link_stats().to_vec().to_json()),
        format!("dsm_bytes {}", r.dsm_bytes()),
        format!("imbalance {:?}", r.load_imbalance()),
        format!("fault {}", r.fault_stats().to_json()),
        format!("faults_injected {}", r.faults_injected()),
        format!("dram_bytes {}", r.dram_bytes()),
        format!("power {:?}", r.power()),
        format!("area {:?}", r.area()),
        format!("energy {:?} {:?}", r.total_energy_mj(), r.active_power_mw()),
    ];
    lines.extend(r.per_cluster().iter().map(slice_fields));
    lines.join("\n")
}

fn accessor_hash(report: &SimReport) -> String {
    let mut h = StableHasher::new();
    h.write_str(&accessor_text(report));
    h.finish_hex()[..16].to_string()
}

fn assert_accessors_pinned(mode: SimMode, pins: &[(&str, &str)]) {
    let got = hashes(mode, accessor_hash);
    let got: Vec<(&str, &str)> = got.iter().map(|(l, c)| (l.as_str(), c.as_str())).collect();
    assert_eq!(got, pins, "{mode:?} report accessor values moved");
}

#[test]
fn naive_report_payloads_are_pinned() {
    assert_pinned(
        SimMode::Naive,
        &[
            ("volta-128", "8bbe8297969624f5"),
            ("ampere-128", "6a84806f7875872b"),
            ("hopper-128-x2", "ab1c94cb656c93a3"),
            ("virgo-256-x4-ch2", "863983bafc89128c"),
            ("splitk-128x128x1024-x4-dsm", "e7e6cf64ae1471f7"),
            ("session-a", "85ba67094b0c7b26"),
            ("session-b", "a7ba3877acf394c2"),
        ],
    );
}

#[test]
fn fast_forward_report_payloads_are_pinned() {
    assert_pinned(
        SimMode::FastForward,
        &[
            ("volta-128", "6a4de6377371cb00"),
            ("ampere-128", "4e7b827726e66769"),
            ("hopper-128-x2", "f0ed6f453415d563"),
            ("virgo-256-x4-ch2", "4f9f79ae501ef4cb"),
            ("splitk-128x128x1024-x4-dsm", "51fe89ef9b9ed344"),
            ("session-a", "dfdaa7b1f7ff2b95"),
            ("session-b", "31d8b7194a01d851"),
        ],
    );
}

#[test]
fn naive_report_accessors_are_pinned() {
    assert_accessors_pinned(
        SimMode::Naive,
        &[
            ("volta-128", "5f28cedbb85978a1"),
            ("ampere-128", "f8f6a335d3ab2441"),
            ("hopper-128-x2", "cbe67597aa5f1bbc"),
            ("virgo-256-x4-ch2", "3608dca03c87013a"),
            ("splitk-128x128x1024-x4-dsm", "3786b856dbce0848"),
            ("session-a", "606a23cdbac29809"),
            ("session-b", "228fd78583b8982b"),
        ],
    );
}

#[test]
fn fast_forward_report_accessors_are_pinned() {
    assert_accessors_pinned(
        SimMode::FastForward,
        &[
            ("volta-128", "a88ccabd0968dbf2"),
            ("ampere-128", "a0f2a08c0bd8ec6f"),
            ("hopper-128-x2", "c5478dd333b428d7"),
            ("virgo-256-x4-ch2", "a2bacb10ed5daa29"),
            ("splitk-128x128x1024-x4-dsm", "7828dd787f022fbd"),
            ("session-a", "474d86675d31dfd9"),
            ("session-b", "74155030bd0af571"),
        ],
    );
}

/// A job that shared the machine reports its own traffic: job "a" never
/// touches the fabric and reports none of the 64 remote stores job "b"
/// issued while "a" was resident, and its L2 total is the sum of its own
/// clusters' slices.
#[test]
fn concurrent_job_totals_are_the_jobs_own() {
    for mode in [SimMode::Naive, SimMode::FastForward] {
        let reports = two_job_session(mode);
        let (a, b) = (&reports[0].1, &reports[1].1);
        assert_eq!(b.dsm_stats().transfers, 64);
        assert_eq!(a.dsm_stats().transfers, 0);
        let own_l2: u64 = a
            .per_cluster()
            .iter()
            .map(|c| c.contention.l2_accesses)
            .sum();
        assert!(own_l2 > 0);
        assert_eq!(a.gmem_stats().l2_accesses, own_l2);
    }
}
