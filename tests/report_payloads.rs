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

use std::sync::Arc;

use virgo::{Gpu, GpuConfig, JobTable, SimMode, SimReport};
use virgo_isa::{
    remote_smem_addr, AddrExpr, DataType, Kernel, KernelInfo, LaneAccess, ProgramBuilder,
    WarpAssignment, WarpOp,
};
use virgo_kernels::{build_gemm, build_split_k_gemm, GemmShape};

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
fn payload_checksums(mode: SimMode) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut single = |label: &str, config: GpuConfig, kernel: Kernel| {
        out.push((label.to_string(), checksum(&run(&config, &kernel, mode))));
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
        out.push((format!("session-{name}"), checksum(&report)));
    }
    out
}

fn assert_pinned(mode: SimMode, pins: &[(&str, &str)]) {
    let got = payload_checksums(mode);
    let got: Vec<(&str, &str)> = got.iter().map(|(l, c)| (l.as_str(), c.as_str())).collect();
    assert_eq!(got, pins, "{mode:?} report payloads moved");
}

#[test]
fn naive_report_payloads_are_pinned() {
    assert_pinned(
        SimMode::Naive,
        &[
            ("volta-128", "d9843d6142892c95"),
            ("ampere-128", "b3e31f6e7436ed6e"),
            ("hopper-128-x2", "ec40d299bce595b5"),
            ("virgo-256-x4-ch2", "547e18a6d113004e"),
            ("splitk-128x128x1024-x4-dsm", "99a64901b6bce440"),
            ("session-a", "01489fc9396bab90"),
            ("session-b", "69f1e39c02e2af3f"),
        ],
    );
}

#[test]
fn fast_forward_report_payloads_are_pinned() {
    assert_pinned(
        SimMode::FastForward,
        &[
            ("volta-128", "2a3f6bba336cf6ed"),
            ("ampere-128", "4798a3b558f85935"),
            ("hopper-128-x2", "b425f2c746fb2d12"),
            ("virgo-256-x4-ch2", "bbbab39edefb69a2"),
            ("splitk-128x128x1024-x4-dsm", "99edd2541a557da4"),
            ("session-a", "70b19ca01fda8a9e"),
            ("session-b", "1210e72f210ae23e"),
        ],
    );
}

/// The machine-wide totals of a job that shared the machine are the
/// residency window's totals, not the job's own traffic: job "a" never
/// touches the fabric, yet reports the 64 remote stores job "b" issued
/// while "a" was resident, while its per-cluster slices stay exact.
#[test]
fn concurrent_job_totals_cover_the_shared_window() {
    let reports = two_job_session(SimMode::FastForward);
    let (a, b) = (&reports[0].1, &reports[1].1);
    assert_eq!(b.dsm_stats().transfers, 64);
    assert_eq!(a.dsm_stats().transfers, 64);
    assert!(a.per_cluster().iter().all(|c| c.dsm.requests == 0));
    let own_l2: u64 = a
        .per_cluster()
        .iter()
        .map(|c| c.contention.l2_accesses)
        .sum();
    assert!(own_l2 > 0);
    assert!(a.gmem_stats().l2_accesses >= own_l2);
}
