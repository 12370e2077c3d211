//! Micro-benchmarks of the simulator substrates themselves: shared-memory
//! arbitration, cache lookups, program-cursor traversal and a small
//! end-to-end GEMM simulation. These measure the cost of simulation, not the
//! modelled hardware.
//!
//! Historical note: this target originally used Criterion; the workspace now
//! builds without registry dependencies, so it runs on the dependency-free
//! [`virgo_bench::microbench`] harness instead (same bench names, plain
//! min/mean reporting).

use std::sync::Arc;

use virgo::{DesignKind, GpuConfig};
use virgo_bench::{microbench, run};
use virgo_isa::{AddrExpr, LaneAccess, ProgramBuilder, WarpOp};
use virgo_kernels::GemmShape;
use virgo_mem::{Cache, CacheConfig, SharedMemory, SmemConfig};
use virgo_sim::Cycle;
use virgo_sweep::Query;

fn bench_smem() -> Vec<microbench::Measurement> {
    let simt = {
        let mut smem = SharedMemory::new(SmemConfig::default_cluster());
        let addrs: Vec<u64> = (0..8).map(|i| i * 4).collect();
        let mut cycle = 0u64;
        microbench::time("smem_simt_access_8_lanes", 100_000, move || {
            let access = smem.access_simt(Cycle::new(cycle), &addrs, false);
            cycle += 1;
            access
        })
    };
    let wide = {
        let mut smem = SharedMemory::new(SmemConfig::virgo_cluster());
        let mut cycle = 0u64;
        microbench::time("smem_wide_access_64b", 100_000, move || {
            let access = smem.access_wide(Cycle::new(cycle), (cycle * 64) % 32768, 64, false);
            cycle += 1;
            access
        })
    };
    vec![simt, wide]
}

fn bench_cache() -> microbench::Measurement {
    let mut cache = Cache::new(CacheConfig::l1_16k());
    let mut addr = 0u64;
    microbench::time("l1_cache_streaming_access", 100_000, move || {
        let outcome = cache.access(addr);
        addr = addr.wrapping_add(32);
        outcome
    })
}

fn bench_cursor() -> microbench::Measurement {
    // One op of the body carries a streaming address, so the traversal
    // includes resolving it at every execution.
    let access = LaneAccess::contiguous_words(AddrExpr::streaming(0x1000, 32), 8);
    let mut builder = ProgramBuilder::new();
    builder.repeat(64, |b| {
        b.repeat(16, |b| {
            b.op(WarpOp::LoadShared { access });
            b.op(WarpOp::Nop);
            b.op(WarpOp::Alu {
                rf_reads: 2,
                rf_writes: 1,
            });
        });
    });
    let program = Arc::new(builder.build());
    microbench::time("program_cursor_nested_loops", 1_000, move || {
        let mut cursor = program.cursor();
        let mut count = 0u64;
        while cursor.next_op().is_some() {
            count += 1;
        }
        count
    })
}

fn bench_end_to_end() -> Vec<microbench::Measurement> {
    let gemm = microbench::time("virgo_gemm_128_simulation", 10, || {
        run(&Query::new(DesignKind::Virgo, GemmShape::square(128)))
    });
    let config = GpuConfig::virgo();
    let kernel_gen = microbench::time("kernel_generation_virgo_1024", 10, move || {
        virgo_kernels::build_gemm(&config, GemmShape::square(1024))
    });
    vec![gemm, kernel_gen]
}

fn main() {
    println!("=== simulator micro-benchmarks ===");
    let mut all = bench_smem();
    all.push(bench_cache());
    all.push(bench_cursor());
    all.extend(bench_end_to_end());
    for m in &all {
        println!("{}", m.summary());
    }
}
