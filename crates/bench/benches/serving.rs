//! Request-level serving benchmark: offered-load sweep × arbitration
//! policy, clean vs faulted.
//!
//! Two tenants — an interactive one issuing small one-cluster requests and
//! a batch one issuing larger two-cluster GEMMs — offer load against a
//! 4-cluster Virgo machine at three inter-arrival rates. Each load point is
//! served four ways: the serial whole-machine FIFO baseline (the "one
//! kernel owns the GPU" model the job table replaces) and continuous
//! batching under FIFO, shortest-job and tenant-fair arbitration. One extra
//! arm replays the highest load against a throttled DRAM channel.
//!
//! The run emits `BENCH_serve.json` at the workspace root for the
//! `bench_diff` gate and hard-asserts the tentpole claim: at overlapping
//! load, continuous batching beats serial FIFO on both p99 latency and
//! goodput.

use virgo::{GpuConfig, SchedStats, SimMode};
use virgo_bench::write_artifact;
use virgo_kernels::{AttentionShape, GemmShape};
use virgo_serve::{
    generate_trace, ArbitrationPolicy, BatchingMode, RequestClass, ServeConfig, ServeReport,
    Server, TenantSpec,
};
use virgo_sim::fault::{FaultKind, FaultPlan, PERMANENT};
use virgo_sim::json::{write_array, ObjWriter};

const CLUSTERS: u32 = 4;
const SEED: u64 = 0x5E27E;
const PER_TENANT: usize = 12;
/// Offered-load sweep: mean inter-arrival gap per tenant, in cycles.
/// Calibrated around the service times of the request mix so the first
/// point queues heavily, the second overlaps and the third is nearly idle.
const LOADS: [u64; 3] = [20_000, 80_000, 320_000];

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("interactive", 1).with_classes(vec![
            RequestClass::Gemm(GemmShape::square(128)),
            RequestClass::Attention(AttentionShape {
                seq_len: 128,
                head_dim: 64,
                heads: 1,
                batch: 1,
            }),
        ]),
        TenantSpec::new("batch", 1)
            .with_classes(vec![RequestClass::Gemm(GemmShape::square(256))])
            .with_clusters(2),
    ]
}

fn serve(
    gpu: &GpuConfig,
    mean_interarrival: u64,
    policy: ArbitrationPolicy,
    batching: BatchingMode,
) -> ServeReport {
    let specs: Vec<TenantSpec> = tenants()
        .into_iter()
        .map(|mut t| {
            t.mean_interarrival = mean_interarrival;
            t
        })
        .collect();
    let trace = generate_trace(&specs, PER_TENANT, SEED);
    Server::new(
        ServeConfig::new(gpu.clone())
            .with_mode(SimMode::FastForward)
            .with_policy(policy)
            .with_batching(batching),
    )
    .run(&trace)
}

fn arm_json(report: &ServeReport) -> String {
    // Scheduler work summed over the arm's completed requests: the cycles
    // the event queue processed and the cycles it jumped over.
    let sched = |count: fn(&SchedStats) -> u64| -> u64 {
        report
            .outcomes
            .iter()
            .filter_map(|o| o.report.as_ref())
            .map(|r| count(r.sched_stats()))
            .sum()
    };
    let mut w = ObjWriter::new();
    w.u64("completed", report.completed() as u64)
        .u64("timed_out", report.timed_out() as u64)
        .u64("makespan_cycles", report.makespan_cycles)
        .u64("p50_latency_cycles", report.p50_latency_cycles)
        .u64("p99_latency_cycles", report.p99_latency_cycles)
        .u64("p999_latency_cycles", report.p999_latency_cycles)
        .f64("goodput_rps", report.goodput_rps)
        .f64("active_energy_mj", report.active_energy_mj)
        .f64("static_energy_mj", report.static_energy_mj)
        .f64("energy_per_request_mj", report.energy_per_request_mj)
        .u64("processed_cycles", sched(|s| s.processed_cycles))
        .u64("skipped_cycles", sched(|s| s.skipped_cycles));
    w.finish()
}

fn print_arm(label: &str, report: &ServeReport) {
    println!(
        "  {label:<18} p50 {:>9}  p99 {:>9}  goodput {:>9.1} req/s  e/req {:>8.4} mJ  ({} ok, {} timeout)",
        report.p50_latency_cycles,
        report.p99_latency_cycles,
        report.goodput_rps,
        report.energy_per_request_mj,
        report.completed(),
        report.timed_out(),
    );
}

fn main() {
    let gpu = GpuConfig::virgo().with_clusters(CLUSTERS);
    println!(
        "Serving simulator: {CLUSTERS}-cluster Virgo, 2 tenants x {PER_TENANT} requests, seed {SEED:#x}"
    );

    let mut sweep_entries = Vec::new();
    let mut gate: Option<(u64, u64, f64, f64)> = None;
    for &load in &LOADS {
        println!("offered load: mean inter-arrival {load} cycles/tenant");
        let serial_fifo = serve(&gpu, load, ArbitrationPolicy::Fifo, BatchingMode::Serial);
        let continuous_fifo = serve(
            &gpu,
            load,
            ArbitrationPolicy::Fifo,
            BatchingMode::Continuous,
        );
        let continuous_sjf = serve(
            &gpu,
            load,
            ArbitrationPolicy::ShortestJob,
            BatchingMode::Continuous,
        );
        let continuous_fair = serve(
            &gpu,
            load,
            ArbitrationPolicy::TenantFair,
            BatchingMode::Continuous,
        );
        print_arm("serial fifo", &serial_fifo);
        print_arm("continuous fifo", &continuous_fifo);
        print_arm("continuous sjf", &continuous_sjf);
        print_arm("continuous fair", &continuous_fair);
        if load == LOADS[0] {
            gate = Some((
                continuous_fifo.p99_latency_cycles,
                serial_fifo.p99_latency_cycles,
                continuous_fifo.goodput_rps,
                serial_fifo.goodput_rps,
            ));
        }
        let mut entry = ObjWriter::new();
        entry
            .u64("mean_interarrival", load)
            .raw("serial_fifo", &arm_json(&serial_fifo))
            .raw("continuous_fifo", &arm_json(&continuous_fifo))
            .raw("continuous_sjf", &arm_json(&continuous_sjf))
            .raw("continuous_fair", &arm_json(&continuous_fair));
        sweep_entries.push(entry.finish());
    }

    // The tentpole gate: with requests overlapping, sharing the machine
    // must beat owning it whole — on the tail and on throughput.
    let (cont_p99, serial_p99, cont_goodput, serial_goodput) =
        gate.expect("sweep ran at least one load point");
    assert!(
        cont_p99 < serial_p99,
        "continuous batching must cut p99 latency at overlapping load \
         (continuous {cont_p99} vs serial {serial_p99})"
    );
    assert!(
        cont_goodput > serial_goodput,
        "continuous batching must raise goodput at overlapping load \
         (continuous {cont_goodput:.1} vs serial {serial_goodput:.1})"
    );
    println!(
        "gate passed: p99 {cont_p99} < {serial_p99}, goodput {cont_goodput:.1} > {serial_goodput:.1}"
    );

    // Faulted replay: the same highest-load trace against a DRAM channel
    // answering 4x slowly. Everything must still complete — slower, not
    // wedged — and the artifact pins by how much.
    let faulted_gpu = gpu
        .clone()
        .with_faults(FaultPlan::seeded(0xDEAD).with_event(
            FaultKind::DramChannelThrottle {
                channel: 0,
                latency_multiplier: 4,
            },
            0,
            PERMANENT,
        ));
    let faulted = serve(
        &faulted_gpu,
        LOADS[0],
        ArbitrationPolicy::Fifo,
        BatchingMode::Continuous,
    );
    println!("faulted (DRAM channel 0 throttled 4x):");
    print_arm("continuous fifo", &faulted);
    assert_eq!(
        faulted.timed_out(),
        0,
        "a throttled DRAM channel must degrade, not wedge, the serving path"
    );

    let mut faulted_entry = ObjWriter::new();
    faulted_entry
        .u64("mean_interarrival", LOADS[0])
        .u64("latency_multiplier", 4)
        .raw("continuous_fifo", &arm_json(&faulted));
    let mut doc = ObjWriter::new();
    doc.str("bench", "serving")
        .u64("clusters", CLUSTERS.into())
        .u64("tenants", 2)
        .u64("requests_per_tenant", PER_TENANT as u64)
        .raw("sweep", &write_array(&sweep_entries, String::clone))
        .raw("faulted_dram_throttle", &faulted_entry.finish());
    write_artifact("serve", &doc.finish());
}
