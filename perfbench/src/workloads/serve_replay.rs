//! `serve_replay`: seeded two-tenant request traces replayed with
//! continuous batching and FIFO arbitration on a 4-cluster Virgo machine.
//!
//! This drives the machine through `JobTable` rather than `Gpu::run`. In
//! simulated time each trace is an open loop (arrivals do not wait for
//! completions); on the host each pass is one closed `Server::run` call.
//!
//! Host time per replay depends strongly on the trace: how requests overlap
//! decides how many cycles the job table steps. So the seed drives a stream
//! of traces, pass `i` replays trace `i`, and `run_s` is a median over many
//! traces rather than the cost of one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use virgo::{DesignKind, Gpu, GpuConfig, SimMode, SimReport};
use virgo_kernels::{AttentionShape, GemmShape};
use virgo_serve::{
    generate_trace, ArbitrationPolicy, BatchingMode, Request, RequestClass, RequestOutcome,
    ServeConfig, ServeReport, Server, TenantSpec,
};

use super::{report_counters, Accounting, Ctx, OpSample, Run};
use crate::stats::{median, tail};

const CLUSTERS: u32 = 4;
/// The `serving` bench's heaviest offered load: mean gap per tenant, cycles.
const MEAN_GAP: u64 = 20_000;
/// Requests per tenant and trace, as in the `serving` bench.
const PER_TENANT: usize = 12;
/// Traces generated in set-up; passes cycle through them.
const TRACES: usize = 400;
/// The simulated serving figures pool this many traces' requests.
const STAT_TRACES: usize = 8;

/// The `serving` bench's tenants: small interactive requests on one
/// cluster, and larger batch GEMMs on two.
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("interactive", MEAN_GAP).with_classes(vec![
            RequestClass::Gemm(GemmShape::square(128)),
            RequestClass::Attention(AttentionShape {
                seq_len: 128,
                head_dim: 64,
                heads: 1,
                batch: 1,
            }),
        ]),
        TenantSpec::new("batch", MEAN_GAP)
            .with_classes(vec![RequestClass::Gemm(GemmShape::square(256))])
            .with_clusters(2),
    ]
}

/// Runs the workload: set-up generates the seeded traces; pass `i` replays
/// trace `i` on a fresh job table.
pub fn run(ctx: &Ctx) -> Run {
    let (setup_s, traces) = ctx.setup(|| {
        let mut rng = ctx.rng(4);
        let tenants = tenants();
        (0..TRACES)
            .map(|_| generate_trace(&tenants, PER_TENANT, rng.next_u64()))
            .collect::<Vec<Vec<Request>>>()
    });
    let server = Server::new(
        ServeConfig::new(GpuConfig::virgo().with_clusters(CLUSTERS))
            .with_policy(ArbitrationPolicy::Fifo)
            .with_batching(BatchingMode::Continuous),
    );
    let mut acct = Accounting::default();
    let mut replayed = 0usize;
    let mut pooled: Vec<ServeReport> = Vec::new();
    let passes = ctx.measure(|tracer, ops| {
        let trace = &traces[replayed % TRACES];
        replayed += 1;
        let Some((ms, report)) = replay(&server, trace, tracer, &mut acct) else {
            return;
        };
        ops.push(OpSample {
            ms,
            cycles: report.makespan_cycles,
            design: DesignKind::Virgo,
        });
        if pooled.len() < STAT_TRACES {
            pooled.push(report);
        }
    });

    // Replaying the first trace again must give the same simulated result;
    // its host time is set against standalone runs in the probe below.
    let again = replay(&server, &traces[0], ctx.untraced(), &mut acct);
    if let (Some(first), Some((_, again))) = (pooled.first(), &again) {
        if (first.makespan_cycles, first.p50_latency_cycles)
            != (again.makespan_cycles, again.p50_latency_cycles)
        {
            acct.violation("replaying a trace changed its result".into());
        }
    }

    let mut layer = served_figures(&pooled);
    let mut summary = Vec::new();
    for (name, unit) in [
        ("serve_p50_cycles", "cycles"),
        ("serve_p90_cycles", "cycles"),
        ("serve_goodput_rps", "req/s"),
    ] {
        if let Some((_, value)) = layer.iter().find(|(n, _)| n == name) {
            summary.push((format!("{name} ({} traces)", pooled.len()), *value, unit));
        }
    }
    layer.push(("serve.trace_gen_ms".into(), median(&setup_s).value * 1e3));

    if let (true, Some((replay_ms, _))) = (ctx.tracer.enabled(), again) {
        layer.extend(probe(ctx, &traces[0], replay_ms, &mut acct));
    }

    Run {
        setup_s,
        passes,
        acct,
        layer,
        summary,
    }
}

/// Serves one trace, accounting its requests; returns the host time in ms
/// and the report, or `None` when the call panicked.
fn replay(
    server: &Server,
    trace: &[Request],
    tracer: &crate::trace::Tracer,
    acct: &mut Accounting,
) -> Option<(f64, ServeReport)> {
    tracer.next_op();
    let started = Instant::now();
    let served = catch_unwind(AssertUnwindSafe(|| {
        tracer.span("virgo-serve", "Server::run", || server.run(trace))
    }));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    acct.attempted += trace.len() as u64;
    let Ok(report) = served else {
        acct.failed += trace.len() as u64;
        return None;
    };
    acct.failed += report.outcomes.iter().filter(|o| !succeeded(o)).count() as u64;
    if report.outcomes.len() != trace.len() {
        acct.violation(format!(
            "{} outcomes for {} requests",
            report.outcomes.len(),
            trace.len()
        ));
    }
    Some((ms, report))
}

/// The simulated serving figures over the pooled traces' requests.
fn served_figures(pooled: &[ServeReport]) -> Vec<(String, f64)> {
    let outcomes = || {
        pooled
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter(|o| !o.timed_out)
    };
    let latencies: Vec<f64> = outcomes().map(|o| o.latency() as f64).collect();
    let delays: Vec<f64> = outcomes().map(|o| o.queue_delay() as f64).collect();
    if latencies.is_empty() {
        return Vec::new();
    }
    let reports: Vec<&SimReport> = outcomes().filter_map(|o| o.report.as_ref()).collect();
    let mut figures = report_counters(&reports);
    let sum = |f: fn(&ServeReport) -> u64| pooled.iter().map(f).sum::<u64>();
    let busy = sum(|r| r.busy_cluster_cycles);
    let idle = sum(|r| r.idle_cluster_cycles);
    let goodput = pooled.iter().map(|r| r.goodput_rps).sum::<f64>() / pooled.len() as f64;
    figures.extend([
        ("serve_p50_cycles".to_string(), median(&latencies).value),
        ("serve_p90_cycles".into(), tail(&latencies, 0.9).value),
        ("serve_goodput_rps".into(), goodput),
        ("serve.queue_delay_p50_cycles".into(), median(&delays).value),
        (
            "serve.queue_delay_p90_cycles".into(),
            tail(&delays, 0.9).value,
        ),
        (
            "serve.completed".into(),
            sum(|r| r.completed() as u64) as f64,
        ),
        (
            "serve.timed_out".into(),
            sum(|r| r.timed_out() as u64) as f64,
        ),
        (
            "serve.makespan_cycles".into(),
            sum(|r| r.makespan_cycles) as f64,
        ),
        (
            "serve.busy_cluster_share".into(),
            busy as f64 / (busy + idle).max(1) as f64,
        ),
    ]);
    figures
}

/// Runs every request kernel of `trace` standalone, on a machine of the
/// request's size, so the job table's host cost can be set against plain
/// `Gpu` runs of the same kernels.
fn probe(
    ctx: &Ctx,
    trace: &[Request],
    replay_ms: f64,
    acct: &mut Accounting,
) -> Vec<(String, f64)> {
    let tracer = &ctx.tracer;
    tracer.set_phase("probe");
    for request in trace {
        tracer.next_op();
        let config = GpuConfig::virgo().with_clusters(request.clusters.clamp(1, CLUSTERS));
        let kernel = tracer.span("virgo-kernels", "RequestClass::build", || {
            request.class.build(&config)
        });
        let standalone = tracer.span("virgo", "Gpu::run_with_mode/virgo", || {
            Gpu::new(config).run_with_mode(&kernel, request.budget, SimMode::FastForward)
        });
        if standalone.is_err() {
            acct.violation(format!("request {} fails standalone", request.id));
        }
    }
    let total_ms = |name: &str| tracer.durations_ns("probe", name).iter().sum::<u64>() as f64 / 1e6;
    vec![
        (
            "serve.overhead_ratio".into(),
            replay_ms / total_ms("Gpu::run_with_mode").max(1e-9),
        ),
        ("kernels.build_ms".into(), total_ms("RequestClass::build")),
    ]
}

/// A request fails when it timed out, or when it is a GEMM whose matrix
/// units did not perform every MAC of its kernel.
fn succeeded(outcome: &RequestOutcome) -> bool {
    match (&outcome.report, outcome.timed_out) {
        (Some(report), false) => {
            !outcome.label.starts_with("gemm:") || report.performed_macs() == report.kernel_macs()
        }
        _ => false,
    }
}
