//! The four workloads and what they share: the set-up and measurement
//! loops, the traced query path, failure accounting and report counters.

pub mod grid;
pub mod serve_replay;
pub mod warm_store;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use virgo::{DesignKind, Gpu, SimKey, SimReport};
use virgo_bench::ReportDigest;
use virgo_sim::SplitMix64;
use virgo_sweep::{Query, SweepOutcome, SweepService};

use crate::pins;
use crate::trace::Tracer;

/// Set-up runs at least this many times per run; its median is `setup_s`.
const MIN_SETUPS: usize = 5;
/// Cheap set-ups repeat until this much time has gone, for a steadier median.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Upper bound on set-up repetitions.
const MAX_SETUPS: usize = 1000;

/// Run-wide settings and the tracer.
#[derive(Debug)]
pub struct Ctx {
    /// Drives every generated input.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Records spans on every other pass and runs the layer probes.
    pub tracer: Tracer,
    untraced: Tracer,
    /// Where run-time files go (span dumps, store entry directories).
    pub out_dir: PathBuf,
}

/// One timed operation of an untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Host wall-clock of the call.
    pub ms: f64,
    /// Simulated cycles of the result it returned.
    pub cycles: u64,
    /// The design that produced the result.
    pub design: DesignKind,
}

/// What the measurement loop collected.
#[derive(Debug, Default)]
pub struct Passes {
    /// Host seconds of each untraced pass.
    pub untraced_s: Vec<f64>,
    /// Host seconds of each traced pass.
    pub traced_s: Vec<f64>,
    /// Operations of the untraced passes.
    pub ops: Vec<OpSample>,
}

/// Operations attempted and failed, and correctness violations.
#[derive(Debug, Default)]
pub struct Accounting {
    /// Operations attempted, over every pass.
    pub attempted: u64,
    /// Operations that failed (see the README for what counts).
    pub failed: u64,
    /// Results that differ from the values pinned in `pins.rs`
    /// (informational, not a failure).
    pub digest_drift: u64,
    /// Outputs found wrong in a way that is not a failed operation.
    pub violations: Vec<String>,
}

impl Accounting {
    /// Records a correctness violation and prints it.
    pub fn violation(&mut self, what: String) {
        eprintln!("perfbench: incorrect output: {what}");
        self.violations.push(what);
    }

    /// Counts `report` as drifted when its cycles or digest differ from the
    /// pin filed under `label`, printing the new values so they can be
    /// re-pinned.
    pub fn check_pin(&mut self, label: &str, report: &SimReport) {
        let cycles = report.cycles().get();
        let digest = digest_hash(report);
        if pins::lookup(label) != Some((cycles, digest)) {
            self.digest_drift += 1;
            println!("digest drift: (\"{label}\", {cycles}, {digest:#018x}),");
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Run {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The measured passes.
    pub passes: Passes,
    /// Failures and violations.
    pub acct: Accounting,
    /// Per-layer values known for this workload (traced runs print them).
    pub layer: Vec<(String, f64)>,
    /// Workload-specific figures for the human-readable summary:
    /// name, value, unit.
    pub summary: Vec<(String, f64, &'static str)>,
}

impl Ctx {
    /// A context for one run.
    pub fn new(seed: u64, seconds: f64, trace: bool, out_dir: PathBuf) -> Self {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            untraced: Tracer::new(false),
            out_dir,
        }
    }

    /// A generator for this run's inputs; `stream` separates independent
    /// uses of the seed.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Runs `build` several times and keeps the last result; returns each
    /// run's host seconds. The previous result is dropped before the next
    /// build starts, so set-ups that hold resources never overlap.
    pub fn setup<T>(&self, mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
        let started = Instant::now();
        let mut times = Vec::new();
        let mut last: Option<T> = None;
        while times.len() < MIN_SETUPS
            || (times.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
        {
            drop(last.take());
            let t = Instant::now();
            last = Some(build());
            times.push(t.elapsed().as_secs_f64());
        }
        (times, last.expect("set-up ran at least once"))
    }

    /// Runs passes until the next one would overrun the budget, at least
    /// one untraced pass (and, when tracing, one traced pass). Traced runs
    /// alternate untraced and traced passes, so the difference of their
    /// medians is the tracing overhead. `pass` gets the tracer to use — a
    /// disabled one on untraced passes — and a sink for its operations.
    pub fn measure(&self, mut pass: impl FnMut(&Tracer, &mut Vec<OpSample>)) -> Passes {
        let started = Instant::now();
        let mut passes = Passes::default();
        let mut longest = 0.0f64;
        loop {
            let traced = self.tracer.enabled() && passes.untraced_s.len() > passes.traced_s.len();
            let tracer = if traced { &self.tracer } else { &self.untraced };
            let mut ops = Vec::new();
            let t = Instant::now();
            pass(tracer, &mut ops);
            let seconds = t.elapsed().as_secs_f64();
            longest = longest.max(seconds);
            if traced {
                passes.traced_s.push(seconds);
            } else {
                passes.untraced_s.push(seconds);
                passes.ops.extend(ops);
            }
            let enough = !passes.untraced_s.is_empty()
                && (!self.tracer.enabled() || !passes.traced_s.is_empty());
            if enough && started.elapsed().as_secs_f64() + longest > self.seconds {
                return passes;
            }
        }
    }

    /// The disabled tracer, for calls outside the measured passes.
    pub fn untraced(&self) -> &Tracer {
        &self.untraced
    }

    /// A fresh, empty directory under the output directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.out_dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a benchmark scratch directory");
        dir
    }
}

/// The short lower-case name metrics use for a design.
pub fn design_key(design: DesignKind) -> &'static str {
    match design {
        DesignKind::VoltaStyle => "volta",
        DesignKind::AmpereStyle => "ampere",
        DesignKind::HopperStyle => "hopper",
        DesignKind::Virgo => "virgo",
    }
}

/// FNV-1a over the report's digest JSON: one number that changes whenever
/// any digest-covered statistic does.
pub fn digest_hash(report: &SimReport) -> u64 {
    ReportDigest::of(report)
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

/// Answers `query` on `service`. Untraced, this is `SweepService::run`.
/// Traced, the benchmark makes the same calls `run` makes — build the
/// kernel, digest the key, look it up and otherwise simulate — each inside
/// its own span.
///
/// Returns `None` when the call panicked (a simulation error or a bug).
pub fn run_query(service: &SweepService, query: &Query, tracer: &Tracer) -> Option<SweepOutcome> {
    catch_unwind(AssertUnwindSafe(|| {
        if !tracer.enabled() {
            return service.run(query);
        }
        tracer.next_op();
        tracer.span("virgo-sweep", "SweepService::run", || {
            let (config, kernel, mode) = tracer.span("virgo-kernels", "Query::materialize", || {
                query.materialize()
            });
            let max_cycles = service.max_cycles();
            let key = tracer.span("virgo", "SimKey::digest", || {
                SimKey::digest(&config, &kernel, max_cycles, mode)
            });
            let (report, from_cache) =
                tracer.span("virgo-sweep", "ReportCache::get_or_compute", || {
                    service.cache().get_or_compute(key, || {
                        let name = format!("Gpu::run_with_mode/{}", design_key(config.design));
                        tracer.span("virgo", name, || {
                            Gpu::new(config.clone())
                                .run_with_mode(&kernel, max_cycles, mode)
                                .unwrap_or_else(|e| panic!("{query}: {e}"))
                        })
                    })
                });
            SweepOutcome {
                query: query.clone(),
                report,
                from_cache,
            }
        })
    }))
    .ok()
}

/// Sums of the simulator counters of a set of reports, for the per-layer
/// metrics. Scheduler counters are zero in job-table reports (serving).
pub fn report_counters(reports: &[&SimReport]) -> Vec<(String, f64)> {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let instructions = sum(&|r| r.instructions_retired());
    let simt_events = sum(&|r| r.sched_stats().simt_events);
    let processed = sum(&|r| r.sched_stats().processed_cycles);
    let skipped = sum(&|r| r.sched_stats().skipped_cycles);
    let macs_of = |virgo: bool| {
        sum(&|r| {
            if (r.design() == DesignKind::Virgo) == virgo {
                r.performed_macs()
            } else {
                0
            }
        })
    };
    // Aggregate utilization: performed MACs over the summed MAC capacity
    // (capacity = performed / utilization, per report).
    let capacity: f64 = reports
        .iter()
        .filter(|r| r.mac_utilization().as_fraction() > 0.0)
        .map(|r| r.performed_macs() as f64 / r.mac_utilization().as_fraction())
        .sum();
    let performed = sum(&|r| r.performed_macs());
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    vec![
        ("simt.instructions_retired", instructions as f64),
        (
            "simt.core_ticks_per_instr",
            ratio(simt_events, instructions),
        ),
        (
            "simt.fence_poll_instructions",
            sum(&|r| r.fence_poll_instructions()) as f64,
        ),
        ("sched.events.simt", simt_events as f64),
        (
            "sched.events.tensor",
            sum(&|r| r.sched_stats().tensor_events) as f64,
        ),
        ("tensor.macs", macs_of(false) as f64),
        (
            "sched.events.gemmini",
            sum(&|r| r.sched_stats().gemmini_events) as f64,
        ),
        (
            "sched.events.dma",
            sum(&|r| r.sched_stats().dma_events) as f64,
        ),
        (
            "sched.events.dsm",
            sum(&|r| r.sched_stats().dsm_events) as f64,
        ),
        ("gemmini.macs", macs_of(true) as f64),
        (
            "mac_utilization",
            if capacity > 0.0 {
                100.0 * performed as f64 / capacity
            } else {
                0.0
            },
        ),
        ("mem.dram_bytes", sum(&|r| r.dram_bytes()) as f64),
        (
            "mem.dram_contention_stall_cycles",
            sum(&|r| r.dram_contention_stall_cycles()) as f64,
        ),
        ("mem.dsm_bytes", sum(&|r| r.dsm_bytes()) as f64),
        (
            "mem.dsm_stall_cycles",
            sum(&|r| r.dsm_stats().stall_cycles) as f64,
        ),
        ("sched.processed_cycles", processed as f64),
        ("sched.skipped_cycles", skipped as f64),
        ("sched.skip_ratio", ratio(skipped, processed + skipped)),
        (
            "sched.bailout_engagements",
            sum(&|r| r.sched_stats().bailout_engagements) as f64,
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// Scheduler events of one report: the denominator of ns per event.
pub fn sched_events(report: &SimReport) -> u64 {
    let s = report.sched_stats();
    s.simt_events + s.gemmini_events + s.tensor_events + s.dma_events + s.dsm_events
}
