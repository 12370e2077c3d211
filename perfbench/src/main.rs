//! The workspace benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes and prints the per-layer metrics,
//! including the tracing overhead, and writes every span to
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod fidelity;
mod metrics;
mod pins;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{result_line, Metrics, END_TO_END, PER_LAYER, TRACED_LAYERS};
use stats::{median, tail};
use workloads::{grid, serve_replay, warm_store, Ctx, Run};

const USAGE: &str =
    "usage: perfbench --workload <paper_grid|scaleout|serve_replay|warm_store> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

fn end_to_end(run: &Run) -> Metrics {
    let mut m = Metrics::new(&END_TO_END);
    let passes = &run.passes.untraced_s;
    m.set("setup_s", median(&run.setup_s).value);
    m.set("run_s", median(passes).value);
    m.set("run_tail_s", tail(passes, 0.9).value);
    m.set("peak_rss_mb", peak_rss_mb());
    let ops = &run.passes.ops;
    let cycles: u64 = ops.iter().map(|o| o.cycles).sum();
    let ms: f64 = ops.iter().map(|o| o.ms).sum();
    if ms > 0.0 {
        m.set("mcyc_per_s", cycles as f64 / ms / 1e3);
    }
    m
}

fn per_layer(ctx: &Ctx, run: &Run) -> Metrics {
    let mut m = Metrics::new(&PER_LAYER);
    for (name, value) in &run.layer {
        m.set(name, *value);
    }
    m.set("digest_drift", run.acct.digest_drift as f64);
    let traced = run.passes.traced_s.len().max(1) as f64;
    let totals = ctx.tracer.layer_totals("pass");
    for layer in TRACED_LAYERS {
        let (ns, calls) = totals.get(layer).copied().unwrap_or((0, 0));
        m.set(&format!("layer.self_ms.{layer}"), ns as f64 / 1e6 / traced);
        m.set(&format!("layer.calls.{layer}"), calls as f64 / traced);
    }
    if !run.passes.traced_s.is_empty() {
        let overhead = median(&run.passes.traced_s).value - median(&run.passes.untraced_s).value;
        m.set("trace.overhead_s", overhead);
    }
    m
}

fn print_summary(args: &Args, run: &Run, e2e: &Metrics) {
    let acct = &run.acct;
    println!(
        "{} seed {}: {} untraced + {} traced passes, {} ops attempted, {} failed, digest_drift {}",
        args.workload,
        args.seed,
        run.passes.untraced_s.len(),
        run.passes.traced_s.len(),
        acct.attempted,
        acct.failed,
        acct.digest_drift
    );
    let passes = &run.passes.untraced_s;
    let samples = |name: &str| match name {
        "setup_s" => format!("median of {}", run.setup_s.len()),
        "run_s" => {
            let (lo, hi) = passes
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
            format!("median of {} passes, {lo:.4} to {hi:.4}", passes.len())
        }
        "run_tail_s" => {
            let p = tail(passes, 0.9);
            format!("p{:.1} of {} passes", p.percentile, p.samples)
        }
        _ => String::new(),
    };
    for (name, unit) in END_TO_END {
        let value = e2e.get(name).expect("end-to-end metric");
        println!("  {name:<14} {value:>14.4} {unit:<7} {}", samples(name));
    }
    for (name, value, unit) in &run.summary {
        println!("  {name} = {value:.4} {unit}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let ctx = Ctx::new(args.seed, args.seconds, args.trace, out_dir);
    let run = match args.workload.as_str() {
        "paper_grid" => grid::run(&ctx, grid::paper_grid_points),
        "scaleout" => grid::run(&ctx, grid::scaleout_points),
        "serve_replay" => serve_replay::run(&ctx),
        "warm_store" => warm_store::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let e2e = end_to_end(&run);
    print_summary(&args, &run, &e2e);
    let metrics = if args.trace {
        let path = ctx
            .out_dir
            .join(format!("{}-seed{}.spans.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&ctx.out_dir).and_then(|()| ctx.tracer.write_json(&path))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
        per_layer(&ctx, &run)
    } else {
        e2e
    };
    let acct = &run.acct;
    let correct = acct.failed == 0 && acct.violations.is_empty();
    println!(
        "{}",
        result_line(correct, acct.attempted, acct.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "scaleout",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workload, "scaleout");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_missing_or_malformed_arguments() {
        assert!(args(&["--workload", "scaleout"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
