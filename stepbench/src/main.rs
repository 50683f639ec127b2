//! The repository benchmark. Drives the public `Trainer` of
//! `fpdt-core` in a closed loop (one client, one process, world 2) on one
//! of the workloads `BENCHMARK.json` names, checks its losses, and prints
//! the metrics as a table followed by one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path stepbench/Cargo.toml -- \
//!     --workload llama_bf16_ac --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced step ledger and reports the per-layer
//! metrics, writing `<workload>-seed<n>.ledger.json` and a Perfetto trace
//! into `--out` (default `stepbench/out`).

mod checks;
mod driver;
mod e2e;
mod ledger;
mod report;
mod stats;
mod sys;
mod traced;
mod workload;

use report::{Reported, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "tokens_per_s",
    "step_ms_p50",
    "step_ms_p90",
    "peak_rss_mib",
    "loss_final",
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: &[&str] = &[
    "trainer.step_ms",
    "driver.step_ms",
    "trainer.segment_ms",
    "trainer.unattributed_ms",
    "data.sample_ms",
    "gpt.fwd_bwd_ms",
    "gpt.grads_ms",
    "comm.allreduce_ms",
    "optim.step_ms",
    "comm.allgather_ms",
    "gpt.nonattn_ms",
    "exec.fwd_ms",
    "exec.bwd_ms",
    "exec.slot_skew_bwd",
    "exec.tiles_per_step",
    "attention.kernel_ms",
    "attention.flops_per_step",
    "comm.a2a_calls_per_step",
    "comm.a2a_bytes_per_step",
    "comm.a2a_wire_ms",
    "comm.a2a_exposed_ms",
    "comm.a2a_overlap_frac",
    "comm.allreduce_bytes_per_step",
    "comm.recv_wait_ms",
    "comm.retries_per_step",
    "offload.h2d_bytes_per_step",
    "offload.d2h_bytes_per_step",
    "offload.puts_per_step",
    "offload.fetches_per_step",
    "offload.exposed_ms",
    "offload.copy_busy_ms",
    "offload.copy_overlap_frac",
    "offload.prefetch_hit_ratio",
    "offload.pool_peak_kib",
    "optim.state_bytes",
    "ckpt.bytes",
    "ckpt.save_mib_per_s",
    "ckpt.resume_mib_per_s",
    "trace.overhead_frac",
];

/// Command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("stepbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The settings a result depends on beyond the workload itself.
/// (`apply_kernel_globals` on options without overrides changes nothing
/// and reports the current thread budget.)
pub fn environment_json() -> String {
    use report::{json_object, json_str};
    json_object(&[
        ("link_gbps", format!("{}", fpdt_trace::wire::link_gbps())),
        (
            "simd_backend",
            json_str(&format!("{:?}", fpdt_tensor::mk::backend())),
        ),
        (
            "kernel_threads",
            fpdt_core::runtime::RuntimeOptions::from_env()
                .apply_kernel_globals()
                .0
                .to_string(),
        ),
        (
            "par_threshold",
            fpdt_tensor::par::par_threshold().to_string(),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("world", workload::WORLD.to_string()),
    ])
}

/// Makes the process hermetic: refuses ambient `FPDT_*` knobs, sets the
/// simulated link before any engine starts, and pins the kernel thread
/// budget and split threshold.
fn pin_environment(w: &Workload) -> Result<(), String> {
    let ambient = sys::ambient_fpdt_vars();
    if !ambient.is_empty() {
        return Err(format!(
            "ambient {} would change the workload; unset it",
            ambient.join(", ")
        ));
    }
    std::env::set_var("FPDT_SIM_GBPS", workload::LINK_GBPS);
    let want: f64 = workload::LINK_GBPS.parse().map_err(|e| format!("{e}"))?;
    if fpdt_trace::wire::link_gbps() != want {
        return Err("the simulated link was read before it was set".into());
    }
    w.runtime().apply_kernel_globals();
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stepbench: {e}");
            eprintln!(
                "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        let names: Vec<_> = Workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "stepbench: unknown workload {} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Err(e) = pin_environment(&w) {
        eprintln!("stepbench: {e}");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("stepbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let mut tally = Tally::default();
    let mut metrics = if args.trace {
        traced::run(&w, args.seed, args.seconds, &args.out, &mut tally)
    } else {
        e2e::run(&w, args.seed, args.seconds, &args.out, &mut tally)
    };
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    for name in expected {
        match metrics.iter().find(|m| m.name == *name) {
            None => tally.check("metric reported", Err(format!("{name} is missing"))),
            Some(m) if !m.value.is_finite() => {
                tally.check("metric finite", Err(format!("{name} is {}", m.value)))
            }
            Some(_) => {}
        }
    }

    println!(
        "workload {} seed {} trace {}",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    println!("environment {}", environment_json());
    println!("checkpoint filesystem {}", sys::fs_type(&args.out));
    // failed_frac is shown in the table only: the JSON result carries
    // failures as `attempted`/`failed`.
    let mut shown = metrics.clone();
    shown.push(Reported {
        name: "failed_frac",
        unit: "ratio",
        value: tally.failed_frac(),
        summary: None,
    });
    print!("{}", report::table(&shown));
    for miss in &tally.misses {
        println!("FAILED {miss}");
    }
    metrics.retain(|m| expected.contains(&m.name));
    let correct = tally.failed == 0;
    println!("{}", report::result_json(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a = parse_args(&argv(
            "--workload fpdt_long --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "fpdt_long");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert_eq!(a.out, PathBuf::from("stepbench/out"));
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// Names listed under `key` in `BENCHMARK.json`, read with a minimal
    /// scan of `"name": "..."` entries inside that array.
    fn listed(doc: &str, key: &str) -> Vec<String> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let body = &doc[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(String::from))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        assert_eq!(listed(&doc, "end_to_end"), END_TO_END.to_vec());
        assert_eq!(listed(&doc, "per_layer"), PER_LAYER.to_vec());
        // Every listed workload exists; `fpdt_long` stays runnable by name
        // but is not listed (see METRICS.md).
        let listed_workloads = listed(&doc, "workloads");
        assert!(!listed_workloads.is_empty());
        for name in &listed_workloads {
            assert!(
                Workload::by_name(name).is_some(),
                "{name} is not a workload"
            );
        }
    }
}
