//! The untraced run: end-to-end metrics of one workload through the
//! public `Trainer`, one client in a closed loop, plus the correctness
//! checks on its loss trajectory.

use crate::checks;
use crate::driver::ms_since;
use crate::report::{self, Reported, Tally};
use crate::stats::{highest_supported_percentile, mean, quantile, sorted, Summary};
use crate::sys;
use crate::workload::Workload;
use fpdt_core::runtime::dist::{Mode, Trainer};
use std::path::Path;
use std::time::Instant;

/// Untimed steps each set-up runs after `Trainer::new`.
pub const WARMUP_STEPS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed steps, so that ten samples lie beyond the p90.
pub const MIN_STEPS: usize = 100;
/// Checkpoint/resume cycles run on the final state after the loop.
const POST_CKPT_CYCLES: usize = 10;
/// Timed steps `loss_final` averages over, so that it reflects the
/// model rather than the noise of one batch.
const LOSS_WINDOW: usize = 20;
/// Steps after warm-up that the reference trajectories cover; past the
/// first in-loop checkpoint of `ulysses_dense`.
const CHECK_STEPS: usize = 12;

/// Timed steps for a `seconds` budget.
pub fn timed_steps(w: &Workload, seconds: u64) -> usize {
    ((seconds as f64 / w.nominal_step_s).ceil() as usize).max(MIN_STEPS)
}

/// Checkpoints `trainer` into `dir`, then replaces it with the resumed
/// session and re-applies the pinned runtime options (resume reads its
/// knobs from the environment by design). Returns `(save_ms, resume_ms)`
/// when both succeed.
pub fn ckpt_cycle(
    w: &Workload,
    trainer: &mut Trainer,
    dir: &Path,
    tally: &mut Tally,
) -> Option<(f64, f64)> {
    let t0 = Instant::now();
    tally.op("checkpoint", trainer.checkpoint(dir))?;
    let save = ms_since(t0);
    let t1 = Instant::now();
    let mut resumed = tally.op("resume", Trainer::resume(dir))?;
    resumed.set_runtime(w.runtime());
    let resume = ms_since(t1);
    *trainer = resumed;
    Some((save, resume))
}

/// The `p`-quantile of `samples` with their summary; NaN (which fails
/// the run) when there are none.
fn summarized(name: &'static str, unit: &'static str, samples: &[f64], p: f64) -> Reported {
    if samples.is_empty() {
        return Reported {
            name,
            unit,
            value: f64::NAN,
            summary: None,
        };
    }
    Reported {
        name,
        unit,
        value: quantile(&sorted(samples), p),
        summary: Some(Summary::of(samples)),
    }
}

/// Runs the untraced benchmark of `w` for `seconds`, returning the
/// end-to-end metrics and writing every sample they were taken from to
/// `<workload>-seed<n>.samples.json` in `out`.
pub fn run(w: &Workload, seed: u64, seconds: u64, out: &Path, tally: &mut Tally) -> Vec<Reported> {
    let cfg = w.config(seed, w.mode);
    let ckpt_dir = out.join(format!("ckpt-{}-{}", w.name, std::process::id()));

    // Set-up: Trainer::new plus the warm-up steps, several times; every
    // repeat must produce the same warm-up losses.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut warm_digests = Vec::with_capacity(SETUP_REPEATS);
    let mut trainer = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut t = Trainer::new(cfg.clone());
        for _ in 0..WARMUP_STEPS {
            tally.op("run_steps", t.run_steps(1));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        warm_digests.push(checks::digest(&t.report().losses));
        trainer = Some(t);
    }
    let mut trainer = trainer.expect("at least one set-up");
    tally.check(
        "warm-up losses repeat bitwise across set-ups",
        if warm_digests.windows(2).all(|p| p[0] == p[1]) {
            Ok(())
        } else {
            Err(format!("digests {warm_digests:x?}"))
        },
    );

    // Timed loop: consecutive run_steps(1) calls, with the checkpoint
    // cycle of workloads that have one.
    let steps = timed_steps(w, seconds);
    let mut step_ms = Vec::with_capacity(steps);
    let mut step_peak_mib = Vec::with_capacity(steps);
    let (mut save_ms, mut resume_ms) = (Vec::new(), Vec::new());
    let t_loop = Instant::now();
    for k in 0..steps {
        let peak_reset = sys::reset_peak_rss();
        let t0 = Instant::now();
        tally.op("run_steps", trainer.run_steps(1));
        step_ms.push(ms_since(t0));
        if let Some(mib) = sys::peak_rss_mib().filter(|_| peak_reset) {
            step_peak_mib.push(mib);
        }
        if w.ckpt_every.is_some_and(|every| (k + 1) % every == 0) {
            if let Some((s, r)) = ckpt_cycle(w, &mut trainer, &ckpt_dir, tally) {
                save_ms.push(s);
                resume_ms.push(r);
            }
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    tally.check(
        "p90 has ten samples beyond it",
        match highest_supported_percentile(step_ms.len()) {
            Some(p) if p >= 90.0 => Ok(()),
            _ => Err(format!("only {} timed steps", step_ms.len())),
        },
    );
    let losses = trainer.report().losses;

    // More cycles on the final state; the resumed session must carry
    // every loss over.
    for _ in 0..POST_CKPT_CYCLES {
        if let Some((s, r)) = ckpt_cycle(w, &mut trainer, &ckpt_dir, tally) {
            save_ms.push(s);
            resume_ms.push(r);
        }
    }
    tally.check(
        "resumed session keeps the loss history",
        checks::bitwise(&trainer.report().losses, &losses),
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // Reference trajectories over the first steps.
    let prefix = (WARMUP_STEPS + CHECK_STEPS).min(losses.len());
    let mut uninterrupted = Trainer::new(cfg.clone());
    if tally
        .op("run_steps", uninterrupted.run_steps(prefix))
        .is_some()
    {
        tally.check(
            "trajectory equals an uninterrupted Trainer bitwise",
            checks::bitwise(&losses[..prefix], &uninterrupted.report().losses),
        );
    }
    let mut single = Trainer::new(w.config(seed, Mode::Single));
    if tally.op("run_steps", single.run_steps(prefix)).is_some() {
        let (base, tol) = (single.report().losses, w.baseline_tolerance());
        println!(
            "single-device baseline: largest relative loss gap {:e} over {prefix} steps (tolerance {tol:e})",
            checks::max_rel_gap(&losses[..prefix], &base)
        );
        tally.check(
            "trajectory matches the single-device baseline",
            checks::close(&losses[..prefix], &base, tol),
        );
    }
    tally.check("losses are finite", checks::finite(&losses));
    tally.check(
        "loss digest equals earlier runs of this seed",
        checks::against_recorded(
            &out.join("digests"),
            &format!("{}-seed{seed}-steps{}", w.name, losses.len()),
            checks::digest(&losses),
        ),
    );
    tally.check(
        "peak RSS measured on every timed step",
        if step_peak_mib.len() == steps {
            Ok(())
        } else {
            Err("/proc/self/clear_refs or VmHWM unavailable".into())
        },
    );

    let list = |v: &[f64]| {
        format!(
            "[{}]",
            v.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let samples = report::json_object(&[
        ("workload", report::json_str(w.name)),
        ("seed", seed.to_string()),
        ("environment", crate::environment_json()),
        ("checkpoint_fs", report::json_str(&sys::fs_type(out))),
        ("setup_s", list(&setup_s)),
        ("step_ms", list(&step_ms)),
        ("step_peak_rss_mib", list(&step_peak_mib)),
        ("ckpt_save_ms", list(&save_ms)),
        ("resume_ms", list(&resume_ms)),
        (
            "losses",
            list(&losses.iter().map(|&l| f64::from(l)).collect::<Vec<_>>()),
        ),
    ]);
    tally.op(
        "write samples",
        std::fs::write(
            out.join(format!("{}-seed{seed}.samples.json", w.name)),
            samples,
        ),
    );

    let tokens = (steps * w.seq) as f64;
    let last_losses: Vec<f64> = losses[losses.len().saturating_sub(LOSS_WINDOW)..]
        .iter()
        .map(|&l| f64::from(l))
        .collect();
    vec![
        summarized("setup_s", "s", &setup_s, 0.5),
        Reported {
            name: "tokens_per_s",
            unit: "tokens/s",
            value: tokens / loop_s,
            summary: None,
        },
        summarized("step_ms_p50", "ms", &step_ms, 0.5),
        summarized("step_ms_p90", "ms", &step_ms, 0.9),
        summarized("peak_rss_mib", "MiB", &step_peak_mib, 0.5),
        Reported {
            name: "loss_final",
            unit: "nats",
            value: mean(&last_losses),
            summary: Some(Summary::of(&last_losses)),
        },
        summarized("ckpt_save_ms_p50", "ms", &save_ms, 0.5),
        summarized("resume_ms_p50", "ms", &resume_ms, 0.5),
    ]
}
