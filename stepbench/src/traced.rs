//! The traced run: per-layer metrics of one workload. It times the
//! `Trainer` (untraced), then drives the same steps twice from public
//! calls — once untraced, once with a recorder attached — and folds the
//! traced pass into the step ledger.

use crate::checks;
use crate::driver::{self, ms_since, RankOut};
use crate::e2e::{ckpt_cycle, WARMUP_STEPS};
use crate::ledger::{self, TraceInputs};
use crate::report::{self, Reported, Tally};
use crate::stats::median;
use crate::workload::{Workload, WORLD};
use fpdt_attention::flops::{attention_tile_bwd_flops, attention_tile_fwd_flops};
use fpdt_core::runtime::dist::Trainer;
use fpdt_trace::Recorder;
use std::path::Path;
use std::time::Instant;

/// Fewest timed steps per pass.
const MIN_TRACE_STEPS: usize = 20;
/// Checkpoint/resume cycles the `ckpt.*` rows are measured over.
const CKPT_CYCLES: usize = 5;

/// Timed steps per pass: the budget is shared by the Trainer pass and
/// the two driver passes.
pub fn traced_steps(w: &Workload, seconds: u64) -> usize {
    ((seconds as f64 / (3.0 * w.nominal_step_s)).ceil() as usize).max(MIN_TRACE_STEPS)
}

/// Attention FLOPs one rank computes per step: every causal
/// `(q_chunk, kv_chunk)` tile of every layer over the rank's heads,
/// forward (twice under activation checkpointing) and backward.
pub fn attention_flops(w: &Workload) -> f64 {
    let u = w.chunks() as u64;
    let c = (w.seq / w.chunks()) as u64;
    let h = (w.model.heads / WORLD) as u64;
    let d = (w.model.hidden / w.model.heads) as u64;
    let tiles = u * (u + 1) / 2;
    let fwd_passes = if w.activation_checkpoint { 2 } else { 1 };
    let per_layer = tiles
        * (fwd_passes * attention_tile_fwd_flops(c, c, h, d)
            + attention_tile_bwd_flops(c, c, h, d));
    (per_layer * w.model.layers as u64) as f64
}

/// Losses every rank of a driver pass agreed on, or the disagreement.
fn rank_losses(pass: &str, ranks: &[RankOut], tally: &mut Tally) -> Vec<f32> {
    for (r, out) in ranks.iter().enumerate() {
        if let Some(e) = &out.error {
            tally.check(&format!("{pass} driver rank {r}"), Err(e.clone()));
        }
    }
    let first = ranks.first().map(|r| r.losses.clone()).unwrap_or_default();
    for (r, out) in ranks.iter().enumerate().skip(1) {
        tally.check(
            &format!("{pass} driver rank {r} agrees with rank 0"),
            checks::bitwise(&out.losses, &first),
        );
    }
    first
}

/// Runs the traced benchmark of `w`, returning the per-layer metrics and
/// writing the ledger (one file per seed) and a Perfetto trace of the
/// latest traced run (one file per workload) into `out`.
pub fn run(w: &Workload, seed: u64, seconds: u64, out: &Path, tally: &mut Tally) -> Vec<Reported> {
    let steps = traced_steps(w, seconds);
    let cfg = w.config(seed, w.mode);

    // 1. The Trainer itself, untraced: one run_steps(1) per sample.
    let mut trainer = Trainer::new(cfg);
    for _ in 0..WARMUP_STEPS {
        tally.op("run_steps", trainer.run_steps(1));
    }
    let mut trainer_ms = Vec::with_capacity(steps);
    for _ in 0..steps {
        let t0 = Instant::now();
        tally.op("run_steps", trainer.run_steps(1));
        trainer_ms.push(ms_since(t0));
    }
    let trainer_losses = trainer.report().losses;

    // 2. Checkpoint throughput on the Trainer's final state.
    let ckpt_dir = out.join(format!("ckpt-{}-{}", w.name, std::process::id()));
    let (mut save_ms, mut resume_ms) = (Vec::new(), Vec::new());
    for _ in 0..CKPT_CYCLES {
        if let Some((s, r)) = ckpt_cycle(w, &mut trainer, &ckpt_dir, tally) {
            save_ms.push(s);
            resume_ms.push(r);
        }
    }
    let ckpt_bytes: u64 = std::fs::read_dir(&ckpt_dir)
        .map(|d| {
            d.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };

    // 3. The driver, untraced, then traced, over the same steps.
    let plain = driver::drive(w, seed, WARMUP_STEPS, steps, None);
    let plain_losses = rank_losses("untraced", &plain, tally);
    let rec = Recorder::new();
    let traced = driver::drive(w, seed, WARMUP_STEPS, steps, Some(&rec));
    let traced_losses = rank_losses("traced", &traced, tally);
    tally.check(
        "untraced driver reproduces the Trainer's losses bitwise",
        checks::bitwise(&plain_losses, &trainer_losses),
    );
    tally.check(
        "traced driver reproduces the Trainer's losses bitwise",
        checks::bitwise(&traced_losses, &trainer_losses),
    );

    let from_us = traced
        .iter()
        .map(|r| r.timed_from_us)
        .fold(f64::INFINITY, f64::min);
    let records: Vec<_> = rec
        .records()
        .into_iter()
        .filter(|s| s.start_us >= from_us)
        .collect();
    let walls = |pass: &[RankOut]| -> Vec<f64> {
        pass.iter()
            .flat_map(|r| r.rows.iter().map(|x| x.wall))
            .collect()
    };
    let (metrics, ledger) = ledger::per_layer(&TraceInputs {
        trainer_step_ms: med(&trainer_ms),
        untraced_step_ms: med(&walls(&plain)),
        traced_step_ms: med(&walls(&traced)),
        traced: &traced,
        records: &records,
        steps,
        chunks: w.chunks(),
        attention_flops: attention_flops(w),
        ckpt: (ckpt_bytes, med(&save_ms), med(&resume_ms)),
    });
    tally.check("ledger closes", ledger.check());

    write_artifacts(out, w, seed, steps, &metrics, &ledger, &rec, tally);
    metrics
}

#[allow(clippy::too_many_arguments)]
fn write_artifacts(
    out: &Path,
    w: &Workload,
    seed: u64,
    steps: usize,
    metrics: &[Reported],
    ledger: &ledger::Ledger,
    rec: &Recorder,
    tally: &mut Tally,
) {
    let closure = report::json_object(&[
        ("wall_ms", format!("{}", ledger.wall)),
        (
            "rows_ms",
            report::json_object(
                &ledger
                    .rows
                    .iter()
                    .map(|(n, v)| (*n, format!("{v}")))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("unattributed_ms", format!("{}", ledger.unattributed)),
        ("rows_plus_unattributed_ms", format!("{}", ledger.total())),
    ]);
    let doc = report::json_object(&[
        ("workload", report::json_str(w.name)),
        ("seed", seed.to_string()),
        ("steps", steps.to_string()),
        ("world", WORLD.to_string()),
        ("environment", crate::environment_json()),
        ("checkpoint_fs", report::json_str(&crate::sys::fs_type(out))),
        ("ledger", closure),
        ("per_layer", report::metrics_json(metrics)),
    ]);
    let res = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join(format!("{}-seed{seed}.ledger.json", w.name)), doc))
        .and_then(|()| {
            std::fs::write(
                out.join(format!("{}.trace.json", w.name)),
                rec.chrome_trace_json(),
            )
        });
    tally.op("write ledger and trace", res);
}
