//! Segmentation invariance of the resident-replica `Trainer`.
//!
//! A `Trainer` keeps every rank's model, optimizer and data stream
//! resident between `run_steps` calls, so how a run is cut into segments
//! must be invisible: `n` calls of `run_steps(1)` (one optimizer window
//! each) equal one `run_steps(n)` bit for bit — losses, last-window
//! gradients, communication and host-pool counters, optimizer-state
//! bytes, and the checkpoint shards written afterwards.

use fpdt_core::runtime::dist::{Mode, TrainConfig, TrainReport, Trainer};
use fpdt_core::runtime::options::RuntimeOptions;
use std::path::{Path, PathBuf};

const STEPS: usize = 4;

/// Runtime knobs pinned so ambient `FPDT_*` legs cannot skew a case:
/// fault injection is armed per segment, so it must stay off when the
/// two sides of a comparison run different segment counts.
fn runtime(payload_bf16: bool) -> RuntimeOptions {
    RuntimeOptions::from_env()
        .with_payload_bf16(payload_bf16)
        .with_fault_inject(0)
        .with_comm_retries(0)
}

fn cfg(mode: Mode, world: usize) -> TrainConfig {
    TrainConfig {
        world,
        steps: STEPS,
        mode,
        runtime: runtime(false),
        ..TrainConfig::small(Mode::Single)
    }
}

fn fpdt(chunks: usize, offload: bool) -> Mode {
    Mode::Fpdt { chunks, offload }
}

/// One segment of `steps` micro-steps.
fn whole(cfg: &TrainConfig, steps: usize) -> Trainer {
    let mut t = Trainer::new(cfg.clone());
    t.run_steps(steps).expect("one segment");
    t
}

/// One segment per optimizer window.
fn windowed(cfg: &TrainConfig, steps: usize) -> Trainer {
    let accum = cfg.grad_accum.max(1);
    let mut t = Trainer::new(cfg.clone());
    for _ in 0..steps / accum {
        t.run_steps(accum).expect("one window");
    }
    t
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise(a: &TrainReport, b: &TrainReport, what: &str) {
    assert!(!a.losses.is_empty() && !a.grads.is_empty(), "{what}: ran");
    assert_eq!(bits(&a.losses), bits(&b.losses), "loss bits ({what})");
    assert_eq!(bits(&a.grads), bits(&b.grads), "gradient bits ({what})");
    assert_eq!(a.comm, b.comm, "comm counters ({what})");
    assert_eq!(a.host, b.host, "host-pool counters ({what})");
    assert_eq!(a.opt_state_bytes, b.opt_state_bytes, "opt state ({what})");
}

fn assert_segmentation_invariant(cfg: &TrainConfig, what: &str) {
    let one = whole(cfg, cfg.steps).report();
    let many = windowed(cfg, cfg.steps).report();
    assert_bitwise(&one, &many, what);
}

#[test]
fn ulysses_zero1_is_segmentation_invariant_at_world_2_and_4() {
    for world in [2, 4] {
        let cfg = TrainConfig {
            zero_shard: true,
            ..cfg(Mode::Ulysses, world)
        };
        assert_segmentation_invariant(&cfg, &format!("ulysses zero-1 world {world}"));
    }
}

#[test]
fn ring_is_segmentation_invariant() {
    assert_segmentation_invariant(&cfg(Mode::Ring, 4), "ring world 4");
}

#[test]
fn fpdt_offload_bf16_checkpointed_is_segmentation_invariant() {
    let cfg = TrainConfig {
        activation_checkpoint: true,
        runtime: runtime(true),
        ..cfg(fpdt(4, true), 2)
    };
    assert_segmentation_invariant(&cfg, "fpdt offload bf16 AC");
    let r = whole(&cfg, STEPS).report();
    assert!(
        r.host.offloads > 0 && r.host.fetches > 0,
        "offload exercised"
    );
}

#[test]
fn grad_accumulation_windows_are_segmentation_invariant() {
    let cfg = TrainConfig {
        grad_accum: 2,
        steps: 2 * STEPS,
        ..cfg(fpdt(2, true), 2)
    };
    assert_segmentation_invariant(&cfg, "grad_accum 2");
    assert_eq!(whole(&cfg, cfg.steps).report().losses.len(), STEPS);
}

#[test]
fn set_runtime_and_resize_between_resident_segments() {
    let base = TrainConfig {
        zero_shard: true,
        ..cfg(Mode::Ulysses, 4)
    };
    let rt = base.runtime;

    // 3 steps at world 4 in one segment, shrink to 2, 3 more.
    let mut reference = whole(&base, 3);
    reference.resize(2);
    reference.run_steps(3).expect("post-resize segment");

    // The same run cut into single steps, with runtime swaps (a retry
    // budget that is never needed) between resident segments.
    let mut cut = Trainer::new(base.clone());
    cut.run_steps(1).expect("step 1");
    cut.set_runtime(rt.with_comm_retries(3));
    cut.run_steps(1).expect("step 2");
    cut.set_runtime(rt);
    cut.run_steps(1).expect("step 3");
    cut.resize(2);
    assert_eq!(cut.config().world, 2);
    for _ in 0..3 {
        cut.run_steps(1).expect("post-resize step");
    }
    assert_eq!(cut.step(), 6);
    assert_bitwise(
        &reference.report(),
        &cut.report(),
        "set_runtime + resize(4->2)",
    );
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpdt-segment-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shard_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    fpdt_core::runtime::ckpt::shard_paths(dir)
        .expect("valid shard set")
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("readable shard");
            (p.file_name().expect("file name").into(), bytes)
        })
        .collect()
}

#[test]
fn checkpoints_after_single_steps_equal_one_segment_bytewise() {
    for (what, cfg) in [
        (
            "zero1",
            TrainConfig {
                zero_shard: true,
                ..cfg(Mode::Ulysses, 2)
            },
        ),
        ("dense-fpdt", cfg(fpdt(2, true), 2)),
    ] {
        let (a, b) = (
            fresh_dir(&format!("{what}-one")),
            fresh_dir(&format!("{what}-many")),
        );
        whole(&cfg, STEPS).checkpoint(&a).expect("checkpoint");
        windowed(&cfg, STEPS).checkpoint(&b).expect("checkpoint");
        let (sa, sb) = (shard_bytes(&a), shard_bytes(&b));
        assert_eq!(sa.len(), 2, "{what}: one shard per rank");
        assert!(sa == sb, "{what}: shard files differ");
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }
}
