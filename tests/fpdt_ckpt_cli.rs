//! `fpdt-ckpt` end to end: the inspector decodes a shard set through the
//! same codec as `Trainer::resume` and maps each typed failure class to
//! its exit code (3 = missing, 4 = corrupt or version, 5 = I/O).

use fpdt_core::runtime::ckpt::{self, StateValue};
use fpdt_core::runtime::dist::{Mode, TrainConfig, Trainer};
use fpdt_core::runtime::options::RuntimeOptions;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A 2-rank FPDT-with-offload checkpoint after two steps, every runtime
/// knob pinned.
fn shard_set(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpdt-ckpt-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runtime = RuntimeOptions::default()
        .with_prefetch(true)
        .with_comm_async(true)
        .with_balanced(true)
        .with_payload_bf16(false)
        .with_threads(2)
        .with_par_threshold(1 << 14)
        .with_comm_retries(0)
        .with_fault_inject(0);
    let mut t = Trainer::new(TrainConfig {
        steps: 2,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        runtime,
        ..TrainConfig::small(Mode::Single)
    });
    t.run_steps(2).expect("clean steps");
    t.checkpoint(&dir).expect("checkpoint");
    dir
}

/// Runs `fpdt-ckpt --keys <dir>`, returning its exit code, stdout and
/// stderr.
fn inspect(dir: &Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fpdt-ckpt"))
        .arg("--keys")
        .arg(dir)
        .output()
        .expect("fpdt-ckpt runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_valid_checkpoint_prints_its_decoded_state() {
    let dir = shard_set("valid");
    let (code, stdout, stderr) = inspect(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{stderr}");
    for want in [
        "layers=2 hidden=32 heads=4/4 ffn=128 vocab=50",
        "world=2 seq=64 mode=fpdt:2:1",
        "progress step=2 (opt step 2), 2 recorded losses",
        "model.params.shard",
        "ok: 2 shards, consistent",
    ] {
        assert!(stdout.contains(want), "missing {want:?} in\n{stdout}");
    }
}

#[test]
fn a_train_config_cut_to_three_fields_exits_corrupt() {
    let dir = shard_set("cut");
    let paths = ckpt::shard_paths(&dir).expect("shard set");
    for (rank, path) in paths.iter().enumerate() {
        let mut dict = ckpt::read_shard(path).expect("readable shard");
        let train = dict.u64s("cfg.train").expect("cfg.train")[..3].to_vec();
        dict.insert("cfg.train", StateValue::U64(train));
        ckpt::write_shard(&dir, rank, paths.len(), &dict).expect("rewritten shard");
    }
    let (code, stdout, stderr) = inspect(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(4), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("cfg.train"), "{stderr}");
}

#[test]
fn an_empty_directory_exits_missing() {
    let dir = std::env::temp_dir().join(format!("fpdt-ckpt-cli-{}-empty", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (code, _, stderr) = inspect(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(3), "{stderr}");
}
