//! The checkpoint shard codec against real shard sets.
//!
//! * **Format pin.** The bytes a fixed `Trainer` writes are digested, so
//!   any change to the on-disk `FPDTCK02` layout or key schema fails here
//!   first.
//! * **Bad metadata is typed.** A shard set whose replicated metadata
//!   names a configuration no `Trainer` can run, or an architecture that
//!   does not fit the shards, is `CkptError::Corrupt` — never a panic or
//!   an allocation abort inside `Trainer::resume`.
//! * **Fuzz.** Truncations and single bit flips of a real shard end in
//!   `Ok` or a typed error from both `Trainer::resume` and
//!   `read_checkpoint` (the `fpdt-ckpt` decode path).

use fpdt_core::runtime::ckpt::{self, CkptError, StateValue};
use fpdt_core::runtime::dist::{Mode, TrainConfig, Trainer};
use fpdt_core::runtime::options::RuntimeOptions;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Every runtime knob pinned through the builder, so no ambient `FPDT_*`
/// variable (the CI env legs) can move a shard byte.
fn pinned(offload: bool) -> RuntimeOptions {
    RuntimeOptions::default()
        .with_offload(offload)
        .with_prefetch(true)
        .with_comm_async(true)
        .with_balanced(true)
        .with_payload_bf16(false)
        .with_threads(2)
        .with_par_threshold(1 << 14)
        .with_comm_retries(0)
        .with_fault_inject(0)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fpdt-codec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Trains `cfg` for `steps` and checkpoints it into a fresh directory.
fn shard_set(cfg: TrainConfig, steps: usize, tag: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    let mut t = Trainer::new(cfg);
    t.run_steps(steps).expect("clean steps");
    t.checkpoint(&dir).expect("checkpoint");
    dir
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn digest_shards(dir: &Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in fpdt_core::runtime::ckpt::shard_paths(dir).expect("shard set") {
        let name = path.file_name().and_then(|n| n.to_str()).expect("name");
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, &std::fs::read(&path).expect("readable shard"));
    }
    h
}

#[test]
fn ulysses_world2_shard_bytes_are_pinned() {
    let cfg = TrainConfig {
        world: 2,
        steps: 2,
        mode: Mode::Ulysses,
        zero_shard: true,
        runtime: pinned(false),
        ..TrainConfig::small(Mode::Single)
    };
    let dir = shard_set(cfg, 2, "pin");
    let digest = digest_shards(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        digest, 0xd31a_3c5f_8aba_c103,
        "FPDTCK02 shard bytes moved: {digest:#018x}"
    );
}

/// Replaces one replicated entry in every shard of `dir`.
fn rewrite(dir: &Path, key: &str, value: StateValue) {
    let paths = ckpt::shard_paths(dir).expect("shard set");
    let world = paths.len();
    for (rank, path) in paths.iter().enumerate() {
        let mut dict = ckpt::read_shard(path).expect("readable shard");
        dict.insert(key, value.clone());
        ckpt::write_shard(dir, rank, world, &dict).expect("rewritten shard");
    }
}

/// A 2-rank FPDT shard set with `key` rewritten to `value`: resume must
/// refuse it as corrupt.
fn assert_resume_refuses(tag: &str, key: &str, value: StateValue) {
    let cfg = TrainConfig {
        steps: 2,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: false,
        },
        runtime: pinned(false),
        ..TrainConfig::small(Mode::Single)
    };
    let dir = shard_set(cfg, 2, tag);
    assert!(Trainer::resume(&dir).is_ok(), "the untouched set resumes");
    rewrite(&dir, key, value);
    let err = Trainer::resume(&dir).map(|_| ()).expect_err("refused");
    assert!(matches!(err, CkptError::Corrupt(_)), "{key}: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cfg.model.dims` of the `TrainConfig::small` model with one field set.
fn dims(field: usize, value: u64) -> StateValue {
    let mut dims = vec![2, 32, 4, 4, 128, 50];
    dims[field] = value;
    StateValue::U64(dims)
}

#[test]
fn resume_refuses_a_mode_with_zero_chunks() {
    assert_resume_refuses("mode", "cfg.mode", StateValue::Str("fpdt:0:1".into()));
}

#[test]
fn resume_refuses_an_offload_flag_other_than_0_or_1() {
    assert_resume_refuses("flag", "cfg.mode", StateValue::Str("fpdt:2:7".into()));
}

#[test]
fn resume_refuses_three_heads_on_two_ranks() {
    assert_resume_refuses("heads", "cfg.model.dims", dims(2, 3));
}

#[test]
fn resume_refuses_an_architecture_too_large_for_its_shards() {
    // would ask GptModel::zeroed for terabytes before any length check
    assert_resume_refuses("hidden", "cfg.model.dims", dims(1, 1 << 40));
    // and one whose count fits a usize but not the shards
    assert_resume_refuses("layers", "cfg.model.dims", dims(0, 1 << 20));
}

#[test]
fn a_single_device_run_with_world_0_resumes_from_its_one_shard() {
    // the writer cuts world.max(1) shards, and the reader expects as many
    let cfg = TrainConfig {
        world: 0,
        steps: 1,
        runtime: pinned(false),
        ..TrainConfig::small(Mode::Single)
    };
    let dir = shard_set(cfg, 1, "single");
    let resumed = Trainer::resume(&dir).map(|t| t.step());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.expect("resumes"), 1);
}

#[test]
fn replicated_metadata_must_agree_across_shards() {
    let cfg = TrainConfig {
        steps: 2,
        mode: Mode::Ulysses,
        runtime: pinned(false),
        ..TrainConfig::small(Mode::Single)
    };
    let dir = shard_set(cfg, 2, "agree");
    let paths = ckpt::shard_paths(&dir).expect("shard set");
    let mut dict = ckpt::read_shard(&paths[1]).expect("readable shard");
    let mut losses = dict.f32s("trainer.losses").expect("losses").to_vec();
    losses[0] = f32::from_bits(losses[0].to_bits() ^ 1);
    dict.insert("trainer.losses", StateValue::F32(losses));
    ckpt::write_shard(&dir, 1, 2, &dict).expect("rewritten shard");
    let err = Trainer::resume(&dir).map(|_| ()).expect_err("refused");
    assert!(
        matches!(&err, CkptError::Corrupt(what) if what.contains("trainer.losses")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Decoder fuzz
// ---------------------------------------------------------------------------

/// The pristine 2-rank FPDT-with-offload shard bytes every case mutates,
/// plus the byte offsets that are not inside an f32 payload (the header,
/// keys, tags, lengths, and u64/string payloads), where a flip reaches
/// the decoder's structure and metadata checks rather than a weight.
struct Pristine {
    shards: Vec<Vec<u8>>,
    structure: Vec<Vec<usize>>,
}

fn pristine() -> &'static Pristine {
    static SET: OnceLock<Pristine> = OnceLock::new();
    SET.get_or_init(|| {
        let cfg = TrainConfig {
            steps: 3,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            runtime: pinned(true),
            ..TrainConfig::small(Mode::Single)
        };
        let dir = shard_set(cfg, 3, "pristine");
        let shards: Vec<Vec<u8>> = ckpt::shard_paths(&dir)
            .expect("shard set")
            .iter()
            .map(|p| std::fs::read(p).expect("readable shard"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(shards.len(), 2);
        let structure = shards.iter().map(|b| non_f32_offsets(b)).collect();
        Pristine { shards, structure }
    })
}

/// Walks the documented `FPDTCK02` layout of a well-formed shard.
fn non_f32_offsets(bytes: &[u8]) -> Vec<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut out: Vec<usize> = (0..16).collect();
    let mut pos = 16;
    for _ in 0..u64_at(8) {
        let key_len = u64_at(pos);
        let tag = bytes[pos + 8 + key_len];
        let header = 8 + key_len + 1 + 8;
        let len = u64_at(pos + 8 + key_len + 1);
        let payload = match tag {
            0 => 4 * len,
            1 => 8 * len,
            _ => len,
        };
        let keep = if tag == 0 { header } else { header + payload };
        out.extend(pos..pos + keep);
        pos += header + payload;
    }
    assert_eq!(pos, bytes.len(), "walked the whole shard");
    out
}

/// Writes the pristine set with shard `rank` replaced by `bytes`, then
/// decodes it both ways. Either may fail, but only with a typed error;
/// a panic fails the test and an abort kills it.
fn decode_both(tag: &str, rank: usize, bytes: &[u8]) {
    let set = pristine();
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (r, shard) in set.shards.iter().enumerate() {
        let body = if r == rank { bytes } else { shard.as_slice() };
        std::fs::write(dir.join(ckpt::shard_name(r, 2)), body).expect("shard written");
    }
    let resumed = Trainer::resume(&dir).map(|_| ());
    let inspected = ckpt::read_checkpoint(&dir)
        .and_then(|(_, mut shards)| shards.try_for_each(|s| s.map(|_| ())));
    let _ = std::fs::remove_dir_all(&dir);
    // the two entry points share one codec, so they agree on the verdict
    prop_assert_eq!(
        resumed.is_ok(),
        inspected.is_ok(),
        "{:?} vs {:?}",
        resumed,
        inspected
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncated_shards_surface_typed_errors(rank in 0usize..2, frac in 0.0f64..1.0) {
        let bytes = &pristine().shards[rank];
        let cut = (frac * bytes.len() as f64) as usize;
        decode_both("cut", rank, &bytes[..cut]);
    }

    #[test]
    fn flipped_bits_anywhere_surface_typed_errors(rank in 0usize..2, bit in 0u64..u64::MAX) {
        let mut bytes = pristine().shards[rank].clone();
        let bit = (bit % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        decode_both("flip", rank, &bytes);
    }

    #[test]
    fn flipped_bits_in_the_structure_surface_typed_errors(
        rank in 0usize..2,
        pick in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let set = pristine();
        let offsets = &set.structure[rank];
        let at = offsets[(pick % offsets.len() as u64) as usize];
        let mut bytes = set.shards[rank].clone();
        bytes[at] ^= 1 << bit;
        decode_both("structure", rank, &bytes);
    }
}
