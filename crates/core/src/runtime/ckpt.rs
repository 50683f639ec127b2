//! Sharded, versioned checkpoint state — the persistence layer behind the
//! resumable [`Trainer`](crate::runtime::dist::Trainer).
//!
//! Everything that must survive a restart flows through one container, the
//! [`StateDict`]: a set of named tensors (`f32` vectors), counters (`u64`
//! vectors), and strings with a **sorted, versioned, deterministic** binary
//! layout. Determinism is the point — the resume suite asserts that a run
//! interrupted at any step boundary continues bitwise identically, and that
//! is only checkable if saving the same state twice produces the same
//! bytes.
//!
//! The pieces:
//!
//! * [`CkptMeta`] and [`RankSlices`] — the typed shard codec, and the one
//!   place the key schema below is written down. `Trainer::checkpoint`
//!   encodes through it; `Trainer::resume` and the `fpdt-ckpt` inspector
//!   decode through [`read_checkpoint`], which makes every type, length
//!   and cross-shard check.
//! * [`write_shard`] / [`read_shard`] / [`shard_paths`] — per-rank shard
//!   files (`shard-{rank:04}-of-{world:04}.fpdt`) under a checkpoint
//!   directory.
//! * [`CkptError`] — typed failures. A truncated shard, a bad magic, a
//!   missing rank file each get a distinct variant; nothing in this module
//!   panics on malformed input.
//!
//! ## Binary layout (version `FPDTCK02`)
//!
//! ```text
//! magic: 8 bytes "FPDTCK02"
//! count: u64 LE                     -- number of entries
//! entry (count times, sorted by key bytes):
//!   key_len: u64 LE | key: UTF-8 bytes
//!   tag: u8                         -- 0 = f32, 1 = u64, 2 = string
//!   len: u64 LE                     -- element count (bytes for strings)
//!   payload: len * {f32 LE | u64 LE | UTF-8 byte}
//! ```
//!
//! Entries are sorted by key at serialization time regardless of insertion
//! order, so two logically equal dicts are byte-equal on disk.
//!
//! ## Key schema
//!
//! Every shard carries the replicated entries ([`CkptMeta`]) bit for bit,
//! plus the four per-rank entries ([`RankSlices`]). `n` is the parameter
//! count of the recorded architecture and `w` the shard count; rank `r`
//! holds elements `[r·n/w, (r+1)·n/w)` of the flat vectors.
//!
//! | key                   | type        | contents                                                                             |
//! |-----------------------|-------------|--------------------------------------------------------------------------------------|
//! | `cfg.model.name`      | str         | model name                                                                           |
//! | `cfg.model.family`    | str         | `gpt` or `llama`                                                                     |
//! | `cfg.model.dims`      | u64 × 6     | layers, hidden, heads, kv_heads, ffn_hidden, vocab                                   |
//! | `cfg.train`           | u64 × 8     | world, seq, steps, grad_accum, warmup_steps, zero_shard, activation_checkpoint, seed |
//! | `cfg.lr`              | f32 × 1     | learning rate                                                                        |
//! | `cfg.mode`            | str         | `single`, `ulysses`, `ring` or `fpdt:{chunks}:{0 or 1}`                              |
//! | `trainer.step`        | u64 × 1     | micro-steps completed                                                                |
//! | `trainer.losses`      | f32 × *     | loss of every optimizer window so far                                                |
//! | `trainer.grads`       | f32 × *     | the last window's reduced gradients                                                  |
//! | `opt.step`            | u64 × 1     | Adam step counter                                                                    |
//! | `opt.state_bytes`     | u64 × 1     | rank 0's moment bytes                                                                |
//! | `rng.state`           | u64 × 4     | data-stream xoshiro words                                                            |
//! | `stats.pool`          | u64 × 6     | [`PoolStats`] fields in declaration order                                            |
//! | `stats.comm.ops`      | str         | collective tags, newline-separated                                                   |
//! | `stats.comm.counts`   | u64 × 4·ops | sends, recvs, bytes_sent, bytes_recv per tag                                         |
//! | `stats.comm.recovery` | u64 × 2     | faults, retries                                                                      |
//! | `meta.rank`           | u64 × 1     | per rank: `r`                                                                        |
//! | `model.params.shard`  | f32         | per rank: slice `r` of the flat parameters                                           |
//! | `opt.m.shard`         | f32         | per rank: slice `r` of the flat first moments                                        |
//! | `opt.v.shard`         | f32         | per rank: slice `r` of the flat second moments                                       |
//!
//! Runtime knobs are not part of the schema: they are policy, not state,
//! and a decoded configuration takes them from the current `FPDT_*`
//! environment.

use crate::offload::PoolStats;
use crate::runtime::dist::{shard_bounds, Mode, TrainConfig};
use crate::runtime::gpt::GptModel;
use crate::runtime::options::RuntimeOptions;
use fpdt_comm::{CommStats, OpStats};
use fpdt_model::config::{Family, ModelConfig};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of the sharded checkpoint format (version 2).
pub const SHARD_MAGIC: &[u8; 8] = b"FPDTCK02";

/// Typed checkpoint failure. Every IO and decode path returns one of
/// these — corrupted or truncated shards must surface as errors the
/// caller can branch on, never as panics or silently wrong state.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem failure (open, read, write, create).
    Io(std::io::Error),
    /// The file decoded but its contents are inconsistent: truncated
    /// payload, unknown tag, non-UTF-8 key, length mismatch against the
    /// model it is being loaded into.
    Corrupt(String),
    /// A required entry or shard file is absent.
    Missing(String),
    /// The magic header identifies a different (or no) format version.
    Version(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CkptError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CkptError::Missing(what) => write!(f, "missing checkpoint state: {what}"),
            CkptError::Version(what) => write!(f, "checkpoint version mismatch: {what}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// One value in a [`StateDict`]. Equality is bitwise (`f32` payloads
/// compare by bits, NaNs included), so equal values encode to equal bytes.
#[derive(Debug, Clone)]
pub enum StateValue {
    /// Tensor-backed payload (parameters, moments, losses, gradients).
    F32(Vec<f32>),
    /// Counter payload (steps, RNG words, dimensions, statistics).
    U64(Vec<u64>),
    /// Small identity payload (config names, op tags).
    Str(String),
}

impl PartialEq for StateValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (StateValue::F32(a), StateValue::F32(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (StateValue::U64(a), StateValue::U64(b)) => a == b,
            (StateValue::Str(a), StateValue::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl StateValue {
    fn tag(&self) -> u8 {
        match self {
            StateValue::F32(_) => 0,
            StateValue::U64(_) => 1,
            StateValue::Str(_) => 2,
        }
    }
}

/// A named, sorted collection of checkpoint state.
///
/// Backed by a `BTreeMap` so iteration — and therefore the serialized
/// byte stream — is key-ordered no matter what order producers inserted
/// in. Accessors return typed errors instead of panicking so a corrupt or
/// stale shard is reported, not fatal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    entries: BTreeMap<String, StateValue>,
}

impl StateDict {
    /// An empty dict.
    pub fn new() -> Self {
        StateDict::default()
    }

    /// Inserts (or replaces) one entry.
    pub fn insert(&mut self, key: impl Into<String>, value: StateValue) {
        self.entries.insert(key.into(), value);
    }

    /// Keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|k| k.as_str())
    }

    /// A required f32 entry.
    ///
    /// # Errors
    ///
    /// [`CkptError::Missing`] when absent, [`CkptError::Corrupt`] when the
    /// entry holds a different type.
    pub fn f32s(&self, key: &str) -> Result<&[f32], CkptError> {
        match self.entries.get(key) {
            Some(StateValue::F32(v)) => Ok(v),
            Some(_) => Err(CkptError::Corrupt(format!("entry {key:?} is not f32"))),
            None => Err(CkptError::Missing(format!("entry {key:?}"))),
        }
    }

    /// Removes and returns a required f32 entry (same error contract as
    /// [`StateDict::f32s`]) without copying it.
    fn take_f32s(&mut self, key: &str) -> Result<Vec<f32>, CkptError> {
        self.f32s(key)?;
        match self.entries.remove(key) {
            Some(StateValue::F32(v)) => Ok(v),
            _ => Err(CkptError::Missing(format!("entry {key:?}"))),
        }
    }

    /// A required u64 entry (same error contract as [`StateDict::f32s`]).
    ///
    /// # Errors
    ///
    /// [`CkptError::Missing`] when absent, [`CkptError::Corrupt`] on a
    /// type mismatch.
    pub fn u64s(&self, key: &str) -> Result<&[u64], CkptError> {
        match self.entries.get(key) {
            Some(StateValue::U64(v)) => Ok(v),
            Some(_) => Err(CkptError::Corrupt(format!("entry {key:?} is not u64"))),
            None => Err(CkptError::Missing(format!("entry {key:?}"))),
        }
    }

    /// A required scalar u64 entry.
    ///
    /// # Errors
    ///
    /// As [`StateDict::u64s`], plus [`CkptError::Corrupt`] when the entry
    /// is not exactly one element.
    pub fn u64_scalar(&self, key: &str) -> Result<u64, CkptError> {
        Ok(self.u64_array::<1>(key)?[0])
    }

    /// A required u64 entry of exactly `N` elements.
    fn u64_array<const N: usize>(&self, key: &str) -> Result<[u64; N], CkptError> {
        let v = self.u64s(key)?;
        v.try_into().map_err(|_| {
            CkptError::Corrupt(format!(
                "entry {key:?} has {} elements, expected {N}",
                v.len()
            ))
        })
    }

    /// A required string entry (same error contract as
    /// [`StateDict::f32s`]).
    ///
    /// # Errors
    ///
    /// [`CkptError::Missing`] when absent, [`CkptError::Corrupt`] on a
    /// type mismatch.
    pub fn str(&self, key: &str) -> Result<&str, CkptError> {
        match self.entries.get(key) {
            Some(StateValue::Str(v)) => Ok(v),
            Some(_) => Err(CkptError::Corrupt(format!("entry {key:?} is not a string"))),
            None => Err(CkptError::Missing(format!("entry {key:?}"))),
        }
    }

    /// Serializes to the versioned byte layout (see the module docs).
    /// Deterministic: equal dicts produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SHARD_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (key, value) in &self.entries {
            out.extend_from_slice(&(key.len() as u64).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
            out.push(value.tag());
            match value {
                StateValue::F32(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                StateValue::U64(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                StateValue::Str(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    out.extend_from_slice(v.as_bytes());
                }
            }
        }
        out
    }

    /// Decodes the byte layout produced by [`StateDict::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CkptError::Version`] on a foreign magic, [`CkptError::Corrupt`]
    /// on truncation, unknown tags, or invalid UTF-8.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = ByteReader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != SHARD_MAGIC {
            return Err(CkptError::Version(format!(
                "expected {:?}, found {:?}",
                String::from_utf8_lossy(SHARD_MAGIC),
                String::from_utf8_lossy(magic)
            )));
        }
        let count = r.u64()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let key_len = r.u64()? as usize;
            let key = std::str::from_utf8(r.take(key_len)?)
                .map_err(|_| CkptError::Corrupt("non-UTF-8 entry key".into()))?
                .to_string();
            let tag = r.take(1)?[0];
            let len = r.u64()? as usize;
            let value = match tag {
                0 => {
                    let raw = r.take(len.checked_mul(4).ok_or_else(overflow)?)?;
                    StateValue::F32(
                        raw.chunks_exact(4)
                            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect(),
                    )
                }
                1 => {
                    let raw = r.take(len.checked_mul(8).ok_or_else(overflow)?)?;
                    StateValue::U64(
                        raw.chunks_exact(8)
                            .map(|c| {
                                u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
                            })
                            .collect(),
                    )
                }
                2 => StateValue::Str(
                    std::str::from_utf8(r.take(len)?)
                        .map_err(|_| CkptError::Corrupt(format!("entry {key:?}: bad UTF-8")))?
                        .to_string(),
                ),
                t => {
                    return Err(CkptError::Corrupt(format!(
                        "entry {key:?}: unknown tag {t}"
                    )))
                }
            };
            entries.insert(key, value);
        }
        if r.pos != bytes.len() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after {} entries",
                bytes.len() - r.pos,
                count
            )));
        }
        Ok(StateDict { entries })
    }
}

fn overflow() -> CkptError {
    CkptError::Corrupt("entry length overflows".into())
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                CkptError::Corrupt(format!(
                    "truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.bytes.len() - self.pos
                ))
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        let c = self.take(8)?;
        Ok(u64::from_le_bytes([
            c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
        ]))
    }
}

// ---------------------------------------------------------------------------
// The shard codec
// ---------------------------------------------------------------------------

const RANK: &str = "meta.rank";
const PARAMS: &str = "model.params.shard";
const MOMENT_M: &str = "opt.m.shard";
const MOMENT_V: &str = "opt.v.shard";

/// The replicated metadata every shard of a checkpoint carries: the
/// training configuration, progress, the last window's losses and
/// gradients, and the merged traffic counters (see the key schema in the
/// module docs).
#[derive(Debug, Clone)]
pub struct CkptMeta {
    /// The training configuration. `runtime` is not persisted: a decoded
    /// configuration reads it from the current `FPDT_*` environment.
    pub cfg: TrainConfig,
    /// Micro-steps completed.
    pub step: usize,
    /// The optimizer's step counter.
    pub opt_step: u64,
    /// Rank 0's Adam moment bytes.
    pub opt_state_bytes: usize,
    /// The data stream's RNG words.
    pub rng: [u64; 4],
    /// Loss of every optimizer window so far.
    pub losses: Vec<f32>,
    /// The last window's reduced gradients.
    pub grads: Vec<f32>,
    /// Merged host-pool counters.
    pub host: PoolStats,
    /// Merged communication counters (`recv_wait` is not persisted).
    pub comm: CommStats,
}

impl CkptMeta {
    /// Encodes the replicated entries.
    pub(crate) fn encode(self) -> StateDict {
        let (cfg, host, comm) = (&self.cfg, &self.host, &self.comm);
        let m = &cfg.model;
        let family = match m.family {
            Family::Gpt => "gpt",
            Family::Llama => "llama",
        };
        let u64s = |v: &[usize]| StateValue::U64(v.iter().map(|&x| x as u64).collect());
        let mut d = StateDict::new();
        d.insert("cfg.model.name", StateValue::Str(m.name.clone()));
        d.insert("cfg.model.family", StateValue::Str(family.into()));
        d.insert(
            "cfg.model.dims",
            u64s(&[
                m.layers,
                m.hidden,
                m.heads,
                m.kv_heads,
                m.ffn_hidden,
                m.vocab,
            ]),
        );
        d.insert(
            "cfg.train",
            StateValue::U64(vec![
                cfg.world as u64,
                cfg.seq as u64,
                cfg.steps as u64,
                cfg.grad_accum as u64,
                cfg.warmup_steps as u64,
                u64::from(cfg.zero_shard),
                u64::from(cfg.activation_checkpoint),
                cfg.seed,
            ]),
        );
        d.insert("cfg.lr", StateValue::F32(vec![cfg.lr]));
        d.insert("cfg.mode", StateValue::Str(cfg.mode.to_string()));
        d.insert("trainer.step", u64s(&[self.step]));
        d.insert("trainer.losses", StateValue::F32(self.losses));
        d.insert("trainer.grads", StateValue::F32(self.grads));
        d.insert("opt.step", StateValue::U64(vec![self.opt_step]));
        d.insert("opt.state_bytes", u64s(&[self.opt_state_bytes]));
        d.insert("rng.state", StateValue::U64(self.rng.to_vec()));
        d.insert(
            "stats.pool",
            StateValue::U64(vec![
                host.offloads,
                host.fetches,
                host.bytes,
                host.peak_bytes,
                host.bytes_offloaded,
                host.bytes_fetched,
            ]),
        );
        let names: Vec<&str> = comm.ops.iter().map(|(n, _)| n.as_str()).collect();
        d.insert("stats.comm.ops", StateValue::Str(names.join("\n")));
        d.insert(
            "stats.comm.counts",
            StateValue::U64(
                comm.ops
                    .iter()
                    .flat_map(|(_, s)| [s.sends, s.recvs, s.bytes_sent, s.bytes_recv])
                    .collect(),
            ),
        );
        d.insert(
            "stats.comm.recovery",
            StateValue::U64(vec![comm.faults, comm.retries]),
        );
        d
    }

    /// Decodes the replicated entries, checking every type and length and
    /// that the configuration is one a `Trainer` can run.
    fn decode(d: &StateDict) -> Result<Self, CkptError> {
        let family = match d.str("cfg.model.family")? {
            "gpt" => Family::Gpt,
            "llama" => Family::Llama,
            other => {
                return Err(CkptError::Corrupt(format!(
                    "unknown model family {other:?}"
                )))
            }
        };
        let size = |x: u64| {
            usize::try_from(x).map_err(|_| CkptError::Corrupt(format!("{x} overflows usize")))
        };
        let [layers, hidden, heads, kv_heads, ffn_hidden, vocab] =
            d.u64_array("cfg.model.dims")?.map(size);
        let [world, seq, steps, grad_accum, warmup_steps, zero, ac, seed] =
            d.u64_array("cfg.train")?;
        let &[lr] = d.f32s("cfg.lr")? else {
            return Err(CkptError::Corrupt(
                "entry \"cfg.lr\" is not one element".into(),
            ));
        };
        let cfg = TrainConfig {
            model: ModelConfig {
                name: d.str("cfg.model.name")?.to_string(),
                family,
                layers: layers?,
                hidden: hidden?,
                heads: heads?,
                kv_heads: kv_heads?,
                ffn_hidden: ffn_hidden?,
                vocab: vocab?,
            },
            world: size(world)?,
            seq: size(seq)?,
            steps: size(steps)?,
            grad_accum: size(grad_accum)?,
            warmup_steps: size(warmup_steps)?,
            zero_shard: zero != 0,
            activation_checkpoint: ac != 0,
            seed,
            lr,
            mode: parse_mode(d.str("cfg.mode")?)?,
            runtime: RuntimeOptions::from_env(),
        };
        cfg.check().map_err(CkptError::Corrupt)?;

        let [offloads, fetches, bytes, peak_bytes, bytes_offloaded, bytes_fetched] =
            d.u64_array("stats.pool")?;
        let names: Vec<&str> = d.str("stats.comm.ops")?.split_terminator('\n').collect();
        let counts = d.u64s("stats.comm.counts")?;
        if counts.len() != names.len() * 4 {
            return Err(CkptError::Corrupt(format!(
                "stats.comm.counts has {} values for {} ops",
                counts.len(),
                names.len()
            )));
        }
        let [faults, retries] = d.u64_array("stats.comm.recovery")?;
        let ops = names
            .iter()
            .zip(counts.chunks_exact(4))
            .map(|(name, c)| {
                let stats = OpStats {
                    sends: c[0],
                    recvs: c[1],
                    bytes_sent: c[2],
                    bytes_recv: c[3],
                };
                (name.to_string(), stats)
            })
            .collect();
        Ok(CkptMeta {
            cfg,
            step: size(d.u64_scalar("trainer.step")?)?,
            opt_step: d.u64_scalar("opt.step")?,
            opt_state_bytes: size(d.u64_scalar("opt.state_bytes")?)?,
            rng: d.u64_array("rng.state")?,
            losses: d.f32s("trainer.losses")?.to_vec(),
            grads: d.f32s("trainer.grads")?.to_vec(),
            host: PoolStats {
                offloads,
                fetches,
                bytes,
                peak_bytes,
                bytes_offloaded,
                bytes_fetched,
            },
            comm: CommStats {
                ops,
                recv_wait: std::time::Duration::ZERO,
                faults,
                retries,
            },
        })
    }
}

/// The checkpoint spelling of a mode (`cfg.mode`).
impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Single => f.write_str("single"),
            Mode::Ulysses => f.write_str("ulysses"),
            Mode::Ring => f.write_str("ring"),
            Mode::Fpdt { chunks, offload } => write!(f, "fpdt:{chunks}:{}", u8::from(*offload)),
        }
    }
}

/// Inverse of `Mode`'s `Display`; the offload flag must be `0` or `1`.
fn parse_mode(s: &str) -> Result<Mode, CkptError> {
    let bad = || CkptError::Corrupt(format!("unknown mode {s:?}"));
    match s {
        "single" => Ok(Mode::Single),
        "ulysses" => Ok(Mode::Ulysses),
        "ring" => Ok(Mode::Ring),
        _ => {
            let (chunks, offload) = s
                .strip_prefix("fpdt:")
                .and_then(|rest| rest.split_once(':'))
                .ok_or_else(bad)?;
            Ok(Mode::Fpdt {
                chunks: chunks.parse().map_err(|_| bad())?,
                offload: match offload {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                },
            })
        }
    }
}

/// One rank's contiguous slice of the flat parameters and Adam moments
/// (rank `r` of `w` holds elements `[r·n/w, (r+1)·n/w)`).
#[derive(Debug, Clone)]
pub struct RankSlices {
    /// The rank this shard belongs to.
    pub rank: usize,
    /// Parameter slice.
    pub params: Vec<f32>,
    /// First-moment slice.
    pub m: Vec<f32>,
    /// Second-moment slice.
    pub v: Vec<f32>,
}

impl RankSlices {
    /// Encodes this rank's shard: the replicated entries `meta` (from
    /// [`CkptMeta::encode`]) plus the four per-rank entries.
    pub(crate) fn encode(self, meta: &StateDict) -> StateDict {
        let mut d = meta.clone();
        d.insert(RANK, StateValue::U64(vec![self.rank as u64]));
        d.insert(PARAMS, StateValue::F32(self.params));
        d.insert(MOMENT_M, StateValue::F32(self.m));
        d.insert(MOMENT_V, StateValue::F32(self.v));
        d
    }

    /// Moves rank `rank`'s per-rank entries out of `d`, checking the rank
    /// id and that each slice is exactly the rank's bounds of `params`
    /// parameters over `world` shards.
    fn take(
        d: &mut StateDict,
        rank: usize,
        params: usize,
        world: usize,
    ) -> Result<Self, CkptError> {
        let claimed = d.u64_scalar(RANK)?;
        if claimed != rank as u64 {
            return Err(CkptError::Corrupt(format!(
                "shard {rank} claims rank {claimed}"
            )));
        }
        d.entries.remove(RANK);
        let (lo, hi) = shard_bounds(params, rank, world);
        let mut slice = |key: &str| {
            let v = d.take_f32s(key)?;
            if v.len() != hi - lo {
                return Err(CkptError::Corrupt(format!(
                    "{key} of shard {rank} holds {} values, the architecture's \
                     {params} parameters put {} there",
                    v.len(),
                    hi - lo
                )));
            }
            Ok(v)
        };
        Ok(RankSlices {
            rank,
            params: slice(PARAMS)?,
            m: slice(MOMENT_M)?,
            v: slice(MOMENT_V)?,
        })
    }
}

/// Opens the checkpoint in `dir` for decoding, one shard at a time.
///
/// Shard 0 is read and checked here: its replicated metadata decodes into
/// a [`CkptMeta`] whose configuration a `Trainer` can run, the recorded
/// world matches the shard count, and its slices match the architecture's
/// parameter count (computed without allocating, so a corrupt
/// architecture cannot request a huge model). The returned [`Shards`]
/// then yields every rank's slices in rank order.
///
/// # Errors
///
/// Every [`CkptError`] class: unreadable or missing shards, foreign
/// magic, truncation, a missing entry, a wrong type or length, or a
/// configuration that does not fit the shards.
pub fn read_checkpoint(dir: &Path) -> Result<(CkptMeta, Shards), CkptError> {
    let paths = shard_paths(dir)?;
    let mut dict = read_shard(&paths[0])?;
    let meta = CkptMeta::decode(&dict)?;
    let world = meta.cfg.world.max(1);
    if world != paths.len() {
        return Err(CkptError::Corrupt(format!(
            "config world {} disagrees with {} shards",
            meta.cfg.world,
            paths.len()
        )));
    }
    let params = GptModel::param_count_of(&meta.cfg.model).ok_or_else(|| {
        CkptError::Corrupt("the recorded architecture's parameter count overflows".into())
    })?;
    let first = RankSlices::take(&mut dict, 0, params, world)?;
    let shards = Shards {
        paths,
        meta: dict,
        params,
        next: 0,
        first: Some(first),
    };
    Ok((meta, shards))
}

/// Every rank's [`RankSlices`] of a checkpoint, in rank order (see
/// [`read_checkpoint`]). Each shard is read when it is reached and must
/// carry shard 0's replicated entries bit for bit.
#[derive(Debug)]
pub struct Shards {
    paths: Vec<PathBuf>,
    /// Shard 0's replicated entries.
    meta: StateDict,
    /// The architecture's parameter count.
    params: usize,
    next: usize,
    first: Option<RankSlices>,
}

impl Shards {
    /// The shard files, in rank order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    fn read(&self, rank: usize) -> Result<RankSlices, CkptError> {
        let mut dict = read_shard(&self.paths[rank])?;
        let slices = RankSlices::take(&mut dict, rank, self.params, self.paths.len())?;
        if dict != self.meta {
            let differs = |k: &&str| dict.entries.get(*k) != self.meta.entries.get(*k);
            let key = dict.keys().chain(self.meta.keys()).find(differs);
            return Err(CkptError::Corrupt(format!(
                "replicated {} disagrees between shards 0 and {rank}",
                key.unwrap_or_default()
            )));
        }
        Ok(slices)
    }
}

impl Iterator for Shards {
    type Item = Result<RankSlices, CkptError>;

    fn next(&mut self) -> Option<Self::Item> {
        let rank = self.next;
        if rank >= self.paths.len() {
            return None;
        }
        self.next += 1;
        Some(match self.first.take() {
            Some(first) => Ok(first),
            None => self.read(rank),
        })
    }
}

// ---------------------------------------------------------------------------
// Shard files
// ---------------------------------------------------------------------------

/// File name of one rank's shard.
pub fn shard_name(rank: usize, world: usize) -> String {
    format!("shard-{rank:04}-of-{world:04}.fpdt")
}

/// Writes one rank's shard into `dir` (created if needed), atomically: the
/// bytes land in a temporary file first and are renamed into place, so a
/// crash mid-write leaves no half-shard under the final name.
///
/// # Errors
///
/// Propagates filesystem failures as [`CkptError::Io`].
pub fn write_shard(
    dir: &Path,
    rank: usize,
    world: usize,
    dict: &StateDict,
) -> Result<PathBuf, CkptError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(shard_name(rank, world));
    let tmp = dir.join(format!("{}.tmp", shard_name(rank, world)));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&dict.to_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Reads and decodes one shard file.
///
/// # Errors
///
/// [`CkptError::Io`] when unreadable, [`CkptError::Version`] /
/// [`CkptError::Corrupt`] from [`StateDict::from_bytes`].
pub fn read_shard(path: &Path) -> Result<StateDict, CkptError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    StateDict::from_bytes(&bytes)
}

/// The complete, validated shard set of a checkpoint directory, in rank
/// order. The world size is read off the `of-{world}` suffix and every
/// rank `0..world` must be present exactly once.
///
/// # Errors
///
/// [`CkptError::Missing`] when the directory holds no shards or a rank
/// file is absent, [`CkptError::Corrupt`] when file names disagree about
/// the world size.
pub fn shard_paths(dir: &Path) -> Result<Vec<PathBuf>, CkptError> {
    let mut world: Option<usize> = None;
    let mut found: BTreeMap<usize, PathBuf> = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some((rank, w)) = parse_shard_name(name) else {
            continue;
        };
        match world {
            None => world = Some(w),
            Some(prev) if prev != w => {
                return Err(CkptError::Corrupt(format!(
                    "shards disagree about world size: {prev} vs {w}"
                )));
            }
            Some(_) => {}
        }
        if found.insert(rank, path).is_some() {
            return Err(CkptError::Corrupt(format!(
                "duplicate shard for rank {rank}"
            )));
        }
    }
    let world = world.ok_or_else(|| {
        CkptError::Missing(format!("no checkpoint shards under {}", dir.display()))
    })?;
    let mut out = Vec::with_capacity(world);
    for rank in 0..world {
        let path = found
            .remove(&rank)
            .ok_or_else(|| CkptError::Missing(format!("shard for rank {rank} of {world}")))?;
        out.push(path);
    }
    if let Some((&rank, _)) = found.iter().next() {
        return Err(CkptError::Corrupt(format!(
            "shard rank {rank} out of range for world {world}"
        )));
    }
    Ok(out)
}

fn parse_shard_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".fpdt")?;
    let (rank, world) = rest.split_once("-of-")?;
    Some((rank.parse().ok()?, world.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dict() -> StateDict {
        let mut d = StateDict::new();
        d.insert("zz.last", StateValue::Str("tail".into()));
        d.insert("aa.first", StateValue::F32(vec![1.0, -2.5, 3e-7]));
        d.insert("mm.mid", StateValue::U64(vec![7, 0, u64::MAX]));
        d
    }

    #[test]
    fn byte_layout_round_trips_and_is_sorted() {
        let d = sample_dict();
        let bytes = d.to_bytes();
        assert_eq!(&bytes[..8], SHARD_MAGIC);
        let back = StateDict::from_bytes(&bytes).unwrap();
        assert_eq!(back, d);
        // serialization order is key order, not insertion order
        let keys: Vec<&str> = back.keys().collect();
        assert_eq!(keys, ["aa.first", "mm.mid", "zz.last"]);
        // deterministic: same state, same bytes
        let mut again = StateDict::new();
        for k in ["mm.mid", "zz.last", "aa.first"] {
            // rebuild in a different insertion order
            again.insert(k, d.entries.get(k).unwrap().clone());
        }
        assert_eq!(again.to_bytes(), bytes);
    }

    #[test]
    fn decode_rejects_truncation_version_and_garbage() {
        let bytes = sample_dict().to_bytes();
        // any strict prefix must fail Corrupt (or Version for <8 bytes)
        for cut in [4usize, 9, bytes.len() / 2, bytes.len() - 1] {
            let err = StateDict::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CkptError::Corrupt(_) | CkptError::Version(_)),
                "cut at {cut}: {err}"
            );
        }
        // foreign magic is a version error
        let mut wrong = bytes.clone();
        wrong[..8].copy_from_slice(b"FPDTCK01");
        assert!(matches!(
            StateDict::from_bytes(&wrong).unwrap_err(),
            CkptError::Version(_)
        ));
        // trailing junk is corrupt, not silently ignored
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            StateDict::from_bytes(&long).unwrap_err(),
            CkptError::Corrupt(_)
        ));
    }

    #[test]
    fn typed_accessors_report_missing_and_mismatched() {
        let d = sample_dict();
        assert!(matches!(d.f32s("nope"), Err(CkptError::Missing(_))));
        assert!(matches!(d.f32s("mm.mid"), Err(CkptError::Corrupt(_))));
        assert!(matches!(d.u64_scalar("mm.mid"), Err(CkptError::Corrupt(_))));
        assert_eq!(d.str("zz.last").unwrap(), "tail");
    }

    #[test]
    fn huge_key_length_is_corrupt_not_an_overflow() {
        // magic + one entry whose key claims u64::MAX bytes
        let mut bytes = SHARD_MAGIC.to_vec();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(bytes.len(), 32);
        assert!(matches!(
            StateDict::from_bytes(&bytes).unwrap_err(),
            CkptError::Corrupt(_)
        ));
    }

    #[test]
    fn values_compare_by_bits() {
        let nan = StateValue::F32(vec![f32::NAN]);
        assert_eq!(nan, nan.clone());
        assert_ne!(StateValue::F32(vec![0.0]), StateValue::F32(vec![-0.0]));
        assert_ne!(StateValue::F32(vec![]), StateValue::U64(vec![]));
    }

    #[test]
    fn modes_round_trip_and_parse_strictly() {
        for mode in [
            Mode::Single,
            Mode::Ulysses,
            Mode::Ring,
            Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            Mode::Fpdt {
                chunks: 1,
                offload: false,
            },
        ] {
            assert_eq!(parse_mode(&mode.to_string()).unwrap(), mode);
        }
        for bad in [
            "",
            "fpdt",
            "fpdt:4",
            "fpdt:x:1",
            "fpdt:4:2",
            "fpdt:4:true",
            "Ring",
        ] {
            assert!(
                matches!(parse_mode(bad), Err(CkptError::Corrupt(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn shard_files_round_trip_and_validate_the_set() {
        let dir = std::env::temp_dir().join(format!("fpdt-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let world = 3;
        for rank in 0..world {
            let mut d = StateDict::new();
            d.insert("meta.rank", StateValue::U64(vec![rank as u64]));
            write_shard(&dir, rank, world, &d).unwrap();
        }
        let paths = shard_paths(&dir).unwrap();
        assert_eq!(paths.len(), world);
        for (rank, path) in paths.iter().enumerate() {
            let d = read_shard(path).unwrap();
            assert_eq!(d.u64_scalar("meta.rank").unwrap(), rank as u64);
        }
        // a missing rank is typed
        std::fs::remove_file(&paths[1]).unwrap();
        assert!(matches!(
            shard_paths(&dir).unwrap_err(),
            CkptError::Missing(_)
        ));
        // a truncated shard is corrupt, not a panic
        let bytes = std::fs::read(&paths[0]).unwrap();
        std::fs::write(&paths[0], &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            read_shard(&paths[0]).unwrap_err(),
            CkptError::Corrupt(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
