//! Multi-threaded distributed training — the Figure 14 experiment,
//! grown into a resumable, fault-tolerant [`Trainer`].
//!
//! Every rank is an OS thread owning a full replica of a (tiny) GPT,
//! initialized from the same seed. Sequences shard across ranks through a
//! [`ChunkPlan`] (the rank-ordinal shuffle, labels included); gradients
//! all-reduce in deterministic rank order; each rank then applies an
//! identical AdamW step. FPDT is "a pure system optimization" (paper
//! §5.6): its loss curve must coincide with the baseline's, which
//! [`train`] lets benchmarks and tests verify directly.
//!
//! ## The resumable Trainer
//!
//! [`Trainer`] runs training as a sequence of **segments**: `run_steps(n)`
//! executes `n` micro-steps (whole gradient-accumulation windows). Each
//! rank's state — its model replica, its optimizer (the rank's ZeRO-1
//! moment slice, or the dense moments) and its data stream — stays
//! **resident** in the `Trainer` between segments: a segment lends every
//! replica to its rank thread on a fresh comm group and executor, and
//! takes it back updated. The host pool dies with the segment, and
//! traffic counters merge per segment. The world-independent flat layout
//! (flat parameters and moments, optimizer step, data-RNG words) is a
//! derived view, built only where it is needed: by [`Trainer::checkpoint`],
//! [`Trainer::resize`] and [`Trainer::resume`]. Three properties follow:
//!
//! * **Bitwise resume.** Segment boundaries are exact: running
//!   `run_steps(k)` + `checkpoint` + [`Trainer::resume`] + the remaining
//!   steps produces the identical losses, gradients, and traffic counters
//!   as one uninterrupted run (the resume determinism suite asserts it),
//!   and so do `n` calls of `run_steps(1)` (the segmentation suite).
//! * **Elastic worlds.** [`Trainer::resize`] flattens the replicas and
//!   re-cuts them for the new world; ZeRO-1 moment slices re-shard
//!   exactly. After the resize point the trajectory matches a fresh run
//!   at the final geometry.
//! * **Rollback, not poison.** A collective that fails mid-step (after
//!   the [`RuntimeOptions::comm_retries`] replay budget is exhausted)
//!   aborts the segment at the last completed optimizer window: the data
//!   RNG rewinds, gradients are zeroed, a ZeRO-1 update whose parameter
//!   all-gather failed is discarded, and the host pool dies with the
//!   segment's executor. `run_steps` returns a typed [`TrainError`]; the
//!   caller may simply call it again.
//!
//! A rank **panic** is not a recoverable failure: it propagates out of
//! `run_steps` and drops the replicas with the unwinding segment, so the
//! session can never continue from partially updated state. Any later
//! `run_steps`, `checkpoint` or `resize` on that `Trainer` panics; the
//! session is rebuilt with [`Trainer::resume`] from its last checkpoint.

use crate::chunk::ChunkPlan;
use crate::offload::PoolStats;
use crate::runtime::ckpt::{self, CkptError, StateDict, StateValue};
use crate::runtime::data::Corpus;
use crate::runtime::exec::{AttentionExec, DistAttention, LocalAttention, RingAttentionExec};
use crate::runtime::gpt::GptModel;
use crate::runtime::options::RuntimeOptions;
use fpdt_comm::{run_group, CommStats, Communicator};
use fpdt_model::config::{Family, ModelConfig};
use fpdt_tensor::nn::{AdamW, AdamWConfig};
use fpdt_trace::Recorder;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Which training mode to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One device, full sequence (the ground-truth trajectory).
    Single,
    /// DeepSpeed Ulysses: sequence parallel, one all-to-all per layer.
    Ulysses,
    /// Ring Attention: contiguous sequence shards, KV blocks rotate around
    /// the ring (full heads everywhere — no head scattering).
    Ring,
    /// FPDT: chunked pipeline with optional host offload.
    Fpdt {
        /// Sequence chunks per rank.
        chunks: usize,
        /// Cache idle chunks in the host pool.
        offload: bool,
    },
}

impl Mode {
    fn chunks(&self) -> usize {
        match self {
            Mode::Single | Mode::Ulysses | Mode::Ring => 1,
            Mode::Fpdt { chunks, .. } => *chunks,
        }
    }

    fn offload(&self) -> bool {
        matches!(self, Mode::Fpdt { offload: true, .. })
    }

    fn as_str(&self) -> String {
        match self {
            Mode::Single => "single".into(),
            Mode::Ulysses => "ulysses".into(),
            Mode::Ring => "ring".into(),
            Mode::Fpdt { chunks, offload } => {
                format!("fpdt:{chunks}:{}", u8::from(*offload))
            }
        }
    }

    fn parse(s: &str) -> Result<Mode, CkptError> {
        match s {
            "single" => Ok(Mode::Single),
            "ulysses" => Ok(Mode::Ulysses),
            "ring" => Ok(Mode::Ring),
            _ => {
                let rest = s
                    .strip_prefix("fpdt:")
                    .ok_or_else(|| CkptError::Corrupt(format!("unknown mode {s:?}")))?;
                let (chunks, offload) = rest
                    .split_once(':')
                    .ok_or_else(|| CkptError::Corrupt(format!("unknown mode {s:?}")))?;
                Ok(Mode::Fpdt {
                    chunks: chunks
                        .parse()
                        .map_err(|_| CkptError::Corrupt(format!("bad chunk count in {s:?}")))?,
                    offload: offload == "1",
                })
            }
        }
    }
}

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model architecture (use [`ModelConfig::tiny`]).
    pub model: ModelConfig,
    /// Ranks (ignored for [`Mode::Single`]).
    pub world: usize,
    /// Global sequence length per step.
    pub seq: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed for weights and data.
    pub seed: u64,
    /// Training mode.
    pub mode: Mode,
    /// ZeRO-1: shard optimizer state across ranks — each rank updates only
    /// its slice of the flat parameter vector (reduce-scatter semantics)
    /// and all-gathers the result, exactly like DeepSpeed ZeRO-1. The
    /// trajectory is unchanged (paper §3.2: FPDT composes with ZeRO).
    pub zero_shard: bool,
    /// Activation checkpointing (the paper's "AC."): save only block
    /// inputs in forward, recompute blocks in backward. Also unchanged
    /// numerically.
    pub activation_checkpoint: bool,
    /// Gradient accumulation: micro-steps per optimizer step (>= 1). The
    /// recorded loss is the window mean; all equivalence claims hold
    /// per-window.
    pub grad_accum: usize,
    /// Linear learning-rate warmup over this many optimizer steps
    /// (0 = constant LR). Applied identically in every mode, so the
    /// equivalence claims are schedule-independent.
    pub warmup_steps: usize,
    /// Runtime knobs (offload copy stream, asynchronous comm stream,
    /// kernel threads, comm retry budget, fault injection), defaulting
    /// from the `FPDT_*` environment via [`RuntimeOptions::from_env`]. The
    /// `offload` field is overridden by [`Mode::Fpdt`]'s flag. Every
    /// setting is bitwise-invisible.
    pub runtime: RuntimeOptions,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::small(Mode::Single)
    }
}

impl TrainConfig {
    /// A small default suitable for tests and the quickstart example.
    pub fn small(mode: Mode) -> Self {
        TrainConfig {
            model: ModelConfig::tiny(2, 32, 4, 50),
            world: 2,
            seq: 64,
            steps: 10,
            lr: 3e-3,
            seed: 42,
            mode,
            zero_shard: false,
            activation_checkpoint: false,
            grad_accum: 1,
            warmup_steps: 0,
            runtime: RuntimeOptions::from_env(),
        }
    }

    /// Panics on a geometry the mode cannot run (the same contract the
    /// original `train` entry point had).
    fn validate(&self) {
        if matches!(self.mode, Mode::Single) {
            return;
        }
        let world = self.world;
        if !matches!(self.mode, Mode::Ring) {
            // Ring keeps full heads; Ulysses/FPDT scatter them.
            assert!(
                self.model.heads.is_multiple_of(world),
                "heads must divide across ranks"
            );
            assert!(
                self.model.kv_heads.is_multiple_of(world),
                "kv heads must divide across ranks (Ulysses head scattering)"
            );
        }
        assert!(
            self.seq.is_multiple_of(world * self.mode.chunks()),
            "sequence must divide into world x chunks segments"
        );
    }
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per step (identical on every rank).
    pub losses: Vec<f32>,
    /// Host-pool statistics of rank 0 (all zeros unless offloading).
    pub host: PoolStats,
    /// Bytes of Adam moment state held by rank 0 — shrinks by `1/world`
    /// under ZeRO-1 sharding.
    pub opt_state_bytes: usize,
    /// Rank 0's per-collective traffic counters (empty for
    /// [`Mode::Single`]).
    pub comm: fpdt_comm::CommStats,
    /// The last optimizer window's reduced (unscaled) gradients — what the
    /// resume determinism suite compares bit for bit across interrupted
    /// and uninterrupted runs.
    pub grads: Vec<f32>,
}

/// Typed failure of a training segment.
#[derive(Debug)]
pub enum TrainError {
    /// A collective failed beyond the retry budget (or fatally).
    Comm(fpdt_comm::CommError),
    /// The executor failed outside the comm layer (shape bugs and the
    /// like) — carried as text because executor errors are type-erased.
    Exec(String),
    /// Checkpoint save/restore failed.
    Ckpt(CkptError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Comm(e) => write!(f, "training step failed in a collective: {e}"),
            TrainError::Exec(e) => write!(f, "training step failed in the executor: {e}"),
            TrainError::Ckpt(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Comm(e) => Some(e),
            TrainError::Exec(_) => None,
            TrainError::Ckpt(e) => Some(e),
        }
    }
}

impl From<fpdt_comm::CommError> for TrainError {
    fn from(e: fpdt_comm::CommError) -> Self {
        TrainError::Comm(e)
    }
}

impl From<CkptError> for TrainError {
    fn from(e: CkptError) -> Self {
        TrainError::Ckpt(e)
    }
}

fn exec_error(e: Box<dyn std::error::Error + Send + Sync>) -> TrainError {
    match e.downcast::<fpdt_comm::CommError>() {
        Ok(comm) => TrainError::Comm(*comm),
        Err(other) => TrainError::Exec(other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Segment machinery
// ---------------------------------------------------------------------------

/// One rank's resident training state, held by the [`Trainer`] between
/// segments and lent to the rank's thread for the length of one.
#[derive(Debug)]
struct Replica {
    /// The rank's model replica (the same parameters on every rank).
    model: GptModel,
    /// Adam state: this rank's ZeRO-1 slice of the flat moments under id
    /// 0, or the dense per-tensor moments keyed by visit order.
    opt: AdamW,
    /// The data stream (every rank samples the global sequence).
    corpus: Corpus,
}

/// Ranks, and so resident replicas, a configuration runs on.
fn ranks(cfg: &TrainConfig) -> usize {
    if matches!(cfg.mode, Mode::Single) {
        1
    } else {
        cfg.world
    }
}

/// Whether the optimizer state is ZeRO-1 sharded (it needs two ranks).
fn zero_sharded(cfg: &TrainConfig) -> bool {
    cfg.zero_shard && ranks(cfg) > 1
}

/// Rank `rank`'s contiguous slice of an `n`-element flat vector. The same
/// integer division at every world, so the slices concatenate exactly.
fn shard_bounds(n: usize, rank: usize, world: usize) -> (usize, usize) {
    (rank * n / world, (rank + 1) * n / world)
}

/// Builds one replica per rank of `cfg` from the world-independent flat
/// view: `model` (cloned to every rank), the optimizer step and flat
/// moments `m`/`v`, and the data-RNG words.
fn build_replicas(
    cfg: &TrainConfig,
    model: GptModel,
    opt_step: u64,
    m: &[f32],
    v: &[f32],
    rng: [u64; 4],
) -> Vec<Replica> {
    let world = ranks(cfg);
    let zero = zero_sharded(cfg);
    let mut lens = Vec::new();
    model.visit_params(|p| lens.push(p.numel()));
    vec![model; world]
        .into_iter()
        .enumerate()
        .map(|(rank, model)| {
            let entries = if zero {
                let (lo, hi) = shard_bounds(m.len(), rank, world);
                vec![(0, m[lo..hi].to_vec(), v[lo..hi].to_vec())]
            } else {
                let mut off = 0usize;
                (0u64..)
                    .zip(&lens)
                    .map(|(id, &len)| {
                        off += len;
                        (id, m[off - len..off].to_vec(), v[off - len..off].to_vec())
                    })
                    .collect()
            };
            let mut opt = AdamW::new(AdamWConfig {
                lr: cfg.lr,
                ..Default::default()
            });
            opt.import_state(opt_step, entries);
            let mut corpus = Corpus::new(cfg.model.vocab, 0.05, cfg.seed ^ 0x5eed);
            corpus.set_rng_state(rng);
            Replica { model, opt, corpus }
        })
        .collect()
}

/// Elements `lo..hi` of the flat moment vectors: every rank's ZeRO-1
/// slice concatenated in rank order, or rank 0's dense per-tensor moments
/// in visit order.
fn moments_range(replicas: &[Replica], zero: bool, lo: usize, hi: usize) -> (Vec<f32>, Vec<f32>) {
    let owners = if zero { replicas } else { &replicas[..1] };
    let (mut m, mut v) = (Vec::with_capacity(hi - lo), Vec::with_capacity(hi - lo));
    let mut off = 0usize;
    for r in owners {
        // both layouts register ids 0, 1, 2, ... with no gaps
        for (pm, pv) in (0..).map_while(|id| r.opt.moments(id)) {
            let (a, b) = (lo.max(off), hi.min(off + pm.len()));
            if a < b {
                m.extend_from_slice(&pm[a - off..b - off]);
                v.extend_from_slice(&pv[a - off..b - off]);
            }
            off += pm.len();
        }
    }
    (m, v)
}

/// Rank 0's segment result. Losses, gradients and step counts are
/// identical across ranks by construction.
struct SegmentOut {
    steps: usize,
    losses: Vec<f32>,
    grads: Vec<f32>,
    host: PoolStats,
    comm: CommStats,
    err: Option<TrainError>,
}

/// A collective with transient-fault replay: wraps
/// [`Communicator::retrying`] (which tallies the retry counters) and marks
/// each replay with a `recover.retry` trace event.
fn retrying_traced<T>(
    comm: &Communicator,
    budget: usize,
    recorder: Option<&Recorder>,
    mut f: impl FnMut(&Communicator) -> fpdt_comm::Result<T>,
) -> Result<T, TrainError> {
    comm.retrying(budget, |c| {
        let out = f(c);
        if let (Err(e), Some(rec)) = (&out, recorder) {
            if e.is_retryable() {
                rec.event("recover.retry");
            }
        }
        out
    })
    .map_err(TrainError::Comm)
}

/// ZeRO-1 optimizer step: update this rank's slice of the flat parameters
/// with its moment shard, then all-gather every rank's slice. The
/// optimizer commits (step counter and moments) only once the gather has
/// succeeded, so a failed window leaves it untouched and the window's
/// retry applies Adam exactly once.
fn zero_step(
    comm: &Communicator,
    retries: usize,
    recorder: Option<&Recorder>,
    model: &mut GptModel,
    opt: &mut AdamW,
    reduced: &[f32],
    scale: f32,
) -> Result<(), TrainError> {
    let (lo, hi) = shard_bounds(reduced.len(), comm.rank(), comm.world());
    let mut shard = model.params_range(lo, hi);
    let gshard: Vec<f32> = reduced[lo..hi].iter().map(|g| g * scale).collect();
    opt.stage(0, &mut shard, &gshard);
    let shards = retrying_traced(comm, retries, recorder, |c| c.all_gather(&shard))?;
    opt.commit(0, &gshard);
    let mut off = 0;
    for s in &shards {
        model.set_params_range(off, s);
        off += s.len();
    }
    assert_eq!(off, reduced.len(), "gathered slices cover every parameter");
    Ok(())
}

/// One rank's share of a segment: its index, its sequence shard plan
/// (None when the whole sequence is local), the micro-steps completed
/// before the segment (they drive warmup) and the micro-steps to run.
struct RankCtx<'a> {
    rank: usize,
    plan: Option<&'a ChunkPlan>,
    base_step: usize,
    steps: usize,
}

/// Runs one rank's share of a segment on its resident replica: whole
/// accumulation windows, and on a failed window a roll back to the last
/// step boundary (rewind the data RNG, zero the gradients) instead of
/// keeping partial state.
fn run_rank_segment(
    cfg: &TrainConfig,
    ctx: &RankCtx<'_>,
    exec: &mut dyn AttentionExec,
    recorder: Option<&Recorder>,
    replica: &mut Replica,
    mut sync_and_step: impl FnMut(
        &mut GptModel,
        &mut AdamW,
        f32,
        usize,
    ) -> Result<(f32, usize, Vec<f32>), TrainError>,
) -> SegmentOut {
    let RankCtx {
        rank,
        plan,
        base_step,
        steps,
    } = *ctx;
    let Replica { model, opt, corpus } = replica;
    let mlp_chunks = 2 * cfg.mode.chunks();
    let loss_chunks = (cfg.model.vocab / cfg.model.hidden * 2).max(1);
    let accum = cfg.grad_accum.max(1);
    let mut out = SegmentOut {
        steps: 0,
        losses: Vec::with_capacity(steps / accum),
        grads: Vec::new(),
        host: PoolStats::default(),
        comm: CommStats::default(),
        err: None,
    };
    for w in 0..steps / accum {
        let rng_snap = corpus.rng_state();
        model.zero_grad();
        let window = 'window: {
            let mut window_loss = 0.0f32;
            let mut window_tokens = 0usize;
            for _micro in 0..accum {
                let (gx, gy) = corpus.sample(cfg.seq);
                let (tokens, targets, pos) = match plan {
                    Some(p) => (
                        p.shard(rank, &gx),
                        p.shard(rank, &gy),
                        p.local_positions(rank),
                    ),
                    None => (gx, gy, (0..cfg.seq).collect()),
                };
                let fb = if cfg.activation_checkpoint {
                    model.forward_backward_checkpointed(
                        exec,
                        &tokens,
                        &targets,
                        &pos,
                        mlp_chunks,
                        loss_chunks,
                    )
                } else {
                    model.forward_backward(exec, &tokens, &targets, &pos, mlp_chunks, loss_chunks)
                };
                match fb {
                    Ok(stats) => {
                        window_loss += stats.loss_sum;
                        window_tokens += stats.tokens;
                    }
                    Err(e) => break 'window Err(exec_error(e)),
                }
            }
            // linear warmup on the *global* optimizer-step counter, so
            // resumed segments continue the schedule exactly
            if cfg.warmup_steps > 0 {
                let opt_step_no = (base_step + (w + 1) * accum) / accum;
                let frac = (opt_step_no as f32 / cfg.warmup_steps as f32).min(1.0);
                opt.set_lr(cfg.lr * frac);
            }
            sync_and_step(model, opt, window_loss, window_tokens)
        };
        match window {
            Ok((loss_sum, total_tokens, g)) => {
                out.losses.push(loss_sum / total_tokens as f32);
                out.grads = g;
                out.steps += accum;
            }
            Err(e) => {
                out.err = Some(e);
                corpus.set_rng_state(rng_snap);
                model.zero_grad();
                if let Some(rec) = recorder {
                    rec.event("recover.rollback");
                }
                break;
            }
        }
    }
    out
}

/// Runs one segment at the configured geometry on the resident replicas
/// (one per rank, updated in place), returning rank 0's result.
fn run_segment(
    cfg: &TrainConfig,
    recorder: Option<&Recorder>,
    replicas: &mut [Replica],
    base_step: usize,
    steps: usize,
) -> SegmentOut {
    match cfg.mode {
        Mode::Single => {
            let mut exec = LocalAttention::new(1);
            let ctx = RankCtx {
                rank: 0,
                plan: None,
                base_step,
                steps,
            };
            run_rank_segment(
                cfg,
                &ctx,
                &mut exec,
                recorder,
                &mut replicas[0],
                |model, opt, ls, tok| {
                    let flat = model.collect_grads();
                    model.set_grads(&flat, 1.0 / tok as f32);
                    model.optimizer_step(opt);
                    Ok((ls, tok, flat))
                },
            )
        }
        Mode::Ulysses | Mode::Ring | Mode::Fpdt { .. } => {
            let world = cfg.world;
            let chunks = cfg.mode.chunks();
            let offload = cfg.mode.offload();
            let retries = cfg.runtime.comm_retries;
            let zero = zero_sharded(cfg);
            // each rank thread holds its own replica's lock for the segment
            let slots: Vec<Mutex<&mut Replica>> = replicas.iter_mut().map(Mutex::new).collect();
            let mut outs = run_group(world, |comm| {
                let comm = Arc::new(comm);
                let plan = ChunkPlan::new(cfg.seq, world, chunks).expect("validated by Trainer");
                // SPMD-symmetric fault injection: every rank arms the same
                // faults, so failures (and recoveries) stay collective.
                if cfg.runtime.fault_inject > 0 {
                    comm.inject_fault("all_gather", cfg.runtime.fault_inject);
                }
                let rank = comm.rank();
                let mut dist_exec: Option<DistAttention> = None;
                let mut ring_exec;
                let exec: &mut dyn AttentionExec = if matches!(cfg.mode, Mode::Ring) {
                    ring_exec = RingAttentionExec::new(&comm, cfg.seq);
                    &mut ring_exec
                } else {
                    let opts = cfg.runtime.with_offload(offload);
                    let mut ex = DistAttention::with_opts(Arc::clone(&comm), plan, opts);
                    if let Some(rec) = recorder {
                        ex = ex.with_recorder(rec.clone());
                    }
                    dist_exec = Some(ex);
                    dist_exec.as_mut().expect("just set")
                };
                let sync = |model: &mut GptModel, opt: &mut AdamW, ls: f32, tok: usize| {
                    // deterministic rank-order reductions; gradients go
                    // through the chunked reducer (future-work fix: the
                    // staging transient is capped at two buckets instead
                    // of a flat copy of every gradient)
                    const REDUCE_BUCKET: usize = 1 << 16;
                    let scalars = retrying_traced(&comm, retries, recorder, |c| {
                        c.all_reduce(&[ls, tok as f32])
                    })?;
                    let flat = model.collect_grads();
                    let reduce_span = recorder
                        .map(|r| r.span("allreduce.grads").bytes((flat.len() * 4) as u64));
                    let reduced = retrying_traced(&comm, retries, recorder, |c| {
                        c.all_reduce_chunked(&flat, REDUCE_BUCKET)
                    })?;
                    drop((reduce_span, flat));
                    let scale = 1.0 / scalars[1];
                    if zero {
                        zero_step(&comm, retries, recorder, model, opt, &reduced, scale)?;
                    } else {
                        model.set_grads(&reduced, scale);
                        model.optimizer_step(opt);
                    }
                    Ok((scalars[0], scalars[1] as usize, reduced))
                };
                let ctx = RankCtx {
                    rank,
                    plan: Some(&plan),
                    base_step,
                    steps,
                };
                let mut replica = slots[rank].lock().unwrap_or_else(PoisonError::into_inner);
                let mut out = run_rank_segment(cfg, &ctx, exec, recorder, &mut replica, sync);
                out.host = match cfg.mode {
                    Mode::Ring => PoolStats::default(),
                    _ => dist_exec
                        .as_ref()
                        .map(|e| e.host_stats())
                        .unwrap_or_default(),
                };
                out.comm = comm.stats();
                out
            });
            outs.swap_remove(0)
        }
    }
}

// ---------------------------------------------------------------------------
// The Trainer
// ---------------------------------------------------------------------------

/// Why a `Trainer` without replicas refuses to go on.
const NO_REPLICAS: &str = "a rank panicked in an earlier run_steps and took this Trainer's \
     replicas with it; rebuild the session with Trainer::resume from the last checkpoint";

/// A resumable, fault-tolerant training session (see the module docs).
///
/// Each rank's model, optimizer and data stream stay resident between
/// segments; `run_steps` lends them to a fresh thread-device world and
/// takes them back. [`Trainer::checkpoint`] cuts per-rank shards from the
/// flat view of that state (no collective involved); [`Trainer::resume`]
/// rebuilds the replicas from a shard directory.
#[derive(Debug)]
pub struct Trainer {
    cfg: TrainConfig,
    recorder: Option<Recorder>,
    /// One per rank; empty only after a rank panic unwound a segment.
    replicas: Vec<Replica>,
    opt_state_bytes: usize,
    step: usize,
    losses: Vec<f32>,
    grads: Vec<f32>,
    host: PoolStats,
    comm: CommStats,
}

impl Trainer {
    /// Initializes a session at step 0 (seeded weights, zero moments).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (heads not divisible by world,
    /// sequence not divisible by `world * chunks`) — the same contract
    /// [`train`] always had.
    pub fn new(cfg: TrainConfig) -> Self {
        cfg.validate();
        let model = GptModel::new(&cfg.model, cfg.seed);
        let zeros = vec![0.0; model.param_count()];
        let rng = Corpus::new(cfg.model.vocab, 0.05, cfg.seed ^ 0x5eed).rng_state();
        let replicas = build_replicas(&cfg, model, 0, &zeros, &zeros, rng);
        Trainer {
            cfg,
            recorder: None,
            replicas,
            opt_state_bytes: 0,
            step: 0,
            losses: Vec::new(),
            grads: Vec::new(),
            host: PoolStats::default(),
            comm: CommStats::default(),
        }
    }

    /// Attaches a span recorder (same instrumentation as [`train_traced`],
    /// plus `recover.retry` / `recover.rollback` events).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.replicas = std::mem::take(&mut self.replicas)
            .into_iter()
            .map(|mut r| {
                r.model = r.model.with_recorder(recorder.clone());
                r
            })
            .collect();
        self.recorder = Some(recorder);
        self
    }

    /// Micro-steps completed so far.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The session's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Replaces the runtime knobs for subsequent segments (retry budgets,
    /// fault injection, payload precision — all bitwise-invisible except
    /// where documented).
    pub fn set_runtime(&mut self, runtime: RuntimeOptions) {
        self.cfg.runtime = runtime;
    }

    /// Elastically resizes the thread-device world for subsequent
    /// segments: the replicas are flattened into the world-independent
    /// view and re-cut for the new world (ZeRO-1 moment slices re-shard
    /// exactly).
    ///
    /// # Panics
    ///
    /// Panics when the model/sequence cannot divide across the new world
    /// (same divisibility contract as [`Trainer::new`]), or after a rank
    /// panic took the replicas (see the module docs).
    pub fn resize(&mut self, world: usize) {
        let mut cfg = self.cfg.clone();
        cfg.world = world;
        cfg.validate();
        let replicas = self.take_replicas();
        let n = replicas[0].model.param_count();
        let (m, v) = moments_range(&replicas, zero_sharded(&self.cfg), 0, n);
        let (opt_step, rng) = (replicas[0].opt.steps(), replicas[0].corpus.rng_state());
        let model = replicas.into_iter().next().expect("non-empty").model;
        self.replicas = build_replicas(&cfg, model, opt_step, &m, &v, rng);
        self.cfg = cfg;
    }

    /// Moves the replicas out of the session. A rank panic unwinds past
    /// the point where a segment hands them back, so they are then gone
    /// for good rather than half-updated.
    fn take_replicas(&mut self) -> Vec<Replica> {
        let replicas = std::mem::take(&mut self.replicas);
        assert!(!replicas.is_empty(), "{NO_REPLICAS}");
        replicas
    }

    fn replicas(&self) -> &[Replica] {
        assert!(!self.replicas.is_empty(), "{NO_REPLICAS}");
        &self.replicas
    }

    /// Runs `n` micro-steps (whole accumulation windows) on the resident
    /// replicas. On a collective failure past the retry budget the
    /// session rolls back to the last completed optimizer window and the
    /// error is returned — call `run_steps` again to retry the remainder.
    ///
    /// # Errors
    ///
    /// [`TrainError::Comm`] for collective failures, [`TrainError::Exec`]
    /// for executor failures.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not a multiple of `grad_accum` — segments must
    /// align to optimizer windows or rollback boundaries would be
    /// ambiguous. A rank panic propagates, and leaves the session without
    /// replicas (see the module docs).
    pub fn run_steps(&mut self, n: usize) -> Result<(), TrainError> {
        let accum = self.cfg.grad_accum.max(1);
        assert!(
            n.is_multiple_of(accum),
            "run_steps({n}) must be a whole number of grad_accum={accum} windows"
        );
        if n == 0 {
            return Ok(());
        }
        let mut replicas = self.take_replicas();
        let r0 = run_segment(
            &self.cfg,
            self.recorder.as_ref(),
            &mut replicas,
            self.step,
            n,
        );
        self.opt_state_bytes = replicas[0].opt.state_bytes();
        self.replicas = replicas;
        self.step += r0.steps;
        self.losses.extend(r0.losses);
        if !r0.grads.is_empty() {
            self.grads = r0.grads;
        }
        self.host.merge(&r0.host);
        self.comm.merge(&r0.comm);
        match r0.err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The accumulated report — identical to what [`train`] returns for an
    /// uninterrupted run of the same steps.
    pub fn report(&self) -> TrainReport {
        TrainReport {
            losses: self.losses.clone(),
            host: self.host,
            opt_state_bytes: self.opt_state_bytes,
            comm: self.comm.clone(),
            grads: self.grads.clone(),
        }
    }

    /// Replicated (world-independent) metadata every shard carries.
    fn meta_dict(&self) -> StateDict {
        let cfg = &self.cfg;
        let r0 = &self.replicas()[0];
        let mut d = StateDict::new();
        d.insert("cfg.model.name", StateValue::Str(cfg.model.name.clone()));
        d.insert(
            "cfg.model.family",
            StateValue::Str(
                match cfg.model.family {
                    Family::Gpt => "gpt",
                    Family::Llama => "llama",
                }
                .into(),
            ),
        );
        d.insert(
            "cfg.model.dims",
            StateValue::U64(vec![
                cfg.model.layers as u64,
                cfg.model.hidden as u64,
                cfg.model.heads as u64,
                cfg.model.kv_heads as u64,
                cfg.model.ffn_hidden as u64,
                cfg.model.vocab as u64,
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
        d.insert("cfg.mode", StateValue::Str(cfg.mode.as_str()));
        d.insert("trainer.step", StateValue::U64(vec![self.step as u64]));
        d.insert("opt.step", StateValue::U64(vec![r0.opt.steps()]));
        d.insert(
            "opt.state_bytes",
            StateValue::U64(vec![self.opt_state_bytes as u64]),
        );
        d.insert("rng.state", StateValue::U64(r0.corpus.rng_state().to_vec()));
        d.insert("trainer.losses", StateValue::F32(self.losses.clone()));
        d.insert("trainer.grads", StateValue::F32(self.grads.clone()));
        d.insert(
            "stats.pool",
            StateValue::U64(vec![
                self.host.offloads,
                self.host.fetches,
                self.host.bytes,
                self.host.peak_bytes,
                self.host.bytes_offloaded,
                self.host.bytes_fetched,
            ]),
        );
        d.insert(
            "stats.comm.ops",
            StateValue::Str(
                self.comm
                    .ops
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
        );
        d.insert(
            "stats.comm.counts",
            StateValue::U64(
                self.comm
                    .ops
                    .iter()
                    .flat_map(|(_, s)| [s.sends, s.recvs, s.bytes_sent, s.bytes_recv])
                    .collect(),
            ),
        );
        d.insert(
            "stats.comm.recovery",
            StateValue::U64(vec![self.comm.faults, self.comm.retries]),
        );
        d
    }

    /// Writes a sharded checkpoint: one `shard-{rank}-of-{world}.fpdt`
    /// per configured rank, each holding the replicated metadata plus that
    /// rank's contiguous slice of the flat parameters and moments. Cut
    /// from the replicas' flat view at a segment boundary, so no
    /// collective (and no live world) is involved.
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s for any filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics after a rank panic took the replicas (see the module docs).
    pub fn checkpoint(&self, dir: &Path) -> Result<(), CkptError> {
        let world = self.cfg.world.max(1);
        let replicas = self.replicas();
        let n = replicas[0].model.param_count();
        for rank in 0..world {
            let (lo, hi) = shard_bounds(n, rank, world);
            let (m, v) = moments_range(replicas, zero_sharded(&self.cfg), lo, hi);
            let mut d = self.meta_dict();
            d.insert("meta.rank", StateValue::U64(vec![rank as u64]));
            d.insert(
                "model.params.shard",
                StateValue::F32(replicas[0].model.params_range(lo, hi)),
            );
            d.insert("opt.m.shard", StateValue::F32(m));
            d.insert("opt.v.shard", StateValue::F32(v));
            ckpt::write_shard(dir, rank, world, &d)?;
        }
        Ok(())
    }

    /// [`Trainer::checkpoint`] into the `FPDT_CKPT_DIR` directory, when
    /// set. Returns the directory written to, or `None` when the knob is
    /// unset.
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::checkpoint`].
    pub fn checkpoint_default(&self) -> Result<Option<PathBuf>, CkptError> {
        match crate::runtime::options::env_ckpt_dir() {
            Some(dir) => {
                self.checkpoint(&dir)?;
                Ok(Some(dir))
            }
            None => Ok(None),
        }
    }

    /// Rebuilds a session from a sharded checkpoint directory. The
    /// training configuration is restored from the shards; runtime knobs
    /// come from the current `FPDT_*` environment (they are policy, not
    /// state).
    ///
    /// # Errors
    ///
    /// Typed [`CkptError`]s: missing or extra shards, truncation, version
    /// mismatches, replicated metadata that disagrees between shards, or
    /// state that does not fit the recorded architecture.
    pub fn resume(dir: &Path) -> Result<Self, CkptError> {
        let paths = ckpt::shard_paths(dir)?;
        let meta = ckpt::read_shard(&paths[0])?;
        let dims = meta.u64s("cfg.model.dims")?;
        if dims.len() != 6 {
            return Err(CkptError::Corrupt(format!(
                "cfg.model.dims has {} fields",
                dims.len()
            )));
        }
        let family = match meta.str("cfg.model.family")? {
            "gpt" => Family::Gpt,
            "llama" => Family::Llama,
            other => {
                return Err(CkptError::Corrupt(format!("unknown model family {other:?}")))
            }
        };
        let model = ModelConfig {
            name: meta.str("cfg.model.name")?.to_string(),
            family,
            layers: dims[0] as usize,
            hidden: dims[1] as usize,
            heads: dims[2] as usize,
            kv_heads: dims[3] as usize,
            ffn_hidden: dims[4] as usize,
            vocab: dims[5] as usize,
        };
        let t = meta.u64s("cfg.train")?;
        if t.len() != 8 {
            return Err(CkptError::Corrupt(format!("cfg.train has {} fields", t.len())));
        }
        if t[0] as usize != paths.len() {
            return Err(CkptError::Corrupt(format!(
                "config world {} disagrees with {} shards",
                t[0],
                paths.len()
            )));
        }
        let lr_entry = meta.f32s("cfg.lr")?;
        let cfg = TrainConfig {
            model,
            world: t[0] as usize,
            seq: t[1] as usize,
            steps: t[2] as usize,
            grad_accum: t[3] as usize,
            warmup_steps: t[4] as usize,
            zero_shard: t[5] != 0,
            activation_checkpoint: t[6] != 0,
            seed: t[7],
            lr: *lr_entry.first().ok_or_else(|| {
                CkptError::Corrupt("cfg.lr is empty".into())
            })?,
            mode: Mode::parse(meta.str("cfg.mode")?)?,
            runtime: RuntimeOptions::from_env(),
        };
        cfg.validate();

        let rng_words = meta.u64s("rng.state")?;
        let rng: [u64; 4] = rng_words.try_into().map_err(|_| {
            CkptError::Corrupt(format!("rng.state has {} words", rng_words.len()))
        })?;
        let pool = meta.u64s("stats.pool")?;
        if pool.len() != 6 {
            return Err(CkptError::Corrupt(format!(
                "stats.pool has {} fields",
                pool.len()
            )));
        }
        let host = PoolStats {
            offloads: pool[0],
            fetches: pool[1],
            bytes: pool[2],
            peak_bytes: pool[3],
            bytes_offloaded: pool[4],
            bytes_fetched: pool[5],
        };
        let op_names: Vec<&str> = {
            let raw = meta.str("stats.comm.ops")?;
            if raw.is_empty() {
                Vec::new()
            } else {
                raw.split('\n').collect()
            }
        };
        let counts = meta.u64s("stats.comm.counts")?;
        if counts.len() != op_names.len() * 4 {
            return Err(CkptError::Corrupt(format!(
                "stats.comm.counts has {} values for {} ops",
                counts.len(),
                op_names.len()
            )));
        }
        let recovery = meta.u64s("stats.comm.recovery")?;
        if recovery.len() != 2 {
            return Err(CkptError::Corrupt(format!(
                "stats.comm.recovery has {} fields",
                recovery.len()
            )));
        }
        let comm = CommStats {
            ops: op_names
                .iter()
                .zip(counts.chunks_exact(4))
                .map(|(name, c)| {
                    (
                        name.to_string(),
                        fpdt_comm::OpStats {
                            sends: c[0],
                            recvs: c[1],
                            bytes_sent: c[2],
                            bytes_recv: c[3],
                        },
                    )
                })
                .collect(),
            recv_wait: std::time::Duration::ZERO,
            faults: recovery[0],
            retries: recovery[1],
        };

        let step = meta.u64_scalar("trainer.step")?;
        let opt_step = meta.u64_scalar("opt.step")?;
        let opt_state_bytes = meta.u64_scalar("opt.state_bytes")? as usize;
        let losses = meta.f32s("trainer.losses")?.to_vec();
        let grads = meta.f32s("trainer.grads")?.to_vec();

        // Shards are decoded one at a time and dropped once their slices
        // are copied out, which keeps the resume's memory peak low.
        let mut params = Vec::new();
        let mut m = Vec::new();
        let mut v = Vec::new();
        let mut first = Some(meta);
        for (rank, path) in paths.iter().enumerate() {
            let shard = match first.take() {
                Some(meta) => meta,
                None => ckpt::read_shard(path)?,
            };
            if shard.u64_scalar("meta.rank")? != rank as u64 {
                return Err(CkptError::Corrupt(format!(
                    "shard {rank} carries the wrong rank id"
                )));
            }
            for (key, value) in [("trainer.step", step), ("opt.step", opt_step)] {
                if shard.u64_scalar(key)? != value {
                    return Err(CkptError::Corrupt(format!(
                        "replicated {key} disagrees between shards 0 and {rank}"
                    )));
                }
            }
            params.extend_from_slice(shard.f32s("model.params.shard")?);
            m.extend_from_slice(shard.f32s("opt.m.shard")?);
            v.extend_from_slice(shard.f32s("opt.v.shard")?);
        }
        let mut model = GptModel::zeroed(&cfg.model);
        let expected = model.param_count();
        if params.len() != expected {
            return Err(CkptError::Corrupt(format!(
                "shards hold {} parameters, architecture expects {expected}",
                params.len()
            )));
        }
        if m.len() != expected || v.len() != expected {
            return Err(CkptError::Corrupt(format!(
                "moment vectors ({}, {}) do not match {expected} parameters",
                m.len(),
                v.len()
            )));
        }

        model.set_params(&params);
        drop(params);
        Ok(Trainer {
            step: step as usize,
            opt_state_bytes,
            losses,
            grads,
            replicas: build_replicas(&cfg, model, opt_step, &m, &v, rng),
            cfg,
            recorder: None,
            host,
            comm,
        })
    }
}

/// Runs a training experiment, returning the per-step mean losses.
///
/// A thin wrapper over [`Trainer`]: `Trainer::new(cfg)` + one
/// `run_steps` segment covering every whole accumulation window in
/// `cfg.steps`.
///
/// # Panics
///
/// Panics on inconsistent configuration (heads not divisible by world,
/// sequence not divisible by `world * chunks`) or internal errors — this
/// is an experiment driver, not a library entry point.
pub fn train(cfg: &TrainConfig) -> TrainReport {
    train_traced(cfg, None)
}

/// [`train`] with wall-clock instrumentation: when a [`Recorder`] is
/// given, every rank records spans for its per-chunk all-to-alls,
/// attention chunks, host offload copies, and gradient all-reduces
/// (export with [`Recorder::chrome_trace_json`]).
///
/// # Panics
///
/// Same conditions as [`train`].
pub fn train_traced(cfg: &TrainConfig, recorder: Option<&Recorder>) -> TrainReport {
    let mut trainer = Trainer::new(cfg.clone());
    if let Some(rec) = recorder {
        trainer = trainer.with_recorder(rec.clone());
    }
    let accum = cfg.grad_accum.max(1);
    trainer
        .run_steps(cfg.steps / accum * accum)
        .expect("training step failed");
    trainer.report()
}

/// Test fixture: [`TrainConfig::small`] with f32 payloads pinned. The
/// cross-mode loss comparisons below assume f32 wires at their tight
/// tolerances, so an ambient `FPDT_BF16=1` (the CI bf16 leg) must not
/// leak into them; bf16 numerics get their own dedicated tolerance test.
#[cfg(test)]
fn small_f32(mode: Mode) -> TrainConfig {
    let mut cfg = TrainConfig::small(mode);
    cfg.runtime = cfg.runtime.with_payload_bf16(false);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn single_mode_learns() {
        let cfg = TrainConfig {
            steps: 25,
            ..TrainConfig::small(Mode::Single)
        };
        let r = train(&cfg);
        assert_eq!(r.losses.len(), 25);
        assert!(
            r.losses.last().unwrap() < &(r.losses[0] * 0.8),
            "{} -> {}",
            r.losses[0],
            r.losses.last().unwrap()
        );
    }

    #[test]
    fn figure14_fpdt_matches_baseline_losses() {
        // The paper's Figure 14/§5.6 claim: FPDT (with and without
        // offload) is numerically equivalent to the baseline — identical
        // loss curves up to float reassociation.
        let base = TrainConfig {
            steps: 8,
            ..small_f32(Mode::Single)
        };
        let single = train(&base);
        let ulysses = train(&TrainConfig {
            mode: Mode::Ulysses,
            ..base.clone()
        });
        let fpdt = train(&TrainConfig {
            mode: Mode::Fpdt {
                chunks: 4,
                offload: false,
            },
            ..base.clone()
        });
        let fpdt_off = train(&TrainConfig {
            mode: Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            ..base.clone()
        });

        assert!(
            close(&single.losses, &ulysses.losses, 2e-3),
            "ulysses: {:?} vs {:?}",
            single.losses,
            ulysses.losses
        );
        assert!(
            close(&single.losses, &fpdt.losses, 2e-3),
            "fpdt: {:?} vs {:?}",
            single.losses,
            fpdt.losses
        );
        assert!(
            close(&single.losses, &fpdt_off.losses, 2e-3),
            "fpdt+offload"
        );
        // offload actually exercised the host pool
        assert!(fpdt_off.host.offloads > 0);
        assert_eq!(fpdt.host.offloads, 0);
    }

    #[test]
    fn ranks_agree_bitwise() {
        // With deterministic reductions, reruns are bit-identical.
        let cfg = TrainConfig {
            steps: 5,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            ..TrainConfig::small(Mode::Single)
        };
        let a = train(&cfg);
        let b = train(&cfg);
        assert_eq!(a.losses, b.losses);
    }

    #[test]
    fn traced_training_records_spans_and_comm_traffic() {
        let cfg = TrainConfig {
            steps: 2,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            ..TrainConfig::small(Mode::Single)
        };
        let rec = Recorder::new();
        let r = train_traced(&cfg, Some(&rec));
        // Tracing must not perturb the trajectory.
        assert_eq!(r.losses, train(&cfg).losses);
        // Every instrumented phase shows up.
        for prefix in [
            "a2a.",
            "attn.fwd.",
            "attn.bwd.",
            "offload.",
            "allreduce.",
            "block.",
        ] {
            assert!(rec.total_us(prefix) >= 0.0);
            assert!(
                rec.records().iter().any(|s| s.label.starts_with(prefix)),
                "no {prefix} spans"
            );
        }
        // The trace exports and mentions both ranks' threads.
        let trace = rec.chrome_trace_json();
        assert!(trace.contains("\"allreduce.grads\""));
        // Comm counters saw the gradient all-reduce and the per-chunk
        // all-to-alls.
        assert!(r.comm.op("all_gather").is_some(), "{:?}", r.comm);
        assert!(r.comm.op("all_to_all").is_some());
        assert!(r.comm.total_bytes_sent() > 0);
    }

    #[test]
    fn bf16_payload_training_stays_close_with_identical_schedule() {
        // The FPDT_BF16 contract at the training level: same schedule
        // (transfer and message counts; all-to-all bytes exactly halved),
        // losses within bf16 rounding tolerance of the f32 run.
        let base = TrainConfig {
            steps: 6,
            mode: Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            ..small_f32(Mode::Single)
        };
        let full = train(&base);
        let mut bf_cfg = base.clone();
        bf_cfg.runtime = bf_cfg.runtime.with_payload_bf16(true);
        let half = train(&bf_cfg);
        assert!(
            close(&full.losses, &half.losses, 5e-2),
            "bf16 drift: {:?} vs {:?}",
            full.losses,
            half.losses
        );
        assert!(
            half.losses.last().unwrap() < &half.losses[0],
            "still learns under bf16: {:?}",
            half.losses
        );
        // Schedule shape is invariant.
        assert_eq!(full.host.offloads, half.host.offloads, "offload count");
        assert_eq!(full.host.fetches, half.host.fetches, "fetch count");
        assert!(
            half.host.bytes_offloaded < full.host.bytes_offloaded,
            "KV offload bytes shrink"
        );
        let af = full.comm.op("all_to_all").expect("f32 a2a");
        let ab = half.comm.op("all_to_all").expect("bf16 a2a");
        assert_eq!(af.sends, ab.sends, "same a2a message count");
        assert_eq!(af.recvs, ab.recvs);
        assert_eq!(ab.bytes_sent * 2, af.bytes_sent, "bytes_a2a halve exactly");
        // The gradient all-reduce stays full precision.
        let gf = full.comm.op("all_gather").expect("grad reduce");
        let gb = half.comm.op("all_gather").expect("grad reduce");
        assert_eq!(gf.bytes_sent, gb.bytes_sent, "all-reduce stays f32");
    }

    #[test]
    #[should_panic(expected = "sequence must divide")]
    fn bad_chunking_panics() {
        let cfg = TrainConfig {
            seq: 30,
            mode: Mode::Fpdt {
                chunks: 4,
                offload: false,
            },
            ..TrainConfig::small(Mode::Single)
        };
        train(&cfg);
    }
}

#[cfg(test)]
mod llama_tests {
    use super::*;

    #[test]
    fn llama_family_fpdt_matches_baseline() {
        // The paper trains both GPT and Llama; the equivalence claim must
        // hold under RMSNorm + SwiGLU + grouped-query attention too.
        let base = TrainConfig {
            model: ModelConfig::tiny_llama(2, 32, 4, 2, 48),
            world: 2,
            seq: 64,
            steps: 8,
            lr: 3e-3,
            seed: 7,
            mode: Mode::Single,
            ..small_f32(Mode::Single)
        };
        let single = train(&base);
        assert!(
            single.losses.last().unwrap() < &single.losses[0],
            "llama learns: {:?}",
            single.losses
        );
        for mode in [
            Mode::Ulysses,
            Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
        ] {
            let run = train(&TrainConfig {
                mode,
                ..base.clone()
            });
            for (a, b) in run.losses.iter().zip(&single.losses) {
                assert!((a - b).abs() < 5e-3, "{mode:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "kv heads must divide")]
    fn gqa_kv_heads_must_divide_world() {
        let cfg = TrainConfig {
            model: ModelConfig::tiny_llama(1, 32, 4, 2, 48),
            world: 4, // 2 kv heads cannot scatter over 4 ranks
            seq: 64,
            steps: 1,
            lr: 1e-3,
            seed: 0,
            mode: Mode::Ulysses,
            ..TrainConfig::default()
        };
        train(&cfg);
    }
}

#[cfg(test)]
mod zero_tests {
    use super::*;

    #[test]
    fn zero1_sharding_preserves_trajectory_and_shrinks_state() {
        // Paper §3.2: FPDT composes with the ZeRO family. A ZeRO-1
        // sharded optimizer must produce the identical trajectory (Adam
        // is elementwise) while holding 1/world of the moment state.
        let base = TrainConfig {
            steps: 8,
            world: 4,
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            ..TrainConfig::small(Mode::Single)
        };
        let dense = train(&base);
        let sharded = train(&TrainConfig {
            zero_shard: true,
            ..base.clone()
        });
        for (a, b) in sharded.losses.iter().zip(&dense.losses) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // rank 0 holds ~1/4 of the moment bytes (flat sharding)
        let ratio = sharded.opt_state_bytes as f64 / dense.opt_state_bytes as f64;
        assert!((0.2..0.3).contains(&ratio), "state ratio {ratio}");
    }

    #[test]
    fn zero1_works_for_ulysses_too() {
        let base = TrainConfig {
            steps: 5,
            ..TrainConfig::small(Mode::Ulysses)
        };
        let dense = train(&base);
        let sharded = train(&TrainConfig {
            zero_shard: true,
            ..base.clone()
        });
        for (a, b) in sharded.losses.iter().zip(&dense.losses) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}

#[cfg(test)]
mod rollback_tests {
    use super::*;

    #[test]
    fn failed_parameter_gather_leaves_the_zero1_optimizer_untouched() {
        // The ZeRO-1 update runs before the parameter all-gather; when the
        // gather fails past its retry budget, neither the step counter nor
        // the moments may advance, or the retried window applies Adam twice.
        let cfg = ModelConfig::tiny(1, 16, 2, 20);
        run_group(2, |comm| {
            let mut model = GptModel::new(&cfg, 3);
            let reduced: Vec<f32> = (0..model.param_count())
                .map(|i| (i % 7) as f32 * 0.01 - 0.03)
                .collect();
            let mut opt = AdamW::new(AdamWConfig {
                lr: 1e-2,
                ..Default::default()
            });
            let step = |model: &mut GptModel, opt: &mut AdamW| {
                zero_step(&comm, 0, None, model, opt, &reduced, 0.5)
            };
            step(&mut model, &mut opt).expect("first step");
            let (mut clean_model, mut clean_opt) = (model.clone(), opt.clone());
            step(&mut clean_model, &mut clean_opt).expect("clean second step");

            let (params, state) = (model.collect_params(), opt.export_state());
            comm.inject_fault("all_gather", 1);
            let err = step(&mut model, &mut opt).expect_err("the gather fails");
            assert!(matches!(err, TrainError::Comm(ref e) if e.is_retryable()), "{err}");
            assert_eq!(opt.steps(), 1, "step counter unchanged");
            assert_eq!(opt.export_state(), state, "moments unchanged");
            assert_eq!(model.collect_params(), params, "parameters unchanged");

            // the retried window lands bit for bit where the clean one did
            step(&mut model, &mut opt).expect("retried step");
            let bits = |x: Vec<f32>| x.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(model.collect_params()), bits(clean_model.collect_params()));
            assert_eq!(opt.export_state(), clean_opt.export_state());
        });
    }

    #[test]
    fn a_panicked_segment_leaves_no_replicas_to_continue_from() {
        let mut t = Trainer::new(small_f32(Mode::Single));
        t.run_steps(1).expect("clean step");
        // sabotage the optimizer so the next window's update panics
        t.replicas[0]
            .opt
            .import_state(1, vec![(0, vec![0.0], vec![0.0])]);
        let catch = |f: &mut dyn FnMut(&mut Trainer), t: &mut Trainer| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(t)))
                .expect_err("panics")
                .downcast::<String>()
                .map(|m| *m)
                .unwrap_or_default()
        };
        catch(&mut |t| drop(t.run_steps(1)), &mut t);
        assert!(t.replicas.is_empty(), "the unwound segment took the replicas");
        assert_eq!(t.step(), 1, "nothing of the panicked segment was kept");
        assert_eq!(t.report().losses.len(), 1);
        let dir = std::env::temp_dir().join(format!("fpdt-panicked-{}", std::process::id()));
        for msg in [
            catch(&mut |t| drop(t.run_steps(1)), &mut t),
            catch(&mut |t| drop(t.checkpoint(&dir)), &mut t),
            catch(&mut |t| t.resize(1), &mut t),
        ] {
            assert!(msg.contains("Trainer::resume"), "{msg}");
        }
        assert!(!dir.exists(), "no checkpoint was cut from missing replicas");
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;

    #[test]
    fn ring_attention_matches_baseline_losses() {
        // Ring Attention is also exact (blockwise online attention +
        // rotating gradients): same trajectory as the single-device run.
        let base = TrainConfig {
            steps: 8,
            ..TrainConfig::small(Mode::Single)
        };
        let single = train(&base);
        let ring = train(&TrainConfig {
            mode: Mode::Ring,
            world: 4,
            ..base.clone()
        });
        for (a, b) in ring.losses.iter().zip(&single.losses) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn ring_works_with_odd_head_counts() {
        // Unlike Ulysses, ring attention has no head-divisibility
        // constraint: 3 heads on 2 ranks is fine.
        let cfg = TrainConfig {
            model: ModelConfig::tiny(1, 48, 3, 40),
            world: 2,
            seq: 32,
            steps: 3,
            lr: 1e-3,
            seed: 5,
            mode: Mode::Ring,
            ..TrainConfig::default()
        };
        let r = train(&cfg);
        assert!(r.losses.iter().all(|l| l.is_finite()));
    }
}

#[cfg(test)]
mod ac_tests {
    use super::*;

    #[test]
    fn activation_checkpointing_is_numerically_free() {
        // Recompute-in-backward must not change the trajectory, in any
        // mode — including FPDT with offload, where the recompute streams
        // chunks back through the host pool a second time.
        let base = TrainConfig {
            steps: 6,
            ..small_f32(Mode::Single)
        };
        let plain = train(&base);
        for mode in [
            Mode::Single,
            Mode::Ulysses,
            Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
        ] {
            let ac = train(&TrainConfig {
                mode,
                activation_checkpoint: true,
                ..base.clone()
            });
            for (a, b) in ac.losses.iter().zip(&plain.losses) {
                assert!((a - b).abs() < 5e-3, "{mode:?} AC diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn checkpointing_doubles_offload_traffic() {
        // The recompute pass re-offloads every chunk: host transfer counts
        // roughly double relative to the plain run.
        let base = TrainConfig {
            steps: 3,
            mode: Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            ..TrainConfig::small(Mode::Single)
        };
        let plain = train(&base);
        let ac = train(&TrainConfig {
            activation_checkpoint: true,
            ..base.clone()
        });
        assert!(
            ac.host.offloads > plain.host.offloads * 3 / 2,
            "AC offloads {} vs plain {}",
            ac.host.offloads,
            plain.host.offloads
        );
    }
}

#[cfg(test)]
mod accum_tests {
    use super::*;

    #[test]
    fn accumulation_equivalence_across_modes() {
        // Grad accumulation is a data-layout question orthogonal to the
        // parallel strategy: FPDT with accumulation must match the
        // single-device run with accumulation, window for window.
        let base = TrainConfig {
            steps: 8,
            grad_accum: 2,
            ..small_f32(Mode::Single)
        };
        let single = train(&base);
        assert_eq!(single.losses.len(), 4, "one record per optimizer step");
        let fpdt = train(&TrainConfig {
            mode: Mode::Fpdt {
                chunks: 2,
                offload: true,
            },
            ..base.clone()
        });
        for (a, b) in fpdt.losses.iter().zip(&single.losses) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn accumulation_learns() {
        let cfg = TrainConfig {
            steps: 24,
            grad_accum: 3,
            ..TrainConfig::default()
        };
        let r = train(&cfg);
        assert_eq!(r.losses.len(), 8);
        assert!(r.losses.last().unwrap() < &r.losses[0]);
    }
}


#[cfg(test)]
mod warmup_tests {
    use super::*;

    #[test]
    fn warmup_changes_early_steps_but_still_matches_across_modes() {
        let base = TrainConfig {
            steps: 10,
            warmup_steps: 5,
            ..small_f32(Mode::Single)
        };
        let plain = train(&TrainConfig {
            warmup_steps: 0,
            ..base.clone()
        });
        let warm = train(&base);
        // warmup slows early progress
        assert!(warm.losses[2] >= plain.losses[2] - 1e-4);
        // and the equivalence claim holds under warmup too
        let warm_fpdt = train(&TrainConfig {
            mode: Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            ..base.clone()
        });
        for (a, b) in warm_fpdt.losses.iter().zip(&warm.losses) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }
}
