//! The real FPDT training runtime: threads as GPUs, channels as NVLink,
//! a keyed host pool as CPU DRAM.
//!
//! * [`data`] — a deterministic synthetic corpus (noisy Markov chain)
//!   that a small GPT learns quickly, so loss curves are informative.
//! * [`gpt`] — a GPT model with hand-written backward passes whose
//!   attention is pluggable: the same block code runs single-device,
//!   Ulysses (one all-to-all over the whole local sequence) and FPDT
//!   (per-chunk all-to-all + streaming attention + host offload +
//!   Figure-7 nested backward).
//! * [`exec`] — those attention executors.
//! * [`schedule`] — the FPDT [`TileSchedule`](schedule::TileSchedule):
//!   one tile order that [`exec`] runs and [`autotune`](mod@autotune) prices.
//! * [`dist`] — the multi-threaded trainer that reproduces paper
//!   Figure 14: baseline and FPDT loss curves coincide.
//! * [`options`] — [`RuntimeOptions`], the single builder behind every
//!   runtime knob (offload, prefetch, comm stream, kernel threads).
//! * [`ckpt`] — sharded, versioned checkpoint state: the typed shard
//!   codec ([`CkptMeta`](ckpt::CkptMeta), [`read_checkpoint`](ckpt::read_checkpoint))
//!   plus per-rank shard files behind the resumable [`dist::Trainer`].
//! * [`autotune`] — trace-calibrated autotuning: probe a short run,
//!   fit the simulator's cost constants from its spans, and search the
//!   knob space for the predicted-fastest configuration.

pub mod autotune;
pub mod ckpt;
pub mod data;
pub mod dist;
pub mod exec;
pub mod gpt;
pub mod options;
pub mod schedule;

pub use autotune::{autotune, AutotuneOutcome, Calibration, CandidateConfig, Workload};
pub use ckpt::{CkptError, StateDict, StateValue};
pub use dist::{train, train_traced, Mode, TrainConfig, TrainError, TrainReport, Trainer};
pub use options::RuntimeOptions;
