//! The three workloads and the pinned settings every one of them runs
//! under.

use fpdt_core::runtime::dist::{Mode, TrainConfig};
use fpdt_core::runtime::RuntimeOptions;
use fpdt_model::config::ModelConfig;

/// Ranks (thread devices) every distributed workload runs on.
pub const WORLD: usize = 2;
/// Kernel pool thread budget, split across the ranks by `run_group`.
pub const THREADS: usize = 2;
/// The kernel layer's parallel-split threshold, pinned at its default.
pub const PAR_THRESHOLD: usize = 4096;
/// Simulated link bandwidth (GB/s) for offload copies and all-to-alls.
pub const LINK_GBPS: &str = "0.1";
/// Learning rate of every workload.
pub const LR: f32 = 3e-3;

/// One benchmark workload: a model, a parallel mode and a sequence
/// length, driven through the public `Trainer`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Model architecture.
    pub model: ModelConfig,
    /// Parallel mode.
    pub mode: Mode,
    /// Global sequence length per step.
    pub seq: usize,
    /// ZeRO-1 optimizer sharding.
    pub zero_shard: bool,
    /// Activation checkpointing (every block forward runs twice).
    pub activation_checkpoint: bool,
    /// bf16 offload and all-to-all payloads.
    pub payload_bf16: bool,
    /// Checkpoint, then resume, every this many timed steps.
    pub ckpt_every: Option<usize>,
    /// Expected wall time of one step in seconds; sizes a run's step
    /// count from its `--seconds` budget.
    pub nominal_step_s: f64,
}

impl Workload {
    /// Every workload the benchmark can run. `BENCHMARK.json` lists all
    /// but `fpdt_long`, whose step time drifts too far with host load
    /// (see `METRICS.md`); it stays runnable by name.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "fpdt_long",
                model: ModelConfig::tiny(2, 64, 4, 64),
                mode: Mode::Fpdt {
                    chunks: 8,
                    offload: true,
                },
                seq: 512,
                zero_shard: false,
                activation_checkpoint: false,
                payload_bf16: false,
                ckpt_every: None,
                nominal_step_s: 0.19,
            },
            Workload {
                name: "ulysses_dense",
                model: ModelConfig::tiny(4, 128, 8, 2048),
                mode: Mode::Ulysses,
                seq: 128,
                zero_shard: true,
                activation_checkpoint: false,
                payload_bf16: false,
                ckpt_every: Some(10),
                nominal_step_s: 0.17,
            },
            Workload {
                name: "llama_bf16_ac",
                model: ModelConfig::tiny_llama(2, 64, 4, 2, 64),
                mode: Mode::Fpdt {
                    chunks: 4,
                    offload: true,
                },
                seq: 512,
                zero_shard: false,
                activation_checkpoint: true,
                payload_bf16: true,
                ckpt_every: None,
                nominal_step_s: 0.2,
            },
        ]
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// Sequence chunks per rank (1 outside FPDT).
    pub fn chunks(&self) -> usize {
        match self.mode {
            Mode::Fpdt { chunks, .. } => chunks,
            _ => 1,
        }
    }

    /// Whether idle chunks go to the host pool.
    pub fn offload(&self) -> bool {
        matches!(self.mode, Mode::Fpdt { offload: true, .. })
    }

    /// The runtime options, with every field set explicitly so no
    /// ambient default can reach the run.
    pub fn runtime(&self) -> RuntimeOptions {
        RuntimeOptions::from_env()
            .with_offload(self.offload())
            .with_prefetch(true)
            .with_comm_async(true)
            .with_balanced(true)
            .with_payload_bf16(self.payload_bf16)
            .with_threads(THREADS)
            .with_par_threshold(PAR_THRESHOLD)
            .with_comm_retries(0)
            .with_fault_inject(0)
    }

    /// The training configuration for `seed` in `mode` (the workload's
    /// own mode, or the single-device baseline).
    pub fn config(&self, seed: u64, mode: Mode) -> TrainConfig {
        TrainConfig {
            model: self.model.clone(),
            world: WORLD,
            seq: self.seq,
            steps: 0,
            lr: LR,
            seed,
            mode,
            zero_shard: self.zero_shard,
            activation_checkpoint: self.activation_checkpoint,
            grad_accum: 1,
            warmup_steps: 0,
            runtime: self.runtime(),
        }
    }

    /// Relative loss tolerance against the single-device baseline: the
    /// repository's own cross-mode contracts — the Figure-14 tolerance for
    /// f32 payloads, the bf16-payload training tolerance otherwise. The
    /// gap is float reassociation (and bf16 rounding) compounded over
    /// steps, so it varies by seed: up to 5.6e-5 (f32) and 2.4e-3 (bf16)
    /// within 14 steps on these workloads.
    pub fn baseline_tolerance(&self) -> f32 {
        if self.payload_bf16 {
            5e-2
        } else {
            2e-3
        }
    }

    /// The MLP chunk count `Trainer` uses for this mode.
    pub fn mlp_chunks(&self) -> usize {
        2 * self.chunks()
    }

    /// The loss-head chunk count `Trainer` uses for this model.
    pub fn loss_chunks(&self) -> usize {
        (self.model.vocab / self.model.hidden * 2).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let all = Workload::all();
        for w in &all {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
        }
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn runtime_options_pin_every_field() {
        for w in Workload::all() {
            let o = w.runtime();
            assert_eq!(o.offload, w.offload());
            assert!(o.prefetch && o.comm_async && o.balanced);
            assert_eq!(o.payload_bf16, w.payload_bf16);
            assert_eq!(o.threads, Some(THREADS));
            assert_eq!(o.par_threshold, Some(PAR_THRESHOLD));
            assert_eq!((o.comm_retries, o.fault_inject), (0, 0));
        }
    }
}
