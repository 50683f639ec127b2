//! End-to-end bitwise equivalence of the distributed runtime across
//! kernel-pool thread budgets.
//!
//! The determinism suite (`determinism.rs`) proves seeded runs repeat at
//! one fixed configuration; this suite proves the *kernel backend's*
//! thread count is not part of the numerics: a full forward/backward of
//! the multi-rank model produces bitwise identical losses and gradients
//! whether kernels run sequentially (`FPDT_THREADS=1`) or fan out to 2 or
//! 8 pool workers (with the parallel-split threshold forced to 1 so every
//! kernel really takes the pool path).

use fpdt_core::chunk::ChunkPlan;
use fpdt_core::runtime::data::Corpus;
use fpdt_core::runtime::exec::DistAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_core::runtime::RuntimeOptions;
use fpdt_comm::run_group;
use fpdt_model::config::ModelConfig;
use fpdt_tensor::par;
use rayon::pool;
use std::sync::{Mutex, MutexGuard};

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

struct ForcedParallel<'a> {
    _guard: MutexGuard<'a, ()>,
    prev_threshold: usize,
    prev_threads: usize,
}

impl ForcedParallel<'_> {
    fn new(threads: usize) -> Self {
        let guard = CONFIG_LOCK.lock().unwrap();
        ForcedParallel {
            _guard: guard,
            prev_threshold: par::set_par_threshold(1),
            prev_threads: pool::set_threads(threads),
        }
    }
}

impl Drop for ForcedParallel<'_> {
    fn drop(&mut self) {
        pool::set_threads(self.prev_threads);
        par::set_par_threshold(self.prev_threshold);
    }
}

/// One full forward/backward of the distributed model; returns every
/// rank's (loss_sum, flat gradient vector). Same fixture as
/// `determinism.rs::grad_run`.
fn grad_run(seed: u64, world: usize, chunks: usize, offload: bool) -> Vec<(f32, Vec<f32>)> {
    let model_cfg = ModelConfig::tiny(2, 32, 4, 50);
    let seq = 64usize;
    run_group(world, |comm| {
        let plan = ChunkPlan::new(seq, world, chunks).expect("valid plan");
        let rank = comm.rank();
        let mut corpus = Corpus::new(model_cfg.vocab, 0.05, seed ^ 0x5eed);
        let (gx, gy) = corpus.sample(seq);
        let (tokens, targets, pos) = (
            plan.shard(rank, &gx),
            plan.shard(rank, &gy),
            plan.local_positions(rank),
        );
        let mut model = GptModel::new(&model_cfg, seed);
        let mut exec = DistAttention::with_opts(
            std::sync::Arc::new(comm),
            plan,
            RuntimeOptions::from_env().with_offload(offload),
        );
        model.zero_grad();
        let stats = model
            .forward_backward(&mut exec, &tokens, &targets, &pos, 2 * chunks, 2)
            .expect("forward/backward succeeds");
        (stats.loss_sum, model.collect_grads())
    })
}

#[test]
fn losses_and_gradients_are_bitwise_identical_across_thread_budgets() {
    let reference = {
        let _cfg = ForcedParallel::new(1);
        grad_run(42, 2, 2, true)
    };
    assert!(
        reference
            .iter()
            .any(|(_, g)| g.iter().any(|&x| x != 0.0)),
        "all-zero gradients would make the comparison vacuous"
    );
    for threads in [2usize, 8] {
        let got = {
            let _cfg = ForcedParallel::new(threads);
            grad_run(42, 2, 2, true)
        };
        for (rank, ((la, ga), (lb, gb))) in reference.iter().zip(&got).enumerate() {
            assert!(
                la.to_bits() == lb.to_bits(),
                "rank {rank} loss differs between 1 and {threads} threads: {la} vs {lb}"
            );
            assert_eq!(ga.len(), gb.len());
            for (i, (x, y)) in ga.iter().zip(gb).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "rank {rank} grad[{i}] differs between 1 and {threads} threads: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn default_threshold_matches_forced_parallel_bits() {
    // The split threshold only gates *whether* a kernel fans out, never
    // what it computes: a run at the default threshold (small kernels stay
    // sequential) must equal a run with everything forced onto the pool.
    let default_cfg = {
        let _g = CONFIG_LOCK.lock().unwrap();
        grad_run(7, 2, 2, false)
    };
    let forced = {
        let _cfg = ForcedParallel::new(8);
        grad_run(7, 2, 2, false)
    };
    for ((la, ga), (lb, gb)) in default_cfg.iter().zip(&forced) {
        assert_eq!(la.to_bits(), lb.to_bits(), "loss bits differ");
        let ga_bits: Vec<u32> = ga.iter().map(|x| x.to_bits()).collect();
        let gb_bits: Vec<u32> = gb.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ga_bits, gb_bits, "gradient bits differ");
    }
}
