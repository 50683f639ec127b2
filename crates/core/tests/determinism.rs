//! Determinism of the real multi-thread runtime (`fpdt_core::runtime`).
//!
//! FPDT's equivalence story (paper §5.6) leans on deterministic,
//! rank-ordered reductions: thread scheduling must never leak into the
//! numbers. These tests run the full multi-thread stack twice from the
//! same seed and demand *bitwise* identical results — losses and raw
//! gradients, not just "close".

use fpdt_core::chunk::ChunkPlan;
use fpdt_core::runtime::data::Corpus;
use fpdt_core::runtime::exec::DistAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_core::runtime::{train, Mode, RuntimeOptions, TrainConfig};
use fpdt_comm::run_group;
use fpdt_model::config::ModelConfig;

/// One full forward/backward of the distributed model; returns every
/// rank's (loss_sum, flat gradient vector).
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
fn seeded_runs_are_bitwise_identical_losses_and_gradients() {
    let a = grad_run(42, 2, 2, true);
    let b = grad_run(42, 2, 2, true);
    for (rank, ((la, ga), (lb, gb))) in a.iter().zip(&b).enumerate() {
        assert!(
            la.to_bits() == lb.to_bits(),
            "rank {rank} loss differs bitwise: {la} vs {lb}"
        );
        assert_eq!(ga.len(), gb.len());
        for (i, (x, y)) in ga.iter().zip(gb).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "rank {rank} grad[{i}] differs bitwise: {x} vs {y}"
            );
        }
    }
}

#[test]
fn different_seeds_actually_diverge() {
    // Guard against the test above passing vacuously (e.g. all-zero
    // gradients): a different seed must change the numbers.
    let a = grad_run(42, 2, 2, true);
    let b = grad_run(43, 2, 2, true);
    assert!(a[0].0.to_bits() != b[0].0.to_bits(), "seed had no effect");
}

#[test]
fn full_training_runs_are_bitwise_identical() {
    // The end-to-end trainer (gradient all-reduce in rank order, ZeRO
    // off) repeated from one seed: identical loss curve, bit for bit.
    let cfg = TrainConfig {
        steps: 4,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        ..TrainConfig::small(Mode::Single)
    };
    let a = train(&cfg);
    let b = train(&cfg);
    let abits: Vec<u32> = a.losses.iter().map(|l| l.to_bits()).collect();
    let bbits: Vec<u32> = b.losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(abits, bbits, "loss curves differ bitwise");
}
