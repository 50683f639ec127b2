//! A step driver built only from public calls: it reproduces what one
//! `Trainer` segment does on every rank, and times each call into a
//! layer so a step's wall time can be split into a ledger.
//!
//! The driver mirrors the `Trainer`'s data stream (`Corpus` seeded with
//! `seed ^ 0x5eed`), its chunk counts and its bucketed gradient
//! all-reduce; the benchmark checks the resulting losses against the
//! `Trainer`'s bit for bit, so any drift between the two shows as a
//! failed run rather than as a silently different workload.

use crate::workload::Workload;
use fpdt_comm::{run_group, CommStats, Communicator};
use fpdt_core::chunk::ChunkPlan;
use fpdt_core::offload::PoolStats;
use fpdt_core::runtime::data::Corpus;
use fpdt_core::runtime::exec::{AttentionExec, DistAttention, ExecResult};
use fpdt_core::runtime::gpt::GptModel;
use fpdt_tensor::nn::{AdamW, AdamWConfig};
use fpdt_tensor::Tensor;
use fpdt_trace::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// The `Trainer`'s gradient all-reduce bucket, in elements. Bucketing
/// never changes the sums (the chunked reduce is bitwise equal to the
/// monolithic one); it is mirrored so the traffic pattern matches too.
const REDUCE_BUCKET: usize = 1 << 16;

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// An [`AttentionExec`] decorator that times every call into the wrapped
/// executor and, when given a recorder, marks each with a `bench.exec.*`
/// span. Arguments and results pass through unchanged.
pub struct TimedExec<'a> {
    inner: &'a mut dyn AttentionExec,
    recorder: Option<Recorder>,
    /// Milliseconds spent in `forward` calls.
    pub fwd_ms: f64,
    /// Milliseconds spent in `backward` calls.
    pub bwd_ms: f64,
}

impl<'a> TimedExec<'a> {
    /// Wraps `inner`; `recorder` receives the decorator's own spans.
    pub fn new(inner: &'a mut dyn AttentionExec, recorder: Option<Recorder>) -> Self {
        TimedExec {
            inner,
            recorder,
            fwd_ms: 0.0,
            bwd_ms: 0.0,
        }
    }
}

impl AttentionExec for TimedExec<'_> {
    fn forward(
        &mut self,
        layer: usize,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        pos: &[usize],
    ) -> ExecResult<Tensor> {
        let _s = self.recorder.as_ref().map(|r| r.span("bench.exec.fwd"));
        let t0 = Instant::now();
        let out = self.inner.forward(layer, q, k, v, pos);
        self.fwd_ms += ms_since(t0);
        out
    }

    fn backward(&mut self, layer: usize, dout: &Tensor) -> ExecResult<(Tensor, Tensor, Tensor)> {
        let _s = self.recorder.as_ref().map(|r| r.span("bench.exec.bwd"));
        let t0 = Instant::now();
        let out = self.inner.backward(layer, dout);
        self.bwd_ms += ms_since(t0);
        out
    }

    fn discard(&mut self, layer: usize) {
        self.inner.discard(layer);
    }
}

/// One rank-step split by the layer each call went into (milliseconds).
/// The top-level rows are consecutive calls on the rank thread, so they
/// never overlap; `exec_fwd`/`exec_bwd` are nested inside `fwd_bwd`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepRow {
    /// Wall time of the whole rank-step.
    pub wall: f64,
    /// `Corpus::sample` plus the `ChunkPlan` sharding.
    pub data: f64,
    /// `GptModel::forward_backward` (or its checkpointed variant).
    pub fwd_bwd: f64,
    /// Time inside the executor's `forward` calls.
    pub exec_fwd: f64,
    /// Time inside the executor's `backward` calls.
    pub exec_bwd: f64,
    /// `zero_grad` plus `collect_grads`.
    pub grads: f64,
    /// The loss all-reduce plus the bucketed gradient all-reduce.
    pub allreduce: f64,
    /// The optimizer update (`optimizer_step`, or the ZeRO shard update
    /// with its parameter flatten and write-back).
    pub optim: f64,
    /// The ZeRO parameter all-gather (0 without ZeRO).
    pub allgather: f64,
}

/// What one rank measured over the timed steps (warm-up excluded).
#[derive(Debug, Clone, Default)]
pub struct RankOut {
    /// Every step's loss, warm-up included.
    pub losses: Vec<f32>,
    /// Per timed step ledger rows (empty rows when untraced, except wall).
    pub rows: Vec<StepRow>,
    /// Recorder time at which this rank's first timed step started.
    pub timed_from_us: f64,
    /// All-to-all ops posted on the comm stream during the timed steps.
    pub a2a_posted: u64,
    /// All-to-all bytes sent during the timed steps.
    pub a2a_bytes: u64,
    /// Bytes sent by the gradient and loss all-reduces (timed steps).
    pub allreduce_bytes: u64,
    /// Receive-side blocking time during the timed steps, milliseconds.
    pub recv_wait_ms: f64,
    /// Collective replays during the timed steps.
    pub retries: u64,
    /// Host-pool counters accumulated over the timed steps
    /// (`peak_bytes` is the lifetime peak).
    pub pool: PoolStats,
    /// Bytes of optimizer state this rank holds after the last step.
    pub opt_state_bytes: usize,
    /// First failure, if any call returned an error.
    pub error: Option<String>,
}

/// Bytes sent under one collective's tag.
fn op_bytes(stats: &CommStats, op: &str) -> u64 {
    stats.op(op).map_or(0, |s| s.bytes_sent)
}

/// Runs `warmup + steps` optimizer steps of `w` on a fresh world, timing
/// the last `steps`. With `traced` a recorder is attached to the model
/// and the executor, every layer call is timed, and the bench's own
/// spans are recorded; without it only each step's wall time is taken.
pub fn drive(
    w: &Workload,
    seed: u64,
    warmup: usize,
    steps: usize,
    recorder: Option<&Recorder>,
) -> Vec<RankOut> {
    let world = crate::workload::WORLD;
    let opts = w.runtime();
    run_group(world, |comm| {
        let comm = Arc::new(comm);
        let mut out = RankOut::default();
        if let Err(e) = rank_loop(w, seed, warmup, steps, recorder, opts, &comm, &mut out) {
            out.error = Some(e);
        }
        out
    })
}

#[allow(clippy::too_many_arguments)]
fn rank_loop(
    w: &Workload,
    seed: u64,
    warmup: usize,
    steps: usize,
    recorder: Option<&Recorder>,
    opts: fpdt_core::runtime::RuntimeOptions,
    comm: &Arc<Communicator>,
    out: &mut RankOut,
) -> Result<(), String> {
    let world = comm.world();
    let rank = comm.rank();
    let plan = ChunkPlan::new(w.seq, world, w.chunks()).map_err(|e| e.to_string())?;
    let mut dist = DistAttention::with_opts(Arc::clone(comm), plan, opts);
    let mut model = GptModel::new(&w.model, seed);
    if let Some(rec) = recorder {
        dist = dist.with_recorder(rec.clone());
        model = model.with_recorder(rec.clone());
    }
    let mut opt = AdamW::new(AdamWConfig {
        lr: crate::workload::LR,
        ..Default::default()
    });
    let mut corpus = Corpus::new(w.model.vocab, 0.05, seed ^ 0x5eed);
    let (mlp_chunks, loss_chunks) = (w.mlp_chunks(), w.loss_chunks());
    let traced = recorder.is_some();

    // Counter snapshots taken when the first timed step starts.
    let mut at_timed_start: Option<(CommStats, PoolStats, u64)> = None;
    for step in 0..warmup + steps {
        let timed = step >= warmup;
        if step == warmup {
            at_timed_start = Some((comm.stats(), dist.host_stats(), dist.comm_posted()));
            out.timed_from_us = recorder.map_or(0.0, Recorder::now_us);
        }
        let mut row = StepRow::default();
        let step_span = recorder.filter(|_| timed).map(|r| r.span("bench.step"));
        let t_step = Instant::now();
        // Times one layer call into `acc` (and a bench span) when traced.
        macro_rules! timed_call {
            ($acc:expr, $label:expr, $body:expr) => {{
                if traced {
                    let _s = recorder.map(|r| r.span($label));
                    let t0 = Instant::now();
                    let v = $body;
                    $acc += ms_since(t0);
                    v
                } else {
                    $body
                }
            }};
        }

        let (tokens, targets, pos) = timed_call!(row.data, "bench.data", {
            let (gx, gy) = corpus.sample(w.seq);
            (
                plan.shard(rank, &gx),
                plan.shard(rank, &gy),
                plan.local_positions(rank),
            )
        });
        timed_call!(row.grads, "bench.grads", model.zero_grad());
        let mut exec = TimedExec::new(&mut dist, recorder.cloned());
        let fb = timed_call!(row.fwd_bwd, "bench.fwd_bwd", {
            if w.activation_checkpoint {
                model.forward_backward_checkpointed(
                    &mut exec,
                    &tokens,
                    &targets,
                    &pos,
                    mlp_chunks,
                    loss_chunks,
                )
            } else {
                model.forward_backward(&mut exec, &tokens, &targets, &pos, mlp_chunks, loss_chunks)
            }
        })
        .map_err(|e| format!("forward_backward: {e}"))?;
        row.exec_fwd = exec.fwd_ms;
        row.exec_bwd = exec.bwd_ms;
        drop(exec);

        let sent_before = traced.then(|| comm.stats().total_bytes_sent());
        let scalars = timed_call!(
            row.allreduce,
            "bench.allreduce",
            comm.all_reduce(&[fb.loss_sum, fb.tokens as f32])
        )
        .map_err(|e| format!("all_reduce: {e}"))?;
        let flat = timed_call!(row.grads, "bench.grads", model.collect_grads());
        let reduced = timed_call!(
            row.allreduce,
            "bench.allreduce",
            comm.all_reduce_chunked(&flat, REDUCE_BUCKET)
        )
        .map_err(|e| format!("all_reduce_chunked: {e}"))?;
        if let (Some(before), true) = (sent_before, timed) {
            out.allreduce_bytes += comm.stats().total_bytes_sent() - before;
        }
        let scale = 1.0 / scalars[1];
        if w.zero_shard {
            let n = reduced.len();
            let (lo, hi) = (rank * n / world, (rank + 1) * n / world);
            let params = timed_call!(row.optim, "bench.optim", {
                let mut params = model.collect_params();
                let gshard: Vec<f32> = reduced[lo..hi].iter().map(|g| g * scale).collect();
                opt.begin_step();
                opt.update(0, &mut params[lo..hi], &gshard);
                params
            });
            let shards = timed_call!(
                row.allgather,
                "bench.allgather",
                comm.all_gather(&params[lo..hi])
            )
            .map_err(|e| format!("all_gather: {e}"))?;
            timed_call!(row.optim, "bench.optim", {
                let full: Vec<f32> = shards.into_iter().flatten().collect();
                model.set_params(&full);
            });
        } else {
            timed_call!(row.optim, "bench.optim", {
                model.set_grads(&reduced, scale);
                model.optimizer_step(&mut opt);
            });
        }
        out.losses.push(scalars[0] / (scalars[1] as usize) as f32);
        row.wall = ms_since(t_step);
        drop(step_span);
        if timed {
            out.rows.push(row);
        }
    }

    let (comm0, pool0, posted0) = at_timed_start.unwrap_or_default();
    let comm1 = comm.stats();
    let pool1 = dist.host_stats();
    out.a2a_posted = dist.comm_posted() - posted0;
    out.a2a_bytes = op_bytes(&comm1, "all_to_all") - op_bytes(&comm0, "all_to_all");
    out.recv_wait_ms = (comm1
        .total_recv_wait()
        .saturating_sub(comm0.total_recv_wait()))
    .as_secs_f64()
        * 1e3;
    out.retries = comm1.retries - comm0.retries;
    out.pool = PoolStats {
        offloads: pool1.offloads - pool0.offloads,
        fetches: pool1.fetches - pool0.fetches,
        bytes: pool1.bytes,
        peak_bytes: pool1.peak_bytes,
        bytes_offloaded: pool1.bytes_offloaded - pool0.bytes_offloaded,
        bytes_fetched: pool1.bytes_fetched - pool0.bytes_fetched,
    };
    out.opt_state_bytes = opt.state_bytes();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdt_core::runtime::exec::LocalAttention;

    /// An executor that logs every call and answers from its arguments,
    /// so a test can see exactly what reached it.
    #[derive(Default)]
    struct Probe {
        log: Vec<String>,
    }

    impl AttentionExec for Probe {
        fn forward(
            &mut self,
            layer: usize,
            q: &Tensor,
            k: &Tensor,
            v: &Tensor,
            pos: &[usize],
        ) -> ExecResult<Tensor> {
            self.log.push(format!(
                "fwd {layer} {:?} {:?} {:?} {pos:?}",
                q.data(),
                k.data(),
                v.data()
            ));
            if layer == 9 {
                return Err("layer 9 fails".into());
            }
            Ok(Tensor::from_vec(
                vec![q.data()[0] + k.data()[0] + v.data()[0]],
                &[1],
            )?)
        }

        fn backward(
            &mut self,
            layer: usize,
            dout: &Tensor,
        ) -> ExecResult<(Tensor, Tensor, Tensor)> {
            self.log.push(format!("bwd {layer} {:?}", dout.data()));
            let d = dout.data()[0];
            Ok((
                Tensor::from_vec(vec![d], &[1])?,
                Tensor::from_vec(vec![2.0 * d], &[1])?,
                Tensor::from_vec(vec![3.0 * d], &[1])?,
            ))
        }

        fn discard(&mut self, layer: usize) {
            self.log.push(format!("discard {layer}"));
        }
    }

    fn t(x: f32) -> Tensor {
        Tensor::from_vec(vec![x], &[1]).unwrap()
    }

    #[test]
    fn decorator_forwards_calls_arguments_results_and_errors_unchanged() {
        let mut probe = Probe::default();
        let rec = Recorder::new();
        {
            let mut timed = TimedExec::new(&mut probe, Some(rec.clone()));
            let o = timed
                .forward(3, &t(1.0), &t(2.0), &t(4.0), &[5, 6])
                .unwrap();
            assert_eq!(o.data(), &[7.0]);
            let (dq, dk, dv) = timed.backward(3, &t(0.5)).unwrap();
            assert_eq!(
                (dq.data(), dk.data(), dv.data()),
                (&[0.5][..], &[1.0][..], &[1.5][..])
            );
            timed.discard(2);
            let err = timed
                .forward(9, &t(0.0), &t(0.0), &t(0.0), &[])
                .unwrap_err();
            assert_eq!(err.to_string(), "layer 9 fails");
            assert!(timed.fwd_ms >= 0.0 && timed.bwd_ms >= 0.0);
        }
        assert_eq!(
            probe.log,
            vec![
                "fwd 3 [1.0] [2.0] [4.0] [5, 6]",
                "bwd 3 [0.5]",
                "discard 2",
                "fwd 9 [0.0] [0.0] [0.0] []",
            ]
        );
        assert_eq!(rec.count("bench.exec.fwd"), 2);
        assert_eq!(rec.count("bench.exec.bwd"), 1);
    }

    #[test]
    fn decorated_real_executor_gives_the_same_bits() {
        let shape = [8, 2, 4];
        let n: usize = shape.iter().product();
        let mk = |s: f32| {
            Tensor::from_vec((0..n).map(|i| ((i as f32) * s).sin()).collect(), &shape).unwrap()
        };
        let (q, k, v, dout) = (mk(0.37), mk(0.11), mk(0.53), mk(0.29));
        let pos: Vec<usize> = (0..8).collect();
        let run = |exec: &mut dyn AttentionExec| {
            let o = exec.forward(0, &q, &k, &v, &pos).unwrap();
            let (dq, dk, dv) = exec.backward(0, &dout).unwrap();
            [o, dq, dk, dv].map(|x| x.data().iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        };
        let plain = run(&mut LocalAttention::new(2));
        let mut inner = LocalAttention::new(2);
        let timed = run(&mut TimedExec::new(&mut inner, None));
        assert_eq!(plain, timed);
    }
}
