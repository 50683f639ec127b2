//! A decoder-only Transformer with hand-written backward passes and
//! pluggable attention, covering both families the paper trains:
//!
//! * **GPT** — LayerNorm, biased projections, 4x GELU MLP, MHA;
//! * **Llama** — RMSNorm, bias-free projections, gated SiLU (SwiGLU) MLP,
//!   grouped-query attention.
//!
//! The MLP and the loss head both run chunked (paper §5.4) — token-wise
//! operations chunk without changing results, which the tests verify.

use crate::runtime::exec::{AttentionExec, ExecResult};
use fpdt_model::config::{Family, ModelConfig};
use fpdt_tensor::nn::{AdamW, Embedding, LayerNorm, Linear, RmsNorm};
use fpdt_tensor::ops::{self, LayerNormCtx, RmsNormCtx};
use fpdt_tensor::{init, Tensor};
use fpdt_trace::Recorder;
use rand::rngs::SmallRng;

/// Target id that contributes neither loss nor gradient.
pub const IGNORE_INDEX: usize = usize::MAX;
const ROPE_BASE: f32 = 10_000.0;
const NORM_EPS: f32 = 1e-5;

/// Where a new model's weights come from.
enum Init<'a> {
    /// The reproducible seeded draws of [`GptModel::new`].
    Seeded(&'a mut SmallRng),
    /// Zeros, for a model whose weights are overwritten right away.
    Zeros,
}

impl Init<'_> {
    fn linear(&mut self, fan_in: usize, fan_out: usize, bias: bool) -> Linear {
        match self {
            Init::Seeded(rng) => Linear::new(fan_in, fan_out, bias, rng),
            Init::Zeros => Linear {
                weight: Tensor::zeros(&[fan_in, fan_out]),
                bias: bias.then(|| Tensor::zeros(&[fan_out])),
                dweight: Tensor::zeros(&[fan_in, fan_out]),
                dbias: bias.then(|| Tensor::zeros(&[fan_out])),
            },
        }
    }

    fn embedding(&mut self, vocab: usize, dim: usize) -> Embedding {
        match self {
            Init::Seeded(rng) => Embedding::new(vocab, dim, rng),
            Init::Zeros => Embedding {
                weight: Tensor::zeros(&[vocab, dim]),
                dweight: Tensor::zeros(&[vocab, dim]),
            },
        }
    }
}

/// Read-only visit of a linear layer's parameters, in
/// [`GptModel::for_each_param`] order (weight, then bias).
fn visit_linear(l: &Linear, f: &mut impl FnMut(&Tensor)) {
    f(&l.weight);
    if let Some(b) = &l.bias {
        f(b);
    }
}

/// Family-dispatched normalization layer.
#[derive(Debug, Clone)]
enum Norm {
    Layer(LayerNorm),
    Rms(RmsNorm),
}

enum NormCtx {
    Layer(LayerNormCtx),
    Rms(RmsNormCtx),
}

impl Norm {
    fn new(family: Family, dim: usize) -> Self {
        match family {
            Family::Gpt => Norm::Layer(LayerNorm::new(dim, NORM_EPS)),
            Family::Llama => Norm::Rms(RmsNorm::new(dim, NORM_EPS)),
        }
    }

    fn forward(&self, x: &Tensor) -> ExecResult<(Tensor, NormCtx)> {
        Ok(match self {
            Norm::Layer(n) => {
                let (y, c) = n.forward(x)?;
                (y, NormCtx::Layer(c))
            }
            Norm::Rms(n) => {
                let (y, c) = n.forward(x)?;
                (y, NormCtx::Rms(c))
            }
        })
    }

    fn backward(&mut self, x: &Tensor, ctx: &NormCtx, dy: &Tensor) -> ExecResult<Tensor> {
        Ok(match (self, ctx) {
            (Norm::Layer(n), NormCtx::Layer(c)) => n.backward(x, c, dy)?,
            (Norm::Rms(n), NormCtx::Rms(c)) => n.backward(x, c, dy)?,
            _ => return Err("norm context family mismatch".into()),
        })
    }

    fn zero_grad(&mut self) {
        match self {
            Norm::Layer(n) => n.zero_grad(),
            Norm::Rms(n) => n.zero_grad(),
        }
    }

    fn for_each_param(&mut self, f: &mut impl FnMut(&mut Tensor, &mut Tensor)) {
        match self {
            Norm::Layer(n) => {
                f(&mut n.gamma, &mut n.dgamma);
                f(&mut n.beta, &mut n.dbeta);
            }
            Norm::Rms(n) => f(&mut n.gamma, &mut n.dgamma),
        }
    }

    fn visit_params(&self, f: &mut impl FnMut(&Tensor)) {
        match self {
            Norm::Layer(n) => {
                f(&n.gamma);
                f(&n.beta);
            }
            Norm::Rms(n) => f(&n.gamma),
        }
    }
}

/// Family-dispatched MLP.
#[derive(Debug, Clone)]
enum Mlp {
    /// `fc2(gelu(fc1(x)))`
    Gelu { fc1: Linear, fc2: Linear },
    /// `down(silu(gate(x)) * up(x))`
    SwiGlu {
        gate: Linear,
        up: Linear,
        down: Linear,
    },
}

struct MlpCtx {
    /// Pre-activation (`fc1` out, or `gate` out).
    a: Tensor,
    /// Post-activation (`gelu` out, or `silu(gate)` out).
    g: Tensor,
    /// SwiGLU only: the `up` projection output.
    u: Option<Tensor>,
}

impl Mlp {
    fn new(cfg: &ModelConfig, init: &mut Init<'_>) -> Self {
        let (h, f) = (cfg.hidden, cfg.ffn_hidden);
        match cfg.family {
            Family::Gpt => Mlp::Gelu {
                fc1: init.linear(h, f, true),
                fc2: init.linear(f, h, true),
            },
            Family::Llama => Mlp::SwiGlu {
                gate: init.linear(h, f, false),
                up: init.linear(h, f, false),
                down: init.linear(f, h, false),
            },
        }
    }

    fn forward(&self, x: &Tensor) -> ExecResult<(Tensor, MlpCtx)> {
        Ok(match self {
            Mlp::Gelu { fc1, fc2 } => {
                let a = fc1.forward(x)?;
                let g = ops::gelu(&a);
                let y = fc2.forward(&g)?;
                (y, MlpCtx { a, g, u: None })
            }
            Mlp::SwiGlu { gate, up, down } => {
                let a = gate.forward(x)?;
                let u = up.forward(x)?;
                let g = ops::silu(&a).mul(&u)?;
                let y = down.forward(&g)?;
                (y, MlpCtx { a, g, u: Some(u) })
            }
        })
    }

    fn backward(&mut self, x: &Tensor, ctx: &MlpCtx, dy: &Tensor) -> ExecResult<Tensor> {
        Ok(match self {
            Mlp::Gelu { fc1, fc2 } => {
                let dg = fc2.backward(&ctx.g, dy)?;
                let da = ops::gelu_bwd(&ctx.a, &dg)?;
                fc1.backward(x, &da)?
            }
            Mlp::SwiGlu { gate, up, down } => {
                let dm = down.backward(&ctx.g, dy)?;
                let u = ctx.u.as_ref().expect("SwiGLU saved `up` output");
                let s = ops::silu(&ctx.a);
                let du = dm.mul(&s)?;
                let ds = dm.mul(u)?;
                let da = ops::silu_bwd(&ctx.a, &ds)?;
                let mut dx = gate.backward(x, &da)?;
                dx.add_assign(&up.backward(x, &du)?)?;
                dx
            }
        })
    }

    fn zero_grad(&mut self) {
        match self {
            Mlp::Gelu { fc1, fc2 } => {
                fc1.zero_grad();
                fc2.zero_grad();
            }
            Mlp::SwiGlu { gate, up, down } => {
                gate.zero_grad();
                up.zero_grad();
                down.zero_grad();
            }
        }
    }

    fn for_each_param(&mut self, f: &mut impl FnMut(&mut Tensor, &mut Tensor)) {
        let visit = |l: &mut Linear, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)| {
            f(&mut l.weight, &mut l.dweight);
            if let (Some(b), Some(db)) = (l.bias.as_mut(), l.dbias.as_mut()) {
                f(b, db);
            }
        };
        match self {
            Mlp::Gelu { fc1, fc2 } => {
                visit(fc1, f);
                visit(fc2, f);
            }
            Mlp::SwiGlu { gate, up, down } => {
                visit(gate, f);
                visit(up, f);
                visit(down, f);
            }
        }
    }

    fn visit_params(&self, f: &mut impl FnMut(&Tensor)) {
        match self {
            Mlp::Gelu { fc1, fc2 } => [fc1, fc2].into_iter().for_each(|l| visit_linear(l, f)),
            Mlp::SwiGlu { gate, up, down } => {
                [gate, up, down]
                    .into_iter()
                    .for_each(|l| visit_linear(l, f));
            }
        }
    }
}

/// One Transformer block's parameters.
#[derive(Debug, Clone)]
pub struct Block {
    norm1: Norm,
    q_proj: Linear,
    kv_proj: Linear,
    out_proj: Linear,
    norm2: Norm,
    mlp: Mlp,
    heads: usize,
    kv_heads: usize,
}

/// Saved activations for one block's backward pass.
pub struct BlockCtx {
    x: Tensor,
    n1_ctx: NormCtx,
    n1: Tensor,
    o_merged: Tensor,
    x1: Tensor,
    n2_ctx: NormCtx,
    n2: Tensor,
    mlp: Vec<MlpCtx>,
}

impl Block {
    fn new(cfg: &ModelConfig, init: &mut Init<'_>) -> Self {
        let h = cfg.hidden;
        let dh = cfg.head_dim();
        let bias = matches!(cfg.family, Family::Gpt);
        Block {
            norm1: Norm::new(cfg.family, h),
            q_proj: init.linear(h, cfg.heads * dh, bias),
            kv_proj: init.linear(h, 2 * cfg.kv_heads * dh, bias),
            out_proj: init.linear(cfg.heads * dh, h, bias),
            norm2: Norm::new(cfg.family, h),
            mlp: Mlp::new(cfg, init),
            heads: cfg.heads,
            kv_heads: cfg.kv_heads,
        }
    }

    /// Forward for `x: [s, hidden]` with global positions `pos`;
    /// `mlp_chunks` is the MLP chunk count (2x the attention chunks per
    /// paper §5.4).
    fn forward(
        &self,
        layer: usize,
        x: &Tensor,
        pos: &[usize],
        exec: &mut dyn AttentionExec,
        mlp_chunks: usize,
    ) -> ExecResult<(Tensor, BlockCtx)> {
        let s = x.shape()[0];
        let h = x.shape()[1];
        let dh = h / self.heads;
        let (n1, n1_ctx) = self.norm1.forward(x)?;
        let q = ops::rope(
            &self.q_proj.forward(&n1)?.reshape(&[s, self.heads, dh])?,
            pos,
            ROPE_BASE,
        )?;
        let kv = self.kv_proj.forward(&n1)?;
        let kvd = self.kv_heads * dh;
        let k = ops::rope(
            &kv.narrow(1, 0, kvd)?.reshape(&[s, self.kv_heads, dh])?,
            pos,
            ROPE_BASE,
        )?;
        let v = kv.narrow(1, kvd, kvd)?.reshape(&[s, self.kv_heads, dh])?;
        let o = exec.forward(layer, &q, &k, &v, pos)?;
        let o_merged = o.reshape(&[s, h])?;
        let p = self.out_proj.forward(&o_merged)?;
        let x1 = x.add(&p)?;
        let (n2, n2_ctx) = self.norm2.forward(&x1)?;
        // Chunked MLP: token-wise, so chunking is exact.
        let mut mlp_ctxs = Vec::new();
        let mut m_parts = Vec::new();
        for r in chunk_ranges(s, mlp_chunks) {
            let n2c = n2.narrow(0, r.start, r.len())?;
            let (mo, ctx) = self.mlp.forward(&n2c)?;
            m_parts.push(mo);
            mlp_ctxs.push(ctx);
        }
        let mo = concat0(&m_parts)?;
        let x2 = x1.add(&mo)?;
        Ok((
            x2,
            BlockCtx {
                x: x.clone(),
                n1_ctx,
                n1,
                o_merged,
                x1,
                n2_ctx,
                n2,
                mlp: mlp_ctxs,
            },
        ))
    }

    /// Backward for the block; accumulates parameter gradients and
    /// returns `dx`.
    fn backward(
        &mut self,
        layer: usize,
        ctx: &BlockCtx,
        dx2: &Tensor,
        pos: &[usize],
        exec: &mut dyn AttentionExec,
        mlp_chunks: usize,
    ) -> ExecResult<Tensor> {
        let s = dx2.shape()[0];
        let h = dx2.shape()[1];
        let dh = h / self.heads;
        // MLP backward, chunked.
        let mut dn2_parts = Vec::new();
        for (ci, r) in chunk_ranges(s, mlp_chunks).into_iter().enumerate() {
            let dmo = dx2.narrow(0, r.start, r.len())?;
            let n2c = ctx.n2.narrow(0, r.start, r.len())?;
            dn2_parts.push(self.mlp.backward(&n2c, &ctx.mlp[ci], &dmo)?);
        }
        let dn2 = concat0(&dn2_parts)?;
        let mut dx1 = self.norm2.backward(&ctx.x1, &ctx.n2_ctx, &dn2)?;
        dx1.add_assign(dx2)?; // residual

        // Attention backward.
        let do_merged = self.out_proj.backward(&ctx.o_merged, &dx1)?;
        let do_heads = do_merged.reshape(&[s, self.heads, dh])?;
        let (dq, dk, dv) = exec.backward(layer, &do_heads)?;
        let dq = ops::rope_bwd(&dq, pos, ROPE_BASE)?;
        let dk = ops::rope_bwd(&dk, pos, ROPE_BASE)?;
        let kvd = self.kv_heads * dh;
        let dkv = Tensor::concat(&[&dk.reshape(&[s, kvd])?, &dv.reshape(&[s, kvd])?], 1)?;
        let mut dn1 = self.kv_proj.backward(&ctx.n1, &dkv)?;
        dn1.add_assign(
            &self
                .q_proj
                .backward(&ctx.n1, &dq.reshape(&[s, self.heads * dh])?)?,
        )?;
        let mut dx = self.norm1.backward(&ctx.x, &ctx.n1_ctx, &dn1)?;
        dx.add_assign(&dx1)?; // residual
        Ok(dx)
    }

    fn zero_grad(&mut self) {
        self.norm1.zero_grad();
        self.q_proj.zero_grad();
        self.kv_proj.zero_grad();
        self.out_proj.zero_grad();
        self.norm2.zero_grad();
        self.mlp.zero_grad();
    }

    fn for_each_param(&mut self, f: &mut impl FnMut(&mut Tensor, &mut Tensor)) {
        let visit = |l: &mut Linear, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)| {
            f(&mut l.weight, &mut l.dweight);
            if let (Some(b), Some(db)) = (l.bias.as_mut(), l.dbias.as_mut()) {
                f(b, db);
            }
        };
        self.norm1.for_each_param(f);
        visit(&mut self.q_proj, f);
        visit(&mut self.kv_proj, f);
        visit(&mut self.out_proj, f);
        self.norm2.for_each_param(f);
        self.mlp.for_each_param(f);
    }

    fn visit_params(&self, f: &mut impl FnMut(&Tensor)) {
        self.norm1.visit_params(f);
        for l in [&self.q_proj, &self.kv_proj, &self.out_proj] {
            visit_linear(l, f);
        }
        self.norm2.visit_params(f);
        self.mlp.visit_params(f);
    }
}

fn chunk_ranges(s: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let chunks = chunks.clamp(1, s.max(1));
    let base = s / chunks;
    let rem = s % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < rem);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

fn concat0(parts: &[Tensor]) -> ExecResult<Tensor> {
    let refs: Vec<&Tensor> = parts.iter().collect();
    Ok(Tensor::concat(&refs, 0)?)
}

/// Loss statistics of one forward/backward pass over a local shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossStats {
    /// Sum of per-token negative log-likelihoods (not averaged).
    pub loss_sum: f32,
    /// Tokens that contributed.
    pub tokens: usize,
}

/// The full model (either family, selected by
/// [`ModelConfig::family`](fpdt_model::config::ModelConfig)).
#[derive(Debug, Clone)]
pub struct GptModel {
    cfg: ModelConfig,
    emb: Embedding,
    blocks: Vec<Block>,
    norm_f: Norm,
    head: Linear,
    recorder: Option<Recorder>,
}

impl GptModel {
    /// Builds a model with reproducible initialization: two ranks created
    /// with the same `(cfg, seed)` hold identical parameters.
    pub fn new(cfg: &ModelConfig, seed: u64) -> Self {
        Self::build(cfg, &mut Init::Seeded(&mut init::seeded_rng(seed)))
    }

    /// Builds a model of `cfg`'s architecture without random draws (zero
    /// projections and embeddings, identity norms) — the skeleton a flat
    /// parameter vector (a checkpoint) is loaded into with
    /// [`GptModel::set_params`].
    pub fn zeroed(cfg: &ModelConfig) -> Self {
        Self::build(cfg, &mut Init::Zeros)
    }

    fn build(cfg: &ModelConfig, init: &mut Init<'_>) -> Self {
        let blocks = (0..cfg.layers).map(|_| Block::new(cfg, init)).collect();
        GptModel {
            cfg: cfg.clone(),
            emb: init.embedding(cfg.vocab, cfg.hidden),
            blocks,
            norm_f: Norm::new(cfg.family, cfg.hidden),
            head: init.linear(cfg.hidden, cfg.vocab, false),
            recorder: None,
        }
    }

    /// Attaches a span recorder: each block's forward and backward record
    /// `block.fwd` / `block.bwd` compute spans, which the runtime bench
    /// intersects with the offload copy spans to measure overlap.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Runs forward and backward over a local token shard, accumulating
    /// parameter gradients of the **summed** loss (scale by
    /// `1/total_tokens` before the optimizer step — after any gradient
    /// all-reduce).
    ///
    /// `pos[t]` is the global position of local token `t` (both RoPE and
    /// causal masking use it); `mlp_chunks`/`loss_chunks` control the
    /// §5.4 chunking.
    ///
    /// # Errors
    ///
    /// Propagates shape or communication errors from the layers/executor.
    pub fn forward_backward(
        &mut self,
        exec: &mut dyn AttentionExec,
        tokens: &[usize],
        targets: &[usize],
        pos: &[usize],
        mlp_chunks: usize,
        loss_chunks: usize,
    ) -> ExecResult<LossStats> {
        let s = tokens.len();
        if targets.len() != s || pos.len() != s {
            return Err(format!(
                "tokens/targets/pos length mismatch: {s}/{}/{}",
                targets.len(),
                pos.len()
            )
            .into());
        }
        let rec = self.recorder.clone();
        // ---- forward ----
        let mut x = self.emb.forward(tokens)?;
        let mut ctxs = Vec::with_capacity(self.blocks.len());
        for (layer, block) in self.blocks.iter().enumerate() {
            let _s = rec.as_ref().map(|r| r.span("block.fwd"));
            let (nx, ctx) = block.forward(layer, &x, pos, exec, mlp_chunks)?;
            ctxs.push(ctx);
            x = nx;
        }
        let (xf, nf_ctx) = self.norm_f.forward(&x)?;

        // ---- chunked loss head (paper §5.4) ----
        let mut loss_sum = 0.0f32;
        let mut n_tokens = 0usize;
        let mut dxf_parts = Vec::new();
        for r in chunk_ranges(s, loss_chunks) {
            let xc = xf.narrow(0, r.start, r.len())?;
            let logits = self.head.forward(&xc)?;
            let out = ops::cross_entropy(&logits, &targets[r.clone()], IGNORE_INDEX)?;
            loss_sum += out.loss_sum;
            n_tokens += out.tokens;
            dxf_parts.push(self.head.backward(&xc, &out.dlogits)?);
        }
        let dxf = concat0(&dxf_parts)?;

        // ---- backward ----
        let mut dx = self.norm_f.backward(&x, &nf_ctx, &dxf)?;
        for (layer, block) in self.blocks.iter_mut().enumerate().rev() {
            let _s = rec.as_ref().map(|r| r.span("block.bwd"));
            dx = block.backward(layer, &ctxs[layer], &dx, pos, exec, mlp_chunks)?;
        }
        self.emb.backward(tokens, &dx)?;
        Ok(LossStats {
            loss_sum,
            tokens: n_tokens,
        })
    }

    /// Like [`GptModel::forward_backward`] but with **activation
    /// checkpointing** (the paper's "AC."): the forward keeps only each
    /// block's input hidden state and discards everything else —
    /// including the attention executor's cached chunks — then the
    /// backward re-runs each block's forward (collectives included)
    /// before differentiating it. Numerically identical to the
    /// non-checkpointed path; costs one extra forward.
    ///
    /// # Errors
    ///
    /// Propagates shape or communication errors from the layers/executor.
    pub fn forward_backward_checkpointed(
        &mut self,
        exec: &mut dyn AttentionExec,
        tokens: &[usize],
        targets: &[usize],
        pos: &[usize],
        mlp_chunks: usize,
        loss_chunks: usize,
    ) -> ExecResult<LossStats> {
        let s = tokens.len();
        if targets.len() != s || pos.len() != s {
            return Err("tokens/targets/pos length mismatch".into());
        }
        let rec = self.recorder.clone();
        // ---- forward, saving only block inputs ----
        let mut x = self.emb.forward(tokens)?;
        let mut checkpoints: Vec<Tensor> = Vec::with_capacity(self.blocks.len());
        for (layer, block) in self.blocks.iter().enumerate() {
            checkpoints.push(x.clone());
            let _s = rec.as_ref().map(|r| r.span("block.fwd"));
            let (nx, ctx) = block.forward(layer, &x, pos, exec, mlp_chunks)?;
            drop(ctx); // checkpointing: keep nothing but the input
            exec.discard(layer);
            x = nx;
        }
        let (xf, nf_ctx) = self.norm_f.forward(&x)?;

        // ---- chunked loss head ----
        let mut loss_sum = 0.0f32;
        let mut n_tokens = 0usize;
        let mut dxf_parts = Vec::new();
        for r in chunk_ranges(s, loss_chunks) {
            let xc = xf.narrow(0, r.start, r.len())?;
            let logits = self.head.forward(&xc)?;
            let out = ops::cross_entropy(&logits, &targets[r.clone()], IGNORE_INDEX)?;
            loss_sum += out.loss_sum;
            n_tokens += out.tokens;
            dxf_parts.push(self.head.backward(&xc, &out.dlogits)?);
        }
        let dxf = concat0(&dxf_parts)?;

        // ---- backward with per-block recomputation ----
        let mut dx = self.norm_f.backward(&x, &nf_ctx, &dxf)?;
        for layer in (0..self.blocks.len()).rev() {
            let x_in = &checkpoints[layer];
            // Recompute this block's forward to rebuild the context and
            // the executor's cached chunks (in the real system this is
            // where chunks stream back out to host memory again).
            let ctx = {
                let _s = rec.as_ref().map(|r| r.span("block.fwd"));
                let block = &self.blocks[layer];
                let (_, ctx) = block.forward(layer, x_in, pos, exec, mlp_chunks)?;
                ctx
            };
            let _s = rec.as_ref().map(|r| r.span("block.bwd"));
            dx = self.blocks[layer].backward(layer, &ctx, &dx, pos, exec, mlp_chunks)?;
        }
        self.emb.backward(tokens, &dx)?;
        Ok(LossStats {
            loss_sum,
            tokens: n_tokens,
        })
    }

    /// Clears all gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.emb.zero_grad();
        for b in &mut self.blocks {
            b.zero_grad();
        }
        self.norm_f.zero_grad();
        self.head.zero_grad();
    }

    /// Visits every `(param, grad)` pair in a fixed order.
    pub fn for_each_param(&mut self, mut f: impl FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.emb.weight, &mut self.emb.dweight);
        for b in &mut self.blocks {
            b.for_each_param(&mut f);
        }
        self.norm_f.for_each_param(&mut f);
        f(&mut self.head.weight, &mut self.head.dweight);
    }

    /// Visits every parameter read-only, in [`GptModel::for_each_param`]
    /// order.
    pub fn visit_params(&self, mut f: impl FnMut(&Tensor)) {
        f(&self.emb.weight);
        for b in &self.blocks {
            b.visit_params(&mut f);
        }
        self.norm_f.visit_params(&mut f);
        f(&self.head.weight);
    }

    /// Flattens all gradients (fixed order) for an all-reduce.
    pub fn collect_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.for_each_param(|_, g| out.extend_from_slice(g.data()));
        out
    }

    /// Flattens all parameters (fixed order) — used by checkpoints and by
    /// tests that copy weights between replicas.
    pub fn collect_params(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(|p| out.extend_from_slice(p.data()));
        out
    }

    /// Copies elements `lo..hi` of the flat parameter vector
    /// ([`GptModel::collect_params`] order) without flattening the rest —
    /// the slice a ZeRO-1 rank owns and updates.
    pub fn params_range(&self, lo: usize, hi: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(hi.saturating_sub(lo));
        let mut off = 0usize;
        self.visit_params(|p| {
            let n = p.numel();
            let (a, b) = (lo.max(off), hi.min(off + n));
            if a < b {
                out.extend_from_slice(&p.data()[a - off..b - off]);
            }
            off += n;
        });
        out
    }

    /// Writes back a flat parameter vector (inverse of
    /// [`GptModel::collect_params`]).
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not match the parameter count.
    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count(), "parameter length mismatch");
        self.set_params_range(0, flat);
    }

    /// Writes `src` over elements `lo..lo + src.len()` of the flat
    /// parameter vector (the inverse of [`GptModel::params_range`]).
    pub fn set_params_range(&mut self, lo: usize, src: &[f32]) {
        let hi = lo + src.len();
        let mut off = 0usize;
        self.for_each_param(|p, _| {
            let n = p.numel();
            let (a, b) = (lo.max(off), hi.min(off + n));
            if a < b {
                p.data_mut()[a - off..b - off].copy_from_slice(&src[a - lo..b - lo]);
            }
            off += n;
        });
    }

    /// Writes back (reduced) gradients, scaled by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `flat` does not match the parameter count.
    pub fn set_grads(&mut self, flat: &[f32], scale: f32) {
        let mut off = 0usize;
        self.for_each_param(|_, g| {
            let n = g.numel();
            g.data_mut().copy_from_slice(&flat[off..off + n]);
            g.scale_in_place(scale);
            off += n;
        });
        assert_eq!(off, flat.len(), "gradient length mismatch");
    }

    /// Scales all local gradients (single-device normalization path).
    pub fn scale_grads(&mut self, scale: f32) {
        self.for_each_param(|_, g| g.scale_in_place(scale));
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&mut self) -> f32 {
        let mut sq = 0.0f64;
        self.for_each_param(|_, g| {
            sq += g
                .data()
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum::<f64>();
        });
        sq.sqrt() as f32
    }

    /// Clips gradients to a maximum global L2 norm (DeepSpeed defaults to
    /// 1.0). Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale_grads(max_norm / norm);
        }
        norm
    }

    /// Applies one AdamW update to every parameter.
    pub fn optimizer_step(&mut self, opt: &mut AdamW) {
        opt.begin_step();
        let mut id = 0u64;
        self.for_each_param(|p, g| {
            opt.update(id, p.data_mut(), g.data());
            id += 1;
        });
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(|p| n += p.numel());
        n
    }

    /// Greedy next-token prediction for a prompt (used by examples).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn greedy_next(
        &mut self,
        exec: &mut dyn AttentionExec,
        prompt: &[usize],
    ) -> ExecResult<usize> {
        let s = prompt.len();
        let pos: Vec<usize> = (0..s).collect();
        let mut x = self.emb.forward(prompt)?;
        for (layer, block) in self.blocks.iter().enumerate() {
            let (nx, _) = block.forward(layer, &x, &pos, exec, 1)?;
            exec.discard(layer); // forward-only inference keeps no state
            x = nx;
        }
        let (xf, _) = self.norm_f.forward(&x)?;
        let last = xf.narrow(0, s - 1, 1)?;
        let logits = self.head.forward(&last)?;
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in logits.data().iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::data::Corpus;
    use crate::runtime::exec::LocalAttention;
    use fpdt_tensor::nn::AdamWConfig;

    fn tiny() -> ModelConfig {
        ModelConfig::tiny(2, 32, 4, 50)
    }

    fn tiny_llama() -> ModelConfig {
        ModelConfig::tiny_llama(2, 32, 4, 2, 50)
    }

    #[test]
    fn loss_starts_near_uniform_entropy() {
        for cfg in [tiny(), tiny_llama()] {
            let mut model = GptModel::new(&cfg, 0);
            let mut exec = LocalAttention::new(1);
            let (x, y) = Corpus::new(cfg.vocab, 0.1, 0).sample(32);
            let pos: Vec<usize> = (0..32).collect();
            let stats = model
                .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                .unwrap();
            let mean = stats.loss_sum / stats.tokens as f32;
            let uniform = (cfg.vocab as f32).ln();
            assert!(
                (mean - uniform).abs() < 1.0,
                "{}: initial loss {mean} vs uniform {uniform}",
                cfg.name
            );
        }
    }

    #[test]
    fn training_reduces_loss_both_families() {
        for cfg in [tiny(), tiny_llama()] {
            let mut model = GptModel::new(&cfg, 1);
            let mut exec = LocalAttention::new(2);
            let mut opt = AdamW::new(AdamWConfig {
                lr: 3e-3,
                ..Default::default()
            });
            let mut corpus = Corpus::new(cfg.vocab, 0.05, 1);
            let pos: Vec<usize> = (0..64).collect();
            let mut first = 0.0;
            let mut last = 0.0;
            for step in 0..30 {
                let (x, y) = corpus.sample(64);
                model.zero_grad();
                let stats = model
                    .forward_backward(&mut exec, &x, &y, &pos, 2, 2)
                    .unwrap();
                let loss = stats.loss_sum / stats.tokens as f32;
                model.scale_grads(1.0 / stats.tokens as f32);
                model.optimizer_step(&mut opt);
                if step == 0 {
                    first = loss;
                }
                last = loss;
            }
            assert!(last < first * 0.7, "{}: loss {first} -> {last}", cfg.name);
        }
    }

    #[test]
    fn chunked_execution_matches_monolithic_exactly_in_loss() {
        // MLP chunking, loss chunking and attention chunking are exact:
        // same seed, same data -> same losses within float tolerance.
        for cfg in [tiny(), tiny_llama()] {
            let (x, y) = Corpus::new(cfg.vocab, 0.1, 3).sample(48);
            let pos: Vec<usize> = (0..48).collect();

            let run = |attn_chunks: usize, mlp_chunks: usize, loss_chunks: usize| {
                let mut model = GptModel::new(&cfg, 7);
                let mut exec = LocalAttention::new(attn_chunks);
                model.zero_grad();
                let stats = model
                    .forward_backward(&mut exec, &x, &y, &pos, mlp_chunks, loss_chunks)
                    .unwrap();
                let grads = model.collect_grads();
                (stats.loss_sum, grads)
            };
            let (l1, g1) = run(1, 1, 1);
            let (l2, g2) = run(4, 8, 6);
            assert!(
                (l1 - l2).abs() < 1e-3 * l1.abs(),
                "{}: {l1} vs {l2}",
                cfg.name
            );
            let max_diff = g1
                .iter()
                .zip(&g2)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 1e-2, "{}: max grad diff {max_diff}", cfg.name);
        }
    }

    #[test]
    fn gradients_match_finite_difference_spot_check() {
        for cfg in [
            ModelConfig::tiny(1, 16, 2, 20),
            ModelConfig::tiny_llama(1, 16, 2, 1, 20),
        ] {
            let (x, y) = Corpus::new(cfg.vocab, 0.2, 4).sample(8);
            let pos: Vec<usize> = (0..8).collect();
            let loss_of = |model: &mut GptModel| {
                let mut exec = LocalAttention::new(1);
                let mut m2 = GptModel::new(&cfg, 11);
                let mut flat = Vec::new();
                model.for_each_param(|p, _| flat.extend_from_slice(p.data()));
                let mut off = 0;
                m2.for_each_param(|p, _| {
                    let n = p.numel();
                    p.data_mut().copy_from_slice(&flat[off..off + n]);
                    off += n;
                });
                m2.forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                    .unwrap()
                    .loss_sum
            };
            let mut model = GptModel::new(&cfg, 11);
            let mut exec = LocalAttention::new(1);
            model.zero_grad();
            model
                .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                .unwrap();
            let grads = model.collect_grads();
            let n = grads.len();
            let eps = 3e-2f32;
            for &probe in &[0usize, n / 3, n / 2, n - 1] {
                let bump = |delta: f32, model: &mut GptModel| {
                    let mut off = 0;
                    model.for_each_param(|p, _| {
                        let len = p.numel();
                        if probe >= off && probe < off + len {
                            p.data_mut()[probe - off] += delta;
                        }
                        off += len;
                    });
                };
                bump(eps, &mut model);
                let fp = loss_of(&mut model);
                bump(-2.0 * eps, &mut model);
                let fm = loss_of(&mut model);
                bump(eps, &mut model); // restore
                let fd = (fp - fm) / (2.0 * eps);
                let got = grads[probe];
                assert!(
                    (fd - got).abs() < 0.05 + 0.15 * fd.abs().max(got.abs()),
                    "{} param {probe}: fd {fd} vs analytic {got}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn param_count_matches_config_accounting() {
        // GPT: config ties embeddings, runtime unties -> +vocab*hidden.
        let cfg = tiny();
        let model = GptModel::new(&cfg, 0);
        assert_eq!(
            model.param_count() as u64,
            cfg.param_count() + (cfg.vocab * cfg.hidden) as u64
        );
        // Llama: config is already untied -> exact match.
        let cfg = tiny_llama();
        let model = GptModel::new(&cfg, 0);
        assert_eq!(model.param_count() as u64, cfg.param_count());
    }

    #[test]
    fn zeroed_skeleton_and_slices_agree_with_the_seeded_model() {
        for cfg in [tiny(), tiny_llama()] {
            let seeded = GptModel::new(&cfg, 3);
            let flat = seeded.collect_params();
            let mut loaded = GptModel::zeroed(&cfg);
            assert_eq!(loaded.param_count(), flat.len());
            loaded.set_params(&flat);
            assert_eq!(loaded.collect_params(), flat);
            // the read-only visitor walks the mutable visitor's order
            let mut via_mut = Vec::new();
            loaded.for_each_param(|p, _| via_mut.extend_from_slice(p.data()));
            assert_eq!(via_mut, flat);
            let n = flat.len();
            for (lo, hi) in [(0, n), (0, 1), (n / 3, 2 * n / 3), (n - 5, n), (7, 7)] {
                assert_eq!(seeded.params_range(lo, hi), flat[lo..hi], "{lo}..{hi}");
                let mut patched = seeded.clone();
                patched.set_params_range(lo, &vec![9.0; hi - lo]);
                let mut want = flat.clone();
                want[lo..hi].fill(9.0);
                assert_eq!(patched.collect_params(), want, "{lo}..{hi}");
            }
        }
    }

    #[test]
    fn gqa_runtime_trains() {
        // 4 query heads sharing 2 KV heads, end to end.
        let cfg = tiny_llama();
        let mut model = GptModel::new(&cfg, 5);
        let mut exec = LocalAttention::new(4);
        let (x, y) = Corpus::new(cfg.vocab, 0.1, 5).sample(32);
        let pos: Vec<usize> = (0..32).collect();
        let stats = model
            .forward_backward(&mut exec, &x, &y, &pos, 2, 2)
            .unwrap();
        assert!(stats.loss_sum.is_finite());
        assert!(model.collect_grads().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn greedy_next_returns_in_vocab() {
        let cfg = tiny();
        let mut model = GptModel::new(&cfg, 5);
        let mut exec = LocalAttention::new(1);
        let next = model.greedy_next(&mut exec, &[1, 2, 3]).unwrap();
        assert!(next < cfg.vocab);
    }
}

#[cfg(test)]
mod clip_tests {
    use super::*;
    use crate::runtime::data::Corpus;
    use crate::runtime::exec::LocalAttention;

    #[test]
    fn grad_clipping_bounds_the_norm() {
        let cfg = ModelConfig::tiny(1, 16, 2, 20);
        let mut model = GptModel::new(&cfg, 0);
        let mut exec = LocalAttention::new(1);
        let (x, y) = Corpus::new(cfg.vocab, 0.3, 0).sample(16);
        let pos: Vec<usize> = (0..16).collect();
        model.zero_grad();
        model
            .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
            .unwrap();
        let before = model.grad_norm();
        assert!(before > 0.1, "summed-loss grads are large: {before}");
        let returned = model.clip_grad_norm(0.1);
        assert!((returned - before).abs() < 1e-3);
        let after = model.grad_norm();
        assert!((after - 0.1).abs() < 1e-3, "clipped to the cap: {after}");
        // clipping below the cap is a no-op
        let before2 = model.grad_norm();
        model.clip_grad_norm(10.0);
        assert!((model.grad_norm() - before2).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

/// Magic prefix of the checkpoint format (version 1).
const CKPT_MAGIC: &[u8; 8] = b"FPDTCK01";

impl GptModel {
    /// Serializes all parameters to a writer (flat f32 little-endian with a
    /// magic/version header). A `&mut` reference can be passed as the
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_checkpoint<W: std::io::Write>(&mut self, mut w: W) -> std::io::Result<()> {
        let flat = self.collect_params();
        w.write_all(CKPT_MAGIC)?;
        w.write_all(&(flat.len() as u64).to_le_bytes())?;
        for v in flat {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }

    /// Restores parameters from a reader produced by
    /// [`GptModel::save_checkpoint`]. A `&mut` reference can be passed as
    /// the reader.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic header or a parameter-count
    /// mismatch with this model's architecture, and propagates I/O errors.
    pub fn load_checkpoint<R: std::io::Read>(&mut self, mut r: R) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != CKPT_MAGIC {
            return Err(Error::new(ErrorKind::InvalidData, "not an FPDT checkpoint"));
        }
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let n = u64::from_le_bytes(len8) as usize;
        if n != self.param_count() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "checkpoint has {n} params, model has {}",
                    self.param_count()
                ),
            ));
        }
        let mut flat = Vec::with_capacity(n);
        let mut buf = [0u8; 4];
        for _ in 0..n {
            r.read_exact(&mut buf)?;
            flat.push(f32::from_le_bytes(buf));
        }
        self.set_params(&flat);
        Ok(())
    }

    /// Mean loss over `batches` freshly sampled sequences, without
    /// touching gradients — the evaluation loop.
    ///
    /// # Errors
    ///
    /// Propagates shape or communication errors.
    pub fn evaluate(
        &mut self,
        exec: &mut dyn AttentionExec,
        corpus: &mut crate::runtime::data::Corpus,
        seq: usize,
        batches: usize,
    ) -> ExecResult<f32> {
        let pos: Vec<usize> = (0..seq).collect();
        let mut loss = 0.0f32;
        let mut toks = 0usize;
        for _ in 0..batches {
            let (x, y) = corpus.sample(seq);
            // forward_backward computes grads too; zero them afterwards so
            // evaluation leaves the training state untouched.
            let stats = self.forward_backward(exec, &x, &y, &pos, 1, 1)?;
            loss += stats.loss_sum;
            toks += stats.tokens;
        }
        self.zero_grad();
        Ok(loss / toks.max(1) as f32)
    }
}

#[cfg(test)]
mod ckpt_tests {
    use super::*;
    use crate::runtime::data::Corpus;
    use crate::runtime::exec::LocalAttention;
    use fpdt_tensor::nn::AdamWConfig;

    #[test]
    fn checkpoint_round_trip_preserves_outputs() {
        let cfg = ModelConfig::tiny(2, 32, 4, 50);
        let mut model = GptModel::new(&cfg, 9);
        // train a few steps so weights are non-trivial
        let mut exec = LocalAttention::new(2);
        let mut opt = AdamW::new(AdamWConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let mut corpus = Corpus::new(cfg.vocab, 0.1, 9);
        let pos: Vec<usize> = (0..32).collect();
        for _ in 0..5 {
            let (x, y) = corpus.sample(32);
            model.zero_grad();
            let s = model
                .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                .unwrap();
            model.scale_grads(1.0 / s.tokens as f32);
            model.optimizer_step(&mut opt);
        }
        let mut buf = Vec::new();
        model.save_checkpoint(&mut buf).unwrap();

        let mut fresh = GptModel::new(&cfg, 1234); // different init
        fresh.load_checkpoint(buf.as_slice()).unwrap();
        assert_eq!(fresh.collect_params(), model.collect_params());

        // identical loss on identical data
        let (x, y) = corpus.sample(32);
        let a = model
            .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
            .unwrap();
        let mut exec2 = LocalAttention::new(2);
        let b = fresh
            .forward_backward(&mut exec2, &x, &y, &pos, 1, 1)
            .unwrap();
        assert_eq!(a.loss_sum, b.loss_sum);
    }

    #[test]
    fn checkpoint_rejects_garbage_and_mismatches() {
        let cfg = ModelConfig::tiny(1, 16, 2, 20);
        let mut model = GptModel::new(&cfg, 0);
        assert!(model.load_checkpoint(&b"not a checkpoint"[..]).is_err());

        let mut buf = Vec::new();
        model.save_checkpoint(&mut buf).unwrap();
        let mut bigger = GptModel::new(&ModelConfig::tiny(2, 16, 2, 20), 0);
        assert!(bigger.load_checkpoint(buf.as_slice()).is_err());
    }

    #[test]
    fn evaluate_leaves_gradients_clean_and_tracks_learning() {
        let cfg = ModelConfig::tiny(1, 32, 4, 40);
        let mut model = GptModel::new(&cfg, 2);
        let mut exec = LocalAttention::new(1);
        let mut eval_corpus = Corpus::new(cfg.vocab, 0.05, 777);
        let before = model.evaluate(&mut exec, &mut eval_corpus, 32, 3).unwrap();
        assert_eq!(model.grad_norm(), 0.0, "evaluation must not leak gradients");

        let mut opt = AdamW::new(AdamWConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let mut corpus = Corpus::new(cfg.vocab, 0.05, 2);
        let pos: Vec<usize> = (0..64).collect();
        for _ in 0..25 {
            let (x, y) = corpus.sample(64);
            model.zero_grad();
            let s = model
                .forward_backward(&mut exec, &x, &y, &pos, 1, 1)
                .unwrap();
            model.scale_grads(1.0 / s.tokens as f32);
            model.optimizer_step(&mut opt);
        }
        let mut eval_corpus = Corpus::new(cfg.vocab, 0.05, 777);
        let after = model.evaluate(&mut exec, &mut eval_corpus, 32, 3).unwrap();
        assert!(after < before, "eval loss improves: {before} -> {after}");
    }
}
