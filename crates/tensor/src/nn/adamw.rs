use std::collections::HashMap;

/// Hyper-parameters for [`AdamW`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamWConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        AdamWConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Decoupled-weight-decay Adam operating on raw parameter slices.
///
/// The optimizer keys its `(m, v)` moments by an integer *parameter id* the
/// caller assigns. This makes ZeRO-style sharding trivial: a rank that owns
/// only elements `lo..hi` of a flat parameter registers the id once and
/// passes just its shard — the optimizer never sees (or allocates state
/// for) the rest, which is exactly the paper's "optimizer states are
/// partitioned" memory saving, realized for real in the runtime.
///
/// # Example
///
/// ```
/// use fpdt_tensor::nn::{AdamW, AdamWConfig};
///
/// let mut opt = AdamW::new(AdamWConfig { lr: 0.1, ..Default::default() });
/// let mut w = vec![1.0_f32, -1.0];
/// let g = vec![1.0_f32, -1.0];
/// for _ in 0..10 {
///     opt.begin_step();
///     opt.update(0, &mut w, &g);
/// }
/// assert!(w[0] < 1.0 && w[1] > -1.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdamW {
    cfg: AdamWConfig,
    step: u64,
    moments: HashMap<u64, (Vec<f32>, Vec<f32>)>,
}

/// One exported moment pair: `(param id, m, v)`.
pub type MomentEntry = (u64, Vec<f32>, Vec<f32>);

impl AdamW {
    /// Creates an optimizer with the given hyper-parameters.
    pub fn new(cfg: AdamWConfig) -> Self {
        AdamW {
            cfg,
            step: 0,
            moments: HashMap::new(),
        }
    }

    /// Current hyper-parameters.
    pub fn config(&self) -> AdamWConfig {
        self.cfg
    }

    /// Sets the learning rate (e.g. for warmup schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Bytes of optimizer state currently held (f32 moments).
    pub fn state_bytes(&self) -> usize {
        self.moments
            .values()
            .map(|(m, v)| (m.len() + v.len()) * 4)
            .sum()
    }

    /// Advances the shared step counter. Call once per training step,
    /// before the per-parameter [`AdamW::update`] calls.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Applies one AdamW update to `param` given `grad`, using the moment
    /// buffers registered under `param_id`.
    ///
    /// # Panics
    ///
    /// Panics if `param` and `grad` lengths differ, or if `param_id` was
    /// previously used with a different length (both indicate caller bugs,
    /// not recoverable conditions).
    pub fn update(&mut self, param_id: u64, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        assert!(self.step > 0, "call begin_step before update");
        let k = Kernel::new(self.cfg, self.step);
        let (m, v) = self.moments_mut(param_id, param.len());
        for (((p, m), v), &g) in param
            .iter_mut()
            .zip(m.iter_mut())
            .zip(v.iter_mut())
            .zip(grad)
        {
            *m = k.m(*m, g);
            *v = k.v(*v, g);
            *p = k.param(*p, *m, *v);
        }
    }

    /// The parameter half of [`AdamW::begin_step`] + [`AdamW::update`]:
    /// writes exactly the `param` values that pair would, but leaves the
    /// step counter and the moments untouched. [`AdamW::commit`] with the
    /// same `grad` then advances them bit for bit as `update` would have,
    /// so a step that can still fail after its update (a ZeRO-1 parameter
    /// all-gather) commits the optimizer only once it has succeeded. For
    /// optimizers that own a single parameter id.
    ///
    /// # Panics
    ///
    /// Same conditions as [`AdamW::update`].
    pub fn stage(&self, param_id: u64, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        let k = Kernel::new(self.cfg, self.step + 1);
        match self.moments.get(&param_id) {
            Some((m, v)) => {
                assert_eq!(
                    m.len(),
                    param.len(),
                    "param {param_id} re-registered with new length"
                );
                for (((p, &m), &v), &g) in param.iter_mut().zip(m).zip(v).zip(grad) {
                    *p = k.param(*p, k.m(m, g), k.v(v, g));
                }
            }
            None => {
                for (p, &g) in param.iter_mut().zip(grad) {
                    *p = k.param(*p, k.m(0.0, g), k.v(0.0, g));
                }
            }
        }
    }

    /// Commits a step staged by [`AdamW::stage`]: advances the step
    /// counter and the moments of `param_id` by `grad`.
    ///
    /// # Panics
    ///
    /// Panics if `param_id` was previously used with a different length.
    pub fn commit(&mut self, param_id: u64, grad: &[f32]) {
        self.step += 1;
        let k = Kernel::new(self.cfg, self.step);
        let (m, v) = self.moments_mut(param_id, grad.len());
        for ((m, v), &g) in m.iter_mut().zip(v.iter_mut()).zip(grad) {
            *m = k.m(*m, g);
            *v = k.v(*v, g);
        }
    }

    /// The `(m, v)` buffers of `param_id`, zero-initialized on first use.
    fn moments_mut(&mut self, param_id: u64, len: usize) -> (&mut [f32], &mut [f32]) {
        let (m, v) = self
            .moments
            .entry(param_id)
            .or_insert_with(|| (vec![0.0; len], vec![0.0; len]));
        assert_eq!(
            m.len(),
            len,
            "param {param_id} re-registered with new length"
        );
        (m, v)
    }

    /// The `(m, v)` moments registered under `param_id`, if any.
    pub fn moments(&self, param_id: u64) -> Option<(&[f32], &[f32])> {
        self.moments
            .get(&param_id)
            .map(|(m, v)| (m.as_slice(), v.as_slice()))
    }

    /// Exports the full optimizer state — the step counter plus every
    /// registered `(id, m, v)` moment pair, sorted by id so the layout is
    /// deterministic regardless of `HashMap` iteration order.
    pub fn export_state(&self) -> (u64, Vec<MomentEntry>) {
        let mut entries: Vec<_> = self
            .moments
            .iter()
            .map(|(&id, (m, v))| (id, m.clone(), v.clone()))
            .collect();
        entries.sort_by_key(|e| e.0);
        (self.step, entries)
    }

    /// Replaces the optimizer state with one captured by
    /// [`AdamW::export_state`]. Hyper-parameters are untouched — they come
    /// from the training config, not the checkpoint.
    pub fn import_state(&mut self, step: u64, entries: Vec<MomentEntry>) {
        self.step = step;
        self.moments.clear();
        for (id, m, v) in entries {
            assert_eq!(m.len(), v.len(), "moment buffers for {id} differ in length");
            self.moments.insert(id, (m, v));
        }
    }
}

/// One step's AdamW arithmetic, shared by [`AdamW::update`] and the
/// staged [`AdamW::stage`] / [`AdamW::commit`] pair so both produce the
/// same bits.
struct Kernel {
    cfg: AdamWConfig,
    bc1: f32,
    bc2: f32,
}

impl Kernel {
    fn new(cfg: AdamWConfig, step: u64) -> Self {
        Kernel {
            cfg,
            bc1: 1.0 - cfg.beta1.powi(step as i32),
            bc2: 1.0 - cfg.beta2.powi(step as i32),
        }
    }

    fn m(&self, m: f32, g: f32) -> f32 {
        self.cfg.beta1 * m + (1.0 - self.cfg.beta1) * g
    }

    fn v(&self, v: f32, g: f32) -> f32 {
        self.cfg.beta2 * v + (1.0 - self.cfg.beta2) * g * g
    }

    fn param(&self, p: f32, m: f32, v: f32) -> f32 {
        let AdamWConfig {
            lr,
            eps,
            weight_decay,
            ..
        } = self.cfg;
        let (mhat, vhat) = (m / self.bc1, v / self.bc2);
        p - lr * (mhat / (vhat.sqrt() + eps) + weight_decay * p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // minimize f(w) = 0.5 * (w - 3)^2
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.1,
            ..Default::default()
        });
        let mut w = vec![0.0f32];
        for _ in 0..500 {
            let g = vec![w[0] - 3.0];
            opt.begin_step();
            opt.update(0, &mut w, &g);
        }
        assert!((w[0] - 3.0).abs() < 1e-2, "w={}", w[0]);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.01,
            weight_decay: 0.5,
            ..Default::default()
        });
        let mut w = vec![5.0f32];
        for _ in 0..100 {
            opt.begin_step();
            opt.update(0, &mut w, &[0.0]);
        }
        assert!(w[0] < 5.0);
    }

    #[test]
    fn sharded_update_matches_full() {
        // Two optimizers each owning half the parameter vector must match a
        // single optimizer owning the whole thing.
        let cfg = AdamWConfig {
            lr: 0.05,
            ..Default::default()
        };
        let mut full = AdamW::new(cfg);
        let mut lo = AdamW::new(cfg);
        let mut hi = AdamW::new(cfg);
        let mut w_full = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut w_shard = w_full.clone();
        for step in 0..20 {
            let g: Vec<f32> = w_full
                .iter()
                .map(|&x| x * 0.5 + step as f32 * 0.01)
                .collect();
            full.begin_step();
            full.update(0, &mut w_full, &g);
            let gs: Vec<f32> = w_shard
                .iter()
                .map(|&x| x * 0.5 + step as f32 * 0.01)
                .collect();
            lo.begin_step();
            lo.update(0, &mut w_shard[..2], &gs[..2]);
            hi.begin_step();
            hi.update(0, &mut w_shard[2..], &gs[2..]);
        }
        for (a, b) in w_full.iter().zip(&w_shard) {
            assert!((a - b).abs() < 1e-6);
        }
        // State is split: each shard holds half the bytes of the full state.
        assert_eq!(lo.state_bytes() + hi.state_bytes(), full.state_bytes());
    }

    #[test]
    fn state_bytes_accounting() {
        let mut opt = AdamW::new(AdamWConfig::default());
        opt.begin_step();
        let mut w = vec![0.0f32; 10];
        opt.update(0, &mut w, &[0.0; 10]);
        assert_eq!(opt.state_bytes(), 10 * 2 * 4);
    }

    #[test]
    fn exported_state_resumes_bitwise() {
        // Optimize for k steps, export, keep going in both the original and
        // a resumed copy: trajectories must agree bit for bit.
        let cfg = AdamWConfig {
            lr: 0.05,
            ..Default::default()
        };
        let mut opt = AdamW::new(cfg);
        let mut w = vec![1.0f32, -2.0, 0.5];
        for _ in 0..7 {
            let g: Vec<f32> = w.iter().map(|&x| x * 0.3 - 0.1).collect();
            opt.begin_step();
            opt.update(3, &mut w, &g);
        }
        let (step, entries) = opt.export_state();
        assert_eq!(step, 7);
        assert_eq!(entries.len(), 1);
        let mut resumed = AdamW::new(cfg);
        resumed.import_state(step, entries);
        let mut w2 = w.clone();
        for _ in 0..7 {
            let g: Vec<f32> = w.iter().map(|&x| x * 0.3 - 0.1).collect();
            opt.begin_step();
            opt.update(3, &mut w, &g);
            let g2: Vec<f32> = w2.iter().map(|&x| x * 0.3 - 0.1).collect();
            resumed.begin_step();
            resumed.update(3, &mut w2, &g2);
        }
        assert_eq!(w, w2, "resumed trajectory must match bitwise");
        assert_eq!(opt.steps(), resumed.steps());
    }

    #[test]
    fn staged_steps_match_update_bitwise() {
        let cfg = AdamWConfig {
            lr: 0.05,
            weight_decay: 0.1,
            ..Default::default()
        };
        let (mut eager, mut staged) = (AdamW::new(cfg), AdamW::new(cfg));
        let mut w = vec![1.0f32, -2.0, 0.5, 3.0];
        let mut w2 = w.clone();
        for step in 0..9 {
            let g: Vec<f32> = w.iter().map(|&x| x * 0.3 - 0.1 * step as f32).collect();
            eager.begin_step();
            eager.update(0, &mut w, &g);
            let before = staged.export_state();
            staged.stage(0, &mut w2, &g);
            assert_eq!(
                staged.export_state(),
                before,
                "stage leaves state untouched"
            );
            staged.commit(0, &g);
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w), bits(&w2), "step {step}");
            assert_eq!(eager.export_state(), staged.export_state(), "step {step}");
        }
    }

    #[test]
    fn export_orders_ids() {
        let mut opt = AdamW::new(AdamWConfig::default());
        opt.begin_step();
        for id in [9u64, 2, 5, 0] {
            let mut w = vec![0.0f32; 2];
            opt.update(id, &mut w, &[1.0; 2]);
        }
        let (_, entries) = opt.export_state();
        let ids: Vec<u64> = entries.iter().map(|e| e.0).collect();
        assert_eq!(ids, vec![0, 2, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = AdamW::new(AdamWConfig::default());
        opt.begin_step();
        let mut w = vec![0.0f32; 2];
        opt.update(0, &mut w, &[0.0]);
    }
}
