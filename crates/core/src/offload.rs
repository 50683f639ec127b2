//! The host-memory pool: where FPDT parks idle sequence chunks — plus the
//! asynchronous copy stream that hides its traffic behind compute.
//!
//! In the paper this is pinned CPU DRAM reached over PCIe; in the real
//! runtime it is a keyed store owned by each simulated GPU's thread. The
//! pool tracks bytes and transfer counts so tests can assert the paper's
//! claims — e.g. that at any instant only `O(1/u)` of the sequence lives
//! on "HBM", and that the backward's nested loop fetches each KV chunk
//! exactly once per outer iteration.
//!
//! ## Zero-copy residency, costed transfers
//!
//! Chunks are stored as [`Arc<Tensor>`], so [`HostPool::fetch_keep`] hands
//! back the *same* buffer the pool holds — no data copy, ever. What a real
//! system pays for is the PCIe transfer, which [`OffloadEngine`] models as
//! a bandwidth-bound read pass over the chunk ("the copy"). Synchronous
//! transfers run that pass on the rank's thread; with prefetch enabled it
//! runs on a kernel-pool worker, chained FIFO like a CUDA copy stream, so
//! the transfer overlaps whatever the rank computes next.
//!
//! ## Determinism
//!
//! All pool *bookkeeping* (map inserts/removals, counters) happens
//! synchronously on the owning rank's thread at issue time, in program
//! order — only the costed read pass moves off-thread. Since the data is
//! `Arc`-shared, a prefetched chunk is bit-identical to a synchronously
//! fetched one regardless of when the copy runs, so prefetch on/off (and
//! any `FPDT_THREADS`) cannot change results *by construction*.

use fpdt_tensor::bf16::Bf16Tensor;
use fpdt_tensor::{par, Tensor};
use fpdt_trace::Recorder;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

/// What kind of buffer a pooled chunk holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufKind {
    /// Post-all-to-all query chunk.
    Q,
    /// Post-all-to-all key chunk.
    K,
    /// Post-all-to-all value chunk.
    V,
    /// Attention output chunk (needed for the backward `D` term).
    O,
    /// Log-sum-exp statistics for a query chunk.
    Lse,
    /// Accumulating query-gradient chunk (finalized at outer step `j=i`).
    DQ,
    /// Gathered output-gradient chunk (`dO`) in the backward pass.
    DOut,
    /// Row dot-products `D = rowsum(dO ⊙ O)` per query chunk.
    Dsum,
    /// Block-input hidden chunk (activation checkpoint).
    Hidden,
    /// Any other saved context (norm stats, MLP inputs...).
    Ctx,
}

/// Key identifying one pooled chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// Transformer layer index.
    pub layer: usize,
    /// Buffer kind.
    pub kind: BufKind,
    /// Chunk index within the layer.
    pub chunk: usize,
}

impl ChunkKey {
    /// Convenience constructor.
    pub fn new(layer: usize, kind: BufKind, chunk: usize) -> Self {
        ChunkKey { layer, kind, chunk }
    }
}

/// Counters the pool maintains for behavioral assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Device-to-host transfers (offloads).
    pub offloads: u64,
    /// Host-to-device transfers (fetches).
    pub fetches: u64,
    /// Bytes currently resident.
    pub bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_bytes: u64,
    /// Cumulative device-to-host traffic (bytes ever offloaded).
    pub bytes_offloaded: u64,
    /// Cumulative host-to-device traffic (bytes ever fetched, keep or
    /// consume).
    pub bytes_fetched: u64,
}

impl PoolStats {
    /// Folds a later segment's counters into this snapshot: cumulative
    /// counters add, residency takes the later segment's value, and the
    /// high-water mark takes the max. Accumulating per-segment snapshots
    /// this way makes a resumed run's pool statistics equal an
    /// uninterrupted run's.
    pub fn merge(&mut self, later: &PoolStats) {
        self.offloads += later.offloads;
        self.fetches += later.fetches;
        self.bytes = later.bytes;
        self.peak_bytes = self.peak_bytes.max(later.peak_bytes);
        self.bytes_offloaded += later.bytes_offloaded;
        self.bytes_fetched += later.bytes_fetched;
    }
}

/// How one chunk is laid out in host memory: full-precision `f32` (the
/// zero-copy default) or bf16 (half the bytes, one RNE rounding on
/// offload, widened back to `f32` on fetch).
///
/// The variant is the pool's *wire format* — compute always sees `f32`
/// via [`HostChunk::widen`]. Only KV chunks use bf16 (see
/// [`HostPool::set_payload_bf16`]); everything else stays `f32` so
/// gradients and saved activations keep full precision.
#[derive(Debug, Clone)]
pub enum HostChunk {
    /// Full-precision chunk, `Arc`-shared with the device side.
    F32(Arc<Tensor>),
    /// bf16-rounded chunk (2 bytes/element on the simulated PCIe link).
    Bf16(Arc<Bf16Tensor>),
}

impl HostChunk {
    /// Bytes this chunk occupies in host memory (4 per f32 element, 2 per
    /// bf16 element) — what every [`PoolStats`] byte counter tallies.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            HostChunk::F32(t) => (t.numel() * 4) as u64,
            HostChunk::Bf16(t) => t.wire_bytes(),
        }
    }

    /// Hands back the chunk as `f32` compute data: the pooled buffer
    /// itself for `F32` (zero-copy), a widened copy for `Bf16`.
    pub fn widen(&self) -> Arc<Tensor> {
        match self {
            HostChunk::F32(t) => Arc::clone(t),
            HostChunk::Bf16(t) => {
                Arc::new(t.to_f32().expect("bf16 chunk shape was valid on offload"))
            }
        }
    }

    /// The simulated PCIe transfer: a read pass over the chunk's *stored*
    /// representation plus (when `FPDT_SIM_GBPS` is set) link occupancy
    /// proportional to the wire bytes, so a bf16 chunk streams half the
    /// bytes — and takes half the wall-clock — of its f32 twin.
    fn touch(&self) {
        match self {
            HostChunk::F32(t) => {
                let mut acc = 0.0f32;
                for &x in t.data() {
                    acc += x;
                }
                std::hint::black_box(acc);
            }
            HostChunk::Bf16(t) => {
                let mut acc = 0u16;
                for &x in t.data() {
                    acc = acc.wrapping_add(x);
                }
                std::hint::black_box(acc);
            }
        }
        fpdt_trace::wire::simulate(self.wire_bytes());
    }
}

/// A per-rank host-memory pool. Chunks are `Arc`-shared: fetching hands
/// back the pooled buffer itself, never a copy.
///
/// # Example
///
/// ```
/// use fpdt_core::offload::{BufKind, ChunkKey, HostPool};
/// use fpdt_tensor::Tensor;
///
/// let mut pool = HostPool::new();
/// let key = ChunkKey::new(0, BufKind::K, 2);
/// pool.offload(key, Tensor::zeros(&[4, 2, 8]));
/// assert_eq!(pool.stats().bytes, 4 * 2 * 8 * 4);
/// let k = pool.fetch(&key).expect("chunk was cached");
/// assert_eq!(k.shape(), &[4, 2, 8]);
/// assert_eq!(pool.stats().bytes, 0);
/// assert_eq!(pool.stats().bytes_fetched, 4 * 2 * 8 * 4);
/// ```
#[derive(Debug, Default)]
pub struct HostPool {
    store: HashMap<ChunkKey, HostChunk>,
    stats: PoolStats,
    payload_bf16: bool,
}

impl HostPool {
    /// Creates an empty pool (f32 payloads).
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the pool's wire format for *KV* chunks: when enabled,
    /// `K`/`V` offloads are rounded to bf16 (halving their bytes in every
    /// [`PoolStats`] counter) and widened back to f32 on fetch. All other
    /// buffer kinds stay full-precision `Arc`-shared f32. Affects chunks
    /// offloaded after the call; gated at the runtime layer by
    /// `RuntimeOptions::payload_bf16` / `FPDT_BF16`.
    pub fn set_payload_bf16(&mut self, on: bool) {
        self.payload_bf16 = on;
    }

    /// Whether KV offloads are currently stored as bf16.
    pub fn payload_bf16(&self) -> bool {
        self.payload_bf16
    }

    /// Moves a tensor to host memory (device-to-host copy).
    ///
    /// # Panics
    ///
    /// Panics if the key is already resident — offloading the same chunk
    /// twice without fetching it is a scheduler bug.
    pub fn offload(&mut self, key: ChunkKey, t: Tensor) {
        self.offload_shared(key, Arc::new(t));
    }

    /// [`HostPool::offload`] for a chunk that is already `Arc`-shared with
    /// the device side — the zero-copy path the executor uses. Returns the
    /// chunk as stored (an `Arc` clone), so callers modeling the transfer
    /// can stream the actual wire representation.
    ///
    /// # Panics
    ///
    /// Same double-offload condition as [`HostPool::offload`].
    pub fn offload_shared(&mut self, key: ChunkKey, t: Arc<Tensor>) -> HostChunk {
        let chunk = if self.payload_bf16 && matches!(key.kind, BufKind::K | BufKind::V) {
            HostChunk::Bf16(Arc::new(Bf16Tensor::from_f32(&t)))
        } else {
            HostChunk::F32(t)
        };
        let b = chunk.wire_bytes();
        self.stats.offloads += 1;
        self.stats.bytes += b;
        self.stats.bytes_offloaded += b;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes);
        let prev = self.store.insert(key, chunk.clone());
        assert!(prev.is_none(), "chunk {key:?} offloaded twice");
        chunk
    }

    /// Moves a tensor back to the device (host-to-device copy), removing
    /// it from the pool. Returns `None` when the key is not resident.
    pub fn fetch(&mut self, key: &ChunkKey) -> Option<Arc<Tensor>> {
        self.fetch_chunk(key).map(|c| c.widen())
    }

    /// [`HostPool::fetch`] returning the stored wire representation
    /// (counters update identically; widen with [`HostChunk::widen`]).
    pub fn fetch_chunk(&mut self, key: &ChunkKey) -> Option<HostChunk> {
        let c = self.store.remove(key)?;
        let b = c.wire_bytes();
        self.stats.fetches += 1;
        self.stats.bytes -= b;
        self.stats.bytes_fetched += b;
        Some(c)
    }

    /// Reads a chunk without evicting it (a fetch that keeps the host
    /// copy — what the forward does with KV chunks reused by later query
    /// chunks). For f32 chunks this hands back the pooled `Arc` itself:
    /// no data is copied. bf16 chunks widen to a fresh f32 buffer.
    pub fn fetch_keep(&mut self, key: &ChunkKey) -> Option<Arc<Tensor>> {
        self.fetch_keep_chunk(key).map(|c| c.widen())
    }

    /// [`HostPool::fetch_keep`] returning the stored wire representation.
    pub fn fetch_keep_chunk(&mut self, key: &ChunkKey) -> Option<HostChunk> {
        let c = self.store.get(key)?.clone();
        self.stats.fetches += 1;
        self.stats.bytes_fetched += c.wire_bytes();
        Some(c)
    }

    /// Drops a resident chunk without a host-to-device transfer (freeing
    /// host memory costs no PCIe traffic). Returns whether it was present.
    pub fn discard(&mut self, key: &ChunkKey) -> bool {
        match self.store.remove(key) {
            Some(c) => {
                self.stats.bytes -= c.wire_bytes();
                true
            }
            None => false,
        }
    }

    /// Whether a chunk is resident.
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.store.contains_key(key)
    }

    /// Number of resident chunks.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Transfer and residency counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

/// Completion state of one asynchronous copy.
#[derive(Debug, Default)]
struct TaskDone {
    done: Mutex<bool>,
    cv: Condvar,
}

impl TaskDone {
    fn signal(&self) {
        *self.done.lock().expect("copy task state") = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut d = self.done.lock().expect("copy task state");
        while !*d {
            d = self.cv.wait(d).expect("copy task state");
        }
    }
}

/// Signals a [`TaskDone`] when dropped — even if the copy payload panics
/// on the worker, so a [`FetchHandle::wait`] never hangs.
struct SignalOnDrop(Arc<TaskDone>);

impl Drop for SignalOnDrop {
    fn drop(&mut self) {
        self.0.signal();
    }
}

/// An in-flight host-to-device copy issued by [`OffloadEngine::prefetch`].
///
/// The chunk's *data* is already available (it is the pool's shared
/// buffer); [`FetchHandle::wait`] blocks until the modeled transfer has
/// finished streaming, recording the blocked time as an `offload.wait`
/// span. Dropping the handle waits too, so the copy stream stays ordered
/// even on error paths.
#[derive(Debug)]
pub struct FetchHandle {
    data: Arc<Tensor>,
    done: Option<Arc<TaskDone>>,
    key: ChunkKey,
    pending: Option<Arc<Mutex<HashSet<ChunkKey>>>>,
    recorder: Option<Recorder>,
    bytes: u64,
}

impl FetchHandle {
    /// A handle whose transfer already completed (device-resident chunks,
    /// or a copy that ran inline under a single-thread budget).
    pub fn ready(data: Arc<Tensor>) -> Self {
        FetchHandle {
            data,
            done: None,
            key: ChunkKey::new(0, BufKind::Ctx, 0),
            pending: None,
            recorder: None,
            bytes: 0,
        }
    }

    /// Blocks until the chunk has finished streaming in, then returns the
    /// shared buffer.
    pub fn wait(self) -> Arc<Tensor> {
        let data = Arc::clone(&self.data);
        drop(self); // the Drop impl performs the actual wait
        data
    }
}

impl Drop for FetchHandle {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            match &self.recorder {
                Some(r) => {
                    let start = r.now_us();
                    done.wait();
                    r.record("offload.wait", start, r.now_us() - start, Some(self.bytes));
                }
                None => done.wait(),
            }
        }
        if let Some(pending) = &self.pending {
            pending.lock().expect("pending prefetch set").remove(&self.key);
        }
    }
}

/// A [`HostPool`] fronted by an asynchronous copy stream.
///
/// Bookkeeping (residency, counters) stays synchronous on the owning
/// rank's thread; the costed transfer pass runs on the shared kernel pool
/// when `prefetch` is enabled *and* the `device_scope` budget leaves a
/// helper thread (`fpdt_tensor::par::spawn_task`), inline otherwise.
/// Transfers chain FIFO per engine — one copy in flight at a time, like a
/// CUDA copy stream on one PCIe link.
#[derive(Default)]
pub struct OffloadEngine {
    pool: HostPool,
    prefetch: bool,
    last: Option<Arc<TaskDone>>,
    pending: Arc<Mutex<HashSet<ChunkKey>>>,
    recorder: Option<Recorder>,
}

impl OffloadEngine {
    /// An engine over an empty pool; `prefetch` enables the async stream.
    pub fn new(prefetch: bool) -> Self {
        OffloadEngine {
            pool: HostPool::new(),
            prefetch,
            last: None,
            pending: Arc::default(),
            recorder: None,
        }
    }

    /// Switches the pool to bf16 KV payloads (see
    /// [`HostPool::set_payload_bf16`]). The modeled transfer passes then
    /// stream the stored bf16 representation — half the bytes.
    pub fn set_payload_bf16(&mut self, on: bool) {
        self.pool.set_payload_bf16(on);
    }

    /// Attaches a span recorder: every transfer records `offload.put` /
    /// `offload.fetch` / `offload.prefetch` spans with actual byte counts,
    /// and waits record `offload.wait`.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Whether the asynchronous copy stream is enabled.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch
    }

    /// Transfer and residency counters (deterministic: bookkeeping happens
    /// at issue time regardless of copy timing).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Whether the pool holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Whether a chunk is resident.
    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.pool.contains(key)
    }

    /// Offloads a shared chunk (device-to-host). The residency update is
    /// immediate; the costed copy pass streams asynchronously when the
    /// engine prefetches.
    ///
    /// # Panics
    ///
    /// Same double-offload condition as [`HostPool::offload`].
    pub fn put(&mut self, key: ChunkKey, t: Arc<Tensor>) {
        let chunk = self.pool.offload_shared(key, t);
        let bytes = chunk.wire_bytes();
        if self.prefetch {
            let rec = self.recorder.clone();
            self.submit(move || {
                let _s = rec.as_ref().map(|r| r.span("offload.put").bytes(bytes));
                chunk.touch();
            });
        } else {
            let _s = self
                .recorder
                .as_ref()
                .map(|r| r.span("offload.put").bytes(bytes));
            chunk.touch();
        }
    }

    /// Synchronous host-to-device transfer: `consume` evicts the chunk,
    /// otherwise the host copy stays resident. `None` when not resident.
    pub fn fetch(&mut self, key: &ChunkKey, consume: bool) -> Option<Arc<Tensor>> {
        let chunk = if consume {
            self.pool.fetch_chunk(key)
        } else {
            self.pool.fetch_keep_chunk(key)
        }?;
        let _s = self
            .recorder
            .as_ref()
            .map(|r| r.span("offload.fetch").bytes(chunk.wire_bytes()));
        chunk.touch();
        Some(chunk.widen())
    }

    /// Issues an asynchronous host-to-device transfer and returns a
    /// [`FetchHandle`] to wait on — the double-buffer primitive. Counters
    /// update now (so statistics are identical to the synchronous path);
    /// the copy pass runs on the stream. With prefetch disabled this
    /// degrades to [`OffloadEngine::fetch`] behind a ready handle.
    ///
    /// # Panics
    ///
    /// Panics when `key` already has an in-flight prefetch that no one
    /// waited for — double-buffering the same chunk twice is a scheduler
    /// bug, mirroring the pool's double-offload panic.
    pub fn prefetch(&mut self, key: &ChunkKey, consume: bool) -> Option<FetchHandle> {
        if !self.prefetch {
            return self.fetch(key, consume).map(FetchHandle::ready);
        }
        assert!(
            self.pending
                .lock()
                .expect("pending prefetch set")
                .insert(*key),
            "chunk {key:?} prefetched twice without a wait"
        );
        let chunk = if consume {
            self.pool.fetch_chunk(key)
        } else {
            self.pool.fetch_keep_chunk(key)
        };
        let Some(chunk) = chunk else {
            self.pending.lock().expect("pending prefetch set").remove(key);
            return None;
        };
        let bytes = chunk.wire_bytes();
        let rec = self.recorder.clone();
        // Widen on the issuing rank's thread (deterministic program order);
        // the stream only runs the costed pass over the wire repr.
        let data = chunk.widen();
        let done = self.submit(move || {
            let _s = rec.as_ref().map(|r| r.span("offload.prefetch").bytes(bytes));
            chunk.touch();
        });
        Some(FetchHandle {
            data,
            done,
            key: *key,
            pending: Some(Arc::clone(&self.pending)),
            recorder: self.recorder.clone(),
            bytes,
        })
    }

    /// Drops a resident chunk without a transfer. Returns whether it was
    /// present.
    pub fn discard(&mut self, key: &ChunkKey) -> bool {
        self.pool.discard(key)
    }

    /// Blocks until every queued copy has completed (the stream is idle).
    pub fn drain(&mut self) {
        if let Some(d) = self.last.take() {
            d.wait();
        }
    }

    /// Submits one copy pass to the stream: it first waits for the
    /// previous pass (FIFO, one transfer in flight — a single PCIe link),
    /// then runs `f`. Returns the completion state when the pass went
    /// async, `None` when it ran inline (single-thread budget).
    fn submit(&mut self, f: impl FnOnce() + Send + 'static) -> Option<Arc<TaskDone>> {
        let prev = self.last.take();
        let done = Arc::new(TaskDone::default());
        let signal = Arc::clone(&done);
        let task = move || {
            let _signal = SignalOnDrop(signal);
            if let Some(p) = prev {
                p.wait();
            }
            f();
        };
        if par::spawn_task(Box::new(task)) {
            self.last = Some(Arc::clone(&done));
            Some(done)
        } else {
            None
        }
    }
}

impl Drop for OffloadEngine {
    fn drop(&mut self) {
        // Workers only read Arc-shared data, so dropping early is safe;
        // draining just keeps span timelines from outliving their run.
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::pool as thread_pool;
    use std::sync::MutexGuard;

    #[test]
    fn offload_fetch_round_trip() {
        let mut pool = HostPool::new();
        let t = Tensor::arange(8).reshape(&[2, 4]).unwrap();
        let key = ChunkKey::new(3, BufKind::V, 1);
        pool.offload(key, t.clone());
        assert!(pool.contains(&key));
        assert_eq!(pool.len(), 1);
        let back = pool.fetch(&key).unwrap();
        assert_eq!(*back, t);
        assert!(pool.is_empty());
        assert!(pool.fetch(&key).is_none());
    }

    #[test]
    fn stats_track_transfers_peak_and_directions() {
        let mut pool = HostPool::new();
        pool.offload(ChunkKey::new(0, BufKind::K, 0), Tensor::zeros(&[10]));
        pool.offload(ChunkKey::new(0, BufKind::V, 0), Tensor::zeros(&[10]));
        assert_eq!(pool.stats().offloads, 2);
        assert_eq!(pool.stats().bytes, 80);
        assert_eq!(pool.stats().bytes_offloaded, 80);
        pool.fetch(&ChunkKey::new(0, BufKind::K, 0)).unwrap();
        assert_eq!(pool.stats().fetches, 1);
        assert_eq!(pool.stats().bytes, 40);
        assert_eq!(pool.stats().peak_bytes, 80);
        assert_eq!(pool.stats().bytes_fetched, 40);
        // keep-fetches count as host-to-device traffic too
        pool.fetch_keep(&ChunkKey::new(0, BufKind::V, 0)).unwrap();
        assert_eq!(pool.stats().bytes_fetched, 80);
        assert_eq!(pool.stats().bytes_offloaded, 80, "no new offloads");
    }

    #[test]
    fn fetch_keep_is_zero_copy() {
        let mut pool = HostPool::new();
        let key = ChunkKey::new(1, BufKind::Q, 0);
        let t = Arc::new(Tensor::ones(&[4]));
        pool.offload_shared(key, Arc::clone(&t));
        let a = pool.fetch_keep(&key).unwrap();
        let b = pool.fetch_keep(&key).unwrap();
        // Every fetch returns the same allocation the caller offloaded —
        // no clone anywhere in the pool.
        assert!(Arc::ptr_eq(&a, &t));
        assert!(std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
        // caller + pool + two keeps = 4 refs, one buffer
        assert_eq!(Arc::strong_count(&t), 4);
        let c = pool.fetch(&key).unwrap();
        assert!(Arc::ptr_eq(&c, &t));
        assert_eq!(pool.stats().fetches, 3);
    }

    #[test]
    fn bf16_kv_traffic_halves_exactly() {
        // KV-only fixture: every byte counter must be exactly half of the
        // f32 run's, with identical transfer counts.
        let run = |bf16: bool| {
            let mut pool = HostPool::new();
            pool.set_payload_bf16(bf16);
            pool.offload(ChunkKey::new(0, BufKind::K, 0), Tensor::ones(&[16]));
            pool.offload(ChunkKey::new(0, BufKind::V, 0), Tensor::ones(&[16]));
            pool.fetch(&ChunkKey::new(0, BufKind::K, 0)).unwrap();
            pool.fetch_keep(&ChunkKey::new(0, BufKind::V, 0)).unwrap();
            pool.stats()
        };
        let (full, half) = (run(false), run(true));
        assert_eq!(full.offloads, half.offloads);
        assert_eq!(full.fetches, half.fetches);
        assert_eq!(full.bytes_offloaded, 2 * half.bytes_offloaded);
        assert_eq!(full.bytes_fetched, 2 * half.bytes_fetched);
        assert_eq!(full.peak_bytes, 2 * half.peak_bytes);
        assert_eq!(full.bytes, 2 * half.bytes);
    }

    #[test]
    fn bf16_mode_leaves_non_kv_chunks_zero_copy() {
        let mut pool = HostPool::new();
        pool.set_payload_bf16(true);
        assert!(pool.payload_bf16());
        let key = ChunkKey::new(0, BufKind::O, 0);
        let t = Arc::new(Tensor::ones(&[8]));
        pool.offload_shared(key, Arc::clone(&t));
        let got = pool.fetch_keep(&key).unwrap();
        assert!(Arc::ptr_eq(&got, &t), "non-KV kinds stay f32 zero-copy");
        assert_eq!(pool.stats().bytes, 32, "full f32 bytes for non-KV");
    }

    #[test]
    fn bf16_kv_values_round_once_through_bf16() {
        use fpdt_tensor::bf16::{bf16_to_f32, f32_to_bf16};
        let mut pool = HostPool::new();
        pool.set_payload_bf16(true);
        let key = ChunkKey::new(0, BufKind::K, 0);
        let vals: Vec<f32> = (0..7).map(|i| 0.1 + i as f32 * 0.013).collect();
        pool.offload(key, Tensor::from_vec(vals.clone(), &[7]).unwrap());
        assert_eq!(pool.stats().bytes, 14, "2 bytes per element");
        let back = pool.fetch(&key).unwrap();
        assert_eq!(back.shape(), &[7]);
        for (got, &x) in back.data().iter().zip(&vals) {
            assert_eq!(*got, bf16_to_f32(f32_to_bf16(x)), "exactly one RNE rounding");
        }
    }

    #[test]
    #[should_panic(expected = "offloaded twice")]
    fn double_offload_is_a_bug() {
        let mut pool = HostPool::new();
        let key = ChunkKey::new(0, BufKind::K, 0);
        pool.offload(key, Tensor::zeros(&[1]));
        pool.offload(key, Tensor::zeros(&[1]));
    }

    // ---- engine tests ----
    //
    // Engine tests that force the async path mutate the global thread
    // budget; serialize them so restores don't race each other.
    static THREADS_LOCK: Mutex<()> = Mutex::new(());

    struct ForcedThreads<'a> {
        _guard: MutexGuard<'a, ()>,
        prev: usize,
    }

    impl ForcedThreads<'_> {
        fn new(n: usize) -> Self {
            let guard = THREADS_LOCK.lock().unwrap();
            ForcedThreads {
                _guard: guard,
                prev: thread_pool::set_threads(n),
            }
        }
    }

    impl Drop for ForcedThreads<'_> {
        fn drop(&mut self) {
            thread_pool::set_threads(self.prev);
        }
    }

    #[test]
    fn prefetch_wait_returns_the_pooled_buffer() {
        let _t = ForcedThreads::new(8);
        let mut eng = OffloadEngine::new(true);
        let key = ChunkKey::new(0, BufKind::K, 0);
        let t = Arc::new(Tensor::arange(64));
        eng.put(key, Arc::clone(&t));
        let h = eng.prefetch(&key, false).expect("resident");
        let got = h.wait();
        assert!(Arc::ptr_eq(&got, &t), "prefetch is zero-copy");
        assert!(eng.contains(&key), "keep-mode leaves the host copy");
        let h2 = eng.prefetch(&key, true).expect("resident");
        assert!(Arc::ptr_eq(&h2.wait(), &t));
        assert!(eng.is_empty());
        assert_eq!(eng.stats().fetches, 2);
        eng.drain();
    }

    #[test]
    #[should_panic(expected = "prefetched twice")]
    fn double_prefetch_without_wait_is_a_bug() {
        let mut eng = OffloadEngine::new(true);
        let key = ChunkKey::new(0, BufKind::V, 3);
        eng.put(key, Arc::new(Tensor::zeros(&[8])));
        let _first = eng.prefetch(&key, false).expect("resident");
        // still un-waited -> scheduler bug
        let _second = eng.prefetch(&key, false);
    }

    #[test]
    fn prefetch_missing_chunk_is_none_and_clears_pending() {
        let mut eng = OffloadEngine::new(true);
        let key = ChunkKey::new(7, BufKind::Q, 1);
        assert!(eng.prefetch(&key, true).is_none());
        // the failed prefetch must not leave `key` marked in flight
        eng.put(key, Arc::new(Tensor::zeros(&[4])));
        let h = eng.prefetch(&key, true).expect("resident now");
        assert_eq!(h.wait().numel(), 4);
    }

    #[test]
    fn sync_and_async_paths_keep_identical_stats() {
        let run = |prefetch: bool| {
            let _t = ForcedThreads::new(8);
            let mut eng = OffloadEngine::new(prefetch);
            for i in 0..4usize {
                eng.put(ChunkKey::new(0, BufKind::K, i), Arc::new(Tensor::ones(&[16])));
            }
            for i in 0..4usize {
                let key = ChunkKey::new(0, BufKind::K, i);
                if prefetch {
                    eng.prefetch(&key, true).expect("resident").wait();
                } else {
                    eng.fetch(&key, true).expect("resident");
                }
            }
            eng.drain();
            eng.stats()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn bf16_engine_sync_async_stats_match() {
        // bf16 transfers keep the sync/async stats-parity guarantee, and
        // the engine's modeled pass streams the stored (half-size) repr.
        let run = |prefetch: bool| {
            let _t = ForcedThreads::new(8);
            let mut eng = OffloadEngine::new(prefetch);
            eng.set_payload_bf16(true);
            for i in 0..4usize {
                eng.put(ChunkKey::new(0, BufKind::K, i), Arc::new(Tensor::ones(&[16])));
            }
            for i in 0..4usize {
                let key = ChunkKey::new(0, BufKind::K, i);
                if prefetch {
                    eng.prefetch(&key, true).expect("resident").wait();
                } else {
                    eng.fetch(&key, true).expect("resident");
                }
            }
            eng.drain();
            eng.stats()
        };
        let stats = run(false);
        assert_eq!(stats, run(true));
        assert_eq!(stats.bytes_offloaded, 4 * 16 * 2, "bf16 wire bytes");
        assert_eq!(stats.bytes_fetched, 4 * 16 * 2);
    }

    #[test]
    fn handle_drop_without_wait_still_synchronizes() {
        let _t = ForcedThreads::new(8);
        let mut eng = OffloadEngine::new(true);
        let key = ChunkKey::new(2, BufKind::DQ, 0);
        eng.put(key, Arc::new(Tensor::zeros(&[32])));
        drop(eng.prefetch(&key, false));
        // pending cleared -> a fresh prefetch of the same key is legal
        let h = eng.prefetch(&key, true).expect("resident");
        assert_eq!(h.wait().numel(), 32);
        eng.drain();
    }
}
