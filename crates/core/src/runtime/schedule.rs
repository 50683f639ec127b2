//! The FPDT tile schedule, generated once from `(chunks, balanced)`.
//!
//! Two consumers read the same [`TileSchedule`]: the executor
//! ([`DistAttention`](super::exec::DistAttention)) runs it, and the
//! autotuner ([`plan_for`](super::autotune::plan_for)) prices it from
//! the per-stage tile and host-pool op counts it carries. One training
//! step of one layer is `2u` pipeline stages: forward chunks `0..u`, then
//! backward slots `0..u`.
//!
//! The sequential Figure-7 order and the causal load-balanced order are
//! two slot assignments of the same lower-triangular `(q_chunk i,
//! kv_chunk j)` tile triangle. Both walk every query row in ascending
//! `j` and every KV column in ascending `i`, so every accumulator sees
//! the same floating-point order and the two give identical bits.

use std::collections::VecDeque;

/// Host-pool transfers one pipeline stage issues on one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PoolOps {
    /// Host-to-device transfers (keep and take fetches alike).
    pub(crate) fetches: u64,
    /// Device-to-host transfers (puts).
    pub(crate) offloads: u64,
}

/// One layer's tile schedule: the backward slot assignment plus the
/// lookahead and prefetch choices that go with it. Built only by
/// [`TileSchedule::new`], so the slots always cover the causal triangle
/// in both accumulation orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSchedule {
    /// Sequence chunks per rank (`u`).
    pub(crate) chunks: usize,
    /// Backward tiles `(i, j)` per pipeline slot, in execution order.
    pub(crate) slots: Vec<Vec<(usize, usize)>>,
    /// Posts kept in flight ahead of use for the forward fused QKV and
    /// backward `dO` all-to-alls: `u` posts everything up-front, `1` is
    /// the Figure-13 double buffer.
    pub(crate) lookahead: usize,
    /// Whether forward chunk `i` issues chunk `i+1`'s first KV fetch, so
    /// no forward slot opens on an exposed transfer.
    pub(crate) carry_kv: bool,
}

impl TileSchedule {
    /// The schedule for `chunks` chunks. `balanced` picks the causal
    /// load-balanced assignment (`balanced_slots`, every post up-front,
    /// cross-chunk KV carry); otherwise each slot is one KV column, the
    /// paper's KV-outer/Q-inner nest, with one-ahead posts.
    pub fn new(chunks: usize, balanced: bool) -> Self {
        let u = chunks;
        if balanced {
            TileSchedule {
                chunks: u,
                slots: balanced_slots(u),
                lookahead: u,
                carry_kv: u > 1,
            }
        } else {
            TileSchedule {
                chunks: u,
                slots: (0..u).map(|j| (j..u).map(|i| (i, j)).collect()).collect(),
                lookahead: 1.min(u),
                carry_kv: false,
            }
        }
    }

    /// Attention tiles per stage: forward chunk `i` folds `i + 1` KV
    /// chunks, backward slot `s` runs its assigned tiles.
    pub(crate) fn stage_tiles(&self) -> Vec<usize> {
        (1..=self.chunks)
            .chain(self.slots.iter().map(Vec::len))
            .collect()
    }

    /// Host-pool transfers per stage, counted where the executor issues
    /// them (offload on):
    ///
    /// * forward chunk `i` puts Q, K, V, O and Lse and keep-fetches the
    ///   K/V pairs of chunks `0..i` (with `carry_kv`, the first pair is
    ///   issued one stage early, by chunk `i - 1`);
    /// * a backward tile `(i, j)` grabs Q, dO, Lse, Dsum and takes its DQ
    ///   accumulator, re-putting DQ unless it is the diagonal; row `i`'s
    ///   first tile (`j == 0`) also keeps O and puts dO, Dsum and DQ;
    /// * KV column `j`'s take-fetch is issued at the start of slot
    ///   `j - 1` (column 0's just before slot 0).
    pub(crate) fn stage_pool_ops(&self) -> Vec<PoolOps> {
        let u = self.chunks as u64;
        let carry = u64::from(self.carry_kv);
        let forward = (0..u).map(|i| {
            // Chunk i needs i KV pairs; with the carry its first pair was
            // issued by chunk i-1, and it issues chunk i+1's first pair.
            let carried_in = carry * u64::from(i > 0);
            let carried_out = carry * u64::from(i + 1 < u);
            PoolOps {
                fetches: 2 * (i - carried_in + carried_out),
                offloads: 5,
            }
        });
        let backward = self.slots.iter().enumerate().map(|(s, slot)| {
            let s = s as u64;
            let kv_columns = u64::from(s == 0) + u64::from(s + 1 < u);
            let mut ops = PoolOps {
                fetches: 2 * kv_columns,
                offloads: 0,
            };
            for &(i, j) in slot {
                let staged = u64::from(j == 0);
                ops.fetches += 5 + staged;
                ops.offloads += u64::from(i != j) + 3 * staged;
            }
            ops
        });
        forward.chain(backward).collect()
    }
}

/// Cuts the causal tile triangle `{(i, j) : j <= i < u}` into `u`
/// near-equal pipeline slots (sizes differ by at most one tile).
///
/// Tiles are queued column-major — KV chunk `j`'s column `(j..u, j)`
/// opens at slot `j`, diagonal first — and each slot `s` takes
/// `ceil(remaining / (u - s))` tiles from the queue front. Because
/// columns are appended in order and the queue is FIFO, the flattened
/// schedule preserves both accumulation orders the kernels rely on: for
/// fixed `i` tiles run in ascending `j`, for fixed `j` in ascending `i`.
/// Query chunk `i`'s first tile is always `(i, 0)` and column `j` always
/// opens with its diagonal `(j, j)` — exactly what the executor's lazy
/// row/column staging keys on.
fn balanced_slots(u: usize) -> Vec<Vec<(usize, usize)>> {
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut slots: Vec<Vec<(usize, usize)>> = Vec::with_capacity(u);
    let mut remaining = u * (u + 1) / 2;
    for s in 0..u {
        for i in s..u {
            queue.push_back((i, s));
        }
        let quota = if s + 1 == u {
            queue.len()
        } else {
            remaining.div_ceil(u - s).min(queue.len())
        };
        let slot: Vec<(usize, usize)> = queue.drain(..quota).collect();
        remaining -= slot.len();
        slots.push(slot);
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_assignments_cover_the_triangle_in_accumulation_order() {
        for u in 1..=8usize {
            let sizes: Vec<usize> = balanced_slots(u).iter().map(Vec::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(
                *min >= 1 && max - min <= 1,
                "near-equal balanced slot sizes (u={u}): {sizes:?}"
            );
            for balanced in [false, true] {
                let schedule = TileSchedule::new(u, balanced);
                assert_eq!(schedule.slots.len(), u, "one slot per chunk (u={u})");
                let mut seen = std::collections::HashSet::new();
                // Row i must sweep KV ascending from 0; column j must
                // sweep queries ascending from its diagonal j, and may
                // not open before slot j (its KV fetch is issued at the
                // start of slot j - 1).
                let mut next_j = vec![0usize; u];
                let mut next_i: Vec<usize> = (0..u).collect();
                for (s, slot) in schedule.slots.iter().enumerate() {
                    for &(i, j) in slot {
                        assert!(j <= i && i < u, "causal tile ({i},{j})");
                        assert!(seen.insert((i, j)), "tile ({i},{j}) duplicated");
                        assert_eq!(j, next_j[i], "row {i} sweeps KV in ascending order");
                        assert_eq!(i, next_i[j], "column {j} sweeps queries in ascending order");
                        assert!(j <= s, "column {j} opens at slot {s}");
                        next_j[i] += 1;
                        next_i[j] += 1;
                    }
                }
                assert_eq!(seen.len(), u * (u + 1) / 2, "every tile scheduled (u={u})");
                let tiles = schedule.stage_tiles();
                assert_eq!(tiles.len(), 2 * u);
                assert_eq!(tiles[u..].iter().sum::<usize>(), seen.len());
            }
        }
    }
}
