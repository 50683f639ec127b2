//! The per-layer step ledger: folds the driver's timed calls and the
//! program's own spans and counters into per-step, per-rank metrics, and
//! checks that the top-level rows add back up to the step's wall time.

use crate::driver::{RankOut, StepRow};
use crate::report::Reported;
use crate::stats::mean;
use fpdt_trace::metrics::{intersect, measure, slot_balance, union};
use fpdt_trace::SpanRecord;

/// Largest share of the step wall the unattributed remainder may take.
pub const MAX_UNATTRIBUTED_FRAC: f64 = 0.05;
/// Slack for comparing sums of separately rounded timings, ms.
const EPS_MS: f64 = 1e-3;

/// Offload copy-engine spans (either direction, inline or on the stream).
const COPY: &[&str] = &["offload.put", "offload.fetch", "offload.prefetch"];

/// Mean top-level rows of a set of rank-steps, with the remainder that
/// no row covers. The rows are disjoint calls on the rank thread, so
/// `sum(rows) + unattributed == wall` holds exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Mean rank-step wall time, ms.
    pub wall: f64,
    /// `(metric name, mean ms)` for each top-level row.
    pub rows: Vec<(&'static str, f64)>,
    /// `wall - sum(rows)`, ms.
    pub unattributed: f64,
    /// Mean time inside the executor (nested in `gpt.fwd_bwd_ms`), ms.
    pub exec: f64,
}

impl Ledger {
    /// Folds rank-step rows into their means.
    pub fn from_rows(rows: &[StepRow]) -> Ledger {
        let m = |f: fn(&StepRow) -> f64| mean(&rows.iter().map(f).collect::<Vec<_>>());
        let top = vec![
            ("data.sample_ms", m(|r| r.data)),
            ("gpt.fwd_bwd_ms", m(|r| r.fwd_bwd)),
            ("gpt.grads_ms", m(|r| r.grads)),
            ("comm.allreduce_ms", m(|r| r.allreduce)),
            ("optim.step_ms", m(|r| r.optim)),
            ("comm.allgather_ms", m(|r| r.allgather)),
        ];
        let wall = m(|r| r.wall);
        let attributed: f64 = top.iter().map(|(_, v)| v).sum();
        Ledger {
            wall,
            unattributed: wall - attributed,
            rows: top,
            exec: m(|r| r.exec_fwd + r.exec_bwd),
        }
    }

    /// Sum of the top-level rows plus the remainder, ms.
    pub fn total(&self) -> f64 {
        self.rows.iter().map(|(_, v)| v).sum::<f64>() + self.unattributed
    }

    /// Checks that the ledger closes: rows plus remainder equal the wall,
    /// the remainder is non-negative and at most
    /// [`MAX_UNATTRIBUTED_FRAC`] of the wall, and the nested executor
    /// time fits inside the forward/backward row.
    ///
    /// # Errors
    ///
    /// A description of the first condition that fails.
    pub fn check(&self) -> Result<(), String> {
        if (self.total() - self.wall).abs() > EPS_MS {
            return Err(format!(
                "rows sum to {} ms, wall is {} ms",
                self.total(),
                self.wall
            ));
        }
        if self.unattributed < -EPS_MS {
            return Err(format!("rows exceed the wall by {} ms", -self.unattributed));
        }
        if self.unattributed > MAX_UNATTRIBUTED_FRAC * self.wall {
            return Err(format!(
                "unattributed {} ms is over {}% of the {} ms wall",
                self.unattributed,
                MAX_UNATTRIBUTED_FRAC * 100.0,
                self.wall
            ));
        }
        let fwd_bwd = self.row("gpt.fwd_bwd_ms");
        if self.exec > fwd_bwd + EPS_MS {
            return Err(format!(
                "executor time {} ms exceeds forward/backward {fwd_bwd} ms",
                self.exec
            ));
        }
        Ok(())
    }

    /// A top-level row's value (0 when absent).
    pub fn row(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Spans whose label starts with any of `prefixes`.
fn matching<'a>(
    records: &'a [SpanRecord],
    prefixes: &'a [&str],
) -> impl Iterator<Item = &'a SpanRecord> {
    records
        .iter()
        .filter(move |s| prefixes.iter().any(|p| s.label.starts_with(p)))
}

fn total_us(records: &[SpanRecord], prefixes: &[&str]) -> f64 {
    matching(records, prefixes).map(|s| s.dur_us).sum()
}

fn count(records: &[SpanRecord], prefixes: &[&str]) -> usize {
    matching(records, prefixes).count()
}

fn intervals<'a>(spans: impl Iterator<Item = &'a SpanRecord>) -> Vec<(f64, f64)> {
    union(spans.map(|s| (s.start_us, s.start_us + s.dur_us)).collect())
}

/// Self time of `outer` spans on one thread: the time they cover minus
/// the part covered by `inner` spans on the same thread, µs.
pub fn self_time_us(records: &[SpanRecord], tid: u64, outer: &[&str], inner: &[&str]) -> f64 {
    let out = intervals(matching(records, outer).filter(|s| s.tid == tid));
    let inn = intervals(matching(records, inner).filter(|s| s.tid == tid));
    measure(&out) - measure(&intersect(&out, &inn))
}

/// Coefficient of variation of per-slot backward time on one thread:
/// `slot.bwd` spans in recording order, `u` per backward call, folded by
/// slot position.
pub fn slot_skew(records: &[SpanRecord], tid: u64, u: usize) -> f64 {
    let u = u.max(1);
    let mut per_slot = vec![0.0f64; u];
    for (i, s) in records
        .iter()
        .filter(|s| s.tid == tid && s.label == "slot.bwd")
        .enumerate()
    {
        per_slot[i % u] += s.dur_us;
    }
    slot_balance(&per_slot).skew
}

/// Share of a stream's busy time the rank threads did not wait for:
/// `1 - exposed / busy`, clamped to `[0, 1]` (0 when the stream was idle).
/// Per-rank by construction, unlike a cross-thread interval overlap,
/// which would count one rank's inline copy as hidden behind another
/// rank's compute.
pub fn hidden_frac(exposed_us: f64, busy_us: f64) -> f64 {
    if busy_us > 0.0 {
        (1.0 - exposed_us / busy_us).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Everything the traced run measured, ready to fold into metrics.
pub struct TraceInputs<'a> {
    /// Median `Trainer::run_steps(1)` wall, ms.
    pub trainer_step_ms: f64,
    /// Median rank-step wall of the untraced driver pass, ms.
    pub untraced_step_ms: f64,
    /// Median rank-step wall of the traced driver pass, ms. The three
    /// passes run one after another, so they are compared by medians,
    /// which a burst of load on the host moves less than means.
    pub traced_step_ms: f64,
    /// Per-rank results of the traced driver pass.
    pub traced: &'a [RankOut],
    /// The traced pass's spans, restricted to its timed steps.
    pub records: &'a [SpanRecord],
    /// Timed steps per rank.
    pub steps: usize,
    /// Sequence chunks per rank.
    pub chunks: usize,
    /// Analytic attention FLOPs one rank computes per step.
    pub attention_flops: f64,
    /// Checkpoint shard bytes, and median save/resume time in ms.
    pub ckpt: (u64, f64, f64),
}

/// Folds the traced run into the per-layer metrics (per optimizer step,
/// mean over ranks) and the ledger they close against.
pub fn per_layer(inp: &TraceInputs<'_>) -> (Vec<Reported>, Ledger) {
    let rows: Vec<StepRow> = inp
        .traced
        .iter()
        .flat_map(|r| r.rows.iter().copied())
        .collect();
    let ledger = Ledger::from_rows(&rows);
    let ranks = inp.traced.len().max(1) as f64;
    let rank_steps = ranks * inp.steps.max(1) as f64;
    let per_step_ms = |us: f64| us / 1e3 / rank_steps;
    let per_rank_step =
        |f: &dyn Fn(&RankOut) -> f64| inp.traced.iter().map(f).sum::<f64>() / rank_steps;
    let recs = inp.records;

    // Rank threads are the ones that recorded the driver's step spans.
    let mut rank_tids: Vec<u64> = recs
        .iter()
        .filter(|s| s.label == "bench.step")
        .map(|s| s.tid)
        .collect();
    rank_tids.sort_unstable();
    rank_tids.dedup();
    let on_ranks = |prefixes: &[&str]| -> f64 {
        matching(recs, prefixes)
            .filter(|s| rank_tids.contains(&s.tid))
            .map(|s| s.dur_us)
            .sum()
    };

    let m_fwd = mean(&rows.iter().map(|r| r.exec_fwd).collect::<Vec<_>>());
    let m_bwd = mean(&rows.iter().map(|r| r.exec_bwd).collect::<Vec<_>>());
    let kernel_us: f64 = rank_tids
        .iter()
        .map(|&t| self_time_us(recs, t, &["attn."], &["offload.", "comm."]))
        .sum();
    let skew = mean(
        &rank_tids
            .iter()
            .map(|&t| slot_skew(recs, t, inp.chunks))
            .collect::<Vec<_>>(),
    );
    let wire_us = total_us(recs, &["comm.inflight"]);
    let exposed_us = total_us(recs, &["comm.wait"]);
    let copy_busy_us = total_us(recs, COPY);
    let copy_exposed_us = on_ranks(COPY) + total_us(recs, &["offload.wait"]);
    let fetches = count(recs, &["offload.fetch"]);
    let prefetches = count(recs, &["offload.prefetch"]);
    let (ckpt_bytes, save_ms, resume_ms) = inp.ckpt;
    let mib = ckpt_bytes as f64 / (1024.0 * 1024.0);

    let mut out: Vec<(&'static str, &'static str, f64)> = vec![
        ("trainer.step_ms", "ms", inp.trainer_step_ms),
        ("driver.step_ms", "ms", inp.untraced_step_ms),
        (
            "trainer.segment_ms",
            "ms",
            inp.trainer_step_ms - inp.untraced_step_ms,
        ),
        ("trainer.unattributed_ms", "ms", ledger.unattributed),
    ];
    out.extend(ledger.rows.iter().map(|&(n, v)| (n, "ms", v)));
    out.extend([
        (
            "gpt.nonattn_ms",
            "ms",
            ledger.row("gpt.fwd_bwd_ms") - ledger.exec,
        ),
        ("exec.fwd_ms", "ms", m_fwd),
        ("exec.bwd_ms", "ms", m_bwd),
        ("exec.slot_skew_bwd", "ratio", skew),
        (
            "exec.tiles_per_step",
            "count",
            (count(recs, &["kernel.attn.update"]) + count(recs, &["attn.bwd.tile"])) as f64
                / rank_steps,
        ),
        ("attention.kernel_ms", "ms", per_step_ms(kernel_us)),
        ("attention.flops_per_step", "count", inp.attention_flops),
        (
            "comm.a2a_calls_per_step",
            "count",
            per_rank_step(&|r| r.a2a_posted as f64),
        ),
        (
            "comm.a2a_bytes_per_step",
            "bytes",
            per_rank_step(&|r| r.a2a_bytes as f64),
        ),
        ("comm.a2a_wire_ms", "ms", per_step_ms(wire_us)),
        ("comm.a2a_exposed_ms", "ms", per_step_ms(exposed_us)),
        (
            "comm.a2a_overlap_frac",
            "ratio",
            hidden_frac(exposed_us, wire_us),
        ),
        (
            "comm.allreduce_bytes_per_step",
            "bytes",
            per_rank_step(&|r| r.allreduce_bytes as f64),
        ),
        (
            "comm.recv_wait_ms",
            "ms",
            per_rank_step(&|r| r.recv_wait_ms),
        ),
        (
            "comm.retries_per_step",
            "count",
            per_rank_step(&|r| r.retries as f64),
        ),
        (
            "offload.h2d_bytes_per_step",
            "bytes",
            per_rank_step(&|r| r.pool.bytes_fetched as f64),
        ),
        (
            "offload.d2h_bytes_per_step",
            "bytes",
            per_rank_step(&|r| r.pool.bytes_offloaded as f64),
        ),
        (
            "offload.puts_per_step",
            "count",
            per_rank_step(&|r| r.pool.offloads as f64),
        ),
        (
            "offload.fetches_per_step",
            "count",
            per_rank_step(&|r| r.pool.fetches as f64),
        ),
        ("offload.exposed_ms", "ms", per_step_ms(copy_exposed_us)),
        ("offload.copy_busy_ms", "ms", per_step_ms(copy_busy_us)),
        (
            "offload.copy_overlap_frac",
            "ratio",
            hidden_frac(copy_exposed_us, copy_busy_us),
        ),
        (
            "offload.prefetch_hit_ratio",
            "ratio",
            if fetches + prefetches > 0 {
                prefetches as f64 / (fetches + prefetches) as f64
            } else {
                0.0
            },
        ),
        (
            "offload.pool_peak_kib",
            "KiB",
            inp.traced
                .iter()
                .map(|r| r.pool.peak_bytes)
                .max()
                .unwrap_or(0) as f64
                / 1024.0,
        ),
        (
            "optim.state_bytes",
            "bytes",
            inp.traced
                .iter()
                .map(|r| r.opt_state_bytes as f64)
                .sum::<f64>()
                / ranks,
        ),
        ("ckpt.bytes", "bytes", ckpt_bytes as f64),
        (
            "ckpt.save_mib_per_s",
            "MiB/s",
            if save_ms > 0.0 {
                mib / (save_ms / 1e3)
            } else {
                0.0
            },
        ),
        (
            "ckpt.resume_mib_per_s",
            "MiB/s",
            if resume_ms > 0.0 {
                mib / (resume_ms / 1e3)
            } else {
                0.0
            },
        ),
        (
            "trace.overhead_frac",
            "ratio",
            inp.traced_step_ms / inp.untraced_step_ms - 1.0,
        ),
    ]);
    let reported = out
        .into_iter()
        .map(|(name, unit, value)| Reported {
            name,
            unit,
            // An empty f64 sum is -0.0; report it as 0.
            value: value + 0.0,
            summary: None,
        })
        .collect();
    (reported, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(wall: f64, parts: [f64; 6], exec: (f64, f64)) -> StepRow {
        StepRow {
            wall,
            data: parts[0],
            fwd_bwd: parts[1],
            grads: parts[2],
            allreduce: parts[3],
            optim: parts[4],
            allgather: parts[5],
            exec_fwd: exec.0,
            exec_bwd: exec.1,
        }
    }

    #[test]
    fn ledger_closes_on_means() {
        let rows = [
            row(100.0, [1.0, 80.0, 2.0, 10.0, 5.0, 0.0], (30.0, 40.0)),
            row(120.0, [1.0, 96.0, 2.0, 12.0, 5.0, 2.0], (35.0, 45.0)),
        ];
        let l = Ledger::from_rows(&rows);
        assert!((l.wall - 110.0).abs() < 1e-12);
        assert!((l.row("gpt.fwd_bwd_ms") - 88.0).abs() < 1e-12);
        assert!((l.unattributed - (110.0 - 108.0)).abs() < 1e-12);
        assert!((l.total() - l.wall).abs() < 1e-12);
        assert!((l.exec - 75.0).abs() < 1e-12);
        assert_eq!(l.check(), Ok(()));
    }

    #[test]
    fn ledger_rejects_overrun_large_remainder_and_nesting_breaks() {
        let over = Ledger::from_rows(&[row(10.0, [1.0, 9.0, 1.0, 0.0, 0.0, 0.0], (1.0, 1.0))]);
        assert!(over.check().unwrap_err().contains("exceed"));
        let gap = Ledger::from_rows(&[row(10.0, [1.0, 5.0, 1.0, 0.0, 0.0, 0.0], (1.0, 1.0))]);
        assert!(gap.check().unwrap_err().contains("unattributed"));
        let nest = Ledger::from_rows(&[row(10.0, [1.0, 8.0, 1.0, 0.0, 0.0, 0.0], (5.0, 4.0))]);
        assert!(nest.check().unwrap_err().contains("executor"));
    }

    fn span(label: &str, tid: u64, start: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            label: label.into(),
            tid,
            start_us: start,
            dur_us: dur,
            bytes: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans_on_the_same_thread_only() {
        let recs = [
            span("attn.fwd.chunk", 0, 0.0, 100.0),
            span("offload.prefetch", 0, 10.0, 20.0),
            span("comm.wait", 0, 90.0, 30.0), // half outside the attn span
            span("offload.put", 1, 40.0, 50.0), // another thread
        ];
        assert!((self_time_us(&recs, 0, &["attn."], &["offload.", "comm."]) - 70.0).abs() < 1e-9);
        assert_eq!(self_time_us(&recs, 1, &["attn."], &["offload."]), 0.0);
    }

    #[test]
    fn hidden_share_is_clamped_and_zero_when_idle() {
        assert_eq!(hidden_frac(0.0, 0.0), 0.0);
        assert!((hidden_frac(25.0, 100.0) - 0.75).abs() < 1e-12);
        assert_eq!(hidden_frac(100.0, 100.0), 0.0, "inline copies hide nothing");
        assert_eq!(
            hidden_frac(150.0, 100.0),
            0.0,
            "waiting on a peer is not negative"
        );
    }

    #[test]
    fn slot_skew_folds_by_position_per_thread() {
        // Two backward calls of 2 slots on thread 0: slots sum to 4 and 4.
        let even = [
            span("slot.bwd", 0, 0.0, 1.0),
            span("slot.bwd", 0, 1.0, 3.0),
            span("slot.bwd", 0, 4.0, 3.0),
            span("slot.bwd", 0, 7.0, 1.0),
            span("slot.bwd", 1, 0.0, 50.0),
        ];
        assert!(slot_skew(&even, 0, 2).abs() < 1e-12);
        let ramp = [span("slot.bwd", 0, 0.0, 1.0), span("slot.bwd", 0, 1.0, 3.0)];
        assert!((slot_skew(&ramp, 0, 2) - 0.5).abs() < 1e-12);
        assert_eq!(slot_skew(&ramp, 0, 1), 0.0);
    }
}
