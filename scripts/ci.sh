#!/usr/bin/env bash
# CI gate for the FPDT reproduction: build, test, lint, and a JSON smoke
# check on the benchmark artifact pipeline. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fpdt-lint (project invariants: determinism, env hygiene, fault tolerance)"
# The static pass fails on any finding not absorbed by lint-baseline.json
# and on any stale baseline entry; it prints one LINT_OK line when clean.
# `|| true` so the findings echo before the grep gate fails the script.
out=$(cargo run -q --release --bin fpdt-lint || true)
echo "$out"
if ! grep -q '^LINT_OK ' <<<"$out"; then
    echo "FAIL: fpdt-lint found new violations or stale baseline entries" >&2
    exit 1
fi

echo "==> figure11 --json smoke (BENCH_ artifacts must parse)"
out=$(cargo run -q --release -p fpdt-bench --bin figure11 -- --json)
echo "$out"
# emit_bench_artifacts re-parses every artifact it writes and prints one
# BENCH_JSON_OK line per file; both the metrics doc and the Chrome trace
# must make it through.
if [ "$(grep -c '^BENCH_JSON_OK ' <<<"$out")" -lt 2 ]; then
    echo "FAIL: figure11 --json did not validate its BENCH_ artifacts" >&2
    exit 1
fi

echo "==> kernels --json --quick smoke (BENCH_kernels.json must parse)"
out=$(cargo run -q --release -p fpdt-bench --bin kernels -- --json --quick)
echo "$out"
# The kernel bench asserts bitwise-identical outputs across every
# backend/thread configuration before printing its BENCH_JSON_OK line.
if ! grep -q '^BENCH_JSON_OK .*BENCH_kernels\.json$' <<<"$out"; then
    echo "FAIL: kernels --json did not validate BENCH_kernels.json" >&2
    exit 1
fi
# On AVX2 hosts the SIMD matmul must be at least 2x its scalar fallback.
if grep -q '"avx2": true' target/experiments/BENCH_kernels.json \
    && ! grep -q '^KERNELS_SIMD_OK ' <<<"$out"; then
    echo "FAIL: SIMD matmul under 2x its scalar fallback on an AVX2 host" >&2
    exit 1
fi

echo "==> kernels --features scalar-only smoke (portable fallback builds)"
out=$(cargo run -q --release -p fpdt-bench --features scalar-only --bin kernels -- --json --quick)
echo "$out"
# The scalar-only build drops the AVX2 instantiation entirely; the bench
# must still validate its artifact (no SIMD gate applies).
if ! grep -q '^BENCH_JSON_OK .*BENCH_kernels\.json$' <<<"$out"; then
    echo "FAIL: scalar-only kernels build did not validate BENCH_kernels.json" >&2
    exit 1
fi

echo "==> runtime --json --quick smoke (overlap + bf16 win must be measurable)"
out=$(cargo run -q --release -p fpdt-bench --bin runtime -- --json --quick)
echo "$out"
# The runtime bench asserts bitwise-identical losses with the copy stream
# on and off, validates BENCH_runtime.json, and exits nonzero when the
# prefetch-enabled run measures zero compute/copy overlap.
if ! grep -q '^BENCH_JSON_OK .*BENCH_runtime\.json$' <<<"$out"; then
    echo "FAIL: runtime --json did not validate BENCH_runtime.json" >&2
    exit 1
fi
if ! grep -q '^RUNTIME_OVERLAP_OK ' <<<"$out"; then
    echo "FAIL: prefetch-enabled run measured no compute/copy overlap" >&2
    exit 1
fi
# Same gate for the communication stream: the comm-enabled run must hide
# a strictly positive fraction of its wire time behind compute.
if ! grep -q '^RUNTIME_COMM_OVERLAP_OK ' <<<"$out"; then
    echo "FAIL: comm-stream-enabled run measured no compute/comm overlap" >&2
    exit 1
fi
# Both overlap signals must survive bf16 payloads...
if ! grep -q '^RUNTIME_BF16_OVERLAP_OK ' <<<"$out"; then
    echo "FAIL: bf16 run measured no compute/copy overlap" >&2
    exit 1
fi
if ! grep -q '^RUNTIME_BF16_COMM_OVERLAP_OK ' <<<"$out"; then
    echo "FAIL: bf16 run measured no compute/comm overlap" >&2
    exit 1
fi
# ...and the headline: prefetch + comm_async + bf16 payloads must beat
# the fully serial f32 configuration in tokens/s (ROADMAP item #1).
if ! grep -q '^RUNTIME_BF16_WIN_OK ' <<<"$out"; then
    echo "FAIL: bf16 dual-stream run did not beat f32 streams-off tokens/s" >&2
    exit 1
fi
# The balanced tile schedule must flatten the per-slot backward profile
# (strict skew drop) and hold tokens/s within the shared-host noise floor
# of the sequential schedule.
if ! grep -q '^RUNTIME_BALANCE_OK ' <<<"$out"; then
    echo "FAIL: balanced tile schedule regressed slot skew or tokens/s" >&2
    exit 1
fi

echo "==> resume --json --quick (checkpoint/restore and fault recovery must be bitwise)"
out=$(cargo run -q --release -p fpdt-bench --bin resume -- --json --quick)
echo "$out"
# The resume bench trains uninterrupted, replays the same run through a
# checkpoint -> Trainer::resume round trip, then again under injected
# transient collective faults with a replay budget. It asserts bitwise
# loss/grad/traffic equality on both legs before printing its gate line.
if ! grep -q '^RUNTIME_RESUME_OK ' <<<"$out"; then
    echo "FAIL: checkpoint/resume or fault recovery diverged from the uninterrupted run" >&2
    exit 1
fi

echo "==> stepbench helper tests"
cargo test -q --manifest-path stepbench/Cargo.toml

echo "==> stepbench --trace 1 smoke (bench driver must stay bitwise equal to the Trainer)"
# The traced pass replays every Trainer step through a driver built from
# public calls and checks the two bit for bit (losses, traffic), then
# checks that the per-layer ledger closes. A fresh --out keeps the run
# hermetic. `|| true` so the checks echo before the grep gate fails.
stepbench_out=target/experiments/stepbench-ci
for workload in ulysses_dense llama_bf16_ac; do
    rm -rf "$stepbench_out"
    out=$(cargo run -q --release --offline --manifest-path stepbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 5 --trace 1 --out "$stepbench_out" || true)
    echo "$out"
    if ! grep -q '^{"correct": true' <<<"$out"; then
        echo "FAIL: stepbench --trace 1 checks failed on $workload" >&2
        exit 1
    fi
done

echo "==> autotune --json --quick (calibrated planner must rank configs honestly)"
# The autotune bench fits the simulator's cost constants from a real
# probe run, searches the knob grid, then measures every candidate and
# grades the loop: predicted-vs-measured error <= 25% on EVERY config,
# and the tuned config at least as fast as the default (within the
# measurement noise floor). Wall-clock fidelity grading on a 1-core
# shared host is genuinely noisy — a sustained neighbor-load shift
# between the probe epoch and one config's measurement rounds can push
# a single config past the error gate — so the gate gets three fully
# independent attempts (fresh probes, anchors, and measurements each):
# a real model regression fails all three, a load burst does not repeat.
autotune_ok=""
for attempt in 1 2 3; do
    out=$(cargo run -q --release -p fpdt-bench --bin autotune -- --json --quick) || true
    echo "$out"
    if grep -q '^BENCH_JSON_OK .*BENCH_autotune\.json$' <<<"$out" \
        && grep -q '^RUNTIME_AUTOTUNE_OK ' <<<"$out"; then
        autotune_ok=1
        break
    fi
    echo "[autotune attempt $attempt failed its gates; retrying]"
done
if [ -z "$autotune_ok" ]; then
    echo "FAIL: autotune gates did not pass on 3 independent attempts" >&2
    exit 1
fi

echo "==> cargo test -q -p fpdt-core under the tuned configuration"
# The tuner writes its pick as sourceable FPDT_* exports; the core test
# suite must pass unchanged under exactly that configuration — tuning
# may move schedules, never results.
(
    # shellcheck disable=SC1091
    source target/experiments/autotune_env.sh
    cargo test -q -p fpdt-core
)

echo "==> cargo test -q --workspace under FPDT_THREADS=1"
# The whole suite must also pass with the kernel pool pinned to a single
# thread (the sequential fast path) — same numbers, same results.
FPDT_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q --workspace under FPDT_BF16=0 FPDT_PREFETCH=0"
# And with the async copy stream globally disabled: prefetch is a latency
# optimisation, never a semantic one. (bf16 pinned off so the leg tests
# exactly one knob.)
FPDT_BF16=0 FPDT_PREFETCH=0 cargo test -q --workspace

echo "==> cargo test -q --workspace under FPDT_BF16=0 FPDT_COMM_ASYNC=0"
# And with the async communication stream globally disabled: posting
# all-to-alls early is likewise a pure latency optimisation.
FPDT_BF16=0 FPDT_COMM_ASYNC=0 cargo test -q --workspace

echo "==> cargo test -q --workspace under FPDT_BF16=0 FPDT_BALANCE=0"
# And with the balanced tile schedule disabled: tile interleaving re-times
# work, never results, so the strictly sequential chunk loop must produce
# the same bits everywhere.
FPDT_BF16=0 FPDT_BALANCE=0 cargo test -q --workspace

echo "==> cargo test -q --workspace under FPDT_BF16=1"
# And with bf16 wire payloads on everywhere: the one numerics-affecting
# knob. Cross-mode loss comparisons pin it off internally; everything
# else must hold bit-for-bit schedules and bf16-tolerance numerics.
FPDT_BF16=1 cargo test -q --workspace

echo "==> cargo test -q -p fpdt-core under FPDT_FAULT_INJECT=2 FPDT_COMM_RETRIES=4"
# The tier-1 suite must pass with transient collective faults injected
# into every group and enough replay budget to absorb them: recovery is
# a scheduling event, never a numerics event. (Determinism suites that
# measure fault counters pin the knobs off internally.)
FPDT_FAULT_INJECT=2 FPDT_COMM_RETRIES=4 cargo test -q -p fpdt-core

echo "CI OK"
