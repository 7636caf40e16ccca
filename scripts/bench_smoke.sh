#!/usr/bin/env bash
# Bench smoke: Release build + the benches that gate engine/scheduler/
# submission performance work. Writes BENCH_queue_depth.json (indexed vs
# linear queue-depth sweep), BENCH_sched.json (sharded vs linear scheduler
# sweep), BENCH_submit_batch.json (vectored vs per-skb submission sweep),
# BENCH_dma_channels.json (async multi-channel DMA sweep vs the blocking
# single-channel baseline, remap tier pinned off, gated in-binary at >=1.5x
# 1 -> 4 channel scaling: a miss exits non-zero), BENCH_engines.json
# (engine-pool sweep, 1 -> 8 copier engines, remap tier pinned off, gated
# in-binary at >=7x virtual scaling and identical images), BENCH_remap.json (zero-copy
# remap tier vs copy ablation), BENCH_ipc_fuse.json (fused single-hop IPC
# vs the two-step ablation, gated at >=1.4x on the 1 MiB and 4 MiB socket rows, >=1.5x on >=64 KiB binder parcels,
# >=90% fused rate on the pipelined qd4 rows, and >=1.8x on the
# proxy-forwarded pipeline-e2e rows — which must all be present),
# BENCH_cow.json (CoW fault split handling), BENCH_serve.json (open-loop
# serving sweep: p50/p99/p999 vs offered load, overload admission policies)
# and, in full mode, BENCH_fig9.json (copy throughput with the ATCache
# ablation, remap tier pinned off) at the repo root; fails if any sweep
# reports non-identical memory images, a gated remap/fuse row misses its
# moved-bytes drop or speedup floor, the DMA channel sweep misses its scaling
# floor, the serving sweep's p999 knee fails to move right under load
# shedding, or the figure-9 ATCache gain is negative on any row or not
# positive at 64 KiB and 256 KiB with 75% repetition (gated in-binary: a miss
# exits non-zero).
#
# Every bench runs and every gate is checked even after one fails; the
# script then lists the failed gates and exits 1 if there are any.
#
# Six of the files are deterministic virtual-time output and regenerate
# byte-identical (BENCH_submit_batch.json in quick mode): BENCH_queue_depth,
# BENCH_submit_batch, BENCH_dma_channels, BENCH_remap, BENCH_ipc_fuse and
# BENCH_cow. CI fails when `git diff --exit-code` finds any of them changed
# after a quick run, so a change that moves a virtual-time row must commit
# the regenerated file. BENCH_sched, BENCH_serve and BENCH_engines carry
# host-clock rows that vary run to run.
#
# Usage: scripts/bench_smoke.sh [quick]
#   quick — CI mode: the vectored-submission sweep runs its two-size subset
#           and the throughput figure is skipped.
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build-release}
QUICK=${1:-}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release || exit 1
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_queue_depth bench_sched bench_submit_batch bench_dma_channels bench_engines bench_remap bench_ipc_fuse bench_cow bench_serve bench_fig9_copy_throughput || exit 1

FAILED=()

# run NAME CMD... — runs one bench, teeing its output to /tmp/NAME.out; a
# non-zero exit (an in-binary gate) is a failed gate.
run() {
  local name=$1
  shift
  echo
  if ! "$@" | tee "/tmp/$name.out"; then
    FAILED+=("$name: exited non-zero")
  fi
}

# gate_no_rows NAME WHAT — a ' NO ' in the bench's output is a failed gate.
gate_no_rows() {
  if grep -q ' NO ' "/tmp/$1.out"; then
    FAILED+=("$1: $2")
  fi
}

run bench_queue_depth "$BUILD_DIR"/bench/bench_queue_depth --json
gate_no_rows bench_queue_depth "indexed and linear images differ"

run bench_sched "$BUILD_DIR"/bench/bench_sched --json
gate_no_rows bench_sched "sharded and linear images differ"

if [[ "$QUICK" == "quick" ]]; then
  run bench_submit_batch "$BUILD_DIR"/bench/bench_submit_batch --json --quick
else
  run bench_submit_batch "$BUILD_DIR"/bench/bench_submit_batch --json
fi
gate_no_rows bench_submit_batch "vectored and per-op images differ"

run bench_dma_channels "$BUILD_DIR"/bench/bench_dma_channels --json
gate_no_rows bench_dma_channels "async image differs from the blocking baseline"

run bench_engines "$BUILD_DIR"/bench/bench_engines --json
gate_no_rows bench_engines "pooled image differs from the 1-engine run"

run bench_remap "$BUILD_DIR"/bench/bench_remap --json
gate_no_rows bench_remap "remap image differs from the copy ablation or a gated row missed its drop"

run bench_ipc_fuse "$BUILD_DIR"/bench/bench_ipc_fuse --json
gate_no_rows bench_ipc_fuse "fused image differs from the two-step ablation or a gated row missed its speedup floor"
# The qd4 fused-rate and pipeline-speedup gates live inside the bench (a miss
# prints NO above); also fail loudly if the gated rows vanish from the JSON —
# a silently dropped scenario would otherwise pass the grep.
for scenario in socket-qd4 pipeline-e2e; do
  if ! grep -q "\"scenario\": \"$scenario\"" BENCH_ipc_fuse.json; then
    FAILED+=("bench_ipc_fuse: gated scenario '$scenario' missing from BENCH_ipc_fuse.json")
  fi
done

run bench_cow "$BUILD_DIR"/bench/bench_cow --json

if [[ "$QUICK" == "quick" ]]; then
  run bench_serve "$BUILD_DIR"/bench/bench_serve --json --quick
else
  run bench_serve "$BUILD_DIR"/bench/bench_serve --json
fi
gate_no_rows bench_serve "a reply diverged from the model or the shed-policy p999 knee did not move right"

if [[ "$QUICK" != "quick" ]]; then
  run bench_fig9 "$BUILD_DIR"/bench/bench_fig9_copy_throughput --json
fi

echo
if (( ${#FAILED[@]} > 0 )); then
  echo "bench smoke FAILED ${#FAILED[@]} gate(s):" >&2
  for gate in "${FAILED[@]}"; do
    echo "  $gate" >&2
  done
  exit 1
fi
echo "bench smoke OK; results in BENCH_queue_depth.json + BENCH_sched.json + BENCH_submit_batch.json + BENCH_dma_channels.json + BENCH_engines.json + BENCH_remap.json + BENCH_ipc_fuse.json + BENCH_cow.json + BENCH_serve.json (+ BENCH_fig9.json in full mode)"
