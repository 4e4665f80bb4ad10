#!/usr/bin/env bash
# Tier-1 verification for the hermetic (zero external dependency) build.
#
# Runs entirely offline: the workspace must build, test, and compile its
# bench targets with `--offline`, and the dependency graph must contain
# nothing but the workspace's own path crates. The guard fails loudly if
# a registry or git dependency ever reappears in a manifest.
#
# Usage: scripts/ci.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dependency hermeticity =="
# Every dependency edge must resolve to a workspace path crate. `cargo
# metadata` lists one `source` per package: null for path deps, a
# registry/git URL otherwise. No jq in the image, so grep the raw JSON
# for non-null sources.
meta=$(cargo metadata --format-version 1 --offline --no-deps)
if printf '%s' "$meta" | grep -o '"source":"[^"]*"' | grep -q .; then
    echo "FAIL: non-path dependency in the workspace:" >&2
    printf '%s' "$meta" | grep -o '"source":"[^"]*"' | sort -u >&2
    exit 1
fi
# Belt and braces: inside any [*dependencies*] table, only
# `{ path = ... }` / `.workspace = true` forms are allowed — no bare
# version strings, no `version =`/`git =` keys.
bad=$(awk '
    /^\[/ { indeps = ($0 ~ /dependencies/) }
    indeps && (/^[a-zA-Z0-9_-]+(\.[a-zA-Z0-9_-]+)? *= *"/ \
        || /version *=/ || /git *=/) \
        { print FILENAME ":" FNR ": " $0 }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$bad" ]; then
    echo "FAIL: a Cargo.toml declares a registry/git dependency:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "ok: all dependencies are workspace path crates"

echo "== build (release, offline) =="
cargo build --release --workspace --offline

echo "== bench targets compile =="
cargo build --workspace --benches --offline

echo "== repository benchmark compiles =="
# tilebench is a workspace of its own that drives the library through its
# public API; building it here makes an API change that breaks the
# benchmark fail CI instead of the next benchmark run.
cargo build --release --offline --manifest-path tilebench/Cargo.toml

echo "== tests =="
cargo test -q --workspace --offline

echo "== verdict file is current =="
# `verdicts` re-evaluates the paper's claims from the committed figure
# CSVs. Its stdout must equal the committed results/verdicts.txt, so a
# verdict file that no longer follows from the CSVs and the verdict rules
# fails here. (Only a FAIL verdict makes the binary exit non-zero; NOT
# REPRODUCED is reported, not failed.)
if ! cargo run -q --offline -p mspgemm-bench --bin verdicts | diff -u results/verdicts.txt -; then
    echo "FAIL: results/verdicts.txt is stale; regenerate it from the verdicts bin" >&2
    exit 1
fi
echo "ok: results/verdicts.txt matches the committed CSVs"

echo "== fault-injection pass (pinned seed) =="
# Re-run the fault suite with failpoints armed from the environment: the
# driver must keep recovering (or surfacing structured errors) when the
# tile kernel fails with 5% probability under the pinned seed.
MSPGEMM_FAILPOINTS='tile-kernel=panic@p:0.05,seed:42' \
    cargo test -q -p mspgemm-core --offline fault_

echo "== concurrency smoke (adversarial stress, failpoints armed) =="
# The unarmed concurrency suite runs in the workspace test pass above;
# here the same suite runs with tile panics injected — a failing tile in
# one tenant's run must be recovered (or surfaced) without corrupting or
# poisoning any sibling's reply.
MSPGEMM_FAILPOINTS='tile-kernel=panic@p:0.05,seed:42' \
    cargo test -q --offline --test concurrency
# And the CLI stress harness end-to-end: 64 tenants x 50 seeded
# submit/cancel/drop/deadline runs over three mask shapes, every reply
# checked bit-identical to its serial reference, non-zero exit on any
# mismatch or leaked queue slot. --deadline 200 makes a fifth of the
# submissions carry tight enforced deadlines, so queued sheds and
# in-flight abandonment run concurrently with the injected panics.
MSPGEMM_FAILPOINTS='tile-kernel=panic@p:0.02,seed:42' \
    target/release/mspgemm stress --graph GAP-road --scale 0.05 \
    --tenants 64 --runs 50 --deadline 200 > /dev/null
echo "ok: concurrent replies stay bit-identical under injected tile panics"

echo "== malformed CLI flags (usage error, no panic) =="
# A numeric flag that does not parse is a usage error: the CLI prints
# `bad --<name>` plus the usage and exits 2. It must never panic.
for bad in "--threads abc" "--scale zz" "--kappa x"; do
    set +e
    # shellcheck disable=SC2086
    err=$(target/release/mspgemm tc --graph GAP-road $bad 2>&1 >/dev/null)
    status=$?
    set -e
    if [ "$status" -ne 2 ] || printf '%s' "$err" | grep -q panicked; then
        echo "FAIL: mspgemm tc $bad exited $status (want 2, no panic):" >&2
        printf '%s\n' "$err" >&2
        exit 1
    fi
done
echo "ok: malformed numeric flags exit 2 with usage"

echo "== metrics pass (armed run + self-validation) =="
# The CLI must produce a schema-valid mspgemm.run/1 report and a chrome
# trace with --metrics/--trace armed, and must validate its own output
# with the in-tree JSON parser (check-metrics exits non-zero otherwise).
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
target/release/mspgemm tc --graph GAP-road --scale 0.1 \
    --tiles 32 --threads 4 \
    --metrics "$obs_dir/run.json" --trace "$obs_dir/run.trace.json"
target/release/mspgemm check-metrics --file "$obs_dir/run.json"
# the trace is bare chrome://tracing JSON: non-empty, starts as an array
head -c1 "$obs_dir/run.trace.json" | grep -q '\[' || {
    echo "FAIL: trace file is not a JSON array" >&2; exit 1; }
echo "ok: armed run emits schema-valid metrics and a trace"

echo "== overbook smoke (spill detector fires, control stays silent) =="
# The planted-outlier adversary books at p90 and *must* take the spill
# path (the planted rows sit far above any bulk quantile); the uniform
# circulant control has identical row bounds, so any quantile equals the
# max and the same policy must never spill. Both runs emit metrics and
# both documents must validate — the overbook counters are part of the
# required mspgemm.run/1 counter set.
target/release/mspgemm tc --graph planted-outlier --scale 0.1 \
    --overbook p90 --metrics "$obs_dir/overbook.json" > /dev/null
target/release/mspgemm check-metrics --file "$obs_dir/overbook.json"
spills=$(grep -o '"accum.overbook_spills":[0-9]*' "$obs_dir/overbook.json" | cut -d: -f2)
if [ "${spills:-0}" -lt 1 ]; then
    echo "FAIL: planted outliers never spilled (accum.overbook_spills=${spills:-0})" >&2
    exit 1
fi
target/release/mspgemm tc --graph uniform-bulk --scale 0.1 \
    --overbook p90 --metrics "$obs_dir/uniform.json" > /dev/null
target/release/mspgemm check-metrics --file "$obs_dir/uniform.json"
ctrl=$(grep -o '"accum.overbook_spills":[0-9]*' "$obs_dir/uniform.json" | cut -d: -f2)
if [ "${ctrl:-0}" -ne 0 ]; then
    echo "FAIL: uniform control spilled (accum.overbook_spills=$ctrl, want 0)" >&2
    exit 1
fi
echo "ok: planted outliers spill ($spills), uniform control stays at 0"

echo "== watchdog smoke (injected stall, self-healing pool) =="
# One tile (key 1) is pinned to stall 250 ms against a 60 ms stall
# budget: the pool watchdog must detect the hang, abandon the tile to the
# degraded serial path, respawn the stalled worker, and the stress run
# must still exit zero — every reply bit-identical to its serial
# reference. The liveness counters land in a standalone mspgemm.metrics/1
# document, which must itself validate.
MSPGEMM_WATCHDOG_MS=60 \
MSPGEMM_FAILPOINTS='tile-kernel=stall@ms:250,key:1' \
    target/release/mspgemm stress --graph GAP-road --scale 0.04 \
    --tenants 2 --runs 1 --cancel 0 --drop 0 \
    --metrics "$obs_dir/stress.json" > /dev/null
target/release/mspgemm check-metrics --file "$obs_dir/stress.json"
stalls=$(grep -o '"watchdog.stalls_detected":[0-9]*' "$obs_dir/stress.json" | cut -d: -f2)
respawns=$(grep -o '"pool.workers_respawned":[0-9]*' "$obs_dir/stress.json" | cut -d: -f2)
if [ "${stalls:-0}" -lt 1 ] || [ "${respawns:-0}" -lt 1 ]; then
    echo "FAIL: watchdog smoke saw stalls=${stalls:-0} respawns=${respawns:-0} (need >=1 each)" >&2
    exit 1
fi
echo "ok: stall detected ($stalls), worker respawned ($respawns), replies bit-identical"

echo "== zero-cost metrics grep gate =="
# The observability design keeps atomics out of the hot loops: counters
# are bumped in plain instance-local scratch and flushed once per tile.
# Accumulator and kernel sources must therefore never touch an atomic or
# the global registry's fetch path directly.
hits=$(grep -n 'AtomicU64\|AtomicUsize\|fetch_add' \
    crates/accum/src/*.rs crates/core/src/kernels.rs || true)
if [ -n "$hits" ]; then
    echo "FAIL: atomic counter traffic in a hot-loop file:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "ok: accumulators and kernels are atomics-free"

echo "== kernel allocation grep gate =="
# The per-row kernels write through RowSink into preallocated slots; the
# steady state must not allocate. Non-test kernel code therefore must not
# construct growable Vecs (test modules, from #[cfg(test)] onward, are
# exempt — they build Vec-backed sinks on purpose). The SIMD search
# module sits inside the same per-row loops and is held to the same bar.
hits=$(for f in crates/core/src/kernels.rs crates/core/src/simd.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /Vec::new\(|Vec::with_capacity\(|vec!\[/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "FAIL: heap allocation in a per-row kernel loop:" >&2
    echo "$hits" >&2
    exit 1
fi
# The submission queue's pop path fills caller-owned buffers, and
# DisjointSlots borrows the plan-owned range layout — per-job dispatch
# must not regrow either (the ranges clone showed up as allocator
# traffic in the per-job cost of small batched products).
hits=$(for f in crates/sched/src/submit.rs crates/sched/src/slots.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /Vec::new\(|Vec::with_capacity\(|vec!\[/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "FAIL: heap allocation on the per-job submit/slot path:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "ok: kernel and submit/slot non-test code performs no heap allocation"

echo "== panic-hygiene grep gate =="
# Non-test code of the pool, the persistent worker layer, the driver and
# its tile-run engine, and the plan/executor layer must stay free of
# .unwrap()/.expect(/panic!
# — panic isolation is only as good as the code that implements it. Test
# modules (from `#[cfg(test)]` onward) and comment lines (doc examples
# unwrap on purpose) are exempt.
gate_fail=0
for f in crates/sched/src/pool.rs crates/sched/src/persistent.rs \
         crates/sched/src/submit.rs crates/sched/src/cancel.rs \
         crates/core/src/driver.rs crates/core/src/plan.rs \
         crates/core/src/executor.rs crates/core/src/service.rs \
         crates/core/src/stress.rs crates/core/src/graph.rs \
         crates/core/src/engine.rs crates/core/src/simd.rs \
         crates/core/src/dot.rs crates/core/src/driver2d.rs \
         crates/accum/src/hash.rs crates/accum/src/dense.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/ { exit }
                /^[[:space:]]*\/\// { next }
                /\.unwrap\(\)|\.expect\(|panic!/ { print FILENAME ":" FNR ": " $0 }' "$f")
    if [ -n "$hits" ]; then
        echo "FAIL: panic-prone call in non-test code of $f:" >&2
        echo "$hits" >&2
        gate_fail=1
    fi
done
[ "$gate_fail" -eq 0 ] || exit 1
echo "ok: pool/persistent/submit/cancel/driver/plan/executor/service/stress/graph/engine/simd/dot/driver2d/hash/dense non-test code is unwrap/panic free"

echo "== unsafe-justification grep gate =="
# The accumulators and the SIMD search hold the repository's vector
# paths: raw-pointer loads, gathers and target-feature calls. Every
# `unsafe` block or `unsafe fn` in their non-test code must state its
# contract: a `// SAFETY:` comment (blocks) or a `# Safety` doc section
# (functions) within the 3 lines above it. Test modules (from
# `#[cfg(test)]` onward) and comment lines are exempt.
hits=$(for f in crates/accum/src/*.rs crates/core/src/simd.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         !/^[[:space:]]*\/\// && /unsafe[[:space:]]*\{|unsafe fn/ {
             if (!(p1 ~ /\/\/ SAFETY:|# Safety/ || p2 ~ /\/\/ SAFETY:|# Safety/ \
                   || p3 ~ /\/\/ SAFETY:|# Safety/))
                 print FILENAME ":" FNR ": " $0
         }
         { p3 = p2; p2 = p1; p1 = $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "FAIL: unsafe code without a SAFETY comment or # Safety section above it:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "ok: every unsafe block and unsafe fn in accum and simd states its contract"

echo "== fusion smoke (fused vs unfused k-truss + counters) =="
# The ktruss subcommand runs the fused PlanGraph pipeline and the unfused
# Session loop back to back and exits non-zero if the trusses diverge.
# With --metrics armed it writes a standalone mspgemm.metrics/1 document;
# the fusion.* counters in it must be non-zero — a silently unfused
# "fused" path (ops_fused = 0) is a regression even when the results
# agree. (tiles_chained stays 0 here on purpose: each k-truss round is a
# single-node graph; node-to-node chaining is exercised by the BC sweep
# in the bench smoke below.)
target/release/mspgemm ktruss --graph GAP-road --scale 0.05 --k 3 \
    --metrics "$obs_dir/ktruss.json" > /dev/null
target/release/mspgemm check-metrics --file "$obs_dir/ktruss.json"
fused_ops=$(grep -o '"fusion.ops_fused":[0-9]*' "$obs_dir/ktruss.json" | cut -d: -f2)
sink_elems=$(grep -o '"fusion.sink_fused_elements":[0-9]*' "$obs_dir/ktruss.json" | cut -d: -f2)
if [ "${fused_ops:-0}" -lt 1 ] || [ "${sink_elems:-0}" -lt 1 ]; then
    echo "FAIL: fusion smoke saw ops_fused=${fused_ops:-0} sink_fused_elements=${sink_elems:-0} (need >=1 each)" >&2
    exit 1
fi
echo "ok: fused k-truss matches unfused (ops_fused=$fused_ops, sink_fused_elements=$sink_elems)"

echo "== fusion bench smoke (fused vs unfused ablation) =="
# The fusion ablation must run end-to-end at smoke scale and emit a
# schema-valid mspgemm.bench/1 document with all three workload rows.
MSPGEMM_SCALE=0.02 MSPGEMM_BUDGET_MS=20 MSPGEMM_THREADS=2 \
    cargo run --release --offline -q -p mspgemm-bench --bin fusion > /dev/null
target/release/mspgemm check-metrics --file results/BENCH_fusion.json
for w in ktruss bc-fwd single-op; do
    grep -q "^$w," results/fusion.csv || {
        echo "FAIL: fusion.csv is missing the $w rows" >&2; exit 1; }
done
echo "ok: fusion ablation emits schema-valid BENCH_fusion.json"

echo "== overbook bench smoke (quantile vs hard-bound ablation) =="
# The overbook ablation re-verifies bit-identity for every class × tile
# count before timing anything, so a passing smoke is also a correctness
# pass over the planted/R-MAT/co-iteration/uniform grid. The emitted
# document must be schema-valid and carry all four class rows.
MSPGEMM_SCALE=0.02 MSPGEMM_BUDGET_MS=20 MSPGEMM_THREADS=2 \
    cargo run --release --offline -q -p mspgemm-bench --bin overbook > /dev/null
target/release/mspgemm check-metrics --file results/BENCH_overbook.json
for c in planted-mask social-mask coiterate-rmat uniform-bulk; do
    grep -q "^$c," results/overbook.csv || {
        echo "FAIL: overbook.csv is missing the $c rows" >&2; exit 1; }
done
echo "ok: overbook ablation emits schema-valid BENCH_overbook.json"

echo "== executor reuse smoke (flat thread count) =="
# 50 plan.execute iterations through one Session must spawn the worker
# pool exactly once: the CLI session subcommand reads the
# sched.workers_spawned counter before and after the loop and exits
# non-zero if it moved (or if the session rebuilt its plan).
MSPGEMM_METRICS=1 target/release/mspgemm session \
    --graph GAP-road --scale 0.1 --iters 50 > /dev/null
echo "ok: 50 reused executions, zero extra worker spawns"

echo "== doc build (warnings are errors) =="
# The Session/Plan/Executor surface is documented API: intra-doc links
# and doc examples must stay valid.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "CI OK"
