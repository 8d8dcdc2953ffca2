#!/usr/bin/env bash
# CI gate for the bns workspace. Mirrors the tier-1 verify plus hygiene:
#   build (release) → tests → fmt → clippy → lint → model check → BENCH
#   runner and example smokes.
# Runs fully offline; all dependencies are path crates (see vendor/), and
# --locked refuses any drift from the committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --offline --locked
# --no-fail-fast: one failing suite must not hide the results of the rest.
run cargo test -q --workspace --offline --locked --no-fail-fast
# The allocation audits count per thread, so tests running side by side
# must not see each other's allocations. Force a parallel libtest runner
# so that a 1-core host (where libtest defaults to one thread) still runs
# them concurrently.
run cargo test -q -p bns --test sampler_alloc --offline --locked -- --test-threads=2
run cargo test -q -p bns-serve --test query_alloc --offline --locked -- --test-threads=2
# One-core path: under `taskset -c 0` available_parallelism() is 1, so the
# serve engine's core clamp takes every batch to one worker. Rerun the
# engine tests, the frozen-vs-live serve suite and the clamp pin there. The
# p99 tail test stays out: it fails under outside CPU load (ROADMAP 6(d)).
if command -v taskset >/dev/null; then
    run taskset -c 0 cargo test -q -p bns-serve --lib --offline --locked engine
    run taskset -c 0 cargo test -q -p bns --test serve_equivalence --offline --locked
    run taskset -c 0 cargo test -q -p bns-serve --test tail_latency --offline --locked \
        worker_count_never_exceeds_the_core_count
fi
run cargo test -q --doc --workspace --offline --locked
run cargo fmt --all --check
run cargo clippy --workspace --all-targets --offline --locked -- -D warnings
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace --offline --locked
# Invariant linter: concurrency and hygiene rules over the whole workspace
# (raw-atomic imports, unjustified Relaxed, SeqCst ban, SAFETY comments,
# wall-clock bans, missing_docs). vendor/ and target/ are skipped by the
# walker itself. Nonzero exit on any violation fails CI here.
run cargo run --release --offline --locked -p bns-lint
# Model-check scenario suite: bns-sync's deterministic scheduler explores
# thread interleavings of the lock-free protocols. The cfg comes in via
# RUSTFLAGS, which REPLACES .cargo/config.toml's rustflags — so restate
# target-cpu=native to keep the build cache warm and codegen consistent.
RUSTFLAGS="-C target-cpu=native --cfg bns_model_check" \
    run cargo test -q -p bns-check --offline --locked
# AVX2 kernel bodies on an AVX-512 host: there the builds above compile
# the AVX-512 bodies of the scan kernels (`kernel::tile_scan` over
# sixteen users, `kernel::coded_tile_counts` over sixteen coded rows and
# up to sixteen users, `kernel::q4_block_open` over sixteen 4-bit rows),
# so build for x86-64-v3 (AVX2 + FMA) in a separate target dir to compile
# and test the AVX2 bodies and their eight-lane layouts too. With the
# portable steps below, all three bodies are tested on one host.
if rustc --print cfg -C target-cpu=native | grep -q 'target_feature="avx512f"'; then
    RUSTFLAGS="-C target-cpu=x86-64-v3" \
        run cargo test -q -p bns-model -p bns-core -p bns-eval --lib --offline --locked --target-dir target/avx2
    RUSTFLAGS="-C target-cpu=x86-64-v3" \
        run cargo test -q -p bns --test batch_equivalence --test reproducibility --test synthetic_equivalence --offline --locked --target-dir target/avx2
    # BNS training through the 8-lane coded pass and its look-ahead windows
    # allocates nothing in steady state (two test threads, as above).
    RUSTFLAGS="-C target-cpu=x86-64-v3" \
        run cargo test -q -p bns --test coded_pass_alloc --offline --locked --target-dir target/avx2 -- --test-threads=2
    # Both serving modes through the 8-row AVX2 body of the 4-bit stage:
    # exact and IVF answers against plain references, IVF's recall gate
    # and the query allocation audit (two test threads, as above).
    RUSTFLAGS="-C target-cpu=x86-64-v3" \
        run cargo test -q -p bns-serve --test exact_prefilter --test ivf_recall --test query_alloc --offline --locked --target-dir target/avx2 -- --test-threads=2
    RUSTFLAGS="-C target-cpu=x86-64-v3" \
        run cargo clippy -p bns-model -p bns-core -p bns-eval --lib --offline --locked --target-dir target/avx2 -- -D warnings
fi
# Portable kernel: every build above targets this host, so on an AVX2 + FMA
# machine `kernel::dot` and `kernel::tile_scan` compile only their vector
# bodies. Build for baseline x86-64 (no AVX2, no FMA) in a separate target
# dir so the scalar bodies, the top-k selection they feed, the provided
# `Scorer` methods every model scores through, the ranking protocol's tile
# scan, BNS's coded Eq. 16 pass (on the portable body of the coded count
# kernel) and serving's two-stage scan, exact and IVF (on the portable
# bodies of its integer kernels) are compiled and tested too. The two
# equivalence suites pin the
# live models, the frozen artifact and the batched trainer to each other
# bit for bit on that body; `reproducibility` ranks one model with 1 and 8
# evaluation threads on the scalar tile body. `synthetic_equivalence` pins
# the generated datasets and planted factor tables to golden digests here
# and in the x86-64-v3 step, so a dataset that moves with the ISA fails.
RUSTFLAGS="-C target-cpu=x86-64" \
    run cargo test -q -p bns-model -p bns-core -p bns-eval -p bns-serve --lib --offline --locked --target-dir target/portable
RUSTFLAGS="-C target-cpu=x86-64" \
    run cargo test -q -p bns --test serve_equivalence --test batch_equivalence --test reproducibility --test synthetic_equivalence --offline --locked --target-dir target/portable
# The allocation audit of BNS training through the portable coded pass,
# batched and through look-ahead windows (two test threads, as above).
RUSTFLAGS="-C target-cpu=x86-64" \
    run cargo test -q -p bns --test coded_pass_alloc --offline --locked --target-dir target/portable -- --test-threads=2
# Both serving modes scan through the portable bodies of the integer
# kernels here: exact and IVF serving against plain dot + top-k references on
# adversarial tables, IVF's recall gate, every selection path over NaN and
# infinite rows, and the query allocation audit (two test threads, as
# above).
RUSTFLAGS="-C target-cpu=x86-64" \
    run cargo test -q -p bns-serve --test exact_prefilter --test ivf_recall --test non_finite --test query_alloc --offline --locked --target-dir target/portable -- --test-threads=2
# Lint the same portable build: code that is dead under one cfg (a helper
# only the scalar bodies call) shows up on one target only, and the clippy
# step above sees the native one.
RUSTFLAGS="-C target-cpu=x86-64" \
    run cargo clippy -p bns-model -p bns-core -p bns-eval -p bns-serve --lib --offline --locked --target-dir target/portable -- -D warnings
# bnsbench: the gated end-to-end benchmark is a workspace of its own that
# builds the crates above by path, so only this step compiles it against
# their current public API. Cargo rewrites bnsbench's stale Cargo.lock
# while it resolves; keep a copy and put it back byte for byte, pass or
# fail (bnsbench/ is the benchmark's tree, not this script's).
mkdir -p target
cp bnsbench/Cargo.lock target/bnsbench.Cargo.lock
trap 'cp target/bnsbench.Cargo.lock bnsbench/Cargo.lock' EXIT
run cargo test --release --offline --manifest-path bnsbench/Cargo.toml
cp target/bnsbench.Cargo.lock bnsbench/Cargo.lock
trap - EXIT
# bench_json smoke at tiny sizes: runs every section of the sampler
# runner, so the per-sampler draw rates, the batched pipeline and the BNS
# |Mᵤ| and ECDF-strategy sweeps all keep running. The committed
# BENCH_samplers.json is generated at paper scale (defaults: 10k items,
# d = 32); the smoke writes under target/.
run cargo run --release --offline --locked -p bns-bench --bin bench_json -- \
    --users 40 --items 200 --draws 400 --out target/BENCH_smoke.json
# Execute (not just compile) root examples: the examples are covered by
# clippy --all-targets at build level only, so runtime rot in the public
# walkthrough APIs would otherwise be invisible. `serve` additionally
# asserts that frozen-artifact rankings are bitwise identical to the live
# model's.
run cargo run --release --offline --locked --example quickstart
run cargo run --release --offline --locked --example serve -- --scale 0.05
# Experiment smokes: run every experiment binary at its --quick size, so
# runtime rot in the paper's instruments (fig1's KDE and two-sample KS,
# fig4's TNR/INF) fails here instead of only compiling. About 3 s in all
# on a 2-vCPU host; table2 is most of it.
for bin in ablation contrastive fig1 fig2 fig3 fig4 fig5 stability \
    table1 table2 table3 table4; do
    run cargo run --release --offline --locked -p bns-experiments --bin "$bin" -- --quick
done
# TCP front-end smoke: serve_tcp binds a loopback socket, self-checks both
# protocol surfaces, and holds the port while this script curls the HTTP
# shim from outside the process — the one place CI talks to the server as
# a genuinely foreign client.
ADDR_FILE=target/serve_tcp_addr
rm -f "$ADDR_FILE"
cargo run --release --offline --locked --example serve_tcp -- \
    --hold-ms 8000 --addr-file "$ADDR_FILE" &
SERVE_TCP_PID=$!
for _ in $(seq 1 100); do
    [ -s "$ADDR_FILE" ] && break
    kill -0 "$SERVE_TCP_PID" 2>/dev/null || { echo "serve_tcp died before binding"; exit 1; }
    sleep 0.1
done
[ -s "$ADDR_FILE" ] || { echo "serve_tcp never wrote $ADDR_FILE"; kill "$SERVE_TCP_PID"; exit 1; }
ADDR=$(cat "$ADDR_FILE")
echo "==> curl http://$ADDR/{metrics,topk}"
curl -sS --max-time 5 "http://$ADDR/metrics" | grep -q bns_requests_ok \
    || { echo "/metrics exposition missing bns_requests_ok"; kill "$SERVE_TCP_PID"; exit 1; }
curl -sS --max-time 5 "http://$ADDR/topk?user=3&k=5&exclude_seen=1" | grep -q '"items"' \
    || { echo "/topk did not answer with an item list"; kill "$SERVE_TCP_PID"; exit 1; }
wait "$SERVE_TCP_PID"
# serve_bench smoke: the serving load generator is gated like the
# samplers' bench_json. The committed BENCH_serve.json is generated at
# paper scale (10k items, d = 32); the smoke writes under target/. The
# second run forces the IVF index path (explicit nprobe so the tiny
# 500-item catalog still probes a strict subset of clusters) and gates
# on its built-in recall measurement.
run cargo run --release --offline --locked -p bns-bench --bin serve_bench -- \
    --scale 0.05 --out target/BENCH_serve_smoke.json
run cargo run --release --offline --locked -p bns-bench --bin serve_bench -- \
    --scale 0.05 --index ivf:8 --out target/BENCH_serve_ivf_smoke.json
# scale_bench smoke: exercises the streamed generator, both artifact load
# paths (buffered + mmap), sampler draws and serving at 2% of each tier.
# At --scale 0.02 the 20k-item tier sits above the auto-index threshold,
# so the IVF freeze + ANN serve path runs here too (serve_ivf in the
# JSON), and above BNS's DKW_SAMPLE (18,445 items), so the sampled Eq. 16
# draw runs in a release build. The committed BENCH_scale.json is
# generated at full scale (up to 1M users × 1M items); the smoke writes
# under target/.
run cargo run --release --offline --locked -p bns-bench --bin scale_bench -- \
    --scale 0.02 --out target/BENCH_scale_smoke.json

echo "CI green."
