#!/bin/sh
# Staged CI gate.
#
# Every stage is named, timed, and logged: output streams to
# target/ci-logs/<stage>.log, the console shows one line per stage, and
# a wall-clock summary table is printed at the end (also on failure, so
# a red run still shows where the time went). A failing stage prints
# the tail of its log instead of swallowing it. Run a single stage with
# `scripts/ci.sh --stage <name>`.
#
# Stages, in order (tier 1 always runs first):
#   tier1        release build + full test suite + rustfmt
#                (scripts/tier1.sh — the per-commit gate)
#   clippy       whole-workspace clippy over every target (libs, bins,
#                tests, examples), warnings denied
#   no-unsafe    grep gate: the workspace stays `unsafe`-free
#                (DESIGN.md §7) — belt-and-braces on top of the
#                workspace-level `unsafe_code = "forbid"` lint
#   workspace-tests  every crate's own tests in release
#                (`cargo test --workspace --release`): the in-crate unit
#                and integration tests tier 1's root-package run skips
#   chaos-seeds  quarantined-seed replay: every seed in
#                tests/chaos_known_seeds.txt re-runs BEFORE the random
#                smoke, so once-interesting fault mixes stay covered
#   chaos-smoke  200 seeded fault-injection + differential fuzz cases
#                across all four guests, zero violations required
#   ckptparity   checkpoint parity: the incremental snapshot engine
#                must reconstruct bit-identically to the full-copy
#                oracle on every guest (differential engine lockstep)
#   bench-smoke  `tables benchjson` snapshot, the only stage that
#                writes a full document: the run must succeed and the
#                written JSON must carry the schema-v11 "vm" AND
#                "checkpoint" blocks (the binary itself asserts identical
#                community outcomes at K=1 and K=4); the counts are NOT
#                gated (commit refreshed BENCH_*.json deliberately)
#   fleet-smoke  `tables fleet` at 1k hosts over a short horizon; the
#                written JSON must carry the "fleet" block with a
#                finite outbreak p99 and shard_invariant=true (the
#                reactor determinism gate, invariant I10)
#   epidemic-smoke  `tables fig9fail` at reduced hosts; the written
#                JSON must carry the "epidemic1m" block with all four
#                arms (none, failest, antibody, both), soa_parity=true
#                and k_invariant=true (the SoA/legacy differential gate,
#                invariant I11 — the binary itself asserts parity and
#                K-invariance before writing)
#   recovery-smoke  `tables fleetrecover` at 1k hosts: the same
#                outbreak under Full vs Domain recovery plus a
#                Differential oracle leg; the written JSON must carry
#                the "recovery" block with domain_parity=true, zero
#                I12 violations, and a Domain outbreak p999 strictly
#                below Full's (the binary itself asserts all four
#                gates before writing)
#   examples     every example under examples/ runs to completion in
#                release (`cargo test` only compiles them)
#   perfbench-smoke  the wall-clock benchmark's own smoke tests at
#                `--size smoke` (perfbench/ is a separate Cargo
#                workspace): every workload runs and its output checks
#                pass
#   fig9dist     distnet sweep smoke (non-failing)
#
# Run from anywhere; works offline — all dependencies are in-tree.
set -eu
cd "$(dirname "$0")/.."

LOGDIR=target/ci-logs
mkdir -p "$LOGDIR"

ONLY=""
case "${1:-}" in
"") ;;
--stage)
    ONLY="${2:?usage: scripts/ci.sh [--stage <name>]}"
    ;;
*)
    echo "usage: scripts/ci.sh [--stage <name>]" >&2
    exit 2
    ;;
esac

SUMMARY=""
RAN=0

print_summary() {
    [ -n "$SUMMARY" ] || return 0
    printf '\n== stage summary\n'
    printf '   %-12s %8s  %s\n' stage wall status
    printf '%b' "$SUMMARY"
}

# run_stage <name> <fn>: time <fn>, logging to $LOGDIR/<name>.log. On
# failure: print the log tail, the summary so far, and exit non-zero.
# Lines the stage writes starting with "WARN" are surfaced on the
# console even when it passes.
run_stage() {
    name="$1"
    fn="$2"
    if [ -n "$ONLY" ] && [ "$name" != "$ONLY" ]; then
        return 0
    fi
    RAN=1
    log="$LOGDIR/$name.log"
    printf '== stage: %s\n' "$name"
    start=$(date +%s)
    if "$fn" >"$log" 2>&1; then
        end=$(date +%s)
        SUMMARY="$SUMMARY$(printf '   %-12s %7ss  ok' "$name" "$((end - start))")\n"
        grep '^WARN' "$log" || true
    else
        end=$(date +%s)
        SUMMARY="$SUMMARY$(printf '   %-12s %7ss  FAIL' "$name" "$((end - start))")\n"
        printf '== stage %s: FAIL — last 40 lines of %s\n' "$name" "$log" >&2
        tail -40 "$log" >&2
        print_summary
        exit 1
    fi
}

stage_tier1() {
    scripts/tier1.sh
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_no_unsafe() {
    if grep -rn --include='*.rs' -E 'unsafe[[:space:]]+(\{|fn|impl|trait)|allow\(unsafe_code\)' \
        src crates tests; then
        echo "FAIL: 'unsafe' construct found in workspace sources"
        return 1
    fi
    echo "workspace is unsafe-free"
}

stage_workspace_tests() {
    cargo test --workspace --release -q
}

stage_chaos_seeds() {
    cargo run --release -p chaos -- --seed-file tests/chaos_known_seeds.txt
}

stage_chaos_smoke() {
    cargo run --release -p chaos -- --smoke
}

stage_ckptparity() {
    cargo run --release -p bench --bin tables -- ckptparity
}

stage_bench_smoke() {
    # Gated: the run must succeed, and the snapshot must declare the
    # current schema and carry the vm and checkpoint blocks. Counts are
    # not gated.
    cargo run --release -p bench --bin tables -- \
        benchjson --hosts=2000 --out=target/bench_smoke.json || return 1
    if ! grep -q '"schema": "sweeper-bench-v11"' target/bench_smoke.json; then
        echo "FAIL: bench_smoke.json does not declare schema sweeper-bench-v11"
        return 1
    fi
    if ! grep -q '"vm"' target/bench_smoke.json; then
        echo "FAIL: no vm block in bench_smoke.json"
        return 1
    fi
    if ! grep -q '"checkpoint"' target/bench_smoke.json; then
        echo "FAIL: no checkpoint block in bench_smoke.json"
        return 1
    fi
    echo "schema-v11 declared, vm + checkpoint blocks present"
}

stage_fleet_smoke() {
    # Gated: the reactor itself asserts digest equality at 1 vs 2
    # shards (a mismatch aborts the run), and the written block must
    # carry a finite outbreak p99.
    cargo run --release -p bench --bin tables -- \
        fleet --hosts=1000 --shards=2 --out=target/fleet_smoke.json
    if ! grep -q '"fleet"' target/fleet_smoke.json; then
        echo "FAIL: no fleet block in fleet_smoke.json"
        return 1
    fi
    if ! grep -q '"shard_invariant": true' target/fleet_smoke.json; then
        echo "FAIL: fleet run is not shard-invariant (I10)"
        return 1
    fi
    if grep -q '"p99_ms": null' target/fleet_smoke.json; then
        echo "FAIL: fleet latency window has no samples (p99 null)"
        return 1
    fi
    echo "schema-v11 fleet block present, p99 finite, shard-invariant"
}

stage_epidemic_smoke() {
    # Gated: the fig9fail binary itself asserts the differential parity
    # verdicts (I11 + K-invariance) before writing; the written block
    # must then carry all four arms, soa_parity=true and
    # k_invariant=true.
    cargo run --release -p bench --bin tables -- \
        fig9fail --hosts=50000 --out=target/epidemic_smoke.json
    if ! grep -q '"epidemic1m"' target/epidemic_smoke.json; then
        echo "FAIL: no epidemic1m block in epidemic_smoke.json"
        return 1
    fi
    if ! grep -q '"soa_parity": true' target/epidemic_smoke.json; then
        echo "FAIL: SoA/legacy engines diverged (I11)"
        return 1
    fi
    if ! grep -q '"k_invariant": true' target/epidemic_smoke.json; then
        echo "FAIL: shard count changed the parity-gate outcome"
        return 1
    fi
    for arm in none failest antibody both; do
        if ! grep -q "\"name\": \"$arm\"" target/epidemic_smoke.json; then
            echo "FAIL: epidemic1m block has no '$arm' arm"
            return 1
        fi
    done
    echo "schema-v11 epidemic1m block present, all four arms, SoA parity holds"
}

stage_recovery_smoke() {
    # Gated: the fleetrecover binary itself asserts shard invariance,
    # domain parity, zero I12 violations, and Domain p999 < Full p999
    # before writing; re-check the written block so a silent writer
    # regression cannot green-wash the stage.
    cargo run --release -p bench --bin tables -- \
        fleetrecover --hosts=1000 --shards=2 --out=target/recovery_smoke.json
    if ! grep -q '"recovery"' target/recovery_smoke.json; then
        echo "FAIL: no recovery block in recovery_smoke.json"
        return 1
    fi
    if ! grep -q '"domain_parity": true' target/recovery_smoke.json; then
        echo "FAIL: Differential oracle found a Domain/Full divergence"
        return 1
    fi
    if ! grep -q '"i12_violations": 0' target/recovery_smoke.json; then
        echo "FAIL: partial rollback disturbed a benign domain (I12)"
        return 1
    fi
    domain_p999=$(sed -n 's/.*"domain_outbreak".*"p999_ms": \([0-9.]*\).*/\1/p' target/recovery_smoke.json)
    full_p999=$(sed -n 's/.*"full_outbreak".*"p999_ms": \([0-9.]*\).*/\1/p' target/recovery_smoke.json)
    if [ -z "$domain_p999" ] || [ -z "$full_p999" ]; then
        echo "FAIL: recovery block is missing an outbreak p999"
        return 1
    fi
    if ! awk -v d="$domain_p999" -v f="$full_p999" 'BEGIN { exit !(d < f) }'; then
        echo "FAIL: Domain outbreak p999 ($domain_p999 ms) not below Full ($full_p999 ms)"
        return 1
    fi
    echo "schema-v11 recovery block present, I12 clean, parity holds, domain p999 $domain_p999 < full $full_p999 ms"
}

stage_examples() {
    # Not `name`: run_stage reads that global after this returns.
    for ex in examples/*.rs; do
        example=$(basename "$ex" .rs)
        echo "-- example $example"
        cargo run --release --example "$example" || return 1
    done
}

stage_perfbench_smoke() {
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
}

stage_fig9dist() {
    if cargo run --release -p bench --bin tables -- fig9dist --hosts=1000; then
        echo "fig9dist sweep ok"
    else
        echo "WARN: fig9dist smoke failed (not a gate) — see $LOGDIR/fig9dist.log"
    fi
}

run_stage tier1 stage_tier1
run_stage clippy stage_clippy
run_stage no-unsafe stage_no_unsafe
run_stage workspace-tests stage_workspace_tests
run_stage chaos-seeds stage_chaos_seeds
run_stage chaos-smoke stage_chaos_smoke
run_stage ckptparity stage_ckptparity
run_stage bench-smoke stage_bench_smoke
run_stage fleet-smoke stage_fleet_smoke
run_stage epidemic-smoke stage_epidemic_smoke
run_stage recovery-smoke stage_recovery_smoke
run_stage examples stage_examples
run_stage perfbench-smoke stage_perfbench_smoke
run_stage fig9dist stage_fig9dist

if [ "$RAN" -eq 0 ]; then
    echo "ci: unknown stage '$ONLY' (see the stage list in scripts/ci.sh)" >&2
    exit 2
fi
print_summary
echo "== ci: OK"
