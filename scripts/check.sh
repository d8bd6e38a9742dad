#!/usr/bin/env bash
# Repository gate: formatting, lints, and the full test suite.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== perfbench build + unit tests =="
# perfbench is its own workspace built against these crates by path: an API
# change that breaks the benchmark fails here, not in the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== interprocedural analysis =="
# Lints are errors: every corpus lint must be covered by the allowlist.
# (Covers the taint lints and the region pass's [cross-request-escape]
# findings alike — any new escaping site fails here until allowlisted.)
cargo run -q -p bench --bin analyze -- --gate scripts/taint-allowlist.txt \
  >target/analyze-gate.out

echo "== taint-allowlist drift check =="
# Every allowlist pattern must still match a real corpus finding; a stale
# entry would silently waive a lint that no longer exists.
while IFS= read -r line; do
  case "$line" in ''|'#'*) continue ;; esac
  if ! grep -qF -- "$line" target/analyze-gate.out; then
    echo "stale allowlist entry (matches no corpus lint): $line" >&2
    exit 1
  fi
done <scripts/taint-allowlist.txt
echo "all allowlist entries resolve to live corpus lints"

echo "== fault-injection soak =="
scripts/soak.sh

echo "== arena-epoch soak smoke (4 workers) =="
scripts/soak.sh --workers 4 --arena 20170613

echo "== compiled-VM soak smoke (4 workers, engine=vm) =="
# Primaries execute compiled opcodes, references tree-walk the same source:
# the byte-identity replay is a cross-engine differential under fault
# injection.
scripts/soak.sh --workers 4 --engine vm 20170613

echo "== memo soak smoke (4 workers, shared cross-request cache) =="
# One shared memo cache across all workers with the full fault plan live:
# proven call sites replay out of the cache while breakers trip and recover
# around them, and every response must still replay byte-identically.
scripts/soak.sh --workers 4 --memo 20170613

echo "== overload-survival soak smoke (flash crowd, shedding) =="
# Shaped arrivals at ~2x capacity through the admission controller, with
# the full fault plan live: shedding must be early and graceful, admitted
# requests must all serve, and replay must stay byte-identical.
scripts/soak.sh --shed --shape flash-crowd 20170613

echo "== serve bench smoke (release) =="
cargo build --release -q -p bench --bin serve_bench
./target/release/serve_bench --smoke --out target/BENCH_serve_smoke.json
# The smoke run must emit parseable JSON with the acceptance fields.
python3 - <<'EOF'
import json
with open("target/BENCH_serve_smoke.json") as f:
    doc = json.load(f)
assert doc["mismatches"] == 0, doc["mismatches"]
assert doc["speedup_at_4_workers"] >= 1.5, doc["speedup_at_4_workers"]
assert len(doc["runs"]) == 4 and [r["workers"] for r in doc["runs"]] == [1, 2, 4, 8]
for r in doc["runs"]:
    for key in ("req_per_s", "p50_us", "p95_us", "p99_us"):
        assert r[key] > 0, (r["workers"], key)
print("BENCH_serve_smoke.json is valid")
EOF

echo "== alloc bench smoke (release) =="
cargo build --release -q -p bench --bin alloc_bench
./target/release/alloc_bench --smoke --out target/BENCH_alloc_smoke.json
python3 - <<'EOF'
import json
with open("target/BENCH_alloc_smoke.json") as f:
    doc = json.load(f)
assert doc["mismatches"] == 0, doc["mismatches"]
assert len(doc["runs"]) == 4 and [r["workers"] for r in doc["runs"]] == [1, 2, 4, 8]
for r in doc["runs"]:
    assert r["ok"] == r["requests"], (r["workers"], r["ok"])
    assert r["teardown_uops_saved"] > 0, r["workers"]
    assert r["arena_bytes_reclaimed"] > 0, r["workers"]
    assert r["elapsed_uops_arena"] < r["elapsed_uops_free_list"], r["workers"]
print("BENCH_alloc_smoke.json is valid")
EOF

echo "== vm bench smoke (release) =="
cargo build --release -q -p bench --bin vm_bench
./target/release/vm_bench --smoke --out target/BENCH_vm_smoke.json
python3 - <<'EOF'
import json
with open("target/BENCH_vm_smoke.json") as f:
    doc = json.load(f)
assert doc["mismatches"] == 0, doc["mismatches"]
assert doc["reduction_pct_at_1_worker"] >= 25.0, doc["reduction_pct_at_1_worker"]
assert doc["fusion_delta_pct_at_1_worker"] > 0, doc["fusion_delta_pct_at_1_worker"]
assert len(doc["runs"]) == 4 and [r["workers"] for r in doc["runs"]] == [1, 2, 4, 8]
for r in doc["runs"]:
    assert r["ok"] == r["requests"], (r["workers"], r["ok"])
    assert r["replay_mismatches"] == 0, r["workers"]
    assert r["elapsed_uops_vm_fused"] < r["elapsed_uops_vm"] < r["elapsed_uops_tree"], r["workers"]
    assert r["vm_ops_executed"] > 0 and r["vm_fused_ops"] > 0, r["workers"]
print("BENCH_vm_smoke.json is valid")
EOF

echo "== memo bench smoke (release) =="
cargo build --release -q -p bench --bin memo_bench
./target/release/memo_bench --smoke --out target/BENCH_memo_smoke.json
python3 - <<'EOF'
import json
with open("target/BENCH_memo_smoke.json") as f:
    doc = json.load(f)
assert doc["bench"] == "memo", doc["bench"]
assert doc["mismatches"] == 0, doc["mismatches"]
assert len(doc["runs"]) == 4 and [r["workers"] for r in doc["runs"]] == [1, 2, 4, 8]
for r in doc["runs"]:
    assert r["ok"] == r["requests"], (r["workers"], r["ok"])
    assert r["replay_mismatches"] == 0, r["workers"]
    assert r["memo_hits"] > 0 and r["memo_stores"] > 0, r["workers"]
    assert r["memo_invalidations"] > 0, r["workers"]
    if r["workers"] >= 4:
        assert r["elapsed_uops_memo_on"] < r["elapsed_uops_memo_off"], r["workers"]
        assert r["elapsed_uop_reduction_pct"] > 0, r["workers"]
print("BENCH_memo_smoke.json is valid")
EOF

echo "== overload bench smoke (release) =="
cargo build --release -q -p bench --bin overload_bench
./target/release/overload_bench --smoke --out target/BENCH_overload_smoke.json
python3 - <<'EOF2'
import json
with open("target/BENCH_overload_smoke.json") as f:
    doc = json.load(f)
assert doc["bench"] == "overload", doc["bench"]
assert doc["mismatches"] == 0, doc["mismatches"]
runs = doc["runs"]
assert runs, "no runs emitted"
for r in runs:
    for key in ("engine", "workers", "load_factor", "shape", "requests", "admitted",
                "shed", "shed_fraction", "availability_admitted", "budget_us",
                "p50_us", "p99_us", "p999_us", "slo_attainment", "replay_mismatches"):
        assert key in r, (r.get("engine"), r.get("workers"), key)
    assert r["replay_mismatches"] == 0, (r["engine"], r["workers"])
    assert r["admitted"] + r["shed"] == r["requests"], (r["engine"], r["workers"])
    if r["load_factor"] >= 2.0:
        assert r["shed_fraction"] > 0.25, (r["engine"], r["workers"], r["shed_fraction"])
        assert r["availability_admitted"] >= 0.99, (r["engine"], r["workers"])
        assert r["p99_us"] <= r["budget_us"], (r["engine"], r["workers"])
print("BENCH_overload_smoke.json is valid")
EOF2

echo "== http front-end smoke (release) =="
cargo build --release -q -p bench --bin serve_http --bin http_bench
scripts/http_smoke.sh target/release/serve_http

echo "== http bench smoke (release) =="
./target/release/http_bench --smoke --out target/BENCH_http_smoke.json
python3 - <<'EOF'
import json
with open("target/BENCH_http_smoke.json") as f:
    doc = json.load(f)
assert doc["bench"] == "http", doc["bench"]
assert doc["byte_identity_vs_direct_server"] is True
assert len(doc["runs"]) == 3 and [r["workers"] for r in doc["runs"]] == [1, 2, 4]
for r in doc["runs"]:
    assert r["ok_200"] == r["requests"], (r["workers"], r["ok_200"])
    assert r["errors"] == 0, r["workers"]
    assert r["replay_mismatches"] == 0, r["workers"]
    assert r["worker_requests"] == r["requests"], r["workers"]
    for key in ("req_per_s", "p50_us", "p95_us", "p99_us"):
        assert r[key] > 0, (r["workers"], key)
print("BENCH_http_smoke.json is valid")
EOF

echo "All checks passed."
