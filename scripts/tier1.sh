#!/usr/bin/env bash
# Tier-1 verification: release build, a build of the perfbench benchmark,
# full test suite, one-shot smokes of
# the remap_scaling, remap_ablation, and irc benches (criterion's `--test` mode runs
# each bench body exactly once, so regressions in the bench harnesses,
# the incremental-search plumbing, or the interference-graph
# representations fail CI without paying for a full sweep), and a
# telemetry smoke: one figure binary must emit a schema-valid
# results/telemetry/*.json that `drac report` accepts.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# perfbench (the benchmark BENCHMARK.json runs) calls public workspace
# APIs; a change that breaks its build must fail here, not in the
# benchmark run. Build only: its own test suite is not part of tier-1.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q
cargo bench --bench remap_scaling -- --test
cargo bench --bench remap_ablation -- --test
cargo bench --bench irc_build -- --test
cargo bench --bench irc_color -- --test

rm -f results/telemetry/fig11.json
cargo run -q -p dra-bench --release --bin fig11 > /dev/null
cargo run -q -p dra-core --release --bin drac -- report results/telemetry/fig11.json > /dev/null
echo "telemetry smoke OK"

# Counter gate: deterministic work counters in a regenerated telemetry
# frame must equal the committed frame (`git show HEAD:<frame>`) exactly.
# Arguments after the frame name the gated keys: one ending in "." is a
# prefix, any other is an exact key. Timings (`spans_ns`) are never gated.
counter_gate() {
    local frame="$1"
    shift
    python3 - <(git show "HEAD:$frame") "$frame" "$@" <<'EOF'
import json, sys
committed, regenerated, *keys = sys.argv[1:]
def gated(path):
    counters = json.load(open(path))["counters"]
    return {k: v for k, v in counters.items()
            if any(k.startswith(p) if p.endswith(".") else k == p for p in keys)}
want, got = gated(committed), gated(regenerated)
diff = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
for k in diff:
    print(f"counter gate: {k}: committed {want.get(k)}, regenerated {got.get(k)}")
if diff:
    print(f"counter gate FAILED (commit {regenerated} if the change is intended)")
    sys.exit(1)
EOF
}

# fig11's counters: everything the simulator counts (`sim.*`), the remap
# search's `remap.evaluations`, the encoder's `repair.*`, and the
# allocator's `irc.*` worklist steps and `alloc.*` spill/coalesce/round
# totals (the counters a buffer-reuse bug in the allocator would move).
counter_gate results/telemetry/fig11.json sim. repair. remap.evaluations irc. alloc.
echo "counter gate OK"

# Checker smoke: the symbolic allocation checker over the full benchmark ×
# approach matrix (`--check` wired through the same pipeline), which must
# come back with zero violations, a schema-valid telemetry frame, and
# `checker.*` work counters equal to the committed frame.
cargo run -q -p dra-core --release --bin drac -- check > /dev/null
cargo run -q -p dra-core --release --bin drac -- report results/telemetry/checker.json > /dev/null
counter_gate results/telemetry/checker.json checker.
echo "checker smoke OK"

# Fault containment: the injection suite end to end, then the decoder
# totality properties by name (the load-bearing "hostile streams never
# panic" guarantee gets its own loud line in CI output).
cargo test -q --test fault_injection
cargo test -q --test fault_injection decoder_is_total
echo "fault containment OK"

# Corpus smoke: the profile → generator → batch-compile → checker loop
# at CI scale. 100 generated functions must compile with zero errors and
# zero checker violations (the command exits nonzero otherwise), the
# emitted profile artifact must be a valid dra-profile-v1 document (the
# generator accepts only validated profiles, so feeding the artifact
# back through `corpus` is the validation gate), and the corpus
# telemetry frame must be schema-valid.
cargo run -q -p dra-core --release --bin drac -- profile --builtin embedded-dsp > /dev/null
cargo run -q -p dra-core --release --bin drac -- corpus \
  --profile results/profiles/embedded-dsp.json --count 100 > /dev/null
cargo run -q -p dra-core --release --bin drac -- report results/telemetry/corpus.json > /dev/null
echo "corpus smoke OK"

# Serve smoke: a resident daemon on a temp Unix socket, driven through
# the dra-serve-v1 line protocol — ping, two identical compiles (the
# second must come from the cross-request result cache), a stats probe,
# graceful shutdown (asserted by `wait` under `set -e`, and by the
# socket file being cleaned up) — then the self-hosted load harness in
# smoke mode, which itself asserts nonzero cache hits.
SOCK="$(mktemp -u /tmp/drac-serve-XXXXXX.sock)"
SMOKE_DIR="$(mktemp -d /tmp/drac-serve-smoke-XXXXXX)"
trap 'rm -rf "$SMOKE_DIR"; rm -f "$SOCK"' EXIT
cargo run -q -p dra-core --release --bin drac -- serve --addr "unix:$SOCK" --workers 2 > /dev/null &
SERVE_PID=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "serve socket never appeared"; exit 1; }
python3 - "$SOCK" <<'EOF'
import json, socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
f = s.makefile("rw")
def rpc(**req):
    f.write(json.dumps(req) + "\n")
    f.flush()
    return json.loads(f.readline())
assert rpc(schema="dra-serve-v1", id="p", kind="ping")["kind"] == "pong"
first = rpc(schema="dra-serve-v1", id="c1", kind="compile", approach="select", bench="crc32")
assert first["ok"] and not first["cached"], first
again = rpc(schema="dra-serve-v1", id="c2", kind="compile", approach="select", bench="crc32")
assert again["ok"] and again["cached"], again
assert again["result"] == first["result"], (first, again)
stats = rpc(schema="dra-serve-v1", id="s", kind="stats")
assert stats["stats"]["counters"]["result_cache.hits"] >= 1, stats
assert rpc(schema="dra-serve-v1", id="q", kind="shutdown")["kind"] == "bye"
EOF
wait "$SERVE_PID"
[ ! -S "$SOCK" ] || { echo "stale serve socket left behind"; exit 1; }
cargo run -q -p dra-core --release --bin drac -- bench-serve --smoke \
  --out "$SMOKE_DIR/serve_bench.json" --telemetry-root "$SMOKE_DIR" > /dev/null
cargo run -q -p dra-core --release --bin drac -- report "$SMOKE_DIR/results/telemetry" > /dev/null
# The committed telemetry directory must validate wholesale — `report`
# discovers every frame, serve/bench_serve included.
cargo run -q -p dra-core --release --bin drac -- report results/telemetry > /dev/null
echo "serve smoke OK"

# Overload smoke: a one-worker daemon with a queue capacity of 1, hit
# with a pipelined flood of 24 batch-priority dra-serve-v2 compiles all
# written before a single response is read. Admission control must
# answer every id exactly once — ok, or a retryable "overloaded" shed —
# shed at least one of them, and still shut down cleanly with the
# socket removed.
OSOCK="$(mktemp -u /tmp/drac-overload-XXXXXX.sock)"
trap 'rm -rf "$SMOKE_DIR"; rm -f "$SOCK" "$OSOCK"' EXIT
cargo run -q -p dra-core --release --bin drac -- serve --addr "unix:$OSOCK" \
  --workers 1 --queue-cap 1 > /dev/null &
OVER_PID=$!
for _ in $(seq 100); do [ -S "$OSOCK" ] && break; sleep 0.1; done
[ -S "$OSOCK" ] || { echo "overload serve socket never appeared"; exit 1; }
python3 - "$OSOCK" <<'EOF'
import json, socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
f = s.makefile("rw")
n = 24
for i in range(n):
    f.write(json.dumps({
        "schema": "dra-serve-v2", "id": "flood-%d" % i, "kind": "compile",
        "approach": "select", "bench": "crc32", "priority": "batch",
    }) + "\n")
f.flush()
seen, shed, ok = set(), 0, 0
for _ in range(n):
    resp = json.loads(f.readline())
    rid = resp["id"]
    assert rid.startswith("flood-") and rid not in seen, resp
    seen.add(rid)
    if resp["ok"]:
        ok += 1
        continue
    err = resp["error"]
    assert err["kind"] == "overloaded" and err["retryable"], resp
    shed += 1
assert len(seen) == n, sorted(seen)
assert ok >= 1, "cap-1 queue admitted nothing"
assert shed >= 1, "pipelined flood against a cap-1 queue never shed"
f.write(json.dumps({"schema": "dra-serve-v1", "id": "q", "kind": "shutdown"}) + "\n")
f.flush()
assert json.loads(f.readline())["kind"] == "bye"
EOF
wait "$OVER_PID"
[ ! -S "$OSOCK" ] || { echo "stale overload socket left behind"; exit 1; }
echo "overload smoke OK"
