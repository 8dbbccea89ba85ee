#!/usr/bin/env bash
# Run every results-producing bench harness in full (criterion groups plus
# the headline sections that write results/*.json), then consolidate the
# headline numbers of all results/*.json artifacts into one
# results/bench_summary.json for dashboards and regression diffing.
#
# This is the long-form companion to scripts/tier1.sh (which only smokes
# the bench bodies with `--test`); expect a few minutes of wall time.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

# Criterion harnesses with headline sections that write results/*.json.
cargo bench --bench remap_ablation
cargo bench --bench irc_build
cargo bench --bench irc_color

# Figure binaries with results artifacts (fig13 carries the remap-search
# portfolio comparison and the optimality-gap table).
cargo run -q -p dra-bench --release --bin fig13 > /dev/null

# Symbolic checker sweep: refreshes results/telemetry/checker.json, whose
# counters feed the `checker` headline below.
cargo run -q -p dra-core --release --bin drac -- check > /dev/null

python3 - <<'EOF'
import json, os

summary = {"schema": "dra-bench-summary-v1", "sources": {}}

def load(name):
    path = os.path.join("results", name)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)

fig13 = load("fig13.json")
if fig13:
    remap_ratios = [
        a["code_ratio"]
        for b in fig13["benchmarks"]
        for a in b["approaches"]
        if a["approach"] == "remapping"
    ]
    pv = fig13.get("portfolio_vs_greedy", [])
    gaps = fig13.get("optimality_gap", [])
    summary["sources"]["fig13"] = {
        "avg_remapping_code_ratio": sum(remap_ratios) / max(len(remap_ratios), 1),
        "portfolio_benchmarks": len(pv),
        "portfolio_strict_wins": sum(
            1 for e in pv if e["portfolio_dynamic_slr"] < e["greedy_dynamic_slr"]
        ),
        "portfolio_losses": sum(
            1 for e in pv if e["portfolio_dynamic_slr"] > e["greedy_dynamic_slr"]
        ),
        "greedy_dynamic_slr_total": sum(e["greedy_dynamic_slr"] for e in pv),
        "portfolio_dynamic_slr_total": sum(e["portfolio_dynamic_slr"] for e in pv),
        "max_portfolio_gap": max((e["portfolio_gap"] for e in gaps), default=0.0),
        "max_greedy_gap": max((e["greedy_gap"] for e in gaps), default=0.0),
    }

ablation = load("remap_ablation.json")
if ablation:
    summary["sources"]["remap_ablation"] = {
        "eval_budget": ablation["eval_budget"],
        "greedy_cost": ablation["greedy_cost"],
        "portfolio_cost": ablation["portfolio_cost"],
    }

irc_build = load("irc_build.json")
if irc_build:
    summary["sources"]["irc_build"] = {
        "largest_speedup": irc_build["largest_speedup"],
    }

irc_color = load("irc_color.json")
if irc_color:
    summary["sources"]["irc_color"] = {
        "largest_color_speedup": irc_color["largest_color_speedup"],
        "differential_color_speedup": irc_color["differential_color_speedup"],
    }

checker = load("telemetry/checker.json")
if checker:
    c = checker["counters"]
    ns = checker["spans_ns"].get("checker", 0)
    insts = c.get("checker.insts", 0)
    summary["sources"]["checker"] = {
        "functions": c.get("checker.functions", 0),
        "insts": insts,
        "fields_replayed": c.get("checker.fields_replayed", 0),
        "violations": c.get("checker.violations", 0),
        "ns_per_inst": ns / insts if insts else 0.0,
    }

serve = load("serve_bench.json")
if serve:
    rates = [
        p["jobs_per_sec"] for sweep in serve.get("sweeps", []) for p in sweep["phases"]
    ]
    summary["sources"]["serve_bench"] = {
        "max_jobs_per_sec": max(rates, default=0.0),
        "workers_swept": [s["workers"] for s in serve.get("sweeps", [])],
    }

with open("results/bench_summary.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print("wrote results/bench_summary.json:")
print(json.dumps(summary, indent=2))
EOF
