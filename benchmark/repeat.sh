#!/usr/bin/env bash
# Self-check of the benchmark's steadiness: two sets of N untraced runs
# of every workload on one build, each run with another seed. Prints,
# per workload and end-to-end metric, each set's median and quartile
# spread and how much worse the second set's median is than the
# first's, against the bound BENCHMARK.json fixes. Exits non-zero when
# a spread (setup_s excepted) or a disagreement exceeds its bound.
#
#   benchmark/repeat.sh [N=5] [SECONDS=run_seconds of BENCHMARK.json]
set -euo pipefail
cd "$(dirname "$0")/.."
N=${1:-5}
SECONDS_ARG=${2:-}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

python3 - "$BIN" "$N" "$SECONDS_ARG" <<'PY'
import json, statistics, subprocess, sys

binary, n, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
metrics = spec["end_to_end"]

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

sets = [{w["name"]: [] for w in spec["workloads"]} for _ in range(2)]
for s, runs in enumerate(sets):
    for i in range(n):
        for w in runs:
            runs[w].append(run(w, 1000 * (s + 1) + i))
            print(f"set {s + 1} run {i + 1}/{n} {w}", file=sys.stderr)

bad = 0
print(f"{'workload':<14} {'metric':<18} {'median 1':>14} {'spread 1':>9} {'median 2':>14} {'spread 2':>9} {'worse by':>9} {'bound':>6}")
for w in sets[0]:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a, b = ([r[name] for r in s[w]] for s in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        fail = worse > bound or (name != "setup_s" and max(sa, sb) > bound)
        bad += fail
        print(f"{w:<14} {name:<18} {ma:>14.6g} {sa:>9.4f} {mb:>14.6g} {sb:>9.4f} {worse:>+9.4f} {bound:>6} {'FAIL' if fail else ''}")
sys.exit(1 if bad else 0)
PY
