#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark, with an anchor.
#
#   tools/pairs.sh <parent-rev> [workload...]      # measure, write $OUT
#   tools/pairs.sh --check [BENCH_*.json]          # schema-check a file
#   tools/pairs.sh --chain OLD NEW                 # NEW's parent vs OLD's change
#
# Builds three trees once each, in their own directories under $WORK:
# the parent (`git archive <parent-rev>`), the change (this checkout's
# tracked files as they stand, staged new files included) and the
# anchor (`git archive e00023e`). Then, for each workload (default: all
# of BENCHMARK.json's), runs $PAIRS rounds of the three binaries at
# BENCHMARK.json's run_seconds with --trace 0, on one seed per round
# ($SEED0, $SEED0+1, ...; pick seeds no one has tuned on), the three
# sides taking the six orders in turn, round by round, so each runs
# equally often in each slot; and records each run's slot (0-2) and
# /proc/stat steal. The benchmark itself is driven, never edited.
#
# $OUT (default BENCH_new.json) holds, per workload and end-to-end
# metric: both medians, change/parent, the parent's IQR / median, the
# pairs the change wins, `unresolved` when that spread exceeds the
# metric's bound in BENCHMARK.json, the anchor's median with both
# sides' ratios to it, and every run; and, per workload, the slot
# effect: the anchor's median `norm_ops_per_s` in each slot over its
# overall median (the anchor runs in every slot). Ratios to the anchor
# tree, not absolute numbers, are what compare across hosts and PRs.
# With uncommitted edits the change rev is a `git stash create` commit
# that no ref keeps (`change_is_stash`); from a clean checkout it is
# HEAD.
#
# The chain: NEW's parent should be the code OLD measured as its change
# (OLD's `revs.change`, or, that commit gone, the last commit touching
# OLD), so its ratio to the anchor should repeat. The pair is comparable
# when the anchors match and so do the two product trees (`git ls-tree`
# of crates, src, the manifests and benchmark, hashed). For each shared
# workload and each of setup_s, norm_ops_per_s, norm_req_p50_us and
# norm_req_p90_us, the gap NEW parent_vs_anchor / OLD change_vs_anchor
# - 1 is `chain_broken` beyond max(2 %, either file's parent_iqr_frac).
# A measuring run records this check of $OUT against the newest
# committed BENCH_*.json as `chain`. A broken chain is printed, never
# fatal.
set -euo pipefail
cd "$(dirname "$0")/.."
ANCHOR=e00023e
PAIRS=${PAIRS:-12}
SEED0=${SEED0:-2701}
OUT=${OUT:-BENCH_new.json}
WORK=${WORK:-target/pairs}

chain() {
    python3 - "$@" <<'PY'
import json, os, subprocess, sys
old_path, new_path, record = sys.argv[1], sys.argv[2], len(sys.argv) > 3
old, new = json.load(open(old_path)), json.load(open(new_path))
METRICS = ("setup_s", "norm_ops_per_s", "norm_req_p50_us", "norm_req_p90_us")

def git(*args, stdin=None):
    p = subprocess.run(["git", *args], input=stdin, capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else None

def fingerprint(rev):
    tree = rev and git("ls-tree", rev, "crates", "src", "Cargo.toml", "Cargo.lock", "benchmark")
    return tree and git("hash-object", "--stdin", stdin=tree + "\n")

measured = old["revs"]["change"]
if git("cat-file", "-e", measured + "^{commit}") is None:
    measured = git("log", "-1", "--format=%H", "--", old_path)
fp = fingerprint(measured)
why = ("anchors differ" if old["revs"]["anchor"] != new["revs"]["anchor"] else
       "product trees differ" if not fp or fp != fingerprint(new["revs"]["parent"]) else None)
print(f"chain {old_path} (measured {(measured or '?')[:9]}) -> {new_path} "
      f"(parent {new['revs']['parent'][:9]}): {'not comparable, ' + why if why else 'comparable'}")
broken = []
for w in [w for w in new["workloads"] if w in old["workloads"] and not why]:
    for m in METRICS:
        o, n = old["workloads"][w].get(m), new["workloads"][w].get(m)
        if not (o and n and o["change_vs_anchor"] and n["parent_vs_anchor"]):
            continue
        gap = n["parent_vs_anchor"] / o["change_vs_anchor"] - 1
        bound = max(0.02, o["parent_iqr_frac"], n["parent_iqr_frac"])
        flag = abs(gap) > bound
        if flag:
            broken.append({"row": f"{w}/{m}", "gap": round(gap, 4), "bound": round(bound, 4)})
        print(f"  {w:<14} {m:<16} gap {gap:+7.1%}  bound {bound:5.1%}" + ("  chain_broken" if flag else ""))
if record:
    new["chain"] = {"against": os.path.basename(old_path), "comparable": why is None, "broken": broken}
    with open(new_path, "w") as f:
        json.dump(new, f, indent=1)
        f.write("\n")
PY
}

check() {
    python3 - "$1" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("parent", "change", "anchor"):
    assert len(doc["revs"][key]) == 40, f"revs.{key} is not a commit hash"
assert isinstance(doc["change_is_stash"], bool), "change_is_stash"
assert doc["pairs"] >= 10 and doc["seconds"] > 0 and doc["seeds"], "pairs/seconds/seeds"
row_keys = {"parent", "change", "ratio", "parent_iqr_frac", "pairs_in_favour", "bound",
            "unresolved", "anchor", "parent_vs_anchor", "change_vs_anchor"}
for w, metrics in doc["workloads"].items():
    runs = doc["runs"][w]
    assert len(runs) == 3 * doc["pairs"], f"{w}: {len(runs)} runs"
    for r in runs:
        assert r["side"] in ("parent", "change", "anchor") and isinstance(r["seed"], int), r
        assert {"exit", "correct", "failed", "steal_s", "metrics"} <= r.keys(), r
        assert r.get("slot", 0) in (0, 1, 2), r
    for m, row in metrics.items():
        assert row.keys() == row_keys, f"{w}/{m}: {sorted(row.keys())}"
        assert isinstance(row["unresolved"], bool) and 0 <= row["pairs_in_favour"] <= doc["pairs"]
# Files written before position balancing (BENCH_PR27-29) have no slots.
slotted = {"slot" in r for runs in doc["runs"].values() for r in runs}
assert len(slotted) <= 1, "every run records its slot, or none does"
for w, effect in doc.get("slot_effect", {}).items():
    assert len(effect) == 3, f"{w}: slot_effect {effect}"
print(f"{sys.argv[1]}: schema ok ({len(doc['workloads'])} workloads)")
# Files written before the chain check have none.
if "chain" in doc:
    chain = doc["chain"]
    assert chain.keys() == {"against", "comparable", "broken"}, f"chain: {sorted(chain)}"
    assert isinstance(chain["comparable"], bool) and (chain["comparable"] or not chain["broken"])
    for b in chain["broken"]:
        assert b.keys() == {"row", "gap", "bound"} and abs(b["gap"]) > b["bound"], b
    rows = ", ".join(f"{b['row']} {b['gap']:+.1%} (bound {b['bound']:.1%})" for b in chain["broken"])
    print(f"chain against {chain['against']}: "
          f"{'comparable' if chain['comparable'] else 'not comparable'}, broken: {rows or 'none'}")
PY
}

if [ "${1:-}" = "--check" ]; then
    check "${2:-$(ls BENCH_*.json | sort -V | tail -n 1)}"
    exit 0
fi
if [ "${1:-}" = "--chain" ]; then
    [ $# -eq 3 ] || { sed -n '2,9p' "$0"; exit 2; }
    chain "$2" "$3"
    exit 0
fi
[ $# -ge 1 ] || { sed -n '2,9p' "$0"; exit 2; }
PARENT=$(git rev-parse --verify "$1^{commit}"); shift
ANCHOR=$(git rev-parse --verify "$ANCHOR^{commit}")
CHANGE=$(git stash create); STASH=true
[ -n "$CHANGE" ] || { CHANGE=$(git rev-parse HEAD); STASH=false; }
[ "$PAIRS" -ge 10 ] || { echo "PAIRS must be at least 10" >&2; exit 2; }

mkdir -p "$WORK"
WORK=$(cd "$WORK" && pwd)
for side in parent change anchor; do
    rev=$(eval echo "\$${side^^}")
    rm -rf "$WORK/$side" && mkdir -p "$WORK/$side"
    git archive "$rev" | tar -x -C "$WORK/$side"
    echo "building $side ($rev)" >&2
    cargo build --release --offline --quiet --manifest-path "$WORK/$side/benchmark/Cargo.toml"
done

status=0
python3 - "$WORK" "$OUT" "$PARENT" "$CHANGE" "$ANCHOR" "$STASH" "$PAIRS" "$SEED0" "$@" <<'PY' || status=$?
import itertools, json, statistics, subprocess, sys

work, out, parent, change, anchor = sys.argv[1:6]
stash, pairs, seed0 = sys.argv[6] == "true", int(sys.argv[7]), int(sys.argv[8])
spec = json.load(open("BENCHMARK.json"))
seconds = str(spec["run_seconds"])
workloads = sys.argv[9:] or [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
ORDERS = list(itertools.permutations(("parent", "change", "anchor")))

def steal_ticks():
    fields = open("/proc/stat").readline().split()
    return int(fields[8]) if len(fields) > 8 else 0

def run(side, workload, seed, slot):
    before = steal_ticks()
    p = subprocess.run(
        ["benchmark/target/release/benchmark", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        cwd=f"{work}/{side}", capture_output=True, text=True)
    steal_s = (steal_ticks() - before) / 100
    last = json.loads(p.stdout.strip().splitlines()[-1]) if p.stdout.strip() else {}
    row = {"side": side, "seed": seed, "slot": slot, "exit": p.returncode, "steal_s": steal_s,
           "correct": bool(last.get("correct")), "failed": last.get("failed"),
           "metrics": {k: v["value"] for k, v in last.get("metrics", {}).items()}}
    print(f"{workload} seed {seed} slot {slot} {side}: correct={row['correct']} steal={steal_s:.2f}s", file=sys.stderr)
    return row

def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]

doc = {"revs": {"parent": parent, "change": change, "anchor": anchor},
       "change_is_stash": stash, "pairs": pairs,
       "seconds": float(seconds), "seeds": [seed0 + i for i in range(pairs)],
       "workloads": {}, "slot_effect": {}, "runs": {}}
for w in workloads:
    runs = []
    for i in range(pairs):
        order = ORDERS[i % len(ORDERS)]
        runs += [run(side, w, seed0 + i, slot) for slot, side in enumerate(order)]
    doc["runs"][w] = runs
    anchor = [r for r in runs if r["side"] == "anchor" and "norm_ops_per_s" in r["metrics"]]
    by_slot = [[r["metrics"]["norm_ops_per_s"] for r in anchor if r["slot"] == s] for s in range(3)]
    overall = statistics.median(r["metrics"]["norm_ops_per_s"] for r in anchor) if anchor else 0
    if overall and all(by_slot):
        doc["slot_effect"][w] = [statistics.median(vals) / overall for vals in by_slot]
    rows = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        by = {s: {r["seed"]: r["metrics"].get(name) for r in runs if r["side"] == s}
              for s in ("parent", "change", "anchor")}
        if any(v is None for side in by.values() for v in side.values()):
            continue
        vals = {s: [by[s][seed] for seed in doc["seeds"]] for s in by}
        (p1, pm, p3), cm, am = quartiles(vals["parent"]), statistics.median(vals["change"]), statistics.median(vals["anchor"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        spread = (p3 - p1) / pm if pm else 0.0
        rows[name] = {"parent": pm, "change": cm, "ratio": cm / pm if pm else None,
                      "parent_iqr_frac": spread, "pairs_in_favour": wins, "bound": m["bound"],
                      "unresolved": spread > m["bound"], "anchor": am,
                      "parent_vs_anchor": pm / am if am else None,
                      "change_vs_anchor": cm / am if am else None}
    doc["workloads"][w] = rows
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

print(f"{'workload':<14} {'metric':<18} {'parent':>12} {'change':>12} {'ratio':>7} {'iqr/med':>8} {'wins':>5} {'vs anchor':>10}")
for w, rows in doc["workloads"].items():
    for name, r in rows.items():
        flag = " unresolved" if r["unresolved"] else ""
        print(f"{w:<14} {name:<18} {r['parent']:>12.6g} {r['change']:>12.6g} {r['ratio'] or 0:>7.3f} "
              f"{r['parent_iqr_frac']:>8.3f} {r['pairs_in_favour']:>2}/{pairs} {r['change_vs_anchor'] or 0:>10.3f}{flag}")
for w, effect in doc["slot_effect"].items():
    print(f"{w:<14} slot effect (anchor norm_ops_per_s by slot / overall): "
          + " ".join(f"{e:.3f}" for e in effect))
bad = [r for w in doc["runs"].values() for r in w if r["exit"] or not r["correct"] or r["failed"]]
print(f"{out}: {sum(len(v) for v in doc['runs'].values())} runs, {len(bad)} not correct", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
PREV=$(git ls-files 'BENCH_*.json' | grep -vxF "$OUT" | sort -V | tail -n 1)
[ -z "$PREV" ] || chain "$PREV" "$OUT" record
check "$OUT"
exit "$status"
