"""Alternating benchmark pairs: `perfbench/run.py` in a parent checkout and a
change checkout, one after the other, summarized per workload and metric.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --seeds 0,1,2,3,4,5,6,7,8,9 --section seeds_0_to_9_all_workloads \
        --what "what the change does" --out BENCH_36.json

Pair i runs the parent first when i is even and the change first when i is
odd, with seed seeds[i % len(seeds)] on both sides.  Each side runs
`python3 perfbench/run.py --workload W --seed S --seconds T` from its own
checkout, so each measures the sources it holds.  The section written into
`--out` (other sections of an existing file are kept) has, per workload, the
parent's and the change's median, the parent's quartiles and IQR, in how
many pairs the change was lower, and a reading of each metric against its
bound in the change checkout's `BENCHMARK.json` (read, never written); and
every run's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("verdict_s", "setup_s", "peak_rss_mb", "unscaled_verdict_s")
ORDER = "pair i runs the parent first when i is even, the change first when i is odd"


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run: {"exit": code, "env": ..., workload: numbers}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    unscaled, current = {}, None
    for line in lines:
        if line.startswith("workload "):
            current = line.split()[1]
        elif line.strip().startswith("unscaled verdict median"):
            unscaled[current] = float(line.split()[3])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout}: perfbench/run.py exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    results = result if workload == "all" else {workload: result}
    out = {"exit": proc.returncode, "env": env}
    for name, res in results.items():
        row = {k: round(m["value"], 6) for k, m in res["metrics"].items()}
        row["unscaled_verdict_s"] = unscaled.get(name)
        row.update(attempted=res["attempted"], failed=res["failed"], correct=res["correct"])
        out[name] = row
    return out


def load_bounds(path: str) -> dict:
    """Metric name -> relative bound, from a `BENCHMARK.json`'s end-to-end metrics."""
    with open(path) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def reading(median: float, change_median: float, iqr: float, lower: int, pairs: int,
            bound: float) -> str:
    """One metric's reading: "gain" when the change is lower in at least 9/10
    of the pairs and the medians differ by more than the parent's IQR; else
    "worse" when the change's median exceeds the parent's by more than the
    relative bound; else "unresolved" when the parent's IQR is wider than
    the bound (relative to its median); else "unchanged"."""
    if 10 * lower >= 9 * pairs and median - change_median > iqr:
        return "gain"
    if change_median > median * (1 + bound):
        return "worse"
    if iqr > median * bound:
        return "unresolved"
    return "unchanged"


def summarize(parent: list, change: list, bounds: dict) -> dict:
    """Per workload and metric: the parent's and the change's median, their
    ratio, the parent's inclusive quartiles and IQR, "lower in k of n pairs"
    and the metric's `reading` against its bound in `bounds` (the unscaled
    verdict reads against verdict_s's); and the failures on each side.
    `parent[i]` and `change[i]` are pair i's {workload: {metric: value,
    "failed": count}}."""
    out = {}
    for name in parent[0]:
        summary = {}
        for metric in METRICS:
            ps = [run[name][metric] for run in parent]
            cs = [run[name][metric] for run in change]
            if None in ps or None in cs:
                continue
            pm, cm = statistics.median(ps), statistics.median(cs)
            q1, _, q3 = statistics.quantiles(ps, n=4, method="inclusive")
            lower = sum(c < p for p, c in zip(ps, cs, strict=True))
            summary[metric] = {
                "parent_median": round(pm, 6), "change_median": round(cm, 6),
                "change_over_parent": round(cm / pm, 4),
                "parent_q1": round(q1, 6), "parent_q3": round(q3, 6),
                "parent_iqr": round(q3 - q1, 6),
                "change_lower_in_pairs": f"{lower} of {len(ps)}",
                "reading": reading(pm, cm, q3 - q1, lower, len(ps),
                                   bounds[metric.removeprefix("unscaled_")])}
        summary["failed"] = {"parent": sum(run[name]["failed"] for run in parent),
                             "change": sum(run[name]["failed"] for run in change)}
        out[name] = summary
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="0", help="comma-separated; pair i takes seed i mod n")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--section", required=True, help="the key the runs are written under")
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--parent-commit", default="", help="the parent's commit id")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bounds = load_bounds(os.path.join(sides["change"], "BENCHMARK.json"))
    runs, envs, exits = {"parent": [], "change": []}, [], []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            res = run_side(sides[side], args.workload, seed, args.seconds)
            exits.append(res.pop("exit"))
            env = res.pop("env")
            if env not in envs:
                envs.append(env)
            runs[side].append(res)
            print(f"pair {i} seed {seed} {side}: " + ", ".join(
                f"{w} {r['verdict_s']:.4f} s" for w, r in res.items()), flush=True)
    section = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {args.seconds:g}",
        "seeds": [seeds[i % len(seeds)] for i in range(args.pairs)],
        "pairs": args.pairs, "order": ORDER, "exit_codes_all_zero": not any(exits),
        "env": envs, "summary": summarize(runs["parent"], runs["change"], bounds), "runs": runs}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("what", args.what)
    doc.setdefault("parent", args.parent_commit)
    doc.setdefault("tool", "tools/bench_pairs.py over perfbench/run.py, unchanged, "
                           "each side run from its own checkout")
    doc.setdefault("metric_note", "verdict_s and setup_s are seconds at the reference speed "
                                  "(scaled by calibrate.py); unscaled_verdict_s is the raw "
                                  "median; lower is better for every metric")
    doc[args.section] = section
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps(section["summary"], indent=1))
    return 0 if section["exit_codes_all_zero"] else 1


if __name__ == "__main__":
    sys.exit(main())
