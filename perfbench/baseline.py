"""Record a result set: one run per seed and workload, plus one traced run.

    python3 perfbench/baseline.py --seeds 0-9 --seconds 40 --out perfbench/baseline.json

For each workload and end-to-end metric it reports the median of the
per-run values and the spread (third minus first quartile, over the
median), which BENCHMARK.json's bounds must exceed.  Only for the tail
percentile, which needs eleven samples or more, it pools the verdict
samples of all seeds of a workload (the seeds draw inputs of equal cost,
see workloads.py).  It records the environment with the results and exits
1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import workloads


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    out = {"env": run.environment(), "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            rep = run.run_workload(name, seed, args.seconds, trace=False)
            ok &= rep["result"]["correct"]
            runs.append({"seed": seed, "result": rep["result"],
                         "verdict_samples": rep["verdict_samples"]})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4f}" for k, m in rep["result"]["metrics"].items())
                + f"  failed {rep['result']['failed']}/{rep['result']['attempted']}",
                flush=True)
        entry = {"runs": runs, "summary": {}}
        for metric, _, _ in run.END_TO_END:
            entry["summary"][metric] = spread(
                [r["result"]["metrics"][metric]["value"] for r in runs])
            s = entry["summary"][metric]
            print(f"{name} {metric}: median {s['median']:.4f}, spread {s['spread']:.4f}")
        pooled = [v for r in runs for v in r["verdict_samples"]]
        t = run.tail(pooled)
        entry["pooled_verdict_s"] = {"samples": len(pooled),
                                     "median": statistics.median(pooled),
                                     "tail": {"percentile": t[0], "value": t[1]} if t else None}
        rep = run.run_workload(name, workloads.DEFAULT_SEED, args.seconds, trace=True)
        ok &= rep["result"]["correct"]
        entry["traced"] = {"seed": workloads.DEFAULT_SEED, "result": rep["result"]}
        out["workloads"][name] = entry
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(out, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
