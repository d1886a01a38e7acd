"""zpmeasures benchmark: time-to-verdict of the real CLI on named workloads.

    python3 perfbench/run.py --workload octagon-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Every sample is a fresh worker process (perfbench/worker.py) that imports
`zpmeasures` and runs the workload's CLI invocations through
`zpmeasures.cli.main`, one worker at a time, with no extra threads.  Samples
are taken until `--seconds` is spent (at least MIN_SAMPLES).

Between every two workers a fresh process runs the calibration kernel of
calibrate.py.  On a shared host the speed one process gets drifts by up to 2x
over minutes, and the kernel slows down with it, so each worker's times are
scaled by CALIB_REF_S over the mean of the calibrations just before and just
after it.  On a 2-vCPU shared Xeon this cut the spread of single workers'
times by a third (standard deviation of log time 0.155 -> 0.105 over nine
minutes of the three workloads) and the spread of 40 s medians from ~0.2 to
0.02-0.09.  Times are thus seconds at the reference speed, the speed at
which the kernel takes CALIB_REF_S; the unscaled medians are printed too.

--trace 0 reports the end-to-end metrics:
  verdict_s    median scaled wall time from the first cli.main call to the
               last report written, inside the already-imported worker
  setup_s      median scaled time to import zpmeasures and zpmeasures.cli,
               one import per worker
  peak_rss_mb  median peak resident memory of a worker
--trace 1 runs traced workers, plus untraced ones to compare with, and
reports the per-layer metrics of tracer.py; every count must repeat exactly
across the traced workers and every report must be byte-identical to the
untraced ones.

Correctness gate: each check in a report and each emit call is one attempt.
A failed check, a non-zero exit, or report bytes that differ from the
digest pinned in digests.json for this workload and seed (for other seeds:
from the first sample of the run) count as failures.  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
code is 1 if any check failed.  `--tamper` passes --tamper to every verify
call, which must show up as failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
PINS = os.path.join(HERE, "digests.json")

MIN_SAMPLES = 5        # untraced workers per --trace 0 run, at least
MIN_TRACED = 2         # traced workers per --trace 1 run, so counts can be compared
WORKER_TIMEOUT = 170   # seconds; a worker past this is killed and the run fails
HASHSEED = "0"         # PYTHONHASHSEED of every worker
CALIB_REF_S = 0.08     # calibrate.py's time at the reference speed (quiet 2-vCPU Xeon)

END_TO_END = (
    ("verdict_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = (
    ("padic.self_s", "s", "lower"),
    ("padic.vp.calls", "count", "lower"),
    ("padic.repr_mod.calls", "count", "lower"),
    ("mpoly.self_s", "s", "lower"),
    ("mpoly.evaluate.calls", "count", "lower"),
    ("mpoly.mul.calls", "count", "lower"),
    ("mpoly.binom_poly.calls", "count", "lower"),
    ("measures.self_s", "s", "lower"),
    ("measures.build.calls", "count", "lower"),
    ("measures.points_tabulated", "count", "lower"),
    ("measures.pushforward.s", "s", "lower"),
    ("measures.linear_combine.s", "s", "lower"),
    ("measures.exterior.s", "s", "lower"),
    ("measures.validate_distribution.s", "s", "lower"),
    ("measures.box_integral.calls", "count", "lower"),
    ("measures.box_integral.s", "s", "lower"),
    ("measures.iwasawa_P.s", "s", "lower"),
    ("measures.transform_F.s", "s", "lower"),
    ("measures.box_integral_exact.calls", "count", "lower"),
    ("classical.self_s", "s", "lower"),
    ("classical.make.s", "s", "lower"),
    ("classical.e1_relation_suite.s", "s", "lower"),
    ("magnus.self_s", "s", "lower"),
    ("magnus.embed_E.calls", "count", "lower"),
    ("magnus.embed_E.s", "s", "lower"),
    ("magnus.embed_E.letters", "count", "lower"),
    ("magnus.series_terms", "count", "lower"),
    ("magnus.beta_measures.calls", "count", "lower"),
    ("magnus.beta_measures.reuse", "ratio", "higher"),
    ("magnus.word_coefficient_congruence.s", "s", "lower"),
    ("octagon.self_s", "s", "lower"),
    ("octagon.octagon_product.calls", "count", "lower"),
    ("octagon.octagon_product.s", "s", "lower"),
    ("octagon.products_per_residue", "ratio", "lower"),
    ("octagon.build_factor.calls", "count", "lower"),
    ("octagon.build_relation_set.calls", "count", "lower"),
    ("octagon.build_relation_set.s", "s", "lower"),
    ("octagon.subst_size", "count", "lower"),
    ("octagon.degree2_display.s", "s", "lower"),
    ("octagon.degree2_symmetry_check.s", "s", "lower"),
    ("octagon.deg1_implied_by_reflection.s", "s", "lower"),
    ("octagon.derive_factor_by_subst.s", "s", "lower"),
    ("corrections.self_s", "s", "lower"),
    ("corrections.standard_integrand.calls", "count", "lower"),
    ("corrections.standard_integrand.s", "s", "lower"),
    ("corrections.identities.s", "s", "lower"),
    ("suites.measures.s", "s", "lower"),
    ("suites.transforms.s", "s", "lower"),
    ("suites.magnus.s", "s", "lower"),
    ("suites.octagon.s", "s", "lower"),
    ("suites.corrections.s", "s", "lower"),
    ("cli.format_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# Metrics that must repeat exactly across traced workers of one run.
EXACT_UNITS = ("count", "ratio", "bytes")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpu": cpu,
            "worker_PYTHONHASHSEED": HASHSEED,
            "workers": "one at a time, from one process, no extra threads",
            "times": f"scaled to calibrate.py taking {CALIB_REF_S} s"}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


# -- sampling ---------------------------------------------------------------


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = HASHSEED
    return env


def _child(script: str, stdin: str = "") -> dict:
    """Run one fresh Python process to completion and return its JSON line."""
    try:
        proc = subprocess.run([sys.executable, script], input=stdin,
                              capture_output=True, text=True, cwd=ROOT,
                              env=_worker_env(), timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{os.path.basename(script)} exceeded {WORKER_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(script)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample(job: dict) -> dict:
    """Run one fresh worker to completion and return its result."""
    return _child(WORKER, json.dumps(job))


def calibration() -> float:
    return _child(CALIBRATE)["calib_s"]


def collect(argvs, seconds: float, trace: bool):
    """Untraced workers (with trace: traced workers, and an untraced one
    for every second traced one) until the budget is spent, with a
    calibration before the first and after every worker.  Each worker gets
    `speed`, CALIB_REF_S over the mean of the calibrations around it.
    Returns (untraced, traced)."""
    untraced, traced, spent = [], [], []
    sample({"setup_only": True})  # warm-up: byte-compiles src/ once per checkout
    before = calibration()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        jobs = []
        if not trace or len(untraced) <= len(traced) // 2:
            jobs.append((untraced, {"argvs": argvs}))
        if trace:
            jobs.append((traced, {"argvs": argvs, "trace": True}))
        for into, job in jobs:
            smp = sample(job)
            after = calibration()
            smp["calib_s"] = (before + after) / 2
            smp["speed"] = CALIB_REF_S / smp["calib_s"]
            into.append(smp)
            before = after
        spent.append(time.perf_counter() - t0)
        enough = len(traced) >= MIN_TRACED if trace else len(untraced) >= MIN_SAMPLES
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(spent) > seconds:
            return untraced, traced


# -- correctness gate -------------------------------------------------------


def check_run(run: dict):
    """(attempts, failures) from one CLI invocation's exit code and report."""
    if run["argv"][0] != "verify":
        return 1, int(run["rc"] != 0)
    try:
        checks = [c for suite in json.loads(run["report"]) for c in suite["checks"]]
    except (ValueError, KeyError, TypeError):
        return 1, 1
    failures = sum(1 for c in checks if not c["passed"])
    if run["rc"] != 0 and not failures:
        failures = 1
    return max(1, len(checks)), failures


def judge(samples: list, argvs: list, pinned=None):
    """Gate every sample.  Returns (attempted, failed, problems).

    Reports are compared with the pinned digests when given, otherwise with
    the first sample, so repeated workers must give identical bytes.
    """
    attempted = failed = 0
    problems = []
    reference = pinned
    for k, smp in enumerate(samples):
        runs = smp["runs"]
        if [r["argv"] for r in runs] != argvs:
            attempted += 1
            failed += 1
            problems.append(f"sample {k}: ran {len(runs)} invocations, not the workload")
            continue
        digests = [sha256(r["report"]) for r in runs]
        if reference is None:
            reference = digests
        for i, run in enumerate(runs):
            a, f = check_run(run)
            attempted += a
            failed += f
            if f:
                problems.append(f"sample {k}: {' '.join(run['argv'])}: "
                                f"exit {run['rc']}, {f} failed")
            if digests[i] != reference[i]:
                failed += 1
                problems.append(f"sample {k}: {' '.join(run['argv'])}: report "
                                f"sha256 {digests[i][:12]} != {reference[i][:12]}")
    return attempted, failed, problems


# -- metrics ----------------------------------------------------------------


def tail(values):
    """(percent, value) of the highest percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    ordered = sorted(values)
    return pct, ordered[max(0, -(-pct * n // 100) - 1)]


def scaled(samples, key: str):
    """`key` of each worker, in seconds at the reference speed."""
    return [smp[key] * smp["speed"] for smp in samples]


def end_to_end(untraced, setups) -> dict:
    return {"verdict_s": statistics.median(scaled(untraced, "verdict_s")),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced)}


def per_layer(untraced, traced) -> dict:
    """Merge the traced workers' raw numbers into the PER_LAYER metrics.

    Times are scaled to the reference speed.  Raises BenchError when a
    count differs between traced workers."""
    rows = []
    for smp in traced:
        raw = smp["layers"]
        row = {name: raw.get(name, 0) for name, _, _ in PER_LAYER}
        products, residues = row["octagon.octagon_product.calls"], raw["octagon.residues"]
        row["octagon.products_per_residue"] = products / residues if residues else 0.0
        betas = row["magnus.beta_measures.calls"]
        row["magnus.beta_measures.reuse"] = (
            raw["magnus.beta_measures.distinct"] / betas if betas else 0.0)
        row["cli.format_s"] = raw["cli.self_s"]
        row["cli.report_bytes"] = sum(len(r["report"].encode()) for r in smp["runs"])
        for name, unit, _ in PER_LAYER:
            if unit == "s":
                row[name] *= smp["speed"]
        rows.append(row)
    out = {}
    for name, unit, _ in PER_LAYER:
        values = [row[name] for row in rows]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                raise BenchError(f"{name} differs between traced workers: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = (statistics.median(scaled(traced, "verdict_s"))
                               - statistics.median(scaled(untraced, "verdict_s")))
    return out


# -- running a workload -----------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tamper: bool = False) -> dict:
    argvs = workloads.generate(workload, seed)
    if tamper:
        argvs = [a + ["--tamper"] if a[0] == "verify" else a for a in argvs]
    pinned = None if tamper else load_pins().get(workload, {}).get(str(seed))
    untraced, traced = collect(argvs, seconds, trace)
    setups = scaled(untraced + traced, "setup_s")
    attempted, failed, problems = judge(untraced + traced, argvs, pinned)
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, setups)
    units = {name: unit for name, unit, _ in (PER_LAYER if trace else END_TO_END)}
    return {"workload": workload, "seed": seed, "argvs": argvs,
            "pinned": pinned is not None, "problems": problems,
            "verdict_samples": scaled(untraced, "verdict_s"),
            "raw_verdict_samples": [s["verdict_s"] for s in untraced],
            "setup_samples": setups,
            "calib_samples": [s["calib_s"] for s in untraced + traced],
            "skipped_spans": traced[0]["layers"]["trace.skipped"] if traced else [],
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in metrics.items()}}}


def describe(rep: dict) -> None:
    res = rep["result"]
    print(f"workload {rep['workload']}  seed {rep['seed']}  "
          f"digests {'pinned' if rep['pinned'] else 'self-consistent'}")
    for argv in rep["argvs"]:
        print("  zpmeasures " + " ".join(argv))
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    v = rep["verdict_samples"]
    t = tail(v)
    print(f"  verdict_s samples {len(v)}: median {statistics.median(v):.4f} s, "
          + (f"p{t[0]} {t[1]:.4f} s" if t else "no tail percentile (needs >= 11)"))
    print(f"  setup_s samples {len(rep['setup_samples'])}: "
          f"median {statistics.median(rep['setup_samples']):.4f} s")
    print(f"  unscaled verdict median {statistics.median(rep['raw_verdict_samples']):.4f} s; "
          f"calibration median {statistics.median(rep['calib_samples']):.4f} s "
          f"(reference {CALIB_REF_S} s)")
    print(f"  failed_frac {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g}")
    for line in rep["problems"][:20]:
        print("  FAIL " + line)
    for name in rep["skipped_spans"]:
        print(f"  not traced (missing): {name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", action="store_true",
                    help="inject each suite's fault; the run must count failures")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "zpmeasures", "cli.py")):
        print(f"no zpmeasures sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print("env " + json.dumps(environment(), sort_keys=True))
    reps = []
    try:
        for name in names:
            reps.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.tamper))
            describe(reps[-1])
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        line = {r["workload"]: r["result"] for r in reps}
        ok = all(r["result"]["correct"] for r in reps)
    else:
        line = reps[0]["result"]
        ok = line["correct"]
    print(json.dumps(line, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
