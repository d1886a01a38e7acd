"""Self-test of the benchmark's correctness gate (about a minute).

    python3 perfbench/selftest.py

Shows that a --tamper run, and a report altered by one byte, count as
failed and are never reported as passing; that traced workers write the
same bytes as untraced ones; that a count differing between traced
workers stops the run; and that BENCHMARK.json names the metrics run.py
reports.  Exits 1 on the first broken property.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import run
import workloads

SEED = workloads.DEFAULT_SEED


def check(cond, what: str):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def alter_one_byte(text: str) -> str:
    """Change the first digit of the report to another digit."""
    i = next(k for k, ch in enumerate(text) if ch.isdigit())
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


def tamper_run():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "words-integrands", "--seed", str(SEED),
                       "--seconds", "0", "--tamper"])
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    check(rc != 0, f"--tamper run exits non-zero (exit {rc})")
    check(last["correct"] is False and last["failed"] > 0,
          f"--tamper run reports correct=false, failed {last['failed']}/{last['attempted']}")


def tamper_each_suite():
    for name in ("tables-transforms", "octagon-sweep"):
        argvs = [a + ["--tamper"] if a[0] == "verify" else a
                 for a in workloads.generate(name, SEED)]
        attempted, failed, _ = run.judge([run.sample({"argvs": argvs})], argvs)
        check(failed > 0, f"{name} with --tamper: failed {failed}/{attempted}")


def gate_and_trace():
    name = "words-integrands"
    argvs = workloads.generate(name, SEED)
    pinned = run.load_pins()[name][str(SEED)]
    plain = run.sample({"argvs": argvs})
    traced = run.sample({"argvs": argvs, "trace": True})
    plain["speed"] = traced["speed"] = 1.0  # per_layer scales times by it
    check([r["report"] for r in plain["runs"]] == [r["report"] for r in traced["runs"]],
          "traced reports are byte-identical to untraced reports")
    check(run.judge([plain, traced], argvs, pinned)[1] == 0,
          "untraced and traced reports match the pinned digests")

    bad = copy.deepcopy(plain)
    bad["runs"][0]["report"] = alter_one_byte(bad["runs"][0]["report"])
    for label, samples, pins in (("pinned seed", [bad], pinned),
                                 ("altered sample first", [bad, plain], None),
                                 ("altered sample last", [plain, bad], None)):
        attempted, failed, problems = run.judge(samples, argvs, pins)
        check(failed > 0, f"one altered byte fails the gate ({label}): "
                          f"failed {failed}/{attempted}")

    twin = copy.deepcopy(traced)
    twin["layers"]["mpoly.mul.calls"] += 1
    try:
        run.per_layer([plain], [traced, twin])
    except run.BenchError as err:
        check("mpoly.mul.calls" in str(err), "a count differing between traced workers stops the run")
    else:
        check(False, "a count differing between traced workers stops the run")
    layers = run.per_layer([plain], [traced, copy.deepcopy(traced)])
    check(set(layers) == {m for m, _, _ in run.PER_LAYER},
          "the traced run reports every per-layer metric")


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    check(tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS,
          "BENCHMARK.json workloads match workloads.py")
    check(set(workloads.WORKLOADS) <= set(run.load_pins()),
          "every workload has pinned digests for its default seed")


def main() -> int:
    benchmark_json()
    gate_and_trace()
    tamper_each_suite()
    tamper_run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
