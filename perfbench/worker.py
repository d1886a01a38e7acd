"""One benchmark sample in a fresh interpreter.

Reads a job (JSON on stdin) after timing the import of `zpmeasures`, so the
import pays the same cold start a user's invocation pays.  Runs each argv
through `zpmeasures.cli.main` in this process, capturing the report that
would go to stdout, and prints one JSON result line.

    python3 perfbench/worker.py < job.json
    job: {"argvs": [[...], ...], "trace": false, "setup_only": false}
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

t0 = time.perf_counter()
import zpmeasures  # noqa: E402
import zpmeasures.cli  # noqa: E402
setup_s = time.perf_counter() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    job = json.loads(sys.stdin.read())
    if not os.path.abspath(zpmeasures.__file__).startswith(SRC + os.sep):
        print(f"worker: imported zpmeasures from {zpmeasures.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out = {"setup_s": setup_s}
    if job.get("setup_only"):
        print(json.dumps(out))
        return 0
    tracer = None
    if job.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    runs = []
    start = time.perf_counter()
    for argv in job["argvs"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = zpmeasures.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
        runs.append({"argv": argv, "rc": rc, "report": buf.getvalue()})
    out["verdict_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["runs"] = runs
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
