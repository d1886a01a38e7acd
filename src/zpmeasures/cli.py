"""Command-line front end: `verify` runs named suites, `emit` serializes
measures, transforms, series and octagon factors.

Exit codes: 0 all checks pass, 1 an identity failed, 2 invalid input (an
unwritable `--out` too), 3 an internal error (any exception that escaped a
command, MemoryError and a ValueError raised inside a suite included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import classical, magnus, octagon
from .measures import iwasawa_P, transform_F
from .padic import PrimeContext
from .suites import SUITES, RunConfig, run_suite

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3

# verify option -> (what it sets, the suites that read it); any other use exits 2
VERIFY_READERS = {
    "--n": ("sets the octagon level", ("octagon",)),
    "--sigma-rep": ("sets the octagon residue", ("octagon", "all")),
    "--nmax": ("sets the deepest level", ("measures", "transforms", "magnus", "octagon", "all")),
    "--degree": ("sets the series degree", ("magnus", "all")),
    "--terms": ("sets the transform terms", ("transforms", "all")),
    "--mod-exp": ("sets the congruence exponent", ("measures", "all")),
    "--seed": ("seeds the random data", ("measures", "transforms", "magnus", "corrections", "all")),
}


def at_least(low: int):
    """argparse type for counts, levels and degrees: an int >= low."""
    def bounded(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return bounded


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zpmeasures",
                                 description="exact p-adic measure and octagon checks")
    sub = ap.add_subparsers(dest="command")

    # an option the user leaves out is not set: RunConfig holds every default
    v = sub.add_parser("verify", help="run a verification suite",
                       argument_default=argparse.SUPPRESS)
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--p", type=int)
    v.add_argument("--nmax", type=int)
    v.add_argument("--n", type=int, help="octagon suite only: level (default --nmax)")
    v.add_argument("--sigma-rep", type=int)
    # the magnus suite multiplies pairs of letters, so degree 1 truncates them away
    v.add_argument("--degree", type=at_least(2))
    v.add_argument("--terms", type=at_least(0))
    v.add_argument("--mod-exp", type=at_least(1))
    v.add_argument("--seed", type=int)
    v.add_argument("--format", choices=("text", "json", "csv"), default="text")
    v.add_argument("--out", default=None)
    v.add_argument("--tamper", action="store_true", help="inject one fault (test hook)")

    e = sub.add_parser("emit", help="serialize an object")
    e.add_argument("object", choices=("measure", "iwasawa", "f-series",
                                      "nc-series", "octagon-factor"))
    e.add_argument("--p", type=int, default=3)
    e.add_argument("--nmax", type=int, default=3)
    e.add_argument("--n", type=at_least(0), default=1)
    e.add_argument("--level", type=at_least(0), default=None)
    e.add_argument("--terms", type=at_least(0), default=6)
    e.add_argument("--degree", type=at_least(0), default=3)
    e.add_argument("--sigma-rep", type=int, default=1)
    e.add_argument("--measure", default="dirac",
                   choices=("dirac", "M", "E1", "N2", "D2"))
    e.add_argument("--c", default="7")
    e.add_argument("--a", default="0")
    e.add_argument("--word", default=None)
    e.add_argument("--factor", default="A", choices=list("ABCDEFGHJ"))
    e.add_argument("--format", default="json", help="json, or csv for a measure")
    e.add_argument("--out", default=None)
    return ap


def _writable(path: str) -> bool:
    """Whether `open(path, "w")` can succeed: no directory, in a writable folder."""
    folder = os.path.dirname(path) or "."
    return not os.path.isdir(path) and os.path.isdir(folder) and \
        os.access(path if os.path.exists(path) else folder, os.W_OK)


def _write(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left: send the flush at exit to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _build_measure(args, ctx: PrimeContext):
    if args.measure == "dirac":
        point = [Fraction(x) for x in args.a.split(",")]
        return classical.make_dirac(point, ctx)
    if args.measure == "M":
        return classical.make_M(Fraction(args.c), ctx)
    if args.measure == "E1":
        return classical.make_E1(Fraction(args.c), ctx)
    if args.measure == "N2":
        return classical.make_N2(Fraction(args.c), ctx)
    if args.measure == "D2":
        level = min(ctx.n_max, 2)
        word = magnus.parse_word(args.word or "[x,y0]", PrimeContext(ctx.p, level), level)
        return classical.make_D2(word)
    raise ValueError(f"unknown measure {args.measure}")


def cmd_verify(args) -> int:
    given = vars(args)  # the options the user gave, and suite, format, out
    try:
        for flag, (what, readers) in VERIFY_READERS.items():
            if flag[2:].replace("-", "_") in given and args.suite not in readers:
                *head, last = [s for s in readers if s != "all"]
                listed = f"{', '.join(head)} and {last} suites" if head else f"{last} suite"
                tail = " and all" if "all" in readers else ""
                raise ValueError(f"{flag} {what} and applies to the {listed}{tail} only")
        fields = {k: v for k, v in given.items() if k in RunConfig._fields}
        if "n" in given or "nmax" in given:  # --n, when given, is the octagon's level
            fields["n_max"] = given.get("n", given.get("nmax"))
        cfg = RunConfig(**fields)
        cfg.ctx()  # validate p, bounds
        if cfg.sigma_rep is not None:
            octagon.check_config(cfg.p, cfg.n_max, cfg.sigma_rep)
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_USAGE
    reports = run_suite(cfg)  # a ValueError from here on is a fault of the program
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
    elif args.format == "csv":
        text = "\n".join(r.to_csv() for r in reports)
    else:
        text = "\n".join(r.to_text() for r in reports)
    _write(text, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_emit(args) -> int:
    try:
        if args.format != "json" and (args.format, args.object) != ("csv", "measure"):
            raise ValueError(f"emit {args.object} has no --format {args.format}")
        depth = max(args.nmax, args.level or 0)
        ctx = PrimeContext(args.p, depth)
        if args.object == "measure":
            mu = _build_measure(args, ctx)
            if args.format == "csv":
                text = "\n".join(mu.csv_lines())
            else:
                text = json.dumps({"dim": mu.dim, "denom_bound": mu.denom_bound,
                                   "rows": list(mu.csv_lines())[1:]},
                                  sort_keys=True, indent=2)
        elif args.object in ("iwasawa", "f-series"):
            mu = _build_measure(args, ctx)
            level = args.level if args.level is not None else mu.n_max
            fn = iwasawa_P if args.object == "iwasawa" else transform_F
            pt = fn(mu, args.terms, level)
            text = json.dumps(pt.to_json_dict(), sort_keys=True, indent=2)
        elif args.object == "nc-series":
            if not args.word:
                raise ValueError("--word is required for nc-series")
            wctx = PrimeContext(args.p, max(args.n, 1))
            word = magnus.parse_word(args.word, wctx, args.n)
            series = magnus.embed_E(word, args.degree)
            text = json.dumps(series.to_json_dict(), sort_keys=True, indent=2)
        elif args.object == "octagon-factor":
            fac = octagon.build_factor(args.factor, args.p, args.n, args.sigma_rep)
            terms = [{"mono": magnus.mono_name(m), "poly": str(c)}
                     for m, c in sorted(fac.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))]
            text = json.dumps({"factor": args.factor,
                               "config": {"p": args.p, "n": args.n, "s": args.sigma_rep},
                               "terms": terms}, sort_keys=True, indent=2)
        else:
            raise ValueError(f"unknown object {args.object}")
    except (ValueError, ZeroDivisionError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_USAGE
    _write(text, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    words = list(sys.argv[1:] if argv is None else argv)
    # argparse reads -1/3 (unlike -2) as an option, so attach it: --c=-1/3
    for i in range(len(words) - 1, 0, -1):
        if words[i - 1] in ("--c", "--a") and words[i][:1] == "-" and words[i][1:2].isdigit():
            words[i - 1:i + 1] = [words[i - 1] + "=" + words[i]]
    args = ap.parse_args(words)
    command = {"verify": cmd_verify, "emit": cmd_emit}.get(args.command)
    if command is None:
        ap.print_help()
        return EXIT_USAGE
    if args.out and not _writable(args.out):  # refused before any work is done
        print(f"invalid input: --out {args.out} cannot be opened for writing", file=sys.stderr)
        return EXIT_USAGE
    try:
        return command(args)
    except Exception as err:  # a fault of the program, never a failed identity
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
