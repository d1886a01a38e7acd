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


def at_least(low: int):
    """argparse type for counts, levels and degrees: an int >= low."""
    def bounded(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return bounded


OBJECTS = ("measure", "iwasawa", "f-series", "nc-series", "octagon-factor")
MEASURED = OBJECTS[:3]  # the objects built from a --measure
MEASURES = ("dirac", "M", "E1", "N2", "D2")

# One table per command, option -> (argparse keywords, what it sets, the suites,
# objects or measures that read it), and command -> (help, positional, its choices,
# options).  A measured object's --measure is a reader too.  Given to a run no reader
# is part of, the first such option in table order exits 2.  The parser sets no
# option left out: `check_options` sets each "default" here that the run reads.
VERIFY_OPTIONS = {
    "--p": ({"type": int}, "sets the prime", SUITES),
    "--n": ({"type": int}, "sets the octagon level", ("octagon",)),
    "--sigma-rep": ({"type": int}, "sets the octagon residue", ("octagon", "all")),
    "--nmax": ({"type": int}, "sets the deepest level",
               ("measures", "transforms", "magnus", "octagon", "all")),
    # the magnus suite multiplies pairs of letters, so degree 1 truncates them away
    "--degree": ({"type": at_least(2)}, "sets the series degree", ("magnus", "all")),
    "--terms": ({"type": at_least(0)}, "sets the transform terms", ("transforms", "all")),
    "--mod-exp": ({"type": at_least(1)}, "sets the congruence exponent", ("measures", "all")),
    "--seed": ({"type": int}, "seeds the random data",
               ("measures", "transforms", "magnus", "corrections", "all")),
    "--format": ({"choices": ("text", "json", "csv"), "default": "text"},
                 "sets the report format", SUITES),
    "--out": ({"default": None}, "sets the report file", SUITES),
    "--tamper": ({"action": "store_true"}, "injects one fault (test hook)", SUITES),
}
EMIT_OPTIONS = {
    "--p": ({"type": int, "default": 3}, "sets the prime", OBJECTS),
    "--nmax": ({"type": int, "default": 3}, "sets the table depth", MEASURED),
    "--n": ({"type": at_least(0), "default": 1}, "sets the level n",
            ("nc-series", "octagon-factor")),
    "--level": ({"type": at_least(0)}, "sets the transform level", ("iwasawa", "f-series")),
    "--terms": ({"type": at_least(0), "default": 6}, "sets the transform terms",
                ("iwasawa", "f-series")),
    "--degree": ({"type": at_least(0), "default": 3}, "sets the series degree", ("nc-series",)),
    "--sigma-rep": ({"type": int, "default": 1}, "sets the octagon residue", ("octagon-factor",)),
    "--measure": ({"choices": MEASURES, "default": "dirac"}, "picks the measure", MEASURED),
    "--c": ({"default": "7"}, "sets the c of M, E1 and N2", ("M", "E1", "N2")),
    "--a": ({"default": "0"}, "sets the Dirac point", ("dirac",)),
    "--word": ({"default": None}, "sets the word", ("D2", "nc-series")),
    "--factor": ({"choices": tuple("ABCDEFGHJ"), "default": "A"}, "picks the octagon factor",
                 ("octagon-factor",)),
    "--format": ({"default": "json"}, "sets the format: json, or csv for a measure", OBJECTS),
    "--out": ({"default": None}, "sets the output file", OBJECTS),
}
COMMANDS = {"verify": ("run a verification suite", "suite", SUITES, VERIFY_OPTIONS),
            "emit": ("serialize an object", "object", OBJECTS, EMIT_OPTIONS)}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zpmeasures",
                                 description="exact p-adic measure and octagon checks")
    sub = ap.add_subparsers(dest="command")
    for command, (about, positional, choices, options) in COMMANDS.items():
        cp = sub.add_parser(command, help=about, argument_default=argparse.SUPPRESS)
        cp.add_argument(positional, choices=choices)
        for flag, (kw, what, _) in options.items():
            cp.add_argument(flag, help=what, **{k: v for k, v in kw.items() if k != "default"})
    return ap


def check_options(args) -> None:
    """Refuse an unwritable --out, then the first option given that no reader in the
    run reads; then set each default the run reads that the user left out."""
    _, noun, _, options = COMMANDS[args.command]
    given = set(vars(args))  # the options the user gave, and the command and its positional
    if "out" in given and args.out and not _writable(args.out):  # before any work is done
        raise ValueError(f"--out {args.out} cannot be opened for writing")
    run = {getattr(args, noun)}  # the suite or object, and a measured object's measure
    for flag, (kw, what, readers) in options.items():
        name = flag[2:].replace("-", "_")
        if run.isdisjoint(readers):
            if name not in given:
                continue
            listed = []
            for kind, names in ((noun, [r for r in readers if r not in MEASURES + ("all",)]),
                                ("measure", [r for r in readers if r in MEASURES])):
                if names:
                    *head, last = names
                    listed.append(f"{', '.join(head)} and {last} {kind}s" if head
                                  else f"{last} {kind}")
            listed += ["all"] * ("all" in readers)
            raise ValueError(f"{flag} {what} and applies to the {' and '.join(listed)} only")
        if name not in given and "default" in kw:
            setattr(args, name, kw["default"])
        if name == "measure":
            run.add(args.measure)


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
        return classical.make_dirac([Fraction(x) for x in args.a.split(",")], ctx)
    make = {"M": classical.make_M, "E1": classical.make_E1, "N2": classical.make_N2}
    if args.measure in make:
        return make[args.measure](Fraction(args.c), ctx)
    return classical.make_D2(magnus.parse_word(args.word or "[x,y0]", ctx.p, ctx.n_max))


def cmd_verify(args) -> int:
    try:
        check_options(args)
        given = vars(args)  # the options the user gave, and suite, format, out
        if "n" in given and "nmax" in given:
            raise ValueError("--n and --nmax both set the octagon level: give one")
        fields = {k: v for k, v in given.items() if k in RunConfig._fields}
        if "n" in given or "nmax" in given:
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
    else:
        text = "\n".join(r.to_csv() if args.format == "csv" else r.to_text() for r in reports)
    _write(text, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _terms(series, key: str) -> list:
    """A series' terms as {"mono", key} rows, shortest monomials first."""
    return [{"mono": magnus.mono_name(m), key: str(c)}
            for m, c in sorted(series.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))]


def cmd_emit(args) -> int:
    try:
        check_options(args)
        if args.format != "json" and (args.format, args.object) != ("csv", "measure"):
            raise ValueError(f"emit {args.object} has no --format {args.format}")
        if args.object in MEASURED:
            mu = _build_measure(args, PrimeContext(args.p, args.nmax))
        if args.object == "measure":
            rows = [",".join(["n"] + [f"a_{k + 1}" for k in range(mu.dim)] + ["value"])]
            rows += [",".join(map(str, (n, *a, table[a])))
                     for n, table in enumerate(mu.tables) for a in sorted(table)]
            payload = {"dim": mu.dim, "denom_bound": mu.denom_bound, "rows": rows[1:]}
        elif args.object in ("iwasawa", "f-series"):
            fn = iwasawa_P if args.object == "iwasawa" else transform_F
            P = fn(mu, args.terms, getattr(args, "level", mu.n_max))
            payload = {"dim": P.dim, "terms": P.terms,
                       "coeffs": [{"exp": list(e), "value": str(P.coeffs[e]),
                                   "guarantee": P.guarantees[e]} for e in sorted(P.coeffs)]}
        elif args.object == "nc-series":
            if not args.word:
                raise ValueError("--word is required for nc-series")
            word = magnus.parse_word(args.word, args.p, args.n)
            series = magnus.embed_E(word, args.degree)
            payload = {"level": series.level, "degree": series.degree,
                       "terms": _terms(series, "value")}
        else:  # octagon-factor
            fac = octagon.build_factor(args.factor, args.p, args.n, args.sigma_rep)
            payload = {"factor": args.factor, "terms": _terms(fac, "poly"),
                       "config": {"p": args.p, "n": args.n, "s": args.sigma_rep}}
        text = "\n".join(rows) if args.format == "csv" else \
            json.dumps(payload, sort_keys=True, indent=2)
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
    try:
        return command(args)
    except Exception as err:  # a fault of the program, never a failed identity
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
