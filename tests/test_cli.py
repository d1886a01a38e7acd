import hashlib
import importlib.util
import itertools
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import zpmeasures
from zpmeasures import cli, magnus, octagon, suites
from zpmeasures.measures import LevelFamily
from zpmeasures.cli import EXIT_FAIL, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from zpmeasures.suites import RunConfig, run_suite

from levelref import raised
from reportref import first_failure
from test_faults import wrong_e1


def run(argv):
    return main(argv)


def test_verify_octagon_ok(capsys):
    assert run(["verify", "octagon", "--p", "3", "--n", "1", "--sigma-rep", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS octagon" in out


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "nosuchsuite"])
    assert exc.value.code == EXIT_USAGE


def test_verify_invalid_prime_exits_2(capsys):
    assert run(["verify", "measures", "--p", "6"]) == EXIT_USAGE


@pytest.mark.parametrize("suite,args", [
    ("measures", ["--p", "3", "--nmax", "3"]),
    ("magnus", ["--p", "2", "--nmax", "2"]),
    ("octagon", ["--p", "3", "--n", "1", "--sigma-rep", "1"]),
    ("transforms", ["--p", "5", "--nmax", "2", "--terms", "4"]),
    ("corrections", ["--p", "3"]),
])
def test_tamper_fails_each_suite(suite, args, capsys):
    assert run(["verify", suite] + args) == EXIT_OK
    capsys.readouterr()
    assert run(["verify", suite] + args + ["--tamper"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_tamper_pinpoints_failure():
    cfg = RunConfig(p=3, n_max=3, suite="measures", tamper=True)
    report = run_suite(cfg)[0]
    failure = first_failure(report)
    assert failure is not None
    assert "level=" in failure.detail and "point=" in failure.detail


def test_failed_signed_symmetrization_names_its_miss(monkeypatch):
    real = suites._rho_and_beta2

    def perturbed(rng, cfg, c):  # beta2 off by p at one level-1 point
        rho, beta2 = real(rng, cfg, c)
        return rho, raised(beta2, 1, (1, 2), cfg.p)

    monkeypatch.setattr(suites, "_rho_and_beta2", perturbed)
    report = run_suite(RunConfig(p=5, n_max=2, suite="measures"))[0]
    failure = first_failure(report)
    assert failure.name == "signed-symmetrization:c=51"
    assert failure.detail == \
        "group sum vs square, level 2 mod p^3; level=1 point=(1, 2) valuation=1"


def test_failed_transforms_checks_name_their_miss(monkeypatch):
    # one coefficient off by 1 in each transform the four checks read
    def off_by_one(fn, exp):
        def perturbed(*args):
            out = fn(*args)
            if out.dim == len(exp):
                out.coeffs[exp] = out.coefficient(exp) + 1
            return out
        return perturbed

    monkeypatch.setattr(suites, "iwasawa_P", off_by_one(suites.iwasawa_P, (2,)))
    monkeypatch.setattr(suites, "transform_F", off_by_one(suites.transform_F, (1,)))
    monkeypatch.setattr(suites, "iwasawa_tensor", off_by_one(suites.iwasawa_tensor, (0, 1)))
    report = run_suite(RunConfig(p=5, n_max=2, terms=3, suite="transforms"))[0]
    failed = {c.name.split(":")[0]: c.detail for c in report.checks if not c.passed}
    assert sorted(failed) == ["e1-moments", "exp-transform-two-routes", "interpolation",
                              "symmetrized-transform"]
    assert failed["e1-moments"].startswith("moment k=2 off: got=")
    assert failed["exp-transform-two-routes"].startswith("coefficient k=1 off: got=")
    assert failed["symmetrized-transform"].startswith("coefficient (0, 1) off: got=")
    for detail in failed.values():
        fields = dict(item.split("=", 1) for item in detail.split(": ", 1)[1].split())
        assert list(fields) == ["got", "want", "guarantee", "valuation"]
        assert int(fields["valuation"]) < int(fields["guarantee"])
        assert Fraction(fields["got"]) != Fraction(fields["want"])


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "magnus", "--p", "2", "--nmax", "2", "--seed", "7",
            "--format", "json"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload[0]["config"]["seed"] == 7


def test_emit_measure_csv(capsys):
    assert run(["emit", "measure", "--measure", "dirac", "--a", "2",
                "--p", "3", "--nmax", "2", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,a_1,value"
    assert "2,2,1" in out


def test_emit_iwasawa_json(capsys):
    assert run(["emit", "iwasawa", "--measure", "M", "--c", "7", "--p", "3",
                "--nmax", "4", "--level", "4", "--terms", "6"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 1 and payload["terms"] == 6
    first = payload["coeffs"][0]
    assert first["exp"] == [0] and first["value"] == "6" and first["guarantee"] == 4


def test_emit_nc_series(capsys):
    assert run(["emit", "nc-series", "--word", "[y0,y1]", "--p", "2",
                "--n", "1", "--degree", "3"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {"mono": "Y0.Y1", "value": "1"} in payload["terms"]


def test_emit_octagon_factor(capsys):
    assert run(["emit", "octagon-factor", "--factor", "A", "--p", "3",
                "--n", "1", "--sigma-rep", "2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    monos = {row["mono"]: row["poly"] for row in payload["terms"]}
    assert monos["Y1"] == "1*a_1"


def test_emit_rejects_bad_word(capsys):
    assert run(["emit", "nc-series", "--word", "y9 q", "--p", "2", "--n", "1"]) == EXIT_USAGE


def test_zero_power_is_the_identity(capsys):
    args = ["--p", "3", "--n", "1", "--degree", "2"]
    assert run(["emit", "nc-series", "--word", "y0 y0^-1"] + args) == EXIT_OK
    want = capsys.readouterr().out
    for word in ("x^0", "x^-0"):
        assert run(["emit", "nc-series", "--word", word] + args) == EXIT_OK
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("word", ["", "*", "[,]"])
def test_emit_rejects_text_naming_no_generator(word, capsys):
    assert run(["emit", "nc-series", "--word", word, "--p", "3", "--n", "1",
                "--degree", "2"]) == EXIT_USAGE


def test_emit_rejects_bad_rational(capsys):
    assert run(["emit", "iwasawa", "--measure", "M", "--c", "x/y",
                "--p", "3", "--nmax", "2"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["emit", "iwasawa", "--measure", "M", "--c", "7", "--p", "3", "--nmax", "2", "--format", "csv"],
    ["emit", "measure", "--measure", "M", "--c", "7", "--p", "3", "--nmax", "2",
     "--format", "text"]], ids=["csv-for-a-transform", "text-for-a-measure"])
def test_emit_refuses_a_format_it_would_ignore(argv, capsys):
    # emit writes JSON, or CSV for a measure; any other --format is bad input
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid input: emit {argv[1]} has no --format")


def test_emit_d2_from_word(capsys):
    assert run(["emit", "measure", "--measure", "D2", "--word", "[x,y0]",
                "--p", "3", "--nmax", "2", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,a_1,a_2,value"
    # D2's tables reach --nmax, so its transform is read at the top level
    assert run(["emit", "iwasawa", "--measure", "D2", "--nmax", "3", "--level", "3"]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["emit", "iwasawa", "--measure", "M", "--terms", "-1"],
    ["emit", "iwasawa", "--measure", "M", "--level", "-1"],
    ["emit", "nc-series", "--word", "[y0,y1]", "--p", "2", "--n", "-1"],
    ["emit", "nc-series", "--word", "x", "--degree", "-1"],
    ["verify", "transforms", "--p", "5", "--terms", "-1"],
    ["verify", "measures", "--mod-exp", "0"],
])
def test_negative_counts_rejected_at_boundary(argv, capsys):
    # each value is one below the least its option accepts
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"must be >= {int(argv[-1]) + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["all", "octagon"])
def test_bad_sigma_rep_rejected_before_any_suite_runs(suite, capsys):
    start = time.monotonic()
    assert run(["verify", suite, "--p", "5", "--nmax", "3", "--sigma-rep", "5"]) == EXIT_USAGE
    assert time.monotonic() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "s must be a unit residue" in err


@pytest.mark.parametrize("suite", ["measures", "magnus", "transforms", "corrections"])
def test_sigma_rep_rejected_outside_octagon_and_all(suite, monkeypatch, capsys):
    # the residue would otherwise be dropped in silence
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    assert run(["verify", suite, "--p", "3", "--nmax", "1", "--sigma-rep", "5"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert "--sigma-rep sets the octagon residue" in err


def test_all_keeps_its_sigma_rep(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: ran.append(cfg) or [])
    assert run(["verify", "all", "--p", "3", "--nmax", "1", "--sigma-rep", "2"]) == EXIT_OK
    assert [cfg.sigma_rep for cfg in ran] == [2]


@pytest.mark.parametrize("suite", ["all", "measures"])
def test_octagon_level_rejected_outside_the_octagon_suite(suite, monkeypatch, capsys):
    # --n would otherwise be dropped in silence: `all` ran the octagon at --nmax
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    assert run(["verify", suite, "--p", "2", "--nmax", "1", "--n", "2"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert "--n sets the octagon level" in err


# the suites that read each verify option; any other use exits 2
READ_BY = {
    "--p": set(suites.SUITES),
    "--nmax": {"measures", "transforms", "magnus", "octagon", "all"},
    "--n": {"octagon"},
    "--sigma-rep": {"octagon", "all"},
    "--degree": {"magnus", "all"},
    "--terms": {"transforms", "all"},
    "--mod-exp": {"measures", "all"},
    "--seed": {"measures", "transforms", "magnus", "corrections", "all"},
    "--tamper": set(suites.SUITES),
}
# option -> (the words after it, the RunConfig field it sets, the value it sets)
GIVEN = {
    "--p": (["5"], "p", 5),
    "--nmax": (["2"], "n_max", 2),
    "--n": (["2"], "n_max", 2),
    "--sigma-rep": (["2"], "sigma_rep", 2),
    "--degree": (["4"], "degree", 4),
    "--terms": (["4"], "terms", 4),
    "--mod-exp": (["4"], "mod_exp", 4),
    "--seed": (["5"], "seed", 5),
    "--tamper": ([], "tamper", True),
}


@pytest.mark.parametrize("suite, option", list(itertools.product(suites.SUITES, GIVEN)))
def test_a_verify_option_reaches_the_config_or_is_refused(suite, option, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: ran.append(cfg) or [])
    words, field, value = GIVEN[option]
    code = run(["verify", suite, option, *words])
    out, err = capsys.readouterr()
    if suite in READ_BY[option]:
        assert code == EXIT_OK and err == ""
        assert ran == [RunConfig(suite=suite, **{field: value})]
    else:  # an option the suite never reads would be dropped in silence
        assert code == EXIT_USAGE and ran == [] and out == ""
        assert err.startswith(f"invalid input: {option} ") and err.endswith(" only\n")


@pytest.mark.parametrize("suite", suites.SUITES)
def test_verify_with_no_options_runs_the_config_defaults(suite, monkeypatch):
    # the parser sets no RunConfig field the user left out: RunConfig holds every default
    args = cli.build_parser().parse_args(["verify", suite])
    assert set(vars(args)) & set(RunConfig._fields) == {"suite"}
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: ran.append(cfg) or [])
    assert run(["verify", suite]) == EXIT_OK
    assert ran == [RunConfig(suite=suite)]


@pytest.mark.parametrize("argv", [["--n", "1", "--nmax", "2"], ["--nmax", "2", "--n", "1"]])
def test_the_octagon_level_and_nmax_together_are_refused(argv, monkeypatch, capsys):
    # both set the octagon's level, so one of them would be dropped in silence
    ran = []
    monkeypatch.setattr(cli, "run_suite", ran.append)
    assert run(["verify", "octagon", *argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert err == "invalid input: --n and --nmax both set the octagon level: give one\n"


OBJECTS = ("measure", "iwasawa", "f-series", "nc-series", "octagon-factor")
MEASURED = {"measure", "iwasawa", "f-series"}
MEASURES = ("dirac", "M", "E1", "N2", "D2")
# the objects and measures that read each emit option; a run with none of them exits 2
EMIT_READ_BY = {
    "--p": set(OBJECTS),
    "--nmax": MEASURED,
    "--n": {"nc-series", "octagon-factor"},
    "--level": {"iwasawa", "f-series"},
    "--terms": {"iwasawa", "f-series"},
    "--degree": {"nc-series"},
    "--sigma-rep": {"octagon-factor"},
    "--measure": MEASURED,
    "--c": {"M", "E1", "N2"},
    "--a": {"dirac"},
    "--word": {"D2", "nc-series"},
    "--factor": {"octagon-factor"},
    "--format": set(OBJECTS),
    "--out": set(OBJECTS),
}
# option -> a value unlike its default; --level stays below the default --nmax of 3
EMIT_GIVEN = {"--p": "5", "--nmax": "2", "--n": "2", "--level": "2", "--terms": "3",
              "--degree": "2", "--sigma-rep": "2", "--measure": "M", "--c": "5", "--a": "1",
              "--word": "[x,y1]", "--factor": "B", "--format": "json", "--out": None}
# the read options that leave the output as it is: json is every object's
# default format, and a word's series does not depend on p (p bounds its letters)
UNSEEN = {(obj, "--format") for obj in OBJECTS} | {("nc-series", "--p")}


@pytest.mark.parametrize("obj, option", list(itertools.product(OBJECTS, EMIT_GIVEN)))
def test_an_emit_option_reaches_the_run_or_is_refused(obj, option, tmp_path, monkeypatch,
                                                      capsys):
    base = ["emit", obj]
    run_by = {obj}  # the object, and a measured object's measure
    if obj == "nc-series":
        base += ["--word", "x"]
    elif obj in MEASURED and option in ("--c", "--word"):  # the measures that read them
        base += ["--measure", "M" if option == "--c" else "D2"]
        run_by.add(base[-1])
    elif obj in MEASURED:
        run_by.add("dirac")
    target = tmp_path / "emitted.json"
    argv = base + [option, EMIT_GIVEN[option] or str(target)]
    if run_by & EMIT_READ_BY[option]:
        assert run(base) == EXIT_OK
        default = capsys.readouterr().out
        assert run(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        if option == "--out":
            assert out == "" and target.read_text() == default
        elif (obj, option) not in UNSEEN:
            assert out != default
    else:  # an option the object never reads would be dropped in silence
        def never(*args):
            pytest.fail(f"emit {obj} built an object although {option} was refused")

        for owner, name in ((cli, "_build_measure"), (cli.magnus, "parse_word"),
                            (cli.octagon, "build_factor")):
            monkeypatch.setattr(owner, name, never)
        assert run(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and not target.exists()
        assert err.startswith(f"invalid input: {option} ") and err.endswith(" only\n")


def test_emit_refusal_names_the_objects_that_read_the_option(capsys):
    argv = ["emit", "octagon-factor", "--factor", "B", "--terms", "9", "--c", "5"]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == ("invalid input: --terms sets the transform terms "
                                       "and applies to the iwasawa and f-series objects only\n")


@pytest.mark.parametrize("measure, option", list(itertools.product(
    MEASURES, ("--c", "--a", "--word"))))
def test_an_emit_option_reaches_its_measure_or_is_refused(measure, option, monkeypatch,
                                                          capsys):
    argv = ["emit", "measure", "--measure", measure, "--p", "2", "--nmax", "2",
            option, {"--c": "5", "--a": "1", "--word": "[x,y1]"}[option]]
    if measure in EMIT_READ_BY[option]:
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
    else:  # the measure never reads it, so it would be dropped in silence
        monkeypatch.setattr(cli, "_build_measure", lambda *args: pytest.fail("built"))
        assert run(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"invalid input: {option} ")


@pytest.mark.parametrize("argv, err", [
    (["emit", "iwasawa", "--measure", "dirac", "--c", "5"],
     "--c sets the c of M, E1 and N2 and applies to the M, E1 and N2 measures only"),
    (["emit", "nc-series", "--word", "x", "--a", "1"],
     "--a sets the Dirac point and applies to the dirac measure only"),
    (["emit", "octagon-factor", "--word", "x"],
     "--word sets the word and applies to the nc-series object and D2 measure only"),
    (["emit", "measure", "--level", "2"], "--level sets the transform level and "
     "applies to the iwasawa and f-series objects only"),
    # the tables reach --nmax and no further
    (["emit", "iwasawa", "--nmax", "2", "--level", "4"],
     "evaluation level 4 out of stored range 0..2"),
], ids=["c-for-dirac", "a-for-a-series", "word-for-a-factor", "level-for-a-measure",
        "level-past-nmax"])
def test_emit_refuses_what_its_run_never_reads(argv, err, capsys):
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"invalid input: {err}\n")


@pytest.mark.parametrize("obj", cli.OBJECTS)
def test_emit_refuses_a_p_that_is_not_prime(obj, capsys):
    argv = ["emit", obj, "--p", "4"] + ["--word", "x"] * (obj == "nc-series")
    assert run(argv) == EXIT_USAGE
    err = "p must be prime" if obj == "octagon-factor" else "p = 4 is not prime"
    assert capsys.readouterr() == ("", f"invalid input: {err}\n")


def test_emit_nc_series_without_a_word_exits_2(capsys):
    assert run(["emit", "nc-series", "--p", "3", "--n", "1"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "invalid input: --word is required for nc-series\n"


def load_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_invocations() -> list:
    """The argv of each `zpmeasures ...` line in the README's sh blocks, comments dropped."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in text.split("```sh\n")[1:]
             for line in block.partition("```")[0].splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("zpmeasures ")]


@pytest.mark.parametrize("source", ["octagon-sweep", "tables-transforms", "words-integrands",
                                    "README.md"])
def test_the_cli_accepts_every_benchmark_invocation(source, monkeypatch, capsys):
    # a CLI change must never make the benchmark refuse its own invocations, nor
    # the README show one the CLI refuses
    if source == "README.md":
        argvs = {tuple(argv) for argv in readme_invocations()}
        assert argvs
    else:
        workloads = load_workloads()
        assert source in workloads.WORKLOADS
        argvs = {tuple(argv) for seed in range(10) for argv in workloads.generate(source, seed)}
    monkeypatch.setattr(cli, "run_suite", lambda cfg: [])
    for argv in sorted(argvs):
        assert run(list(argv)) == EXIT_OK, argv
        assert capsys.readouterr().err == ""


def test_degree_below_two_rejected_at_boundary(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "magnus", "--degree", "1"])
    assert exc.value.code == EXIT_USAGE
    assert "must be >= 2" in capsys.readouterr().err


def test_transforms_valid_at_p2(capsys):
    assert run(["verify", "transforms", "--p", "2", "--nmax", "2"]) == EXIT_OK
    assert "PASS interpolation:M(1/3)" in capsys.readouterr().out


@pytest.mark.parametrize("spaced,joined", [
    (["--measure", "M", "--c", "-1/3"], ["--measure", "M", "--c=-1/3"]),
    (["--measure", "dirac", "--a", "-1/2,3"], ["--measure", "dirac", "--a=-1/2,3"]),
])
def test_negative_rational_values(spaced, joined, capsys):
    common = ["emit", "measure", "--p", "5", "--nmax", "1", "--format", "csv"]
    assert run(common + joined) == EXIT_OK
    expected = capsys.readouterr().out
    assert run(common + spaced) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_inconsistent_degree1_relations_exit_1(monkeypatch, capsys):
    # a product whose degree-1 relations contradict the reflection relations
    # fails an identity (exit 1, pinpointed); it is not invalid input
    real = octagon.octagon_product

    def tampered(p, n, s, *factors):
        prod = real(p, n, s, *factors)
        prod.add_term((1,), octagon.SymPoly.const(1))
        return prod

    monkeypatch.setattr(octagon, "octagon_product", tampered)
    assert run(["verify", "octagon", "--p", "3", "--n", "1", "--sigma-rep", "1"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "FAIL deg1-from-reflection:s=1  [nonzero at [1]]" in out
    assert err == ""


def test_a_wrong_e1_fails_the_reflection_identity_exit_1(monkeypatch, capsys):
    # a wrong E_{1,chi} leaves a constant reflection relation: a failed
    # identity, pinpointed by its point, not an internal error
    wrong_e1(monkeypatch)
    assert run(["verify", "octagon", "--p", "3", "--n", "1", "--sigma-rep", "1"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert "FAIL degree2-residuals:s=1  [reflection: nonzero at [2]]" in out
    assert err == ""


@pytest.mark.parametrize("command", [
    "verify octagon --p 3 --n 2 --sigma-rep 1 --format json",
    "verify octagon --p 3 --n 1 --sigma-rep 1 --tamper --format json",
    "verify octagon --p 3 --n 2 --sigma-rep 1 --tamper --format json"])
def test_report_bytes_do_not_depend_on_the_hash_seed(command):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zpmeasures.__file__)))
    outs = []
    for seed in ("0", "12345"):
        proc = subprocess.run([sys.executable, "-m", "zpmeasures.cli"] + shlex.split(command),
                              capture_output=True, env=dict(env, PYTHONHASHSEED=seed), timeout=300)
        assert proc.returncode == (EXIT_FAIL if "--tamper" in command else EXIT_OK)
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]


def test_closed_pipe_ends_quietly():
    # the table is ~400 kB, far more than a pipe holds, so the writer is still
    # writing when the reader closes its end after two lines
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zpmeasures.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "zpmeasures.cli", "emit", "measure",
                             "--measure", "M", "--c=-1/3", "--p", "5", "--nmax", "6",
                             "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert head == [b"n,a_1,value\n", b"0,0,-4/3\n"]
    assert err == b""
    assert proc.returncode == EXIT_OK


@pytest.mark.parametrize("target, argv", [
    ("run_suite", ["verify", "measures", "--p", "31", "--nmax", "3"]),
    ("_build_measure", ["emit", "measure", "--measure", "N2", "--p", "31", "--nmax", "3"])])
def test_escaped_exception_exits_3_not_1(target, argv, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("level tables too large")

    monkeypatch.setattr(cli, target, exhausted)
    assert run(argv) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["internal error: MemoryError: level tables too large"]


def test_value_error_inside_a_suite_is_internal(monkeypatch, capsys):
    def boom(cfg):
        raise ValueError("boom")

    monkeypatch.setitem(suites.SUITE_RUNNERS, "measures", boom)
    assert run(["verify", "measures", "--p", "3", "--nmax", "1"]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["internal error: ValueError: boom"]


@pytest.mark.parametrize("module, builder, argv", [
    (magnus, "embed_E", ["emit", "nc-series", "--word", "x", "--p", "2", "--n", "1"]),
    (cli, "iwasawa_P", ["emit", "iwasawa", "--measure", "M", "--p", "3", "--nmax", "2"]),
    (cli, "transform_F", ["emit", "f-series", "--measure", "E1", "--p", "3", "--nmax", "2"]),
    (octagon, "build_factor", ["emit", "octagon-factor", "--p", "3", "--n", "1"]),
    (LevelFamily, "value", ["emit", "measure", "--measure", "N2", "--format", "csv"])])
def test_a_value_error_past_the_emit_input_checks_is_internal(module, builder, argv,
                                                             monkeypatch, capsys):
    # emit's inputs are checked before anything is built: a ValueError while
    # building or writing is a fault of the program, not invalid input
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(module, builder, boom)
    assert run(argv) == EXIT_INTERNAL
    assert capsys.readouterr() == ("", "internal error: ValueError: boom\n")


def test_emit_writes_numbers_past_the_interpreter_digit_cap(capsys):
    # 1/1600! and a 4400-digit c have more than the 4300 digits Python 3.11
    # converts by default; emit writes them whole
    assert run(["emit", "nc-series", "--word", "x", "--p", "2", "--n", "1",
                "--degree", "1600"]) == EXIT_OK
    terms = json.loads(capsys.readouterr().out)["terms"]
    assert terms[-1] == {"mono": ".".join(["X"] * 1600), "value": f"1/{math.factorial(1600)}"}
    c = 10 ** 4399 + 1
    assert run(["emit", "measure", "--measure", "M", "--c", str(c), "--p", "3", "--nmax", "1",
                "--format", "csv"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == f"0,0,{c - 1}"


@pytest.mark.parametrize("where", ["missing-folder", "folder"])
@pytest.mark.parametrize("argv, target", [
    (["verify", "measures", "--p", "3", "--nmax", "1"], "run_suite"),
    (["emit", "measure", "--measure", "M", "--p", "3", "--nmax", "1"], "_build_measure")])
def test_unwritable_out_rejected_before_any_work(argv, target, where, tmp_path,
                                                 monkeypatch, capsys):
    def never(*args):
        pytest.fail(f"{target} ran although --out cannot be written")

    monkeypatch.setattr(cli, target, never)
    out_path = tmp_path / "missing" / "x" if where == "missing-folder" else tmp_path
    assert run(argv + ["--out", str(out_path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"invalid input: --out {out_path} cannot be opened for writing"]


def test_out_in_the_working_directory_gets_the_stdout_bytes(tmp_path, monkeypatch, capsys):
    argv = ["verify", "measures", "--p", "3", "--nmax", "1"]
    assert run(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)  # a bare file name: its folder is "."
    assert run(argv + ["--out", "r.txt"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert (tmp_path / "r.txt").read_text() == stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # only what the import itself adds counts: a site hook may load modules first
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zpmeasures.__file__)))
    code = ("import sys; before = set(sys.modules); import zpmeasures.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "zpmeasures.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


# sha256 of stdout, pinned so a refactor cannot change report bytes unseen;
# the octagon-factor digest also pins the SymPoly constant term ("1*1").
REPORT_DIGESTS = {
    "verify octagon --p 3 --n 1 --format json":
        "540ff1d2fdc3087db86a72dcd704521581e46291bb3d7ce7bcad4e1f85b21927",
    "verify octagon --p 3 --n 1 --sigma-rep 1 --tamper --format json":
        "9ef893e4be2173debf776a448883a9ff60c62dbd4bfc963bed2ffb57a0d2a718",
    "verify octagon --p 7 --n 1 --format json":
        "3d90eedc9ca0cdbafddcc34287c3e18fc79bbc54dd493c0003eefef93a541741",
    "verify octagon --p 2 --n 2 --format json":
        "124e25701006587e08f73013b0c7af8e775a86b9ae1246d1e8765815d6c945b7",
    "verify octagon --p 3 --n 2 --sigma-rep 4 --tamper --format json":
        "1987076499a2d92e65c21585c4136a9bb9539cff1e99e1dd54caf5ee4f18d6f9",
    "verify octagon --p 3 --n 3 --sigma-rep 2 --format json":
        "d1af8ccb88507c13b8ce9b8774112dcb3cc84d497379ea5d024c8e583c7730e5",
    "verify octagon --p 5 --n 1 --format json":
        "880337e26eac76ea52f7eafd74ac117dd05e215ffde9f4f7de26e62556f4a702",
    "emit octagon-factor --factor C --p 3 --n 1 --sigma-rep 2":
        "f19658c6a3ffffabee956c97a9d4d4d00391cfe53a16c82b96bdcbc52440c822",
    # the series the C, E and G derivations substitute into
    "emit octagon-factor --factor A --p 3 --n 2 --sigma-rep 1":
        "53e1c85efb974d1f8dae8b1a78da5f8783a1d7e2409d0bbd6c2de8d6648343ac",
    # the chi = 1 comparison at n = 2, and half and t^2 coefficients of D
    "verify octagon --p 3 --n 2 --sigma-rep 1 --format json":
        "3b354d5a8886a9b03728a97e588a0c12973a84a7d7e10104e8d144f0ea4a7bdc",
    # the degree-2 residuals and the chi = 1 rows failing at n = 2
    "verify octagon --p 3 --n 2 --sigma-rep 1 --tamper --format json":
        "1e67554ae9fbbc6e7b09999c8cca93f27f6598a0578c7096c7d952272afaf4aa",
    # the full width-9 sweep: one C re-derivation reported at all six residues
    "verify octagon --p 3 --n 2 --format json":
        "e677f574409a7604cbf717a44e9f1857d8d8de9941c0f5a11636a675ff18c5bf",
    "verify octagon --p 2 --n 3 --format json":
        "8a7ba0a93a8bae4b9aab680b840e3e732149881fe3fb74fcaefc5dab240ded66",
    "emit octagon-factor --factor D --p 5 --n 1 --sigma-rep 3":
        "a37cfc8408c3d61105eb5b7ef5e99a372fdf460ab3f1a44632665ace01b82b4a",
    'emit nc-series --word "[x,y0]*y1" --p 3 --n 1 --degree 3':
        "717afe528608511365cb56e9c9f899472147023eef81d3879259c748356bbaba",
    "verify magnus --p 2 --nmax 2 --seed 7 --format json":
        "8718b1c434d08945c25ef1ba1588e010aa2471861800908f0613224fcb0bd03f",
    "verify transforms --p 5 --nmax 2 --seed 2 --format json":
        "5d466c862cb01d6cdea55e0168e3bc70d584131527af360d9875da8b76a1ad10",
    "verify transforms --p 3 --nmax 2 --seed 1 --tamper --format json":
        "e47c3472cee0ef173919f4b4463c00928e246d0def80a119faad194d64b5427a",
    "emit iwasawa --measure N2 --c 7 --p 3 --nmax 2 --terms 4":
        "552b626a513bcddb1ce38868abd4c82a13582aa40315e504ec2e130d25281b28",
    "emit f-series --measure E1 --c 2 --p 5 --nmax 3 --terms 5":
        "63c8c481c32d8744fb5517ad298d555c25e3bad6a8cec51145210b07d9fcca83",
    "verify corrections --p 3 --format json":
        "8b7985169202e266e3988180dc135f03f8c9d4416938067c275f2412e3656bbd",
    "verify corrections --p 3 --tamper --format json":
        "2dcf88a0b1b5987e100f23ce15d1030d4c127ad64212f4a436c93174e3b9ee3d",
    "verify corrections --p 2 --seed 93 --format json":
        "f1587607e8a490cf7d980716746559ee3e19edb7571250120bcc9eef92fdf472",
    "verify corrections --p 2 --seed 93 --tamper --format json":
        "4ab9fe558c73f6eb5c958a96fadc7425bc2f1de5f4bb9c4ed3268b26c2312221",
    "verify corrections --p 5 --format json":
        "21ba2e7285c5aa295153c52ac74d3ed999f8bb0c5dadfe9d7c4463638b727335",
    # the longest projected words of the words-integrands benchmark
    "verify magnus --p 3 --nmax 3 --seed 32 --format json":
        "4701d9d029233a8d637c78b14daa690d9fb23e5f70b170213e391e9c903a5c68",
    # powers of generators and of a commutator through the parser
    'emit nc-series --word "x^5*y1^-2*[x,y0]^2" --p 3 --n 1 --degree 3':
        "b8b5f49c57ef41ecfbc149a88a80dd697984dda4a80b3b1524d6fcad3f6f25eb",
    # y5 = y_{2 + 1*3} is projected to level 1 by conjugation with x
    'emit measure --measure D2 --word "[x,y5]*y0" --p 3 --nmax 2':
        "1eac10eb72919c5638f1744a8d646983b229d30ddc2aa6789a95c426c5cd527f",
    "verify measures --p 5 --nmax 3 --seed 23 --format json":
        "57302c53a9361c76c81828fd6d7ce5c81a4421109d288d168883566523122eb4",
    # p^2 divides c: the (0, p^n] threshold of M(c) at level 2
    "emit measure --measure M --c 9 --p 3 --nmax 3 --format csv":
        "7041694041c27feb39dd8b1735812d754ad3fd5d944154ae0330e2669bff0c98",
    "emit measure --measure N2 --c -2 --p 5 --nmax 2 --format csv":
        "26d4e504078b9a1dc73759f08d2cd5ce37cbff93041fd4bfcd05f8b954e2a4e6",
    "emit measure --measure E1 --c 1/2 --p 3 --nmax 3 --format csv":
        "140bfeeb7eca78b80ea93a422941ca418701ced427c4b3891161410ccdc4fa76",
    'emit measure --measure D2 --word "[[x,y1],y2]" --p 2 --nmax 3 --format csv':
        "85c46d944d1bdcfc2bc334304d457e8af4e59462d22a5647f30600e424e646dd",
    "emit measure --measure dirac --a 1,2 --p 5 --nmax 2 --format csv":
        "0ac8af5b8fdc74f2627dcb4910e31e3a9345eef0110b6f1fdbbe2c2b58a5b955",
    "emit measure --measure dirac --a=-1/2 --p 3 --nmax 3 --format csv":
        "2723f6fcb3468df21a0fc671e070f7458a40b50f4a20050df84f51711dc8bf70",
    # the level-table layer: the tables-transforms benchmark's three commands,
    # a failing distribution check, and json rows with denom_bound
    "verify measures --p 5 --nmax 2 --seed 0 --format json":
        "9bd7badbac21fdc93313f3195438169747833937a57e2393a802c1c1ea1107e9",
    "verify measures --p 3 --nmax 3 --seed 1 --tamper --format json":
        "7024fd5b312f17a8db46c0c415b9d0cd3b58c85cfa7132ad6fbb58e2778b5e3d",
    "verify transforms --p 5 --nmax 3 --seed 23 --format json":
        "976d20f19d43d7b1b72ecc7381a6ed994877b7078f22facc48dd4792370cf37d",
    "emit iwasawa --measure N2 --p 5 --nmax 3 --terms 6 --c 7":
        "4bec9dfd309d2b1f5ac27042cdade1c9040bd2064b65c1032345635a61b08c62",
    "emit measure --measure E1 --c 7 --p 5 --nmax 2 --format json":
        "2b24ae74b46aad7ffd52933ce4d3fef88a331e2bf31bc93b459db56bb4f2563a",
    # a Dirac mass at a point with a half-integral coordinate
    "emit measure --measure dirac --a 1/2,3 --p 3 --nmax 2":
        "917393b6c719425934bba035ca2b56f72577e11aff9b5fbdf356a1f76424659f",
}


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned(command, capsys):
    code = run(shlex.split(command))
    assert code == (EXIT_FAIL if "--tamper" in command else EXIT_OK)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == REPORT_DIGESTS[command]
