"""`tools/bench_pairs.py`'s summary, on fixed numbers."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


BOUNDS = {"verdict_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


def side(verdicts, rss, failed=0, unscaled=None):
    return [{"w": {"verdict_s": v, "setup_s": 0.016, "peak_rss_mb": r,
                   "unscaled_verdict_s": unscaled, "failed": failed}}
            for v, r in zip(verdicts, rss, strict=True)]


def test_summary_of_four_pairs():
    parent = side([0.10, 0.12, 0.11, 0.13], [20.0, 21.0, 22.0, 23.0], failed=1)
    change = side([0.07, 0.08, 0.12, 0.06], [20.0, 20.5, 22.5, 23.0])
    got = bench_pairs.summarize(parent, change, BOUNDS)["w"]
    # lower in 3 of 4 pairs is short of 9 in 10: no gain, whatever the medians
    assert got["verdict_s"] == {
        "parent_median": 0.115, "change_median": 0.075, "change_over_parent": 0.6522,
        "parent_q1": 0.1075, "parent_q3": 0.1225, "parent_iqr": 0.015,
        "change_lower_in_pairs": "3 of 4", "reading": "unchanged"}
    # ties are not lower
    assert got["setup_s"]["change_lower_in_pairs"] == "0 of 4"
    assert got["setup_s"]["parent_iqr"] == 0
    assert got["peak_rss_mb"]["change_lower_in_pairs"] == "1 of 4"
    assert got["peak_rss_mb"]["parent_median"] == 21.5
    # a metric a run did not report is left out; failures are summed per side
    assert "unscaled_verdict_s" not in got
    assert got["failed"] == {"parent": 4, "change": 0}


def test_summary_needs_one_run_per_pair_on_each_side():
    with pytest.raises(ValueError):
        bench_pairs.summarize(side([0.1, 0.2], [1.0, 1.0]), side([0.1], [1.0]), BOUNDS)


PARENT = [0.100, 0.101, 0.099, 0.102, 0.098, 0.100, 0.103, 0.097, 0.100, 0.101]


def readings(parent, change, unscaled=None):
    """The reading of every metric of one workload, its runs built by `side`."""
    got = bench_pairs.summarize(side(parent, parent, unscaled=unscaled),
                                side(change, change, unscaled=unscaled), BOUNDS)["w"]
    return {metric: got[metric]["reading"] for metric in got if metric != "failed"}


@pytest.mark.parametrize("change, want", [
    # lower in 10 of 10, and the medians 0.02 apart against an IQR of 0.0015
    ([v - 0.02 for v in PARENT], "gain"),
    # lower in 9 of 10 is still a gain
    ([v - 0.02 for v in PARENT[:9]] + [PARENT[9] + 0.001], "gain"),
    # lower in 8 of 10 is not
    ([v - 0.02 for v in PARENT[:8]] + [v + 0.001 for v in PARENT[8:]], "unchanged"),
    # lower in 10 of 10, but by less than the parent's IQR
    ([v - 0.0005 for v in PARENT], "unchanged"),
    # 20 % slower is inside the 25 % time bound
    ([v * 1.2 for v in PARENT], "unchanged"),
])
def test_a_time_reads_as_a_gain_only_when_nine_in_ten_pairs_and_the_iqr_agree(change, want):
    assert readings(PARENT, change)["verdict_s"] == want


def test_a_median_past_its_bound_reads_worse():
    # 30 % slower is past the 25 % time bound; 12 % more memory past its 10 %
    got = readings(PARENT, [v * 1.3 for v in PARENT])
    assert got["verdict_s"] == "worse"
    memory = bench_pairs.summarize(side(PARENT, [20.0] * 10), side(PARENT, [22.4] * 10),
                                   BOUNDS)["w"]["peak_rss_mb"]
    assert memory["reading"] == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # the parent's IQR (0.07 to 0.13) is 0.6 of its median, past the 0.25 bound
    wide = [0.06, 0.14, 0.10, 0.06, 0.14, 0.10, 0.06, 0.14, 0.10, 0.10]
    assert readings(wide, wide)["verdict_s"] == "unresolved"
    # a gain still reads as one when nine in ten pairs and the IQR agree
    assert readings(wide, [v - 0.09 for v in wide])["verdict_s"] == "gain"
    # and a change past the bound reads worse before it reads unresolved
    assert readings(wide, [v * 1.5 for v in wide])["verdict_s"] == "worse"


def test_the_unscaled_verdict_reads_against_the_verdict_bound():
    got = bench_pairs.summarize(side(PARENT, PARENT, unscaled=0.1),
                                side(PARENT, PARENT, unscaled=0.13), BOUNDS)["w"]
    assert got["unscaled_verdict_s"]["reading"] == "worse"
    assert got["verdict_s"]["reading"] == got["setup_s"]["reading"] == "unchanged"


def test_bounds_are_read_from_the_benchmark_file():
    path = PATH.parents[1] / "BENCHMARK.json"
    before = path.read_bytes()
    assert bench_pairs.load_bounds(str(path)) == BOUNDS
    assert path.read_bytes() == before
