"""`tools/bench_pairs.py`'s summary, on fixed numbers."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def side(verdicts, rss, failed=0, unscaled=None):
    return [{"w": {"verdict_s": v, "setup_s": 0.016, "peak_rss_mb": r,
                   "unscaled_verdict_s": unscaled, "failed": failed}}
            for v, r in zip(verdicts, rss, strict=True)]


def test_summary_of_four_pairs():
    parent = side([0.10, 0.12, 0.11, 0.13], [20.0, 21.0, 22.0, 23.0], failed=1)
    change = side([0.07, 0.08, 0.12, 0.06], [20.0, 20.5, 22.5, 23.0])
    got = bench_pairs.summarize(parent, change)["w"]
    assert got["verdict_s"] == {
        "parent_median": 0.115, "change_median": 0.075, "change_over_parent": 0.6522,
        "parent_q1": 0.1075, "parent_q3": 0.1225, "parent_iqr": 0.015,
        "change_lower_in_pairs": "3 of 4"}
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
        bench_pairs.summarize(side([0.1, 0.2], [1.0, 1.0]), side([0.1], [1.0]))
