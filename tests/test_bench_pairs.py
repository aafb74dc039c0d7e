"""The summary of ``scripts/bench_pairs.py``, on values given by hand: no
benchmark runs."""

import importlib.util

from conftest import TESTS

spec = importlib.util.spec_from_file_location(
    "bench_pairs", TESTS.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_reads_medians_quartiles_and_pairs_ahead():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [11.5, 12.5, 12.0, 12.9, 10.0]
    s = bench_pairs.summary(parent, change, higher=True)
    assert s["parent"] == (11.0, 9.5, 12.5)
    assert s["change"] == (12.0, 10.75, 12.7)
    assert s["gap"] == 1.0 and s["iqr"] == 3.0
    assert (s["ahead"], s["pairs"]) == (4, 5)
    # lower is better: the change is ahead only where it is smaller
    assert bench_pairs.summary(parent, change, higher=False)["ahead"] == 1


def test_summary_of_one_pair_has_no_spread():
    s = bench_pairs.summary([2.0], [1.5], higher=False)
    assert s["parent"] == (2.0, 2.0, 2.0) and s["iqr"] == 0.0
    assert (s["ahead"], s["pairs"], s["gap"]) == (1, 1, -0.5)
