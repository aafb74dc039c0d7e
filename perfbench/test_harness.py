"""Tests of the benchmark's own statistics and bookkeeping.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import run
from harness import REF_S, Ledger, SpeedClock, Tracer, classify, self_times, tail


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10


def test_tail_small_and_unsorted_samples():
    assert tail([5, 3, 9, 1, 7, 2, 8, 4, 6, 0, 10]) == (0, 100 / 11, 11)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        tail([])


def test_self_time_subtracts_children_only():
    spans = [
        [0, "unit", 0.0, 10.0, None],
        [1, "groebner.buchberger", 2.0, 5.0, 0],
        [2, "groebner.normal_form", 2.5, 3.0, 1],
        [3, "residues.codim", 6.0, 7.0, 0],
        [4, "groebner.normal_form", 8.0, 8.25, 0],
    ]
    got = self_times(spans)
    assert got == {"unit": 5.75, "groebner.buchberger": 2.5,
                   "groebner.normal_form": 0.75, "residues.codim": 1.0}


def test_tracer_nests_and_disabled_tracer_records_nothing():
    tr = Tracer(True)
    with tr.span("unit"):
        with tr.span("residues.codim"):
            pass
    assert [(s[1], s[4]) for s in tr.spans] == [("unit", None), ("residues.codim", 0)]
    assert all(s[3] >= s[2] for s in tr.spans)
    off = Tracer(False)
    with off.span("unit"):
        off.count("groebner.normal_form.calls")
        off.maximum("groebner.basis_len", 3)
    assert off.spans == [] and not off.counts and not off.maxima


class HypothesesFailed(Exception):
    pass


class NotTorusZero(Exception):
    pass


class ParseError(Exception):
    pass


def raiser(exc):
    def fn():
        raise exc
    return fn


def test_classify_refusals_and_failures():
    assert classify(HypothesesFailed("x")) == "refused"
    assert classify(NotTorusZero("x")) == "refused"
    assert classify(ParseError("x")) == "failed"
    assert classify(ZeroDivisionError()) == "failed"


def test_ledger_counts_each_outcome_once():
    led = Ledger(Tracer(False))
    assert led.attempt("residues.toric_residue", lambda: 3) == 3
    assert led.attempt("residues.toric_residue", raiser(HypothesesFailed("no"))) is None
    assert led.attempt("localres.sum_local_residues", raiser(NotTorusZero("z"))) is None
    assert led.attempt("files.load_problem", raiser(ParseError("bad"))) is None
    assert led.attempt("cli.main", raiser(KeyError("k"))) is None
    assert not led.check(1 == 2, "residues.toric_residue", "wrong")
    assert (led.attempted, led.failed, led.refused) == (5, 3, 2)
    assert led.refusals == {("residues", "HypothesesFailed"): 1,
                            ("localres", "NotTorusZero"): 1}
    assert led.done == {"residues.toric_residue": 1}


def test_ledger_expected_refusal():
    led = Ledger(Tracer(False))
    led.attempt("localres.sum_local_residues", raiser(ParseError("p")),
                refusal="ParseError")
    led.attempt("localres.sum_local_residues", lambda: 1.0,
                refusal="InfiniteIntersection")
    led.attempt("localres.sum_local_residues", raiser(NotTorusZero("z")),
                refusal="InfiniteIntersection")
    assert (led.attempted, led.refused, led.failed) == (3, 1, 2)


def test_traced_metrics_are_the_per_layer_metrics_of_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    got = run.layer_metrics(Ledger(Tracer(True)), 1.0)
    assert {k: unit for k, (_, unit) in got.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}



def test_speed_clock_scales_by_the_median_of_nearby_readings():
    clock = SpeedClock()
    clock.readings = [REF_S, REF_S, 2 * REF_S, REF_S, 2 * REF_S, 2 * REF_S]
    # piece k lies between readings k and k+1; its window is k-1 .. k+2
    assert clock.factor(0) == 1.0
    # one slow reading among four does not move the median
    assert clock.factor(1) == 1.0
    assert clock.factor(3) == 0.5
    assert clock.run_factor() == pytest.approx(1 / 1.5)
