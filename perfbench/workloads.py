"""The four workloads: what one round of each runs, and how it is checked.

A workload builds its rounds from the seed.  A round is a list of units;
a unit makes the calls a researcher's script would make, one at a time,
through the package's public API.  Each unit returns its exact outputs
(for the golden digests) and the latencies of its work items (None when
the unit as a whole is the item).

With tracing on, a unit first touches the lazy stages of every
``ResidueProblem`` in the fixed order critical, monomials, groebner,
membership_failures, zero_locus(), codim, delta, c_sigma, so that each
span holds one stage, and every ``GroebnerBasis.reduce`` the package makes
is a span of its own; the untraced run makes only the user's calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from toricres import (
    GroebnerBasis,
    MultiPoly,
    ResidueProblem,
    build_cayley,
    compute_grading,
    critical_degree,
    degree_of,
    equal_degree_check,
    cayley_polytope_check,
    intersection_number,
    is_ample,
    is_complete,
    jacobian_residue_check,
    load_fan,
    load_problem,
    make_fan,
    monomial_basis,
    representative_divisor,
    sigma_independence_check,
    sum_local_residues,
    toric_residue,
    verify_gtl,
)
from toricres.cli import main as cli_main
from toricres.localres import COMPARE_TOL

from inputs import (
    dense_poly,
    dense_system,
    power_residue,
    power_system,
    projective_fan,
    random_surface,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

RESIDUE = "residues.toric_residue"


def _rng(seed, *path):
    """Independent stream per (seed, round, slot)."""
    return random.Random("/".join(str(p) for p in (seed,) + path))


def coeff_bits(gb) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for g in gb.generators for c in g.terms.values()), default=0)


def touch_stages(pb, tr):
    """Traced run only: build each lazy stage inside its own span.

    A stage that raises is left unbuilt; the user's call that follows
    raises the same error again, and the ledger classifies it there.
    """
    if not tr.enabled:
        return
    with contextlib.suppress(Exception):
        with tr.span("grading.critical_degree"):
            pb.critical
        with tr.span("polytopes.monomial_basis"):
            tr.count("polytopes.monomial_basis.monomials", len(pb.monomials))
        with tr.span("groebner.buchberger"):
            gb = pb.groebner
        tr.maximum("groebner.basis_len", len(gb.generators))
        tr.maximum("groebner.coeff_bits_max", coeff_bits(gb))
        with tr.span("residues.membership"):
            pb.membership_failures
        with tr.span("residues.zero_locus"):
            pb.zero_locus()
        with tr.span("residues.codim"):
            pb.codim
        with tr.span("residues.delta"):
            pb.delta
        with tr.span("residues.c_sigma"):
            pb.c_sigma


def trace_normal_forms(tr):
    """Traced run only: make every ``GroebnerBasis.reduce`` a span.

    The spans nest inside the stage, residue or check that made the call,
    so their self time and count are those of the package's own normal
    forms, and no extra one is computed.
    """
    plain = GroebnerBasis.reduce

    def reduce(self, p):
        tr.count("groebner.normal_form.calls")
        with tr.span("groebner.normal_form"):
            return plain(self, p)

    GroebnerBasis.reduce = reduce


def residue(led, pb, H):
    """One exact residue, counted by the ledger."""
    return led.attempt(RESIDUE, toric_residue, pb, H)


def delta_check(led, pb):
    """Res(Delta_sigma) = 1 on any seed."""
    delta = led.attempt("residues.delta", lambda: pb.delta)
    if delta is None:
        return None
    value = residue(led, pb, delta)
    if value is not None:
        led.check(value == 1, RESIDUE, f"Res(Delta_sigma) = {value}")
    return value


def critical_rungs(ladder):
    """(fan, grading, degree, critical monomials) for equal-degree systems."""
    out = []
    for fan, grading, deg in ladder:
        rho = critical_degree(grading, [deg] * (fan.dim + 1))
        out.append((fan, grading, deg, monomial_basis(fan, grading, rho)))
    return out


def dense_rungs(p2_degrees, p3_copies=1, torsion_copies=1):
    """Rungs of dense-cold and batch-h: P^2 at each of ``p2_degrees``,
    ``p3_copies`` of P^3 degree 2, ``torsion_copies`` of the torsion fan at
    2(-K), P(1,1,2) at twice the class of z and the pentagon at -K."""
    p2, p3 = projective_fan(2), projective_fan(3)
    g2, g3 = compute_grading(p2), compute_grading(p3)
    tor, gt = load_fan(FIXTURES / "torsion.fan.json")
    p112, g112 = load_fan(FIXTURES / "p112.fan.json")
    pent, gp = load_fan(FIXTURES / "pentagon.fan.json")
    ladder = [(p2, g2, g2.degree([d, 0, 0])) for d in p2_degrees]
    ladder += [(p3, g3, g3.degree([2, 0, 0, 0]))] * p3_copies
    ladder += [(tor, gt, gt.degree([2, 2, 2]))] * torsion_copies
    ladder += [
        (p112, g112, g112.degree([0, 0, 2])),
        (pent, gp, gp.degree([1] * 5)),
    ]
    return critical_rungs(ladder)


class Workload:
    """Base: ``setup`` loads fans and fixed data, ``round`` makes units.

    ``round_s`` is what one round takes in reference seconds at the commit
    that defined the benchmark; it turns a run length into a number of
    rounds, so that every run of a workload does the same work and the
    median and tail items fall at the same place among its classes.
    """

    name = ""
    round_s = 1.0

    def rounds(self, seconds):
        return max(1, round(seconds / self.round_s))

    def setup(self, seed):
        raise NotImplementedError

    def round(self, state, r):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# dense-cold


class DenseCold(Workload):
    """Seeded dense systems, each solved cold by toric_residue for a few H.

    A round is eight units: P^2 degree 5 (half the work), two torsion
    systems, three P^3 systems, P(1,1,2) and the pentagon.  In five rounds
    the median unit is in the upper middle of the fifteen P^3 units and
    the tail unit (ten beyond it) in the middle of the ten torsion units,
    away from the edges of both classes.
    """

    name = "dense-cold"
    round_s = 3.0

    def setup(self, seed):
        return {"seed": seed,
                "rungs": dense_rungs((5,), p3_copies=3, torsion_copies=2)}

    def round(self, state, r):
        units = []
        for slot, (fan, grading, deg, crit) in enumerate(state["rungs"]):
            rng = _rng(state["seed"], "dense", r, slot)
            F = dense_system(fan, grading, deg, rng)
            Hs = [MultiPoly.monomial(m) for m in rng.sample(crit, 2)]
            Hs.append(dense_poly(fan.nvars, crit, rng))
            units.append((f"{r}.{slot}", self._unit(fan, grading, F, Hs)))
        return units

    @staticmethod
    def _unit(fan, grading, F, Hs):
        def run(led):
            pb = ResidueProblem(fan, F, grading=grading)
            touch_stages(pb, led.tracer)
            values = [residue(led, pb, H) for H in Hs]
            delta_check(led, pb)
            if values[0] is not None and values[2] is not None:
                got = residue(led, pb, 2 * Hs[0] - 3 * Hs[2])
                if got is not None:
                    led.check(got == 2 * values[0] - 3 * values[2],
                              RESIDUE, "linearity in H")
            return values, None
        return run


# ---------------------------------------------------------------------------
# batch-h


class BatchH(Workload):
    """Problems built once, then every critical monomial and dense H.

    The items timed are batches of BATCH dense H evaluated in a row, the
    same number per problem.  A batch, not a single H, is the item because
    one H takes a few milliseconds, and the eleventh slowest of thousands
    of single H was set by which of them a pause of the host happened to
    hit: the same seed gave tails 20% apart.  The cost of an H is set by
    its fan and by the seed's basis, most of all for P^2 degree 4, the
    dearest fan; two of its problems per round put the tail item in the
    middle of the batches of six bases, not at the dearest of three.  P^3
    degree 2 is the middle fan by cost, and three of its problems per
    round, against one of each other fan, put the median item in the
    middle of their pooled items, so it rests on several bases instead of
    one.  The monomial residues run untimed as items (they are in the timed
    time) and serve as the oracle for linearity.
    """

    name = "batch-h"
    round_s = 5.7
    DENSE_H = 80
    BATCH = 20

    def setup(self, seed):
        return {"seed": seed, "rungs": dense_rungs((4, 4), p3_copies=3)}

    def round(self, state, r):
        units = []
        for slot, (fan, grading, deg, crit) in enumerate(state["rungs"]):
            rng = _rng(state["seed"], "batch", r, slot)
            F = dense_system(fan, grading, deg, rng)
            dense = []
            for _ in range(self.DENSE_H):
                dense.append({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in crit})
            units.append((f"{r}.{slot}", self._unit(fan, grading, F, crit, dense)))
        return units

    def _unit(self, fan, grading, F, crit, dense):
        def run(led):
            pb = ResidueProblem(fan, F, grading=grading)
            touch_stages(pb, led.tracer)
            if delta_check(led, pb) is None:
                return [], []
            samples, values, by_mon = [], [], {}
            for m in crit:
                v = residue(led, pb, MultiPoly.monomial(m))
                by_mon[m] = v
                values.append(v)
            for i in range(0, len(dense), self.BATCH):
                batch = dense[i:i + self.BATCH]
                t = time.perf_counter()
                got = [residue(led, pb, MultiPoly(fan.nvars, coeffs))
                       for coeffs in batch]
                samples.append(time.perf_counter() - t)
                values += got
                for coeffs, v in zip(batch, got):
                    if v is not None and None not in by_mon.values():
                        want = sum(c * by_mon[m] for m, c in coeffs.items())
                        led.check(v == want, RESIDUE, "linearity in H")
            return values, samples
        return run


# ---------------------------------------------------------------------------
# fan-sweep


FIXTURE_PROBLEMS = (
    "p2_fermat.json", "p112_fermat.json", "torsion_fermat.json",
    "p1p1_bilinear.json", "pentagon_main.json", "pentagon_small.json",
    "p1_numeric_b.json", "p1p1_numeric.json",
)


class FanSweep(Workload):
    """Random complete simplicial surfaces with 8 to 38 rays, and fixtures.

    Every round is the same: one unit per entry of RAY_COUNTS, then one
    unit per fixture problem.  The rays, the ample polygon and the power
    system come from the seed.

    A surface goes through completeness, grading, the monomial basis of
    its ample class, the ample test on D and -D, the intersection number,
    the bundle lift when its polygon has at most LIFT_POINTS lattice points
    (the lift's cost grows with the points of a 4-dimensional polytope; the
    8-ray polygons pass, 13 rays give over 100 points) and one power-system
    residue on P^1 or P^2.
    """

    name = "fan-sweep"
    # A surface's cost grows steeply with its ray count (48 rays take about
    # 3.5 s, half a round), so the largest has 38.  Three rounds of these
    # eleven surfaces and the eight fixtures make 57 units.  From the
    # bottom: 21 fixtures (0.02-0.08 s), twelve 13-ray surfaces (0.13 s),
    # nine of 8 or 18 rays or pentagon_main (0.2-0.4 s), nine 23-ray
    # (0.4-0.5 s) and six of 28 or 38 rays (0.9-2 s).  The median unit is
    # then the eighth of the 13-ray ones and the tail unit (ten beyond it)
    # the fifth of the 23-ray ones, both well inside their class.
    round_s = 5.3
    RAY_COUNTS = (8, 13, 13, 13, 13, 18, 23, 23, 23, 28, 38)
    LIFT_POINTS = 64

    def setup(self, seed):
        pn = {}
        for n in (1, 2):
            fan = projective_fan(n)
            pn[n] = (fan, compute_grading(fan))
        fixtures = [str(FIXTURES / f) for f in FIXTURE_PROBLEMS]
        for path in fixtures:
            load_problem(path)
        return {"seed": seed, "pn": pn, "fixtures": fixtures}

    def round(self, state, r):
        units = []
        fixtures = state["fixtures"]
        for slot, nrays in enumerate(self.RAY_COUNTS):
            rng = _rng(state["seed"], "fan", r, slot)
            surface = random_surface(nrays, rng)
            n = 1 + slot % 2
            d, a = power_system(n, rng)
            units.append((f"{r}.{slot}", self._unit(
                self._surface, surface, state["pn"][n], d, a)))
        for k, path in enumerate(fixtures):
            units.append((f"{r}.f{k}", self._unit(self._fixture, path)))
        return units

    @staticmethod
    def _unit(fn, *args):
        def run(led):
            return fn(led, *args), None
        return run

    def _surface(self, led, s, pn, d, a):
        nrays = len(s["rays"])
        fan = make_fan(2, s["rays"], s["cones"])
        rep = led.attempt("lattice.is_complete", is_complete, fan)
        if rep is not None:
            led.check(rep.ok, "lattice.is_complete", rep.witness)
        led.tracer.count("lattice.is_complete.calls")
        g = led.attempt("grading.compute_grading", compute_grading, fan)
        if g is None:
            return [None]
        principal = [g.degree([r[j] for r in fan.rays]).is_zero()
                     for j in range(2)]
        led.check(g.rank == nrays - 2 and all(principal),
                  "grading.compute_grading", "rank or principal degrees")
        D = s["divisor"]
        mons = led.attempt("polytopes.monomial_basis", monomial_basis,
                           fan, g, g.degree(D))
        if mons is not None:
            led.tracer.count("polytopes.monomial_basis.monomials", len(mons))
            led.check(len(mons) == s["points"], "polytopes.monomial_basis",
                      f"{len(mons)} monomials, Pick gives {s['points']}")
        amp = led.attempt("divisors.is_ample", is_ample, fan, D)
        if amp is not None:
            led.check(amp.ok, "divisors.is_ample", "polygon divisor")
        amp2 = led.attempt("divisors.is_ample", is_ample, fan, [-x for x in D])
        if amp2 is not None:
            led.check(not amp2.ok, "divisors.is_ample", "-D is ample")
        vol = led.attempt("polytopes.intersection_number",
                          intersection_number, fan, D)
        if vol is not None:
            led.check(vol == s["twice_area"], "polytopes.intersection_number",
                      f"{vol} against twice the area {s['twice_area']}")
        values = [rep and rep.ok, g.rank, mons and len(mons),
                  amp and amp.ok, amp2 and amp2.ok, vol]
        if s["points"] <= self.LIFT_POINTS:
            ok = led.attempt("cayley.checks", self._cayley, fan, g, [D] * 3)
            led.check(ok is not False, "cayley.checks", "bundle lift")
            values.append(ok)
        fan_n, g_n = pn
        pb = ResidueProblem(fan_n, [MultiPoly.variable(len(d), i, k)
                                    for i, k in enumerate(d)], grading=g_n)
        touch_stages(pb, led.tracer)
        v = residue(led, pb, MultiPoly.monomial(a))
        if v is not None:
            led.check(v == power_residue(a, d), RESIDUE,
                      f"power system {d} at {a}: {v}")
        values.append(v)
        return values

    @staticmethod
    def _cayley(fan, grading, divisors):
        cd = build_cayley(fan, grading, divisors)
        polys = [MultiPoly.monomial(tuple(D)) for D in divisors]
        return equal_degree_check(cd, polys) and cayley_polytope_check(cd)

    def _fixture(self, led, path):
        lp = led.attempt("files.load_problem", load_problem, path)
        if lp is None:
            return [None]
        pb = lp.problem
        touch_stages(pb, led.tracer)
        H = lp.inputs[0]
        value = residue(led, pb, H)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = led.attempt("cli.main", cli_main, ["residue", path, "--json"])
        if code is not None and led.check(code == 0, "cli.main", f"exit {code}"):
            cli_value = Fraction(json.loads(out.getvalue())["residue"])
            led.check(cli_value == value, "cli.main",
                      f"CLI {cli_value} against API {value}")
        ok = led.attempt("residues.checks", self._checks, pb, H)
        led.check(ok is not False, "residues.checks", path)
        degs = [representative_divisor(lp.grading, degree_of(p, lp.grading))
                for p in pb.polys]
        amp = [led.attempt("divisors.is_ample", is_ample, lp.fan, D) for D in degs]
        values = [value, ok] + [a and a.ok for a in amp]
        if all(a is not None and a.ok for a in amp):
            ok = led.attempt("cayley.checks", self._cayley, lp.fan, lp.grading, degs)
            led.check(ok is not False, "cayley.checks", path)
            values.append(ok)
        return values

    @staticmethod
    def _checks(pb, H):
        """sigma independence, the transformation law with a unipotent
        change of inputs, and the Jacobian count when degrees agree."""
        n1 = len(pb.polys)
        ok = sigma_independence_check(pb)
        same = all(d == pb.degrees[0] for d in pb.degrees)
        if same:
            A = [[int(i == j or (i == 0 and j == 1)) for j in range(n1)]
                 for i in range(n1)]
            ok = ok and verify_gtl(pb, A, H)
            ok = ok and jacobian_residue_check(pb)
        return ok


# ---------------------------------------------------------------------------
# numeric-xcheck


NUMERIC_FIXTURES = (
    ("p1_numeric_a.json", None),
    ("p1_numeric_b.json", None),
    ("p1p1_numeric.json", None),
    ("p1p1_infinite.json", "InfiniteIntersection"),
    ("pentagon_outside.json", "HypothesesFailed"),
)


class NumericXcheck(Workload):
    """sum_local_residues against the exact value, for every dropped input.

    Every round is the same: the seeded rungs, then every numeric fixture.
    The cheap items (the fixtures and P^1 x P^1 bidegree (1,1)) are about as
    many as the dear ones (two P^3 systems), so the median item falls well
    inside the middle class (P^2 degree 3 and P^1 x P^1 bidegree (2,2)).
    """

    name = "numeric-xcheck"
    round_s = 5.05

    def setup(self, seed):
        p2, p3 = projective_fan(2), projective_fan(3)
        g2, g3 = compute_grading(p2), compute_grading(p3)
        p1p1, g11 = load_fan(FIXTURES / "p1p1.fan.json")
        ladder = [
            (p2, g2, g2.degree([3, 0, 0])),
            (p2, g2, g2.degree([3, 0, 0])),
            (p2, g2, g2.degree([3, 0, 0])),
            (p3, g3, g3.degree([2, 0, 0, 0])),
            (p3, g3, g3.degree([2, 0, 0, 0])),
            (p1p1, g11, g11.degree([1, 0, 1, 0])),
            (p1p1, g11, g11.degree([2, 0, 2, 0])),
        ]
        rungs = critical_rungs(ladder)
        fixtures = [(load_problem(str(FIXTURES / f)), refusal)
                    for f, refusal in NUMERIC_FIXTURES]
        return {"seed": seed, "rungs": rungs, "fixtures": fixtures}

    def round(self, state, r):
        units = []
        for slot, (fan, grading, deg, crit) in enumerate(state["rungs"]):
            rng = _rng(state["seed"], "numeric", r, slot)
            F = dense_system(fan, grading, deg, rng)
            H = dense_poly(fan.nvars, crit, rng)
            units.append((f"{r}.{slot}", self._unit(fan, grading, F, H, None)))
        for k, (lp, refusal) in enumerate(state["fixtures"]):
            units.append((f"{r}.f{k}", self._unit(
                lp.fan, lp.grading, lp.problem.polys, lp.inputs[0], refusal,
                order=lp.order, sigma=lp.problem.sigma)))
        return units

    @staticmethod
    def _unit(fan, grading, F, H, refusal, order=None, sigma=0):
        def run(led):
            pb = ResidueProblem(fan, F, grading=grading, order=order, sigma=sigma)
            touch_stages(pb, led.tracer)
            if refusal == "HypothesesFailed":
                led.attempt(RESIDUE, toric_residue, pb, H, refusal=refusal)
                return [refusal], []
            exact = residue(led, pb, H)
            if exact is None:
                return [None], []
            samples = []
            for k in range(len(F)):
                want = refusal if k == 0 else None
                t = time.perf_counter()
                approx = led.attempt("localres.sum_local_residues",
                                     sum_local_residues, pb, H, k,
                                     refusal=want)
                samples.append(time.perf_counter() - t)
                led.tracer.count("localres.sum_local_residues.calls")
                if approx is not None:
                    err = abs(approx - complex(exact))
                    led.tracer.maximum("localres.abs_err_max", err)
                    led.check(err < COMPARE_TOL, "localres.sum_local_residues",
                              f"|numeric - exact| = {err:.3g} for k={k}")
            return [exact], samples
        return run


WORKLOADS = {w.name: w for w in (DenseCold(), BatchH(), FanSweep(), NumericXcheck())}
