#!/usr/bin/env python3
"""Walk the bundled fixtures end to end and print what the engine sees.

Covers the full pipeline on a handful of small fans: grading and critical
degree, hypothesis checks, the distinguished cone determinant, exact residue
values, the exact local residue sums, and the bundle lift construction.

Run from anywhere; the script puts the checkout's ``src/`` on ``sys.path``,
so neither an install nor ``PYTHONPATH`` is needed:

    python3 scripts/run_examples.py
    python3 scripts/run_examples.py --only pentagon
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from toricres import (  # noqa: E402
    CodimNotOne,
    HypothesesFailed,
    InfiniteIntersection,
    NonSimpleZero,
    NotTorusZero,
    build_cayley,
    bundle_class,
    cayley_polytope_check,
    degree_of,
    equal_degree_check,
    intersection_number,
    is_ample,
    is_cartier,
    is_q_ample,
    jacobian_residue_check,
    load_problem,
    poly_to_string,
    representative_divisor,
    residue_report,
    sigma_independence_check,
    sum_local_residues,
    toric_jacobian,
    toric_residue,
)

FIXTURES = ROOT / "fixtures"


def banner(title: str):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def show_problem(name: str):
    lp = load_problem(FIXTURES / name)
    names = lp.fan.variables
    print(f"fixture: {name}")
    print(f"  fan: dim {lp.fan.dim}, {len(lp.fan.rays)} rays, "
          f"{len(lp.fan.max_cones)} maximal cones")
    print(f"  grading rank {lp.grading.rank}, moduli {list(lp.grading.moduli)}")
    for j, p in enumerate(lp.problem.polys):
        d = degree_of(p, lp.grading)
        print(f"  F_{j} = {poly_to_string(p, names)}   deg {d.free}")
    rho = lp.problem.critical
    print(f"  critical degree {rho.free}"
          + (f" + torsion {rho.torsion}" if any(rho.torsion) else ""))
    return lp


def run_pentagon():
    banner("pentagon fan: full symbolic pipeline")
    lp = show_problem("pentagon_main.json")
    pb = lp.problem
    names = lp.fan.variables
    print(f"  critical-degree monomials: {len(pb.monomials)}")
    print(f"  codimension-one: {pb.codim.ok}, pivot "
          f"{poly_to_string_mon(pb.codim.pivot, names)}")
    delta = pb.delta
    print(f"  cone determinant ({len(delta.terms)} terms): "
          f"{poly_to_string(delta, names)}")
    print(f"  c_sigma = {pb.c_sigma}")
    for H in lp.inputs:
        print(f"  residue({poly_to_string(H, names)}) = {toric_residue(pb, H)}")
    print(f"  residue(cone determinant) = {toric_residue(pb, delta)}")
    print(f"  same value from every cone: {sigma_independence_check(pb)}")
    for j, d in enumerate(pb.degrees):
        coeffs = representative_divisor(lp.grading, d)
        print(f"  deg F_{j}: divisor {coeffs}, cartier {bool(is_cartier(lp.fan, coeffs))},"
              f" ample {bool(is_ample(lp.fan, coeffs))},"
              f" q-ample {bool(is_q_ample(lp.fan, coeffs))}")


def run_projective_plane():
    banner("projective plane: power inputs and the chart Jacobian")
    lp = show_problem("p2_fermat.json")
    pb = lp.problem
    names = lp.fan.variables
    rep = residue_report(pb, lp.inputs[0])
    print(f"  residue({poly_to_string(lp.inputs[0], names)}) = {rep.residue}")
    print(f"  pivot {poly_to_string_mon(rep.pivot, names)}, c_sigma {rep.c_sigma}")
    J = toric_jacobian(pb)
    print(f"  chart Jacobian lift: {poly_to_string(J, names)}")
    coeffs = representative_divisor(lp.grading, pb.degrees[0])
    print(f"  residue(J) = {toric_residue(pb, J)}, top self-intersection "
          f"{intersection_number(lp.fan, coeffs)}")
    print(f"  |residue(J)| matches: {jacobian_residue_check(pb)}")


def run_numeric():
    banner("local residue sums against the exact residue")
    for name in ("p1_numeric_a.json", "p1_numeric_b.json", "p1p1_numeric.json"):
        lp = show_problem(name)
        pb = lp.problem
        H = lp.inputs[0]
        exact = toric_residue(pb, H)
        print(f"  exact residue = {exact}")
        for k in range(len(pb.polys)):
            try:
                total = sum_local_residues(pb, H, k)
            except (InfiniteIntersection, NonSimpleZero, NotTorusZero) as exc:
                print(f"  k={k}: refused ({type(exc).__name__}: {exc})")
                continue
            print(f"  k={k}: local sum = {total}   equal: {total == exact}")
        print()


def run_refusals():
    banner("refused inputs: the engine names what broke")
    # p1p1_not_codim1 also has a two-dimensional critical quotient, but
    # membership is checked first; pentagon_not_codim1 passes membership
    # and the zero locus and is refused at the codimension
    for name in ("pentagon_outside.json", "p1p1_not_codim1.json", "pentagon_not_codim1.json"):
        lp = show_problem(name)
        try:
            residue_report(lp.problem, lp.inputs[0])
        except (HypothesesFailed, CodimNotOne) as exc:
            print(f"  {type(exc).__name__}: {exc}")
        print()
    lp = show_problem("p1p1_infinite.json")
    try:
        sum_local_residues(lp.problem, lp.inputs[0], 0)
    except InfiniteIntersection as exc:
        print(f"  InfiniteIntersection: {exc}")


def run_cayley():
    banner("bundle lift: product of two lines")
    lp = show_problem("p1p1_bilinear.json")
    pb = lp.problem
    divisors = [representative_divisor(lp.grading, d) for d in pb.degrees]
    cd = build_cayley(lp.fan, lp.grading, divisors)
    print(f"  lift: {cd.bundle.nvars} rays in dimension {2 * cd.n}, "
          f"ring gains y0..y{cd.n}")
    print(f"  bundle class gamma = {bundle_class(cd).free}")
    print(f"  lifted forms share the bundle class: {equal_degree_check(cd, pb.polys)}")
    print(f"  polytope slice sum matches: {cayley_polytope_check(cd)}")


def poly_to_string_mon(e, names):
    parts = []
    for i, a in enumerate(e):
        if a == 1:
            parts.append(names[i])
        elif a > 1:
            parts.append(f"{names[i]}^{a}")
    return "*".join(parts) if parts else "1"


SECTIONS = {
    "pentagon": run_pentagon,
    "p2": run_projective_plane,
    "numeric": run_numeric,
    "refusals": run_refusals,
    "cayley": run_cayley,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=sorted(SECTIONS),
                    help="run a single section")
    args = ap.parse_args()
    t0 = time.perf_counter()
    names = [args.only] if args.only else list(SECTIONS)
    for name in names:
        SECTIONS[name]()
    print()
    print(f"done in {time.perf_counter() - t0:.2f} s")


if __name__ == "__main__":
    main()
