"""Command line front end.

Exit codes: 0 success, 1 a check reported failure, 2 parse problems
(also non-integer or wrong-length options), 3 invalid fan data or degree
basis (also a problem on a fan that is not complete and simplicial, or an
unbounded polytope), 4 violated hypotheses (wrong degree, a zero or
non-homogeneous input, membership, a refused local residue sum) and
any other package error, 5 critical-degree quotient not of dimension one.
Each code and its stderr prefix are attributes of the error class.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .cayley import (
    build_cayley,
    bundle_class,
    cayley_polytope_check,
    critical_degree_lifted,
    equal_degree_check,
    jacobian_ideal_degree_check,
)
from .divisors import is_ample, is_cartier, is_q_ample
from .errors import (
    CodimNotOne,
    HypothesesFailed,
    InfiniteIntersection,
    NonSimpleZero,
    NotTorusZero,
    ParseError,
    ToricError,
)
from .files import load_fan, load_problem
from .grading import DegreeClass, anticanonical_class, representative_divisor
from .lattice import is_complete, is_simplicial
from .localres import sum_local_residues
from .poly import MultiPoly, parse_poly, poly_det, poly_to_string
from .polytopes import monomial_basis
from .residues import (
    cone_determinant,
    irrelevant_ideal,
    jacobian_residue_check,
    residue_report,
    toric_residue,
    variable_annihilation_check,
    verify_gtl,
)


def _rat(x) -> str:
    return str(Fraction(x))


def _deg_dict(d: DegreeClass) -> dict:
    return {"free": list(d.free), "torsion": list(d.torsion),
            "moduli": list(d.moduli)}


def _deg_str(d: DegreeClass) -> str:
    s = "(" + ",".join(str(x) for x in d.free) + ")"
    if d.moduli:
        s += " torsion (" + ",".join(
            f"{t} mod {m}" for t, m in zip(d.torsion, d.moduli)) + ")"
    return s


def _mono_str(e, names) -> str:
    return poly_to_string(MultiPoly.monomial(e), names)


def _emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_ints(text: str, count: int, what: str):
    try:
        values = [int(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"{what} must be integers: {exc}") from exc
    if len(values) != count:
        raise ParseError(f"need {count} {what}, got {len(values)}")
    return values


# ---------------------------------------------------------------------------
# commands

def cmd_grading(args) -> int:
    fan, grading = load_fan(args.fanfile)
    beta = anticanonical_class(grading)
    report = {
        "variables": list(fan.variables),
        "degrees": {nm: _deg_dict(grading.variable_degree(i))
                    for i, nm in enumerate(fan.variables)},
        "anticanonical": _deg_dict(beta),
        "moduli": list(grading.moduli),
        "provenance": grading.provenance,
    }
    lines = [f"grading rank {grading.rank}, torsion moduli {list(grading.moduli)}"]
    for i, nm in enumerate(fan.variables):
        lines.append(f"  deg {nm} = {_deg_str(grading.variable_degree(i))}")
    lines.append(f"  anticanonical = {_deg_str(beta)}  [{grading.provenance}]")
    _emit(report, args.json, lines)
    return 0


def cmd_ample(args) -> int:
    fan, _grading = load_fan(args.fanfile)
    coeffs = _parse_ints(args.coeffs, fan.nvars, "coefficients")
    cart = is_cartier(fan, coeffs)
    amp = is_ample(fan, coeffs)
    qamp = is_q_ample(fan, coeffs)
    report = {
        "coefficients": coeffs,
        "cartier": cart.ok,
        "cartier_witnesses": list(cart.witnesses),
        "ample": amp.ok,
        "q_ample": qamp.ok,
        "strictness_witnesses": list(qamp.witnesses),
    }
    lines = [f"cartier: {cart.ok}  ample: {amp.ok}  q-ample: {qamp.ok}"]
    if not cart.ok:
        lines.append(f"  non-integral on cones {list(cart.witnesses)}")
    if qamp.witnesses:
        lines.append(f"  convexity fails at (cone, ray) {list(qamp.witnesses)}")
    _emit(report, args.json, lines)
    return 0


def cmd_bsigma(args) -> int:
    fan, _ = load_fan(args.fanfile)
    gens = irrelevant_ideal(fan)
    names = fan.variables
    report = {"generators": [_mono_str(e, names) for e in gens]}
    _emit(report, args.json,
          ["irrelevant ideal generators: " + ", ".join(report["generators"])])
    return 0


def cmd_monomials(args) -> int:
    fan, grading = load_fan(args.fanfile)
    free = _parse_ints(args.free, grading.rank, "free degree entries")
    torsion = (_parse_ints(args.torsion, len(grading.moduli), "torsion entries")
               if args.torsion else [0] * len(grading.moduli))
    degree = DegreeClass(tuple(free), tuple(torsion), grading.moduli)
    mons = monomial_basis(fan, grading, degree)
    names = fan.variables
    report = {"degree": _deg_dict(degree), "count": len(mons),
              "monomials": [_mono_str(e, names) for e in mons]}
    _emit(report, args.json,
          [f"{len(mons)} monomials of degree {_deg_str(degree)}"]
          + ["  " + m for m in report["monomials"]])
    return 0


def _problem_from_args(args):
    sigma = getattr(args, "sigma", None)
    order = getattr(args, "order", None)
    return load_problem(args.problemfile, sigma_override=sigma,
                        order_override=order)


def cmd_residue(args) -> int:
    loaded = _problem_from_args(args)
    problem = loaded.problem
    names = problem.fan.variables
    if args.H:
        H = parse_poly(args.H, names)
    elif loaded.inputs:
        H = loaded.inputs[0]
    else:
        raise ParseError("no input polynomial: pass --H or list H in the file")
    codim = problem.codim
    if not codim.ok:
        raise CodimNotOne(
            f"critical-degree quotient has dimension {codim.quotient_dim}; "
            f"witness monomials {codim.witness}")
    zl = problem.zero_locus()
    rep = residue_report(problem, H)
    report = {
        "critical_degree": _deg_dict(rep.critical),
        "monomial_count": len(rep.monomials),
        "pivot": _mono_str(rep.pivot, names),
        "delta": poly_to_string(rep.delta, names),
        "c_sigma": _rat(rep.c_sigma),
        "c_h": _rat(rep.c_h),
        "residue": _rat(rep.residue),
        "codim_one": rep.codim_ok,
        "membership_ok": not problem.membership_failures,
        "no_common_zeros": zl.ok,
        "ample_advisory": [
            is_q_ample(problem.fan,
                       representative_divisor(problem.grading, d)).ok
            for d in problem.degrees],
    }
    lines = [
        f"critical degree {_deg_str(rep.critical)} with {len(rep.monomials)} monomials",
        f"pivot monomial {report['pivot']}",
        f"delta = {report['delta']}",
        f"c_sigma = {report['c_sigma']}, c_h = {report['c_h']}",
        f"residue = {report['residue']}",
    ]
    _emit(report, args.json, lines)
    return 0


def cmd_delta(args) -> int:
    loaded = _problem_from_args(args)
    problem = loaded.problem
    names = problem.fan.variables
    per_cone = []
    for k in range(len(problem.fan.max_cones)):
        d = cone_determinant(problem, k)
        per_cone.append(poly_to_string(d, names))
    report = {"sigma": problem.sigma + 1, "delta": per_cone[problem.sigma],
              "per_cone": per_cone}
    lines = [f"cone {k + 1}: {s}" for k, s in enumerate(per_cone)]
    _emit(report, args.json, lines)
    return 0


def _cayley_checks(problem):
    """The bundle lift of the problem's degrees and its three checks."""
    divisors = [representative_divisor(problem.grading, d)
                for d in problem.degrees]
    cd = build_cayley(problem.fan, problem.grading, divisors)
    polys = list(problem.polys)
    return cd, {
        "equal_degree": equal_degree_check(cd, polys),
        "polytope": cayley_polytope_check(cd),
        "jacobian_degrees": jacobian_ideal_degree_check(cd, polys),
    }


def cmd_cayley(args) -> int:
    problem = _problem_from_args(args).problem
    cd, checks = _cayley_checks(problem)
    gamma = bundle_class(cd)
    rho = critical_degree_lifted(cd)
    report = {
        "lifted_rays": [list(r) for r in cd.lifted_rays],
        "variables": list(cd.variables),
        "bundle_class": _deg_dict(gamma),
        "lifted_critical": _deg_dict(rho),
        "checks": checks,
    }
    lines = [f"lifted rays: {report['lifted_rays']}",
             f"bundle class {_deg_str(gamma)}",
             f"lifted critical degree {_deg_str(rho)}"]
    lines += [f"check {k}: {'pass' if v else 'fail'}" for k, v in checks.items()]
    _emit(report, args.json, lines)
    return 0 if all(checks.values()) else 1


def cmd_cone_xalpha(args) -> int:
    fan, _ = load_fan(args.fanfile)
    coeffs = _parse_ints(args.coeffs, fan.nvars, "coefficients")
    lifted = [(coeffs[i],) + fan.rays[i] for i in range(fan.nvars)]
    report = {"generators": [list(v) for v in lifted]}
    _emit(report, args.json,
          ["lifted cone generators:"] + [f"  {list(v)}" for v in lifted])
    return 0


def _random_admissible(problem, rng):
    n1 = len(problem.polys)
    nv = problem.fan.nvars
    same = all(d == problem.degrees[0] for d in problem.degrees)
    while True:
        M = [[MultiPoly.zero(nv) for _ in range(n1)] for _ in range(n1)]
        if same:
            vals = [[rng.randint(-3, 3) for _ in range(n1)] for _ in range(n1)]
            for i in range(n1):
                for j in range(n1):
                    if vals[i][j]:
                        M[i][j] = MultiPoly.constant(nv, vals[i][j])
        else:
            for j in range(n1):
                M[j][j] = MultiPoly.constant(nv, rng.choice([-2, -1, 1, 2]))
            for j in range(n1):
                for i in range(j):
                    gap = problem.degrees[j] - problem.degrees[i]
                    mons = monomial_basis(problem.fan, problem.grading, gap)
                    if mons and rng.random() < 0.5:
                        M[i][j] = MultiPoly.monomial(
                            rng.choice(mons), rng.randint(1, 2))
        if not poly_det(M).is_zero():
            return M


def cmd_check(args) -> int:
    loaded = _problem_from_args(args)
    problem = loaded.problem
    names = problem.fan.variables
    which = args.which
    report = {"check": which, "seed": args.seed}
    ok = True
    lines = []
    if which == "codim1":
        rep = problem.codim
        ok = rep.ok
        report["quotient_dim"] = rep.quotient_dim
        if rep.pivot is not None:
            report["pivot"] = _mono_str(rep.pivot, names)
        if rep.witness:
            report["witness"] = [_mono_str(w, names) for w in rep.witness]
            lines.append("independent normal forms: "
                         + ", ".join(report["witness"]))
    elif which == "annihilation":
        rep = variable_annihilation_check(problem)
        ok = rep.ok
        if rep.witness:
            i, m = rep.witness
            report["witness"] = f"{names[i]}*{_mono_str(m, names)}"
            lines.append(f"not in ideal: {report['witness']}")
    elif which == "gtl":
        rng = random.Random(args.seed)
        if args.H:
            H = parse_poly(args.H, names)
        elif loaded.inputs:
            H = loaded.inputs[0]
        else:
            H = MultiPoly.monomial(problem.codim.pivot)
        trials = args.count
        if trials < 1:
            raise ParseError(f"--count must be at least 1, got {trials}")
        for t in range(trials):
            A = _random_admissible(problem, rng)
            if not verify_gtl(problem, A, H):
                ok = False
                report["failed_at"] = t
                break
        report["trials"] = trials
    elif which == "jacobian":
        ok = jacobian_residue_check(problem)
    elif which == "theorem04":
        if args.H:
            hs = [parse_poly(args.H, names)]
        else:
            hs = list(loaded.inputs) or [MultiPoly.monomial(problem.codim.pivot)]
        deltas = []
        skipped = []
        for H in hs:
            sym = toric_residue(problem, H)
            for k in range(len(problem.polys)):
                try:
                    deltas.append(abs(sum_local_residues(problem, H, k) - sym))
                except (NotTorusZero, InfiniteIntersection, NonSimpleZero) as exc:
                    skipped.append((k, type(exc).__name__))
        if not deltas:
            raise HypothesesFailed("no admissible index: every zero set was refused")
        worst = max(deltas)
        ok = worst == 0
        report["max_deviation"] = float(worst)
        report["skipped"] = [{"k": k, "reason": r} for k, r in skipped]
        lines.append(f"max |local sum - residue| = {_rat(worst)}")
        for k, r in skipped:
            lines.append(f"k={k} skipped: {r}")
    elif which == "cayley":
        _, checks = _cayley_checks(problem)
        report["checks"] = checks
        ok = all(checks.values())
    else:
        raise ParseError(f"unknown check {which!r}")
    report["ok"] = ok
    _emit(report, args.json, [f"check {which}: {'pass' if ok else 'fail'}"] + lines)
    return 0 if ok else 1


def cmd_fan(args) -> int:
    fan, grading = load_fan(args.fanfile)
    comp = is_complete(fan)
    report = {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [[i + 1 for i in cone] for cone in fan.max_cones],
        "simplicial": is_simplicial(fan),
        "complete": comp.ok,
    }
    if not comp.ok:
        report["witness"] = comp.witness
    lines = [f"dim {fan.dim}, {fan.nvars} rays, {len(fan.max_cones)} maximal cones",
             f"simplicial: {report['simplicial']}, complete: {comp.ok}"]
    if not comp.ok:
        lines.append(f"  {comp.witness}")
    _emit(report, args.json, lines)
    return 0 if comp.ok and report["simplicial"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toricres",
        description="Exact residue computations on complete simplicial fans")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("fan", cmd_fan, help="validate a fan file")
    p.add_argument("fanfile")
    p = add("grading", cmd_grading, help="variable degrees and torsion")
    p.add_argument("fanfile")
    p = add("ample", cmd_ample, help="Cartier/ample/Q-ample tests")
    p.add_argument("fanfile")
    p.add_argument("--coeffs", required=True, help="ray coefficients, comma separated")
    p = add("bsigma", cmd_bsigma, help="irrelevant ideal generators")
    p.add_argument("fanfile")
    p = add("monomials", cmd_monomials, help="monomials of a degree class")
    p.add_argument("fanfile")
    p.add_argument("--free", required=True, help="free part, comma separated")
    p.add_argument("--torsion", help="torsion part, comma separated")
    p = add("residue", cmd_residue, help="full residue report")
    p.add_argument("problemfile")
    p.add_argument("--H", help="input polynomial (defaults to the file's H)")
    p.add_argument("--sigma", type=int, help="1-based cone index")
    p.add_argument("--order", help="monomial order, e.g. grevlex:x>y>z")
    p = add("delta", cmd_delta, help="cone determinants")
    p.add_argument("problemfile")
    p.add_argument("--sigma", type=int)
    p.add_argument("--order", help="monomial order override")
    p = add("check", cmd_check, help="run a named verification")
    p.add_argument("which", choices=["gtl", "theorem04", "jacobian", "codim1",
                                     "annihilation", "cayley"])
    p.add_argument("problemfile")
    p.add_argument("--H", help="input polynomial override")
    p.add_argument("--sigma", type=int)
    p.add_argument("--order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20, help="random trials for gtl")
    p = add("cayley", cmd_cayley, help="bundle lift report and checks")
    p.add_argument("problemfile")
    p.add_argument("--sigma", type=int)
    p.add_argument("--order")
    p = add("cone-xalpha", cmd_cone_xalpha, help="lifted cone generators for a divisor")
    p.add_argument("fanfile")
    p.add_argument("--coeffs", required=True)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ToricError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
