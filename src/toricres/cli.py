"""Command line front end.

Exit codes: 0 success, 1 a check reported failure, 2 parse problems
(also non-integer or wrong-length options, or an empty field in one), 3
invalid fan data or degree basis (also a problem on a fan that is not
complete and simplicial) or an unbounded polytope, 4 violated hypotheses
(wrong degree, a zero or non-homogeneous input, membership, a refused
local residue sum) and any other package error, 5 a problem that passes
membership and the zero locus but whose critical-degree quotient is not
one-dimensional or has no monomial.
Each code and its stderr prefix are attributes of the error class.

One table, ``COMMANDS``, defines every subcommand.  Each call of ``main``
builds one parser: of the subcommand ``argv[0]`` names, else of them all.
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
from .divisors import is_cartier, is_q_ample
from .errors import (
    HypothesesFailed,
    InfiniteIntersection,
    NonSimpleZero,
    NotTorusZero,
    ParseError,
    ToricError,
)
from .files import load_fan, load_problem
from .grading import DegreeClass, anticanonical_class, representative_divisor
from .lattice import is_complete, is_simplicial, mat_det
from .localres import sum_local_residues
from .poly import MultiPoly, parse_poly, poly_to_string
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
    if text.strip() and not all(f.strip() for f in text.split(",")):
        raise ParseError(f"{what} have an empty field: {text!r}")
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
    qamp = is_q_ample(fan, coeffs)
    ample = cart.ok and qamp.ok  # is_ample: Cartier and strictly convex
    report = {
        "coefficients": coeffs,
        "cartier": cart.ok,
        "cartier_witnesses": list(cart.witnesses),
        "ample": ample,
        "q_ample": qamp.ok,
        "strictness_witnesses": list(qamp.witnesses),
    }
    lines = [f"cartier: {cart.ok}  ample: {ample}  q-ample: {qamp.ok}"]
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
    return load_problem(args.problemfile, sigma_override=args.sigma,
                        order_override=args.order)


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
    rep = residue_report(problem, H)
    report = {
        "critical_degree": _deg_dict(rep.critical),
        "monomial_count": len(rep.monomials),
        "pivot": _mono_str(rep.pivot, names),
        "delta": poly_to_string(rep.delta, names),
        "c_sigma": _rat(rep.c_sigma),
        "c_h": _rat(rep.c_h),
        "residue": _rat(rep.residue),
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
    per_cone = [poly_to_string(cone_determinant(problem, k), names)
                for k in range(len(problem.fan.max_cones))]
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
        "lifted_rays": [list(r) for r in cd.bundle.rays],
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
    if all(d == problem.degrees[0] for d in problem.degrees):
        while True:
            vals = [[rng.randint(-3, 3) for _ in range(n1)] for _ in range(n1)]
            if mat_det(vals):
                return [[MultiPoly.constant(nv, v) for v in row] for row in vals]
    # upper triangular with a nonzero constant diagonal: nonsingular as drawn
    M = [[MultiPoly.constant(nv, rng.choice([-2, -1, 1, 2]) if i == j else 0)
          for j in range(n1)] for i in range(n1)]
    for j in range(n1):
        for i in range(j):
            gap = problem.degrees[j] - problem.degrees[i]
            mons = monomial_basis(problem.fan, problem.grading, gap)
            if mons and rng.random() < 0.5:
                M[i][j] = MultiPoly.monomial(rng.choice(mons), rng.randint(1, 2))
    return M


def cmd_check(args) -> int:
    loaded = _problem_from_args(args)
    problem = loaded.problem
    names = problem.fan.variables
    which = args.which
    report = {"check": which}
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
        report["seed"] = args.seed
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
        report["max_deviation"] = _rat(worst)
        report["skipped"] = [{"k": k, "reason": r} for k, r in skipped]
        lines.append(f"max |local sum - residue| = {_rat(worst)}")
        for k, r in skipped:
            lines.append(f"k={k} skipped: {r}")
    elif which == "cayley":
        _, checks = _cayley_checks(problem)
        report["checks"] = checks
        ok = all(checks.values())
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


# name -> (handler, --help line, arguments after --json as (flag, keywords)),
# in the order --help lists them
FANFILE = [("fanfile", {})]
PROBLEMFILE = [("problemfile", {}), ("--sigma", dict(type=int, help="1-based cone index")),
               ("--order", dict(help="monomial order, e.g. grevlex:x>y>z"))]
COMMANDS = {
    "fan": (cmd_fan, "validate a fan file", FANFILE),
    "grading": (cmd_grading, "variable degrees and torsion", FANFILE),
    "ample": (cmd_ample, "Cartier/ample/Q-ample tests", FANFILE + [
        ("--coeffs", dict(required=True, help="ray coefficients, comma separated"))]),
    "bsigma": (cmd_bsigma, "irrelevant ideal generators", FANFILE),
    "monomials": (cmd_monomials, "monomials of a degree class", FANFILE + [
        ("--free", dict(required=True, help="free part, comma separated")),
        ("--torsion", dict(help="torsion part, comma separated"))]),
    "residue": (cmd_residue, "full residue report", PROBLEMFILE + [
        ("--H", dict(help="input polynomial (defaults to the file's H)"))]),
    "delta": (cmd_delta, "cone determinants", PROBLEMFILE),
    "check": (cmd_check, "run a named verification", [
        ("which", dict(choices=["gtl", "theorem04", "jacobian", "codim1",
                                "annihilation", "cayley"]))] + PROBLEMFILE + [
        ("--H", dict(help="input polynomial override")),
        ("--seed", dict(type=int, default=0)),
        ("--count", dict(type=int, default=20, help="random trials for gtl"))]),
    "cayley": (cmd_cayley, "bundle lift report and checks", PROBLEMFILE),
    "cone-xalpha": (cmd_cone_xalpha, "lifted cone generators for a divisor",
                    FANFILE + [("--coeffs", dict(required=True))]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.  The
    subcommand metavar names the whole table either way, so both print the
    same usage lines, help pages and errors for an argv led by ``command``."""
    ap = argparse.ArgumentParser(
        prog="toricres",
        description="Exact residue computations on complete simplicial fans")
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(COMMANDS) + "}")
    for name in [command] if command else COMMANDS:
        fn, text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit JSON")
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except ToricError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
