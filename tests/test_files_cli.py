"""File loading contracts, the command line surface with its exit codes, and
the names the package exports."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import toricres
from toricres import InvalidFan, ParseError, cli, divisors, errors, is_ample, is_cartier, is_q_ample
from toricres.cli import main
from toricres.files import load_fan, load_problem
from toricres.localres import sum_local_residues
from toricres.residues import residue_report

from conftest import FIXTURES

PROJECT = FIXTURES.parent
# the directory holding the toricres package that this module imported
PACKAGE_ROOT = str(Path(toricres.__file__).resolve().parent.parent)


def fx(name: str) -> str:
    return str(FIXTURES / name)


# ---------------------------------------------------------------------------
# loaders


def test_missing_file():
    with pytest.raises(ParseError):
        load_fan(FIXTURES / "no_such_fan.json")


def test_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_fan(p)


def test_non_object_json(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ParseError):
        load_fan(p)


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"dim": 2, "rays": [[' + "9" * 5000 + ', 0]], "max_cones": [[1]]}',
], ids=["deep-array", "long-integer"])
def test_json_that_python_cannot_read_is_a_parse_error(tmp_path, text):
    """An array nested past the recursion limit once escaped as
    RecursionError, and an integer of more digits than int() converts as a
    ValueError that is no JSONDecodeError."""
    p = tmp_path / "hostile.json"
    p.write_text(text)
    with pytest.raises(ParseError, match="cannot be read as JSON"):
        load_fan(p)


def test_missing_fan_keys(tmp_path):
    p = tmp_path / "partial.json"
    p.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]]}))
    with pytest.raises(ParseError) as err:
        load_fan(p)
    assert "max_cones" in str(err.value)


def test_missing_problem_keys(tmp_path):
    p = tmp_path / "partial.json"
    p.write_text(json.dumps({"fan": "p2.fan.json"}))
    with pytest.raises(ParseError):
        load_problem(p)


def test_bad_sigma(tmp_path):
    src = json.loads((FIXTURES / "pentagon_small.json").read_text())
    src["fan"] = fx(src["fan"])
    src["sigma"] = 9
    p = tmp_path / "sigma.json"
    p.write_text(json.dumps(src))
    with pytest.raises(ParseError):
        load_problem(p)


P2_FAN = json.loads((FIXTURES / "p2.fan.json").read_text())
PENTAGON_FAN = json.loads((FIXTURES / "pentagon.fan.json").read_text())


@pytest.mark.parametrize("fan,key,value", [
    (P2_FAN, "rays", [[1.5, 0], [0, 1], [-1, -1]]),
    (P2_FAN, "rays", [[True, 0], [0, 1], [-1, -1]]),
    (P2_FAN, "max_cones", [[2, 3], [1, 3], [1, 2.9]]),
    (P2_FAN, "dim", 2.0),
    (PENTAGON_FAN, "degree_basis",
     [[1, -1, 1, 0, 0], [1, 1, 0, 1, 0], [-1, 1, 0, 0, 1.0]]),
])
def test_non_integer_fan_fields_rejected(tmp_path, capsys, fan, key, value):
    # truncated by int(), [1.5, 0] and [1, 2.9] would load as P^2
    p = tmp_path / "bad.fan.json"
    p.write_text(json.dumps(dict(fan, **{key: value})))
    with pytest.raises(ParseError):
        load_fan(p)
    problem = tmp_path / "bad.json"
    problem.write_text(json.dumps({"fan": p.name, "F": fan["variables"][:3]}))
    assert main(["fan", str(p)]) == 2
    assert main(["residue", str(problem)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", [1.0, True, "1"])
def test_non_integer_sigma_rejected(tmp_path, sigma):
    p = tmp_path / "sigma.json"
    p.write_text(json.dumps({"fan": fx("p2.fan.json"), "F": ["x0^2", "x1^2", "x2^2"],
                             "sigma": sigma}))
    with pytest.raises(ParseError):
        load_problem(p)


@pytest.mark.parametrize("key,value", [
    ("F", ["x0^2", "x1^2", 5]),
    ("H", [7]),
    ("order", 3),
    ("fan", 5),
])
def test_malformed_problem_fields_rejected(tmp_path, capsys, key, value):
    # fan and order must be strings, F and H lists of strings
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict({"fan": fx("p2.fan.json"), "F": ["x0^2", "x1^2", "x2^2"]},
                                 **{key: value})))
    with pytest.raises(ParseError, match=f": {key} must be a"):
        load_problem(p)
    assert main(["residue", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_bare_string_f_is_not_read_by_character(tmp_path, capsys):
    # on a fan with variables x, y, z, "xyz" must not pass for the inputs x, y, z
    p = tmp_path / "bare.json"
    p.write_text(json.dumps({"fan": fx("p112.fan.json"), "F": "xyz"}))
    with pytest.raises(ParseError, match=": F must be a list of strings"):
        load_problem(p)
    assert main(["residue", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("variables", [[1, 2, 3], ["x", "y", "2z"], "xyz"])
def test_variables_must_be_names(tmp_path, capsys, variables):
    p = tmp_path / "names.fan.json"
    p.write_text(json.dumps(dict(P2_FAN, variables=variables)))
    with pytest.raises(ParseError, match=": variables must be"):
        load_fan(p)
    assert main(["bsigma", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -3])
def test_gtl_needs_at_least_one_trial(capsys, count):
    # no trial checks nothing, so it cannot report ok
    assert main(["check", "gtl", fx("p2_fermat.json"), "--count", str(count)]) == 2
    assert "--count must be at least 1" in capsys.readouterr().err


def test_sigma_and_order_overrides():
    lp = load_problem(fx("pentagon_small.json"), sigma_override=2,
                      order_override="lex:x>y>z>t>u")
    assert lp.problem.sigma == 1
    assert lp.order.kind == "lex"


# ---------------------------------------------------------------------------
# exit codes


def test_exit_parse_error(capsys):
    assert main(["fan", fx("no_such_fan.json")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_exit_parse_error_on_a_zero_denominator(capsys):
    """1/0 in an H once ended in a ZeroDivisionError traceback and exit 1,
    the code of a failed check."""
    assert main(["residue", fx("p2_fermat.json"), "--H", "1/0*x0*x1*x2"]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    pytest.param("residue", "(" * 400 + "x0" + ")" * 400, id="H-parentheses"),
    pytest.param("residue", "1" * 5000 + "*x0*x1*x2", id="H-long-integer"),
    pytest.param("fan", "[" * 100_000 + "]" * 100_000, id="fan-deep-array"),
    pytest.param("fan", '{"dim": 2, "rays": [[' + "9" * 5000 + ', 0]]}', id="fan-long-integer"),
])
def test_exit_parse_error_on_hostile_input(tmp_path, capsys, command, text):
    """Deep nesting and integers of more digits than int() converts, in an
    H or in a JSON file, once ended in a traceback and exit 1, the code of
    a failed check."""
    if command == "residue":
        argv = ["residue", fx("p2_fermat.json"), "--H", text]
    else:
        path = tmp_path / "hostile.json"
        path.write_text(text)
        argv = ["fan", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_exit_parse_error_on_a_power_past_its_bounds(capsys):
    """An H with a power that expands past the parser's bounds once ran
    without end; it is refused before expanding."""
    assert main(["residue", fx("p2_fermat.json"), "--H", "(x0+x1+x2+1)^100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "power too large" in err


def test_exit_parse_error_on_a_product_past_its_bound(capsys):
    """An H whose product expands past the term bound once took seconds to
    multiply; it is refused before multiplying."""
    assert main(["residue", fx("p2_fermat.json"), "--H", "(x0+1)^300*(x1+1)^300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "product too large" in err


def test_exit_invalid_fan(tmp_path, capsys):
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(
        {"dim": 1, "rays": [[1], [1]], "max_cones": [[1], [2]]}))
    assert main(["fan", str(p)]) == 3
    assert "invalid fan" in capsys.readouterr().err


def test_exit_hypotheses(capsys):
    assert main(["residue", fx("pentagon_outside.json")]) == 4
    assert "hypotheses violated" in capsys.readouterr().err


def test_exit_sigma_out_of_range(capsys):
    assert main(["residue", fx("p2_fermat.json"), "--sigma", "0"]) == 2
    assert main(["residue", fx("p2_fermat.json"), "--sigma", "9"]) == 2
    assert "sigma must be a 1-based cone index" in capsys.readouterr().err


def test_exit_codim(capsys):
    assert main(["residue", fx("pentagon_not_codim1.json")]) == 5
    assert "codimension failure" in capsys.readouterr().err
    # a problem outside the irrelevant ideal is refused at membership first
    assert main(["residue", fx("p1p1_not_codim1.json")]) == 4
    assert "hypotheses violated" in capsys.readouterr().err


PROBLEM_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json")
                          if not p.name.endswith(".fan.json"))


@pytest.mark.parametrize("name", PROBLEM_FIXTURES)
def test_residue_command_refuses_as_residue_report_does(capsys, name):
    """The CLI adds no check of its own: its exit code and stderr line, or
    its residue, are those of ``residue_report`` on the file's first H."""
    lp = load_problem(fx(name))
    code = main(["residue", fx(name), "--json"])
    out, err = capsys.readouterr()
    try:
        rep = residue_report(lp.problem, lp.inputs[0])
    except errors.ToricError as exc:
        assert (code, err) == (exc.exit_code, f"{exc.prefix}: {exc}\n")
    else:
        assert code == 0
        assert json.loads(out)["residue"] == str(rep.residue)


@pytest.mark.parametrize("F", [["x0^2 + x1", "x1^2", "x2^2"], ["0", "x1^2", "x2^2"]])
def test_exit_non_homogeneous_or_zero_input(tmp_path, capsys, F):
    p = tmp_path / "problem.json"
    p.write_text(json.dumps({"fan": fx("p2.fan.json"), "F": F}))
    assert main(["residue", str(p)]) == 4
    assert "hypotheses violated" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [([[1, 1, 2]], "does not vanish"),
                                           ([[2, 2, 2]], "do not generate")])
def test_exit_rejected_degree_basis(tmp_path, capsys, rows, message):
    p = tmp_path / "fan.json"
    p.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                             "max_cones": [[1, 2], [2, 3], [1, 3]], "degree_basis": rows}))
    assert main(["grading", str(p)]) == 3
    err = capsys.readouterr().err
    assert "invalid fan" in err and message in err


@pytest.mark.parametrize("rows", [5, [1, 1, 1], [[[1], 1, 1]]])
def test_exit_parse_error_on_a_degree_basis_that_is_not_a_matrix(tmp_path, capsys, rows):
    """A degree basis of integers that is not a list of integer rows is
    refused where the file is read, as the same shapes in rays are."""
    p = tmp_path / "fan.json"
    p.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                             "max_cones": [[1, 2], [2, 3], [1, 3]], "degree_basis": rows}))
    assert main(["grading", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"parse error: {p}: ") and "Traceback" not in err


@pytest.mark.parametrize("rows, code", [([[2, 2, 2]], 3), ([[-1, -1, -1]], 0)])
def test_torsion_fan_degree_basis_is_a_change_of_basis(tmp_path, capsys, rows, code):
    # the torsion row and the ray image reach [1, 1, 1] from [2, 2, 2], but
    # only a unimodular change of the computed row presents the class group
    p = tmp_path / "fan.json"
    p.write_text(json.dumps(dict(json.loads((FIXTURES / "torsion.fan.json").read_text()),
                                 degree_basis=rows)))
    assert main(["grading", str(p)]) == code
    out, err = capsys.readouterr()
    if code:
        assert "invalid fan" in err and "do not generate" in err
    else:
        assert "deg x = (-1) torsion (2 mod 3)" in out


# every error type of the package, with the exit code and the stderr prefix
# the command line gives it
EXIT_CODES = {
    "ParseError": 2,
    "InvalidFan": 3, "NotAGrading": 3, "NotSurjective": 3, "Unbounded": 3,
    "CodimNotOne": 5, "AllReduceToZero": 5,
    "ToricError": 4, "ZeroPolynomial": 4, "NotHomogeneous": 4, "NonSquare": 4,
    "NoIntegralLift": 4, "NotAmple": 4,
    "DecompositionFailed": 4, "WrongDegree": 4, "HypothesesFailed": 4,
    "DegreeMismatch": 4, "NotZeroDimensional": 4, "NonSimpleZero": 4,
    "ZeroOnPolarLocus": 4, "NotTorusZero": 4, "InfiniteIntersection": 4,
    "ExponentTooLarge": 4,
}
PREFIXES = {2: "parse error", 3: "invalid fan", 4: "hypotheses violated",
            5: "codimension failure"}
# an unbounded polytope can come from a valid fan, so it has a prefix of its own
OWN_PREFIXES = {"Unbounded": "unbounded polytope"}


def test_every_error_type_has_its_exit_code(monkeypatch, capsys):
    types = {name: cls for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.ToricError)}
    assert set(types) == set(EXIT_CODES)
    for name, cls in types.items():
        def fail(args, cls=cls):
            raise cls("boom")
        monkeypatch.setitem(cli.COMMANDS, "fan", (fail, *cli.COMMANDS["fan"][1:]))
        code = EXIT_CODES[name]
        assert (name, main(["fan", fx("p2.fan.json")])) == (name, code)
        assert capsys.readouterr().err == f"{OWN_PREFIXES.get(name, PREFIXES[code])}: boom\n"


# rays (1,0), (0,1), (-1,0) covering the upper half plane only, and a
# complete-looking fan whose third cone has the dependent rays (1,0), (-1,0)
HALF_PLANE = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[1, 2], [2, 3]]}
DEPENDENT = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1], [-1, 0]],
             "max_cones": [[1, 2], [2, 3], [1, 4]]}


def test_exit_unbounded_polytope_on_incomplete_fan(tmp_path, capsys):
    p = tmp_path / "half.fan.json"
    p.write_text(json.dumps(HALF_PLANE))
    assert main(["monomials", str(p), "--free", "1"]) == 3
    assert capsys.readouterr().err.startswith("unbounded polytope: ")


@pytest.mark.parametrize("fan, witness", [
    (HALF_PLANE, "facet (0,) lies in 1 maximal cones"),
    (DEPENDENT, "a maximal cone is not simplicial of full dimension"),
])
def test_problem_needs_a_complete_simplicial_fan(tmp_path, capsys, fan, witness):
    (tmp_path / "f.fan.json").write_text(json.dumps(fan))
    p = tmp_path / "problem.json"
    p.write_text(json.dumps({"fan": "f.fan.json", "F": ["x1^2", "x2^2", "x3^2"],
                             "H": ["x1*x2*x3"]}))
    with pytest.raises(InvalidFan, match=re.escape(witness)):
        load_problem(p)
    for command in ("residue", "delta", "cayley"):
        assert main([command, str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid fan: ") and witness in err


@pytest.mark.parametrize("argv", [
    ["ample", fx("p2.fan.json"), "--coeffs", "1,a,0"],
    ["cone-xalpha", fx("p2.fan.json"), "--coeffs", "1.5,0,0"],
    ["monomials", fx("p2.fan.json"), "--free", "x"],
    ["monomials", fx("torsion.fan.json"), "--free", "1", "--torsion", "q"],
])
def test_exit_non_integer_option(capsys, argv):
    assert main(argv) == 2
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ample", fx("p2.fan.json"), "--coeffs", "1,,1,1"],
    ["ample", fx("p2.fan.json"), "--coeffs", "1,0,0,"],
    ["cone-xalpha", fx("p2.fan.json"), "--coeffs", ",1,0,0"],
    ["monomials", fx("p2.fan.json"), "--free", "1, ,"],
    ["monomials", fx("torsion.fan.json"), "--free", "1", "--torsion", ",1"],
])
def test_exit_empty_option_field(capsys, argv):
    """``1,,1,1`` once read as the three coefficients 1, 1, 1 and ran."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error: ") and "empty field" in err


@pytest.mark.parametrize("argv, message", [
    (["monomials", fx("p2.fan.json"), "--free", "1,2"], "need 1 free degree entries"),
    (["monomials", fx("torsion.fan.json"), "--free", "1", "--torsion", "1,1"],
     "need 1 torsion entries"),
    (["ample", fx("p2.fan.json"), "--coeffs", "1,0"], "need 3 coefficients"),
])
def test_exit_wrong_option_length(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_exit_failed_check(capsys):
    assert main(["check", "annihilation", fx("pentagon_outside.json")]) == 1


def test_exit_passing_checks(capsys):
    assert main(["check", "codim1", fx("pentagon_small.json")]) == 0
    assert main(["check", "annihilation", fx("pentagon_small.json")]) == 0
    assert main(["check", "theorem04", fx("p1_numeric_a.json")]) == 0
    assert main(["check", "gtl", fx("p1_numeric_b.json"), "--count", "3"]) == 0


def test_theorem04_sums_zeros_off_the_torus(capsys):
    """pentagon_small's zeros with its monomial input kept lie off the
    torus, on one chart: theorem04 sums them to the residue, -1, and skips
    only the inputs whose zeros no single chart holds.  p1_numeric_a skips
    nothing."""
    lp = load_problem(fx("pentagon_small.json"))
    assert sum_local_residues(lp.problem, lp.inputs[0], 0) == -1
    assert main(["check", "theorem04", fx("pentagon_small.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_deviation"] == "0"
    assert report["skipped"] == [{"k": 1, "reason": "NotTorusZero"},
                                 {"k": 2, "reason": "NotTorusZero"}]
    assert main(["check", "theorem04", fx("p1_numeric_a.json"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == []


# ---------------------------------------------------------------------------
# report content


def test_only_gtl_reports_its_seed(capsys):
    """``--seed`` draws gtl's random admissible matrices; no other check
    reads it, so no other report carries it."""
    assert main(["check", "theorem04", fx("p1p1_numeric.json"), "--json"]) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)
    assert main(["check", "gtl", fx("p1_numeric_b.json"), "--count", "2",
                 "--seed", "7", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["check"] == "gtl" and report["seed"] == 7


def test_theorem04_reports_its_deviation_exactly(capsys):
    """The deviation is a rational, emitted as a string like every other
    exact value."""
    assert main(["check", "theorem04", fx("p1p1_numeric.json"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["max_deviation"] == "0"


def test_a_trivial_class_group_grades_and_refuses_its_monomials(tmp_path, capsys):
    """Rays forming a lattice basis leave no free and no torsion rows: the
    grading reports two variables of the trivial class, and the monomials
    of that class are the lattice points of an unbounded polytope."""
    path = tmp_path / "plane.fan.json"
    path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[1, 2]]}))
    assert main(["grading", str(path)]) == 0
    out = capsys.readouterr().out
    assert "grading rank 0" in out and "deg x2 = ()" in out
    assert main(["monomials", str(path), "--free", ""]) == 3
    assert capsys.readouterr().err == \
        "unbounded polytope: polytope has an unbounded direction\n"


@pytest.mark.parametrize("head", [["residue"], ["delta"], ["check", "codim1"], ["cayley"]])
def test_every_problem_command_reads_sigma_and_order(head):
    args = cli.build_parser().parse_args(
        head + ["p.json", "--sigma", "2", "--order", "lex:x>y"])
    assert (args.problemfile, args.sigma, args.order) == ("p.json", 2, "lex:x>y")
    args = cli.build_parser().parse_args(head + ["p.json"])
    assert (args.sigma, args.order) == (None, None)


def test_grading_output(capsys):
    assert main(["grading", fx("pentagon.fan.json")]) == 0
    out = capsys.readouterr().out
    assert "deg x = (1,1,-1)" in out
    assert "anticanonical = (1,3,1)" in out
    assert "[user]" in out


def test_cone_xalpha_output(capsys):
    assert main(["cone-xalpha", fx("p2.fan.json"), "--coeffs", "1,0,0"]) == 0
    out = capsys.readouterr().out
    assert "[1, -1, -1]" in out
    assert "[0, 1, 0]" in out
    assert "[0, 0, 1]" in out


def test_bsigma_output(capsys):
    assert main(["bsigma", fx("p1p1.fan.json")]) == 0
    out = capsys.readouterr().out
    for g in ("y*t", "y*z", "x*t", "x*z"):
        assert g in out


@pytest.mark.parametrize("name, coeffs", [
    ("p2.fan.json", (1, 0, 0)), ("p2.fan.json", (1, -1, 0)),
    ("p112.fan.json", (1, 0, 0)), ("p112.fan.json", (0, 0, 1)),
    ("pentagon.fan.json", (1, 3, 1, 0, 0)), ("pentagon.fan.json", (2, 3, 1, 0, 0)),
    ("pentagon.fan.json", (1, 1, 1, 0, 0)), ("torsion.fan.json", (1, 1, 1)),
])
def test_ample_output_is_the_three_reports(capsys, monkeypatch, name, coeffs):
    """``ample`` is ``is_ample``'s answer, read from the Cartier and Q-ample
    reports with two support tables, not three."""
    fan, _ = load_fan(fx(name))
    cart, amp, qamp = (test(fan, coeffs) for test in (is_cartier, is_ample, is_q_ample))
    calls = []
    real = divisors.support_meets
    monkeypatch.setattr(divisors, "support_meets", lambda *a: calls.append(1) or real(*a))
    argv = ["ample", fx(name), "--coeffs", ",".join(map(str, coeffs))]
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "coefficients": list(coeffs), "cartier": cart.ok,
        "cartier_witnesses": list(cart.witnesses),
        "ample": amp.ok, "q_ample": qamp.ok,
        "strictness_witnesses": [list(w) for w in qamp.witnesses]}
    assert len(calls) == 2
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(
        f"cartier: {cart.ok}  ample: {amp.ok}  q-ample: {qamp.ok}")


def test_monomials_output(capsys):
    assert main(["monomials", fx("p1p1.fan.json"), "--free", "2,0"]) == 0
    out = capsys.readouterr().out
    assert "3 monomials" in out
    for m in ("x^2", "x*y", "y^2"):
        assert m in out


def test_residue_json_roundtrip(capsys):
    assert main(["residue", fx("pentagon_small.json"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    # exact values travel as strings so nothing is rounded
    assert data["c_sigma"] == "-1"
    assert data["c_h"] == "1"
    assert data["residue"] == "-1"
    # a report is printed only when every hypothesis holds, so no key says so
    assert not {"codim_one", "membership_ok", "no_common_zeros"} & data.keys()
    assert data["monomial_count"] == 4
    assert data["critical_degree"]["free"] == [1, 2, 1]


def test_residue_json_main_problem(capsys):
    assert main(["residue", fx("pentagon_main.json"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["c_sigma"] == "-1/2"
    assert data["residue"] == "-2"
    assert data["monomial_count"] == 22


# ---------------------------------------------------------------------------
# subprocess entry points
#
# Each subprocess gets the directory holding the imported toricres package at
# the front of PYTHONPATH, so it runs the code the in-process tests above
# import, whatever the working directory or an older installed copy holds.


def _run(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def _declared_entry_point() -> str:
    """The ``module:attr`` that ``[project.scripts]`` installs as toricres."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PROJECT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["toricres"]


def _wrapper_source(entry: str) -> str:
    """What the installer writes into the console script for ``entry``."""
    module, attr = entry.split(":")
    return f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"


def _check_command(command):
    """The README contract for a command that runs ``toricres``: JSON on
    stdout with the exact residue, and ``main``'s return value as the
    process status."""
    proc = _run(command + ["residue", fx("p1_numeric_a.json"), "--json"])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["residue"] == "-1"

    proc = _run(command + ["residue", fx("pentagon_not_codim1.json")])
    assert proc.returncode == 5, proc.stderr
    assert "codimension failure" in proc.stderr

    proc = _run(command + ["residue", fx("p1p1_not_codim1.json")])
    assert proc.returncode == 4, proc.stderr
    assert "hypotheses violated" in proc.stderr


def test_console_script_subprocess():
    wrapper = _wrapper_source(_declared_entry_point())
    _check_command([sys.executable, "-c", wrapper])


@pytest.mark.skipif(shutil.which("toricres") is None,
                    reason="toricres console script is not on PATH "
                           "(package not pip-installed)")
def test_installed_console_script():
    _check_command([shutil.which("toricres")])


def test_module_invocation_subprocess():
    proc = _run([sys.executable, "-m", "toricres.cli", "residue",
                 fx("pentagon_not_codim1.json")])
    assert proc.returncode == 5
    proc = _run([sys.executable, "-m", "toricres.cli", "residue",
                 fx("p1p1_not_codim1.json")])
    assert proc.returncode == 4
    assert "hypotheses violated" in proc.stderr


def test_run_examples_script():
    proc = _run([sys.executable, str(PROJECT / "scripts" / "run_examples.py")])
    assert proc.returncode == 0, proc.stderr


def test_run_examples_script_runs_from_a_plain_checkout(tmp_path):
    """No install and no PYTHONPATH: the script finds the checkout's src/."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(PROJECT / "scripts" / "run_examples.py"),
                           "--only", "p2"], capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "p2" in proc.stdout


# ---------------------------------------------------------------------------
# exports


def test_star_import_binds_exported_names_only():
    namespace = {}
    exec("from toricres import *", namespace)
    del namespace["__builtins__"]
    assert not [n for n, v in namespace.items() if isinstance(v, ModuleType)]
    assert set(namespace) == set(toricres.__all__)
    public = {n for n, v in vars(toricres).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert set(toricres.__all__) == public | {"__version__"}
