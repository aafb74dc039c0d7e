"""JSON input formats for fans and residue problems.

Fan file:
    {"dim": 2, "rays": [[1,0],[0,1],[-1,-1]],
     "max_cones": [[2,3],[1,3],[1,2]],        # 1-based ray indices
     "variables": ["x","y","z"],               # optional
     "degree_basis": [[1,1,1]]}                # optional free grading rows
    dim, ray entries, cone indices and degree_basis entries are JSON integers.
    A valid degree_basis is a unimodular change of the computed free rows;
    the torsion part is always the computed one.

Problem file:
    {"fan": "p2.fan.json",                     # path relative to this file
     "F": ["x^2", "y^2", "z^2"],
     "order": "grevlex:x>y>z",                 # optional
     "sigma": 1,                               # optional, 1-based cone index
     "H": ["x*y*z"]}                           # optional inputs of interest
    fan and order are strings, F and H lists of strings.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InvalidFan, ParseError
from .grading import Grading, compute_grading, validate_user_grading
from .groebner import MonomialOrder, grevlex, parse_order
from .lattice import FanData, is_complete, make_fan
from .poly import _NAME, MultiPoly, parse_poly
from .residues import ResidueProblem
from .values import Value


def _load_json(path: Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    # ValueError: a JSONDecodeError, or an integer of more digits than int()
    # converts; RecursionError: arrays nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} cannot be read as JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path} must contain a JSON object")
    return data


def _require_integers(path: Path, key: str, value):
    """Reject a value, or any entry of nested lists, that is not an integer;
    a JSON float or boolean would otherwise be truncated by ``int``."""
    if isinstance(value, list):
        for item in value:
            _require_integers(path, key, item)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: {key} must hold integers, got {value!r}")


def _require_strings(path: Path, key: str, value, listed: bool):
    """Reject a value that is not a string or, when ``listed``, not a list of
    strings; a bare string would be iterated one character at a time."""
    if listed != isinstance(value, list) or not all(
            isinstance(s, str) for s in (value if listed else [value])):
        kind = "a list of strings" if listed else "a string"
        raise ParseError(f"{path}: {key} must be {kind}, got {value!r}")


def load_fan(path) -> tuple[FanData, Grading]:
    path = Path(path)
    data = _load_json(path)
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise ParseError(f"{path} lacks required key {key!r}")
    for key in ("dim", "rays", "max_cones", "degree_basis"):
        _require_integers(path, key, data.get(key, []))
    names = data.get("variables", [])
    _require_strings(path, "variables", names, listed=True)
    if not all(map(_NAME.fullmatch, names)):
        raise ParseError(f"{path}: variables must be names, got {names!r}")
    try:
        fan = make_fan(data["dim"], data["rays"], data["max_cones"],
                       variables=tuple(data["variables"]) if "variables" in data else None,
                       one_based=True)
        if "degree_basis" in data:
            return fan, validate_user_grading(fan, data["degree_basis"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return fan, compute_grading(fan)


class LoadedProblem(Value):
    __slots__ = _fields = ("fan", "grading", "order", "problem", "inputs", "fan_path")

    def __init__(self, fan: FanData, grading: Grading, order: MonomialOrder,
                 problem: ResidueProblem, inputs: tuple[MultiPoly, ...], fan_path: str):
        self._set(fan, grading, order, problem, inputs, fan_path)


def load_problem(path, sigma_override: int | None = None,
                 order_override: str | None = None) -> LoadedProblem:
    """Read a problem file and its fan; the fan must be complete and
    simplicial, or ``InvalidFan`` names the ``is_complete`` witness."""
    path = Path(path)
    data = _load_json(path)
    if "fan" not in data or "F" not in data:
        raise ParseError(f"{path} lacks required key 'fan' or 'F'")
    for key, listed in (("fan", False), ("order", False), ("F", True), ("H", True)):
        if key in data:
            _require_strings(path, key, data[key], listed)
    fan_path = (path.parent / data["fan"]).resolve()
    fan, grading = load_fan(fan_path)
    complete = is_complete(fan)
    if not complete:
        raise InvalidFan(f"{fan_path}: not a complete simplicial fan: {complete.witness}")
    names = fan.variables
    polys = [parse_poly(s, names) for s in data["F"]]
    order_text = order_override or data.get("order")
    order = parse_order(order_text, names) if order_text else grevlex(fan.nvars)
    sigma = sigma_override if sigma_override is not None else data.get("sigma", 1)
    if (isinstance(sigma, bool) or not isinstance(sigma, int)
            or not 1 <= sigma <= len(fan.max_cones)):
        raise ParseError(f"sigma must be a 1-based cone index, got {sigma!r}")
    problem = ResidueProblem(fan, polys, order=order, sigma=sigma - 1,
                             grading=grading)
    inputs = tuple(parse_poly(s, names) for s in data.get("H", []))
    return LoadedProblem(fan, grading, order, problem, inputs, str(fan_path))
