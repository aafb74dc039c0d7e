"""Repository-wide lints over the syntax trees of the sources.

No linter is installed, so these are the checks: every import in
``src/toricres`` sits at module level, no module of the repository imports
a name it never uses, every function and class the package defines at
module level is read or exported, no sum on the residue path (the
residue, the determinants of polynomials and the local sums) starts from
a Fraction, the Groebner kernel builds no exponent tuple, only
``Packing`` and the overflow test of ``divide`` read the guard bits, no
``except`` clause can catch an exponent refusal, the lattice, grading and bundle
layers truncate no value with ``int``, ``poly.py`` has one product loop
and imports nothing from ``grading``, every cone solve outside
``lattice.py`` reads the fan's cone table, no
module but ``poly.py`` reads a polynomial's Fraction view, no module
but ``groebner.py`` reads the exponent-tuple views of a basis, and the
lattice walk of ``polytopes.py`` is integer-only and takes each row value
once, and no module of the package imports ``dataclasses``.
"""

import ast
from pathlib import Path

import toricres


def test_no_module_imports_inside_a_function():
    """Every import in ``src/toricres`` sits at module level, where an
    import cycle shows at once."""
    paths = sorted(Path(toricres.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        nested = [(fn.name, node.lineno) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert nested == [], (path.name, nested)


def _top_level_imports(tree):
    """(bound name, line) of each module-level import but ``__future__``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


ROOT = Path(toricres.__file__).parent.parent.parent


def _exported():
    """The names in the package's ``__all__``."""
    init = ast.parse((ROOT / "src" / "toricres" / "__init__.py").read_text())
    return next(ast.literal_eval(node.value) for node in init.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"])


def test_no_module_imports_a_name_it_never_uses():
    """No linter is installed, so this is the check: every name a module
    of the package, its tests, its scripts or its benchmark imports at
    module level is read somewhere in it; the package's ``__init__``
    re-exports the names in its ``__all__``."""
    exported = _exported()
    paths = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 40
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(exported)
        unused += [(str(path.relative_to(ROOT)), name, line)
                   for name, line in _top_level_imports(tree) if name not in read]
    assert unused == []


def test_every_module_level_definition_is_read_or_exported():
    """Every module-level function and class of ``src/toricres`` is read by
    its own module, imported or read as an attribute by another module of
    ``src``, ``scripts`` or ``perfbench``, or listed in ``__all__``; tests
    do not count, so a helper left behind when its last caller goes fails
    here."""
    exported = set(_exported())
    paths = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    package = sorted((ROOT / "src" / "toricres").glob("*.py"))
    assert len(package) > 10
    unread = []
    for path in package:
        tree = trees[path]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {a.name for other, t in trees.items() if other != path for node in ast.walk(t)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[-1] == path.stem for a in node.names}
        unread += [(path.name, node.name, node.lineno) for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and node.name not in read | attributes | exported]
    assert unread == []


def test_no_fraction_accumulator_on_the_residue_path():
    """No ``sum(...)`` in ``residues.py``, ``poly.py`` or ``localres.py``
    starts from a Fraction: the functional is one integer vector, every
    determinant of polynomials is an integer one, and a residue or a local
    sum is integer work with Fractions built at the end.  A file with no
    sum passes."""
    for name in ("residues.py", "poly.py", "localres.py"):
        path = ROOT / "src" / "toricres" / name
        tree = ast.parse(path.read_text(), filename=str(path))
        sums = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "sum"]
        starts = [(node.lineno, start) for node in sums
                  for start in node.args[1:] + [k.value for k in node.keywords
                                                if k.arg == "start"]]
        fraction_starts = [line for line, start in starts
                           if any(isinstance(n, ast.Name) and n.id == "Fraction"
                                  for n in ast.walk(start))]
        assert fraction_starts == [], (name, fraction_starts)


def test_the_groebner_kernel_builds_no_exponent_tuple():
    """Division, S-polynomials, the pair loop, the lead count of the
    Hilbert-driven skip, the zero-locus certificate and the chart
    quotient's border pass, matrices and trace run on packed monomials alone: none
    of them calls ``tuple``, as ``tuple(map(add, e, shift))`` once did in
    every step, and none reads ``unpack``, as the quotient's tables once
    did to key them by exponent tuples.  Tuples are packed where they enter
    a call and unpacked where they leave it."""
    kernel = {"groebner.py": ("divide", "s_polynomial", "_gm_update", "_lead_count",
                              "packed_basis", "Packing.lcms"),
              "residues.py": ("_certified",),
              "localres.py": ("_Quotient._times_variable", "_Quotient._steps",
                              "_Quotient._scales", "_Quotient._reduce", "_Quotient._compose",
                              "_Quotient.matrix", "_Quotient.trace")}
    for name, functions in kernel.items():
        path = ROOT / "src" / "toricres" / name
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        defs.update((f"{cls.name}.{node.name}", node) for cls in tree.body
                    if isinstance(cls, ast.ClassDef)
                    for node in cls.body if isinstance(node, ast.FunctionDef))
        for function in functions:
            calls = [node.lineno for node in ast.walk(defs[function])
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "tuple"]
            assert calls == [], (name, function, calls)
            unpacks = [node.lineno for node in ast.walk(defs[function])
                       if isinstance(node, ast.Attribute) and node.attr == "unpack"]
            assert unpacks == [], (name, function, unpacks)


def test_only_the_packing_and_the_overflow_test_read_the_guard_bits():
    """In ``groebner.py`` only the methods of ``Packing`` and the overflow
    test of ``divide`` (one read) read ``.guard``: the guard-bit lcm and
    divisibility formulas stay in ``Packing``, one of each, and are not
    copied into the pair loop or the final pass for speed."""
    path = ROOT / "src" / "toricres" / "groebner.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Packing":
            continue
        reads += [getattr(node, "name", None) for sub in ast.walk(node)
                  if isinstance(sub, ast.Attribute) and sub.attr == "guard"]
    assert reads == ["divide"]


def test_no_except_clause_can_catch_an_exponent_refusal():
    """No ``except`` clause in ``src/toricres`` names ``ExponentTooLarge``,
    ``Exception``, ``BaseException`` or nothing, so an exponent that
    outgrows its packed field always reaches the caller as a refusal, and
    no path can catch it to run again on wider fields."""
    banned = {"ExponentTooLarge", "Exception", "BaseException"}
    paths = sorted((ROOT / "src" / "toricres").glob("*.py"))
    assert len(paths) > 10
    caught = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            names = {getattr(t, "id", None) or getattr(t, "attr", None) for t in types}
            if handler.type is None or names & banned:
                caught.append((path.name, handler.lineno))
    assert caught == []


def test_no_int_call_truncates_a_value_in_the_lattice_layers():
    """No ``int(...)`` in ``lattice.py``, ``grading.py`` or ``cayley.py``
    reads a name, an attribute or a subscript: ``int`` reads 1.5 and
    Fraction(3, 2) as 1, so these layers read their integers through
    ``operator.index``, which refuses both with TypeError.  ``int`` of a
    comparison, as in ``int(i == j)``, stays allowed."""
    calls = []
    for name in ("lattice.py", "grading.py", "cayley.py"):
        path = ROOT / "src" / "toricres" / name
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int"
                  and any(isinstance(a, (ast.Name, ast.Attribute, ast.Subscript))
                          for a in node.args)]
    assert calls == []


def _over_items(loop):
    """Whether a ``for`` loop or comprehension clause runs over a
    ``.items()`` call."""
    return isinstance(loop.iter, ast.Call) and isinstance(loop.iter.func, ast.Attribute) \
        and loop.iter.func.attr == "items"


def test_poly_has_one_product_loop():
    """No function in ``poly.py`` but ``product_sum`` nests a loop over
    ``….items()`` inside another: ``MultiPoly.__mul__`` once kept its own
    Fraction double loop beside ``product_sum``, and every product of
    polynomials now runs on integer terms through ``product_sum``."""
    path = ROOT / "src" / "toricres" / "poly.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    nested = [(fn.name, node.lineno) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and fn.name != "product_sum"
              for node in ast.walk(fn) if isinstance(node, loops)
              and any(map(_over_items, getattr(node, "generators", [node])))
              and sum(isinstance(n, (ast.For, ast.comprehension)) and _over_items(n)
                      for n in ast.walk(node)) > 1]
    assert nested == []


def test_poly_holds_no_degree_map():
    """``poly.py`` imports nothing from ``grading``: the polynomial layer
    restricts to a chart and never lifts back to a degree, as its chart
    lift once did through ``representative_divisor``.  ``toric_jacobian``
    divides the Cox-ring determinant by xhat_sigma instead."""
    path = ROOT / "src" / "toricres" / "poly.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "grading"
             or isinstance(node, ast.Import)
             and any(a.name.split(".")[-1] == "grading" for a in node.names)]
    assert found == []


def test_cone_solves_read_the_cone_table():
    """``bareiss`` is called only inside ``lattice.py``, where
    ``FanData.cone_table``, ``mat_det`` and ``cramer`` read it, and neither
    ``divisors.py`` nor ``poly.py`` imports ``bareiss`` or ``cramer``: the
    meets of the positivity tests read det R and adj R of each cone from
    the table, which solves each maximal cone once per fan."""
    found = []
    for path in sorted((ROOT / "src" / "toricres").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "lattice.py":
            found += [(path.name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and "bareiss" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]
        if path.name in ("divisors.py", "poly.py"):
            found += [(path.name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      and {a.name for a in node.names} & {"bareiss", "cramer"}]
    assert found == []


def test_only_poly_reads_the_fraction_view():
    """No module of ``src/toricres`` but ``poly.py`` reads ``.terms``, the
    Fraction view of a polynomial: every kernel path reads its integer
    terms ``num`` over its denominator ``d``, as the zero-locus test once
    read each input's Fraction coefficients to find a denominator P."""
    paths = sorted((ROOT / "src" / "toricres").glob("*.py"))
    assert len(paths) > 10
    reads = [(path.name, node.lineno) for path in paths if path.name != "poly.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert reads == []


def test_only_groebner_reads_the_tuple_views_of_a_basis():
    """No module of ``src/toricres`` but ``groebner.py`` reads a basis's
    ``reducers`` or ``generators``: the quotient, the local sums and the
    zero-locus test read the packed table."""
    paths = sorted((ROOT / "src" / "toricres").glob("*.py"))
    assert len(paths) > 10
    reads = [(path.name, node.lineno) for path in paths if path.name != "groebner.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("reducers", "generators")]
    assert reads == []


def test_the_lattice_walk_is_integer_only_and_single_pass():
    """``_prefix_values``, ``_runs`` and ``divisor_monomials`` in
    ``polytopes.py`` name no ``Fraction``, ``ceil``, ``floor`` or ``dot``:
    the box is integers before the walk starts, each prefix's row values
    are formed once by adding a column, and a run's exponent vectors start
    from them, as ``divisor_monomials`` once took the dot products of each
    run's first point again."""
    path = ROOT / "src" / "toricres" / "polytopes.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    walk = ("_prefix_values", "_runs", "divisor_monomials")
    assert set(walk) <= set(defs)
    banned = {"Fraction", "ceil", "floor", "dot"}
    found = [(name, node.lineno) for name in walk for node in ast.walk(defs[name])
             if isinstance(node, ast.Name) and node.id in banned
             or isinstance(node, ast.Attribute) and node.attr in banned]
    assert found == []


def test_no_module_imports_dataclasses():
    """No module of the package imports ``dataclasses``: its value classes
    are plain classes on ``values.Value``, so no import generates their
    methods or loads ``dataclasses`` and ``inspect``."""
    found = []
    for path in sorted((ROOT / "src" / "toricres").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                  or isinstance(node, ast.Import)
                  and any(a.name == "dataclasses" for a in node.names)]
    assert found == []
