"""The command line builds the parser of the subcommand it runs.

``main`` passes ``argv[0]`` to ``build_parser`` when it names a command,
and that parser must behave as the parser of every subcommand does: the
same standard output, standard error, exit code and namespace on every
argv, help pages and argparse errors included.  Importing the package
builds no parser and loads no argparse, and neither it nor the command
line loads dataclasses or inspect.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricres
from toricres import cli

from conftest import FIXTURES


# the fixture names stand for their paths
HELP = [["--help"]] + [[name, "--help"] for name in cli.COMMANDS]
RUNS = [
    ["fan", "p2.fan.json"],
    ["grading", "pentagon.fan.json", "--json"],
    ["ample", "p2.fan.json", "--coeffs", "1,0,0"],
    ["bsigma", "p1p1.fan.json"],
    ["monomials", "p1p1.fan.json", "--free", "2,0"],
    ["residue", "pentagon_small.json", "--json"],
    ["delta", "pentagon_small.json", "--sigma", "2"],
    ["check", "codim1", "pentagon_small.json"],
    ["cayley", "p1p1_bilinear.json", "--json"],
    ["cone-xalpha", "p2.fan.json", "--coeffs", "1,0,0"],
]
ERRORS = [
    [],                                                  # no command
    ["bogus", "p2.fan.json"],                            # unknown command
    ["residue"],                                         # missing positional
    ["residue", "p2_fermat.json", "--sigma", "x"],       # non-integer --sigma
    ["check", "nope", "p2_fermat.json"],                 # bad check choice
    ["fan", "p2.fan.json", "--nope"],                    # unrecognized argument
    ["ample", "p2.fan.json"],                            # missing required option
]
CORPUS = [(spec, 0) for spec in HELP + RUNS] + [(spec, 2) for spec in ERRORS]
BUILD_PARSER = cli.build_parser


def _outcome(monkeypatch, capsys, argv, full):
    """Exit code, stdout, stderr and parsed namespaces of one ``main(argv)``,
    with the parser ``main`` builds or, if ``full``, every subcommand's."""
    namespaces = []

    def build(command=None):
        ap = BUILD_PARSER(None if full else command)
        parse = ap.parse_args
        ap.parse_args = lambda args: namespaces.append(parse(args)) or namespaces[-1]
        return ap

    monkeypatch.setattr(cli, "build_parser", build)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, namespaces


@pytest.mark.parametrize("spec, code", CORPUS,
                         ids=["+".join(spec) or "no-argv" for spec, _ in CORPUS])
def test_the_command_parser_behaves_as_the_full_parser(monkeypatch, capsys, spec, code):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in spec]
    full = _outcome(monkeypatch, capsys, argv, True)
    assert full[0] == code
    assert _outcome(monkeypatch, capsys, argv, False) == full


def test_the_corpus_runs_every_command():
    assert [spec[0] for spec in RUNS] == list(cli.COMMANDS)


def test_main_builds_one_subparser_for_a_command(monkeypatch, capsys):
    calls = []
    real = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: calls.append(name) or real(self, name, **kw))
    assert cli.main(["residue", str(FIXTURES / "pentagon_small.json")]) == 0
    assert calls == ["residue"]
    calls.clear()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert len(calls) == 10 and calls == list(cli.COMMANDS)
    assert "{fan,grading,ample,bsigma,monomials,residue,delta,check,cayley,cone-xalpha}" \
        in capsys.readouterr().out


def _loaded_by_import(module, names):
    """Which of ``names`` a fresh interpreter holds after ``import module``."""
    env = dict(os.environ)
    root = str(Path(toricres.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    probe = f"import sys, {module}; print(sorted({set(names)!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_builds_no_command_line():
    """The API import loads neither argparse nor the CLI module, and the
    value classes generate no code: no dataclasses, no inspect."""
    assert _loaded_by_import(
        "toricres", ["argparse", "toricres.cli", "dataclasses", "inspect"]) == "[]\n"


def test_importing_the_command_line_loads_no_dataclasses():
    assert _loaded_by_import("toricres.cli", ["dataclasses", "inspect"]) == "[]\n"
