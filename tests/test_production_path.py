"""The production modules hold only what a command runs.

One fresh interpreter installs a profile hook, imports ``cechcover.cli``
and runs every command on ``problems/*.json`` over Q and F_5 in both
report formats, and on a few more files: three reach input paths that
``problems/`` does not (an explicit functor, a repeated structure
constant, a constant functor beside a covering of the same patch count)
and two reach exits (a table that breaks the unit law, a dimension
cap).  Every function defined in a production module
(``src/cechcover/*.py`` but ``oracles.py``) must then have been entered,
except those on ``ALLOWED``, each with its reason.  Importing the package
registers each production module and a case process compiles a module
when it first uses it, whole: a function that no command enters is
compiled by every command that uses its module, so it belongs in
``cechcover.oracles``, or nowhere.

A second interpreter runs every command over Q and records the type of
each value that a ``Matrix`` or an algebra's table stores: a rational is
an int or a Fraction, never a float and never a stored zero.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cechcover

from instances import rescaled

SRC = Path(cechcover.__file__).resolve().parents[1]
PACKAGE = SRC / "cechcover"
PROBLEMS = sorted((SRC.parent / "problems").glob("*.json"))

# "module.qualified.name" -> why no command enters it
ALLOWED = {
    "algebras.__getattr__": "tracer target: bench/spans.py looks up make_algebra and quotient",
    "amitsur.__getattr__": "tracer target: bench/spans.py looks TensorTower up here",
    "cech.__getattr__": "tracer target: bench/spans.py looks phi_raw_matrix up here",
    "complexes.CechComplex.layouts": "tracer target: bench/spans.py reads it",
    "linalg.kernel_basis": "tracer target: bench/spans.py wraps it",
    "algebras.Ideal.__init__": "public check: a supplied subspace is checked two-sided",
    "algebras._check_two_sided": "public check: the check Ideal runs",
    "records.Frozen.__setattr__": "public check: a value refuses assignment",
    "records.Frozen.__delattr__": "public check: a value refuses deletion",
    "records.Frozen.__hash__": "public check: values hash by their fields",
    "records.Frozen.__repr__": "public check: values print their fields",
    "errors.NotAComplexError.__init__": "error path: d.d = 0 holds for every covering",
    "linalg.RationalField.__repr__": "error path: a FieldMismatchError names the fields",
    "linalg.PrimeField.__repr__": "error path: a FieldMismatchError names the fields",
    "complexes.WordSpace.offset_of": "error path: the witness of a nonzero square",
    "complexes.WordSpace.word_at": "error path: the witness of a nonzero square",
}

RUNNER = """\
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
from cechcover.cli import main

codes = []
for argv in json.loads(sys.stdin.read()):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""

VALUES = """\
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

from cechcover import algebras, linalg
from cechcover.cli import main

Matrix, Algebra = linalg.Matrix, algebras.Algebra
matrix_init, from_nonzeros, algebra_init = Matrix.__init__, Matrix.from_nonzeros, Algebra.__init__
kinds = set()  # the type of each stored value, "zero" for a stored zero


def note(values):
    kinds.update(type(x).__name__ if x else "zero" for x in values)


def note_rows(m):
    for row in m.nonzeros:
        note(row.values())
    return m


def init_matrix(self, *args):
    matrix_init(self, *args)
    note_rows(self)


def init_algebra(self, *args, **kwargs):
    algebra_init(self, *args, **kwargs)
    for row in self.terms:
        for t in row:
            note(c for _, c in t)
    kinds.update(type(x).__name__ for x in self.unit)  # dense: zeros are coordinates


Matrix.__init__ = init_matrix
Matrix.from_nonzeros = staticmethod(lambda *args: note_rows(from_nonzeros(*args)))
Algebra.__init__ = init_algebra
codes = []
for argv in json.loads(sys.stdin.read()):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "kinds": sorted(kinds)}))
"""

LINE = {"dim": 1, "mul": [[0, 0, 0, 1]], "unit": [1]}


def _extra_files(tmp: Path) -> list:
    """(argv, exit code) for the inputs that problems/ does not cover."""
    e1_path = SRC.parent / "problems" / "e1_split_three_points.json"
    e1 = json.loads(e1_path.read_text())
    docs = {
        "explicit": {"functor": {"explicit": {
            "n": 1, "rings": {"": LINE, "1": LINE}, "restrictions": {"->1": [[1]]}}}},
        "repeated": {"algebra": {"dim": 1, "mul": [[0, 0, 0, "1/2"], [0, 0, 0, "1/2"]],
                                 "unit": [1]},
                     "ideals": {"I": []}, "covering": ["I"]},
        "beside": dict(e1, functor={"constant": {"n": 2, "ring": LINE}}),
        "bad_table": {"algebra": {"dim": 2, "mul": [[0, 0, 0, 1], [1, 1, 0, 1]],
                                  "unit": [1, 0]}},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    runs = [(["cech", "--input", str(paths["explicit"])], 0),
            (["verify", "--input", str(paths["beside"])], 0),
            (["check", "--input", str(paths["bad_table"])], 2),
            (["amitsur", "--input", str(e1_path), "--dim-cap", "1"], 3)]
    runs += [(["check", "--input", str(paths["repeated"]), "--field-override", field], 0)
             for field in ("Q", "Fp:5")]
    return runs


def _functions():
    """(filename, first line, "module.qualified.name") of every function
    defined in a production module; the first line of a decorated
    function is its first decorator's, as in its code object."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((str(path), first, prefix + child.name))
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "oracles.py":
            walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return out


def _run(runner: str, argvs: list) -> dict:
    """What ``runner`` prints after it runs ``main`` on each argv in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", runner], input=json.dumps(argvs),
                         env=env, capture_output=True, text=True, timeout=300, check=True).stdout
    return json.loads(out)


def test_every_production_function_is_entered_by_a_command(tmp_path):
    runs = [([command, "--input", str(path), "--format", fmt, "--field-override", field], None)
            for path in PROBLEMS for command in ("check", "cech", "amitsur", "verify", "oracle")
            for field in ("Q", "Fp:5") for fmt in ("json", "text")]
    runs += _extra_files(tmp_path)
    result = _run(RUNNER, [a for a, _ in runs])
    for (argv, want), got in zip(runs, result["codes"]):
        assert want is None or got == want, (argv, got)
    entered = {(name, line) for name, line in result["entered"]}
    functions = _functions()
    missing = sorted(qualname for path, line, qualname in functions
                     if (path, line) not in entered and qualname not in ALLOWED)
    assert not missing, f"no command enters {missing}: move them to cechcover.oracles"
    defined = {qualname for _, _, qualname in functions}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def test_every_stored_rational_is_an_int_or_a_fraction(tmp_path):
    # y -> 2y puts 1/2 into the basis of the ideal D, so the Q kernels
    # store Fractions as well as ints
    three_lines = json.loads((SRC.parent / "problems" / "incomplete_three_lines.json").read_text())
    halved = tmp_path / "rescaled_three_lines.json"
    halved.write_text(json.dumps(rescaled(three_lines, [1, 1, 2])))
    argvs = [[command, "--input", str(path), "--field-override", "Q"]
             for path in PROBLEMS + [halved]
             for command in ("check", "cech", "amitsur", "verify", "oracle")]
    result = _run(VALUES, argvs)
    assert set(result["codes"]) == {0, 2}  # 2: the file lacks a section the command needs
    assert result["kinds"] == ["Fraction", "int"]
