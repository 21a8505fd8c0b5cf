"""The value classes keep the semantics of frozen dataclasses, and importing
the command line pulls in neither ``dataclasses`` nor ``inspect`` nor
``hashlib`` nor the test oracles of ``cechcover.oracles``; running a
command loads neither ``hashlib`` nor OpenSSL nor ``argparse``, reading a
problem file needs no ``pathlib``, and each command executes only the
production modules it uses.

The semantics pins: equal fields compare equal and hash equal, another
class never compares equal, assignment raises AttributeError, and the
cached properties stay cached.  Every value type that declares only its
fields is built by the one constructor of ``records.Frozen``, whose
contract is pinned here.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cechcover
from cechcover.algebras import AlgebraHom, Ideal, ideal_closure
from cechcover.cech import DegreeCheck, constant_functor
from cechcover.coverings import completeness_check
from cechcover.errors import StructureError
from cechcover.linalg import GF, QQ, Matrix, Subspace
from cechcover.oracles import Element, from_rows, split_commutative
from cechcover.problem import Problem
from cechcover.records import Frozen

from instances import make_e1

SRC = Path(cechcover.__file__).resolve().parents[1]


def _pairs():
    """(name, make) where each make() builds a fresh instance with the same fields."""
    a = split_commutative(QQ, 3)
    rows = ((1, 0, 2), (0, 1, 0))
    space = ideal_closure(a, [(0, 0, 1)]).space
    return [
        ("Matrix", lambda: from_rows(QQ, rows)),
        ("Subspace", lambda: Subspace.from_vectors(QQ, 3, [(0, 2, 0), (1, 0, 1)])),
        ("Algebra", lambda: split_commutative(QQ, 3)),
        ("Element", lambda: Element(a, (QQ.coerce(1), QQ.coerce(0), QQ.coerce(3)))),
        ("Ideal", lambda: Ideal(a, space)),
        ("AlgebraHom", lambda: AlgebraHom.identity(a)),
        ("CompletenessReport", lambda: completeness_check(make_e1())),
        ("PrimeField", lambda: GF(5)),
    ]


PAIRS = _pairs()


@pytest.mark.parametrize("name,make", PAIRS, ids=[n for n, _ in PAIRS])
def test_equal_fields_compare_and_hash_equal(name, make):
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("name,make", PAIRS, ids=[n for n, _ in PAIRS])
def test_another_class_is_never_equal(name, make):
    x = make()
    fields = tuple(vars(x).values())
    assert x != fields and not x == fields
    assert x != object()
    for other_name, other_make in PAIRS:
        if other_name != name:
            assert x != other_make()


@pytest.mark.parametrize("name,make", PAIRS, ids=[n for n, _ in PAIRS])
def test_assignment_raises(name, make):
    x = make()
    first = next(iter(vars(x)))
    before = vars(x)[first]
    with pytest.raises(AttributeError):
        setattr(x, first, None)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(x, first)
    assert vars(x)[first] is before
    assert "not_a_field" not in vars(x)


@pytest.mark.parametrize("name,make", PAIRS, ids=[n for n, _ in PAIRS])
def test_an_instance_equals_itself_without_comparing_fields(name, make, monkeypatch):
    # functor validation compares each restriction's endpoints with the very
    # algebras of the functor, thousands of times on a large functor
    x = make()

    def fail(_):
        raise AssertionError("fields compared")

    monkeypatch.setattr(type(x), "_values", staticmethod(fail))
    assert x == x and not x != x


def test_repr_names_the_class_and_its_fields():
    m = Matrix(QQ, 1, 1, ((QQ.one,),))
    assert repr(m) == "Matrix(field=QQ, rows=1, cols=1, entries=((Fraction(1, 1),),))"


def _declared_only():
    """Every Frozen subclass of the package, oracles included, built by the
    base's constructor, in a fixed order."""
    found, stack = set(), [Frozen]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("cechcover.") and cls.__init__ is Frozen.__init__:
                found.add(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


DECLARED = _declared_only()


def test_value_types_declare_their_fields_once():
    assert {cls.__qualname__ for cls in DECLARED} >= {
        "Algebra", "HomReport", "WordSpace", "CompletenessReport", "Subspace",
        "DegreeCheck", "ChainMapReport", "Problem", "RationalField",
        "TensorBlock", "Bimodule", "SweedlerCoring", "CechElement"}


@pytest.mark.parametrize("cls", DECLARED, ids=[cls.__qualname__ for cls in DECLARED])
def test_the_base_constructor_contract(cls):
    fields = cls._fields
    values = [object() for _ in fields]
    by_name = dict(zip(fields, values))
    x = cls(*values)
    assert [getattr(x, name) for name in fields] == values
    assert cls(**by_name) == x
    assert cls(*values[:1], **dict(list(by_name.items())[1:])) == x
    for name, default in cls._defaults.items():
        y = cls(**{k: v for k, v in by_name.items() if k != name})
        assert getattr(y, name) is default
    with pytest.raises(TypeError, match="takes"):
        cls(*values, object())
    with pytest.raises(TypeError, match="has no field"):
        cls(*values, not_a_field=1)
    for name in fields:
        with pytest.raises(TypeError, match="twice"):
            cls(*values, **{name: by_name[name]})
        if name not in cls._defaults:
            with pytest.raises(TypeError, match="needs field"):
                cls(**{k: v for k, v in by_name.items() if k != name})


def test_replace_builds_a_changed_copy_through_the_constructor():
    x = DegreeCheck(2, True)
    y = x._replace(ok=False, witness="w")
    assert (y.degree, y.ok, y.witness) == (2, False, "w")
    assert (x.degree, x.ok, x.witness) == (2, True, None)
    same = x._replace()
    assert same == x and same is not x
    with pytest.raises(TypeError, match="has no field"):
        x._replace(not_a_field=1)
    # a checking constructor checks the copy too
    a = split_commutative(QQ, 2)
    hom = AlgebraHom.identity(a)
    with pytest.raises(StructureError):
        hom._replace(matrix=Matrix.zero(QQ, 2, 2))
    assert hom.matrix == Matrix.identity(QQ, 2)


@pytest.mark.parametrize("make, field", (
    (lambda: Problem(QQ, None, {}, None, None), "n_max"),
    (lambda: constant_functor(2, split_commutative(QQ, 1)), "rings"),
    (lambda: QQ, "characteristic"),
    (lambda: GF(5), "p"),
), ids=("Problem", "PosetFunctor", "QQ", "GF(5)"))
def test_problems_functors_and_fields_refuse_assignment(make, field):
    x = make()
    before = repr(x), getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, 7)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert (repr(x), getattr(x, field)) == before
    assert not hasattr(x, "not_a_field")


def test_fields_differ_by_kind_and_order():
    assert GF(5) != GF(7) and GF(5) != QQ and QQ != GF(5)
    assert (GF(5).characteristic, QQ.characteristic) == (5, 0)


def test_cached_properties_are_still_cached():
    m = from_rows(QQ, ((1, 0, 2), (0, 0, 0)))
    assert "entries" not in vars(m)
    entries = m.entries
    assert entries == ((1, 0, 2), (0, 0, 0))
    assert m.entries is entries and vars(m)["entries"] is entries

    s = Subspace.from_vectors(QQ, 3, [(0, 2, 0), (1, 0, 1)])
    basis = s.sparse_basis
    assert basis == ({0: 1, 2: 1}, {1: 1})
    assert s.sparse_basis is basis and vars(s)["sparse_basis"] is basis


def test_importing_the_cli_skips_dataclasses_and_inspect():
    """Nor does it load the test oracles: each process compiles every module
    it imports when bytecode writing is off."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, cechcover.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
            "print('cechcover.oracles' in sys.modules)\n"
            "print('TensorTower' in vars(cechcover.amitsur))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    skipped, oracles_loaded, tower_defined = out.split("\n")[:3]
    assert skipped == "[]"
    assert oracles_loaded == "False"
    assert tower_defined == "False"


def test_importing_the_cli_adds_no_costly_module():
    """Checked against the modules loaded before the import, since ``site``
    may load some of them on its own; no command imports ``hashlib``
    (``test_commands_load_neither_hashlib_nor_the_oracles``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import cechcover.cli\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(added & {'hashlib', '_hashlib', 'cechcover.oracles', 'dataclasses'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"


# hashlib loads the OpenSSL binding with libcrypto; argparse brings gettext,
# which loads locale when argparse looks up its translated messages
COSTLY = ("_hashlib", "hashlib", "_blake2", "cechcover.oracles", "argparse", "gettext", "locale")


def _loaded_by_main(argv: list, watched: tuple, *flags: str) -> tuple:
    """Runs ``main(argv)`` in a fresh interpreter started with ``flags``;
    returns its exit code, which of ``watched`` the import and the run
    loaded, and which production modules they executed, as
    (0, [], ["cli", "errors"]).  A module counts as executed when its code
    object reaches ``exec`` (an audit event), so a module that is only
    registered, not compiled and run, does not count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import io, os, sys\n"
            "from contextlib import redirect_stdout\n"
            "files = set()\n"
            "sys.addaudithook(lambda event, args: event == 'exec'"
            " and files.add(args[0].co_filename))\n"
            "before = set(sys.modules)\n"
            "from cechcover.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "added = set(sys.modules) - before\n"
            "package = os.path.dirname(sys.modules['cechcover'].__file__)\n"
            "ran = [os.path.basename(f)[:-3] for f in files if os.path.dirname(f) == package]\n"
            f"print(repr((code, sorted(added & {set(watched)!r}), sorted(ran))))")
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return ast.literal_eval(out)


@pytest.mark.parametrize("command, problem", (
    ("check", "e1_split_three_points.json"),
    ("cech", "constant_three_patches.json"),
    ("amitsur", "e1_split_three_points.json"),
    ("verify", "e4_matrix_plus_point.json"),
    ("oracle", "circle_cover.json"),
    ("--version", None),
))
def test_commands_load_no_costly_module(command, problem):
    """A command that reads a problem file takes its digest with CPython's
    own SHA-256: ``hashlib`` would load ``_hashlib`` and with it libcrypto
    into every case process; the command line is read without
    ``argparse``.  Checked against the modules loaded before the command
    ran, since ``site`` may load some of them on its own."""
    argv = [command]
    if problem is not None:
        argv += ["--input", str(SRC.parent / "problems" / problem), "--format", "json"]
    assert _loaded_by_main(argv, COSTLY)[:2] == (0, [])


# the production modules each command executes, beside the package's
# __init__, which registers the library modules and compiles none: check
# skips amitsur, cech and nerve, and cech and oracle on a functor file with
# no covering section skip coverings and amitsur
BASE = ("algebras", "cli", "complexes", "errors", "linalg", "problem", "records")
EXECUTED = (
    ("--version", None, ("cli", "errors")),
    ("check", "e1_split_three_points.json", BASE + ("coverings",)),
    ("cech", "constant_three_patches.json", BASE + ("cech",)),
    ("cech", "e1_split_three_points.json", BASE + ("cech", "coverings")),
    ("amitsur", "e1_split_three_points.json", BASE + ("amitsur", "coverings")),
    ("verify", "e4_matrix_plus_point.json", BASE + ("amitsur", "cech", "coverings")),
    ("oracle", "circle_cover.json", BASE + ("cech", "nerve")),
)


@pytest.mark.parametrize("command, problem, modules", EXECUTED,
                         ids=[f"{c}-{p}" for c, p, _ in EXECUTED])
def test_a_command_executes_only_the_modules_it_uses(command, problem, modules):
    argv = [command]
    if problem is not None:
        argv += ["--input", str(SRC.parent / "problems" / problem), "--format", "json"]
    code, _, ran = _loaded_by_main(argv, ())
    assert code == 0
    assert [m for m in ran if m != "__init__"] == sorted(modules)


def test_a_command_loads_no_pathlib():
    """``site`` usually imports pathlib before any command runs, so the
    check runs without it (``-S``): the problem file is read with ``open``."""
    path = SRC.parent / "problems" / "e1_split_three_points.json"
    assert _loaded_by_main(["check", "--input", str(path)], ("pathlib",), "-S")[:2] == (0, [])


# each name that only the oracles and the tests called, by the production
# module that held it: the command path no longer compiles them.  Those still
# needed live in cechcover.oracles; the ones with no caller left, or a
# one-line body its callers now write out, were deleted (validate_index_tuple,
# the Field stubs, Algebra.is_zero, Ideal.dim, AlgebraHom.apply,
# PosetFunctor.step, WordComplex.ranks, AmitsurComplex.augmentation,
# CechComplex.dprime, which is WordComplex.differential, and Covering.section,
# whose products are column selections, linalg.section_columns)
MOVED = (
    ("cechcover.linalg", "mul_kron_identity"),
    ("cechcover.linalg", "image_basis"),
    ("cechcover.linalg", "subspace_intersect"),
    ("cechcover.linalg", "intersect_many"),
    ("cechcover.linalg", "Matrix.from_columns"),
    ("cechcover.algebras", "ideal_intersection"),
    ("cechcover.algebras", "Algebra.left_mult_matrix"),
    ("cechcover.algebras", "Algebra.right_mult_matrix"),
    ("cechcover.coverings", "Covering.b_algebra"),
    ("cechcover.coverings", "Covering.patch_offset"),
    ("cechcover.coverings", "Covering.unit_component"),
    ("cechcover.coverings", "Covering.projection_hom"),
    ("cechcover.cech", "PosetFunctor.restriction"),
    ("cechcover.cech", "validate_index_tuple"),
    ("cechcover.linalg", "Field.coerce"),
    ("cechcover.linalg", "Field.sub"),
    ("cechcover.linalg", "Field.mul"),
    ("cechcover.linalg", "Field.div"),
    ("cechcover.linalg", "RationalField.sub"),
    ("cechcover.linalg", "RationalField.mul"),
    ("cechcover.linalg", "RationalField.div"),
    ("cechcover.linalg", "PrimeField.sub"),
    ("cechcover.linalg", "PrimeField.mul"),
    ("cechcover.linalg", "PrimeField.div"),
    ("cechcover.linalg", "Matrix.from_rows"),
    ("cechcover.linalg", "Matrix.support"),
    ("cechcover.linalg", "Matrix.transpose"),
    ("cechcover.linalg", "Matrix.add"),
    ("cechcover.linalg", "Matrix.sub"),
    ("cechcover.linalg", "Matrix._combine"),
    ("cechcover.linalg", "Matrix.scale"),
    ("cechcover.linalg", "Matrix.vstack"),
    ("cechcover.linalg", "Matrix.kron"),
    ("cechcover.linalg", "Matrix._check_shape"),
    ("cechcover.linalg", "Matrix.to_lists"),
    ("cechcover.linalg", "rref"),
    ("cechcover.linalg", "Subspace.full"),
    ("cechcover.linalg", "Subspace.contains"),
    ("cechcover.linalg", "Subspace.contains_subspace"),
    ("cechcover.algebras", "Algebra.mul_table"),
    ("cechcover.algebras", "Algebra.multiply"),
    ("cechcover.algebras", "Algebra.basis_coords"),
    ("cechcover.algebras", "Algebra.element"),
    ("cechcover.algebras", "Algebra.is_zero"),
    ("cechcover.algebras", "Element"),
    ("cechcover.algebras", "Ideal.dim"),
    ("cechcover.algebras", "ideal_sum"),
    ("cechcover.algebras", "AlgebraHom.apply"),
    ("cechcover.algebras", "hom_compose"),
    ("cechcover.algebras", "_basis_algebra"),
    ("cechcover.algebras", "split_commutative"),
    ("cechcover.algebras", "_matrix_units"),
    ("cechcover.algebras", "matrix_algebra"),
    ("cechcover.algebras", "upper_triangular"),
    ("cechcover.algebras", "truncated_polynomial"),
    ("cechcover.algebras", "square_zero"),
    ("cechcover.algebras", "direct_sum"),
    ("cechcover.cech", "insert_index"),
    ("cechcover.cech", "PosetFunctor.step"),
    ("cechcover.cech", "RingedStructure"),
    ("cechcover.cech", "functor_from_ringed_covering"),
    ("cechcover.complexes", "WordComplex.ranks"),
    ("cechcover.amitsur", "AmitsurComplex.augmentation"),
    ("cechcover.linalg", "quotient_section"),
    ("cechcover.coverings", "Covering.section"),
    ("cechcover.complexes", "CechComplex.dprime"),
    ("cechcover.complexes", "increasing_space"),
    ("cechcover.linalg", "block_matrix"),
    ("cechcover.linalg", "_offsets"),
    ("cechcover.linalg", "Matrix.column"),
    ("cechcover", "Element"),
    ("cechcover", "RingedStructure"),
)


@pytest.mark.parametrize("module, name", MOVED, ids=[f"{m}.{n}" for m, n in MOVED])
def test_oracle_helpers_stay_off_the_production_modules(module, name):
    owner = importlib.import_module(module)
    *path, leaf = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, leaf), f"{module}.{name} is defined again"


def test_the_covering_caches_no_patch_sum():
    assert "_b_algebra" not in vars(make_e1())
