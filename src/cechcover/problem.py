"""Problem documents: parsing, validation and canonical re-emission.

A problem file is a single self-contained JSON document; see
docs/file_formats.md for the schema.  Scalars are JSON integers or exact
fraction strings like "2/3".  Structure constants are sparse quadruples
[i, j, k, coeff] meaning b_i * b_j contains coeff * b_k (0-based indices).

``normalize`` re-emits the parsed problem in canonical form; parsing the
normalized document yields an equivalent problem, which is what report
round-tripping relies on.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import cech, coverings, nerve
from .algebras import Algebra, AlgebraHom, algebra_from_terms, ideal_closure
from .errors import DEFAULT_DIM_CAP, CechcoverError, DimensionCapError, ProblemFormatError
from .linalg import GF, QQ, Field, Matrix
from .records import Frozen

DEFAULT_N_MAX = 3
# the deepest nesting of JSON arrays and objects a problem file may have;
# the format needs 7 (a structure-constant quadruple of an explicit functor's ring)
MAX_NESTING = 100
# the most cells (dim^2) an algebra's structure-constant table may have; the
# largest algebra in problems/ and bench/ has dim 40
MAX_ALGEBRA_CELLS = 10 ** 6


class Problem(Frozen):
    # functor_spec is {"kind": "ringed_default"} or {"kind": kind, "body": body}
    _fields = ("field", "algebra", "ideals", "covering", "functor_spec",
               "n_max", "dim_cap", "covering_names")
    _defaults = {"n_max": DEFAULT_N_MAX, "dim_cap": DEFAULT_DIM_CAP, "covering_names": ()}


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` load as bool, a subclass of
    int, and are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def parse_scalar(field: Field, value, loc: str):
    try:
        if isinstance(value, bool):
            raise ValueError("booleans are not scalars")
        if isinstance(value, int):
            return field.coerce(value)
        if isinstance(value, str):
            return field.coerce(_parse_fraction(value))
        raise ValueError(f"unsupported scalar {value!r}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFormatError(str(exc), loc)


def _parse_fraction(text: str) -> Fraction:
    """An optional sign, ASCII digits and an optional ``/digits``, as in
    "-3" or "2/3".  ``Fraction`` alone would also take decimals, exponents,
    spaces and underscores, and it expands an exponent such as "1e999999999"
    digit by digit."""
    num, slash, den = text.partition("/")
    if not (is_integer_text(num) and (not slash or _is_digits(den))):
        raise ValueError(f'a scalar string is an integer or a fraction like "-2/3", not {text!r}')
    return Fraction(int(num), int(den) if slash else 1)


def is_integer_text(text: str) -> bool:
    """An optional sign and ASCII digits: the integer grammar of scalar strings
    and of the command line, where ``int`` alone takes " 3", "1_0" and more."""
    return _is_digits(text[1:] if text[:1] in ("+", "-") else text)


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def scalar_to_json(field: Field, value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return int(value)


def parse_vector(field: Field, value, length: int, loc: str) -> tuple:
    if not isinstance(value, list) or len(value) != length:
        raise ProblemFormatError(f"expected a list of {length} scalars", loc)
    return tuple(parse_scalar(field, x, f"{loc}[{i}]") for i, x in enumerate(value))


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

def parse_field_spec(spec, loc: str = "field") -> Field:
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        p = spec["Fp"]
        if not _is_int(p):
            raise ProblemFormatError("Fp order must be an integer", loc)
        try:
            return GF(p)
        except ValueError as exc:
            raise ProblemFormatError(str(exc), loc)
    raise ProblemFormatError('field must be "Q" or {"Fp": p}', loc)


def field_spec_to_json(field: Field):
    if field == QQ:
        return "Q"
    return {"Fp": field.p}


def parse_algebra_section(field: Field, spec, loc: str) -> Algebra:
    """The algebra of an algebra section, validated.

    The unit and the labels are length-checked against ``dim`` first, and
    the quadruples are summed into the sparse terms of each product
    b_i * b_j; no dense dim^3 table is built.  A dim whose dim x dim grid
    of terms passes ``MAX_ALGEBRA_CELLS`` raises DimensionCapError.
    """
    if not isinstance(spec, dict):
        raise ProblemFormatError("algebra section must be an object", loc)
    for key in ("dim", "mul", "unit"):
        if key not in spec:
            raise ProblemFormatError(f"missing '{key}'", loc)
    dim = spec["dim"]
    if not _is_int(dim) or dim < 0:
        raise ProblemFormatError("dim must be a non-negative integer", f"{loc}.dim")
    unit = parse_vector(field, spec["unit"], dim, f"{loc}.unit")
    labels = spec.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != dim
                or not all(isinstance(x, str) for x in labels)):
            raise ProblemFormatError(f"labels must be {dim} strings", f"{loc}.labels")
    if not isinstance(spec["mul"], list):
        raise ProblemFormatError("mul must be a list of [i, j, k, coeff] quadruples", f"{loc}.mul")
    sums: dict = {}  # (i, j) -> {k: sum of the coefficients given for b_k}
    for t, quad in enumerate(spec["mul"]):
        qloc = f"{loc}.mul[{t}]"
        if not isinstance(quad, list) or len(quad) != 4:
            raise ProblemFormatError("expected [i, j, k, coeff]", qloc)
        i, j, k, coeff = quad
        for name, idx in (("i", i), ("j", j), ("k", k)):
            if not _is_int(idx):
                raise ProblemFormatError(f"index {name} must be an integer", qloc)
            if not 0 <= idx < dim:
                raise ProblemFormatError(f"index {name}={idx} out of range 0..{dim - 1}", qloc)
        x = parse_scalar(field, coeff, qloc)
        row = sums.setdefault((i, j), {})
        row[k] = field.add(row[k], x) if k in row else x
    if dim * dim > MAX_ALGEBRA_CELLS:
        raise DimensionCapError(
            f"{loc}: dim {dim} needs a table of {dim * dim} structure-constant cells "
            f"> cap {MAX_ALGEBRA_CELLS}", degree=None, estimated=dim * dim, cap=MAX_ALGEBRA_CELLS)
    terms = [[()] * dim for _ in range(dim)]
    for (i, j), row in sums.items():
        terms[i][j] = tuple((k, row[k]) for k in sorted(row) if row[k])
    try:
        return algebra_from_terms(field, dim, tuple(map(tuple, terms)), unit, labels)
    except CechcoverError as exc:
        raise ProblemFormatError(str(exc), loc)


def algebra_to_json(a: Algebra) -> dict:
    f = a.field
    triples = [[i, j, k, scalar_to_json(f, c)]
               for i, row in enumerate(a.terms)
               for j, t in enumerate(row)
               for k, c in t]
    out = {
        "dim": a.dim,
        "mul": triples,
        "unit": [scalar_to_json(f, x) for x in a.unit],
    }
    if a.labels:
        out["labels"] = list(a.labels)
    return out


def _parse_tuple_key(key: str, n: int, loc: str) -> tuple:
    """The tuple a key names; only ``tuple_to_key``'s spelling is accepted,
    so no two keys name the same tuple."""
    try:
        t = tuple(int(x) for x in key.split(",")) if key else ()
    except ValueError:
        raise ProblemFormatError(f"bad tuple key {key!r}", loc)
    if tuple_to_key(t) != key:
        raise ProblemFormatError(
            f"tuple key {key!r} is not comma-joined decimal indices; write {tuple_to_key(t)!r}",
            loc)
    if list(t) != sorted(set(t)) or (t and (t[0] < 1 or t[-1] > n)):
        raise ProblemFormatError(f"tuple key {key!r} is not an increasing tuple in 1..{n}", loc)
    return t


def tuple_to_key(t: tuple) -> str:
    return ",".join(str(i) for i in t)


def parse_functor_spec(spec, loc: str = "functor") -> dict:
    if spec == "ringed_default":
        return {"kind": "ringed_default"}
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ProblemFormatError(
            'functor must be "ringed_default" or one of {"constant"|"cover"|"explicit": ...}', loc)
    kind, body = next(iter(spec.items()))
    if kind not in ("constant", "cover", "explicit"):
        raise ProblemFormatError(f"unknown functor kind {kind!r}", loc)
    if not isinstance(body, dict):
        raise ProblemFormatError("functor body must be an object", f"{loc}.{kind}")
    if "n" not in body or not _is_int(body["n"]) or body["n"] < 1:
        raise ProblemFormatError("functor body needs a patch count 'n' >= 1", f"{loc}.{kind}")
    return {"kind": kind, "body": body}


# ---------------------------------------------------------------------------
# Whole documents
# ---------------------------------------------------------------------------

def parse_problem(doc, field_override: Optional[Field] = None) -> Problem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object", "$")
    known = {"field", "algebra", "ideals", "covering", "functor", "options"}
    for key in doc:
        if key not in known:
            raise ProblemFormatError(f"unknown section {key!r}", key)
    field = field_override or parse_field_spec(doc.get("field", "Q"))

    algebra = None
    if "algebra" in doc:
        algebra = parse_algebra_section(field, doc["algebra"], "algebra")

    ideals: dict = {}
    if "ideals" in doc:
        if algebra is None:
            raise ProblemFormatError("ideals need an algebra section", "ideals")
        if not isinstance(doc["ideals"], dict):
            raise ProblemFormatError("ideals must map names to generator lists", "ideals")
        for name, gens in doc["ideals"].items():
            iloc = f"ideals.{name}"
            if not isinstance(gens, list):
                raise ProblemFormatError("generators must be a list of vectors", iloc)
            vecs = [parse_vector(field, g, algebra.dim, f"{iloc}[{gi}]")
                    for gi, g in enumerate(gens)]
            try:
                ideals[name] = ideal_closure(algebra, vecs)
            except CechcoverError as exc:
                raise ProblemFormatError(str(exc), iloc)

    covering = None
    if "covering" in doc:
        names = doc["covering"]
        if (not isinstance(names, list) or not names
                or not all(isinstance(x, str) for x in names)):
            raise ProblemFormatError("covering must be a non-empty list of ideal names", "covering")
        for name in names:
            if name not in ideals:
                raise ProblemFormatError(f"unknown ideal name {name!r}", "covering")
        try:
            covering = coverings.Covering(algebra, [ideals[n] for n in names])
        except CechcoverError as exc:
            raise ProblemFormatError(str(exc), "covering")

    functor_spec = None
    if "functor" in doc:
        functor_spec = parse_functor_spec(doc["functor"])

    n_max, dim_cap = DEFAULT_N_MAX, DEFAULT_DIM_CAP
    if "options" in doc:
        opts = doc["options"]
        if not isinstance(opts, dict):
            raise ProblemFormatError("options must be an object", "options")
        for key in opts:
            if key not in ("n_max", "dim_cap"):
                raise ProblemFormatError(f"unknown option {key!r}", "options")
        if "n_max" in opts:
            n_max = opts["n_max"]
            if not _is_int(n_max) or n_max < 1:
                raise ProblemFormatError("n_max must be an integer >= 1", "options.n_max")
        if "dim_cap" in opts:
            dim_cap = opts["dim_cap"]
            if not _is_int(dim_cap) or dim_cap < 1:
                raise ProblemFormatError("dim_cap must be a positive integer", "options.dim_cap")

    return Problem(field, algebra, ideals, covering, functor_spec,
                   n_max, dim_cap, tuple(doc.get("covering", ())))


def load_problem(path: str, field_override: Optional[Field] = None):
    """Read a problem file; returns (Problem, sha256 hex digest)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ProblemFormatError(str(exc), str(path))
    try:
        doc = json.loads(data, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ProblemFormatError(f"invalid JSON: {exc}", str(path))
    except RecursionError:
        raise ProblemFormatError("invalid JSON: nested too deeply", str(path))
    if _nesting_exceeds(doc, MAX_NESTING):
        raise ProblemFormatError("invalid JSON: nested too deeply", str(path))
    problem = parse_problem(doc, field_override)
    return problem, sha256_hex(data)


def sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``, taken with CPython's own
    implementation, which ``hashlib`` falls back to without OpenSSL:
    importing ``hashlib`` would load ``_hashlib`` and libcrypto into every
    process that reads a problem file."""
    try:
        from _sha2 import sha256  # 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _nesting_exceeds(doc, limit: int) -> bool:
    """Whether arrays and objects nest more than ``limit`` deep in a parsed
    JSON document; walked with a stack, so any depth the parser accepted
    can be measured."""
    stack = [(doc, 1)] if isinstance(doc, (dict, list)) else []
    while stack:
        value, depth = stack.pop()
        if depth > limit:
            return True
        children = value.values() if isinstance(value, dict) else value
        stack.extend((x, depth + 1) for x in children if isinstance(x, (dict, list)))
    return False


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a silent
    replacement."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set = set()
        repeated = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"key {repeated!r} appears twice in one object")
    return doc


def normalize(problem: Problem) -> dict:
    """Canonical re-emission; parsing it back gives an equivalent problem."""
    doc: dict = {"field": field_spec_to_json(problem.field)}
    if problem.algebra is not None:
        doc["algebra"] = algebra_to_json(problem.algebra)
    if problem.ideals:
        f = problem.field
        doc["ideals"] = {
            name: [[scalar_to_json(f, x) for x in row] for row in ideal.space.basis.entries]
            for name, ideal in problem.ideals.items()}
    if problem.covering is not None:
        doc["covering"] = list(problem.covering_names)
    spec = problem.functor_spec
    if spec is not None:
        doc["functor"] = ("ringed_default" if spec["kind"] == "ringed_default"
                          else {spec["kind"]: spec["body"]})
    doc["options"] = {"n_max": problem.n_max, "dim_cap": problem.dim_cap}
    return doc


# ---------------------------------------------------------------------------
# Building functors from problem documents
# ---------------------------------------------------------------------------

def build_problem_functor(problem: Problem):
    """Returns (PosetFunctor | Covering, kind, CoverDescription | None).

    ``ringed_default`` (also the default when a covering is present) is
    the covering, whose ``cech`` checks itself when read; ``cover`` also
    returns the CoverDescription so the oracle can run.  Every other functor
    was validated when it was constructed; a failure raises StructureError.
    Before any ring is built, a functor whose widest Cech degree has more
    index tuples than ``problem.dim_cap`` raises DimensionCapError.
    """
    spec = problem.functor_spec or {"kind": "ringed_default"}
    kind = spec["kind"]
    if kind == "ringed_default" and problem.covering is None:
        raise ProblemFormatError("ringed_default functor needs a covering", "functor")
    n = problem.covering.n_patches if kind == "ringed_default" else spec["body"]["n"]
    # the widest degree has C(n, n // 2) index tuples; C(n, k) grows with
    # k <= n / 2, so stop at the first degree past the cap
    k, tuples = 0, 1
    while k < n // 2 and tuples <= problem.dim_cap:
        k += 1
        tuples = tuples * (n - k + 1) // k
    if tuples > problem.dim_cap:
        raise DimensionCapError(
            f"the functor on {n} patches has {tuples} index tuples in Cech degree {k} "
            f"> cap {problem.dim_cap}", degree=k, estimated=tuples, cap=problem.dim_cap)
    if kind == "ringed_default":
        return problem.covering, kind, None
    body = spec["body"]
    if kind == "constant":
        if "ring" not in body:
            raise ProblemFormatError("constant functor needs a 'ring'", "functor.constant")
        ring = parse_algebra_section(problem.field, body["ring"], "functor.constant.ring")
        return cech.constant_functor(n, ring), kind, None
    if kind == "cover":
        overlaps = body.get("nonempty_overlaps")
        if not isinstance(overlaps, list):
            raise ProblemFormatError("cover functor needs 'nonempty_overlaps'", "functor.cover")
        tuples = set()
        for t, item in enumerate(overlaps):
            if not isinstance(item, list) or not all(map(_is_int, item)):
                raise ProblemFormatError("overlaps must be integer lists",
                                         f"functor.cover.nonempty_overlaps[{t}]")
            tuples.add(tuple(item))
        try:
            cd = nerve.CoverDescription(n, frozenset(tuples), problem.field)
        except CechcoverError as exc:
            raise ProblemFormatError(str(exc), "functor.cover")
        return nerve.functor_from_cover(cd), kind, cd
    # explicit
    rings_spec = body.get("rings")
    rest_spec = body.get("restrictions")
    if not isinstance(rings_spec, dict) or not isinstance(rest_spec, dict):
        raise ProblemFormatError("explicit functor needs 'rings' and 'restrictions'",
                                 "functor.explicit")
    rings = {}
    for key, spec_a in rings_spec.items():
        zeta = _parse_tuple_key(key, n, f"functor.explicit.rings.{key!r}")
        rings[zeta] = parse_algebra_section(problem.field, spec_a,
                                            f"functor.explicit.rings.{key}")
    for length in range(n + 1):
        for zeta in cech.all_tuples(n, length):
            if zeta not in rings:
                raise ProblemFormatError(f"missing ring for tuple {zeta}",
                                         "functor.explicit.rings")
    steps = {}
    for key, rows in rest_spec.items():
        loc = f"functor.explicit.restrictions.{key}"
        if "->" not in key:
            raise ProblemFormatError("restriction keys look like 'zeta->eta'", loc)
        src_key, dst_key = key.split("->", 1)
        zeta = _parse_tuple_key(src_key, n, loc)
        eta = _parse_tuple_key(dst_key, n, loc)
        if len(eta) != len(zeta) + 1 or not set(zeta) <= set(eta):
            raise ProblemFormatError("restrictions are single-index inclusions", loc)
        dom, cod = rings[zeta], rings[eta]
        if not isinstance(rows, list):
            raise ProblemFormatError("restriction matrix must be a list of rows", loc)
        mat_rows = [parse_vector(problem.field, row, dom.dim, f"{loc}[{ri}]")
                    for ri, row in enumerate(rows)]
        if len(mat_rows) != cod.dim:
            raise ProblemFormatError(f"restriction matrix must have {cod.dim} rows", loc)
        matrix = Matrix(problem.field, cod.dim, dom.dim, tuple(mat_rows))
        try:
            steps[(zeta, eta)] = AlgebraHom(dom, cod, matrix)
        except CechcoverError as exc:
            raise ProblemFormatError(str(exc), loc)
    for zeta, _, _, eta in cech.one_step_inclusions(n):
        if (zeta, eta) not in steps:
            raise ProblemFormatError(
                f"missing restriction {tuple_to_key(zeta)}->{tuple_to_key(eta)}",
                "functor.explicit.restrictions")
    return cech.PosetFunctor(n, rings, steps), kind, None
