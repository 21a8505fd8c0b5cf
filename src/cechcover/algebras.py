"""Finite-dimensional unital associative algebras from structure constants.

An algebra stores, for each pair of basis vectors, the nonzero terms of
their product: ``terms[i][j] = ((k, c), ...)`` with b_i * b_j =
sum c b_k over those pairs, k increasing and every c nonzero, plus the
coordinate vector of the unit.  Products, the unit and associativity
checks, the ideal test, the homomorphism test and quotient tables all run
on these terms, with truthiness as the zero test (entries over Q are
``Fraction``s and entries over F_p canonical ints, as in ``linalg``).
Associativity is checked on every basis triple (i, j, k) where
(b_i b_j) b_k or b_i (b_j b_k) can be nonzero, in lexicographic order, so
the first failing triple is the first failing triple of the full check.
The zero algebra (dim 0) is legal and shows up naturally as quotients by
the whole algebra.  Elements, products of coordinate vectors, sums of
ideals, composites of homs and the stock algebras (k^n, M_n(k), ...) are
in ``cechcover.oracles``: no command runs them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, StructureError
from .linalg import Field, Matrix, Subspace, quotient_map, same_field
from .records import Frozen


class Algebra(Frozen):
    # terms[i][j] = ((k, c), ...), the nonzeros of b_i * b_j
    _fields = ("field", "dim", "terms", "unit", "labels")
    _defaults = {"labels": None}


def _combine(pairs: Iterable, p: int) -> dict:
    """The nonzeros of sum c * t over (c, t) in pairs, as {k: value}.

    Each t is a sequence of (k, x) pairs; values are reduced mod p when
    p > 0, so the result is canonical and two results compare with ==.
    """
    acc: dict = {}
    for c, t in pairs:
        for k, x in t:
            acc[k] = acc.get(k, 0) + c * x
    if p:
        return {k: y for k, x in acc.items() if (y := x % p)}
    return {k: x for k, x in acc.items() if x}


def _columns(m: Matrix) -> list:
    """Per column of m, its nonzeros as (row, value) pairs."""
    cols: list = [[] for _ in range(m.cols)]
    for r, row in enumerate(m.nonzeros):
        for c, x in row.items():
            cols[c].append((r, x))
    return cols


def make_algebra(field: Field, dim: int, mul: Sequence, unit: Sequence,
                 labels: Optional[Sequence[str]] = None) -> Algebra:
    """Validate a dense structure-constant table and build the algebra.

    ``mul[i][j]`` is the coordinate vector of b_i * b_j.  Raises
    StructureError naming the violated axiom and the basis indices that
    witness it.
    """
    if dim == 0:
        return zero_algebra(field)
    if len(mul) != dim:
        raise StructureError(f"structure table has {len(mul)} rows, expected {dim}", witness=())
    for i in range(dim):
        if len(mul[i]) != dim:
            raise StructureError(f"structure table row {i} has wrong length", witness=(i,))
        for j in range(dim):
            if len(mul[i][j]) != dim:
                raise StructureError(f"structure vector ({i},{j}) has wrong length", witness=(i, j))
    coerce = field.coerce
    terms = tuple(tuple(tuple((k, c) for k, c in enumerate(map(coerce, vec)) if c)
                        for vec in row)
                  for row in mul)
    u = tuple(coerce(x) for x in unit)
    if len(u) != dim:
        raise StructureError("unit vector has wrong length", witness=())
    return algebra_from_terms(field, dim, terms, u, labels)


def algebra_from_terms(field: Field, dim: int, terms: tuple, unit: tuple,
                       labels: Optional[Sequence[str]] = None) -> Algebra:
    """Validate sparse structure constants and build the algebra.

    ``terms[i][j]`` holds the nonzero terms (k, c) of b_i * b_j with k
    increasing, and ``unit`` the unit's coordinates; all entries are
    canonical (``Field.coerce``), so results compare with ==.  Raises
    StructureError like ``make_algebra``.
    """
    if dim == 0:
        return zero_algebra(field)
    a = Algebra(field, dim, terms, unit, tuple(labels) if labels is not None else None)
    p = field.characteristic
    unit_nz = [(m, x) for m, x in enumerate(unit) if x]
    for i in range(dim):
        axis = {i: field.one}
        if _combine(((x, terms[m][i]) for m, x in unit_nz), p) != axis:
            raise StructureError(f"unit law fails: 1*b{i} != b{i}", witness=("unit-left", i))
        if _combine(((x, terms[i][m]) for m, x in unit_nz), p) != axis:
            raise StructureError(f"unit law fails: b{i}*1 != b{i}", witness=("unit-right", i))
    # (b_i b_j) b_k and b_i (b_j b_k) are both zero unless b_j b_k != 0 or
    # b_m b_k != 0 for some b_m in b_i b_j, so only those k are visited
    nonzero_cols = [tuple(k for k, t in enumerate(row) if t) for row in terms]
    for i in range(dim):
        row_i = terms[i]
        for j in range(dim):
            ij = row_i[j]
            row_j = terms[j]
            if ij:
                ks = sorted(set(nonzero_cols[j]).union(*(nonzero_cols[m] for m, _ in ij)))
            else:
                ks = nonzero_cols[j]
            for k in ks:
                lhs = _combine(((c, terms[m][k]) for m, c in ij), p)
                rhs = _combine(((c, row_i[m]) for m, c in row_j[k]), p)
                if lhs != rhs:
                    raise StructureError(
                        f"associativity fails at basis triple ({i},{j},{k})",
                        witness=("associativity", i, j, k))
    return a


def zero_algebra(field: Field) -> Algebra:
    return Algebra(field, 0, (), (), None)


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

def _side_products(a: Algebra, v: dict):
    """For i = 0..dim-1, the nonzeros of b_i * v and of v * b_i as dicts;
    v is given by its nonzeros as a {column: value} dict."""
    terms, p = a.terms, a.field.characteristic
    nonzeros = v.items()
    for i in range(a.dim):
        row = terms[i]
        yield (_combine(((x, row[m]) for m, x in nonzeros), p),
               _combine(((x, terms[m][i]) for m, x in nonzeros), p))


def _check_two_sided(algebra: Algebra, space: Subspace) -> None:
    for r, nonzeros in enumerate(space.sparse_basis):
        for i, (left, right) in enumerate(_side_products(algebra, nonzeros)):
            if not space.contains_sparse(left):
                raise StructureError(
                    f"not a two-sided ideal: b{i} * v escapes the span",
                    witness=("left", i, space.basis.entries[r]))
            if not space.contains_sparse(right):
                raise StructureError(
                    f"not a two-sided ideal: v * b{i} escapes the span",
                    witness=("right", i, space.basis.entries[r]))


class Ideal(Frozen):
    _fields = ("algebra", "space")

    def __init__(self, algebra: Algebra, space: Subspace):
        if space.ambient_dim != algebra.dim:
            raise DimensionMismatchError("ideal ambient dim != algebra dim")
        _check_two_sided(algebra, space)
        super().__init__(algebra, space)

    @classmethod
    def _proven(cls, algebra: Algebra, space: Subspace) -> "Ideal":
        """An Ideal on a space already known to be a two-sided ideal of
        ``algebra`` (a closure fixpoint, a sum of ideals): no check."""
        ideal = object.__new__(cls)
        Frozen.__init__(ideal, algebra, space)
        return ideal


def ideal_closure(a: Algebra, gens: Sequence) -> Ideal:
    """Smallest two-sided ideal containing the coordinate vectors gens.

    Each round multiplies by every basis element, on both sides, only the
    basis vectors that the last round added (those with a new pivot), and
    adds the products that escape the span, until none does."""
    span = Subspace.from_vectors(a.field, a.dim, gens)
    added = span.sparse_basis
    while True:
        escaped = [w for v in added for pair in _side_products(a, v) for w in pair
                   if w and not span.contains_sparse(w)]
        if not escaped:
            return Ideal._proven(a, span)
        old = set(span.pivot_columns())
        span = Subspace.from_sparse(a.field, a.dim,
                                    [dict(v) for v in span.sparse_basis] + escaped)
        added = [v for v in span.sparse_basis if next(iter(v)) not in old]


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class HomReport(Frozen):
    _fields = ("ok", "witness", "message")
    _defaults = {"witness": None, "message": ""}


class AlgebraHom(Frozen):
    _fields = ("domain", "codomain", "matrix")

    def __init__(self, domain: Algebra, codomain: Algebra, matrix: Matrix):
        if matrix.rows != codomain.dim or matrix.cols != domain.dim:
            raise DimensionMismatchError(
                f"hom matrix {matrix.rows}x{matrix.cols} does not map "
                f"dim {domain.dim} to dim {codomain.dim}")
        super().__init__(domain, codomain, matrix)
        report = hom_check(self)
        if not report.ok:
            raise StructureError(report.message, witness=report.witness)

    @staticmethod
    def identity(a: Algebra) -> "AlgebraHom":
        return AlgebraHom(a, a, Matrix.identity(a.field, a.dim))

def hom_check(f: AlgebraHom) -> HomReport:
    """Multiplicativity on all basis pairs and unit-to-unit.

    f(b_i) is column i of the matrix, so f(b_i b_j) and f(b_i) f(b_j) are
    formed from the columns and the structure terms of both algebras.
    """
    dom, cod = f.domain, f.codomain
    same_field(dom.field, cod.field, f.matrix.field)
    if f.matrix.apply(dom.unit) != cod.unit:
        return HomReport(False, witness=("unit",), message="map does not send unit to unit")
    p = dom.field.characteristic
    cols = _columns(f.matrix)
    cod_terms = cod.terms
    for i in range(dom.dim):
        fi, row = cols[i], dom.terms[i]
        for j in range(dom.dim):
            lhs = _combine(((c, cols[k]) for k, c in row[j]), p)
            rhs = _combine(((x * y, cod_terms[r][s]) for r, x in fi for s, y in cols[j]), p)
            if lhs != rhs:
                return HomReport(False, witness=(i, j),
                                 message=f"map is not multiplicative on basis pair ({i},{j})")
    return HomReport(True)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient(a: Algebra, j: Ideal, *, q: Optional[Matrix] = None) -> tuple[Algebra, AlgebraHom]:
    """A/J on complement coordinates, with the projection q (``quotient_map``, unless given).

    Coordinates of the quotient are the non-pivot columns of J's RREF basis,
    so the result is reproducible bit-for-bit from the ideal alone.  The
    section sends quotient coordinate t to the basis vector b_(free[t]), so
    the quotient's b_t * b_u is q(b_(free[t]) * b_(free[u])).
    """
    if j.algebra != a:
        raise DimensionMismatchError("ideal of a different algebra")
    q = quotient_map(a.dim, j.space) if q is None else q
    qdim = q.rows
    if qdim == 0:
        qa = zero_algebra(a.field)
        return qa, AlgebraHom(a, qa, Matrix(a.field, 0, a.dim, ()))
    pivot_set = set(j.space.pivot_columns())
    free = [c for c in range(a.dim) if c not in pivot_set]
    p = a.field.characteristic
    q_cols = _columns(q)
    terms = tuple(
        tuple(tuple(sorted(_combine(((c, q_cols[k]) for k, c in a.terms[s][t]), p).items()))
              for t in free)
        for s in free)
    unit_q = q.apply(a.unit)
    labels = None
    if a.labels:
        labels = tuple(a.labels[c] for c in free)
    qa = algebra_from_terms(a.field, qdim, terms, unit_q, labels)
    return qa, AlgebraHom(a, qa, q)

