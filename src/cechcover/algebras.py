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
``mul_table`` is a dense view built on first use.  The zero algebra
(dim 0) is legal and shows up naturally as quotients by the whole algebra.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatchError, StructureError
from .linalg import (
    Field, Matrix, Subspace,
    _dense_row, quotient_map, same_field, subspace_sum,
)
from .records import Frozen


class Algebra(Frozen):
    _fields = ("field", "dim", "terms", "unit", "labels")

    def __init__(self, field: Field, dim: int, terms: tuple, unit: tuple,
                 labels: Optional[tuple] = None):
        d = self.__dict__
        d["field"] = field
        d["dim"] = dim
        d["terms"] = terms  # terms[i][j] = ((k, c), ...), the nonzeros of b_i * b_j
        d["unit"] = unit
        d["labels"] = labels

    @cached_property
    def mul_table(self) -> tuple:
        """Dense view of the structure constants: mul_table[i][j] = coords of b_i * b_j."""
        return tuple(tuple(_dense_row(self.field, dict(t), self.dim) for t in row)
                     for row in self.terms)

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        """Product of coordinate vectors via the structure constants."""
        terms = self.terms
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        pairs = ((xi * yj, terms[i][j]) for i, xi in enumerate(x) if xi for j, yj in ys)
        return _dense_row(self.field, _combine(pairs, self.field.characteristic), self.dim)

    def basis_coords(self, i: int) -> tuple:
        return _dense_row(self.field, {i: self.field.one}, self.dim)

    def element(self, coords: Sequence) -> "Element":
        return Element(self, tuple(self.field.coerce(x) for x in coords))

    @property
    def is_zero(self) -> bool:
        return self.dim == 0


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


class Element(Frozen):
    _fields = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: tuple):
        if len(coords) != algebra.dim:
            raise DimensionMismatchError(
                f"element has {len(coords)} coordinates in a dim-{algebra.dim} algebra")
        d = self.__dict__
        d["algebra"] = algebra
        d["coords"] = coords

    def _check_same_algebra(self, other: "Element") -> None:
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise DimensionMismatchError("elements of different algebras")

    def __mul__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        return Element(self.algebra, self.algebra.multiply(self.coords, other.coords))

    def __add__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        add = self.algebra.field.add
        return Element(self.algebra, tuple(add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        sub = self.algebra.field.sub
        return Element(self.algebra, tuple(sub(a, b) for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        z = self.algebra.field.zero
        return all(x == z for x in self.coords)


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
        d = self.__dict__
        d["algebra"] = algebra
        d["space"] = space

    @classmethod
    def _proven(cls, algebra: Algebra, space: Subspace) -> "Ideal":
        """An Ideal on a space already known to be a two-sided ideal of
        ``algebra`` (a closure fixpoint, a sum of ideals): no check."""
        ideal = object.__new__(cls)
        d = ideal.__dict__
        d["algebra"] = algebra
        d["space"] = space
        return ideal

    @property
    def dim(self) -> int:
        return self.space.dim


def ideal_closure(a: Algebra, gens: Sequence) -> Ideal:
    """Smallest two-sided ideal containing gens.

    Each round multiplies by every basis element, on both sides, only the
    basis vectors that the last round added (those with a new pivot), and
    adds the products that escape the span, until none does."""
    vecs = []
    for g in gens:
        coords = g.coords if isinstance(g, Element) else tuple(a.field.coerce(x) for x in g)
        if len(coords) != a.dim:
            raise DimensionMismatchError("generator has wrong length")
        vecs.append(coords)
    span = Subspace.from_vectors(a.field, a.dim, vecs)
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


def ideal_sum(i1: Ideal, i2: Ideal) -> Ideal:
    if i1.algebra != i2.algebra:
        raise DimensionMismatchError("ideals of different algebras")
    return Ideal._proven(i1.algebra, subspace_sum(i1.space, i2.space))


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class HomReport(Frozen):
    _fields = ("ok", "witness", "message")

    def __init__(self, ok: bool, witness: Optional[tuple] = None, message: str = ""):
        d = self.__dict__
        d["ok"] = ok
        d["witness"] = witness
        d["message"] = message


class AlgebraHom(Frozen):
    _fields = ("domain", "codomain", "matrix")

    def __init__(self, domain: Algebra, codomain: Algebra, matrix: Matrix):
        if matrix.rows != codomain.dim or matrix.cols != domain.dim:
            raise DimensionMismatchError(
                f"hom matrix {matrix.rows}x{matrix.cols} does not map "
                f"dim {domain.dim} to dim {codomain.dim}")
        d = self.__dict__
        d["domain"] = domain
        d["codomain"] = codomain
        d["matrix"] = matrix
        report = hom_check(self)
        if not report.ok:
            raise StructureError(report.message, witness=report.witness)

    @staticmethod
    def identity(a: Algebra) -> "AlgebraHom":
        return AlgebraHom(a, a, Matrix.identity(a.field, a.dim))

    def apply(self, coords: Sequence) -> tuple:
        return self.matrix.apply(coords)


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


def hom_compose(f: AlgebraHom, g: AlgebraHom) -> AlgebraHom:
    """f after g; re-validated at construction."""
    if g.codomain != f.domain:
        raise DimensionMismatchError("hom domains do not line up for composition")
    return AlgebraHom(g.domain, f.codomain, f.matrix.mul(g.matrix))


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient(a: Algebra, j: Ideal) -> tuple[Algebra, AlgebraHom]:
    """A/J on complement coordinates, with the canonical projection.

    Coordinates of the quotient are the non-pivot columns of J's RREF basis,
    so the result is reproducible bit-for-bit from the ideal alone.  The
    section sends quotient coordinate t to the basis vector b_(free[t]), so
    the quotient's b_t * b_u is q(b_(free[t]) * b_(free[u])).
    """
    if j.algebra != a:
        raise DimensionMismatchError("ideal of a different algebra")
    q = quotient_map(a.dim, j.space)
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


# ---------------------------------------------------------------------------
# Stock constructions (used by tests, the CLI corpus, and random search)
# ---------------------------------------------------------------------------

def _basis_algebra(field: Field, labels: Sequence[str],
                   product: Callable[[int, int], Optional[int]],
                   unit: Iterable[int]) -> Algebra:
    """The algebra on the basis ``labels`` where b_i * b_j is the basis
    vector b_product(i, j), or zero where ``product`` gives None, and 1 is
    the sum of the basis vectors whose indices ``unit`` lists."""
    dim = len(labels)
    one = field.one
    terms = tuple(tuple(() if k is None else ((k, one),)
                        for k in (product(i, j) for j in range(dim)))
                  for i in range(dim))
    ones = set(unit)
    return algebra_from_terms(field, dim, terms,
                              tuple(one if k in ones else field.zero for k in range(dim)), labels)


def split_commutative(field: Field, n: int) -> Algebra:
    """k^n with coordinatewise product: e_i e_j = delta_ij e_i."""
    return _basis_algebra(field, tuple(f"e{i + 1}" for i in range(n)),
                          lambda i, j: i if i == j else None, range(n))


def _matrix_units(field: Field, pairs: list) -> Algebra:
    """The span of the matrix units e_ab for (a, b) in ``pairs``, in that
    order, with e_ab e_cd = delta_bc e_ad; ``pairs`` holds every e_aa and
    every e_ad such a product gives."""
    index = {p: i for i, p in enumerate(pairs)}

    def product(i: int, j: int) -> Optional[int]:
        (a, b), (c, d) = pairs[i], pairs[j]
        return index[(a, d)] if b == c else None

    return _basis_algebra(field, tuple(f"e{a + 1}{b + 1}" for a, b in pairs), product,
                          (i for i, (a, b) in enumerate(pairs) if a == b))


def matrix_algebra(field: Field, n: int) -> Algebra:
    """M_n(k) on matrix units e_ab, row-major basis order."""
    return _matrix_units(field, [(a, b) for a in range(n) for b in range(n)])


def upper_triangular(field: Field, n: int) -> Algebra:
    """Upper-triangular n x n matrices on the units e_ab with a <= b."""
    return _matrix_units(field, [(a, b) for a in range(n) for b in range(a, n)])


def truncated_polynomial(field: Field, n: int) -> Algebra:
    """k[x]/(x^n), basis 1, x, ..., x^(n-1)."""
    labels = ("1", "x") + tuple(f"x^{k}" for k in range(2, n))
    return _basis_algebra(field, labels[:n], lambda i, j: i + j if i + j < n else None, (0,))


def square_zero(field: Field, m: int) -> Algebra:
    """k * 1 + m-dimensional radical with all radical products zero."""
    labels = ("1",) + tuple(f"x{k + 1}" for k in range(m))
    return _basis_algebra(field, labels,
                          lambda i, j: j if i == 0 else i if j == 0 else None, (0,))


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """A + B with componentwise product and unit (1_A, 1_B)."""
    same_field(a.field, b.field)
    shift = a.dim
    terms = (tuple(row + ((),) * b.dim for row in a.terms)
             + tuple(((),) * shift + tuple(tuple((shift + k, c) for k, c in t) for t in row)
                     for row in b.terms))
    unit = tuple(a.unit) + tuple(b.unit)
    la = a.labels or tuple(f"a{i}" for i in range(a.dim))
    lb = b.labels or tuple(f"b{i}" for i in range(b.dim))
    return algebra_from_terms(a.field, a.dim + b.dim, terms, unit, tuple(la) + tuple(lb))
