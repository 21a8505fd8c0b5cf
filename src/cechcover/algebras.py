"""Finite-dimensional unital associative algebras from structure constants.

An algebra is a dense table c[i][j] with b_i * b_j = sum_k c[i][j][k] b_k,
plus the coordinate vector of the unit.  Associativity and the unit laws
are checked on construction over all basis triples; the zero algebra
(dim 0) is legal and shows up naturally as quotients by the whole algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DimensionMismatchError, StructureError
from .linalg import (
    Field, Matrix, Subspace,
    intersect_many, quotient_map, quotient_section, same_field, subspace_sum,
)


@dataclass(frozen=True)
class Algebra:
    field: Field
    dim: int
    mul_table: tuple  # mul_table[i][j] = coords of b_i * b_j
    unit: tuple
    labels: Optional[tuple] = None

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        """Product of coordinate vectors via the structure constants."""
        f = self.field
        zero, add, mul = f.zero, f.add, f.mul
        out = [zero] * self.dim
        for i, xi in enumerate(x):
            if xi == zero:
                continue
            row = self.mul_table[i]
            for j, yj in enumerate(y):
                if yj == zero:
                    continue
                c = f.mul(xi, yj)
                for k, ck in enumerate(row[j]):
                    if ck != zero:
                        out[k] = add(out[k], mul(c, ck))
        return tuple(out)

    def left_mult_matrix(self, x: Sequence) -> Matrix:
        """Matrix of v -> x*v on coordinates."""
        cols = [self.multiply(x, _axis(self.field, self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols) if self.dim else Matrix(self.field, 0, 0, ())

    def right_mult_matrix(self, x: Sequence) -> Matrix:
        """Matrix of v -> v*x on coordinates."""
        cols = [self.multiply(_axis(self.field, self.dim, j), x) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols) if self.dim else Matrix(self.field, 0, 0, ())

    def basis_coords(self, i: int) -> tuple:
        return _axis(self.field, self.dim, i)

    def element(self, coords: Sequence) -> "Element":
        return Element(self, tuple(self.field.coerce(x) for x in coords))

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"b{i}"

    @property
    def is_zero(self) -> bool:
        return self.dim == 0


def _axis(field: Field, dim: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(dim))


@dataclass(frozen=True)
class Element:
    algebra: Algebra
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.algebra.dim:
            raise DimensionMismatchError(
                f"element has {len(self.coords)} coordinates in a dim-{self.algebra.dim} algebra")

    def __mul__(self, other: "Element") -> "Element":
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise DimensionMismatchError("elements of different algebras")
        return Element(self.algebra, self.algebra.multiply(self.coords, other.coords))

    def __add__(self, other: "Element") -> "Element":
        add = self.algebra.field.add
        return Element(self.algebra, tuple(add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        sub = self.algebra.field.sub
        return Element(self.algebra, tuple(sub(a, b) for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        z = self.algebra.field.zero
        return all(x == z for x in self.coords)


def make_algebra(field: Field, dim: int, mul: Sequence, unit: Sequence,
                 labels: Optional[Sequence[str]] = None) -> Algebra:
    """Validate a structure-constant table and build the algebra.

    Raises StructureError naming the violated axiom and the basis indices
    that witness it.
    """
    if dim == 0:
        return Algebra(field, 0, (), (), None)
    table = tuple(tuple(tuple(field.coerce(x) for x in mul[i][j]) for j in range(dim))
                  for i in range(dim))
    for i in range(dim):
        if len(mul[i]) != dim:
            raise StructureError(f"structure table row {i} has wrong length", witness=(i,))
        for j in range(dim):
            if len(table[i][j]) != dim:
                raise StructureError(f"structure vector ({i},{j}) has wrong length", witness=(i, j))
    u = tuple(field.coerce(x) for x in unit)
    if len(u) != dim:
        raise StructureError("unit vector has wrong length", witness=())
    a = Algebra(field, dim, table, u,
                tuple(labels) if labels is not None else None)
    for i in range(dim):
        e_i = a.basis_coords(i)
        if a.multiply(u, e_i) != e_i:
            raise StructureError(f"unit law fails: 1*b{i} != b{i}", witness=("unit-left", i))
        if a.multiply(e_i, u) != e_i:
            raise StructureError(f"unit law fails: b{i}*1 != b{i}", witness=("unit-right", i))
    for i in range(dim):
        for j in range(dim):
            ij = table[i][j]
            for k in range(dim):
                lhs = a.multiply(ij, a.basis_coords(k))
                rhs = a.multiply(a.basis_coords(i), table[j][k])
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

@dataclass(frozen=True)
class Ideal:
    algebra: Algebra
    space: Subspace

    def __post_init__(self):
        a = self.algebra
        if self.space.ambient_dim != a.dim:
            raise DimensionMismatchError("ideal ambient dim != algebra dim")
        for v in self.space.basis.entries:
            for i in range(a.dim):
                e = a.basis_coords(i)
                if not self.space.contains(a.multiply(e, v)):
                    raise StructureError(
                        f"not a two-sided ideal: b{i} * v escapes the span",
                        witness=("left", i, v))
                if not self.space.contains(a.multiply(v, e)):
                    raise StructureError(
                        f"not a two-sided ideal: v * b{i} escapes the span",
                        witness=("right", i, v))

    @property
    def dim(self) -> int:
        return self.space.dim


def ideal_closure(a: Algebra, gens: Sequence) -> Ideal:
    """Smallest two-sided ideal containing gens.

    Iterates span <- span + A*span + span*A until the dimension stabilizes.
    """
    vecs = []
    for g in gens:
        coords = g.coords if isinstance(g, Element) else tuple(a.field.coerce(x) for x in g)
        if len(coords) != a.dim:
            raise DimensionMismatchError("generator has wrong length")
        vecs.append(coords)
    span = Subspace.from_vectors(a.field, a.dim, vecs)
    while True:
        new_vecs = list(span.basis.entries)
        for v in span.basis.entries:
            for i in range(a.dim):
                e = a.basis_coords(i)
                new_vecs.append(a.multiply(e, v))
                new_vecs.append(a.multiply(v, e))
        bigger = Subspace.from_vectors(a.field, a.dim, new_vecs)
        if bigger.dim == span.dim:
            return Ideal(a, bigger)
        span = bigger


def ideal_sum(i1: Ideal, i2: Ideal) -> Ideal:
    if i1.algebra != i2.algebra:
        raise DimensionMismatchError("ideals of different algebras")
    return Ideal(i1.algebra, subspace_sum(i1.space, i2.space))


def ideal_intersection(ideals: Sequence[Ideal]) -> Subspace:
    if not ideals:
        raise ValueError("need at least one ideal")
    a = ideals[0].algebra
    for i in ideals[1:]:
        if i.algebra != a:
            raise DimensionMismatchError("ideals of different algebras")
    return intersect_many([i.space for i in ideals])


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomReport:
    ok: bool
    witness: Optional[tuple] = None
    message: str = ""


@dataclass(frozen=True)
class AlgebraHom:
    domain: Algebra
    codomain: Algebra
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.codomain.dim or self.matrix.cols != self.domain.dim:
            raise DimensionMismatchError(
                f"hom matrix {self.matrix.rows}x{self.matrix.cols} does not map "
                f"dim {self.domain.dim} to dim {self.codomain.dim}")
        report = hom_check(self)
        if not report.ok:
            raise StructureError(report.message, witness=report.witness)

    @staticmethod
    def identity(a: Algebra) -> "AlgebraHom":
        return AlgebraHom(a, a, Matrix.identity(a.field, a.dim))

    def apply(self, coords: Sequence) -> tuple:
        return self.matrix.apply(coords)


def hom_check(f: AlgebraHom) -> HomReport:
    """Multiplicativity on all basis pairs and unit-to-unit."""
    dom, cod = f.domain, f.codomain
    same_field(dom.field, cod.field, f.matrix.field)
    if f.matrix.apply(dom.unit) != cod.unit:
        return HomReport(False, witness=("unit",), message="map does not send unit to unit")
    for i in range(dom.dim):
        fi = f.matrix.apply(dom.basis_coords(i))
        for j in range(dom.dim):
            lhs = f.matrix.apply(dom.mul_table[i][j])
            rhs = cod.multiply(fi, f.matrix.apply(dom.basis_coords(j)))
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
    so the result is reproducible bit-for-bit from the ideal alone.
    """
    if j.algebra != a:
        raise DimensionMismatchError("ideal of a different algebra")
    q = quotient_map(a.dim, j.space)
    s = quotient_section(a.dim, j.space)
    qdim = q.rows
    if qdim == 0:
        qa = zero_algebra(a.field)
        return qa, AlgebraHom(a, qa, Matrix(a.field, 0, a.dim, ()))
    table = []
    for i in range(qdim):
        si = s.apply(_axis(a.field, qdim, i))
        row = []
        for jj in range(qdim):
            sj = s.apply(_axis(a.field, qdim, jj))
            row.append(q.apply(a.multiply(si, sj)))
        table.append(tuple(row))
    unit_q = q.apply(a.unit)
    labels = None
    if a.labels:
        pivot_set = set(j.space.pivot_columns())
        labels = tuple(a.labels[c] for c in range(a.dim) if c not in pivot_set)
    qa = make_algebra(a.field, qdim, tuple(table), unit_q, labels)
    return qa, AlgebraHom(a, qa, q)


# ---------------------------------------------------------------------------
# Stock constructions (used by tests, the CLI corpus, and random search)
# ---------------------------------------------------------------------------

def split_commutative(field: Field, n: int) -> Algebra:
    """k^n with coordinatewise product: e_i e_j = delta_ij e_i."""
    z, o = field.zero, field.one
    table = tuple(tuple(tuple(o if (i == j == k) else z for k in range(n)) for j in range(n))
                  for i in range(n))
    return make_algebra(field, n, table, (o,) * n,
                        tuple(f"e{i + 1}" for i in range(n)))


def matrix_algebra(field: Field, n: int) -> Algebra:
    """M_n(k) on matrix units e_ab, row-major basis order."""
    dim = n * n
    z, o = field.zero, field.one

    def unit_index(a, b):
        return a * n + b

    table = []
    for i in range(dim):
        ai, bi = divmod(i, n)
        row = []
        for j in range(dim):
            aj, bj = divmod(j, n)
            vec = [z] * dim
            if bi == aj:
                vec[unit_index(ai, bj)] = o
            row.append(tuple(vec))
        table.append(tuple(row))
    unit = [z] * dim
    for a in range(n):
        unit[unit_index(a, a)] = o
    return make_algebra(field, dim, tuple(table), tuple(unit),
                        tuple(f"e{a + 1}{b + 1}" for a in range(n) for b in range(n)))


def upper_triangular(field: Field, n: int) -> Algebra:
    """Upper-triangular n x n matrices on the units e_ab with a <= b."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    index = {p: i for i, p in enumerate(pairs)}
    dim = len(pairs)
    z, o = field.zero, field.one
    table = []
    for (ai, bi) in pairs:
        row = []
        for (aj, bj) in pairs:
            vec = [z] * dim
            if bi == aj:
                vec[index[(ai, bj)]] = o
            row.append(tuple(vec))
        table.append(tuple(row))
    unit = [z] * dim
    for a in range(n):
        unit[index[(a, a)]] = o
    return make_algebra(field, dim, tuple(table), tuple(unit),
                        tuple(f"e{a + 1}{b + 1}" for (a, b) in pairs))


def truncated_polynomial(field: Field, n: int) -> Algebra:
    """k[x]/(x^n), basis 1, x, ..., x^(n-1)."""
    z, o = field.zero, field.one
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = [z] * n
            if i + j < n:
                vec[i + j] = o
            row.append(tuple(vec))
        table.append(tuple(row))
    unit = [o] + [z] * (n - 1)
    return make_algebra(field, n, tuple(table), tuple(unit),
                        ("1",) + tuple(f"x^{k}" if k > 1 else "x" for k in range(1, n)))


def square_zero(field: Field, m: int) -> Algebra:
    """k * 1 + m-dimensional radical with all radical products zero."""
    n = m + 1
    z, o = field.zero, field.one
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = [z] * n
            if i == 0:
                vec[j] = o
            elif j == 0:
                vec[i] = o
            row.append(tuple(vec))
        table.append(tuple(row))
    unit = [o] + [z] * m
    return make_algebra(field, n, tuple(table), tuple(unit),
                        ("1",) + tuple(f"x{k + 1}" for k in range(m)))


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """A + B with componentwise product and unit (1_A, 1_B)."""
    same_field(a.field, b.field)
    f = a.field
    n = a.dim + b.dim
    z = f.zero
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = [z] * n
            if i < a.dim and j < a.dim:
                for k, c in enumerate(a.mul_table[i][j]):
                    vec[k] = c
            elif i >= a.dim and j >= a.dim:
                for k, c in enumerate(b.mul_table[i - a.dim][j - a.dim]):
                    vec[a.dim + k] = c
            row.append(tuple(vec))
        table.append(tuple(row))
    unit = tuple(a.unit) + tuple(b.unit)
    la = a.labels or tuple(f"a{i}" for i in range(a.dim))
    lb = b.labels or tuple(f"b{i}" for i in range(b.dim))
    return make_algebra(f, n, tuple(table), unit, tuple(la) + tuple(lb))
