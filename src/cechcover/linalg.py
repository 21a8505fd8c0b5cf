"""Exact linear algebra over Q and prime fields.

Everything here is exact, and a value has one format: a rational is an
``int`` when it is integral and a ``fractions.Fraction`` otherwise, and a
prime-field element is its canonical int representative in ``[0, p)``.
So zero is ``0``, and truthiness is the zero test throughout.  Arithmetic
may also produce an integral ``Fraction``, which is equal to its int and
hashes equal to it.  No value is ever divided with ``/``, which would
make a float of two ints: a row is divided by its pivot with
``Fraction`` (``_over_pivot``), and over F_p by a modular inverse.
``fractions`` (which loads ``decimal`` and ``numbers``) is imported only
where a value that is not an int is made.

A ``Matrix`` stores its nonzeros only: one ``{column: value}`` dict per
row, and no zero is stored.  Every operation, row reduction included, reads
and builds these rows directly, so its cost follows the nonzeros, not
rows x cols.  The inner loops run on the values themselves, with no
``Field`` method call per entry: over F_p with one reduction mod p per
result entry, over Q on ints except where an entry is not integral, and
elimination over Q is fraction-free on rows scaled to integers
(``_eliminate``).  ``Matrix.entries`` is a dense read-only view, built on
first read, for printing.  Block matrices are written by
``cechcover.complexes.assemble``; a dense column and an independent block
stacker are test oracles in ``cechcover.oracles``.

Subspaces are stored by their reduced row-echelon basis, which makes RREF
equality the canonical equality test and makes every derived choice
(quotient coordinates, sections) deterministic.
"""

from __future__ import annotations

import heapq
import sys
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, FieldMismatchError
from .records import Frozen


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class Field(Frozen):
    """Field descriptor; scalar values are plain Python objects it governs.

    ``characteristic`` is 0 for Q and p for F_p; the elimination kernels
    branch on it once per call.  Every field has ``zero`` 0 and ``one`` 1
    and gives ``coerce``, ``add`` and ``neg``; the arithmetic no command
    runs is in ``cechcover.oracles``.
    """

    characteristic, zero, one = 0, 0, 1


class RationalField(Field):
    """The rationals: ints where integral, else arbitrary-precision Fractions."""

    def coerce(self, x):
        if type(x) is not int:
            from fractions import Fraction
            x = Fraction(x)
            if x.denominator == 1:
                return x.numerator
        return x

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """F_p for a prime p < 2^31; elements are ints in [0, p)."""

    _fields = ("p", "characteristic")

    def __init__(self, p: int):
        if p < 2 or p >= 2 ** 31:
            raise ValueError(f"prime field order out of range: {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p, p)

    def coerce(self, x):
        if type(x) is int:
            return x % self.p
        # x is a Fraction only if fractions is loaded, which an int does not need
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(x, fractions.Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def __repr__(self):
        return f"GF({self.p})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def same_field(*fields: Field) -> Field:
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise FieldMismatchError(f"mixed field descriptors: {first!r} vs {f!r}")
    return first


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class Matrix(Frozen):
    """Immutable matrix over one field, stored by its nonzeros.

    ``nonzeros[r]`` is a ``{column: value}`` dict of the nonzero entries of
    row r, in no set column order; no zero is stored.  A row dict is never
    changed once its matrix is built, so operations share unchanged rows.
    ``Matrix(field, rows, cols, entries)`` takes dense rows and drops their
    zeros.  ``entries`` (dense rows) is a read-only view built on first
    read; equality and hashing use the nonzeros only.
    """

    _fields = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        self.__dict__.update(field=field, rows=rows, cols=cols, nonzeros=tuple(
            dict(compress(enumerate(row), row)) for row in entries))

    @staticmethod
    def from_nonzeros(field: Field, rows: int, cols: int, nonzeros: tuple) -> "Matrix":
        """The matrix whose row r has the nonzeros ``nonzeros[r]``
        ({column: value}, no zero value); the dicts are taken, not copied."""
        m = Matrix.__new__(Matrix)
        m.__dict__.update(field=field, rows=rows, cols=cols, nonzeros=nonzeros)
        return m

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix.from_nonzeros(field, rows, cols, tuple({} for _ in range(rows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        one = field.one
        return Matrix.from_nonzeros(field, n, n, tuple({i: one} for i in range(n)))

    @cached_property
    def entries(self) -> tuple:
        """Dense rows: entries[r][c]."""
        return tuple(_dense_row(self.field, row, self.cols) for row in self.nonzeros)

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        # tuple equality tries identity first, so a shared field costs no call
        return self is other or ((self.field, self.rows, self.cols, self.nonzeros)
                                 == (other.field, other.rows, other.cols, other.nonzeros))

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self.nonzeros)))

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def neg(self) -> "Matrix":
        p = self.field.characteristic
        if p:
            out = tuple({c: p - x for c, x in row.items()} for row in self.nonzeros)
        else:
            out = tuple({c: -x for c, x in row.items()} for row in self.nonzeros)
        return Matrix.from_nonzeros(self.field, self.rows, self.cols, out)

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product over the nonzeros of both factors."""
        same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other.nonzeros
        return _product(self.field, self.nonzeros, other.cols, lambda k: right[k].items())

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise DimensionMismatchError(f"vector length {len(vector)} != cols {self.cols}")
        p = self.field.characteristic
        out = []
        for row in self.nonzeros:
            s = 0
            for c, a in row.items():
                v = vector[c]
                if v:
                    s += a * v
            out.append(s % p if p else s)
        return tuple(out)


def _product(field: Field, left: Sequence, ncols: int, right_row) -> Matrix:
    """The matrix with rows ``left`` times the ncols-column matrix whose
    row k has the nonzeros ``right_row(k)``, as (column, value) pairs;
    each row is asked for once."""
    p = field.characteristic
    right: dict = {}
    out = []
    for row in left:
        acc: dict = {}
        for k, av in row.items():
            pairs = right.get(k)
            if pairs is None:
                pairs = right[k] = right_row(k)
            for c, b in pairs:
                acc[c] = acc.get(c, 0) + av * b
        if p:
            out.append({c: y for c, x in acc.items() if (y := x % p)})
        else:
            out.append({c: y for c, y in acc.items() if y})
    return Matrix.from_nonzeros(field, len(out), ncols, tuple(out))


def _dense_row(field: Field, row: dict, ncols: int) -> tuple:
    out = [field.zero] * ncols
    for c, x in row.items():
        out[c] = x
    return tuple(out)


# ---------------------------------------------------------------------------
# Row reduction and derived operations
# ---------------------------------------------------------------------------

def _eliminate(field: Field, rows: list, reduce: bool) -> tuple[list, list]:
    """Row echelon form of sparse rows; returns (pivot_rows, pivot_columns).

    ``rows`` are ``{column: nonzero}`` dicts and are consumed.  Columns are
    taken in increasing order.  Every remaining row is zero left of the
    current column, so the rows nonzero there are exactly the ones whose
    leading entry lies there: the sparsest of them is the pivot, and the
    column is cleared from the others (``_clear``).  With ``reduce`` the
    pivot rows are then cleared above each pivot, which gives the unique
    reduced row-echelon form whatever pivot rows were chosen.

    Over F_p each pivot row is scaled to 1 when it is chosen.  Over Q the
    rows must be primitive integer rows (``_q_rows``) and stay integer:
    elimination is fraction-free, and with ``reduce`` each pivot row is
    divided by its pivot once, at the end (``_over_pivot``).
    Without ``reduce`` only the pivot columns are meaningful over Q.
    """
    p = field.characteristic
    buckets: dict = {}  # leading column -> remaining rows that start there
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    heap = list(buckets)
    heapq.heapify(heap)
    pivot_rows, pivots = [], []
    while heap:
        c = heapq.heappop(heap)
        group = buckets.pop(c)
        prow = group.pop(min(range(len(group)), key=lambda i: len(group[i])))
        pv = prow[c]
        if p and pv != 1:
            inv = pow(pv, -1, p)
            prow = {j: x * inv % p for j, x in prow.items()}
        pivot_rows.append(prow)
        pivots.append(c)
        for row in group:
            _clear(row, prow, c, p)
            if row:
                lead = min(row)
                if lead in buckets:
                    buckets[lead].append(row)
                else:
                    buckets[lead] = [row]
                    heapq.heappush(heap, lead)
    if reduce:
        for k in range(len(pivots) - 1, 0, -1):
            c, prow = pivots[k], pivot_rows[k]
            for row in pivot_rows[:k]:
                if c in row:
                    _clear(row, prow, c, p)
        if not p:
            pivot_rows = [_over_pivot(row, row[c]) for row, c in zip(pivot_rows, pivots)]
    return pivot_rows, pivots


def _clear(row: dict, prow: dict, c: int, p: int) -> None:
    """Clear column c of row with prow, in place.

    Over F_p, prow[c] == 1 and row -= row[c] * prow.  Over Q both rows
    hold ints: row becomes (a * row - b * prow) / content, where a / b is
    prow[c] / row[c] in lowest terms with a > 0 and the content is the gcd
    of the result's entries, so the row stays a primitive integer row.
    """
    f = row[c]
    if p:
        f = p - f
        for j, x in prow.items():
            y = (row.get(j, 0) + f * x) % p
            if y:
                row[j] = y
            else:
                del row[j]
        return
    pv = prow[c]
    g = gcd(pv, f) if pv > 0 else -gcd(pv, f)
    a, b = pv // g, f // g
    if a != 1:
        for j, x in row.items():
            row[j] = a * x
    for j, x in prow.items():
        y = row.get(j)
        if y is None:
            row[j] = -b * x
        else:
            y -= b * x
            if y:
                row[j] = y
            else:
                del row[j]
    if row:
        g = gcd(*row.values())
        if g != 1:
            for j, x in row.items():
                row[j] = x // g


def _q_rows(field: Field, rows: Iterable[dict]) -> list:
    """New row dicts of canonical values in the form ``_eliminate`` takes:
    over Q, primitive integer rows; over F_p, copies."""
    return list(map(dict if field.characteristic else _integral, rows))


def _integral(row: dict) -> dict:
    """The primitive integer row that is a positive multiple of a row of
    rationals."""
    scale = lcm(*[x.denominator for x in row.values()])
    if scale == 1:
        out = {j: x.numerator for j, x in row.items()}
    else:
        out = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
    g = gcd(*out.values())
    if g != 1:
        out = {j: x // g for j, x in out.items()}
    return out


def _over_pivot(row: dict, pv: int) -> dict:
    """An integer row divided by its pivot value pv: an int where pv
    divides the entry, else a Fraction."""
    if pv == 1:
        return row
    if all(x % pv == 0 for x in row.values()):
        return {j: x // pv for j, x in row.items()}
    from fractions import Fraction
    return {j: Fraction(x, pv) if x % pv else x // pv for j, x in row.items()}


def rank(m: Matrix) -> int:
    _, pivots = _eliminate(m.field, _q_rows(m.field, m.nonzeros), reduce=False)
    return len(pivots)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

class Subspace(Frozen):
    """Subspace of k^ambient_dim by its RREF basis (rows = basis vectors).

    The RREF basis is the canonical representative: two subspaces are equal
    iff their basis matrices are equal.  Each basis row dict lists its
    nonzeros in column order, pivot first.
    """

    _fields = ("ambient_dim", "basis")  # basis: RREF, no zero rows

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        coerce = field.coerce
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(f"vector length {len(v)} != ambient {ambient_dim}")
            rows.append({c: y for c, x in enumerate(v) if x and (y := coerce(x))})
        return Subspace.from_sparse(field, ambient_dim, rows)

    @staticmethod
    def from_sparse(field: Field, ambient_dim: int, rows: Iterable[dict]) -> "Subspace":
        """Span of vectors given as ``{column: value}`` dicts of canonical
        nonzero entries; the dicts are not changed."""
        rows, _ = _eliminate(field, _q_rows(field, rows), reduce=True)
        basis = tuple(dict(sorted(row.items())) for row in rows)
        return Subspace(ambient_dim, Matrix.from_nonzeros(field, len(basis), ambient_dim, basis))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zero(field, 0, ambient_dim))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def sparse_basis(self) -> tuple:
        """Each basis row as a ``{column: value}`` dict of its nonzeros, in
        column order; the first key is the row's pivot, with value 1."""
        return self.basis.nonzeros

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        return tuple(next(iter(row)) for row in self.sparse_basis)

    def pivot_columns(self) -> tuple[int, ...]:
        return self._pivots

    def contains_sparse(self, v: dict) -> bool:
        """Membership of the vector whose nonzeros are ``v`` ({column: value},
        canonical entries).

        Each basis row is zero at the other rows' pivots, so clearing v at
        every pivot leaves zero exactly when v lies in the span.
        """
        p = self.field.characteristic
        acc = dict(v) if p else _integral(v)
        for row, c in zip(self._clearing_rows, self._pivots):
            if c in acc:
                _clear(acc, row, c, p)
        return not acc

    @cached_property
    def _clearing_rows(self) -> tuple:
        """The basis rows in the form ``_clear`` takes: over Q, primitive
        integer rows."""
        if self.field.characteristic:
            return self.sparse_basis
        return tuple(map(_integral, self.sparse_basis))

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # subspaces key the quotient caches of a covering: hash once each
        return hash((self.ambient_dim, self.basis))


def kernel_basis(m: Matrix) -> Subspace:
    """Null space of m as a subspace of the domain k^cols."""
    f = m.field
    one, neg = f.one, f.neg
    rows, pivots = _eliminate(f, _q_rows(f, m.nonzeros), reduce=True)
    return Subspace.from_sparse(f, m.cols, _free_axes(m.cols, rows, pivots, one, neg))


def _free_axes(n: int, rows: list, pivots: Sequence[int], one, neg) -> list:
    """For RREF rows with these pivots, one vector per non-pivot column fc:
    1 at fc and -row[fc] at each row's pivot, as {column: value} dicts."""
    pivot_set = set(pivots)
    out, index = [], {}
    for fc in range(n):
        if fc not in pivot_set:
            index[fc] = len(out)
            out.append({fc: one})
    for row, pc in zip(rows, pivots):
        for c, x in row.items():
            t = index.get(c)
            if t is not None:
                out[t][pc] = neg(x)
    return out


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return Subspace.from_sparse(u.field, u.ambient_dim, u.sparse_basis + v.sparse_basis)


def _check_ambient(u: Subspace, v: Subspace):
    same_field(u.field, v.field)
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(
            f"ambient mismatch: {u.ambient_dim} vs {v.ambient_dim}")


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient_map(ambient_dim: int, w: Subspace) -> Matrix:
    """Surjective map q: k^n -> k^(n - dim w) with kernel exactly w.

    Deterministic convention: codomain coordinates are the non-pivot columns
    of w's RREF basis; q(v) reads those coordinates after reducing v modulo w.
    """
    if w.ambient_dim != ambient_dim:
        raise DimensionMismatchError("subspace/ambient mismatch")
    f = w.field
    rows = _free_axes(ambient_dim, w.sparse_basis, w.pivot_columns(), f.one, f.neg)
    return Matrix.from_nonzeros(f, len(rows), ambient_dim, tuple(rows))


def section_columns(m: Matrix, w: Subspace) -> Matrix:
    """m . s for the section s of ``quotient_map(m.cols, w)``, which sends
    unit t to the t-th non-pivot axis of w: the non-pivot columns of m,
    selected, not multiplied."""
    if not w.dim:  # the section of k^n -> k^n / 0 is the identity
        return m
    pivots = set(w.pivot_columns())
    free = {c: t for t, c in enumerate(c for c in range(m.cols) if c not in pivots)}
    return Matrix.from_nonzeros(m.field, m.rows, len(free), tuple(
        {free[c]: x for c, x in row.items() if c in free} for row in m.nonzeros))
