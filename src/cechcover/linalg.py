"""Exact linear algebra over Q and prime fields.

Everything here is exact: rationals are arbitrary-precision
``fractions.Fraction`` values, prime-field elements are canonical int
representatives in ``[0, p)``.  Matrices are stored dense and immutable;
subspaces are stored by their reduced row-echelon basis, which makes RREF
equality the canonical equality test and makes every derived choice
(quotient coordinates, sections) deterministic.

Elimination and products work on the nonzeros only and are specialised by
field: row reduction holds each row as a ``{column: value}`` dict, and the
inner loops use plain ``Fraction`` arithmetic over Q and plain int
arithmetic with one reduction mod p per result entry over F_p, with no
``Field`` method call per entry.  Truthiness is a valid zero test because
every entry over Q is a ``Fraction`` and every entry over F_p is a
canonical int, so zero is ``Fraction(0)`` or ``0``.

Each matrix also carries its row supports (``Matrix.support``: the columns
of each row's nonzeros).  Products, Kronecker products, sums, negation and
block assembly build the support of their result along with its entries,
and read the supports of their operands, so a chain of operations touches
nonzeros only; a matrix built from dense rows finds its support by one scan
on first use.  Over Q that scan skips entries that are the shared
``QQ.zero`` object by an identity test, which costs no
``Fraction.__bool__`` call, and the operations above write ``QQ.zero``
into every zero they produce.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import is_not
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, FieldMismatchError
from .records import Frozen


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class Field:
    """Field descriptor; scalar values are plain Python objects it governs.

    ``characteristic`` is 0 for Q and p for F_p; the elimination kernels
    branch on it once per call.
    """

    characteristic = 0

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def describe(self):
        raise NotImplementedError


_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


class RationalField(Field):
    """The rationals, backed by arbitrary-precision Fraction."""

    def coerce(self, x):
        return x if isinstance(x, Fraction) else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def neg(self, a):
        return -a

    @property
    def zero(self):
        return _Q_ZERO

    @property
    def one(self):
        return _Q_ONE

    def describe(self):
        return "Q"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """F_p for a prime p < 2^31; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or p >= 2 ** 31:
            raise ValueError(f"prime field order out of range: {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def coerce(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return (a * pow(b, -1, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def describe(self):
        return f"F_{self.p}"

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


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
    """Dense immutable matrix; entries[r][c], all over one field."""

    _fields = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        d = self.__dict__
        d["field"] = field
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise DimensionMismatchError("ragged rows")
        return Matrix(field, len(data), ncols, data)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        blank = (field.zero,) * cols
        return _with_support(Matrix(field, rows, cols, (blank,) * rows), ((),) * rows)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return _with_support(
            Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n))
                                      for i in range(n))),
            tuple((i,) for i in range(n)))

    @cached_property
    def support(self) -> tuple:
        """Per row, the columns of its nonzero entries."""
        inner = range(self.cols)
        if self.field.characteristic:
            return tuple(tuple(compress(inner, row)) for row in self.entries)
        # skip the shared zero by identity, then test what is left
        shared = repeat(self.field.zero)
        return tuple(tuple(c for c in compress(inner, map(is_not, row, shared)) if row[c])
                     for row in self.entries)

    @staticmethod
    def from_columns(field: Field, cols: Sequence[Sequence]) -> "Matrix":
        return Matrix.from_rows(field, cols).transpose()

    def row(self, r: int) -> tuple:
        return self.entries[r]

    def column(self, c: int) -> tuple:
        return tuple(self.entries[r][c] for r in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(tuple(self.entries[r][c] for r in range(self.rows)) for c in range(self.cols)))

    def is_zero(self) -> bool:
        # tuple equality tries identity before ==, so shared zeros compare in C
        blank = (self.field.zero,) * self.cols
        return all(row == blank for row in self.entries)

    def add(self, other: "Matrix") -> "Matrix":
        return self._combine(other, subtract=False)

    def sub(self, other: "Matrix") -> "Matrix":
        return self._combine(other, subtract=True)

    def _combine(self, other: "Matrix", subtract: bool) -> "Matrix":
        """self + other or self - other, visiting other's nonzeros only."""
        self._check_shape(other, same=True)
        p = self.field.characteristic
        zero = self.field.zero
        out, support = [], []
        for ra, rb, sa, sb in zip(self.entries, other.entries, self.support, other.support):
            if not sb:
                out.append(ra)
                support.append(sa)
                continue
            row = list(ra)
            cols = dict.fromkeys(sa)  # ordered set of the nonzero columns
            for c in sb:
                x = ra[c] - rb[c] if subtract else ra[c] + rb[c]
                if p:
                    x %= p
                if x:
                    row[c] = x
                    cols[c] = None
                else:
                    row[c] = zero
                    del cols[c]
            out.append(tuple(row))
            support.append(tuple(cols))
        return _with_support(Matrix(self.field, self.rows, self.cols, tuple(out)),
                             tuple(support))

    def neg(self) -> "Matrix":
        p = self.field.characteristic
        out = []
        for ra, sa in zip(self.entries, self.support):
            row = list(ra)
            for c in sa:
                row[c] = p - ra[c] if p else -ra[c]
            out.append(tuple(row))
        return _with_support(Matrix(self.field, self.rows, self.cols, tuple(out)),
                             self.support)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        p = self.field.characteristic
        if p:
            rows = tuple(tuple(c * a % p if a else a for a in row) for row in self.entries)
        else:
            rows = tuple(tuple(c * a if a else a for a in row) for row in self.entries)
        return Matrix(self.field, self.rows, self.cols, rows)

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product over the nonzeros of both factors."""
        same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        b_entries, b_support = other.entries, other.support
        return _product(self, other.cols,
                        lambda k: [(c, b_entries[k][c]) for c in b_support[k]])

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise DimensionMismatchError(f"vector length {len(vector)} != cols {self.cols}")
        f = self.field
        p = f.characteristic
        zero = f.zero
        support = [(c, v) for c, v in enumerate(vector) if v]
        out = []
        for row in self.entries:
            s = 0
            for c, v in support:
                a = row[c]
                if a:
                    s += a * v
            out.append(s % p if p else (s if s else zero))
        return tuple(out)

    def hstack(self, other: "Matrix") -> "Matrix":
        same_field(self.field, other.field)
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack row mismatch")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      tuple(ra + rb for ra, rb in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        same_field(self.field, other.field)
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack col mismatch")
        return Matrix(self.field, self.rows + other.rows, self.cols,
                      self.entries + other.entries)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; index order (i*other.rows + k, j*other.cols + l)."""
        same_field(self.field, other.field)
        f = self.field
        p = f.characteristic
        width = other.cols
        blank = [f.zero] * (self.cols * width)
        out, support = [], []
        for arow, acols in zip(self.entries, self.support):
            for brow, bcols in zip(other.entries, other.support):
                row = blank.copy()
                nonzero = []
                for j in acols:  # a product of nonzeros is nonzero in a field
                    a, base = arow[j], j * width
                    for l in bcols:
                        row[base + l] = a * brow[l] % p if p else a * brow[l]
                        nonzero.append(base + l)
                out.append(tuple(row))
                support.append(tuple(nonzero))
        return _with_support(Matrix(f, self.rows * other.rows, self.cols * width, tuple(out)),
                             tuple(support))

    def _check_shape(self, other: "Matrix", same: bool = False):
        same_field(self.field, other.field)
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def to_lists(self):
        return [list(row) for row in self.entries]


def block_matrix(field: Field, row_dims: Sequence[int], col_dims: Sequence[int],
                 blocks: dict) -> Matrix:
    """Assemble a matrix from a sparse dict {(block_row, block_col): Matrix}."""
    row_off = _offsets(row_dims)
    col_off = _offsets(col_dims)
    total_r, total_c = sum(row_dims), sum(col_dims)
    grid = [[field.zero] * total_c for _ in range(total_r)]
    support = [[] for _ in range(total_r)]
    for (br, bc), m in blocks.items():
        if m.rows != row_dims[br] or m.cols != col_dims[bc]:
            raise DimensionMismatchError(f"block ({br},{bc}) has shape {m.rows}x{m.cols}")
        r0, c0 = row_off[br], col_off[bc]
        for r in range(m.rows):
            row = m.entries[r]
            grid[r0 + r][c0:c0 + m.cols] = list(row)
            support[r0 + r].extend(c0 + c for c in m.support[r])
    return _with_support(Matrix(field, total_r, total_c, tuple(tuple(r) for r in grid)),
                         tuple(tuple(s) for s in support))


def mul_kron_identity(a: Matrix, x: Matrix, n: int) -> Matrix:
    """a . (x kron I_n), without forming the Kronecker product.

    Row i*n + s of x kron I_n has the entries of row i of x at columns
    j*n + s.
    """
    same_field(a.field, x.field)
    if a.cols != x.rows * n:
        raise DimensionMismatchError(
            f"cannot multiply {a.rows}x{a.cols} by ({x.rows}x{x.cols}) kron I_{n}")
    x_entries, x_support = x.entries, x.support

    def right_row(k):
        i, s = divmod(k, n)
        return [(j * n + s, x_entries[i][j]) for j in x_support[i]]

    return _product(a, x.cols * n, right_row)


def _product(a: Matrix, ncols: int, right_row) -> Matrix:
    """a times the ncols-column matrix whose row k has the nonzeros
    ``right_row(k)``, as (column, value) pairs; each row is asked for once."""
    f = a.field
    p = f.characteristic
    blank = [f.zero] * ncols
    right: dict = {}
    out, support = [], []
    for row, cols in zip(a.entries, a.support):
        acc: dict = {}
        for k in cols:
            av = row[k]
            pairs = right.get(k)
            if pairs is None:
                pairs = right[k] = right_row(k)
            if p:
                for c, b in pairs:
                    acc[c] = acc.get(c, 0) + av * b
            else:
                for c, b in pairs:
                    y = acc.get(c)
                    acc[c] = av * b if y is None else y + av * b
        new = blank.copy()
        nonzero = []
        for c, y in acc.items():
            if p:
                y %= p
            if y:
                new[c] = y
                nonzero.append(c)
        out.append(tuple(new))
        support.append(tuple(nonzero))
    return _with_support(Matrix(f, a.rows, ncols, tuple(out)), tuple(support))


def _with_support(m: Matrix, support: tuple) -> Matrix:
    """m with its row supports (``Matrix.support``) already known."""
    m.__dict__["support"] = support
    return m


def _offsets(dims: Sequence[int]):
    out, acc = [], 0
    for d in dims:
        out.append(acc)
        acc += d
    return out


# ---------------------------------------------------------------------------
# Row reduction and derived operations
# ---------------------------------------------------------------------------

def _sparse_rows(rows: Iterable[Sequence]) -> list:
    """Dense rows as ``{column: value}`` dicts of their nonzeros."""
    return [{c: row[c] for c in compress(range(len(row)), row)} for row in rows]


def _matrix_rows(m: Matrix) -> list:
    """The rows of m as ``{column: value}`` dicts of their nonzeros."""
    return [{c: row[c] for c in cols} for row, cols in zip(m.entries, m.support)]


def _dense_row(field: Field, row: dict, ncols: int) -> tuple:
    out = [field.zero] * ncols
    for c, x in row.items():
        out[c] = x
    return tuple(out)


def _eliminate(field: Field, rows: list, reduce: bool) -> tuple[list, list]:
    """Row echelon form of sparse rows; returns (pivot_rows, pivot_columns).

    ``rows`` are ``{column: nonzero}`` dicts and are consumed.  Columns are
    taken in increasing order.  Every remaining row is zero left of the
    current column, so the rows nonzero there are exactly the ones whose
    leading entry lies there: the sparsest of them, scaled to 1, is the
    pivot, and the column is cleared from the others.  With ``reduce`` the
    pivot rows are then cleared above each pivot, which gives the unique
    reduced row-echelon form whatever pivot rows were chosen.
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
        if pv != 1:
            if p:
                inv = pow(pv, -1, p)
                prow = {j: x * inv % p for j, x in prow.items()}
            else:
                prow = {j: x / pv for j, x in prow.items()}
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
    return pivot_rows, pivots


def _clear(row: dict, prow: dict, c: int, p: int) -> None:
    """row -= row[c] * prow in place, where prow[c] == 1 (mod p when p > 0)."""
    f = row[c]
    if p:
        f = p - f
        for j, x in prow.items():
            y = (row.get(j, 0) + f * x) % p
            if y:
                row[j] = y
            else:
                del row[j]
    else:
        for j, x in prow.items():
            y = row.get(j)
            if y is None:
                row[j] = -f * x
            else:
                y -= f * x
                if y:
                    row[j] = y
                else:
                    del row[j]


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank (= number of nonzero rows)."""
    rows, _ = _eliminate(m.field, _matrix_rows(m), reduce=True)
    dense = [_dense_row(m.field, row, m.cols) for row in rows]
    dense.extend(Matrix.zero(m.field, m.rows - len(rows), m.cols).entries)
    return Matrix(m.field, m.rows, m.cols, tuple(dense)), len(rows)


def rank(m: Matrix) -> int:
    _, pivots = _eliminate(m.field, _matrix_rows(m), reduce=False)
    return len(pivots)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

class Subspace(Frozen):
    """Subspace of k^ambient_dim by its RREF basis (rows = basis vectors).

    The RREF basis is the canonical representative: two subspaces are equal
    iff their basis matrices are identical.
    """

    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        d = self.__dict__
        d["ambient_dim"] = ambient_dim
        d["basis"] = basis  # RREF, no zero rows

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        coerce, zero = field.coerce, field.zero
        vecs = [[coerce(x) if x else zero for x in v] for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(f"vector length {len(v)} != ambient {ambient_dim}")
        return Subspace.from_sparse(field, ambient_dim, _sparse_rows(vecs))

    @staticmethod
    def from_sparse(field: Field, ambient_dim: int, rows: list) -> "Subspace":
        """Span of vectors given as ``{column: value}`` dicts of canonical
        nonzero entries; the dicts are consumed."""
        rows, _ = _eliminate(field, rows, reduce=True)
        keep = tuple(_dense_row(field, row, ambient_dim) for row in rows)
        return Subspace(ambient_dim, Matrix(field, len(keep), ambient_dim, keep))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(field, 0, ambient_dim, ()))

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(field, ambient_dim))

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
        return tuple(_matrix_rows(self.basis))

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        return tuple(next(iter(row)) for row in self.sparse_basis)

    def pivot_columns(self) -> tuple[int, ...]:
        return self._pivots

    def contains(self, vector: Sequence) -> bool:
        """Membership by reducing against the RREF basis."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatchError("vector/ambient mismatch")
        coerce = self.field.coerce
        return self.contains_sparse({c: y for c, x in enumerate(vector) if x and (y := coerce(x))})

    def contains_sparse(self, v: dict) -> bool:
        """Membership of the vector whose nonzeros are ``v`` ({column: value},
        canonical entries).

        Each basis row is zero at the other rows' pivots, so clearing v at
        every pivot leaves zero exactly when v lies in the span.
        """
        p = self.field.characteristic
        acc = dict(v)
        for row, c in zip(self.sparse_basis, self._pivots):
            if c in acc:
                _clear(acc, row, c, p)
        return not acc

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.entries)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # subspaces key the quotient caches of a covering; hashing the
        # basis entries (Fraction hashes over Q) once per subspace is enough
        return hash((self.ambient_dim, self.basis.entries))


def kernel_basis(m: Matrix) -> Subspace:
    """Null space of m as a subspace of the domain k^cols."""
    f = m.field
    zero, one, neg = f.zero, f.one, f.neg
    rows, pivots = _eliminate(f, _matrix_rows(m), reduce=True)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for row, pc in zip(rows, pivots):
            x = row.get(fc)
            if x:
                v[pc] = neg(x)
        basis.append(v)
    return Subspace.from_vectors(f, m.cols, basis)


def image_basis(m: Matrix) -> Subspace:
    """Column space of m as a subspace of the codomain k^rows."""
    return Subspace.from_vectors(m.field, m.rows, [m.column(c) for c in range(m.cols)])


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return Subspace.from_vectors(u.field, u.ambient_dim,
                                 list(u.basis.entries) + list(v.basis.entries))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: RREF of [[U,U],[V,0]]; zero-left rows give the intersection."""
    _check_ambient(u, v)
    f = u.field
    n = u.ambient_dim
    rows = []
    for r in _matrix_rows(u.basis):
        r.update({c + n: x for c, x in r.items()})
        rows.append(r)
    rows.extend(_matrix_rows(v.basis))
    reduced, pivots = _eliminate(f, rows, reduce=True)
    out = [_dense_row(f, {c - n: x for c, x in row.items()}, n)
           for row, pc in zip(reduced, pivots) if pc >= n]
    return Subspace.from_vectors(f, n, out)


def intersect_many(spaces: Sequence[Subspace]) -> Subspace:
    if not spaces:
        raise ValueError("need at least one subspace")
    acc = spaces[0]
    for s in spaces[1:]:
        acc = subspace_intersect(acc, s)
    return acc


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
    zero, one, neg = f.zero, f.one, f.neg
    pivots = w.pivot_columns()
    pivot_set = set(pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    rows = []
    for fc in free:
        row = [zero] * ambient_dim
        row[fc] = one
        for r, pc in enumerate(pivots):
            row[pc] = neg(w.basis.entries[r][fc])
        rows.append(tuple(row))
    return Matrix(f, len(free), ambient_dim, tuple(rows))


def quotient_section(ambient_dim: int, w: Subspace) -> Matrix:
    """Section s of quotient_map: s sends unit t to the t-th non-pivot axis."""
    if w.ambient_dim != ambient_dim:
        raise DimensionMismatchError("subspace/ambient mismatch")
    f = w.field
    zero, one = f.zero, f.one
    pivot_set = set(w.pivot_columns())
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    rows = []
    for r in range(ambient_dim):
        row = [zero] * len(free)
        if r in free:
            row[free.index(r)] = one
        rows.append(tuple(row))
    return Matrix(f, ambient_dim, len(free), tuple(rows))
