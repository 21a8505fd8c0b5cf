"""Literal-definition oracles: the test suite's second route to each result.

No command imports this module; the command-line tool computes from the
closed forms in ``amitsur`` and ``cech``.  Each oracle builds an object
from its definition, and the tests compare the two:

- ``TensorTower`` builds T_n = B^((x)_A n) literally.  The raw coordinate
  space of T_(n+1) = T_n (x)_A B is k^(dim T_n * dim B) and T_(n+1) is its
  quotient by the balancing relations (t.a)(x)y - t(x)(a.y), computed block
  pair by block pair (``tensor_over_A``).  In check mode every structure
  map between quotient spaces is verified against its raw full-tensor
  counterpart through the flattening maps, which proves the map well
  defined on the balancing relations.  tests/test_closed_form.py compares
  ``build_amitsur``'s degree dims, ranks and homology with the tower's;
  tests/test_amitsur.py checks the bimodule axioms, the block formula
  dim B (x)_A B = sum dim A/(I_i + I_j) and the structure maps;
  acceptance criteria 5 and 6 use the tower and ``tensor_over_A``.
- ``build_coring`` is the Sweedler coring of A -> (+)A_i on balanced
  coordinates, with its counit and coassociativity laws asserted
  (tests/test_amitsur.py).
- ``phi_on_pure``, ``phi``, ``phi_sum`` and ``phi_raw_matrix`` evaluate the
  comparison map phi on pure tensors, as its definition reads, and
  ``phi_matrix`` carries it to balanced coordinates.  tests/test_cech.py
  checks phi's values and that it kills the balancing relations;
  tests/test_closed_form.py compares ``verify_chain_map``'s block-by-block
  phi with the raw route; acceptance criterion 3 uses ``phi_sum``.
- ``quotient`` builds A/J as an algebra, and ``quotient_of``, ``patch``
  and ``ring`` the quotient algebras of a covering, once per covering: no
  command builds one.  ``lattice_functor`` is a covering's default ringed
  functor with every quotient algebra built and every projection
  hom-checked; tests compare its complex with ``Covering.cech``, which
  reads only dims and matrices.  ``default_phi_choice`` is the identity
  homs A_i -> R({i}) that the phi evaluators apply to patch elements;
  tests hold ``cech.patch_maps`` to it.
  ``functor_from_ringed_covering`` builds the functor of a supplied
  ``RingedStructure`` and checks its naturality squares.
- ``random_algebra``, ``random_covering``, ``search_incomplete_covering``
  and ``random_cover_description`` draw seeded random instances for the
  property suites: tests/test_acceptance.py (criteria 4 and 5),
  tests/test_assembler_reference.py, tests/test_algebra_reference.py,
  tests/test_amitsur.py, tests/test_cech.py, tests/test_closed_form.py,
  tests/test_coverings.py and tests/test_nerve.py.
- The first sections hold what only these oracles and the tests run:
  scalar, matrix and subspace operations (``scalar_mul``, ``transpose``,
  ``kron``, ``block_matrix``, ``rref``, ``contains``, ``quotient_section``,
  ...), algebra elements and products (``Element``, ``multiply``, ``mul_table``),
  ``ideal_sum``, ``hom_compose``, the dense-table constructor
  ``make_algebra``, the stock algebras
  (``split_commutative``, ``matrix_algebra``, ``upper_triangular``,
  ``truncated_polynomial``, ``square_zero``, ``direct_sum``) and helpers
  such as subspace intersections and multiplication matrices.  No
  command compiles them.
"""

from __future__ import annotations

import random
import weakref
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .algebras import (
    Algebra, AlgebraHom, Ideal, _columns, _combine, algebra_from_terms, ideal_closure,
    zero_algebra,
)
from .cech import PosetFunctor, all_tuples, one_step_inclusions
from .complexes import WordSpace
from .coverings import Covering, completeness_check
from .errors import DEFAULT_DIM_CAP, DimensionCapError, DimensionMismatchError, StructureError
from .linalg import (
    QQ, Field, Matrix, Subspace, _check_ambient, _dense_row, _eliminate, _product, _q_rows,
    quotient_map, same_field, subspace_sum,
)
from .nerve import CoverDescription
from .records import Frozen


# ---------------------------------------------------------------------------
# Scalars, matrices and subspaces: the operations no command runs
# ---------------------------------------------------------------------------

def scalar_sub(field: Field, a, b):
    """a - b for canonical field values."""
    p = field.characteristic
    return (a - b) % p if p else a - b


def scalar_mul(field: Field, a, b):
    """a * b for canonical field values."""
    p = field.characteristic
    return a * b % p if p else a * b


def scalar_div(field: Field, a, b):
    """a / b for canonical field values; ZeroDivisionError when b is zero."""
    p = field.characteristic
    if p:
        if b % p == 0:
            raise ZeroDivisionError(f"division by zero in F_{p}")
        return a * pow(b, -1, p) % p
    if b == 0:
        raise ZeroDivisionError("division by zero in Q")
    return field.coerce(Fraction(a, b))


def from_rows(field: Field, rows: Sequence[Sequence]) -> Matrix:
    """The matrix with these dense rows, each value coerced into the field."""
    data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
    ncols = len(data[0]) if data else 0
    for row in data:
        if len(row) != ncols:
            raise DimensionMismatchError("ragged rows")
    return Matrix(field, len(data), ncols, data)


def support(m: Matrix) -> tuple:
    """Per row of m, the columns of its nonzero entries, in increasing order."""
    return tuple(tuple(sorted(row)) for row in m.nonzeros)


def column(m: Matrix, c: int) -> tuple:
    """Column c of m, dense."""
    zero = m.field.zero
    return tuple(row.get(c, zero) for row in m.nonzeros)


def block_matrix(field: Field, row_dims: Sequence[int], col_dims: Sequence[int],
                 blocks: dict) -> Matrix:
    """Assemble a matrix from a sparse dict {(block_row, block_col): Matrix}:
    the stacker that tests hold ``complexes.assemble`` to."""
    row_off = _offsets(row_dims)
    col_off = _offsets(col_dims)
    out = tuple({} for _ in range(sum(row_dims)))
    for (br, bc), m in blocks.items():
        if m.rows != row_dims[br] or m.cols != col_dims[bc]:
            raise DimensionMismatchError(f"block ({br},{bc}) has shape {m.rows}x{m.cols}")
        c0 = col_off[bc]
        for r, row in enumerate(m.nonzeros, row_off[br]):
            if row:
                out[r].update({c0 + c: x for c, x in row.items()} if c0 else row)
    return Matrix.from_nonzeros(field, len(out), sum(col_dims), out)


def _offsets(dims: Sequence[int]):
    out, acc = [], 0
    for d in dims:
        out.append(acc)
        acc += d
    return out


def transpose(m: Matrix) -> Matrix:
    out = tuple({} for _ in range(m.cols))
    for r, row in enumerate(m.nonzeros):
        for c, x in row.items():
            out[c][r] = x
    return Matrix.from_nonzeros(m.field, m.cols, m.rows, out)


def matrix_add(a: Matrix, b: Matrix) -> Matrix:
    return _matrix_combine(a, b, subtract=False)


def matrix_sub(a: Matrix, b: Matrix) -> Matrix:
    return _matrix_combine(a, b, subtract=True)


def _matrix_combine(a: Matrix, b: Matrix, subtract: bool) -> Matrix:
    """a + b or a - b, visiting b's nonzeros only."""
    same_field(a.field, b.field)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatchError(
            f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    p = a.field.characteristic
    out = []
    for ra, rb in zip(a.nonzeros, b.nonzeros):
        if not rb:
            out.append(ra)
            continue
        row = dict(ra)
        for c, y in rb.items():
            x = row.get(c, 0) - y if subtract else row.get(c, 0) + y
            if p:
                x %= p
            if x:
                row[c] = x
            else:
                del row[c]
        out.append(row)
    return Matrix.from_nonzeros(a.field, a.rows, a.cols, tuple(out))


def scale(m: Matrix, c) -> Matrix:
    """c times m, for c any value the field coerces."""
    c = m.field.coerce(c)
    if not c:
        return Matrix.zero(m.field, m.rows, m.cols)
    p = m.field.characteristic
    if p:
        out = tuple({k: c * x % p for k, x in row.items()} for row in m.nonzeros)
    else:
        out = tuple({k: c * x for k, x in row.items()} for row in m.nonzeros)
    return Matrix.from_nonzeros(m.field, m.rows, m.cols, out)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    same_field(a.field, b.field)
    if a.cols != b.cols:
        raise DimensionMismatchError("vstack col mismatch")
    return Matrix.from_nonzeros(a.field, a.rows + b.rows, a.cols, a.nonzeros + b.nonzeros)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index order (i*b.rows + k, j*b.cols + l)."""
    same_field(a.field, b.field)
    p = a.field.characteristic
    width = b.cols
    out = []
    for arow in a.nonzeros:
        shifted = [(j * width, x) for j, x in arow.items()]
        for brow in b.nonzeros:  # a product of nonzeros is nonzero in a field
            if p:
                out.append({base + l: x * y % p for base, x in shifted
                            for l, y in brow.items()})
            else:
                out.append({base + l: x * y for base, x in shifted
                            for l, y in brow.items()})
    return Matrix.from_nonzeros(a.field, a.rows * b.rows, a.cols * width, tuple(out))


def to_lists(m: Matrix) -> list:
    return [list(row) for row in m.entries]


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank (= number of nonzero rows)."""
    rows, _ = _eliminate(m.field, _q_rows(m.field, m.nonzeros), reduce=True)
    r = len(rows)
    rows.extend({} for _ in range(m.rows - r))
    return Matrix.from_nonzeros(m.field, m.rows, m.cols, tuple(rows)), r


def full_space(field: Field, ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, Matrix.identity(field, ambient_dim))


def contains(s: Subspace, vector: Sequence) -> bool:
    """Membership of a dense vector, by reducing against the RREF basis."""
    if len(vector) != s.ambient_dim:
        raise DimensionMismatchError("vector/ambient mismatch")
    coerce = s.field.coerce
    return s.contains_sparse({c: y for c, x in enumerate(vector) if x and (y := coerce(x))})


def contains_subspace(s: Subspace, other: Subspace) -> bool:
    return all(s.contains_sparse(row) for row in other.sparse_basis)


def quotient_section(ambient_dim: int, w: Subspace) -> Matrix:
    """Section s of quotient_map: s sends unit t to the t-th non-pivot axis."""
    if w.ambient_dim != ambient_dim:
        raise DimensionMismatchError("subspace/ambient mismatch")
    free = [r for r in range(ambient_dim) if r not in w.pivot_columns()]
    return Matrix(w.field, ambient_dim, len(free),
                  [[w.field.one if r == c else 0 for c in free] for r in range(ambient_dim)])


# ---------------------------------------------------------------------------
# Elements, products, sums of ideals and composites of homs
# ---------------------------------------------------------------------------

def multiply(a: Algebra, x: Sequence, y: Sequence) -> tuple:
    """Product of coordinate vectors via the structure constants."""
    terms = a.terms
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    pairs = ((xi * yj, terms[i][j]) for i, xi in enumerate(x) if xi for j, yj in ys)
    return _dense_row(a.field, _combine(pairs, a.field.characteristic), a.dim)


def basis_coords(a: Algebra, i: int) -> tuple:
    return _dense_row(a.field, {i: a.field.one}, a.dim)


def mul_table(a: Algebra) -> tuple:
    """Dense view of the structure constants: mul_table(a)[i][j] = coords of b_i * b_j."""
    return tuple(tuple(_dense_row(a.field, dict(t), a.dim) for t in row) for row in a.terms)


class Element(Frozen):
    _fields = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: tuple):
        if len(coords) != algebra.dim:
            raise DimensionMismatchError(
                f"element has {len(coords)} coordinates in a dim-{algebra.dim} algebra")
        super().__init__(algebra, coords)

    def _check_same_algebra(self, other: "Element") -> None:
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise DimensionMismatchError("elements of different algebras")

    def __mul__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        return Element(self.algebra, multiply(self.algebra, self.coords, other.coords))

    def __add__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        add = self.algebra.field.add
        return Element(self.algebra, tuple(add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        f = self.algebra.field
        return Element(self.algebra,
                       tuple(scalar_sub(f, a, b) for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        z = self.algebra.field.zero
        return all(x == z for x in self.coords)


def element(a: Algebra, coords: Sequence) -> Element:
    return Element(a, tuple(a.field.coerce(x) for x in coords))


def ideal_sum(i1: Ideal, i2: Ideal) -> Ideal:
    if i1.algebra != i2.algebra:
        raise DimensionMismatchError("ideals of different algebras")
    return Ideal._proven(i1.algebra, subspace_sum(i1.space, i2.space))


def hom_compose(f: AlgebraHom, g: AlgebraHom) -> AlgebraHom:
    """f after g; re-validated at construction."""
    if g.codomain != f.domain:
        raise DimensionMismatchError("hom domains do not line up for composition")
    return AlgebraHom(g.domain, f.codomain, f.matrix.mul(g.matrix))


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


# ---------------------------------------------------------------------------
# Stock algebras (tests, random instances)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Helpers no command runs
# ---------------------------------------------------------------------------

def mul_kron_identity(a: Matrix, x: Matrix, n: int) -> Matrix:
    """a . (x kron I_n), without forming the Kronecker product.

    Row i*n + s of x kron I_n has the entries of row i of x at columns
    j*n + s.
    """
    same_field(a.field, x.field)
    if a.cols != x.rows * n:
        raise DimensionMismatchError(
            f"cannot multiply {a.rows}x{a.cols} by ({x.rows}x{x.cols}) kron I_{n}")
    x_rows = x.nonzeros

    def right_row(k):
        i, s = divmod(k, n)
        return [(j * n + s, v) for j, v in x_rows[i].items()]

    return _product(a.field, a.nonzeros, x.cols * n, right_row)


def image_basis(m: Matrix) -> Subspace:
    """Column space of m as a subspace of the codomain k^rows."""
    return Subspace.from_sparse(m.field, m.rows, transpose(m).nonzeros)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: RREF of [[U,U],[V,0]]; zero-left rows give the intersection."""
    _check_ambient(u, v)
    n = u.ambient_dim
    rows = []
    for r in u.sparse_basis:
        r = dict(r)
        r.update({c + n: x for c, x in r.items()})
        rows.append(r)
    rows.extend(v.sparse_basis)
    reduced, pivots = _eliminate(u.field, _q_rows(u.field, rows), reduce=True)
    out = [{c - n: x for c, x in row.items()}
           for row, pc in zip(reduced, pivots) if pc >= n]
    return Subspace.from_sparse(u.field, n, out)


def left_mult_matrix(a: Algebra, x: Sequence) -> Matrix:
    """Matrix of v -> x*v on coordinates."""
    cols = [multiply(a, x, basis_coords(a, j)) for j in range(a.dim)]
    return transpose(from_rows(a.field, cols))


def right_mult_matrix(a: Algebra, x: Sequence) -> Matrix:
    """Matrix of v -> v*x on coordinates."""
    cols = [multiply(a, basis_coords(a, j), x) for j in range(a.dim)]
    return transpose(from_rows(a.field, cols))


def ideal_intersection(ideals: Sequence[Ideal]) -> Subspace:
    if not ideals:
        raise ValueError("need at least one ideal")
    a = ideals[0].algebra
    for i in ideals[1:]:
        if i.algebra != a:
            raise DimensionMismatchError("ideals of different algebras")
    return reduce(subspace_intersect, [i.space for i in ideals])


# the quotient algebras of each covering by ideal space, kept here because no
# command builds one; weak keys drop them with their covering.  Equal ideal
# sums are one object (``Covering.ideal_sum_space``) and share one algebra
_QUOTIENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def quotient_of(c: Covering, j: Subspace) -> tuple[Algebra, AlgebraHom]:
    """A/J with its projection A -> A/J, built once per covering c, on the
    covering's quotient map of J.  A sum of two-sided ideals is two-sided,
    so an ideal sum of c is not checked again; any other subspace is."""
    built = _QUOTIENTS.setdefault(c, {})
    q = built.get(j)
    if q is None:
        ideal = (Ideal._proven(c.algebra, j) if j in c._interned else Ideal(c.algebra, j))
        q = built[j] = quotient(c.algebra, ideal, q=c._quotient_map(j))
    return q


def patch(c: Covering, i: int) -> tuple[Algebra, AlgebraHom]:
    """(A_i, pi_i): the patch algebra A/I_i and its projection."""
    return quotient_of(c, c.ideals[i - 1].space)


def ring(c: Covering, zeta: Sequence[int]) -> Algebra:
    """A/I_zeta, the covering's ring on the index tuple zeta."""
    return quotient_of(c, c.ideal_sum_space(tuple(zeta)))[0]


def default_phi_choice(f, c: Covering) -> tuple:
    """Identity homs A_i -> R({i}), which ``AlgebraHom`` checks (default
    ringed data): the patch homs the phi evaluators apply to patch
    elements.  ``f`` is a functor or the covering itself, whose R({i}) is
    A_i.  ``cech.patch_maps`` checks the same maps on A -> R({i})."""
    if f.n_patches != c.n_patches:
        raise DimensionMismatchError(
            f"no default choice: the functor has {f.n_patches} patches, the covering {c.n_patches}")
    patches = (patch(c, i)[0] for i in range(1, c.n_patches + 1))
    return tuple(AlgebraHom(a_i, a_i if f is c else f.ring((i,)),
                            Matrix.identity(a_i.field, a_i.dim))
                 for i, a_i in enumerate(patches, start=1))


def b_algebra(c: Covering) -> Algebra:
    """The patch sum (+)A_i as an algebra with componentwise product."""
    acc = patch(c, 1)[0]
    for i in range(2, c.n_patches + 1):
        acc = direct_sum(acc, patch(c, i)[0])
    return acc if acc.dim else zero_algebra(c.field)


def unit_component(c: Covering, i: int) -> tuple:
    """Coordinates of pi_i(1) inside (+)A_i."""
    dims = c.patch_dims()
    out = [c.field.zero] * sum(dims)
    off = sum(dims[:i - 1])
    for k, x in enumerate(patch(c, i)[0].unit):
        out[off + k] = x
    return tuple(out)


def projection_hom(c: Covering, j1: Subspace, j2: Subspace) -> AlgebraHom:
    """``Covering.projection`` A/J1 -> A/J2 as an algebra hom between the
    quotient algebras, checked as one."""
    return AlgebraHom(quotient_of(c, j1)[0], quotient_of(c, j2)[0], c.projection(j1, j2))


def lattice_functor(c: Covering) -> PosetFunctor:
    """The covering's default ringed functor built as algebras: A/I_zeta on
    every index tuple, each one-step projection checked as a hom, and the
    functor validated.  ``Covering.cech`` builds the same complex from
    dims and projection matrices alone."""
    n = c.n_patches
    sums = {zeta: c.ideal_sum_space(zeta)
            for length in range(n + 1) for zeta in all_tuples(n, length)}
    rings = {zeta: quotient_of(c, j)[0] for zeta, j in sums.items()}
    steps = {(zeta, eta): projection_hom(c, sums[zeta], sums[eta])
             for zeta, _, _, eta in one_step_inclusions(n)}
    return PosetFunctor(n, rings, steps)


def insert_index(zeta: tuple, i: int) -> tuple[int, tuple]:
    """Insert i into the increasing tuple zeta; returns (position, new tuple)."""
    if i in zeta:
        raise ValueError(f"{i} already in {zeta}")
    pos = 0
    while pos < len(zeta) and zeta[pos] < i:
        pos += 1
    return pos, zeta[:pos] + (i,) + zeta[pos:]


def restriction(f: PosetFunctor, zeta: Sequence[int], eta: Sequence[int]) -> AlgebraHom:
    """Composite restriction of f for zeta a subtuple of eta."""
    zeta, eta = tuple(zeta), tuple(eta)
    if not set(zeta) <= set(eta):
        raise ValueError(f"{zeta} is not a subtuple of {eta}")
    current = zeta
    mat = Matrix.identity(f.ring(zeta).field, f.ring(zeta).dim)
    for i in sorted(set(eta) - set(zeta)):
        _, nxt = insert_index(current, i)
        mat = f.steps[(current, nxt)].matrix.mul(mat)
        current = nxt
    return AlgebraHom(f.ring(zeta), f.ring(eta), mat)


# ---------------------------------------------------------------------------
# Ringed structures
# ---------------------------------------------------------------------------

class RingedStructure:
    """Functorial assignment J -> (Phi(J), Phi_J : A/J -> Phi(J)).

    ``hom_from_quotient(J)`` is Phi_J, its codomain is Phi(J), and
    ``map_of(J1, J2)`` is the Phi-image of the projection A/J1 -> A/J2.
    Both take ideal subspaces of the base algebra (canonical by RREF).
    """

    def __init__(self, hom_from_quotient: Callable[[Subspace], AlgebraHom],
                 map_of: Callable[[Subspace, Subspace], AlgebraHom]):
        self.hom_from_quotient = hom_from_quotient
        self.map_of = map_of

    def validate_on(self, c: Covering, ideal_spaces: Sequence[Subspace]) -> None:
        """Check the naturality squares for every comparable pair in the list
        of ideal sums of the covering ``c``."""

        @cache  # Phi_J of each distinct ideal is built once
        def hom(j: Subspace) -> Matrix:
            return self.hom_from_quotient(j).matrix

        for j1 in ideal_spaces:
            for j2 in ideal_spaces:
                if j1 == j2 or not contains_subspace(j2, j1):
                    continue
                lhs = hom(j2).mul(c.projection(j1, j2))
                rhs = self.map_of(j1, j2).matrix.mul(hom(j1))
                if lhs != rhs:
                    raise StructureError(
                        "ringed-structure naturality square does not commute",
                        witness=("naturality", j1.basis.entries, j2.basis.entries))


def functor_from_ringed_covering(c: Covering, rs: RingedStructure) -> PosetFunctor:
    """R(zeta) = Phi(sum of the ideals named by zeta), restrictions through Phi.

    ``rs`` is checked for naturality on the covering's ideal sums; a
    failure raises a StructureError carrying the witness square.  The
    default structure, A/J with its projections, is the covering itself
    (``Covering.cech``).  No command builds this functor: a problem file
    names no ringed structure.
    """
    n = c.n_patches
    sums = {zeta: c.ideal_sum_space(zeta)
            for length in range(n + 1) for zeta in all_tuples(n, length)}
    rings = {zeta: rs.hom_from_quotient(j).codomain for zeta, j in sums.items()}
    steps = {(zeta, eta): rs.map_of(sums[zeta], sums[eta])
             for zeta, _, _, eta in one_step_inclusions(n)}
    functor = PosetFunctor(n, rings, steps)
    rs.validate_on(c, sorted(set(sums.values()), key=lambda s: (s.dim, s.basis.entries)))
    return functor


# ---------------------------------------------------------------------------
# Bimodules
# ---------------------------------------------------------------------------

class TensorBlock(Frozen):
    # word: patch indices, 1-based; length = tensor power
    _fields = ("word", "offset", "dim")


class Bimodule(Frozen):
    """A-bimodule on a coordinate space, actions given per A-basis element.

    ``blocks`` partitions the coordinates into action-invariant ranges
    labelled by patch words; provenance records how the space arose.
    ``left[m]`` is the Matrix of the action of basis element b_m.
    """

    _fields = ("algebra", "dim", "left", "right", "blocks", "provenance")

    def left_action(self, coords: Sequence) -> Matrix:
        return _combine_actions(self, self.left, coords)

    def right_action(self, coords: Sequence) -> Matrix:
        return _combine_actions(self, self.right, coords)

    def block_by_word(self, word: tuple) -> TensorBlock:
        for b in self.blocks:
            if b.word == word:
                return b
        raise KeyError(f"no block with word {word}")

    def locate(self, index: int) -> tuple[TensorBlock, int]:
        for b in self.blocks:
            if b.offset <= index < b.offset + b.dim:
                return b, index - b.offset
        raise IndexError(index)


def _combine_actions(m: Bimodule, mats: tuple, coords: Sequence) -> Matrix:
    f = m.algebra.field
    out = Matrix.zero(f, m.dim, m.dim)
    for c, mat in zip(coords, mats):
        if c != f.zero:
            out = matrix_add(out, scale(mat, c))
    return out


def validate_bimodule(m: Bimodule) -> None:
    """Unit, associativity, commuting-action and block axioms on basis triples."""
    a = m.algebra
    f = a.field
    ident = Matrix.identity(f, m.dim)
    if m.left_action(a.unit) != ident:
        raise StructureError("left action of the unit is not the identity",
                             witness=("unit", "left"))
    if m.right_action(a.unit) != ident:
        raise StructureError("right action of the unit is not the identity",
                             witness=("unit", "right"))
    table = mul_table(a)
    for i in range(a.dim):
        for j in range(a.dim):
            prod = table[i][j]
            if m.left_action(prod) != m.left[i].mul(m.left[j]):
                raise StructureError(f"left action not associative at ({i},{j})",
                                     witness=("left", i, j))
            if m.right_action(prod) != m.right[j].mul(m.right[i]):
                raise StructureError(f"right action not associative at ({i},{j})",
                                     witness=("right", i, j))
            if m.left[i].mul(m.right[j]) != m.right[j].mul(m.left[i]):
                raise StructureError(f"left and right actions do not commute at ({i},{j})",
                                     witness=("commute", i, j))
    for mats in (m.left, m.right):
        for mat in mats:
            for b in m.blocks:
                for r in range(b.offset, b.offset + b.dim):
                    for c in support(mat)[r]:
                        if not (b.offset <= c < b.offset + b.dim):
                            raise StructureError("action is not block diagonal",
                                                 witness=("block", b.word, r, c))


def zero_bimodule(a: Algebra) -> Bimodule:
    empty = tuple(Matrix(a.field, 0, 0, ()) for _ in range(a.dim))
    return Bimodule(a, 0, empty, empty, (), "zero")


def b_bimodule(c: Covering) -> Bimodule:
    """The patch sum (+)A_i with a acting through pi_i on the i-th block."""
    a = c.algebra
    f = a.field
    dims = c.patch_dims()
    total = sum(dims)
    blocks = []
    off = 0
    for i, d in enumerate(dims, start=1):
        blocks.append(TensorBlock((i,), off, d))
        off += d
    left, right = [], []
    for m in range(a.dim):
        e = basis_coords(a, m)
        lbl, rbl = [], []
        for i in range(1, c.n_patches + 1):
            ai, pi = patch(c, i)
            im = pi.matrix.apply(e)
            lbl.append(left_mult_matrix(ai, im))
            rbl.append(right_mult_matrix(ai, im))
        left.append(_block_diag(f, blocks, lbl))
        right.append(_block_diag(f, blocks, rbl))
    return Bimodule(a, total, tuple(left), tuple(right), tuple(blocks), "patch-sum")


def _block_diag(field, blocks: Sequence[TensorBlock], mats: Sequence[Matrix]) -> Matrix:
    """The block-diagonal matrix with mats[k] on the block of blocks[k]; the
    blocks tile the space in order."""
    dims = [b.dim for b in blocks]
    return block_matrix(field, dims, dims, {(k, k): m for k, m in enumerate(mats)})


def _slice(m: Matrix, r0: int, rn: int, c0: int, cn: int) -> Matrix:
    return Matrix.from_nonzeros(m.field, rn, cn, tuple(
        {c - c0: x for c, x in row.items() if c0 <= c < c0 + cn}
        for row in m.nonzeros[r0:r0 + rn]))


# ---------------------------------------------------------------------------
# Balanced tensor product
# ---------------------------------------------------------------------------

def tensor_over_A(m: Bimodule, n: Bimodule, check: bool = False) -> tuple[Bimodule, Matrix]:
    """(m (x)_k n) / span{(x.a)(x)y - x(x)(a.y)} with inherited outer actions.

    Returns the quotient bimodule and the projection from the raw space
    k^(dim m * dim n), raw index (x, y) -> x*dim(n) + y.
    """
    out, proj, _ = _tensor_with_section(m, n, check=check)
    return out, proj


def _tensor_with_section(m: Bimodule, n: Bimodule, check: bool = False):
    if m.algebra != n.algebra:
        raise StructureError("bimodules over different algebras")
    a = m.algebra
    f = a.field
    zero = f.zero
    raw_dim = m.dim * n.dim

    new_blocks = []
    local = []  # (q, s, u, v) in block order
    off = 0
    for u in m.blocks:
        for v in n.blocks:
            du, dv = u.dim, v.dim
            rows = []
            seen = set()
            for am in range(a.dim):
                ra = _slice(m.right[am], u.offset, du, u.offset, du)
                la = _slice(n.left[am], v.offset, dv, v.offset, dv)
                la_cols = [column(la, yi) for yi in range(dv)]
                for xi in range(du):
                    col_r = column(ra, xi)
                    for yi in range(dv):
                        vec = [zero] * (du * dv)
                        for r, cr in enumerate(col_r):
                            if cr:
                                vec[r * dv + yi] = cr
                        for s, cl in enumerate(la_cols[yi]):
                            if cl:
                                vec[xi * dv + s] = scalar_sub(f, vec[xi * dv + s], cl)
                        t = tuple(vec)
                        if any(t) and t not in seen:
                            seen.add(t)
                            rows.append(t)
            w = Subspace.from_vectors(f, du * dv, rows)
            q = quotient_map(du * dv, w)
            s = quotient_section(du * dv, w)
            new_blocks.append(TensorBlock(u.word + v.word, off, q.rows))
            local.append((q, s, u, v))
            off += q.rows

    total = off
    proj_rows = tuple({} for _ in range(total))
    sect_rows = tuple({} for _ in range(raw_dim))
    for nb, (q, s, u, v) in zip(new_blocks, local):
        for r, row in enumerate(q.nonzeros, nb.offset):
            for lc, x in row.items():
                xi, yi = divmod(lc, v.dim)
                proj_rows[r][(u.offset + xi) * n.dim + (v.offset + yi)] = x
        for lr, row in enumerate(s.nonzeros):
            xi, yi = divmod(lr, v.dim)
            target = sect_rows[(u.offset + xi) * n.dim + (v.offset + yi)]
            for c, x in row.items():
                target[nb.offset + c] = x
    proj = Matrix.from_nonzeros(f, total, raw_dim, proj_rows)
    sect = Matrix.from_nonzeros(f, raw_dim, total, sect_rows)

    idents = {d: Matrix.identity(f, d) for d in {b.dim for b in m.blocks + n.blocks}}
    left, right = [], []
    for am in range(a.dim):
        # the action on each block of one factor, kron the identity of each block
        # size of the other, built once and shared by the blocks of the product
        la = {(u, d): kron(_slice(m.left[am], u.offset, u.dim, u.offset, u.dim), idents[d])
              for u in m.blocks for d in {v.dim for v in n.blocks}}
        ra = {(d, v): kron(idents[d], _slice(n.right[am], v.offset, v.dim, v.offset, v.dim))
              for v in n.blocks for d in {u.dim for u in m.blocks}}
        mats = []
        rmats = []
        for nb, (q, s, u, v) in zip(new_blocks, local):
            mats.append(q.mul(la[u, v.dim]).mul(s))
            rmats.append(q.mul(ra[u.dim, v]).mul(s))
        left.append(_block_diag(f, new_blocks, mats))
        right.append(_block_diag(f, new_blocks, rmats))

    out = Bimodule(a, total, tuple(left), tuple(right), tuple(new_blocks),
                   f"({m.provenance})(x)_A({n.provenance})")
    if check:
        validate_bimodule(out)
    return out, proj, sect


# ---------------------------------------------------------------------------
# The tensor tower
# ---------------------------------------------------------------------------

class TensorTower:
    """Lazy cache of T_n = B^((x)_A n) with the structure maps between them.

    Check mode verifies every quotient-level structure map against its raw
    full-tensor counterpart (map . flat == flat . raw_map), which is the
    statement that the map is well defined on the balancing relations.
    """

    def __init__(self, covering: Covering, cap: int = DEFAULT_DIM_CAP, check: bool = False):
        self.covering = covering
        self.field = covering.field
        self.cap = cap
        self.check = check
        self.base = b_bimodule(covering)
        if check:
            validate_bimodule(self.base)
        self.b_alg = b_algebra(covering)
        self._spaces = {1: self.base}
        self._proj: dict = {}
        self._sect: dict = {}
        self._ins: dict = {}
        self._mult: dict = {}
        self._flat = {1: Matrix.identity(self.field, self.base.dim)}
        self._unflat = {1: Matrix.identity(self.field, self.base.dim)}
        self._merge2: Optional[Matrix] = None

    # -- spaces ----------------------------------------------------------

    def space(self, n: int) -> Bimodule:
        if n < 1:
            raise ValueError("tensor power must be >= 1")
        if n not in self._spaces:
            prev = self.space(n - 1)
            est = prev.dim * self.base.dim
            if est > self.cap:
                raise DimensionCapError(
                    f"tensor power {n} needs a raw coordinate space of dimension "
                    f"{est} > cap {self.cap}", degree=n, estimated=est, cap=self.cap)
            t, q, s = _tensor_with_section(prev, self.base, check=self.check)
            self._spaces[n] = t
            self._proj[n] = q
            self._sect[n] = s
        return self._spaces[n]

    def proj(self, n: int) -> Matrix:
        self.space(n)
        return self._proj[n]

    def sect(self, n: int) -> Matrix:
        self.space(n)
        return self._sect[n]

    # -- raw <-> quotient ---------------------------------------------------

    def flat(self, n: int) -> Matrix:
        """Full k-tensor space k^((dim B)^n) onto T_n coordinates."""
        if n not in self._flat:
            self._flat[n] = mul_kron_identity(self.proj(n), self.flat(n - 1), self.base.dim)
        return self._flat[n]

    def unflatten(self, n: int) -> Matrix:
        """A right inverse of flat(n) (flat . unflatten = identity)."""
        if n not in self._unflat:
            ident = Matrix.identity(self.field, self.base.dim)
            self._unflat[n] = kron(self.unflatten(n - 1), ident).mul(self.sect(n))
        return self._unflat[n]

    # -- structure maps -------------------------------------------------------

    def insert_unit(self, n: int, k: int) -> Matrix:
        """T_n -> T_(n+1), insert 1_B before factor k (0-based slot, 0..n)."""
        if not 0 <= k <= n:
            raise ValueError(f"slot {k} out of range for {n} factors")
        key = (n, k)
        if key not in self._ins:
            f = self.field
            bdim = self.base.dim
            unit = self.b_alg.unit
            tn = self.space(n)
            if k == n:
                raw = _scatter(f, tn.dim * bdim, tn.dim,
                               ((t * bdim + mm, t, unit[mm])
                                for t in range(tn.dim) for mm in range(bdim)
                                if unit[mm] != f.zero))
                built = self.proj(n + 1).mul(raw)
            elif n == 1:
                raw = _scatter(f, bdim * bdim, bdim,
                               ((mm * bdim + y, y, unit[mm])
                                for y in range(bdim) for mm in range(bdim)
                                if unit[mm] != f.zero))
                built = self.proj(2).mul(raw)
            else:
                prev = self.insert_unit(n - 1, k)
                built = mul_kron_identity(self.proj(n + 1), prev, bdim).mul(self.sect(n))
            if self.check:
                lhs = built.mul(self.flat(n))
                rhs = self.flat(n + 1).mul(self.raw_insert_unit(n, k))
                if lhs != rhs:
                    raise StructureError(
                        "unit insertion disagrees with its raw counterpart",
                        witness=("insert", n, k))
            self._ins[key] = built
        return self._ins[key]

    def merge2(self) -> Matrix:
        """Raw multiplication k^(B x B) -> k^B, e_x (x) e_y -> coords(xy)."""
        if self._merge2 is None:
            f = self.field
            bdim = self.base.dim
            if bdim == 0:
                self._merge2 = Matrix(f, 0, 0, ())
            else:
                balg = self.b_alg
                cols = [multiply(balg, basis_coords(balg, x), basis_coords(balg, y))
                        for x in range(bdim) for y in range(bdim)]
                self._merge2 = transpose(from_rows(f, cols))
        return self._merge2

    def raw_mult_adjacent(self, n: int, k: int) -> Matrix:
        """Merge factors k, k+1 on full k-tensors: k^(B^n) -> k^(B^(n-1))."""
        f = self.field
        bdim = self.base.dim
        left = Matrix.identity(f, bdim ** k)
        right = Matrix.identity(f, bdim ** (n - 2 - k))
        return kron(kron(left, self.merge2()), right)

    def mult_adjacent(self, n: int, k: int) -> Matrix:
        """T_n -> T_(n-1), multiply factors k and k+1 (0-based, 0..n-2)."""
        if not (n >= 2 and 0 <= k <= n - 2):
            raise ValueError(f"cannot merge factors ({k},{k + 1}) of {n}")
        key = (n, k)
        if key not in self._mult:
            f = self.field
            bdim = self.base.dim
            if n == 2:
                built = self.merge2().mul(self.sect(2))
            elif k == n - 2:
                prev_dim = self.space(n - 2).dim
                lift = kron(self.sect(n - 1), Matrix.identity(f, bdim))
                merge = kron(Matrix.identity(f, prev_dim), self.merge2())
                built = self.proj(n - 1).mul(merge).mul(lift).mul(self.sect(n))
            else:
                prev = self.mult_adjacent(n - 1, k)
                built = mul_kron_identity(self.proj(n - 1), prev, bdim).mul(self.sect(n))
            if self.check:
                lhs = built.mul(self.flat(n))
                rhs = self.flat(n - 1).mul(self.raw_mult_adjacent(n, k))
                if lhs != rhs:
                    raise StructureError(
                        "factor multiplication disagrees with its raw counterpart",
                        witness=("merge", n, k))
            self._mult[key] = built
        return self._mult[key]

    def differential(self, n: int) -> Matrix:
        """Amitsur d_n : C^n = T_(n+1) -> C^(n+1) = T_(n+2)."""
        out = None
        for k in range(n + 2):
            term = self.insert_unit(n + 1, k)
            if k % 2 == 1:
                term = term.neg()
            out = term if out is None else matrix_add(out, term)
        return out

    def raw_insert_unit(self, n: int, k: int) -> Matrix:
        """Unit insertion on full k-tensor spaces (no quotient involved)."""
        f = self.field
        bdim = self.base.dim
        unit_col = Matrix(f, bdim, 1, tuple((u,) for u in self.b_alg.unit))
        left = Matrix.identity(f, bdim ** k)
        right = Matrix.identity(f, bdim ** (n - k))
        return kron(kron(left, unit_col), right)

    def raw_differential(self, n: int) -> Matrix:
        """Amitsur differential on full k-tensors k^(B^(n+1)) -> k^(B^(n+2))."""
        out = None
        for k in range(n + 2):
            term = self.raw_insert_unit(n + 1, k)
            if k % 2 == 1:
                term = term.neg()
            out = term if out is None else matrix_add(out, term)
        return out

    # -- element helpers --------------------------------------------------

    def pure_tensor_coords(self, factors: Sequence[tuple]) -> tuple:
        """Coordinates in T_n of y_1 (x) ... (x) y_n, each y_k given as
        (patch index, coordinate vector in A_(i_k))."""
        f = self.field
        n = len(factors)
        if n == 0:
            raise ValueError("empty tensor")
        vec = self._embed(*factors[0])
        for (i, coords) in factors[1:]:
            nxt = self._embed(i, coords)
            out = [f.zero] * (len(vec) * len(nxt))
            for a, xa in enumerate(vec):
                if xa == f.zero:
                    continue
                for b, xb in enumerate(nxt):
                    if xb != f.zero:
                        out[a * len(nxt) + b] = scalar_mul(f, xa, xb)
            vec = out
        return self.flat(n).apply(vec)

    def _embed(self, i: int, coords: Sequence) -> list:
        f = self.field
        out = [f.zero] * self.base.dim
        block = self.base.block_by_word((i,))
        if len(coords) != block.dim:
            raise ValueError(f"patch {i} expects {block.dim} coordinates")
        for k, x in enumerate(coords):
            out[block.offset + k] = f.coerce(x)
        return out

    def decompose(self, n: int, coords: Sequence) -> list:
        """Write a T_n element as weighted pure basis tensors.

        Returns [(coeff, ((patch, local_basis_index), ...)), ...]; feeding
        the summands back through pure_tensor_coords reproduces coords.
        """
        f = self.field
        raw = self.unflatten(n).apply(coords)
        bdim = self.base.dim
        out = []
        for idx, x in enumerate(raw):
            if x == f.zero:
                continue
            digits = []
            rem = idx
            for _ in range(n):
                digits.append(rem % bdim)
                rem //= bdim
            digits.reverse()
            factors = []
            for d in digits:
                block, local = self.base.locate(d)
                factors.append((block.word[0], local))
            out.append((x, tuple(factors)))
        return out


def _scatter(field, rows: int, cols: int, triples) -> Matrix:
    grid = [[field.zero] * cols for _ in range(rows)]
    for r, c, x in triples:
        grid[r][c] = field.add(grid[r][c], x)
    return Matrix(field, rows, cols, tuple(tuple(r) for r in grid))


# ---------------------------------------------------------------------------
# Sweedler coring
# ---------------------------------------------------------------------------

class SweedlerCoring(Frozen):
    """``module`` is B (x)_A B; ``coproduct`` is T_2 -> T_3, x(x)y -> x(x)1(x)y;
    ``counit`` is T_2 -> B, induced by multiplication; ``elements`` maps
    (i, j) to the coordinates of pi_i(1)(x)pi_j(1) in T_2."""

    _fields = ("covering", "module", "coproduct", "counit", "elements")


def build_coring(c: Covering, tower: Optional[TensorTower] = None,
                 check: bool = True) -> SweedlerCoring:
    """Sweedler coring of A -> (+)A_i in balanced coordinates.

    The coproduct is the middle unit insertion into B(x)B(x)B and the
    counit is induced by multiplication.  The counit laws are always
    asserted; check=True also asserts coassociativity (which needs T_4).
    """
    t = tower or TensorTower(c)
    t2 = t.space(2)
    cop = t.insert_unit(2, 1)
    cou = t.mult_adjacent(2, 0)
    elements = {}
    for i in range(1, c.n_patches + 1):
        for j in range(1, c.n_patches + 1):
            ai, _ = patch(c, i)
            aj, _ = patch(c, j)
            elements[(i, j)] = t.pure_tensor_coords([(i, ai.unit), (j, aj.unit)])
    ident = Matrix.identity(c.field, t2.dim)
    if t.mult_adjacent(3, 0).mul(cop) != ident:
        raise StructureError("counit law (eps (x) id) . cop != id", witness=("counit", "left"))
    if t.mult_adjacent(3, 1).mul(cop) != ident:
        raise StructureError("counit law (id (x) eps) . cop != id", witness=("counit", "right"))
    if check:
        if t.insert_unit(3, 1).mul(cop) != t.insert_unit(3, 2).mul(cop):
            raise StructureError("coproduct is not coassociative", witness=("coassoc",))
    return SweedlerCoring(c, t2, cop, cou, elements)


# ---------------------------------------------------------------------------
# The comparison map phi
# ---------------------------------------------------------------------------

def increasing_space(n_patches: int, n: int, dim: Callable[[tuple], int]) -> WordSpace:
    """Degree n on every increasing word of length n over 1..N, zero blocks
    included, the block of word S of dimension ``dim(S)``; empty for n > N.
    The phi oracles lay out S^n on it, so any tuple's component is found."""
    words = tuple(all_tuples(n_patches, n))
    return WordSpace(words, tuple(map(dim, words)))


class CechElement(Frozen):
    """An element of S^n with its block layout."""

    _fields = ("layout", "coords")

    def component(self, zeta: Sequence[int], functor: PosetFunctor) -> Element:
        off, d = self.layout.offset_of(tuple(zeta))
        return element(functor.ring(zeta), self.coords[off:off + d])


def phi_on_pure(f: PosetFunctor, choice: Sequence[AlgebraHom],
                factors: Sequence[tuple]) -> Optional[tuple]:
    """phi of one pure tensor given as [(patch, coords in A_patch), ...].

    Returns (zeta, coords in R(zeta)) for a strictly increasing patch word;
    None encodes zero (repeated or out-of-order word).
    """
    word = tuple(i for i, _ in factors)
    if len(set(word)) != len(word) or word != tuple(sorted(word)):
        return None
    zeta = word
    ring = f.ring(zeta)
    acc = ring.unit
    for (i, coords) in factors:
        mapped = restriction(f, (i,), zeta).matrix.apply(choice[i - 1].matrix.apply(coords))
        acc = multiply(ring, acc, mapped)
    return zeta, acc


def phi(f: PosetFunctor, choice: Sequence[AlgebraHom],
        factors: Sequence[tuple]) -> CechElement:
    """phi of one pure tensor [(patch, coords in A_patch), ...] in S^n."""
    return phi_sum(f, choice, [(f.ring(()).field.one, factors)], degree=len(factors))


def phi_sum(f: PosetFunctor, choice: Sequence[AlgebraHom], terms,
            degree: Optional[int] = None) -> CechElement:
    """phi of a sum of (coefficient, pure tensor) pairs, as an element of S^n."""
    if degree is None:
        if not terms:
            raise ValueError("cannot infer degree from an empty sum")
        degree = len(terms[0][1])
    layout = increasing_space(f.n_patches, degree, lambda zeta: f.ring(zeta).dim)
    field = f.ring(()).field
    coords = [field.zero] * layout.dim
    for coeff, factors in terms:
        if len(factors) != degree:
            raise DimensionMismatchError("mixed tensor lengths in one sum")
        res = phi_on_pure(f, choice, factors)
        if res is None:
            continue
        zeta, vec = res
        off, _ = layout.offset_of(zeta)
        for k, x in enumerate(vec):
            coords[off + k] = field.add(coords[off + k],
                                        scalar_mul(field, field.coerce(coeff), x))
    return CechElement(layout, tuple(coords))


def phi_raw_matrix(f: PosetFunctor, choice: Sequence[AlgebraHom],
                   tower: TensorTower, n: int) -> Matrix:
    """phi on the full k-tensor space k^(B^n) -> S^n, column per basis tensor."""
    field = tower.field
    bdim = tower.base.dim
    layout = increasing_space(f.n_patches, n, lambda zeta: f.ring(zeta).dim)
    total = bdim ** n
    cols = []
    for idx in range(total):
        digits = []
        rem = idx
        for _ in range(n):
            digits.append(rem % bdim)
            rem //= bdim
        digits.reverse()
        factors = []
        for d in digits:
            block, local = tower.base.locate(d)
            coords = [field.zero] * block.dim
            coords[local] = field.one
            factors.append((block.word[0], tuple(coords)))
        res = phi_on_pure(f, choice, factors)
        col = [field.zero] * layout.dim
        if res is not None:
            zeta, vec = res
            off, _ = layout.offset_of(zeta)
            for k, x in enumerate(vec):
                col[off + k] = x
        cols.append(tuple(col))
    if not cols:
        return Matrix.zero(field, layout.dim, 0)
    return transpose(from_rows(field, cols))


def phi_matrix(f: PosetFunctor, choice: Sequence[AlgebraHom],
               tower: TensorTower, n: int) -> Matrix:
    """phi as a matrix on balanced coordinates T_n -> S^n."""
    return phi_raw_matrix(f, choice, tower, n).mul(tower.unflatten(n))


# ---------------------------------------------------------------------------
# Random instances (property suites; incomplete-covering search)
# ---------------------------------------------------------------------------

_STOCK = (
    lambda f: split_commutative(f, 2),
    lambda f: split_commutative(f, 3),
    lambda f: matrix_algebra(f, 2),
    lambda f: upper_triangular(f, 2),
    lambda f: truncated_polynomial(f, 2),
    lambda f: truncated_polynomial(f, 3),
    lambda f: square_zero(f, 1),
    lambda f: square_zero(f, 2),
    lambda f: square_zero(f, 3),
)


def random_algebra(rng: random.Random, field: Field, max_dim: int = 6) -> Algebra:
    """Random direct sum of stock algebras with total dimension <= max_dim."""
    acc = None
    dim = 0
    while True:
        candidates = [mk for mk in _STOCK if dim + mk(field).dim <= max_dim]
        if not candidates or (acc is not None and rng.random() < 0.45):
            break
        piece = rng.choice(candidates)(field)
        acc = piece if acc is None else direct_sum(acc, piece)
        dim = acc.dim
    if acc is None:
        acc = split_commutative(field, min(2, max_dim))
    return acc


def _random_ideal(rng: random.Random, a: Algebra) -> Ideal:
    gens = []
    for _ in range(rng.randint(0, 2)):
        coords = [a.field.zero] * a.dim
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(a.dim)
            coords[i] = a.field.coerce(rng.choice([1, 1, 1, -1, 2]))
        gens.append(tuple(coords))
    return ideal_closure(a, gens)


def random_covering(rng: random.Random, field: Field, max_dim: int = 6,
                    max_patches: int = 3, attempts: int = 200) -> Covering:
    """Random covering (zero ideal intersection); falls back to zero ideals."""
    for _ in range(attempts):
        a = random_algebra(rng, field, max_dim)
        n = rng.randint(1, max_patches)
        ideals = [_random_ideal(rng, a) for _ in range(n)]
        if ideal_intersection(ideals).dim == 0:
            return Covering(a, ideals)
    a = random_algebra(rng, field, max_dim)
    zero = ideal_closure(a, [])
    return Covering(a, [zero] * rng.randint(1, max_patches))


def search_incomplete_covering(rng: random.Random, field: Field,
                               attempts: int = 300, max_dim: int = 5,
                               max_patches: int = 3) -> Optional[Covering]:
    """Hunt for a covering that fails exactness at (+)A_i.

    Returns the first incomplete covering found, or None if the budget runs
    out.  Incompleteness needs N >= 3 (two ideals always glue), so the
    search favors three patches.
    """
    for _ in range(attempts):
        a = random_algebra(rng, field, max_dim)
        n = rng.randint(3, max(3, max_patches))
        ideals = [_random_ideal(rng, a) for _ in range(n)]
        if ideal_intersection(ideals).dim != 0:
            continue
        c = Covering(a, ideals)
        report = completeness_check(c)
        if report.is_covering and not report.complete:
            return c
    return None


def random_cover_description(rng: random.Random, max_patches: int = 6,
                             field: "Field | None" = None) -> CoverDescription:
    """Random downward-closed cover: sample maximal faces, close downward."""
    field = field or QQ
    n = rng.randint(1, max_patches)
    overlaps = {(i,) for i in range(1, n + 1)}
    n_faces = rng.randint(0, n + 1)
    for _ in range(n_faces):
        size = rng.randint(1, n)
        face = tuple(sorted(rng.sample(range(1, n + 1), size)))
        for length in range(1, len(face) + 1):
            for sub in combinations(face, length):
                overlaps.add(tuple(sub))
    return CoverDescription(n, frozenset(overlaps), field)
