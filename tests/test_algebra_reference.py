"""Cross-check of the sparse structure-constant code against the dense one.

``DenseAlgebra`` and the functions ``ref_*`` below are the dense code that
``algebras`` used before the structure constants were stored as nonzero
terms: the product, the unit and associativity loops of ``make_algebra``
over all basis triples, the two-sided ideal test (with the dense
``Subspace.contains`` it called), ``hom_check`` on dense axis vectors and
the table that ``quotient`` built.  They are kept verbatim as the
reference: products, verdicts and witnesses must agree, on random
algebras in random bases and on tables perturbed to break each axiom.
The ``dense_*`` builders are the stock algebras as they stood when each
built its dense table for ``make_algebra``; the stock constructors,
which now build the sparse terms from basis products, must give equal
algebras.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cechcover.algebras import AlgebraHom, Ideal, hom_check, ideal_closure
from cechcover.errors import StructureError
from cechcover.linalg import GF, QQ, Matrix, Subspace, quotient_map
from cechcover.oracles import (
    column, make_algebra, matrix_add, matrix_algebra, mul_table, multiply, quotient,
    quotient_section, random_algebra,
    rref, scalar_div, scalar_mul, scalar_sub, split_commutative, square_zero,
    truncated_polynomial, upper_triangular,
)

FIELDS = (QQ, GF(2), GF(5), GF(1000003))


# -- the dense reference ----------------------------------------------------------

class DenseAlgebra:
    """The dense algebra: mul_table[i][j] = coords of b_i * b_j."""

    def __init__(self, field, dim, mul_table, unit):
        self.field, self.dim, self.mul_table, self.unit = field, dim, mul_table, unit

    def multiply(self, x, y) -> tuple:
        """Product of coordinate vectors via the structure constants."""
        f = self.field
        zero, add = f.zero, f.add
        out = [zero] * self.dim
        for i, xi in enumerate(x):
            if xi == zero:
                continue
            row = self.mul_table[i]
            for j, yj in enumerate(y):
                if yj == zero:
                    continue
                c = scalar_mul(f, xi, yj)
                for k, ck in enumerate(row[j]):
                    if ck != zero:
                        out[k] = add(out[k], scalar_mul(f, c, ck))
        return tuple(out)

    def basis_coords(self, i: int) -> tuple:
        return _axis(self.field, self.dim, i)


def _axis(field, dim: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(dim))


def ref_make_algebra(field, dim, mul, unit) -> DenseAlgebra:
    """The dense validation of a well-shaped table (raises StructureError)."""
    table = tuple(tuple(tuple(field.coerce(x) for x in mul[i][j]) for j in range(dim))
                  for i in range(dim))
    u = tuple(field.coerce(x) for x in unit)
    a = DenseAlgebra(field, dim, table, u)
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


def ref_contains(space: Subspace, vector) -> bool:
    """Membership by reducing against the RREF basis."""
    f = space.field
    v = [f.coerce(x) for x in vector]
    zero = f.zero
    pivots = []
    for row in space.basis.entries:
        for c, x in enumerate(row):
            if x != zero:
                pivots.append(c)
                break
    for row, p in zip(space.basis.entries, pivots):
        c = v[p]
        if c != zero:
            v = [scalar_sub(f, x, scalar_mul(f, c, y)) for x, y in zip(v, row)]
    return all(x == zero for x in v)


def ref_ideal_check(a: DenseAlgebra, space: Subspace) -> None:
    for v in space.basis.entries:
        for i in range(a.dim):
            e = a.basis_coords(i)
            if not ref_contains(space, a.multiply(e, v)):
                raise StructureError(
                    f"not a two-sided ideal: b{i} * v escapes the span",
                    witness=("left", i, v))
            if not ref_contains(space, a.multiply(v, e)):
                raise StructureError(
                    f"not a two-sided ideal: v * b{i} escapes the span",
                    witness=("right", i, v))


def ref_ideal_closure(a: DenseAlgebra, gens) -> tuple[Subspace, int]:
    """The smallest two-sided ideal containing gens, and the number of
    rounds that grew it: every basis vector of the span times every basis
    element on both sides, until the dimension stabilizes."""
    span, rounds = Subspace.from_vectors(a.field, a.dim, gens), 0
    while True:
        vecs = list(span.basis.entries)
        for v in span.basis.entries:
            for i in range(a.dim):
                e = a.basis_coords(i)
                vecs += [a.multiply(e, v), a.multiply(v, e)]
        bigger = Subspace.from_vectors(a.field, a.dim, vecs)
        if bigger.dim == span.dim:
            return bigger, rounds
        span, rounds = bigger, rounds + 1


def ref_hom_check(dom: DenseAlgebra, cod: DenseAlgebra, matrix: Matrix) -> tuple:
    """(ok, witness, message) of the dense multiplicativity check."""
    if matrix.apply(dom.unit) != cod.unit:
        return False, ("unit",), "map does not send unit to unit"
    for i in range(dom.dim):
        fi = matrix.apply(dom.basis_coords(i))
        for j in range(dom.dim):
            lhs = matrix.apply(dom.mul_table[i][j])
            rhs = cod.multiply(fi, matrix.apply(dom.basis_coords(j)))
            if lhs != rhs:
                return False, (i, j), f"map is not multiplicative on basis pair ({i},{j})"
    return True, None, ""


def ref_quotient_table(a: DenseAlgebra, space: Subspace) -> tuple:
    q = quotient_map(a.dim, space)
    s = quotient_section(a.dim, space)
    qdim = q.rows
    table = []
    for i in range(qdim):
        si = s.apply(_axis(a.field, qdim, i))
        row = []
        for jj in range(qdim):
            sj = s.apply(_axis(a.field, qdim, jj))
            row.append(q.apply(a.multiply(si, sj)))
        table.append(tuple(row))
    return tuple(table)


# -- the stock algebras as dense tables ---------------------------------------------------

def dense_split_commutative(field, n):
    """k^n with coordinatewise product: e_i e_j = delta_ij e_i."""
    z, o = field.zero, field.one
    table = tuple(tuple(tuple(o if (i == j == k) else z for k in range(n)) for j in range(n))
                  for i in range(n))
    return make_algebra(field, n, table, (o,) * n,
                        tuple(f"e{i + 1}" for i in range(n)))


def dense_matrix_algebra(field, n):
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


def dense_upper_triangular(field, n):
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


def dense_truncated_polynomial(field, n):
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


def dense_square_zero(field, m):
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


# -- random inputs ---------------------------------------------------------------------

def random_scalar(rng: random.Random, field):
    if field == QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(field.p)


def random_vector(rng, field, dim, density=0.5) -> tuple:
    return tuple(random_scalar(rng, field) if rng.random() < density else field.zero
                 for _ in range(dim))


def random_invertible(rng, field, n) -> tuple[Matrix, Matrix]:
    """A random invertible n x n matrix P and its inverse."""
    while True:
        p = Matrix(field, n, n, tuple(random_vector(rng, field, n, 0.6) for _ in range(n)))
        aug = Matrix(field, n, 2 * n, tuple(row + ident for row, ident in
                                            zip(p.entries, Matrix.identity(field, n).entries)))
        reduced, r = rref(aug)
        if r == n and all(reduced.entries[i][i] == field.one for i in range(n)):
            inv = tuple(row[n:] for row in reduced.entries)
            return p, Matrix(field, n, n, inv)


def random_table(rng, field, max_dim=6) -> tuple[int, tuple, tuple]:
    """(dim, dense table, unit) of a random stock algebra in a random basis."""
    base = random_algebra(rng, field, max_dim)
    n = base.dim
    dense = DenseAlgebra(field, n, mul_table(base), base.unit)
    p, p_inv = random_invertible(rng, field, n)
    cols = [column(p, i) for i in range(n)]
    table = tuple(tuple(p_inv.apply(dense.multiply(cols[i], cols[j])) for j in range(n))
                  for i in range(n))
    return n, table, p_inv.apply(base.unit)


def vanishing_on(rng, field, u) -> list:
    """A random functional w with w . u = 0 (u is nonzero)."""
    w = list(random_vector(rng, field, len(u)))
    k = next(c for c, x in enumerate(u) if x)
    w[k] = field.zero
    dot = sum((scalar_mul(field, x, y) for x, y in zip(w, u)), field.zero)
    w[k] = field.neg(scalar_div(field, dot, u[k]))
    return w


def perturb_table(rng, field, n, table, unit) -> tuple:
    """Add 1 to one random structure constant, or add f(b_i) g(b_j) z to
    every b_i * b_j with f, g vanishing on the unit: that keeps both unit
    laws, so the check has to find a failing associativity triple."""
    rows = [[list(v) for v in row] for row in table]
    if rng.random() < 0.5:
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        rows[i][j][k] = field.add(rows[i][j][k], field.one)
    else:
        f, g = vanishing_on(rng, field, unit), vanishing_on(rng, field, unit)
        z = random_vector(rng, field, n)
        for i in range(n):
            for j in range(n):
                c = scalar_mul(field, f[i], g[j])
                rows[i][j] = [field.add(x, scalar_mul(field, c, y)) for x, y in zip(rows[i][j], z)]
    return tuple(tuple(tuple(v) for v in row) for row in rows)


def outcome(fn, *args):
    """The result of fn, or the message and witness of its StructureError."""
    try:
        return "ok", fn(*args)
    except StructureError as exc:
        return str(exc), exc.witness


# -- tests ---------------------------------------------------------------------------

def assert_canonical(field, vec):
    """Every coordinate is an int or a Fraction over Q and an int in [0, p)
    over F_p."""
    for x in vec:
        if field == QQ:
            assert type(x) in (int, Fraction)
        else:
            assert type(x) is int and 0 <= x < field.p


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_products_match_the_dense_product(field):
    rng = random.Random(f"products:{field!r}")
    for _ in range(15):
        n, table, unit = random_table(rng, field)
        a = make_algebra(field, n, table, unit)
        dense = ref_make_algebra(field, n, table, unit)
        assert mul_table(a) == dense.mul_table
        for row in mul_table(a):
            for vec in row:
                assert_canonical(field, vec)
        for _ in range(8):
            x = random_vector(rng, field, n, rng.choice((0.2, 0.6, 1.0)))
            y = random_vector(rng, field, n, rng.choice((0.2, 0.6, 1.0)))
            got = multiply(a, x, y)
            assert got == dense.multiply(x, y)
            assert_canonical(field, got)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_validation_verdicts_and_witnesses_match(field):
    rng = random.Random(f"validate:{field!r}")
    seen = set()
    for _ in range(40):
        n, table, unit = random_table(rng, field)
        kind = rng.choice(("table", "unit", "both"))
        if kind in ("table", "both"):
            table = perturb_table(rng, field, n, table, unit)
        if kind in ("unit", "both"):
            unit = list(unit)
            unit[rng.randrange(n)] = random_scalar(rng, field)
        got = outcome(make_algebra, field, n, table, unit)
        want = outcome(ref_make_algebra, field, n, table, unit)
        if want[0] == "ok":
            assert got[0] == "ok" and mul_table(got[1]) == want[1].mul_table
        else:
            assert got == want
            seen.add(want[1][0])
    assert seen == {"associativity", "unit-left", "unit-right"}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_ideal_checks_match(field):
    rng = random.Random(f"ideals:{field!r}")
    verdicts = set()
    for _ in range(20):
        n, table, unit = random_table(rng, field)
        a = make_algebra(field, n, table, unit)
        dense = DenseAlgebra(field, n, mul_table(a), a.unit)
        gens = [random_vector(rng, field, n, 0.4) for _ in range(rng.randint(0, 2))]
        closed = ideal_closure(a, gens)
        candidates = [closed.space,
                      Subspace.from_vectors(field, n, gens),
                      Subspace.from_vectors(field, n, [random_vector(rng, field, n)
                                                       for _ in range(rng.randint(1, n))])]
        for space in candidates:
            got = outcome(lambda s: Ideal(a, s) and None, space)
            want = outcome(ref_ideal_check, dense, space)
            assert got == want
            verdicts.add(want[0] == "ok")
        # the closure is the span of its generators under both products
        closure_vectors = list(closed.space.basis.entries)
        for v in closed.space.basis.entries:
            for i in range(n):
                e = dense.basis_coords(i)
                closure_vectors += [dense.multiply(e, v), dense.multiply(v, e)]
        assert Subspace.from_vectors(field, n, closure_vectors) == closed.space
        assert all(ref_contains(closed.space, g) for g in gens)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_ideal_closure_matches_the_dense_fixpoint(field):
    # the closure multiplies only the vectors each round added; the dense
    # fixpoint multiplies the whole span every round
    rng = random.Random(f"closure:{field!r}")
    algebras = [make_algebra(field, *random_table(rng, field, max_dim=7)) for _ in range(40)]
    algebras += [stock(field, n) for stock in (matrix_algebra, upper_triangular)
                 for n in (2, 3) for _ in range(5)]
    rounds = set()
    for a in algebras:
        dense = DenseAlgebra(field, a.dim, mul_table(a), a.unit)
        gens = [random_vector(rng, field, a.dim, 0.3) for _ in range(rng.randint(0, 3))]
        want, grown = ref_ideal_closure(dense, gens)
        assert ideal_closure(a, gens).space == want
        rounds.add(grown)
    assert {0, 1, 2} <= rounds


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_hom_checks_and_quotient_tables_match(field):
    rng = random.Random(f"homs:{field!r}")
    verdicts = set()

    class Raw:
        pass

    for _ in range(20):
        n, table, unit = random_table(rng, field)
        a = make_algebra(field, n, table, unit)
        dense = DenseAlgebra(field, n, mul_table(a), a.unit)
        ideal = ideal_closure(a, [random_vector(rng, field, n, 0.3)])
        qa, proj = quotient(a, ideal)
        if qa.dim:
            assert mul_table(qa) == ref_quotient_table(dense, ideal.space)
        qdense = DenseAlgebra(field, qa.dim, mul_table(qa), qa.unit)
        # the projection, and the projection plus a rank-one term v w^T
        # with w . unit = 0, so that the unit still maps to the unit
        mats = [proj.matrix]
        if qa.dim:
            w = vanishing_on(rng, field, a.unit)
            v = random_vector(rng, field, qa.dim, 0.7)
            rank_one = Matrix(field, qa.dim, n, tuple(tuple(scalar_mul(field, x, y) for y in w)
                                                       for x in v))
            mats.append(matrix_add(proj.matrix, rank_one))
            mats.append(Matrix(field, qa.dim, n, tuple(random_vector(rng, field, n)
                                                        for _ in range(qa.dim))))
        for m in mats:
            raw = Raw()
            raw.domain, raw.codomain, raw.matrix = a, qa, m
            report = hom_check(raw)
            want = ref_hom_check(dense, qdense, m)
            assert (report.ok, report.witness, report.message) == want
            verdicts.add(want[1][0] if want[1] else "ok")
            if want[0]:
                AlgebraHom(a, qa, m)
            else:
                with pytest.raises(StructureError):
                    AlgebraHom(a, qa, m)
    assert {"ok", "unit"} <= verdicts and len(verdicts) > 2


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("stock, dense", (
    (split_commutative, dense_split_commutative),
    (matrix_algebra, dense_matrix_algebra),
    (upper_triangular, dense_upper_triangular),
    (truncated_polynomial, dense_truncated_polynomial),
    (square_zero, dense_square_zero),
), ids=lambda fn: fn.__name__)
def test_stock_algebras_match_their_dense_tables(field, stock, dense):
    for n in range(5):
        assert stock(field, n) == dense(field, n)
