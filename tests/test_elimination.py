"""Cross-check of the sparse elimination kernel against dense Gauss-Jordan.

``_rref_rows`` below is the dense row reduction that ``linalg`` used
before elimination went sparse, kept verbatim as the reference.  The
reduced row-echelon form is unique, so the sparse kernel must reproduce
it entry for entry, whatever pivot rows it chooses.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cechcover.linalg import (
    GF, QQ, Field, Matrix, Subspace, block_matrix, image_basis, kernel_basis,
    mul_kron_identity, rank, rref, subspace_intersect, subspace_sum,
)

FIELDS = (QQ, GF(2), GF(5), GF(1000003))


def _rref_rows(field: Field, rows: list) -> tuple[list, list]:
    """In-place RREF on a list of row lists; returns (rows, pivot_columns)."""
    zero = field.zero
    div, sub, mul = field.div, field.sub, field.mul
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != field.one:
            rows[r] = [div(x, pv) for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][c]
            if factor != zero:
                ri = rows[i]
                rows[i] = [sub(x, mul(factor, y)) for x, y in zip(ri, prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


# -- reference operations built on the dense reduction --------------------------------

def ref_span(field, vectors) -> tuple:
    """RREF basis rows of the span, as Subspace.from_vectors stores them."""
    if not vectors:
        return ()
    rows, pivots = _rref_rows(field, [list(v) for v in vectors])
    return tuple(tuple(rows[i]) for i in range(len(pivots)))


def ref_kernel(m: Matrix) -> tuple:
    f = m.field
    rows, pivots = _rref_rows(f, [list(r) for r in m.entries])
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [f.zero] * m.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][fc])
        basis.append(v)
    return ref_span(f, basis)


def ref_intersect(field, n, u_rows, v_rows) -> tuple:
    """Zassenhaus on RREF bases: rows with a zero left half span U meet V."""
    rows = [list(r) + list(r) for r in u_rows] + [list(r) + [field.zero] * n for r in v_rows]
    if not rows:
        return ()
    reduced, pivots = _rref_rows(field, rows)
    out = [reduced[i][n:] for i in range(len(pivots))
           if all(x == field.zero for x in reduced[i][:n])]
    return ref_span(field, out)


def naive_mul(a: Matrix, b: Matrix) -> tuple:
    f = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = f.zero
            for k in range(a.cols):
                s = f.add(s, f.mul(a.entries[i][k], b.entries[k][j]))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


# -- random inputs ---------------------------------------------------------------------

def random_scalar(rng: random.Random, field: Field):
    roll = rng.random()
    if roll < 0.55:
        return 0
    if field == QQ and roll < 0.7:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if field == GF(1000003) and roll < 0.7:
        return rng.randrange(1000003)
    return rng.choice((1, -1, 1, -1, 2, -2, 3))


def random_rows(rng: random.Random, field: Field, rows: int, cols: int) -> list:
    return [[random_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]


def random_matrix(rng: random.Random, field: Field, cols: int) -> Matrix:
    """Random row count, with zero rows, duplicate rows and low-rank products mixed in."""
    rows = rng.randint(0, 7)
    if rows == 0 or cols == 0:
        return Matrix(field, rows, cols, tuple(() for _ in range(rows)))
    kind = rng.randrange(5)
    data = random_rows(rng, field, rows, cols)
    if kind == 1:  # all-zero rows
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            data[i] = [0] * cols
    elif kind == 2:  # duplicate and scaled rows
        for i in range(rows):
            if rng.random() < 0.5:
                src = data[rng.randrange(rows)]
                scale = rng.choice((1, -1, 2))
                data[i] = [scale * x for x in src]
    elif kind == 3:  # rank at most k, as a product
        k = rng.randint(1, 3)
        left = Matrix.from_rows(field, random_rows(rng, field, rows, k))
        right = Matrix.from_rows(field, random_rows(rng, field, k, cols))
        return Matrix(field, rows, cols, naive_mul(left, right))
    return Matrix.from_rows(field, data)


def assert_canonical(field: Field, m: Matrix):
    for row in m.entries:
        for x in row:
            if field == QQ:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < field.p


def assert_stored(m: Matrix):
    """A matrix stores no zero, and its dense view rebuilds an equal matrix
    with an equal hash."""
    assert len(m.nonzeros) == m.rows
    for row in m.nonzeros:
        assert all(0 <= c < m.cols for c in row)
        assert all(row.values())
    again = Matrix(m.field, m.rows, m.cols, m.entries)
    assert again == m and hash(again) == hash(m)


def test_sparse_kernel_matches_dense_reference():
    # 4 fields x 140 = 560 matrices
    rng = random.Random(20070)
    for field in FIELDS:
        for _ in range(140):
            n = rng.randint(0, 7)
            m = random_matrix(rng, field, n)
            ref_rows, ref_pivots = _rref_rows(field, [list(r) for r in m.entries])
            r, rk = rref(m)
            assert rk == len(ref_pivots) == rank(m)
            assert r.entries == tuple(tuple(row) for row in ref_rows)
            assert (r.rows, r.cols) == (m.rows, m.cols)
            assert_canonical(field, r)

            ker = kernel_basis(m)
            assert ker.basis.entries == ref_kernel(m)
            assert ker.dim + rk == m.cols
            assert_canonical(field, ker.basis)

            other = random_matrix(rng, field, n)
            u = Subspace.from_vectors(field, n, m.entries)
            v = Subspace.from_vectors(field, n, other.entries)
            u_ref, v_ref = ref_span(field, m.entries), ref_span(field, other.entries)
            assert (u.basis.entries, v.basis.entries) == (u_ref, v_ref)
            meet = subspace_intersect(u, v)
            assert meet.basis.entries == ref_intersect(field, n, u_ref, v_ref)
            assert_canonical(field, meet.basis)


def test_mul_matches_naive_product():
    rng = random.Random(20071)
    for field in FIELDS:
        for _ in range(40):
            a = random_matrix(rng, field, rng.randint(0, 6))
            b = Matrix.from_rows(field, random_rows(rng, field, a.cols, rng.randint(0, 6)))
            if b.rows == 0:
                b = Matrix(field, 0, rng.randint(0, 6), ())
            prod = a.mul(b)
            assert prod.entries == naive_mul(a, b)
            assert (prod.rows, prod.cols) == (a.rows, b.cols)
            assert_canonical(field, prod)
            assert_stored(prod)


def test_mul_kron_identity_matches_naive_product():
    rng = random.Random(20075)
    for field in FIELDS:
        for _ in range(30):
            x = random_matrix(rng, field, rng.randint(0, 4))
            n = rng.randint(1, 3)
            a = Matrix.from_rows(field, random_rows(rng, field, rng.randint(0, 5), x.rows * n))
            if a.rows == 0:
                a = Matrix(field, 0, x.rows * n, ())
            prod = mul_kron_identity(a, x, n)
            assert prod.entries == naive_mul(a, x.kron(Matrix.identity(field, n)))
            assert (prod.rows, prod.cols) == (a.rows, x.cols * n)
            assert_canonical(field, prod)
            assert_stored(prod)


def test_mul_reduces_unreduced_sums_mod_p():
    # entries p - 1 make every partial sum of the product leave [0, p)
    rng = random.Random(20072)
    for p in (2, 5, 1000003):
        field = GF(p)
        for _ in range(20):
            rows, inner, cols = rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 6)
            a = Matrix.from_rows(field, [[p - 1 if rng.random() < 0.8 else 0
                                          for _ in range(inner)] for _ in range(rows)])
            b = Matrix.from_rows(field, [[p - 1 if rng.random() < 0.8 else 0
                                          for _ in range(cols)] for _ in range(inner)])
            prod = a.mul(b)
            assert prod.entries == naive_mul(a, b)
            assert_canonical(field, prod)
            assert_stored(prod)


def test_mul_cancels_to_stored_zeros():
    # the first two rows of each product sum terms that cancel: 1 - 1 over Q,
    # and p - 1 + 1 over F_p
    for field in FIELDS:
        a = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 1], [1, 0, 0]])
        b = Matrix.from_rows(field, [[1, -1], [-1, 1], [1, -1]])
        k = Matrix.from_rows(field, [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 0, 0]])
        x = Matrix.from_rows(field, [[1], [1]])
        for prod, expected in ((a.mul(b), naive_mul(a, b)),
                               (mul_kron_identity(k, x, 2),
                                naive_mul(k, x.kron(Matrix.identity(field, 2))))):
            assert prod.entries == expected
            assert prod.nonzeros[0] == prod.nonzeros[1] == {}
            assert prod.nonzeros[2]
            assert_stored(prod)


def test_routes_to_one_matrix_or_subspace_agree_as_keys():
    # Covering keys its lattice by Subspace, so equal values must hash equal
    # whatever order their row dicts were filled in
    for field in FIELDS:
        prod = Matrix.from_rows(field, [[1, 1]]).mul(Matrix.from_rows(field, [[0, 0, 1],
                                                                           [1, 0, 0]]))
        assert list(prod.nonzeros[0]) == [2, 0]  # filled out of column order
        dense = Matrix.from_rows(field, [[1, 0, 1]])
        assert prod == dense and hash(prod) == hash(dense)
        assert {prod: "prod"}[dense] == "prod" and len({prod, dense}) == 1

        spans = [Subspace.from_sparse(field, 3, [dict(row) for row in prod.nonzeros]),
                 Subspace.from_vectors(field, 3, dense.entries),
                 image_basis(prod.transpose()),
                 subspace_sum(Subspace.zero(field, 3), image_basis(dense.transpose()))]
        for span in spans:
            assert span == spans[0] and hash(span) == hash(spans[0])
            assert [list(row) for row in span.sparse_basis] == [[0, 2]]  # pivot first
        assert len(set(spans)) == 1 and {spans[0]: "span"}[spans[-1]] == "span"


def test_entrywise_ops_kron_and_apply_match_field_ops():
    rng = random.Random(20073)
    for field in FIELDS:
        for _ in range(40):
            cols = rng.randint(0, 5)
            a, b = random_matrix(rng, field, cols), random_matrix(rng, field, cols)
            while b.rows != a.rows:
                b = random_matrix(rng, field, cols)
            pairs = [list(zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)]
            c = field.coerce(random_scalar(rng, field))
            v = tuple(field.coerce(random_scalar(rng, field)) for _ in range(cols))
            p = field.characteristic
            zeros = tuple((field.zero,) * cols for _ in range(a.rows))
            expected = {
                "add": tuple(tuple(field.add(x, y) for x, y in row) for row in pairs),
                "sub": tuple(tuple(field.sub(x, y) for x, y in row) for row in pairs),
                "sub-self": zeros,  # every term cancels
                "add-neg": zeros,
                "neg": tuple(tuple(field.neg(x) for x in row) for row in a.entries),
                "scale": tuple(tuple(field.mul(c, x) for x in row) for row in a.entries),
                "scale-by-p": zeros,  # 3p over F_p, 0 over Q
                "kron": tuple(tuple(field.mul(a.entries[i][j], b.entries[k][l])
                                    for j in range(a.cols) for l in range(b.cols))
                              for i in range(a.rows) for k in range(b.rows)),
                "transpose": tuple(zip(*a.entries)) if a.rows else (),
                "vstack": a.entries + b.entries,
                "block": tuple(ra + (field.zero,) * cols for ra in a.entries)
                + tuple((field.zero,) * cols + rb for rb in b.entries)
                + tuple(rb + rb for rb in b.entries),
            }
            got = {"add": a.add(b), "sub": a.sub(b), "sub-self": a.sub(a),
                   "add-neg": a.add(a.neg()), "neg": a.neg(), "scale": a.scale(c),
                   "scale-by-p": a.scale(3 * p), "kron": a.kron(b),
                   "transpose": a.transpose(), "vstack": a.vstack(b),
                   "block": block_matrix(field, [a.rows, b.rows, b.rows], [cols, cols],
                                         {(0, 0): a, (1, 1): b, (2, 0): b, (2, 1): b})}
            for name, m in got.items():
                if name == "transpose":
                    assert (m.rows, m.cols) == (a.cols, a.rows)
                    if not a.rows:
                        continue
                assert m.entries == expected[name], name
                assert_canonical(field, m)
                assert_stored(m)
            column = Matrix(field, cols, 1, tuple((x,) for x in v))
            applied = a.apply(v)
            assert applied == tuple(row[0] for row in naive_mul(a, column))
            assert_canonical(field, Matrix(field, 1, len(applied), (applied,)))


def test_zero_tests_agree_on_shared_and_fresh_zeros():
    # Zeros held in Fraction objects other than QQ.zero must read as zero, and
    # a nonzero must be found wherever it sits.
    rng = random.Random(20074)
    for field in FIELDS:
        for rows, cols in ((1, 1), (3, 4), (4, 2)):
            for r in range(rows):
                for c in range(cols):
                    data = [[0] * cols for _ in range(rows)]
                    data[r][c] = 1
                    assert not Matrix.from_rows(field, data).is_zero()
            assert Matrix.from_rows(field, [[0] * cols for _ in range(rows)]).is_zero()
            assert Matrix.zero(field, rows, cols).is_zero()
        for _ in range(60):
            m = random_matrix(rng, field, rng.randint(0, 6))
            shared = Matrix(field, m.rows, m.cols,
                            tuple(tuple(x if x else field.zero for x in row)
                                  for row in m.entries))
            assert m.is_zero() == shared.is_zero() == all(x == 0 for x in sum(m.entries, ()))
            assert rref(shared) == rref(m)
            assert kernel_basis(shared) == kernel_basis(m)
            assert shared.mul(m.transpose()).entries == naive_mul(m, m.transpose())
