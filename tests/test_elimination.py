"""Cross-check of the sparse elimination kernel against dense Gauss-Jordan.

``_rref_rows`` below is the dense row reduction that ``linalg`` used
before elimination went sparse, kept verbatim as the reference.  The
reduced row-echelon form is unique, so the sparse kernel must reproduce
it entry for entry, whatever pivot rows it chooses.
"""

from __future__ import annotations

import fractions
import heapq
import random
from fractions import Fraction
from functools import partial

from cechcover.linalg import GF, QQ, Field, Matrix, Subspace, kernel_basis, rank, subspace_sum
from cechcover.oracles import (
    block_matrix, from_rows, image_basis, kron, matrix_add, matrix_sub, mul_kron_identity, rref,
    scalar_div, scalar_mul, scalar_sub, scale, subspace_intersect, transpose, vstack,
)

FIELDS = (QQ, GF(2), GF(5), GF(1000003))


def _rref_rows(field: Field, rows: list) -> tuple[list, list]:
    """In-place RREF on a list of row lists; returns (rows, pivot_columns)."""
    zero = field.zero
    div, sub, mul = (partial(op, field) for op in (scalar_div, scalar_sub, scalar_mul))
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
                s = f.add(s, scalar_mul(f, a.entries[i][k], b.entries[k][j]))
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
        left = from_rows(field, random_rows(rng, field, rows, k))
        right = from_rows(field, random_rows(rng, field, k, cols))
        return Matrix(field, rows, cols, naive_mul(left, right))
    return from_rows(field, data)


def assert_canonical(field: Field, m: Matrix):
    """Every entry is an int or a Fraction over Q and an int in [0, p) over
    F_p, and no zero is stored."""
    for row in m.entries:
        for x in row:
            if field == QQ:
                assert type(x) in (int, Fraction)
            else:
                assert type(x) is int and 0 <= x < field.p
    assert all(all(row.values()) for row in m.nonzeros)


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
            kept = [dict(row) for row in m.nonzeros]
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
            assert list(m.nonzeros) == kept  # the kernels copy the rows they reduce

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
            b = from_rows(field, random_rows(rng, field, a.cols, rng.randint(0, 6)))
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
            a = from_rows(field, random_rows(rng, field, rng.randint(0, 5), x.rows * n))
            if a.rows == 0:
                a = Matrix(field, 0, x.rows * n, ())
            prod = mul_kron_identity(a, x, n)
            assert prod.entries == naive_mul(a, kron(x, Matrix.identity(field, n)))
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
            a = from_rows(field, [[p - 1 if rng.random() < 0.8 else 0
                                   for _ in range(inner)] for _ in range(rows)])
            b = from_rows(field, [[p - 1 if rng.random() < 0.8 else 0
                                   for _ in range(cols)] for _ in range(inner)])
            prod = a.mul(b)
            assert prod.entries == naive_mul(a, b)
            assert_canonical(field, prod)
            assert_stored(prod)


def test_mul_cancels_to_stored_zeros():
    # the first two rows of each product sum terms that cancel: 1 - 1 over Q,
    # and p - 1 + 1 over F_p
    for field in FIELDS:
        a = from_rows(field, [[1, 1, 0], [0, 1, 1], [1, 0, 0]])
        b = from_rows(field, [[1, -1], [-1, 1], [1, -1]])
        k = from_rows(field, [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 0, 0]])
        x = from_rows(field, [[1], [1]])
        for prod, expected in ((a.mul(b), naive_mul(a, b)),
                               (mul_kron_identity(k, x, 2),
                                naive_mul(k, kron(x, Matrix.identity(field, 2))))):
            assert prod.entries == expected
            assert prod.nonzeros[0] == prod.nonzeros[1] == {}
            assert prod.nonzeros[2]
            assert_stored(prod)


def test_routes_to_one_matrix_or_subspace_agree_as_keys():
    # Covering keys its lattice by Subspace, so equal values must hash equal
    # whatever order their row dicts were filled in
    for field in FIELDS:
        prod = from_rows(field, [[1, 1]]).mul(from_rows(field, [[0, 0, 1],
                                                                [1, 0, 0]]))
        assert list(prod.nonzeros[0]) == [2, 0]  # filled out of column order
        dense = from_rows(field, [[1, 0, 1]])
        assert prod == dense and hash(prod) == hash(dense)
        assert {prod: "prod"}[dense] == "prod" and len({prod, dense}) == 1

        spans = [Subspace.from_sparse(field, 3, [dict(row) for row in prod.nonzeros]),
                 Subspace.from_vectors(field, 3, dense.entries),
                 image_basis(transpose(prod)),
                 subspace_sum(Subspace.zero(field, 3), image_basis(transpose(dense)))]
        for span in spans:
            assert span == spans[0] and hash(span) == hash(spans[0])
            assert [list(row) for row in span.sparse_basis] == [[0, 2]]  # pivot first
        assert len(set(spans)) == 1 and {spans[0]: "span"}[spans[-1]] == "span"
    # arithmetic can leave an integral Fraction where coerce stores an int
    stored = Matrix(QQ, 1, 2, ((Fraction(2), Fraction(1, 2)),))
    coerced = from_rows(QQ, [[2, Fraction(1, 2)]])
    assert type(coerced.nonzeros[0][0]) is int
    assert stored == coerced and hash(stored) == hash(coerced)


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
                "sub": tuple(tuple(scalar_sub(field, x, y) for x, y in row) for row in pairs),
                "sub-self": zeros,  # every term cancels
                "add-neg": zeros,
                "neg": tuple(tuple(field.neg(x) for x in row) for row in a.entries),
                "scale": tuple(tuple(scalar_mul(field, c, x) for x in row) for row in a.entries),
                "scale-by-p": zeros,  # 3p over F_p, 0 over Q
                "kron": tuple(tuple(scalar_mul(field, a.entries[i][j], b.entries[k][l])
                                    for j in range(a.cols) for l in range(b.cols))
                              for i in range(a.rows) for k in range(b.rows)),
                "transpose": tuple(zip(*a.entries)) if a.rows else (),
                "vstack": a.entries + b.entries,
                "block": tuple(ra + (field.zero,) * cols for ra in a.entries)
                + tuple((field.zero,) * cols + rb for rb in b.entries)
                + tuple(rb + rb for rb in b.entries),
            }
            got = {"add": matrix_add(a, b), "sub": matrix_sub(a, b),
                   "sub-self": matrix_sub(a, a), "add-neg": matrix_add(a, a.neg()),
                   "neg": a.neg(), "scale": scale(a, c),
                   "scale-by-p": scale(a, 3 * p), "kron": kron(a, b),
                   "transpose": transpose(a), "vstack": vstack(a, b),
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
                    assert not from_rows(field, data).is_zero()
            assert from_rows(field, [[0] * cols for _ in range(rows)]).is_zero()
            assert Matrix.zero(field, rows, cols).is_zero()
        for _ in range(60):
            m = random_matrix(rng, field, rng.randint(0, 6))
            shared = Matrix(field, m.rows, m.cols,
                            tuple(tuple(x if x else field.zero for x in row)
                                  for row in m.entries))
            assert m.is_zero() == shared.is_zero() == all(x == 0 for x in sum(m.entries, ()))
            assert rref(shared) == rref(m)
            assert kernel_basis(shared) == kernel_basis(m)
            assert shared.mul(transpose(m)).entries == naive_mul(m, transpose(m))


# -- the integer kernels over Q against the Fraction kernels they replaced ----------------
#
# ``ref_eliminate``, ``ref_clear`` and ``ref_product`` are the sparse kernels
# as they stood when the inner loops over Q ran on Fraction values, kept
# verbatim (with the F_p branches, which are unchanged) as the reference.

def ref_eliminate(field: Field, rows: list, reduce: bool) -> tuple[list, list]:
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
            ref_clear(row, prow, c, p)
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
                    ref_clear(row, prow, c, p)
    return pivot_rows, pivots


def ref_clear(row: dict, prow: dict, c: int, p: int) -> None:
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


def ref_product(a: Matrix, ncols: int, right_row) -> Matrix:
    """a times the ncols-column matrix whose row k has the nonzeros
    ``right_row(k)``, as (column, value) pairs; each row is asked for once."""
    p = a.field.characteristic
    right: dict = {}
    out = []
    for row in a.nonzeros:
        acc: dict = {}
        for k, av in row.items():
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
        if p:
            out.append({c: y for c, x in acc.items() if (y := x % p)})
        else:
            out.append({c: y for c, y in acc.items() if y})
    return Matrix.from_nonzeros(a.field, a.rows, ncols, tuple(out))


def ref_mul(a: Matrix, b: Matrix) -> Matrix:
    right = b.nonzeros
    return ref_product(a, b.cols, lambda k: right[k].items())


def ref_mul_kron_identity(a: Matrix, x: Matrix, n: int) -> Matrix:
    x_rows = x.nonzeros

    def right_row(k):
        i, s = divmod(k, n)
        return [(j * n + s, v) for j, v in x_rows[i].items()]

    return ref_product(a, x.cols * n, right_row)


DENOMINATORS = (1, 1, 1, 2, 3, 4, 6, 7, 9, 10, 12, 35)


def rational_entry(rng: random.Random, integral: bool) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(0)
    den = 1 if integral else rng.choice(DENOMINATORS)
    return Fraction(rng.choice((-1, 1)) * rng.choice((1, 1, 2, 3, 5, 8, 13, 60, 10 ** 12 + 39)),
                    den)


def rational_matrix(rng: random.Random, rows: int, cols: int, integral: bool) -> Matrix:
    """Seeded Q matrix with zero rows, repeated and scaled rows, or of low
    rank as a product; ``integral`` keeps every entry an integer."""
    data = [[rational_entry(rng, integral) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(4)
    if kind == 1 and rows:
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            data[i] = [Fraction(0)] * cols
    elif kind == 2 and rows:
        for i in range(rows):
            if rng.random() < 0.5:
                scale = rational_entry(rng, integral) or Fraction(-1)
                data[i] = [scale * x for x in data[rng.randrange(rows)]]
    elif kind == 3:
        k = rng.randint(1, 3)
        return ref_mul(rational_matrix(rng, rows, k, integral),
                       rational_matrix(rng, k, cols, integral))
    return Matrix(QQ, rows, cols, tuple(tuple(row) for row in data))


def assert_rationals(m: Matrix):
    """Every stored value is a nonzero int or Fraction."""
    assert all(type(x) in (int, Fraction) and x for row in m.nonzeros for x in row.values())


def test_q_kernels_match_the_fraction_kernels():
    rng = random.Random(20261019)
    for trial in range(400):
        integral = trial % 3 == 0
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        m = rational_matrix(rng, rows, cols, integral)
        ref_rows, ref_pivots = ref_eliminate(QQ, [dict(row) for row in m.nonzeros], True)
        ref_rows.extend({} for _ in range(m.rows - len(ref_rows)))
        reduced, rk = rref(m)
        assert rank(m) == rk == len(ref_pivots)
        assert reduced == Matrix.from_nonzeros(QQ, m.rows, m.cols, tuple(ref_rows))
        assert_rationals(reduced)

        kept = [dict(row) for row in m.nonzeros]
        span = Subspace.from_sparse(QQ, cols, m.nonzeros)
        assert list(m.nonzeros) == kept
        assert span.sparse_basis == tuple(dict(sorted(row.items()))
                                          for row in ref_rows[:rk])
        assert [list(row) for row in span.sparse_basis] == [sorted(row)
                                                            for row in span.sparse_basis]
        assert_rationals(span.basis)
        for row in m.nonzeros:
            assert span.contains_sparse(row)
        weights = from_rows(QQ, [[Fraction(r + 2, 3) for r in range(m.rows)]])
        assert span.contains_sparse(ref_mul(weights, m).nonzeros[0])
        probe = rational_matrix(rng, 1, cols, integral).nonzeros[0]
        residue = dict(probe)
        for row, c in zip(ref_rows, ref_pivots):
            if c in residue:
                ref_clear(residue, row, c, 0)
        inside = not residue
        assert span.contains_sparse(probe) == inside
        assert rank(vstack(m, Matrix.from_nonzeros(QQ, 1, cols, (probe,)))) == rk + (not inside)

        # integral and non-integral factors, in both orders
        other = rational_matrix(rng, cols, rng.randint(0, 6), trial % 2 == 0)
        for a, b in ((m, other), (transpose(other), transpose(m))):
            prod = a.mul(b)
            assert prod == ref_mul(a, b) and (prod.rows, prod.cols) == (a.rows, b.cols)
            assert_rationals(prod)
        n = rng.randint(1, 3)
        left = rational_matrix(rng, rng.randint(0, 4), other.rows * n, trial % 5 == 0)
        prod = mul_kron_identity(left, other, n)
        assert prod == ref_mul_kron_identity(left, other, n)
        assert_rationals(prod)


def test_integral_products_that_cancel_do_no_fraction_arithmetic(monkeypatch):
    # d.d = 0 of a coboundary: every sum cancels, so no entry is stored
    d0 = from_rows(QQ, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    d1 = from_rows(QQ, [[1, -1, 1]])
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b, name=name, real=real: calls.append(name) or real(a, b))
    # linalg imports Fraction where it makes one, so a new one is made here
    monkeypatch.setattr(fractions, "Fraction", lambda *args: calls.append(args))
    assert d1.mul(d0).is_zero() and mul_kron_identity(d1, d0, 1).is_zero()
    assert calls == []
