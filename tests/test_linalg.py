from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cechcover.complexes import WordComplex
from cechcover.errors import FieldMismatchError, NotAComplexError
from cechcover.linalg import (
    GF, QQ, Matrix, Subspace, kernel_basis, quotient_map, rank, subspace_sum,
)
from cechcover.oracles import (
    contains, from_rows, full_space, image_basis, quotient_section, rref, scalar_div,
    subspace_intersect, to_lists, transpose,
)


def mat(field, rows):
    return from_rows(field, rows)


# -- fields ------------------------------------------------------------------

def test_prime_field_canonical_representatives():
    f5 = GF(5)
    assert f5.coerce(7) == 2
    assert f5.coerce(-1) == 4
    assert f5.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5


def test_prime_field_division_by_zero():
    f5 = GF(5)
    with pytest.raises(ZeroDivisionError):
        scalar_div(f5, 1, 0)
    with pytest.raises(ZeroDivisionError):
        scalar_div(QQ, QQ.one, QQ.zero)


def test_prime_field_rejects_composites_and_huge_orders():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(2 ** 31)


def test_mixed_fields_rejected():
    a = mat(QQ, [[1]])
    b = mat(GF(5), [[1]])
    with pytest.raises(FieldMismatchError):
        a.mul(b)


# -- rref ---------------------------------------------------------------------

def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, rk = rref(m)
    assert r == m and rk == 2


def test_rref_dependent_rows():
    r, rk = rref(mat(QQ, [[1, 2], [2, 4]]))
    assert rk == 1
    assert to_lists(r) == [[1, 2], [0, 0]]


def test_rref_over_f2():
    # [[1,1],[1,2]] over F_2 is [[1,1],[1,0]]; the rows are independent.
    r, rk = rref(mat(GF(2), [[1, 1], [1, 2]]))
    assert rk == 2
    # contrast: [[1,1],[3,3]] collapses mod 2
    _, rk2 = rref(mat(GF(2), [[1, 1], [3, 3]]))
    assert rk2 == 1


def test_rank_equals_rank_of_transpose_random():
    rng = random.Random(7)
    for field in (QQ, GF(5)):
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = mat(field, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
            assert rank(m) == rank(transpose(m))


# -- kernels and images --------------------------------------------------------

def test_kernel_of_zero_matrix_is_everything():
    assert kernel_basis(Matrix.zero(QQ, 3, 3)).dim == 3


def test_kernel_of_identity_is_zero():
    assert kernel_basis(Matrix.identity(QQ, 4)).dim == 0


def test_kernel_of_difference_functional():
    ker = kernel_basis(mat(QQ, [[1, -1]]))
    assert ker == Subspace.from_vectors(QQ, 2, [(1, 1)])


def test_rank_nullity_random():
    rng = random.Random(11)
    for field in (QQ, GF(5)):
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = mat(field, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
            assert kernel_basis(m).dim + rank(m) == cols


# -- sums and intersections -----------------------------------------------------

def span(field, n, vecs):
    return Subspace.from_vectors(field, n, vecs)


def test_intersect_axes_is_zero():
    u = span(QQ, 2, [(1, 0)])
    v = span(QQ, 2, [(0, 1)])
    assert subspace_intersect(u, v).dim == 0


def test_sum_spans_plane():
    u = span(QQ, 2, [(1, 0)])
    v = span(QQ, 2, [(1, 1)])
    assert subspace_sum(u, v) == full_space(QQ, 2)


def test_intersect_two_planes_in_k3():
    u = span(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    v = span(QQ, 3, [(0, 1, 0), (0, 0, 1)])
    assert subspace_intersect(u, v) == span(QQ, 3, [(0, 1, 0)])


def test_contains_takes_raw_entries():
    f5 = GF(5)
    assert contains(Subspace.zero(f5, 2), (5, -10))
    assert contains(span(f5, 3, [(1, 2, 0)]), (6, 12, 5))
    assert not contains(span(f5, 3, [(1, 2, 0)]), (1, 2, 1))
    u = span(QQ, 3, [(1, 1, 0), (0, 1, 1)])
    assert contains(u, (Fraction(1, 2), 1, Fraction(1, 2)))
    assert not contains(u, (1, 0, 0))


def test_grassmann_identity_random():
    rng = random.Random(13)
    for field in (QQ, GF(5)):
        for _ in range(40):
            n = rng.randint(1, 5)
            u = span(field, n, [[rng.randint(-2, 2) for _ in range(n)]
                                for _ in range(rng.randint(0, n))])
            v = span(field, n, [[rng.randint(-2, 2) for _ in range(n)]
                                for _ in range(rng.randint(0, n))])
            s = subspace_sum(u, v)
            i = subspace_intersect(u, v)
            assert u.dim + v.dim == s.dim + i.dim


# -- quotients -------------------------------------------------------------------

def test_quotient_by_zero_is_identity():
    q = quotient_map(2, Subspace.zero(QQ, 2))
    assert q == Matrix.identity(QQ, 2)


def test_quotient_by_everything_is_empty():
    q = quotient_map(2, full_space(QQ, 2))
    assert q.rows == 0 and q.cols == 2


def test_quotient_by_diagonal():
    w = span(QQ, 2, [(1, 1)])
    q = quotient_map(2, w)
    assert to_lists(q) == [[-1, 1]]
    assert kernel_basis(q) == w


def test_quotient_map_is_deterministic():
    w1 = span(QQ, 3, [(1, 0, 2), (0, 1, 1)])
    w2 = span(QQ, 3, [(1, 1, 3), (2, 1, 5)])  # same space, different generators
    assert w1 == w2
    assert quotient_map(3, w1) == quotient_map(3, w2)


def test_quotient_section_is_right_inverse():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        w = span(QQ, n, [[rng.randint(-2, 2) for _ in range(n)]
                         for _ in range(rng.randint(0, n))])
        q = quotient_map(n, w)
        s = quotient_section(n, w)
        assert q.mul(s) == Matrix.identity(QQ, q.rows)
        assert kernel_basis(q) == w


# -- homology --------------------------------------------------------------------

def homology_dim(d_in, d_out):
    """dim ker(d_out) - rank(d_in), for one-word spaces, after the d.d = 0 check."""
    dims = (d_in.cols, d_in.rows, d_out.rows)
    cx = WordComplex(d_in.field, 2, ((),), lambda w: (0,), lambda w: dims[len(w)],
                     lambda w: [(1, w + (0,))], lambda w, v: (d_in, d_out)[len(w)])
    assert [space.words for space in cx.spaces] == [((),), ((0,),), ((0, 0),)]
    if cx.first_nonzero_square() is not None:
        raise NotAComplexError("d_1 . d_0 != 0", degree=0)
    return cx.homology(0, 2, 0)[1]


def test_homology_zero_maps():
    z = Matrix.zero(QQ, 4, 4)
    assert homology_dim(z, z) == 4


def test_homology_identity_in():
    d_in = Matrix.identity(QQ, 3)
    d_out = Matrix.zero(QQ, 1, 3)
    assert homology_dim(d_in, d_out) == 0


def test_homology_exact_pair():
    d_in = mat(QQ, [[1], [1]])
    d_out = mat(QQ, [[1, -1]])
    assert homology_dim(d_in, d_out) == 0


def test_homology_rejects_non_complex():
    d_in = mat(QQ, [[1], [0]])
    d_out = mat(QQ, [[1, 0]])
    with pytest.raises(NotAComplexError):
        homology_dim(d_in, d_out)


def test_image_basis():
    m = mat(QQ, [[1, 1], [0, 0], [1, 1]])
    assert image_basis(m) == span(QQ, 3, [(1, 0, 1)])
