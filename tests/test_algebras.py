from __future__ import annotations

import random

import pytest

from cechcover.algebras import AlgebraHom, Ideal, hom_check, ideal_closure, zero_algebra
from cechcover.errors import DimensionMismatchError, StructureError
from cechcover.linalg import GF, QQ, Matrix, Subspace
from cechcover.oracles import (
    basis_coords, direct_sum, element, from_rows, hom_compose, ideal_intersection, ideal_sum,
    make_algebra, matrix_algebra, multiply, patch, projection_hom, quotient, split_commutative,
    square_zero, to_lists, truncated_polynomial, upper_triangular,
)

from instances import make_e1


def test_split_algebra_is_valid():
    a = split_commutative(QQ, 3)
    assert a.dim == 3
    assert multiply(a, (1, 0, 0), (1, 0, 0)) == basis_coords(a, 0)
    assert multiply(a, (1, 0, 0), (0, 1, 0)) == (0, 0, 0)


def test_matrix_plus_point_is_valid():
    a = direct_sum(matrix_algebra(QQ, 2), split_commutative(QQ, 1))
    assert a.dim == 5
    # e12 * e21 = e11 in the matrix block
    assert multiply(a, basis_coords(a, 1), basis_coords(a, 2)) == basis_coords(a, 0)
    # the central idempotent kills the matrix block
    assert multiply(a, basis_coords(a, 4), basis_coords(a, 0)) == (0,) * 5


def test_non_associative_table_rejected_with_witness():
    # unit = b0; b1*b1 = b2, b2*b1 = b1, rest zero:
    # (b1 b1) b1 = b1 while b1 (b1 b1) = b1 b2 = 0.
    z, o = 0, 1

    def vec(*xs):
        return tuple(xs)

    table = [[None] * 3 for _ in range(3)]
    for j in range(3):
        table[0][j] = vec(*(o if k == j else z for k in range(3)))
        table[j][0] = vec(*(o if k == j else z for k in range(3)))
    table[1][1] = vec(z, z, o)
    table[1][2] = vec(z, z, z)
    table[2][1] = vec(z, o, z)
    table[2][2] = vec(z, z, z)
    with pytest.raises(StructureError) as err:
        make_algebra(QQ, 3, table, (1, 0, 0))
    assert err.value.witness[0] == "associativity"


def test_unit_law_failure_rejected():
    with pytest.raises(StructureError) as err:
        make_algebra(QQ, 1, (((0,),),), (1,))
    assert "unit" in str(err.value)


@pytest.mark.parametrize("table, witness", [
    ([[[1, 0]], [[0, 1], [0, 0]]], (0,)),              # row 0 is short
    ([[[1, 0], [0, 1]], [[0], [0, 0]]], (1, 0)),       # vector (1,0) is short
    ([[[1, 0], [0, 1]]], ()),                          # a row is missing
])
def test_short_table_rejected_with_witness(table, witness):
    with pytest.raises(StructureError) as err:
        make_algebra(QQ, 2, table, [1, 0])
    assert err.value.witness == witness


def test_elements_of_different_algebras_do_not_combine():
    x = element(split_commutative(QQ, 2), (1, 2))
    y = element(truncated_polynomial(QQ, 2), (3, 4))
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(DimensionMismatchError):
            op()
    assert (x + x).coords == (2, 4) and (x - x).is_zero()


def test_zero_algebra_is_legal():
    a = zero_algebra(QQ)
    assert a.dim == 0


# -- ideals ---------------------------------------------------------------------

def test_ideal_closure_of_nothing_is_zero():
    a = split_commutative(QQ, 3)
    assert ideal_closure(a, []).space.dim == 0


def test_ideal_closure_already_closed():
    a = split_commutative(QQ, 3)
    i = ideal_closure(a, [(0, 0, 1)])
    assert i.space == Subspace.from_vectors(QQ, 3, [(0, 0, 1)])


def test_ideal_closure_upper_triangular():
    # closure of e11 picks up e12 because e11*e12 = e12
    a = upper_triangular(QQ, 2)  # basis e11, e12, e22
    i = ideal_closure(a, [(1, 0, 0)])
    assert i.space.dim == 2
    assert i.space == Subspace.from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 0)])


def test_ideal_closure_idempotent_random():
    rng = random.Random(23)
    for _ in range(15):
        a = rng.choice(
            [split_commutative(QQ, 3), upper_triangular(QQ, 2),
             truncated_polynomial(QQ, 3), square_zero(QQ, 2)])
        gens = [[rng.randint(-2, 2) for _ in range(a.dim)]
                for _ in range(rng.randint(0, 2))]
        i = ideal_closure(a, gens)
        again = ideal_closure(a, list(i.space.basis.entries))
        assert again.space == i.space


def test_ideal_validation_rejects_non_ideal():
    a = upper_triangular(QQ, 2)
    with pytest.raises(StructureError):
        Ideal(a, Subspace.from_vectors(QQ, 3, [(1, 0, 0)]))  # e11 alone: not closed


# -- quotients -------------------------------------------------------------------

def test_quotient_by_zero_ideal_is_isomorphic_copy():
    a = split_commutative(QQ, 3)
    q, pi = quotient(a, ideal_closure(a, []))
    assert q.dim == 3
    assert pi.matrix == Matrix.identity(QQ, 3)


def test_quotient_split_by_axis():
    a = split_commutative(QQ, 3)
    q, pi = quotient(a, ideal_closure(a, [(0, 0, 1)]))
    assert q.dim == 2
    assert to_lists(pi.matrix) == [[1, 0, 0], [0, 1, 0]]
    assert q.labels == ("e1", "e2")


def test_quotient_matrix_block_leaves_the_point():
    a = direct_sum(matrix_algebra(QQ, 2), split_commutative(QQ, 1))
    m2 = ideal_closure(a, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                           (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    q, _ = quotient(a, m2)
    assert q.dim == 1


def test_quotient_by_everything_is_zero_algebra():
    a = split_commutative(QQ, 2)
    full = ideal_closure(a, [(1, 0), (0, 1)])
    q, pi = quotient(a, full)
    assert q.dim == 0
    assert pi.matrix.rows == 0 and pi.matrix.cols == 2


def test_quotient_dim_is_codim_random():
    rng = random.Random(29)
    for _ in range(15):
        a = truncated_polynomial(QQ, rng.randint(2, 4))
        gens = [[rng.randint(0, 2) for _ in range(a.dim)]
                for _ in range(rng.randint(0, 2))]
        j = ideal_closure(a, gens)
        q, _ = quotient(a, j)
        assert q.dim == a.dim - j.space.dim


# -- sums and intersections --------------------------------------------------------

def test_ideal_sum_with_zero():
    a = split_commutative(QQ, 3)
    j = ideal_closure(a, [(0, 0, 1)])
    z = ideal_closure(a, [])
    assert ideal_sum(j, z).space == j.space


def test_ideal_sum_and_intersection_axes():
    a = split_commutative(QQ, 3)
    j3 = ideal_closure(a, [(0, 0, 1)])
    j1 = ideal_closure(a, [(1, 0, 0)])
    assert ideal_sum(j3, j1).space == Subspace.from_vectors(QQ, 3, [(1, 0, 0), (0, 0, 1)])
    assert ideal_intersection([j3, j1]).dim == 0


# -- homomorphisms ------------------------------------------------------------------

def test_identity_compose_is_identity():
    a = split_commutative(QQ, 2)
    ident = AlgebraHom.identity(a)
    f = AlgebraHom(a, a, from_rows(QQ, [[0, 1], [1, 0]]))  # swap, a valid hom
    assert hom_compose(ident, f).matrix == f.matrix
    assert hom_compose(f, ident).matrix == f.matrix


def test_e1_patch_square_commutes():
    c = make_e1()
    pi1_12, pi2_12 = (projection_hom(c, c.ideals[k].space, c.ideal_sum_space((1, 2)))
                      for k in (0, 1))
    left = pi1_12.matrix.mul(patch(c, 1)[1].matrix)
    right = pi2_12.matrix.mul(patch(c, 2)[1].matrix)
    assert left == right
    assert to_lists(left) == [[0, 1, 0]]  # evaluation at the shared coordinate


def test_non_multiplicative_map_rejected_with_witness():
    a = split_commutative(QQ, 2)
    # averaging map: fixes the unit but is not multiplicative on e1*e1 = e1
    bad = from_rows(QQ, [["1/2", "1/2"], ["1/2", "1/2"]])
    with pytest.raises(StructureError):
        AlgebraHom(a, a, bad)
    report = hom_check(AlgebraHom.identity(a))
    assert report.ok
    # direct check of the witness without constructing the invalid hom

    class Raw:
        domain = a
        codomain = a
        matrix = bad

    report = hom_check(Raw())
    assert not report.ok and report.witness == (0, 0)


def test_hom_into_zero_algebra():
    a = split_commutative(QQ, 2)
    z = zero_algebra(QQ)
    hom = AlgebraHom(a, z, Matrix(QQ, 0, 2, ()))
    assert hom.matrix.apply((1, 2)) == ()


def test_fp_algebras_work():
    a = split_commutative(GF(5), 3)
    assert multiply(a, (2, 0, 0), (4, 0, 0)) == (3, 0, 0)
